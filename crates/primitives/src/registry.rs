//! Epoch-aware allocation registry with bounded-garbage reclamation and
//! per-thread node pools.
//!
//! The paper's model assumes garbage collection: update nodes stay reachable
//! from long-lived shared fields (`t.dNodePtr` can reference an old DEL node
//! indefinitely; an INS node's `target` keeps a DEL node readable long after
//! the `Delete` completes). The original reproduction therefore deferred
//! *every* free to structure drop — sound, but resident memory grew with the
//! total number of updates ever performed. PR 3 replaced that arena with
//! epoch-based reclamation; this revision removes the *allocator* from the
//! steady-state churn path entirely:
//!
//! * Every node is heap-allocated **once**, with an intrusive pool header
//!   (chain link + epoch stamp) in front of the value. [`Registry::retire`]
//!   therefore allocates nothing: it threads the node onto the calling
//!   thread's *retire bag* through the embedded link.
//! * Each `(thread, registry)` pair owns a **local pool** — a retire bag
//!   plus a free list of recycled nodes. [`Registry::alloc`] pops the free
//!   list (refilling from a shared stock in batches) before it ever touches
//!   the heap, so warm steady-state churn performs **zero** heap
//!   allocations per operation. `tests/alloc_plateau.rs` asserts exactly
//!   this via the [`Registry::allocated`] (fresh heap boxes) vs
//!   [`Registry::recycled`] (pool hits) counters.
//! * Retire bags flush to the shared limbo in batches — on overflow
//!   (`BAG_CAP`) and at the start of every sweep — so the shared Treiber
//!   stacks are touched once per batch instead of once per retire. Pools
//!   released by exited threads are *stolen* by later sweeps, so their
//!   garbage keeps aging without them.
//! * Reclamation itself is unchanged from PR 3: a node is freed (now:
//!   recycled) only after three global-epoch advances past its stamp (see
//!   [`crate::epoch`]) and once its type's [`Reclaim::ready_to_reclaim`]
//!   gate opens, with [`Reclaim::on_reclaim`] running right before the
//!   value is dropped.
//!
//! # Bag flushing and the grace-period stamp
//!
//! Bags extend the restamp-soundness argument from the PR 3 review fix.
//! A node can sit in a bag for many epochs while its gate is closed (a DEL
//! parked in a `dNodePtr` slot); when the gate finally opens, a reader
//! pinned at the *current* epoch may have captured the pointer just before
//! the gate-opening store. Stamping the limbo entry with the (ancient)
//! retire-time epoch would let its grace period elapse under that reader's
//! pin. The flush therefore stamps with a **fresh epoch read taken after
//! the readiness probe**: the capture happened before the gate-opening
//! store the probe observed, so the reader's pin precedes the read, the
//! stamp is at least the reader's pin epoch, and the reader blocks the
//! advance to `stamp + GRACE` until it unpins.
//! `bag_flush_stamps_after_gate_probe` is the regression test.
//!
//! # Re-probing gated garbage
//!
//! A retired node whose [`Reclaim::ready_to_reclaim`] gate is closed parks
//! in the `pending` stack until a probe finds the gate open. How many park
//! there is set by the owner's long-lived references, not by the garbage:
//! the trie parks one DEL node per occupied `dNodePtr` slot, up to
//! `2^b − 1` of them. Re-probing them all on every sweep would cost
//! Θ(parked) per sweep however little was retired, so a sweep re-probes
//! `pending` only once the nodes retired into the registry since the last
//! re-probe reach half of its depth; [`Registry::flush`] re-probes on every
//! sweep. Each re-probe of `P` nodes is then paid for by at least `P/2`
//! retirements, so a retired node costs at most two extra probes, whatever
//! the number of parked nodes.
//!
//! The price is latency: a node whose gate opens waits in `pending` until
//! the next re-probe. Between re-probes `pending` grows by retirements,
//! which also count toward the trigger (and by the rare limbo node whose
//! gate closed again), so it holds at most about twice the gated nodes the
//! last re-probe found, plus one bag per thread flushed while another
//! thread's sweep ran (concurrent callers skip the sweep, not the flush).
//! The registry still owns every parked node, so teardown and pool
//! stealing free them as before, and every node is probed again before it
//! leaves `pending` or `limbo`.
//!
//! # Counters
//!
//! All counters are statistics (Relaxed orderings; nothing synchronizes
//! through them):
//!
//! * [`Registry::allocated`] — fresh heap allocations. Plateaus once churn
//!   is warm: the whole point of the pools.
//! * [`Registry::recycled`] — allocations served from a free list.
//! * [`Registry::created`] — `allocated + recycled`: the cumulative node
//!   series a garbage collector would have been handed (the E6 metric,
//!   previously reported by `allocated`).
//! * [`Registry::reclaimed`] — values destroyed (reclaimed, deallocated, or
//!   teardown-freed). `live = created − reclaimed` is the value-resident
//!   count the memory-bound suite asserts on.
//! * [`Registry::resident`] — heap-resident node memory, *pools included*
//!   (`allocated − freed-to-heap`); bounded by `live` plus the pool caps.
//!
//! Under steady-state churn the unreclaimed node count is
//! `O(threads² + deferred references + live set + pool caps)`, independent
//! of the total number of updates — `tests/memory_bound.rs` asserts
//! exactly this.

use core::cell::{Cell, RefCell};
use core::marker::PhantomData;
use core::mem::{offset_of, ManuallyDrop};
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::collections::HashMap;

use crossbeam::utils::CachePadded;
use lftrie_telemetry::{self as telemetry, Counter, FlightKind, ReclaimHealth};

use crate::epoch::{Domain, Guard};

/// Epochs a retired node must age before it can be freed. See
/// [`crate::epoch`] for why this is 3 and not the textbook 2.
const GRACE_EPOCHS: u64 = 3;

/// Retires a thread buffers in its local bag before flushing them to the
/// shared limbo (and sweeping). Doubles as the amortized sweep cadence, so
/// it also sets how much one sweep frees on average — and so how long the
/// update that runs it stalls.
const BAG_CAP: usize = 16;

/// Recycled nodes a thread parks on its local free list; overflow goes to
/// the shared stock.
const LOCAL_FREE_CAP: usize = 64;

/// Approximate cap on the shared recycle stock; beyond it, aged-out nodes
/// go back to the heap so a one-off burst cannot pin its high-water mark in
/// the pools forever.
const SHARED_FREE_CAP: usize = 1024;

/// Sweeps per timed sweep. Two clock reads cost about a tenth of a short
/// sweep, more than the always-on telemetry budget can absorb on every
/// sweep, so `sweep_ns` times every `SWEEP_SAMPLE`-th sweep a thread runs
/// and counts it `SWEEP_SAMPLE` times.
const SWEEP_SAMPLE: u64 = 16;

/// Reclamation protocol for nodes retired through a [`Registry`].
///
/// The default implementation suits nodes that are unreachable as soon as
/// they are unlinked (list cells, baseline nodes). Types with long-lived
/// shared references override both hooks; the registry re-checks
/// `ready_to_reclaim` immediately before every free, so a reference acquired
/// while the node sat in limbo (e.g. a late `target` edge) reliably defers
/// it again.
pub trait Reclaim {
    /// May the node be freed now? Called with the node still allocated.
    ///
    /// Must only transition `false → true` "eventually stably": once it
    /// returns `true` and no thread pinned before the retirement is still
    /// active, it must not flip back (new references to retired nodes can
    /// only be created by such pinned threads).
    fn ready_to_reclaim(&self) -> bool {
        true
    }

    /// Runs immediately before the node is freed on the reclamation path
    /// (not on bulk teardown, where referenced peers may already be gone).
    /// Used to drop reference counts this node holds on other nodes.
    fn on_reclaim(&self) {}
}

/// Allocation statistics snapshot of one [`Registry`] (see
/// [`Registry::stats`]). All fields are Relaxed-loaded counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Fresh heap allocations (plateaus once churn is warm).
    pub fresh: usize,
    /// Allocations served from a recycle pool.
    pub recycled: usize,
    /// Cumulative logical allocations: `fresh + recycled` (the E6 series).
    pub created: usize,
    /// Values destroyed so far (reclaimed, deallocated, teardown-freed).
    pub reclaimed: usize,
    /// Value-resident nodes: `created − reclaimed`.
    pub live: usize,
    /// Heap-resident nodes, pooled free nodes included: `fresh − freed`.
    pub resident: usize,
}

/// One pooled allocation: the intrusive garbage/free-list header followed by
/// the payload. `repr(C)` so the payload pointer handed to callers converts
/// back to the node with a constant offset.
#[repr(C)]
struct PoolNode<T> {
    /// Chain link threading the node through whichever container owns it
    /// exclusively right now: a local free list or retire bag (owner
    /// thread), a shared stack segment (the pushing thread until the CAS
    /// lands, then the draining sweeper).
    next: Cell<*mut PoolNode<T>>,
    /// Grace-period stamp; freed once `global ≥ epoch + GRACE`. Written at
    /// retire (fallback path) and re-written at every bag flush and
    /// pending→limbo transfer (see the module docs).
    epoch: Cell<u64>,
    /// The payload. Dropped exactly once on the reclaim/dealloc/teardown
    /// paths; the emptied slot is then recycled or returned to the heap.
    value: ManuallyDrop<T>,
}

impl<T> PoolNode<T> {
    fn new_boxed(value: T) -> *mut PoolNode<T> {
        Box::into_raw(Box::new(PoolNode {
            next: Cell::new(core::ptr::null_mut()),
            epoch: Cell::new(0),
            value: ManuallyDrop::new(value),
        }))
    }

    /// The payload pointer handed to registry callers.
    #[inline]
    fn value_ptr(node: *mut PoolNode<T>) -> *mut T {
        unsafe { &raw mut (*node).value }.cast()
    }

    /// Recovers the node from a payload pointer returned by
    /// [`PoolNode::value_ptr`].
    #[inline]
    fn from_value(ptr: *mut T) -> *mut PoolNode<T> {
        unsafe { ptr.cast::<u8>().sub(offset_of!(PoolNode<T>, value)).cast() }
    }
}

/// A Treiber stack of pool nodes: lock-free push, detach-everything
/// drain. The head is cache-padded: limbo, pending, and free-stock heads
/// would otherwise share lines with each other and the counters.
struct GarbageStack<T> {
    head: CachePadded<AtomicPtr<PoolNode<T>>>,
    /// Node count — the limbo/pending/free-stock **depth gauge** of the
    /// telemetry snapshot. Pushers add *before* the publishing CAS, and a
    /// consumer subtracts only nodes it detached and disposed of
    /// ([`GarbageStack::settle`]), so the count never underflows and no
    /// one walks a chain to keep it. A detached chain stays counted until
    /// it is settled, and its remainder goes back uncounted
    /// ([`GarbageStack::reattach`]). Exact at quiescence; a concurrent
    /// snapshot may over-read by in-flight pushes and unsettled drains.
    /// Relaxed throughout: nothing synchronizes through it.
    len: AtomicUsize,
}

impl<T> GarbageStack<T> {
    const fn new() -> Self {
        Self {
            head: CachePadded::new(AtomicPtr::new(core::ptr::null_mut())),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, node: *mut PoolNode<T>) {
        self.push_span(node, node, 1);
    }

    /// Pushes a pre-linked chain whose first and last are known, adding
    /// `n` to the gauge — O(1), the batch operation bag flushes rely on.
    fn push_span(&self, first: *mut PoolNode<T>, last: *mut PoolNode<T>, n: usize) {
        debug_assert!(!first.is_null() && !last.is_null());
        self.len.fetch_add(n, Ordering::Relaxed);
        loop {
            let head = self.head.load(Ordering::SeqCst);
            unsafe { (*last).next.set(head) };
            if self
                .head
                .compare_exchange(head, first, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pushes a chain of new nodes of unknown length, walking to its tail
    /// to count them (bag flushes; at most `BAG_CAP` nodes).
    fn push_chain(&self, chain: *mut PoolNode<T>) {
        if chain.is_null() {
            return;
        }
        let mut n = 1;
        let mut tail = chain;
        while !unsafe { (*tail).next.get() }.is_null() {
            tail = unsafe { (*tail).next.get() };
            n += 1;
        }
        self.push_span(chain, tail, n);
    }

    /// Detaches the whole chain; the caller iterates it exclusively and
    /// settles the depth gauge for what it consumes.
    fn take_all(&self) -> *mut PoolNode<T> {
        self.head.swap(core::ptr::null_mut(), Ordering::SeqCst)
    }

    /// Uncounts `n` detached nodes that left this stack for good.
    fn settle(&self, n: usize) {
        self.len.fetch_sub(n, Ordering::Relaxed);
    }

    /// Puts back the unconsumed remainder of a detached chain, which the
    /// gauge still counts. Usually nothing was pushed since the detach,
    /// and one CAS from empty re-attaches the chain without walking it.
    fn reattach(&self, chain: *mut PoolNode<T>) {
        let (empty, order) = (core::ptr::null_mut(), Ordering::SeqCst);
        if chain.is_null()
            || self
                .head
                .compare_exchange(empty, chain, order, order)
                .is_ok()
        {
            return;
        }
        let mut tail = chain;
        while !unsafe { (*tail).next.get() }.is_null() {
            tail = unsafe { (*tail).next.get() };
        }
        self.push_span(chain, tail, 0);
    }

    /// The depth gauge (see `len`).
    fn depth(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// One `(thread, registry)` pool: a free list of recycled nodes plus a
/// retire bag, both owner-exclusive intrusive chains. Cache-padded so two
/// threads' pools never share a line.
///
/// Ownership protocol: `claimed` grants exclusive access to the `Cell`
/// fields — held by the using thread for its lifetime, taken transiently by
/// a sweeping thread to *steal* the chains of a released pool, and ignored
/// by `Registry::drop`, whose `&mut self` exclusivity already guarantees no
/// owner is mid-operation. The allocation itself is freed by whoever drops
/// the last of two references (the registry's, released in `Drop`, and the
/// claiming thread's, released when the thread's pool cache drops); by
/// then the registry has emptied both chains.
struct LocalPool<T> {
    /// Exclusive ownership of the `Cell` fields (see above).
    claimed: AtomicBool,
    /// References keeping the allocation alive: the registry plus the
    /// claiming thread. The last one out frees the (already emptied) pool.
    refs: AtomicUsize,
    /// Set by `Registry::drop`; tells thread caches the entry is prunable
    /// and that chains are no longer theirs to inherit.
    registry_dead: AtomicBool,
    /// Recycled nodes ready for reuse (values already dropped).
    free: Cell<*mut PoolNode<T>>,
    free_len: Cell<usize>,
    /// Retired nodes awaiting a batch flush (values alive; FIFO so flush
    /// probes oldest-first).
    bag_head: Cell<*mut PoolNode<T>>,
    bag_tail: Cell<*mut PoolNode<T>>,
    bag_len: Cell<usize>,
    /// Next pool in the registry's list (written once at publication).
    next: AtomicPtr<CachePadded<LocalPool<T>>>,
}

impl<T> LocalPool<T> {
    fn new_claimed() -> Self {
        Self {
            claimed: AtomicBool::new(true),
            refs: AtomicUsize::new(2), // the registry + the claiming thread
            registry_dead: AtomicBool::new(false),
            free: Cell::new(core::ptr::null_mut()),
            free_len: Cell::new(0),
            bag_head: Cell::new(core::ptr::null_mut()),
            bag_tail: Cell::new(core::ptr::null_mut()),
            bag_len: Cell::new(0),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }
}

/// Drops one reference on a pool; the last owner frees the allocation.
/// Chains are empty by then: the registry emptied them in `Drop` (it is
/// necessarily dead when the thread-side reference is the last one, and
/// the registry's own release happens in `Drop` after emptying).
unsafe fn unref_pool<T>(pool: *mut CachePadded<LocalPool<T>>) {
    if unsafe { (&*pool).refs.fetch_sub(1, Ordering::SeqCst) } == 1 {
        debug_assert!(unsafe { (&*pool).free.get().is_null() });
        debug_assert!(unsafe { (&*pool).bag_head.get().is_null() });
        drop(unsafe { Box::from_raw(pool) });
    }
}

/// Thread-exit release of a cached pool: give up `Cell` ownership so a
/// later sweep can steal the chains (or a new thread can inherit them),
/// then drop the thread's reference. Never touches the registry — it may
/// already be gone.
unsafe fn release_pool<T>(pool: *mut ()) {
    let pool = pool.cast::<CachePadded<LocalPool<T>>>();
    unsafe { (&*pool).claimed.store(false, Ordering::SeqCst) };
    unsafe { unref_pool(pool) };
}

unsafe fn pool_is_dead<T>(pool: *mut ()) -> bool {
    unsafe {
        (&*pool.cast::<CachePadded<LocalPool<T>>>())
            .registry_dead
            .load(Ordering::SeqCst)
    }
}

/// One thread's cached pool claim (type-erased; `release`/`dead` are the
/// monomorphized accessors).
struct CacheEntry {
    pool: *mut (),
    release: unsafe fn(*mut ()),
    dead: unsafe fn(*mut ()) -> bool,
}

/// Per-thread map from registry id to claimed pool. Registry ids are never
/// reused, so a stale entry can never be looked up by a new registry; dead
/// entries are pruned on the next cache miss and at thread exit.
struct PoolCache {
    entries: HashMap<u64, CacheEntry>,
}

impl Drop for PoolCache {
    fn drop(&mut self) {
        for (_, e) in self.entries.drain() {
            unsafe { (e.release)(e.pool) };
        }
    }
}

thread_local! {
    static POOLS: RefCell<PoolCache> = RefCell::new(PoolCache {
        entries: HashMap::new(),
    });
    /// Sweeps this thread has run while recording, for `SWEEP_SAMPLE`.
    static SWEEPS_RUN: Cell<u64> = const { Cell::new(0) };
}

/// Source of never-reused registry ids (the thread-cache keys).
static REGISTRY_IDS: AtomicU64 = AtomicU64::new(1);

/// Clears a flag on every exit path. Sweeps and pool steals run user code
/// ([`Reclaim`] hooks, node `Drop`s); without this guard a single panic in
/// one of them would leave `sweeping` stuck `true` — silently disabling
/// reclamation on the registry forever — or leave a stolen pool claimed by
/// no thread, its free stock stranded until registry drop.
struct ClearOnDrop<'a>(&'a AtomicBool);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// A sweep's exclusive pass over one detached garbage chain, yielding each
/// node with its readiness gate probed. The probe is user code, so it runs
/// *before* the node leaves the remainder: a panicking hook leaves its node
/// on the chain. On every exit path the drop settles the stack's depth
/// gauge for the nodes taken, re-attaches the unexamined remainder and
/// records the probes, so a panic loses at most the one node it panicked
/// on, never the backlog.
struct Drain<'a, T> {
    stack: &'a GarbageStack<T>,
    rest: *mut PoolNode<T>,
    taken: usize,
}

impl<'a, T> Drain<'a, T> {
    fn new(stack: &'a GarbageStack<T>) -> Self {
        Self {
            stack,
            rest: stack.take_all(),
            taken: 0,
        }
    }
}

impl<T: Reclaim> Iterator for Drain<'_, T> {
    type Item = (*mut PoolNode<T>, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self.rest;
        if cur.is_null() {
            return None;
        }
        let ready = unsafe { (*PoolNode::value_ptr(cur)).ready_to_reclaim() };
        self.rest = unsafe { (*cur).next.get() };
        unsafe { (*cur).next.set(core::ptr::null_mut()) };
        self.taken += 1;
        Some((cur, ready))
    }
}

impl<T> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        self.stack.settle(self.taken);
        self.stack.reattach(self.rest);
        telemetry::add(Counter::GateProbes, self.taken as u64);
    }
}

/// Scope guard for bag flushes: the readiness probes are user code, so a
/// panic mid-flush must not leak the unexamined remainder or the
/// partially-built batches. Everything lands in `pending` on unwind — the
/// always-safe destination, since pending→limbo transfers restamp.
struct FlushGuard<'a, T> {
    reg: &'a Registry<T>,
    rest: Cell<*mut PoolNode<T>>,
    ready: Cell<*mut PoolNode<T>>,
    deferred: Cell<*mut PoolNode<T>>,
}

impl<T> Drop for FlushGuard<'_, T> {
    fn drop(&mut self) {
        for cell in [&self.rest, &self.ready, &self.deferred] {
            self.reg
                .pending
                .push_chain(cell.replace(core::ptr::null_mut()));
        }
    }
}

/// Statistics counters, grouped on one padded line away from the stack
/// heads. Relaxed throughout — nothing synchronizes through them.
struct Counters {
    /// Fresh heap allocations.
    fresh: AtomicUsize,
    /// Allocations served from a free list.
    recycled: AtomicUsize,
    /// Values destroyed (reclaimed, deallocated, teardown-freed).
    reclaimed: AtomicUsize,
    /// Nodes returned to the heap.
    freed: AtomicUsize,
}

/// Epoch-aware allocation handle: every node of a lock-free structure is
/// allocated, retired, and accounted through one of these.
///
/// # Examples
///
/// ```
/// use lftrie_primitives::epoch;
/// use lftrie_primitives::registry::{Reclaim, Registry};
///
/// struct Cell(u64);
/// impl Reclaim for Cell {}
///
/// let reg: Registry<Cell> = Registry::new();
/// let p = reg.alloc(Cell(7));
/// assert_eq!(reg.live(), 1);
///
/// // ... p is published, used, then unlinked from shared memory ...
/// let guard = epoch::pin();
/// unsafe { reg.retire(p, &guard) };
/// drop(guard);
///
/// reg.flush(); // a few quiescent sweeps age the garbage out
/// assert_eq!(reg.live(), 0);
/// assert_eq!(reg.allocated(), 1); // one heap allocation was ever made
///
/// // A warm registry recycles instead of allocating:
/// let q = reg.alloc(Cell(8));
/// assert_eq!(reg.allocated(), 1, "served from the pool");
/// assert_eq!(reg.recycled(), 1);
/// assert_eq!(reg.created(), 2); // the cumulative (E6) series still grows
/// unsafe { reg.dealloc(q) };
/// ```
pub struct Registry<T> {
    domain: &'static Domain,
    /// Never-reused id keying the per-thread pool caches.
    id: u64,
    counters: CachePadded<Counters>,
    /// Epoch-stamped garbage awaiting its grace period.
    limbo: GarbageStack<T>,
    /// Retired garbage whose `ready_to_reclaim` gate was closed when last
    /// probed; re-probed once enough retirements pay for it (module docs).
    pending: GarbageStack<T>,
    /// Shared stock of recycled nodes (values dropped), refilled by sweeps
    /// and drained in batches into local free lists. Its depth gauge
    /// enforces [`SHARED_FREE_CAP`].
    free: GarbageStack<T>,
    /// All pools ever created for this registry (claimed or released).
    pools: AtomicPtr<CachePadded<LocalPool<T>>>,
    /// Nodes retired into this registry since `pending` was last
    /// re-probed: each bag flush adds its batch, each fallback-path retire
    /// adds one (and sweeps on every `BAG_CAP`-th, as the pooled path does
    /// on every bag flush). A sweep re-probes `pending` once this reaches
    /// half of its depth.
    retired_since_reprobe: AtomicUsize,
    sweeping: AtomicBool,
    /// Epoch observed at the end of the last full sweep (`u64::MAX` before
    /// the first). While the epoch is parked — e.g. a long-pinned reader —
    /// nothing new can become freeable, so sweeps bail out in O(1) instead
    /// of re-walking the whole backlog on every amortized sweep.
    last_swept_epoch: AtomicU64,
    _owns: PhantomData<T>,
}

// Safety: the registry owns heap allocations of T and only ever hands out
// raw pointers; garbage chains and pools are plain owned memory whose
// `Cell` fields are guarded by the `claimed`/`sweeping` exclusivity
// protocol described on `LocalPool`.
unsafe impl<T: Send> Send for Registry<T> {}
unsafe impl<T: Send + Sync> Sync for Registry<T> {}

impl<T> Registry<T> {
    /// Creates an empty registry on the global epoch domain.
    pub fn new() -> Self {
        Self::new_in(Domain::global())
    }

    /// Creates an empty registry on a specific epoch domain (tests drive
    /// leaked private domains deterministically).
    pub fn new_in(domain: &'static Domain) -> Self {
        Self {
            domain,
            id: REGISTRY_IDS.fetch_add(1, Ordering::Relaxed),
            counters: CachePadded::new(Counters {
                fresh: AtomicUsize::new(0),
                recycled: AtomicUsize::new(0),
                reclaimed: AtomicUsize::new(0),
                freed: AtomicUsize::new(0),
            }),
            limbo: GarbageStack::new(),
            pending: GarbageStack::new(),
            free: GarbageStack::new(),
            pools: AtomicPtr::new(core::ptr::null_mut()),
            retired_since_reprobe: AtomicUsize::new(0),
            sweeping: AtomicBool::new(false),
            last_swept_epoch: AtomicU64::new(u64::MAX),
            _owns: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Pool plumbing
    // ------------------------------------------------------------------

    /// The calling thread's pool for this registry, claiming or creating
    /// one on first use. `None` only during thread teardown (the cache's
    /// destructor already ran); callers then fall back to the shared path.
    #[inline]
    fn pool(&self) -> Option<*mut CachePadded<LocalPool<T>>> {
        POOLS
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                if let Some(e) = cache.entries.get(&self.id) {
                    return e.pool.cast::<CachePadded<LocalPool<T>>>();
                }
                // Miss (once per registry per thread): prune entries of
                // dropped registries so the map tracks live registries only.
                cache.entries.retain(|_, e| unsafe {
                    if (e.dead)(e.pool) {
                        (e.release)(e.pool);
                        false
                    } else {
                        true
                    }
                });
                let pool = self.claim_or_create_pool();
                cache.entries.insert(
                    self.id,
                    CacheEntry {
                        pool: pool.cast(),
                        release: release_pool::<T>,
                        dead: pool_is_dead::<T>,
                    },
                );
                pool
            })
            .ok()
    }

    /// The calling thread's pool if it already claimed one — sweeps use
    /// this so a thread that only collects never grows a pool.
    #[inline]
    fn existing_pool(&self) -> Option<*mut CachePadded<LocalPool<T>>> {
        POOLS
            .try_with(|cache| {
                cache
                    .borrow()
                    .entries
                    .get(&self.id)
                    .map(|e| e.pool.cast::<CachePadded<LocalPool<T>>>())
            })
            .ok()
            .flatten()
    }

    /// Claims a released pool (inheriting its chains) or publishes a fresh
    /// one. Only reachable through a live `&self`, so the registry
    /// reference is implicit.
    fn claim_or_create_pool(&self) -> *mut CachePadded<LocalPool<T>> {
        let mut cur = self.pools.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &**cur };
            if !p.claimed.load(Ordering::SeqCst)
                && p.claimed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                p.refs.fetch_add(1, Ordering::SeqCst);
                return cur;
            }
            cur = p.next.load(Ordering::SeqCst);
        }
        let pool = Box::into_raw(Box::new(CachePadded::new(LocalPool::new_claimed())));
        let pool_ref: &LocalPool<T> = unsafe { &*pool };
        loop {
            let head = self.pools.load(Ordering::SeqCst);
            pool_ref.next.store(head, Ordering::SeqCst);
            if self
                .pools
                .compare_exchange(head, pool, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return pool;
            }
        }
    }

    /// Pops a recycled node from the local free list, refilling it from the
    /// shared stock in a batch when empty. Returns null if both are dry.
    ///
    /// # Safety
    ///
    /// The caller owns `pool`'s `Cell`s (it claimed the pool).
    unsafe fn pop_free(&self, pool: &LocalPool<T>) -> *mut PoolNode<T> {
        let node = pool.free.get();
        if !node.is_null() {
            pool.free.set(unsafe { (*node).next.get() });
            pool.free_len.set(pool.free_len.get() - 1);
            return node;
        }
        // Refill: take the whole shared stock, keep one node plus up to
        // LOCAL_FREE_CAP, push the remainder back. Swap-everything keeps
        // the stack single-consumer (no ABA-prone concurrent pops).
        let chain = self.free.take_all();
        if chain.is_null() {
            return core::ptr::null_mut();
        }
        let mut kept = 0usize;
        let mut cur = unsafe { (*chain).next.get() };
        let mut local_head: *mut PoolNode<T> = core::ptr::null_mut();
        while !cur.is_null() && kept < LOCAL_FREE_CAP {
            let next = unsafe { (*cur).next.get() };
            unsafe { (*cur).next.set(local_head) };
            local_head = cur;
            kept += 1;
            cur = next;
        }
        self.free.settle(1 + kept);
        self.free.reattach(cur);
        pool.free.set(local_head);
        pool.free_len.set(kept);
        chain
    }

    /// Parks an emptied node (value already dropped) for reuse: local free
    /// list, then shared stock, then back to the heap once both caps are
    /// met. `pool` is the caller's claimed pool, if any.
    unsafe fn recycle_node(
        &self,
        node: *mut PoolNode<T>,
        pool: Option<*mut CachePadded<LocalPool<T>>>,
    ) {
        if let Some(pool) = pool {
            let pool = unsafe { &**pool };
            if pool.free_len.get() < LOCAL_FREE_CAP {
                unsafe { (*node).next.set(pool.free.get()) };
                pool.free.set(node);
                pool.free_len.set(pool.free_len.get() + 1);
                return;
            }
        }
        if self.free.depth() < SHARED_FREE_CAP {
            self.free.push(node);
            return;
        }
        self.counters.freed.fetch_add(1, Ordering::Relaxed);
        drop(unsafe { Box::from_raw(node) });
    }

    // ------------------------------------------------------------------
    // Allocation API
    // ------------------------------------------------------------------

    /// Allocates `value`, recycling a pooled node when one is available and
    /// touching the heap only when the pools are dry. The pointer is valid
    /// (and its referent immovable) until the node is retired and
    /// reclaimed, deallocated, or the owning structure tears down.
    #[inline]
    pub fn alloc(&self, value: T) -> *mut T {
        if let Some(pool) = self.pool() {
            // Safety: the pool is claimed by this thread.
            let node = unsafe { self.pop_free(&**pool) };
            if !node.is_null() {
                self.counters.recycled.fetch_add(1, Ordering::Relaxed);
                // Safety: the slot's previous value was dropped when the
                // node was recycled; plain write, no double drop.
                unsafe { core::ptr::write(&raw mut (*node).value, ManuallyDrop::new(value)) };
                return PoolNode::value_ptr(node);
            }
        }
        self.counters.fresh.fetch_add(1, Ordering::Relaxed);
        PoolNode::value_ptr(PoolNode::new_boxed(value))
    }

    /// Retires a node: it will be freed (recycled) after the epoch grace
    /// period, once its [`Reclaim::ready_to_reclaim`] gate opens. Performs
    /// **no allocation**: the node is threaded onto the calling thread's
    /// retire bag through its intrusive header, and bags flush to the
    /// shared limbo in batches (on overflow and at sweeps).
    ///
    /// # Safety
    ///
    /// * `ptr` came from [`Registry::alloc`] on this registry and is retired
    ///   at most once, and never also passed to [`Registry::dealloc`].
    /// * The node is already unlinked: no thread that pins *after* this call
    ///   can reach `ptr` through shared memory, except transiently through
    ///   helper re-publication windows opened by threads pinned *before* it
    ///   (the grace period absorbs those), or through long-lived fields whose
    ///   holders keep `ready_to_reclaim` returning `false`.
    /// * `guard` pins the registry's domain (callers are necessarily pinned:
    ///   they just unlinked the node from shared memory).
    #[inline]
    pub unsafe fn retire(&self, ptr: *mut T, guard: &Guard<'_>)
    where
        T: Reclaim,
    {
        debug_assert!(
            core::ptr::eq(guard.domain(), self.domain),
            "guard pins a different epoch domain than the registry's"
        );
        let node = PoolNode::from_value(ptr);
        unsafe { (*node).next.set(core::ptr::null_mut()) };
        unsafe { (*node).epoch.set(self.domain.epoch()) };
        if let Some(pool) = self.pool() {
            let pool = unsafe { &**pool };
            let tail = pool.bag_tail.get();
            if tail.is_null() {
                pool.bag_head.set(node);
            } else {
                unsafe { (*tail).next.set(node) };
            }
            pool.bag_tail.set(node);
            pool.bag_len.set(pool.bag_len.get() + 1);
            if pool.bag_len.get() >= BAG_CAP {
                self.flush_bag(pool);
                self.collect();
            }
        } else {
            // Thread-teardown fallback: the pool cache is gone, push
            // straight to the shared stacks (still no allocation — the
            // header is intrusive either way).
            if unsafe { (*ptr).ready_to_reclaim() } {
                self.limbo.push(node);
            } else {
                self.pending.push(node);
            }
            if self.retired_since_reprobe.fetch_add(1, Ordering::Relaxed) % BAG_CAP == BAG_CAP - 1 {
                self.collect();
            }
        }
    }

    /// Frees a node immediately, without the epoch grace period; the
    /// emptied slot is recycled into the pools.
    ///
    /// # Safety
    ///
    /// `ptr` came from [`Registry::alloc`] on this registry, was never
    /// retired, and is reachable by no other thread — either it was never
    /// published, or the caller has exclusive access to the owning structure
    /// (teardown).
    pub unsafe fn dealloc(&self, ptr: *mut T) {
        let node = PoolNode::from_value(ptr);
        unsafe { core::ptr::drop_in_place(ptr) };
        self.counters.reclaimed.fetch_add(1, Ordering::Relaxed);
        unsafe { self.recycle_node(node, self.existing_pool()) };
    }

    // ------------------------------------------------------------------
    // Sweeping
    // ------------------------------------------------------------------

    /// Flushes `pool`'s retire bag to the shared stacks, splitting by the
    /// readiness gate. Gate-open nodes are stamped with a **fresh epoch
    /// read taken after the probes** (module docs: a retire-time stamp can
    /// be epochs stale by now, and a reader pinned since may have captured
    /// the pointer just before its gate opened).
    ///
    /// # Safety expectations
    ///
    /// The caller owns `pool`'s `Cell`s. Panic-safe: a panicking probe
    /// sends every unprocessed node to `pending`, whose drain restamps.
    fn flush_bag(&self, pool: &LocalPool<T>)
    where
        T: Reclaim,
    {
        let chain = pool.bag_head.get();
        if chain.is_null() {
            return;
        }
        pool.bag_head.set(core::ptr::null_mut());
        pool.bag_tail.set(core::ptr::null_mut());
        pool.bag_len.set(0);
        let flush = FlushGuard {
            reg: self,
            rest: Cell::new(chain),
            ready: Cell::new(core::ptr::null_mut()),
            deferred: Cell::new(core::ptr::null_mut()),
        };
        let mut probed = 0usize;
        loop {
            let cur = flush.rest.get();
            if cur.is_null() {
                break;
            }
            // The probe runs user code; detach `cur` only after it returns
            // so a panic leaves the node on the re-routed remainder.
            let ready = unsafe { (*PoolNode::value_ptr(cur)).ready_to_reclaim() };
            probed += 1;
            flush.rest.set(unsafe { (*cur).next.get() });
            let dst = if ready { &flush.ready } else { &flush.deferred };
            unsafe { (*cur).next.set(dst.get()) };
            dst.set(cur);
        }
        // Fresh stamp *after* every gate probe above (see the module docs).
        let stamp = self.domain.epoch();
        let ready = flush.ready.replace(core::ptr::null_mut());
        let mut batch = 0u64;
        if !ready.is_null() {
            let mut n = 1usize;
            let mut tail = ready;
            loop {
                unsafe { (*tail).epoch.set(stamp) };
                let next = unsafe { (*tail).next.get() };
                if next.is_null() {
                    break;
                }
                tail = next;
                n += 1;
            }
            self.limbo.push_span(ready, tail, n);
            batch = n as u64;
        }
        self.pending
            .push_chain(flush.deferred.replace(core::ptr::null_mut()));
        // `flush` drops with empty cells: nothing to re-route.
        self.retired_since_reprobe
            .fetch_add(probed, Ordering::Relaxed);
        telemetry::add(Counter::GateProbes, probed as u64);
        // One flight event per flushed batch (not per retire: a per-retire
        // event would both flood the 128-entry ring and put a globally
        // contended sequence fetch on the update hot path).
        telemetry::event(Counter::BagFlushes, FlightKind::Retire, -1, batch);
    }

    /// Steals the chains of pools released by exited threads, so their
    /// garbage keeps aging and their free stock returns to circulation.
    fn steal_released_pools(&self)
    where
        T: Reclaim,
    {
        let mut cur = self.pools.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &**cur };
            if !p.claimed.load(Ordering::SeqCst)
                && p.claimed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                // Transient claim: we own the cells until the guard drops
                // (a panicking gate probe in the flush releases it too).
                let claim = ClearOnDrop(&p.claimed);
                self.flush_bag(p);
                let mut f = p.free.get();
                p.free.set(core::ptr::null_mut());
                p.free_len.set(0);
                while !f.is_null() {
                    let next = unsafe { (*f).next.get() };
                    // Values already dropped: straight back into stock.
                    unsafe { self.recycle_node(f, None) };
                    f = next;
                }
                drop(claim);
            }
            cur = p.next.load(Ordering::SeqCst);
        }
    }

    /// One garbage sweep: flushes the caller's retire bag, steals released
    /// pools, tries to advance the epoch, re-examines deferred nodes once
    /// the retirements since their last re-probe reach half their number
    /// (module docs), and recycles limbo nodes whose grace period elapsed
    /// and whose readiness gate is (still) open. Lock-free; concurrent
    /// callers simply skip the sweep.
    pub fn collect(&self)
    where
        T: Reclaim,
    {
        self.sweep(false);
    }

    /// Runs enough quiescent sweeps to age out everything retired so far
    /// (assuming no concurrent pins). Each of them re-probes every deferred
    /// node, so a gate that opened is seen without waiting for retirements
    /// to pay for the re-probe. Tests and teardown paths use this to
    /// observe the steady-state footprint.
    pub fn flush(&self)
    where
        T: Reclaim,
    {
        crate::fault::point(crate::fault::FaultPoint::RegistrySweep);
        for _ in 0..(2 * GRACE_EPOCHS as usize + 2) {
            self.sweep(true);
        }
    }

    /// The sweep behind [`Registry::collect`] and [`Registry::flush`];
    /// `reprobe_all` re-probes `pending` whatever was retired.
    fn sweep(&self, reprobe_all: bool)
    where
        T: Reclaim,
    {
        // Non-fatal: collect() is reachable from retire-bag overflow inside
        // an operation pipeline, where an unwind would strand the bag.
        crate::fault::point_nonfatal(crate::fault::FaultPoint::RegistryCollect);
        if self.sweeping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Everything below runs user code (`Reclaim` hooks, node `Drop`s):
        // the guard clears `sweeping` on every exit path, panics included.
        let _sweeping = ClearOnDrop(&self.sweeping);
        telemetry::add(Counter::Sweeps, 1);
        let timed = telemetry::enabled()
            && SWEEPS_RUN
                .try_with(|n| {
                    n.set(n.get() + 1);
                    n.get() % SWEEP_SAMPLE == 1
                })
                .unwrap_or(false);
        let started = timed.then(std::time::Instant::now);
        let _t = telemetry::trace::phase(telemetry::trace::TracePhase::Reclaim);
        // Batch the buffered retires in before advancing, so this sweep
        // already ages them: the caller's own bag first, then the bags (and
        // free stock) of pools whose threads have exited.
        let own_pool = self.existing_pool();
        if let Some(pool) = own_pool {
            self.flush_bag(unsafe { &**pool });
        }
        self.steal_released_pools();
        // Attempt up to GRACE advances: each one individually re-proves
        // that every pinned participant has caught up, so at quiescent
        // moments a single sweep ages garbage all the way out instead of
        // one epoch per sweep.
        let mut global = self.domain.epoch();
        for _ in 0..GRACE_EPOCHS {
            let next = self.domain.try_advance();
            if next == global {
                break;
            }
            global = next;
        }
        // Deferred nodes whose gate opened re-enter limbo. Their number is
        // set by the gates (≤ one DEL per occupied dNodePtr slot, live
        // `target` edges, in-flight operations), not by the garbage, so
        // they are re-probed only once the retirements since the last
        // re-probe reach half of them: each re-probe is paid for by the
        // retirements, at most two probes each (module docs). Only the
        // sweeper subtracts, and only what it read, so the count never
        // underflows.
        let retired = self.retired_since_reprobe.load(Ordering::Relaxed);
        if reprobe_all || 2 * retired >= self.pending.depth() {
            self.retired_since_reprobe
                .fetch_sub(retired, Ordering::Relaxed);
            for (cur, ready) in Drain::new(&self.pending) {
                if ready {
                    // Restamp with a fresh epoch read taken *after* the gate
                    // opened. The sweeper holds no pin, so the global epoch
                    // can run ahead of the `global` snapshot while this loop
                    // runs: a reader pinned at epoch E may have captured the
                    // gated pointer just before the gate opened, and
                    // stamping with the stale snapshot (possibly ≤ E − 2)
                    // would free the node while that reader still
                    // dereferences it. The capture happened before the
                    // gate-opening store this probe observed, so the
                    // reader's pin precedes this read and the fresh stamp is
                    // ≥ E — the reader now blocks the advance to
                    // `stamp + GRACE` until it unpins.
                    unsafe { (*cur).epoch.set(self.domain.epoch()) };
                    self.limbo.push(cur);
                } else {
                    self.pending.push(cur);
                }
            }
        }

        // The limbo pile, by contrast, grows with every retire and nothing
        // in it can become freeable while the epoch is parked (stamps are
        // monotone, eligibility needs `global ≥ stamp + GRACE`): skip the
        // O(backlog) re-walk until the epoch moves. This is what keeps a
        // long-pinned reader from turning the writers' amortized sweeps
        // into quadratic work.
        if self.last_swept_epoch.load(Ordering::SeqCst) != global {
            // The readiness re-check matters: a thread pinned since before
            // the retirement may have taken a new long-lived reference
            // (e.g. a `target` edge) while the node aged in limbo.
            for (cur, ready) in Drain::new(&self.limbo) {
                if ready && unsafe { (*cur).epoch.get() } + GRACE_EPOCHS <= global {
                    // `global` is a snapshot from before the drains, so
                    // this comparison only under-approximates eligibility
                    // — safe.
                    let vp = PoolNode::value_ptr(cur);
                    unsafe { (*vp).on_reclaim() };
                    unsafe { core::ptr::drop_in_place(vp) };
                    self.counters.reclaimed.fetch_add(1, Ordering::Relaxed);
                    // The emptied slot goes back into circulation instead
                    // of to the allocator — the whole point of the pools.
                    unsafe { self.recycle_node(cur, own_pool) };
                } else if ready {
                    self.limbo.push(cur);
                } else {
                    self.pending.push(cur);
                }
            }
            self.last_swept_epoch.store(global, Ordering::SeqCst);
        }
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            telemetry::add(Counter::SweepNs, ns * SWEEP_SAMPLE);
        }
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// Fresh heap allocations performed so far. Under warm steady-state
    /// churn this **plateaus** — every allocation is served from a pool —
    /// which `tests/alloc_plateau.rs` asserts.
    pub fn allocated(&self) -> usize {
        self.counters.fresh.load(Ordering::Relaxed)
    }

    /// Allocations served from a recycle pool instead of the heap.
    pub fn recycled(&self) -> usize {
        self.counters.recycled.load(Ordering::Relaxed)
    }

    /// Cumulative logical allocations (`allocated + recycled`) over the
    /// registry's lifetime — exactly what a garbage collector would have
    /// been handed (the E6 metric).
    pub fn created(&self) -> usize {
        self.allocated() + self.recycled()
    }

    /// Values destroyed so far (epoch reclamation, explicit deallocation,
    /// and teardown).
    pub fn reclaimed(&self) -> usize {
        self.counters.reclaimed.load(Ordering::Relaxed)
    }

    /// Value-resident nodes: `created − reclaimed`. Under churn this stays
    /// bounded (the memory-bound suite's metric); under the old drop-only
    /// arena it equalled the cumulative count.
    pub fn live(&self) -> usize {
        self.created().saturating_sub(self.reclaimed())
    }

    /// Heap-resident nodes, pooled free nodes included:
    /// `allocated − freed`. Exceeds [`Registry::live`] by at most the pool
    /// caps (local free lists, the shared stock, and in-flight bags).
    pub fn resident(&self) -> usize {
        self.allocated()
            .saturating_sub(self.counters.freed.load(Ordering::Relaxed))
    }

    /// Samples this registry's reclamation health gauges for the telemetry
    /// snapshot: garbage-stack depths (limbo = gate-open garbage aging out
    /// its grace period, pending = garbage retired with a closed gate, or
    /// opened since the last re-probe), pool occupancy, and the lifetime
    /// allocation counters. `label` names the registry in reports (e.g.
    /// `"preds"`).
    ///
    /// Everything is Relaxed-loaded and approximate under concurrency, but
    /// exact at quiescence — a parked epoch shows up as a growing `limbo`
    /// depth. The depths are counters kept by the stacks' pushers and
    /// consumers, so sampling them walks nothing.
    pub fn health(&self, label: &'static str) -> ReclaimHealth {
        let live = self.live();
        let resident = self.resident();
        ReclaimHealth {
            label,
            limbo: self.limbo.depth(),
            pending: self.pending.depth(),
            free_stock: self.free.depth(),
            pooled: resident.saturating_sub(live),
            live,
            resident,
            fresh: self.allocated(),
            recycled: self.recycled(),
            reclaimed: self.reclaimed(),
        }
    }

    /// A consistent-enough snapshot of every counter (Relaxed loads).
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            fresh: self.allocated(),
            recycled: self.recycled(),
            created: self.created(),
            reclaimed: self.reclaimed(),
            live: self.live(),
            resident: self.resident(),
        }
    }

    /// True if no value is currently resident.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// The epoch domain this registry retires into.
    pub fn domain(&self) -> &'static Domain {
        self.domain
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Registry<T> {
    fn drop(&mut self) {
        // Bulk teardown. `&mut self` guarantees no thread is mid-operation
        // on this registry, so the pools' `Cell` chains are safe to empty
        // regardless of their `claimed` flags (a live owning thread will
        // never dereference its cached pool for this registry again — the
        // id is dead — except to release it, which touches only atomics).
        // Hooks are skipped: peers they would touch may already have been
        // freed by the owning structure's own Drop.
        unsafe fn free_garbage_chain<T>(reg: &Registry<T>, mut cur: *mut PoolNode<T>) {
            while !cur.is_null() {
                let next = unsafe { (*cur).next.get() };
                unsafe { core::ptr::drop_in_place(PoolNode::value_ptr(cur)) };
                reg.counters.reclaimed.fetch_add(1, Ordering::Relaxed);
                reg.counters.freed.fetch_add(1, Ordering::Relaxed);
                drop(unsafe { Box::from_raw(cur) });
                cur = next;
            }
        }
        /// Frees a chain of emptied (already-dropped) recycle nodes.
        unsafe fn free_empty_chain<T>(reg: &Registry<T>, mut cur: *mut PoolNode<T>) {
            while !cur.is_null() {
                let next = unsafe { (*cur).next.get() };
                reg.counters.freed.fetch_add(1, Ordering::Relaxed);
                drop(unsafe { Box::from_raw(cur) });
                cur = next;
            }
        }

        unsafe { free_garbage_chain(self, self.pending.take_all()) };
        unsafe { free_garbage_chain(self, self.limbo.take_all()) };
        unsafe { free_empty_chain(self, self.free.take_all()) };

        let mut cur = self.pools.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &**cur };
            let next = p.next.load(Ordering::SeqCst);
            let bag = p.bag_head.get();
            p.bag_head.set(core::ptr::null_mut());
            p.bag_tail.set(core::ptr::null_mut());
            p.bag_len.set(0);
            unsafe { free_garbage_chain(self, bag) };
            let free = p.free.get();
            p.free.set(core::ptr::null_mut());
            p.free_len.set(0);
            unsafe { free_empty_chain(self, free) };
            p.registry_dead.store(true, Ordering::SeqCst);
            // Drop the registry's reference; a thread still caching the
            // pool frees it when its cache prunes (or the thread exits).
            unsafe { unref_pool(cur) };
            cur = next;
        }
    }
}

impl<T> core::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Registry")
            .field("allocated", &self.allocated())
            .field("recycled", &self.recycled())
            .field("created", &self.created())
            .field("reclaimed", &self.reclaimed())
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    fn leaked_domain() -> &'static Domain {
        Box::leak(Box::new(Domain::new()))
    }

    struct CountsDrops(Arc<StdAtomicUsize>);
    impl Reclaim for CountsDrops {}
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }

    #[test]
    fn retired_nodes_age_out_after_grace_period() {
        let domain = leaked_domain();
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(domain);

        let blocker = domain.register();
        let blocker_guard = blocker.pin(); // parks the epoch at most one ahead
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        let guard = handle.pin();
        unsafe { reg.retire(p, &guard) };
        drop(guard);

        reg.collect();
        reg.collect();
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            0,
            "the grace period cannot elapse while a pre-retirement pin lives"
        );
        drop(blocker_guard);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
        assert_eq!(reg.live(), 0);
        assert_eq!(reg.allocated(), 1);
        assert_eq!(reg.reclaimed(), 1);
    }

    #[test]
    fn pinned_guard_blocks_reclamation() {
        let domain = leaked_domain();
        let retirer = domain.register();
        let reader = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(domain);

        let reader_guard = reader.pin(); // pinned before the retirement
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        let g = retirer.pin();
        unsafe { reg.retire(p, &g) };
        drop(g);

        reg.flush();
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            0,
            "a guard from before the retirement must block the free"
        );
        drop(reader_guard);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
    }

    #[test]
    fn no_recycle_under_pre_retirement_pin() {
        // The pooled flavour of the invariant above: a node must never
        // re-enter a free list (and be handed out again) while a thread
        // pinned from before its retirement could still dereference it.
        let domain = leaked_domain();
        let handle = domain.register();
        let reader = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(domain);

        let reader_guard = reader.pin();
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        let g = handle.pin();
        unsafe { reg.retire(p, &g) };
        drop(g);

        reg.flush();
        assert_eq!(reg.recycled(), 0, "nothing may recycle under the pin");
        let q = reg.alloc(CountsDrops(Arc::clone(&drops)));
        assert_eq!(reg.recycled(), 0, "allocation under the pin must be fresh");
        assert_ne!(q, p, "the retired node's slot must not be reused yet");

        drop(reader_guard);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
        // Now the aged-out slot is stock: the next allocation reuses it.
        let r = reg.alloc(CountsDrops(Arc::clone(&drops)));
        assert_eq!(reg.recycled(), 1);
        assert_eq!(r, p, "the aged-out slot is recycled");
        unsafe { reg.dealloc(q) };
        unsafe { reg.dealloc(r) };
    }

    struct Gated {
        open: Arc<AtomicBool>,
    }
    impl Reclaim for Gated {
        fn ready_to_reclaim(&self) -> bool {
            self.open.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn deferred_nodes_wait_for_their_gate() {
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(domain);
        let open = Arc::new(AtomicBool::new(false));
        let p = reg.alloc(Gated {
            open: Arc::clone(&open),
        });
        let g = handle.pin();
        unsafe { reg.retire(p, &g) };
        drop(g);

        reg.flush();
        assert_eq!(reg.live(), 1, "gate closed: node must survive any sweep");
        open.store(true, Ordering::SeqCst);
        reg.flush();
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn depth_gauges_are_exact_at_quiescence() {
        // The limbo/pending/free-stock gauges are counters settled by each
        // consumer, not walks: check them exactly at every hand-off.
        const UNGATED: usize = 100;
        const GATED: usize = 60;
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(domain);
        let always = Arc::new(AtomicBool::new(true));
        let gate = Arc::new(AtomicBool::new(false));
        let alloc = |open: &Arc<AtomicBool>| {
            reg.alloc(Gated {
                open: Arc::clone(open),
            })
        };
        let gauges = || {
            let h = reg.health("gated");
            (h.limbo, h.pending, h.free_stock)
        };
        let nodes: Vec<_> = (0..UNGATED + GATED)
            .map(|i| alloc(if i < UNGATED { &always } else { &gate }))
            .collect();
        let g = handle.pin(); // nothing ages out while the batch retires
        for p in nodes {
            unsafe { reg.retire(p, &g) };
        }
        drop(g);

        // Ungated nodes age out: the sweeper's free list takes the first
        // LOCAL_FREE_CAP, the shared stock the rest; gated ones wait.
        reg.flush();
        assert_eq!(gauges(), (0, GATED, UNGATED - LOCAL_FREE_CAP));
        // The gate opens. A sweep re-probes `pending` once GATED / 2
        // retirements have paid for it: retire that many ungated nodes
        // from the sweeper's free list, then sweep. It moves the gated
        // nodes pending → limbo with a fresh stamp, too young to free yet,
        // and ages the ungated ones back into the free list.
        gate.store(true, Ordering::SeqCst);
        let half: Vec<_> = (0..GATED / 2).map(|_| alloc(&always)).collect();
        for p in half {
            let g = handle.pin();
            unsafe { reg.retire(p, &g) };
            drop(g);
        }
        reg.collect();
        assert_eq!(gauges(), (GATED, 0, UNGATED - LOCAL_FREE_CAP));
        // They age out limbo → free stock (the local list is full).
        reg.flush();
        let stock = UNGATED + GATED - LOCAL_FREE_CAP;
        assert!(stock > LOCAL_FREE_CAP + 1);
        assert_eq!(gauges(), (0, 0, stock));
        // Empty the local free list; the next allocation refills it from
        // the stock, keeping one node plus LOCAL_FREE_CAP and re-attaching
        // the remainder.
        let again: Vec<_> = (0..=LOCAL_FREE_CAP).map(|_| alloc(&always)).collect();
        assert_eq!(reg.allocated(), UNGATED + GATED, "served from the pools");
        assert_eq!(gauges(), (0, 0, stock - LOCAL_FREE_CAP - 1));
        for p in again {
            unsafe { reg.dealloc(p) };
        }
    }

    /// A gated payload that counts its readiness probes.
    struct CountedGate {
        open: Arc<AtomicBool>,
        probes: Arc<StdAtomicUsize>,
    }
    impl Reclaim for CountedGate {
        fn ready_to_reclaim(&self) -> bool {
            self.probes.fetch_add(1, StdOrdering::SeqCst);
            self.open.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn reprobes_of_gated_garbage_are_paid_for_by_retirements() {
        // G nodes park behind a closed gate, as the trie's DEL nodes do in
        // dNodePtr slots. Re-probing them on every sweep would cost G
        // probes per bag, about G·R/BAG_CAP over R retirements (here
        // 262 144). Each re-probe must instead be paid for by G/2
        // retirements: at most 2R + 2G probes (here 17 408).
        const G: usize = 512;
        const R: usize = 8192;
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<CountedGate> = Registry::new_in(domain);
        let gated_probes = Arc::new(StdAtomicUsize::new(0));
        let other_probes = Arc::new(StdAtomicUsize::new(0));
        let always = Arc::new(AtomicBool::new(true));
        // Each full bag flushes and sweeps inside `retire`.
        let retire = |open: &Arc<AtomicBool>, probes: &Arc<StdAtomicUsize>| {
            let p = reg.alloc(CountedGate {
                open: Arc::clone(open),
                probes: Arc::clone(probes),
            });
            let g = handle.pin();
            unsafe { reg.retire(p, &g) };
        };
        let pending = || reg.health("gated").pending;
        let recorded_from = telemetry::thread_counters();

        let gate = Arc::new(AtomicBool::new(false));
        for _ in 0..G {
            retire(&gate, &gated_probes);
        }
        let before = gated_probes.load(StdOrdering::SeqCst);
        for _ in 0..R {
            retire(&always, &other_probes);
        }
        let probes = gated_probes.load(StdOrdering::SeqCst) - before;
        assert!(
            probes <= 2 * R + 2 * G,
            "{probes} probes of {G} gated nodes over {R} retirements"
        );
        // This thread made every probe, and the telemetry plane counted
        // each one; it timed its first sweep at least.
        let recorded = telemetry::thread_counters() - recorded_from;
        let all = gated_probes.load(StdOrdering::SeqCst) + other_probes.load(StdOrdering::SeqCst);
        assert_eq!(recorded.get(Counter::GateProbes), all as u64);
        assert!(recorded.get(Counter::SweepNs) > 0);
        assert_eq!(pending(), G, "a closed gate keeps every node parked");

        // Once the gate opens, the retirements that pay for the next
        // re-probe move the nodes to limbo.
        gate.store(true, Ordering::SeqCst);
        let mut waited = 0;
        while pending() > 0 {
            retire(&always, &other_probes);
            waited += 1;
            assert!(
                waited <= G.div_ceil(2) + BAG_CAP,
                "opened nodes still pending after {waited} retirements"
            );
        }

        // A plain sweep leaves a gate that opened without retirements
        // unseen; `flush` re-probes on every sweep and empties everything.
        let late = Arc::new(AtomicBool::new(false));
        for _ in 0..G {
            retire(&late, &gated_probes);
        }
        reg.flush();
        assert_eq!((reg.live(), pending()), (G, G));
        late.store(true, Ordering::SeqCst);
        reg.collect();
        assert_eq!(pending(), G, "no retirement paid for this re-probe");
        reg.flush();
        assert_eq!(reg.live(), 0);
        let h = reg.health("gated");
        assert_eq!((h.limbo, h.pending), (0, 0));
    }

    #[test]
    fn bag_flush_stamps_after_gate_probe() {
        // Regression for the bag flavour of the restamp-soundness bug: a
        // gated node can sit in a retire bag for many epochs; when the gate
        // finally opens, a reader pinned at the *current* epoch may have
        // captured the pointer just before the gate-opening store. A flush
        // that forwarded the retire-time stamp would free the node under
        // that reader (its pin does not block `retire_stamp + GRACE`); the
        // flush must stamp with a fresh read taken after the probe.
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(domain);
        let open = Arc::new(AtomicBool::new(false));
        let p = reg.alloc(Gated {
            open: Arc::clone(&open),
        });
        let g = handle.pin();
        unsafe { reg.retire(p, &g) }; // bagged with the epoch-0 stamp
        drop(g);
        for _ in 0..4 {
            domain.try_advance();
        }
        let reader = domain.register();
        let reader_guard = reader.pin(); // "captured the pointer" at epoch 4
        open.store(true, Ordering::SeqCst);
        reg.flush(); // flushes the bag; a stale stamp would free here
        assert_eq!(
            reg.live(),
            1,
            "a retire-time stamp frees the node under the reader's pin"
        );
        drop(reader_guard);
        reg.flush();
        assert_eq!(reg.live(), 0);
    }

    /// A gated node whose `ready_to_reclaim`, on its first open-gate call,
    /// simulates the race from the restamp soundness argument: the global
    /// epoch advances (other threads' amortized `try_advance`) and a reader
    /// pins at the *new* epoch, having captured the gated pointer just
    /// before the gate opened.
    struct CapturingGate {
        open: Arc<AtomicBool>,
        domain: &'static Domain,
        armed: core::cell::Cell<bool>,
        reader: std::rc::Rc<std::cell::RefCell<Option<Guard<'static>>>>,
    }
    impl Reclaim for CapturingGate {
        fn ready_to_reclaim(&self) -> bool {
            if !self.open.load(Ordering::SeqCst) {
                return false;
            }
            if self.armed.get() {
                self.armed.set(false);
                self.domain.try_advance();
                self.domain.try_advance();
                // The guard co-owns the participant slot, so it keeps the
                // pin alive after the handle drops.
                let h = self.domain.register();
                *self.reader.borrow_mut() = Some(h.pin());
            }
            true
        }
    }

    #[test]
    fn restamp_after_gate_opens_uses_fresh_epoch() {
        // Regression: neither the bag flush nor the pending→limbo transfer
        // may reuse an epoch snapshot taken before the gate probe. The
        // sweeper holds no pin, so the global epoch can run ahead
        // mid-drain; a reader pinned at the new epoch that captured the
        // gated pointer just before the gate opened would not block a
        // stale stamp's grace period — use-after-free.
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<CapturingGate> = Registry::new_in(domain);
        let open = Arc::new(AtomicBool::new(false));
        let reader = std::rc::Rc::new(std::cell::RefCell::new(None));
        let p = reg.alloc(CapturingGate {
            open: Arc::clone(&open),
            domain,
            armed: core::cell::Cell::new(true),
            reader: std::rc::Rc::clone(&reader),
        });
        let g = handle.pin();
        unsafe { reg.retire(p, &g) }; // gate closed → bagged
        drop(g);

        open.store(true, Ordering::SeqCst);
        reg.collect(); // flush probes the gate: epoch advances, reader pins
        assert!(reader.borrow().is_some(), "hook must have pinned a reader");
        reg.flush();
        assert_eq!(
            reg.live(),
            1,
            "a stale restamp frees the node under the reader's pin"
        );
        reader.borrow_mut().take(); // reader unpins
        reg.flush();
        assert_eq!(reg.live(), 0);
    }

    struct PanicOnce {
        armed: Arc<AtomicBool>,
    }
    impl Reclaim for PanicOnce {
        fn ready_to_reclaim(&self) -> bool {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("reclaim hook panicked");
            }
            true
        }
    }

    #[test]
    fn panicking_hook_neither_wedges_nor_leaks_the_sweeper() {
        // Regression: a panic in a user hook mid-sweep must clear `sweeping`
        // and re-route the unexamined chain remainder — not disable
        // reclamation on the registry forever and leak the backlog. With
        // retire bags the panic now fires inside the bag flush, whose guard
        // re-routes everything to `pending`.
        let domain = leaked_domain();
        let handle = domain.register();
        let reg: Registry<PanicOnce> = Registry::new_in(domain);
        let flags: Vec<Arc<AtomicBool>> =
            (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let g = handle.pin();
        for f in &flags {
            let p = reg.alloc(PanicOnce {
                armed: Arc::clone(f),
            });
            unsafe { reg.retire(p, &g) };
        }
        drop(g);
        // Arm the middle of the (FIFO) bag, so the flush probes one node,
        // panics on the second, and must hand the rest back.
        flags[1].store(true, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.collect()));
        assert!(result.is_err(), "the hook panic must propagate");
        assert_eq!(reg.live(), 3, "nothing may leak across the panic");
        // The flush guard routed all three to `pending`. Panic again inside
        // the pending drain (node 0, probed first, moves to limbo), then
        // inside the limbo drain: each drain re-attaches its remainder and
        // settles its depth gauge exactly. `flush` drives the drains: its
        // first sweep re-probes `pending` although nothing was retired.
        let gauges = || {
            let h = reg.health("panicky");
            (h.limbo, h.pending)
        };
        assert_eq!(gauges(), (0, 3));
        for (armed, after) in [(1, (1, 2)), (0, (3, 0))] {
            flags[armed].store(true, Ordering::SeqCst);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.flush()));
            assert!(result.is_err(), "the drain panic must propagate");
            assert_eq!(gauges(), after);
            assert_eq!(reg.live(), 3, "nothing may leak across the panic");
        }
        // `sweeping` is clear and the chains are back: once the hook stops
        // panicking, everything still ages out, and the gauges agree.
        reg.flush();
        assert_eq!(reg.reclaimed(), 3);
        assert_eq!(reg.live(), 0);
        assert_eq!(gauges(), (0, 0));
    }

    #[test]
    fn panicking_probe_during_steal_releases_the_pool_claim() {
        // Regression: stealing a released pool probes user gates inside the
        // bag flush; a panic there must release the transient claim. A
        // stuck claim would strand the orphan pool's free stock and make
        // the slot unclaimable until registry drop.
        let domain = leaked_domain();
        let reg: Arc<Registry<PanicOnce>> = Arc::new(Registry::new_in(domain));
        let armed = Arc::new(AtomicBool::new(false));
        // A thread leaves a released pool behind with one bagged node (P,
        // armed to panic) and one recycled slot (A) on its free list.
        let (p_addr, a_addr) = {
            let reg = Arc::clone(&reg);
            let armed = Arc::clone(&armed);
            std::thread::spawn(move || {
                let handle = domain.register();
                let p = reg.alloc(PanicOnce { armed });
                let g = handle.pin();
                unsafe { reg.retire(p, &g) };
                drop(g);
                let a = reg.alloc(PanicOnce {
                    armed: Arc::new(AtomicBool::new(false)),
                });
                unsafe { reg.dealloc(a) }; // recycled into the local free list
                (p as usize, a as usize)
            })
            .join()
            .unwrap()
        };
        armed.store(true, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.collect()));
        assert!(result.is_err(), "the armed probe must panic the steal");
        // The claim is back: later sweeps re-steal the pool, age P out, and
        // return A's slot to the shared stock — so the next two allocations
        // are both served from recycled memory.
        reg.flush();
        let x = reg.alloc(PanicOnce {
            armed: Arc::new(AtomicBool::new(false)),
        });
        let y = reg.alloc(PanicOnce {
            armed: Arc::new(AtomicBool::new(false)),
        });
        assert_eq!(
            reg.recycled(),
            2,
            "a wedged claim strands the orphan pool's slots: {} recycled",
            reg.recycled()
        );
        let got = [x as usize, y as usize];
        assert!(got.contains(&p_addr) && got.contains(&a_addr));
        unsafe { reg.dealloc(x) };
        unsafe { reg.dealloc(y) };
    }

    #[test]
    fn dealloc_frees_unpublished_nodes_immediately() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new();
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        unsafe { reg.dealloc(p) };
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn dealloc_recycles_the_slot() {
        // Losing a publication CAS is a hot path under contention: the
        // speculative node must go back into the pool, not to the heap.
        let reg: Registry<CountsDrops> = Registry::new();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        unsafe { reg.dealloc(p) };
        let q = reg.alloc(CountsDrops(Arc::clone(&drops)));
        assert_eq!(q, p, "the deallocated slot is reused");
        assert_eq!(reg.allocated(), 1);
        assert_eq!(reg.recycled(), 1);
        assert_eq!(reg.created(), 2);
        unsafe { reg.dealloc(q) };
    }

    #[test]
    fn registry_drop_frees_parked_garbage() {
        let domain = leaked_domain();
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        {
            let reg: Registry<CountsDrops> = Registry::new_in(domain);
            let g = handle.pin();
            for _ in 0..100 {
                let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                unsafe { reg.retire(p, &g) };
            }
            drop(g);
            assert_eq!(drops.load(StdOrdering::SeqCst), 0);
        }
        assert_eq!(drops.load(StdOrdering::SeqCst), 100);
    }

    #[test]
    fn released_pools_are_stolen_by_sweeps() {
        // A thread that retires and exits must not strand its bagged
        // garbage until registry drop: the next sweep (from any thread)
        // steals the released pool's chains.
        let domain = leaked_domain();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new_in(domain));
        {
            let reg = Arc::clone(&reg);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                let handle = domain.register();
                let p = reg.alloc(CountsDrops(drops));
                let g = handle.pin();
                unsafe { reg.retire(p, &g) };
            })
            .join()
            .unwrap();
        }
        assert_eq!(drops.load(StdOrdering::SeqCst), 0, "still bagged");
        reg.flush(); // main thread steals the released pool's bag
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn churn_keeps_live_count_bounded_and_allocation_plateaus() {
        // The registry-level version of tests/memory_bound.rs: sustained
        // retire traffic from several threads must not accumulate — and
        // once warm, must stop allocating.
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new());
        let drops = Arc::new(StdAtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            let drops = Arc::clone(&drops);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                    let g = epoch::pin();
                    unsafe { reg.retire(p, &g) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        reg.flush();
        assert_eq!(reg.created(), 20_000);
        assert!(
            reg.live() <= 4 * BAG_CAP,
            "steady-state garbage must be bounded, found {} live",
            reg.live()
        );
        assert!(
            reg.recycled() > 0,
            "sustained churn must hit the recycle pools at least sometimes"
        );
        assert!(
            reg.resident() <= reg.live() + 5 * (LOCAL_FREE_CAP + BAG_CAP) + SHARED_FREE_CAP,
            "pooled stock must respect its caps: {} resident",
            reg.resident()
        );
    }

    #[test]
    fn warm_quiescent_churn_stops_allocating() {
        // The zero-allocation claim, deterministically: on a private domain
        // with one thread, a warmed-up registry serves every allocation
        // from its pools — `allocated()` (fresh heap boxes) plateaus while
        // the logical series keeps growing.
        let domain = leaked_domain();
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(domain);
        let churn = |n: usize| {
            for _ in 0..n {
                let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                let g = handle.pin();
                unsafe { reg.retire(p, &g) };
                drop(g);
            }
        };
        churn(512);
        reg.flush(); // age the warm-up garbage into the free pools
        let warm = reg.stats();
        assert!(warm.fresh <= 512);

        churn(4_096);
        let after = reg.stats();
        assert_eq!(
            after.fresh, warm.fresh,
            "warm steady-state churn must not touch the heap"
        );
        assert_eq!(after.created, warm.created + 4_096);
        assert!(after.recycled >= warm.recycled + 4_096);
        assert!(
            after.resident <= LOCAL_FREE_CAP + BAG_CAP + SHARED_FREE_CAP + after.live,
            "resident memory (pools included) stays capped: {}",
            after.resident
        );
    }

    #[test]
    fn pointers_stable_until_reclaimed() {
        struct Plain(u64);
        impl Reclaim for Plain {}
        let reg: Registry<Plain> = Registry::new();
        let first = reg.alloc(Plain(7));
        for i in 0..1000u64 {
            let p = reg.alloc(Plain(i));
            unsafe { reg.dealloc(p) };
        }
        assert_eq!(unsafe { (*first).0 }, 7);
        unsafe { reg.dealloc(first) };
    }
}
