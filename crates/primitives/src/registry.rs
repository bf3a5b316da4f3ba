//! Epoch-aware allocation registry with bounded-garbage reclamation and
//! per-thread node pools.
//!
//! The paper's model assumes garbage collection: update nodes stay readable
//! through long-lived shared fields (`t.dNodePtr` can hold an old DEL node
//! indefinitely; an INS node's `target` keeps a DEL node readable long after
//! the `Delete` completes). The structures here count what keeps each such
//! node alive and retire it at the release that drops the count to zero
//! (the trie's argument is in `lftrie_core`'s `access` module docs). So
//! the registry has one job: age garbage through the epoch grace period and
//! recycle it, without the allocator on the steady-state churn path:
//!
//! * Every node is heap-allocated **once**, with an intrusive pool header
//!   (chain link + epoch stamp) in front of the value. [`Registry::retire`]
//!   therefore allocates nothing: it threads the node onto the calling
//!   thread's *retire bag* through the embedded link.
//! * Each thread owns a **local pool** in each registry — a retire bag, a
//!   free list of recycled nodes and its own statistics — found by the
//!   thread's slot index (see [`crate::slots`]). [`Registry::alloc`] pops
//!   the free list (refilling from a shared stock in batches) before it
//!   ever touches the heap, so a warm registry serves every allocation
//!   from its pools, and a pool hit writes only the thread's own pool.
//!   `tests/alloc_plateau.rs` asserts the plateau through the
//!   [`Registry::allocated`] (fresh heap boxes) vs [`Registry::recycled`]
//!   (pool hits) counters, and, with a counting allocator, that a warm
//!   trie operation — whose nodes, cells and notify records all come from
//!   registries — makes no heap call at all.
//! * Retire bags flush in batches — on overflow (`BAG_CAP`) and at the
//!   start of every sweep — into the thread's own FIFO of stamped
//!   garbage, so a retire touches no shared line at all.
//! * A pool records the slot *tenure* that claimed it. The next tenure of
//!   the index claims it by CAS and inherits its chains, and a sweep
//!   *steals* the chains of a pool whose tenure has ended, so an exited
//!   thread's garbage keeps aging without it. A steal that a panicking
//!   node `Drop` interrupts puts the ended tenure back, so a later sweep
//!   steals the rest.
//! * A node is freed (recycled) three global-epoch advances past its stamp
//!   (see [`crate::epoch`]). Nothing probes it before: a retired node is
//!   plain EBR garbage.
//!
//! # Retirement and the grace-period stamp
//!
//! A caller retires a node exactly once, when it becomes garbage: no
//! thread that pins after the retirement can reach it, except through a
//! re-publication that a thread pinned before the retirement makes and
//! withdraws while still pinned (the `HelpActivate` case the three-epoch
//! grace period covers). Every thread that can still dereference the node
//! therefore pinned before the retirement.
//!
//! The stamp is a fresh epoch read taken after the retirement: at the bag
//! flush, or when a sweep drains the node from `pending` (below). So a
//! reader's pin epoch is at most the stamp, and while it stays pinned the
//! global epoch cannot pass `pin + 1`. The free needs `stamp +
//! GRACE_EPOCHS`, so it waits for every such reader. A node that waits in
//! a bag only gets a later stamp, never an earlier one.
//!
//! # The `pending` inbox
//!
//! A thread with no pool retires into the shared `pending` stack: during
//! thread teardown (its slot is gone), or while a sweep steals the pool an
//! ended tenure left at the thread's slot index. The exclusive sweeper
//! drains it whole, stamps the chain with one fresh epoch read and appends
//! it to its own FIFO. Its depth gauge (the `pending` field of
//! [`ReclaimHealth`]) reads about 0.
//!
//! # The per-thread FIFO
//!
//! Each pool keeps its stamped garbage in a FIFO that only the pool's owner
//! touches, like its bag and free list. Flushes append at the tail with
//! fresh stamps, so a thread's own FIFO is in stamp order. A sweep first
//! advances the epoch, then pops from the front while
//! `stamp + GRACE_EPOCHS ≤ epoch`, dropping each popped value and recycling
//! its node into its own free list. It never walks a node that has not
//! expired, and it writes no shared line per node. The invariants:
//!
//! * No node is freed before `stamp + GRACE_EPOCHS ≤ epoch`. A stamp is a
//!   fresh epoch read taken after the node's retirement.
//! * The walk stops at the first node that has not expired. A chain
//!   appended out of stamp order, such as a stolen FIFO, only waits
//!   longer.
//! * A value whose `Drop` panics still counts as reclaimed, its emptied
//!   node is recycled, and `sweeping` still clears.
//! * Only the `pending` drain and the steals need `sweeping`. A thread's
//!   own FIFO needs no exclusivity, so a sweep whose `sweeping` claim
//!   fails still flushes, advances and expires its own garbage; it skips
//!   only the shared work. (Skipping the whole sweep instead, as the
//!   shared limbo stack once required, lets a thread's FIFO grow while
//!   another thread sweeps; on the two-worker benchmark the two choices
//!   measured alike, and this one keeps each thread's garbage bounded by
//!   its own sweeps.)
//! * The `limbo` field of [`ReclaimHealth`] keeps its report name. It is
//!   the sum of the pools' FIFO lengths, kept in owner-written counters,
//!   and it is exact at quiescence.
//! * [`Registry::flush`] (a structure's `collect_garbage`) on one thread
//!   cannot reach another live thread's FIFO, just as it cannot reach that
//!   thread's bag. What it leaves is bounded by that thread's bag plus the
//!   FIFO entries that had not expired at its last sweep. An exited
//!   thread's FIFO is stolen, as its bag is: a sweep flushes the bag into
//!   it, frees its expired front and appends the rest to the sweeper's
//!   own FIFO. (Appended whole, each stolen FIFO's freshly flushed tail
//!   would hold back every older chain stolen after it.)
//!
//! # Counters
//!
//! All counters are statistics (Relaxed orderings; nothing synchronizes
//! through them). Each pool keeps its own set, written with a plain load
//! and store by whoever owns the pool's cells, so a pooled allocation or
//! free writes no line another thread writes. A shared set counts the
//! paths that have no pool: allocations by a thread with no pool,
//! [`Registry::dealloc`] on a thread that has not claimed its pool, the
//! frees of a steal, and teardown. A read sums the shared set and every
//! pool's. It may miss a pool touched concurrently, so it is approximate
//! under concurrency and exact at quiescence:
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
//! `O(threads² + live set + pool caps)`, where the live set counts every
//! node its structure still holds, independent of the total number of
//! updates — `tests/memory_bound.rs` asserts exactly this.

use core::cell::Cell;
use core::marker::PhantomData;
use core::mem::{offset_of, ManuallyDrop};
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use lftrie_telemetry::{self as telemetry, Counter, FlightKind, ReclaimHealth};

use crate::epoch::{Domain, Guard};
use crate::slots::{self, SlotVec};

/// Epochs a retired node must age before it can be freed. See
/// [`crate::epoch`] for why this is 3 and not the textbook 2.
const GRACE_EPOCHS: u64 = 3;

/// Retires a thread buffers in its local bag before flushing them to its
/// FIFO (and sweeping). Doubles as the amortized sweep cadence, so
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
    /// exclusively right now: a local free list, retire bag or FIFO (owner
    /// thread), a shared stack segment (the pushing thread until the CAS
    /// lands, then the draining sweeper).
    next: Cell<*mut PoolNode<T>>,
    /// Grace-period stamp; freed once `global ≥ epoch + GRACE`. A fresh
    /// epoch read taken after the node's retirement: at its bag flush, or
    /// when a sweep drains it from `pending` (module docs).
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
/// drain. The head is cache-padded: the pending and free-stock heads
/// would otherwise share lines with each other and the counters.
struct GarbageStack<T> {
    head: CachePadded<AtomicPtr<PoolNode<T>>>,
    /// Node count — the pending/free-stock **depth gauge** of the
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
    /// `n` to the gauge — O(1) once the chain is built.
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

/// A pool's owner word before any tenure claims it, and after a sweep
/// stole everything an ended tenure left in it.
const UNOWNED: u64 = 0;
/// A pool's owner word while a sweep steals its chains. Even, so it is
/// never a tenure.
const STEALING: u64 = 2;

/// One slot's pool of a registry: a free list of recycled nodes, a retire
/// bag and a FIFO of stamped garbage, all intrusive chains used
/// exclusively by the pool's owner. Cache-padded so two threads' pools
/// never share a line.
struct LocalPool<T> {
    /// Who may use the `Cell` fields: the slot tenure that claimed the
    /// pool (odd), [`UNOWNED`], or [`STEALING`] while a sweep takes the
    /// chains of an ended tenure. The next tenure of the slot claims the
    /// pool by CAS, inheriting whatever chains are left. `Registry::drop`
    /// ignores the word: its `&mut self` already excludes every other user.
    owner: AtomicU64,
    /// Recycled nodes ready for reuse (values already dropped).
    free: Cell<*mut PoolNode<T>>,
    free_len: Cell<usize>,
    /// Retired nodes awaiting a batch flush (values alive), oldest first.
    bag_head: Cell<*mut PoolNode<T>>,
    bag_tail: Cell<*mut PoolNode<T>>,
    bag_len: Cell<usize>,
    /// Stamped garbage awaiting its grace period: appended at the tail,
    /// expired from the front (module docs).
    fifo_head: Cell<*mut PoolNode<T>>,
    fifo_tail: Cell<*mut PoolNode<T>>,
    /// The FIFO's length, this pool's share of the `limbo` gauge. Only the
    /// cells' owner writes it; `health` reads it from any thread.
    fifo_len: AtomicUsize,
    /// This pool's share of the registry's statistics, written like
    /// `fifo_len` ([`Counters::add_owned`]).
    stats: Counters,
}

impl<T> Default for LocalPool<T> {
    fn default() -> Self {
        Self {
            owner: AtomicU64::new(UNOWNED),
            free: Cell::new(core::ptr::null_mut()),
            free_len: Cell::new(0),
            bag_head: Cell::new(core::ptr::null_mut()),
            bag_tail: Cell::new(core::ptr::null_mut()),
            bag_len: Cell::new(0),
            fifo_head: Cell::new(core::ptr::null_mut()),
            fifo_tail: Cell::new(core::ptr::null_mut()),
            fifo_len: AtomicUsize::new(0),
            stats: Counters::default(),
        }
    }
}

impl<T> LocalPool<T> {
    /// Appends the pre-linked chain `first..=last` of `n` nodes to the
    /// FIFO's tail.
    ///
    /// # Safety
    ///
    /// The caller owns the pool's `Cell`s, and holds the chain exclusively:
    /// no container links to it any more.
    unsafe fn append(&self, first: *mut PoolNode<T>, last: *mut PoolNode<T>, n: usize) {
        let tail = self.fifo_tail.replace(last);
        if tail.is_null() {
            self.fifo_head.set(first);
        } else {
            // Safety: the tail is a FIFO node, owned with the cells.
            unsafe { (*tail).next.set(first) };
        }
        Counters::add_owned(&self.fifo_len, n);
    }
}

thread_local! {
    /// Sweeps this thread has run while recording, for `SWEEP_SAMPLE`.
    static SWEEPS_RUN: Cell<u64> = const { Cell::new(0) };
}

/// Stores a value into an atomic word on every exit path. Sweeps and pool
/// steals run user code (node `Drop`s); without this guard a single panic
/// in one of them would leave `sweeping` stuck — silently disabling the
/// steals and the `pending` drain on the registry forever — or leave a
/// stolen pool marked [`STEALING`], its chains stranded until registry drop.
struct StoreOnDrop<'a>(&'a AtomicU64, u64);

impl Drop for StoreOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(self.1, Ordering::SeqCst);
    }
}

/// A sweep's pass over the expired front of one FIFO. A node leaves the
/// FIFO before its value is dropped, and the drop is user code: on every
/// exit path, panics included, the pass's drop settles the FIFO's length,
/// counts every popped value as reclaimed (a value whose `Drop` panicked
/// is destroyed all the same) and recycles the node a panic left emptied,
/// once per pass rather than once per node.
struct Expiry<'a, T> {
    reg: &'a Registry<T>,
    pool: &'a LocalPool<T>,
    popped: usize,
    /// The node whose value is being dropped; null between drops.
    dropping: *mut PoolNode<T>,
}

impl<T> Drop for Expiry<'_, T> {
    fn drop(&mut self) {
        let len = &self.pool.fifo_len;
        len.store(len.load(Ordering::Relaxed) - self.popped, Ordering::Relaxed);
        Counters::add_owned(&self.pool.stats.reclaimed, self.popped);
        if !self.dropping.is_null() {
            // Safety: the node left the FIFO and its value is gone; the
            // caller owns the pool.
            unsafe { self.reg.recycle_node(self.dropping, Some(self.pool)) };
        }
    }
}

/// Statistics counters: one set in each pool, written only by the pool's
/// owner, and one shared set for the paths that have no pool. Readers sum
/// them all (module docs). Relaxed throughout — nothing synchronizes
/// through them.
#[derive(Default)]
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

impl Counters {
    /// Adds `n` to a pool's counter with a plain load and store: only the
    /// pool's owner writes it, so no read-modify-write is needed.
    #[inline]
    fn add_owned(counter: &AtomicUsize, n: usize) {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// Epoch-aware allocation handle: every node of a lock-free structure is
/// allocated, retired, and accounted through one of these.
///
/// # Examples
///
/// ```
/// use lftrie_primitives::epoch;
/// use lftrie_primitives::registry::Registry;
///
/// struct Cell(u64);
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
    /// The epoch domain this registry retires into: its owning structure's,
    /// shared by all of that structure's registries, or (`None`) the global
    /// one.
    domain: Option<Arc<Domain>>,
    /// The statistics of the paths with no pool; each pool keeps its own.
    counters: CachePadded<Counters>,
    /// Garbage retired by threads with no pool, until the next exclusive
    /// sweep drains it into its own FIFO (module docs).
    pending: GarbageStack<T>,
    /// Shared stock of recycled nodes (values dropped), refilled by sweeps
    /// and drained in batches into local free lists. Its depth gauge
    /// enforces [`SHARED_FREE_CAP`].
    free: GarbageStack<T>,
    /// One pool per slot index (see [`crate::slots`]).
    pools: SlotVec<CachePadded<LocalPool<T>>>,
    /// 1 while a sweep steals pools and drains `pending`; concurrent sweeps
    /// skip that part (module docs).
    sweeping: AtomicU64,
    _owns: PhantomData<T>,
}

// Safety: the registry owns heap allocations of T and only ever hands out
// raw pointers; garbage chains and pools are plain owned memory whose
// `Cell` fields are guarded by the pool owner word and the `sweeping`
// exclusivity protocol described on `LocalPool`.
unsafe impl<T: Send> Send for Registry<T> {}
unsafe impl<T: Send + Sync> Sync for Registry<T> {}

impl<T> Registry<T> {
    /// Creates an empty registry on the global epoch domain.
    pub fn new() -> Self {
        Self::with_domain(None)
    }

    /// Creates an empty registry on `domain`, which a structure shares
    /// among all of its registries.
    pub fn new_in(domain: Arc<Domain>) -> Self {
        Self::with_domain(Some(domain))
    }

    fn with_domain(domain: Option<Arc<Domain>>) -> Self {
        Self {
            domain,
            counters: CachePadded::new(Counters::default()),
            pending: GarbageStack::new(),
            free: GarbageStack::new(),
            pools: SlotVec::new(),
            sweeping: AtomicU64::new(0),
            _owns: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Pool plumbing
    // ------------------------------------------------------------------

    /// The calling thread's pool. With `claim` set, a thread's first use in
    /// its tenure claims the pool by CAS, inheriting whatever chains an
    /// ended tenure left there. `None` during thread teardown (the slot is
    /// gone), while a sweep steals the pool, or when the pool is not the
    /// caller's and `claim` is off; callers then use the shared stacks, or
    /// leave the sweep to others.
    #[inline]
    fn pool(&self, claim: bool) -> Option<&LocalPool<T>> {
        let slot = slots::current()?;
        let pool = self.pools.get(slot.index);
        // Only this thread writes its tenure into the word, and nothing
        // replaces it while the tenure lasts: a match needs no ordering.
        // Any other odd value is an ended tenure of this index.
        let owner = pool.owner.load(Ordering::Relaxed);
        let mine = owner == slot.tenure
            || (claim
                && owner != STEALING
                && pool
                    .owner
                    .compare_exchange(owner, slot.tenure, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok());
        mine.then_some(&**pool)
    }

    /// Counts one event in `field` of `pool`, whose cells the caller owns,
    /// or of the shared counters when there is no pool.
    #[inline]
    fn count(&self, pool: Option<&LocalPool<T>>, field: fn(&Counters) -> &AtomicUsize) {
        match pool {
            Some(pool) => Counters::add_owned(field(&pool.stats), 1),
            None => {
                field(&self.counters).fetch_add(1, Ordering::Relaxed);
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
    /// met. `pool` is a pool whose cells the caller owns, if any: its own,
    /// or one it is stealing.
    unsafe fn recycle_node(&self, node: *mut PoolNode<T>, pool: Option<&LocalPool<T>>) {
        if let Some(pool) = pool {
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
        self.count(pool, |c| &c.freed);
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
        let pool = self.pool(true);
        if let Some(pool) = pool {
            // Safety: the pool is claimed by this thread.
            let node = unsafe { self.pop_free(pool) };
            if !node.is_null() {
                Counters::add_owned(&pool.stats.recycled, 1);
                // Safety: the slot's previous value was dropped when the
                // node was recycled; plain write, no double drop.
                unsafe { core::ptr::write(&raw mut (*node).value, ManuallyDrop::new(value)) };
                return PoolNode::value_ptr(node);
            }
        }
        self.count(pool, |c| &c.fresh);
        PoolNode::value_ptr(PoolNode::new_boxed(value))
    }

    /// Retires a node: it is freed (recycled) once the epoch grace period
    /// has passed over it. Performs **no allocation**: the node is
    /// threaded onto the calling thread's retire bag through its intrusive
    /// header, and bags flush to the thread's FIFO in batches (on overflow
    /// and at sweeps).
    ///
    /// # Safety
    ///
    /// * `ptr` came from [`Registry::alloc`] on this registry and is retired
    ///   at most once, and never also passed to [`Registry::dealloc`].
    /// * The node is garbage: no thread that pins *after* this call can
    ///   reach `ptr` through shared memory, except transiently through
    ///   re-publications that threads pinned *before* it make and withdraw
    ///   while still pinned (the grace period absorbs those; see
    ///   [`crate::epoch`]).
    /// * `guard` pins the registry's domain (callers are necessarily pinned:
    ///   they just released the node's last hold).
    #[inline]
    pub unsafe fn retire(&self, ptr: *mut T, guard: &Guard<'_>) {
        debug_assert!(
            core::ptr::eq(guard.domain(), self.domain()),
            "guard pins a different epoch domain than the registry's"
        );
        let node = PoolNode::from_value(ptr);
        unsafe { (*node).next.set(core::ptr::null_mut()) };
        if let Some(pool) = self.pool(true) {
            let tail = pool.bag_tail.get();
            debug_assert_ne!(tail, node, "a node retired twice");
            if tail.is_null() {
                pool.bag_head.set(node);
            } else {
                unsafe { (*tail).next.set(node) };
            }
            pool.bag_tail.set(node);
            pool.bag_len.set(pool.bag_len.get() + 1);
            if pool.bag_len.get() >= BAG_CAP {
                // The sweep flushes the bag first.
                self.collect();
            }
        } else {
            // No pool (thread teardown, or a sweep is stealing the one a
            // past tenure left): the shared inbox, which the next exclusive
            // sweep drains (still no allocation — the header is intrusive
            // either way).
            self.pending.push(node);
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
        let pool = self.pool(false);
        self.count(pool, |c| &c.reclaimed);
        unsafe { self.recycle_node(node, pool) };
    }

    // ------------------------------------------------------------------
    // Sweeping
    // ------------------------------------------------------------------

    /// Stamps the chain `first` of retired nodes with one fresh epoch read
    /// and appends it to `pool`'s FIFO; returns the chain's length.
    ///
    /// # Safety
    ///
    /// The caller owns `pool`'s `Cell`s and holds the chain exclusively, and
    /// every node on it was retired before this call (module docs).
    unsafe fn append_stamped(&self, pool: &LocalPool<T>, first: *mut PoolNode<T>) -> usize {
        let stamp = self.domain().epoch();
        let (mut n, mut last, mut cur) = (0usize, first, first);
        while !cur.is_null() {
            unsafe { (*cur).epoch.set(stamp) };
            last = cur;
            cur = unsafe { (*cur).next.get() };
            n += 1;
        }
        if n > 0 {
            unsafe { pool.append(first, last, n) };
        }
        n
    }

    /// Flushes `pool`'s retire bag to the tail of its FIFO, stamped after
    /// every retirement in it. The caller owns `pool`'s `Cell`s.
    fn flush_bag(&self, pool: &LocalPool<T>) {
        let first = pool.bag_head.replace(core::ptr::null_mut());
        if first.is_null() {
            return;
        }
        pool.bag_tail.set(core::ptr::null_mut());
        pool.bag_len.set(0);
        // Safety: the caller owns the pool; the chain left the bag.
        let batch = unsafe { self.append_stamped(pool, first) };
        // One flight event per flushed batch (not per retire: a per-retire
        // event would both flood the 128-entry ring and put a globally
        // contended sequence fetch on the update hot path).
        telemetry::event(Counter::BagFlushes, FlightKind::Retire, -1, batch as u64);
    }

    /// Steals the chains of pools whose tenure has ended, so their
    /// garbage keeps aging and their free stock returns to circulation:
    /// each one's bag is flushed, the expired front of its FIFO freed
    /// against `global`, and the rest appended to `own`'s FIFO.
    fn steal_ended_pools(&self, own: &LocalPool<T>, global: u64) {
        for (index, pool) in self.pools.iter() {
            // An odd owner other than the index's current tenure has ended:
            // tenures only move on. The sweeper's read of the counter pairs
            // with the releasing store, after the owner's last cell writes.
            let owner = pool.owner.load(Ordering::SeqCst);
            let ended = owner % 2 == 1 && owner != slots::tenure(index);
            if !ended
                || pool
                    .owner
                    .compare_exchange(owner, STEALING, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                continue;
            }
            // A node `Drop` that panics mid-steal leaves the ended tenure in
            // place, so a later sweep steals the rest.
            let mut restore = StoreOnDrop(&pool.owner, owner);
            self.flush_bag(pool);
            // The bag just flushed ends the FIFO with a fresh stamp, which
            // would hold back every older chain stolen after this one, so
            // what has expired goes now. The rest may be older than the
            // tail it joins: it then only waits longer (module docs).
            self.expire(pool, global);
            let first = pool.fifo_head.replace(core::ptr::null_mut());
            if !first.is_null() {
                let n = pool.fifo_len.swap(0, Ordering::Relaxed);
                let last = pool.fifo_tail.replace(core::ptr::null_mut());
                // Safety: the sweeper owns `own` and holds the stolen pool.
                unsafe { own.append(first, last, n) };
            }
            let mut f = pool.free.replace(core::ptr::null_mut());
            pool.free_len.set(0);
            while !f.is_null() {
                let next = unsafe { (*f).next.get() };
                // Values already dropped: straight back into stock.
                unsafe { self.recycle_node(f, None) };
                f = next;
            }
            restore.1 = UNOWNED;
        }
    }

    /// Frees the expired front of `pool`'s FIFO: drops the value of each
    /// node whose stamp is at least `GRACE_EPOCHS` behind `global` and
    /// recycles the node into `pool`'s free list. Stops at the first node
    /// that has not expired.
    ///
    /// # Safety expectations
    ///
    /// The caller owns `pool`'s `Cell`s, so every FIFO node is its alone.
    /// Panic-safe: see [`Expiry`].
    fn expire(&self, pool: &LocalPool<T>, global: u64) {
        let mut pass = Expiry {
            reg: self,
            pool,
            popped: 0,
            dropping: core::ptr::null_mut(),
        };
        loop {
            let cur = pool.fifo_head.get();
            // `global` is a snapshot from before the pass, so this only
            // under-approximates eligibility — safe.
            if cur.is_null() || unsafe { (*cur).epoch.get() } + GRACE_EPOCHS > global {
                break;
            }
            let next = unsafe { (*cur).next.replace(core::ptr::null_mut()) };
            pool.fifo_head.set(next);
            if next.is_null() {
                pool.fifo_tail.set(core::ptr::null_mut());
            }
            pass.popped += 1;
            pass.dropping = cur;
            unsafe { core::ptr::drop_in_place(PoolNode::value_ptr(cur)) };
            pass.dropping = core::ptr::null_mut();
            // The emptied slot goes back into circulation instead of to the
            // allocator — the whole point of the pools.
            unsafe { self.recycle_node(cur, Some(pool)) };
        }
    }

    /// One garbage sweep: flushes the caller's retire bag, tries to advance
    /// the epoch, steals the pools of ended tenures and drains `pending`
    /// into the caller's FIFO, and frees the caller's FIFO garbage whose
    /// grace period elapsed. Lock-free; a concurrent caller skips the steals
    /// and the drain.
    pub fn collect(&self) {
        // Non-fatal: collect() is reachable from retire-bag overflow inside
        // an operation pipeline, where an unwind would strand the bag.
        crate::fault::point_nonfatal(crate::fault::FaultPoint::RegistryCollect);
        // The sweep frees into the caller's own pool; a thread whose slot
        // is gone (thread exit) leaves sweeping to others.
        let Some(own) = self.pool(true) else {
            return;
        };
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
        // Batch the caller's buffered retires in before advancing, so this
        // sweep already ages them. Only the steals and the `pending` drain
        // need `sweeping`; everything below runs user code (node `Drop`s),
        // so its guard clears it on every exit path, panics included.
        self.flush_bag(own);
        let exclusive = self.sweeping.swap(1, Ordering::SeqCst) == 0;
        let _sweeping = exclusive.then(|| StoreOnDrop(&self.sweeping, 0));
        // Attempt up to GRACE advances: each one individually re-proves
        // that every pinned participant has caught up, so at quiescent
        // moments a single sweep ages garbage all the way out instead of
        // one epoch per sweep.
        let mut global = self.domain().epoch();
        for _ in 0..GRACE_EPOCHS {
            let next = self.domain().try_advance();
            if next == global {
                break;
            }
            global = next;
        }
        if exclusive {
            // Ended tenures' garbage joins this sweeper's FIFO, after the
            // advance so that what has already expired is freed on the way.
            self.steal_ended_pools(own, global);
            // So do the retires of threads with no pool.
            if self.pending.depth() > 0 {
                // Safety: `own` is the sweeper's; the chain left `pending`.
                let drained = unsafe { self.append_stamped(own, self.pending.take_all()) };
                self.pending.settle(drained);
            }
        }
        self.expire(own, global);
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            telemetry::add(Counter::SweepNs, ns * SWEEP_SAMPLE);
        }
    }

    /// Runs enough quiescent sweeps to age out everything retired so far
    /// (assuming no concurrent pins) that the calling thread can reach:
    /// its own garbage, `pending`, and the garbage of exited threads, but
    /// not another live thread's bag or FIFO (module docs). Tests and
    /// teardown paths use this to observe the steady-state footprint.
    pub fn flush(&self) {
        crate::fault::point(crate::fault::FaultPoint::RegistrySweep);
        for _ in 0..(2 * GRACE_EPOCHS as usize + 2) {
            self.collect();
        }
    }

    // ------------------------------------------------------------------
    // Counters
    // ------------------------------------------------------------------

    /// One statistic summed over the shared counters and every pool's.
    /// A pool touched concurrently may be missed, as if touched after the
    /// read; at quiescence the sum is exact.
    fn sum(&self, field: fn(&Counters) -> &AtomicUsize) -> usize {
        let pools: usize = self
            .pools
            .iter()
            .map(|(_, p)| field(&p.stats).load(Ordering::Relaxed))
            .sum();
        field(&self.counters).load(Ordering::Relaxed) + pools
    }

    /// Fresh heap allocations performed so far. Under warm steady-state
    /// churn this **plateaus** — every allocation is served from a pool —
    /// which `tests/alloc_plateau.rs` asserts.
    pub fn allocated(&self) -> usize {
        self.sum(|c| &c.fresh)
    }

    /// Allocations served from a recycle pool instead of the heap.
    pub fn recycled(&self) -> usize {
        self.sum(|c| &c.recycled)
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
        self.sum(|c| &c.reclaimed)
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
        self.allocated().saturating_sub(self.sum(|c| &c.freed))
    }

    /// Samples this registry's reclamation health gauges for the telemetry
    /// snapshot: garbage depths (limbo = garbage aging out its grace period
    /// in the pools' FIFOs, pending = retires of threads with no pool that
    /// no sweep has drained yet), pool occupancy, and the lifetime
    /// allocation counters. `label` names the registry in reports (e.g.
    /// `"preds"`).
    ///
    /// Everything is Relaxed-loaded and approximate under concurrency, but
    /// exact at quiescence — a parked epoch shows up as a growing `limbo`
    /// depth. The depths are counters kept by the FIFOs' owners and by the
    /// stacks' pushers and consumers, so sampling them walks no chain.
    pub fn health(&self, label: &'static str) -> ReclaimHealth {
        let live = self.live();
        let resident = self.resident();
        ReclaimHealth {
            label,
            limbo: self
                .pools
                .iter()
                .map(|(_, p)| p.fifo_len.load(Ordering::Relaxed))
                .sum(),
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
    pub fn domain(&self) -> &Domain {
        self.domain.as_deref().unwrap_or(Domain::global())
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
        // whoever owns them; the pools themselves go with `self.pools`.
        // The owning structure's own Drop has freed the nodes it still
        // held; every node here was retired, so none of those is here.
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
        unsafe { free_empty_chain(self, self.free.take_all()) };

        for (_, p) in self.pools.iter() {
            unsafe { free_garbage_chain(self, p.bag_head.get()) };
            unsafe { free_garbage_chain(self, p.fifo_head.get()) };
            unsafe { free_empty_chain(self, p.free.get()) };
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
    use std::sync::atomic::{AtomicBool, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    struct CountsDrops(Arc<StdAtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }

    #[test]
    fn retired_nodes_age_out_after_grace_period() {
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));

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
        let domain = Arc::new(Domain::new());
        let retirer = domain.register();
        let reader = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));

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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reader = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));

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

    #[test]
    fn depth_gauges_are_exact_at_quiescence() {
        // The limbo/pending/free-stock gauges are counters settled by each
        // consumer, not walks: check them exactly at every hand-off.
        const N: usize = 160;
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));
        let alloc = || reg.alloc(CountsDrops(Arc::clone(&drops)));
        let gauges = || {
            let h = reg.health("gauges");
            (h.limbo, h.pending, h.free_stock)
        };
        let nodes: Vec<_> = (0..N).map(|_| alloc()).collect();
        let g = handle.pin(); // nothing ages out while the batch retires
        for p in nodes {
            unsafe { reg.retire(p, &g) };
        }
        // Every full bag flushed into the FIFO, where the pin keeps it.
        assert_eq!(gauges(), (N, 0, 0));
        drop(g);
        // They age out: the sweeper's free list takes the first
        // LOCAL_FREE_CAP, the shared stock the rest.
        reg.flush();
        let stock = N - LOCAL_FREE_CAP;
        assert!(stock > LOCAL_FREE_CAP + 1);
        assert_eq!(gauges(), (0, 0, stock));
        // Empty the local free list; the next allocation refills it from
        // the stock, keeping one node plus LOCAL_FREE_CAP and re-attaching
        // the remainder.
        let again: Vec<_> = (0..=LOCAL_FREE_CAP).map(|_| alloc()).collect();
        assert_eq!(reg.allocated(), N, "served from the pools");
        assert_eq!(gauges(), (0, 0, stock - LOCAL_FREE_CAP - 1));
        for p in again {
            unsafe { reg.dealloc(p) };
        }
    }

    #[test]
    fn a_sweep_never_probes_garbage_that_has_not_expired() {
        // A pin held across three bags keeps every stamp within one advance
        // of the epoch, so nothing in the FIFO expires. The sweeps inside
        // `retire`, and one more after, must stop at the FIFO's first node:
        // no value is dropped until the pin goes.
        const N: usize = 3 * BAG_CAP;
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));
        let drops = Arc::new(StdAtomicUsize::new(0));
        let g = handle.pin();
        for _ in 0..N {
            let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
            unsafe { reg.retire(p, &g) };
        }
        reg.collect();
        assert_eq!(reg.live(), N, "nothing expires under the pin");
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            0,
            "a sweep dropped garbage that had not expired"
        );
        assert_eq!(reg.health("fifo").limbo, N);
        drop(g);
        reg.flush();
        assert_eq!(reg.live(), 0);
        assert_eq!(drops.load(StdOrdering::SeqCst), N);
        assert_eq!(reg.health("fifo").limbo, 0);
    }

    #[test]
    fn an_exited_threads_fifo_is_freed_by_another_threads_flush() {
        // A live thread's FIFO is its own, but an exited thread's is stolen,
        // as its bag is: another thread's flush frees all it retired.
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new_in(Arc::new(Domain::new())));
        // This thread takes its slot first, so it cannot be handed the
        // exiting thread's index and inherit the pool instead of a steal.
        drop(reg.domain().pin());
        {
            let reg = Arc::clone(&reg);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                // One pin across the retires: two bags flush into the FIFO
                // and nothing there expires before the thread exits.
                let g = reg.domain().pin();
                for _ in 0..2 * BAG_CAP + 1 {
                    let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                    unsafe { reg.retire(p, &g) };
                }
            })
            .join()
            .unwrap();
        }
        let h = reg.health("exited");
        assert_eq!((h.limbo, h.live), (2 * BAG_CAP, 2 * BAG_CAP + 1));
        assert_eq!(drops.load(StdOrdering::SeqCst), 0);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 2 * BAG_CAP + 1);
        assert_eq!(reg.live(), 0);
        assert_eq!(reg.health("exited").limbo, 0);
    }

    #[test]
    fn a_stolen_chain_older_than_the_fifo_it_joins_only_waits_longer() {
        // A steal appends an exited thread's FIFO behind the stealer's own,
        // whose front may be younger. The walk stops at the first node that
        // has not expired, so expired nodes behind it wait: they are freed
        // late, never early.
        let drops = Arc::new(StdAtomicUsize::new(0));
        let domain = Arc::new(Domain::new());
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new_in(Arc::clone(&domain)));
        drop(domain.pin()); // take this thread's slot first (see above)
        let e0 = domain.epoch();
        {
            let reg = Arc::clone(&reg);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                let g = reg.domain().pin();
                for _ in 0..BAG_CAP {
                    let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                    unsafe { reg.retire(p, &g) };
                }
            })
            .join()
            .unwrap();
        }
        // The exited thread's bag was stamped e0; its sweep advanced once.
        assert_eq!(domain.epoch(), e0 + 1);
        let handle = domain.register();
        let g = handle.pin();
        for _ in 0..BAG_CAP {
            let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
            unsafe { reg.retire(p, &g) };
        }
        // This thread's bag (stamp e0 + 1) went first, the stolen chain
        // (stamp e0) behind it.
        assert_eq!(reg.health("stolen").limbo, 2 * BAG_CAP);
        assert_eq!(domain.epoch(), e0 + 2);
        drop(g);
        let g = handle.pin();
        reg.collect();
        assert_eq!(domain.epoch(), e0 + 3, "the stolen chain has expired");
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            0,
            "the walk passed a node that had not expired"
        );
        drop(g);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 2 * BAG_CAP);
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn a_steal_frees_the_expired_front_of_every_stolen_fifo() {
        // Two threads exit with an aged FIFO and one node still bagged. A
        // steal flushes each bag with a fresh stamp at the end of its
        // FIFO; appended whole, the first such tail would hold back the
        // second thread's aged chain, so each steal frees its expired
        // front in place.
        let drops = Arc::new(StdAtomicUsize::new(0));
        let domain = Arc::new(Domain::new());
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new_in(Arc::clone(&domain)));
        drop(domain.pin()); // take this thread's slot first
                            // Both threads hold their slots at once, so their pools differ.
        let exit_together = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (reg, drops) = (Arc::clone(&reg), Arc::clone(&drops));
                let exit_together = Arc::clone(&exit_together);
                std::thread::spawn(move || {
                    let g = reg.domain().pin();
                    for _ in 0..BAG_CAP + 1 {
                        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
                        unsafe { reg.retire(p, &g) };
                    }
                    drop(g);
                    exit_together.wait();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.health("stolen").limbo, 2 * BAG_CAP);
        for _ in 0..GRACE_EPOCHS + 1 {
            domain.try_advance(); // every FIFO node has now expired
        }
        // A pin lets this sweep advance once: the bags it flushes at the
        // steals stay young.
        let handle = domain.register();
        let g = handle.pin();
        reg.collect();
        assert_eq!(drops.load(StdOrdering::SeqCst), 2 * BAG_CAP);
        assert_eq!(reg.health("stolen").limbo, 2, "only the two bags wait");
        drop(g);
        reg.flush();
        assert_eq!(reg.live(), 0);
    }

    #[test]
    fn a_retire_without_a_pool_lands_in_pending_and_leaves_it_on_the_next_sweep() {
        // A thread with no pool retires into the shared inbox: here a sweep
        // is still stealing the pool a past tenure left at the thread's slot
        // index (thread teardown is the other case). The next exclusive
        // sweep stamps the node onto its own FIFO, and it ages out there.
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));
        let pool = reg
            .pools
            .get(slots::current().expect("a live thread has a slot").index);
        pool.owner.store(STEALING, Ordering::SeqCst);
        let p = reg.alloc(CountsDrops(Arc::clone(&drops)));
        let g = handle.pin();
        unsafe { reg.retire(p, &g) };
        drop(g);
        let h = reg.health("inbox");
        assert_eq!((h.pending, h.limbo, h.live), (1, 0, 1));
        pool.owner.store(UNOWNED, Ordering::SeqCst); // the steal is over
        let g = handle.pin(); // keeps the drained node young
        reg.collect();
        let h = reg.health("inbox");
        assert_eq!(
            (h.pending, h.limbo, h.live),
            (0, 1, 1),
            "the sweep must drain the inbox into its own FIFO"
        );
        drop(g);
        reg.flush();
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
        assert_eq!(reg.live(), 0);
    }

    /// A payload whose `Drop` panics once armed: a node's `Drop` is the
    /// user code that sweeps and steals still run.
    struct PanicOnce {
        armed: Arc<AtomicBool>,
    }
    impl Drop for PanicOnce {
        fn drop(&mut self) {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("node drop panicked");
            }
        }
    }

    #[test]
    fn panicking_hook_neither_wedges_nor_leaks_the_sweeper() {
        // Regression: a node `Drop` that panics mid-sweep must clear
        // `sweeping`, settle the FIFO's length and keep the rest of the
        // FIFO — not disable the steals and the `pending` drain on the
        // registry forever, or lose the backlog.
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<PanicOnce> = Registry::new_in(Arc::clone(&domain));
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
        // Arm the middle of the FIFO, so the sweep drops one value, panics
        // on the second, and must keep the third.
        flags[1].store(true, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.collect()));
        assert!(result.is_err(), "the drop panic must propagate");
        assert_eq!(reg.sweeping.load(Ordering::SeqCst), 0, "`sweeping` stuck");
        let h = reg.health("panicky");
        assert_eq!((h.limbo, h.pending, h.live), (1, 0, 1));
        assert_eq!(
            reg.reclaimed(),
            2,
            "a value whose Drop panicked is destroyed all the same"
        );
        // Once the drops stop panicking, the rest still ages out, and the
        // panicked value's node went back into the pool with the others.
        reg.flush();
        assert_eq!(reg.live(), 0);
        assert_eq!(reg.health("panicky").limbo, 0);
        let again: Vec<_> = (0..3)
            .map(|_| {
                reg.alloc(PanicOnce {
                    armed: Arc::new(AtomicBool::new(false)),
                })
            })
            .collect();
        assert_eq!((reg.allocated(), reg.recycled()), (3, 3));
        for p in again {
            unsafe { reg.dealloc(p) };
        }
    }

    #[test]
    fn panicking_probe_during_steal_releases_the_pool_claim() {
        // Regression: stealing the pool of an ended tenure frees the expired
        // front of its FIFO, which runs user `Drop`s; a panic there must put
        // the ended tenure back, so a later sweep steals the rest. A pool
        // left marked as being stolen, or reset to unowned, would strand its
        // free stock until registry drop or the index's next tenure.
        let domain = Arc::new(Domain::new());
        let reg: Arc<Registry<PanicOnce>> = Arc::new(Registry::new_in(Arc::clone(&domain)));
        let armed = Arc::new(AtomicBool::new(false));
        // This thread takes its slot first, so it cannot be handed the
        // exiting thread's index and inherit the pool instead of a steal.
        drop(reg.domain().pin());
        // A thread exits, leaving its pool with one stamped node (P, armed
        // to panic when dropped) in its FIFO and one recycled slot (A) on
        // its free list.
        let (p_addr, a_addr) = {
            let reg = Arc::clone(&reg);
            let armed = Arc::clone(&armed);
            std::thread::spawn(move || {
                let p = reg.alloc(PanicOnce { armed });
                let g = reg.domain().pin();
                unsafe { reg.retire(p, &g) };
                reg.collect(); // P joins the FIFO; the pin keeps it young
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
        for _ in 0..GRACE_EPOCHS {
            domain.try_advance(); // P has now expired
        }
        armed.store(true, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.collect()));
        assert!(result.is_err(), "the armed drop must panic the steal");
        // The ended tenure is back: later sweeps re-steal the pool and
        // return P's and A's slots to the shared stock — so the next two
        // allocations are both served from recycled memory.
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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        {
            let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));
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
        // steals the chains of the pool whose tenure ended.
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Arc<Registry<CountsDrops>> = Arc::new(Registry::new_in(Arc::new(Domain::new())));
        {
            let reg = Arc::clone(&reg);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                let p = reg.alloc(CountsDrops(drops));
                let g = reg.domain().pin();
                unsafe { reg.retire(p, &g) };
            })
            .join()
            .unwrap();
        }
        assert_eq!(drops.load(StdOrdering::SeqCst), 0, "still bagged");
        reg.flush(); // main thread steals the exited thread's bag
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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let drops = Arc::new(StdAtomicUsize::new(0));
        let reg: Registry<CountsDrops> = Registry::new_in(Arc::clone(&domain));
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
