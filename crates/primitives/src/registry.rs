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
//! * Each thread owns a **local pool** in each registry — a retire bag
//!   plus a free list of recycled nodes — found by the thread's slot index
//!   (see [`crate::slots`]). [`Registry::alloc`] pops the free
//!   list (refilling from a shared stock in batches) before it ever touches
//!   the heap, so warm steady-state churn performs **zero** heap
//!   allocations per operation. `tests/alloc_plateau.rs` asserts exactly
//!   this via the [`Registry::allocated`] (fresh heap boxes) vs
//!   [`Registry::recycled`] (pool hits) counters.
//! * Retire bags flush in batches — on overflow (`BAG_CAP`) and at the
//!   start of every sweep — into the thread's own FIFO of stamped
//!   garbage, so a retire touches no shared line at all.
//! * A pool records the slot *tenure* that claimed it. The next tenure of
//!   the index claims it by CAS and inherits its chains, and a sweep
//!   *steals* the chains of a pool whose tenure has ended, so an exited
//!   thread's garbage keeps aging without it. A steal that a panicking
//!   gate probe interrupts puts the ended tenure back, so a later sweep
//!   steals the rest.
//! * A node is freed (recycled) only after three global-epoch advances
//!   past its stamp (see [`crate::epoch`]) and once its type's
//!   [`Reclaim::ready_to_reclaim`] gate opens, with [`Reclaim::on_reclaim`]
//!   running right before the value is dropped.
//!
//! # Bag flushing and the grace-period stamp
//!
//! A stamp is written only where a gate probe has just found the gate
//! open: at a bag flush, and when a `pending` re-probe restamps (below).
//! Retiring writes none. A node can sit in a bag for many epochs while its
//! gate is closed (a DEL parked in a `dNodePtr` slot); when the gate
//! finally opens, a reader pinned at the *current* epoch may have captured
//! the pointer just before the gate-opening store. A retire-time stamp
//! would let its grace period elapse under that reader's pin. The flush
//! therefore stamps with a **fresh epoch read taken after the readiness
//! probe**: the capture happened before the gate-opening store the probe
//! observed, so the reader's pin precedes the read, the stamp is at least
//! the reader's pin epoch, and the reader blocks the advance to
//! `stamp + GRACE` until it unpins.
//! `bag_flush_stamps_after_gate_probe` is the regression test.
//!
//! # Re-probing gated garbage
//!
//! A retired node whose [`Reclaim::ready_to_reclaim`] gate is closed parks
//! in the shared `pending` stack until a probe finds the gate open. It is
//! then restamped with a fresh epoch read, by the argument above, and
//! appended to the sweeper's own FIFO. How many park there is set by the
//! owner's long-lived references, not by the garbage: the trie parks the
//! DEL nodes that deletes installed in its `dNodePtr` slots, up to
//! `2^b − 1` of them, and those that inserts target. (A slot no delete has
//! touched is null and holds no node. So is a latest-list head no update
//! has touched: a key's dummy is made only when an insert needs it, and
//! once displaced it parks only while an insert targets it.) Re-probing them all on every sweep would
//! cost Θ(parked) per sweep however little was retired, so a sweep re-probes
//! `pending` only once the nodes retired into the registry since the last
//! re-probe reach half of its depth; [`Registry::flush`] re-probes on every
//! sweep. Each re-probe of `P` nodes is then paid for by at least `P/2`
//! retirements, so a retired node costs at most two extra probes, whatever
//! the number of parked nodes.
//!
//! The price is latency: a node whose gate opens waits in `pending` until
//! the next re-probe. Between re-probes `pending` grows by retirements,
//! which also count toward the trigger (and by the rare FIFO node whose
//! gate closed again, and by retires of a thread with no pool), so it
//! holds at most about twice the gated nodes the last re-probe found. The
//! registry still owns every parked node, so teardown and pool stealing
//! free them as before, and every node is probed again before it leaves
//! `pending` or a FIFO.
//!
//! # The per-thread FIFO
//!
//! Each pool keeps its stamped, gate-open garbage in a FIFO that only the
//! pool's owner touches, like its bag and free list. Flushes append at the
//! tail with fresh stamps, so a thread's own FIFO is in stamp order. A
//! sweep first advances the epoch, then pops from the front while
//! `stamp + GRACE_EPOCHS ≤ epoch`, re-probes each popped node's gate,
//! recycles the open ones into its own free list and sends the closed ones
//! to `pending`. It never walks or re-probes a node that has not expired,
//! and it writes no shared line per node. The invariants:
//!
//! * No node is freed before `stamp + GRACE_EPOCHS ≤ epoch` and a fresh
//!   gate probe. A stamp is a fresh epoch read, taken after the probe that
//!   found the gate open.
//! * The walk stops at the first node that has not expired. A chain
//!   appended out of stamp order, such as a stolen FIFO, only waits
//!   longer.
//! * A gate probe that panics leaves its node in place, at the FIFO's
//!   front or on the chain it came from, and `sweeping` still clears.
//! * Only the `pending` re-probe and the steals need `sweeping`. A
//!   thread's own FIFO needs no exclusivity, so a sweep whose `sweeping`
//!   claim fails still flushes, advances and expires its own garbage; it
//!   skips only the shared work. (Skipping the whole sweep instead, as the
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

/// Reclamation protocol for nodes retired through a [`Registry`].
///
/// The default implementation suits nodes that are unreachable as soon as
/// they are unlinked (list cells, baseline nodes). Types with long-lived
/// shared references override both hooks; the registry re-checks
/// `ready_to_reclaim` immediately before every free, so a reference acquired
/// while the node aged in its FIFO (e.g. a late `target` edge) reliably
/// defers it again.
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
    /// exclusively right now: a local free list, retire bag or FIFO (owner
    /// thread), a shared stack segment (the pushing thread until the CAS
    /// lands, then the draining sweeper).
    next: Cell<*mut PoolNode<T>>,
    /// Grace-period stamp; freed once `global ≥ epoch + GRACE`. Written
    /// only when a gate probe has just found the gate open: at a bag flush
    /// and at a `pending` restamp (see the module docs).
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
    /// Retired nodes awaiting a batch flush (values alive; FIFO so flush
    /// probes oldest-first).
    bag_head: Cell<*mut PoolNode<T>>,
    bag_tail: Cell<*mut PoolNode<T>>,
    bag_len: Cell<usize>,
    /// Stamped, gate-open garbage awaiting its grace period: appended at
    /// the tail, expired from the front (module docs).
    fifo_head: Cell<*mut PoolNode<T>>,
    fifo_tail: Cell<*mut PoolNode<T>>,
    /// The FIFO's length, this pool's share of the `limbo` gauge. Only the
    /// cells' owner writes it; `health` reads it from any thread.
    fifo_len: AtomicUsize,
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
        self.fifo_len
            .store(self.fifo_len.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

thread_local! {
    /// Sweeps this thread has run while recording, for `SWEEP_SAMPLE`.
    static SWEEPS_RUN: Cell<u64> = const { Cell::new(0) };
}

/// Stores a value into an atomic word on every exit path. Sweeps and pool
/// steals run user code ([`Reclaim`] hooks, node `Drop`s); without this
/// guard a single panic in one of them would leave `sweeping` stuck —
/// silently disabling reclamation on the registry forever — or leave a
/// stolen pool marked [`STEALING`], its chains stranded until registry drop.
struct StoreOnDrop<'a>(&'a AtomicU64, u64);

impl Drop for StoreOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(self.1, Ordering::SeqCst);
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

/// A sweep's pass over the expired front of its own FIFO. The gate probe
/// is user code, so the node stays the FIFO's head until it returns: a
/// panicking probe leaves it in place, and every node popped was probed.
/// On every exit path the drop settles the FIFO's length and records the
/// pass's probes and reclaims, once per pass rather than once per node.
struct Expiry<'a, T> {
    reg: &'a Registry<T>,
    pool: &'a LocalPool<T>,
    popped: usize,
    reclaimed: usize,
}

impl<T> Drop for Expiry<'_, T> {
    fn drop(&mut self) {
        let len = &self.pool.fifo_len;
        len.store(len.load(Ordering::Relaxed) - self.popped, Ordering::Relaxed);
        if self.reclaimed > 0 {
            let reclaimed = &self.reg.counters.reclaimed;
            reclaimed.fetch_add(self.reclaimed, Ordering::Relaxed);
        }
        telemetry::add(Counter::GateProbes, self.popped as u64);
    }
}

/// Scope guard for bag flushes: the readiness probes are user code, so a
/// panic mid-flush must not leak the unexamined remainder or the
/// partially-built batches. Everything lands in `pending` on unwind — the
/// always-safe destination, since its re-probe restamps.
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
    /// The epoch domain this registry retires into: its owning structure's,
    /// shared by all of that structure's registries, or (`None`) the global
    /// one.
    domain: Option<Arc<Domain>>,
    counters: CachePadded<Counters>,
    /// Retired garbage whose `ready_to_reclaim` gate was closed when last
    /// probed, or retired with no pool; re-probed once enough retirements
    /// pay for it (module docs).
    pending: GarbageStack<T>,
    /// Shared stock of recycled nodes (values dropped), refilled by sweeps
    /// and drained in batches into local free lists. Its depth gauge
    /// enforces [`SHARED_FREE_CAP`].
    free: GarbageStack<T>,
    /// One pool per slot index (see [`crate::slots`]).
    pools: SlotVec<CachePadded<LocalPool<T>>>,
    /// Nodes retired into this registry since `pending` was last
    /// re-probed: each bag flush adds its batch, each retire with no pool
    /// adds one. A sweep re-probes `pending` once this reaches half of its
    /// depth.
    retired_since_reprobe: AtomicUsize,
    /// 1 while a sweep steals pools and re-probes `pending`; concurrent
    /// sweeps skip that part (module docs).
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
            counters: CachePadded::new(Counters {
                fresh: AtomicUsize::new(0),
                recycled: AtomicUsize::new(0),
                reclaimed: AtomicUsize::new(0),
                freed: AtomicUsize::new(0),
            }),
            pending: GarbageStack::new(),
            free: GarbageStack::new(),
            pools: SlotVec::new(),
            retired_since_reprobe: AtomicUsize::new(0),
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
        if let Some(pool) = self.pool(true) {
            // Safety: the pool is claimed by this thread.
            let node = unsafe { self.pop_free(pool) };
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
    /// thread's FIFO in batches (on overflow and at sweeps).
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
            core::ptr::eq(guard.domain(), self.domain()),
            "guard pins a different epoch domain than the registry's"
        );
        let node = PoolNode::from_value(ptr);
        unsafe { (*node).next.set(core::ptr::null_mut()) };
        if let Some(pool) = self.pool(true) {
            let tail = pool.bag_tail.get();
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
            // past tenure left): park in `pending`, whose re-probe stamps
            // the node onto a sweeper's FIFO (still no allocation — the
            // header is intrusive either way).
            self.pending.push(node);
            self.retired_since_reprobe.fetch_add(1, Ordering::Relaxed);
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
        unsafe { self.recycle_node(node, self.pool(false)) };
    }

    // ------------------------------------------------------------------
    // Sweeping
    // ------------------------------------------------------------------

    /// Flushes `pool`'s retire bag, splitting by the readiness gate:
    /// gate-open nodes join the tail of `pool`'s FIFO, stamped with a
    /// **fresh epoch read taken after the probes** (module docs: a
    /// reader pinned since the retirement may have captured the pointer
    /// just before its gate opened); closed ones park in `pending`.
    ///
    /// # Safety expectations
    ///
    /// The caller owns `pool`'s `Cell`s. Panic-safe: a panicking probe
    /// sends every unprocessed node to `pending`, whose re-probe restamps.
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
        let stamp = self.domain().epoch();
        let ready = flush.ready.replace(core::ptr::null_mut());
        let (mut batch, mut tail, mut cur) = (0usize, ready, ready);
        while !cur.is_null() {
            unsafe { (*cur).epoch.set(stamp) };
            tail = cur;
            cur = unsafe { (*cur).next.get() };
            batch += 1;
        }
        if batch > 0 {
            // Safety: the caller owns the pool; the batch left the bag.
            unsafe { pool.append(ready, tail, batch) };
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
        telemetry::event(Counter::BagFlushes, FlightKind::Retire, -1, batch as u64);
    }

    /// Steals the chains of pools whose tenure has ended, so their
    /// garbage keeps aging and their free stock returns to circulation:
    /// each one's bag is flushed, the expired front of its FIFO freed
    /// against `global`, and the rest appended to `own`'s FIFO.
    fn steal_ended_pools(&self, own: &LocalPool<T>, global: u64)
    where
        T: Reclaim,
    {
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
            // A gate probe that panics mid-steal leaves the ended tenure in
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

    /// Pops the expired front of `pool`'s FIFO: each node whose stamp is
    /// at least `GRACE_EPOCHS` behind `global` is re-probed, then recycled
    /// into `pool`'s free list if its gate is open, or parked in `pending`
    /// if it closed again. Stops at the first node that has not expired.
    ///
    /// # Safety expectations
    ///
    /// The caller owns `pool`'s `Cell`s, so every FIFO node is its alone.
    /// Panic-safe: a panicking probe leaves its node at the front.
    fn expire(&self, pool: &LocalPool<T>, global: u64)
    where
        T: Reclaim,
    {
        let mut pass = Expiry {
            reg: self,
            pool,
            popped: 0,
            reclaimed: 0,
        };
        loop {
            let cur = pool.fifo_head.get();
            // `global` is a snapshot from before the pass, so this only
            // under-approximates eligibility — safe.
            if cur.is_null() || unsafe { (*cur).epoch.get() } + GRACE_EPOCHS > global {
                break;
            }
            // The readiness re-check matters: a thread pinned since before
            // the retirement may have taken a new long-lived reference
            // (e.g. a `target` edge) while the node aged.
            let ready = unsafe { (*PoolNode::value_ptr(cur)).ready_to_reclaim() };
            let next = unsafe { (*cur).next.replace(core::ptr::null_mut()) };
            pool.fifo_head.set(next);
            if next.is_null() {
                pool.fifo_tail.set(core::ptr::null_mut());
            }
            pass.popped += 1;
            if ready {
                let vp = PoolNode::value_ptr(cur);
                unsafe { (*vp).on_reclaim() };
                unsafe { core::ptr::drop_in_place(vp) };
                pass.reclaimed += 1;
                // The emptied slot goes back into circulation instead of
                // to the allocator — the whole point of the pools.
                unsafe { self.recycle_node(cur, Some(pool)) };
            } else {
                self.pending.push(cur);
            }
        }
    }

    /// One garbage sweep: flushes the caller's retire bag, steals the pools
    /// of ended tenures, tries to advance the epoch, re-examines deferred
    /// nodes once the retirements since their last re-probe reach half
    /// their number (module docs), and recycles the caller's FIFO garbage
    /// whose grace period elapsed and whose readiness gate is (still)
    /// open. Lock-free; a concurrent caller skips the steals and the
    /// re-probe.
    pub fn collect(&self)
    where
        T: Reclaim,
    {
        self.sweep(false);
    }

    /// Runs enough quiescent sweeps to age out everything retired so far
    /// (assuming no concurrent pins) that the calling thread can reach:
    /// its own garbage, `pending`, and the garbage of exited threads, but
    /// not another live thread's bag or FIFO (module docs). Each of them
    /// re-probes every deferred node, so a gate that opened is seen
    /// without waiting for retirements to pay for the re-probe. Tests and
    /// teardown paths use this to observe the steady-state footprint.
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
        // The sweep frees and restamps into the caller's own pool; a thread
        // whose slot is gone (thread exit) leaves sweeping to others.
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
        // sweep already ages them. Only the steals and the `pending`
        // re-probe need `sweeping`; everything below runs user code
        // (`Reclaim` hooks, node `Drop`s), so its guard clears it on every
        // exit path, panics included.
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
        // Ended tenures' garbage joins this sweeper's FIFO, after the
        // advance so that what has already expired is freed on the way.
        if exclusive {
            self.steal_ended_pools(own, global);
        }
        // Deferred nodes whose gate opened join the sweeper's FIFO. Their
        // number is set by the gates (≤ one DEL per occupied dNodePtr
        // slot, live `target` edges, in-flight operations), not by the
        // garbage, so they are re-probed only once the retirements since
        // the last re-probe reach half of them: each re-probe is paid for
        // by the retirements, at most two probes each (module docs). Only
        // the sweeper subtracts, and only what it read, so the count never
        // underflows.
        let retired = self.retired_since_reprobe.load(Ordering::Relaxed);
        if exclusive && (reprobe_all || 2 * retired >= self.pending.depth()) {
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
                    unsafe { (*cur).epoch.set(self.domain().epoch()) };
                    // Safety: `own` is the sweeper's; `cur` left `pending`.
                    unsafe { own.append(cur, cur, 1) };
                } else {
                    self.pending.push(cur);
                }
            }
        }
        self.expire(own, global);
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
    /// snapshot: garbage depths (limbo = gate-open garbage aging out its
    /// grace period in the pools' FIFOs, pending = garbage retired with a
    /// closed gate, or opened since the last re-probe), pool occupancy, and
    /// the lifetime allocation counters. `label` names the registry in
    /// reports (e.g. `"preds"`).
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
    impl Reclaim for CountsDrops {}
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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(Arc::clone(&domain));
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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(Arc::clone(&domain));
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
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<CountedGate> = Registry::new_in(Arc::clone(&domain));
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
    fn a_sweep_never_probes_garbage_that_has_not_expired() {
        // A pin held across three bags keeps every stamp within one advance
        // of the epoch, so nothing in the FIFO expires. The sweeps inside
        // `retire`, and one more after, must stop at the FIFO's first node:
        // no node freed, and no probe beyond each node's flush probe.
        const N: usize = 3 * BAG_CAP;
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<CountedGate> = Registry::new_in(Arc::clone(&domain));
        let open = Arc::new(AtomicBool::new(true));
        let probes = Arc::new(StdAtomicUsize::new(0));
        let g = handle.pin();
        for _ in 0..N {
            let p = reg.alloc(CountedGate {
                open: Arc::clone(&open),
                probes: Arc::clone(&probes),
            });
            unsafe { reg.retire(p, &g) };
        }
        reg.collect();
        assert_eq!(reg.live(), N, "nothing expires under the pin");
        assert_eq!(
            probes.load(StdOrdering::SeqCst),
            N,
            "a sweep probed garbage that had not expired"
        );
        assert_eq!(reg.health("fifo").limbo, N);
        drop(g);
        reg.flush();
        assert_eq!(reg.live(), 0);
        assert_eq!(
            probes.load(StdOrdering::SeqCst),
            2 * N,
            "one flush probe and one expiry probe per node"
        );
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
    fn bag_flush_stamps_after_gate_probe() {
        // Regression for the bag flavour of the restamp-soundness bug: a
        // gated node can sit in a retire bag for many epochs; when the gate
        // finally opens, a reader pinned at the *current* epoch may have
        // captured the pointer just before the gate-opening store. A flush
        // that forwarded the retire-time stamp would free the node under
        // that reader (its pin does not block `retire_stamp + GRACE`); the
        // flush must stamp with a fresh read taken after the probe.
        let domain = Arc::new(Domain::new());
        let handle = domain.register();
        let reg: Registry<Gated> = Registry::new_in(Arc::clone(&domain));
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
                // The guard co-owns the participant entry, so it keeps the
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
        // The hook keeps a `'static` guard, so this domain is leaked.
        let shared: &'static Arc<Domain> = Box::leak(Box::new(Arc::new(Domain::new())));
        let domain: &'static Domain = shared;
        let handle = domain.register();
        let reg: Registry<CapturingGate> = Registry::new_in(Arc::clone(shared));
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
        // Regression: stealing the pool of an ended tenure probes user
        // gates inside the bag flush; a panic there must put the ended
        // tenure back, so a later sweep steals the rest. A pool left marked
        // as being stolen, or reset to unowned, would strand its free stock
        // until registry drop or the index's next tenure.
        let reg: Arc<Registry<PanicOnce>> = Arc::new(Registry::new_in(Arc::new(Domain::new())));
        let armed = Arc::new(AtomicBool::new(false));
        // This thread takes its slot first, so it cannot be handed the
        // exiting thread's index and inherit the pool instead of a steal.
        drop(reg.domain().pin());
        // A thread exits, leaving its pool with one bagged node (P, armed
        // to panic) and one recycled slot (A) on its free list.
        let (p_addr, a_addr) = {
            let reg = Arc::clone(&reg);
            let armed = Arc::clone(&armed);
            std::thread::spawn(move || {
                let p = reg.alloc(PanicOnce { armed });
                let g = reg.domain().pin();
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
        // The ended tenure is back: later sweeps re-steal the pool, age P out, and
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
