//! Shared storage of both tries and the `FindLatest`/`FirstActivated`
//! abstraction.
//!
//! §5 reuses §4's trie-update algorithms verbatim, "replaced with a different
//! implementation" of `FindLatest` and `FirstActivated` (paper §4.4.1). We
//! capture that reuse with [`LatestAccess`]: the relaxed trie resolves
//! `latest[x]` with a single read, the lock-free trie with the two-node
//! latest-list protocol of lines 116–127. Everything else — the `latest`
//! array, the `dNodePtr` array representing internal trie nodes, and the
//! update-node arena — lives in [`TrieCore`] and is shared.
//!
//! # Null `dNodePtr` slots
//!
//! The paper seeds every internal node's `dNodePtr` with the dummy DEL node
//! of its subtree's leftmost key. Here every slot starts null, and null
//! stands for that dummy. A slot's node is read for two things only, and
//! neither needs the dummy itself:
//!
//! * Its key, at L23 (`InterpretedBit`) and L40 (`InsertBinaryTrie`).
//!   [`TrieCore::dnode_key`] returns `leftmost_key(t)` for a null slot,
//!   which is the dummy's key.
//! * Its identity, at L42's `t.dNodePtr = uNode`. A null slot never equals
//!   `uNode`, while the seeded slot equals it exactly when `uNode` is the
//!   dummy. In that case the other disjunct, `h ≤ uNode.upper0Boundary`,
//!   holds anyway: a dummy's `upper0Boundary` is `b`, only a DEL node's own
//!   `DeleteBinaryTrie` raises it and no operation runs one for a dummy,
//!   and every internal height is at most `b`. So L42 decides the same.
//!
//! L63 and L67 may read null and pass it to [`TrieCore::dnode_cas`] as the
//! expected value, which succeeds exactly when the seeded slot would still
//! hold its dummy. All of this needs one invariant: no slot is ever CASed
//! back to null, just as no slot was ever CASed back to its dummy (only a
//! delete installs, and only its own DEL node). `dnode_cas` asserts it.
//!
//! Why null: a slot that held its dummy would hold a `dnode_refs` count on
//! it. The first insert of every key that leads a subtree would then
//! displace a dummy its slot still held, and the dummy would stay parked in
//! the registry until a delete in that subtree replaced the slot. A null
//! slot holds no node, so a displaced dummy is freed like any other node.
//!
//! # Null `latest[x]` heads
//!
//! The paper's initial configuration also points every `latest[x]` at a
//! dummy DEL node of `x` (§4.5.2). Here every head starts null, and null
//! stands for that dummy, which is only made by the first write that needs
//! it as an object.
//!
//! * Every write to a dummy comes after its materialization: the `target`
//!   an insert sets at L43 (which takes a `target_refs` count on it), the
//!   min-write of its `lower1Boundary` at L46, and the `stop` a delete
//!   sends through such a target. No operation runs `DeleteBinaryTrie` for
//!   a dummy, so nothing else writes one.
//! * So a dummy not yet installed keeps its initial fields: `upper0` is
//!   `b`, `lower1` is `b + 1`, it is active, and it is the first activated
//!   node of its list. A reader of a null head reads what the paper's
//!   reader of the dummy reads at that instant: `Search` and `Delete` see a
//!   DEL node (absent), `InterpretedBit` returns 0 (L25–26 with `h ≤ b`),
//!   and `FindLatest` returns null for it (`LatestAccess::find_latest`).
//! * The writes that need the dummy itself, `Insert(x)`'s `FindLatest` at
//!   L163 (L29 in the relaxed trie) and `InsertBinaryTrie`'s at L40, go
//!   through [`TrieCore::installed_head`]. It installs the dummy with one
//!   CAS from null, and a loser frees its never-published copy. L42's
//!   second disjunct holds for every dummy (`h ≤ b = upper0`), so an L40
//!   that meets one always goes on to write it at L43. Installing changes
//!   nothing a reader can see: the execution is one of the paper's in
//!   which the dummy existed from the start.
//! * An insert installs the dummy before its L165–L170 displace it, never
//!   displacing null directly. So every `latestNext` is a real node, and a
//!   null `latestNext` still means only "cut after activation".
//! * Dummies never enter an announcement list, a notify record or a
//!   `dNodePtr` slot, so no identity test meets one. No head is ever CASed
//!   back to null ([`TrieCore::cas_latest`] asserts it), so "null" always
//!   means "never written", and [`TrieCore`]'s `Drop` skips null heads.
//!
//! Why null: `new` allocates no update node, and a key that no update ever
//! touches keeps none. An odd key's dummy is never written, and an even key
//! `x`'s only once a present key lies in the subtree `x` leads,
//! `(x, x + 2^tz(x))`.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::registry::Registry;
use lftrie_primitives::steps;
use lftrie_telemetry::trace::{self, CasSite};

use crate::layout::{Layout, NodeIndex};
use crate::node::UpdateNode;

/// Resolution of per-key latest update nodes; implemented by both tries.
///
/// Implementations must guarantee the paper's Observations 4.7–4.9 /
/// Lemmas 5.4, 5.7, 5.8: a returned node was the first activated update node
/// of its key's latest list at some configuration during the call, and
/// `first_activated` answers for some configuration during the call.
pub(crate) trait LatestAccess {
    /// `FindLatest(x)`: the first activated update node in the `latest[x]`
    /// list, or null while `latest[x]` is null, which stands for `x`'s
    /// dummy (see the module docs). Readers read null as that dummy.
    fn find_latest(&self, key: i64) -> *mut UpdateNode;

    /// `FindLatest(x)` for a write that needs `x`'s dummy as an object
    /// (lines 29, 40 and 163): installs it first while `latest[x]` is null
    /// ([`TrieCore::installed_head`]), so the result is never null.
    fn find_latest_installed(&self, key: i64) -> *mut UpdateNode;

    /// `FirstActivated(uNode)`: is `uNode` the first activated update node in
    /// `latest[uNode.key]`?
    fn first_activated(&self, node: *mut UpdateNode) -> bool;
}

/// Storage shared by the relaxed and lock-free tries: `latest[·]`, the
/// internal nodes' `dNodePtr` fields, and the node arena.
pub(crate) struct TrieCore {
    layout: Layout,
    /// `latest[x]` for every (padded) key; initially null, which stands for
    /// the key's dummy DEL node until a write installs it (see the module
    /// docs).
    latest: Box<[AtomicPtr<UpdateNode>]>,
    /// `dNodePtr` of every internal node, indexed by [`NodeIndex`] `1..2^b`
    /// (slot 0 unused); initially null, which stands for the dummy of the
    /// subtree's leftmost key (see the module docs).
    dnode: Box<[AtomicPtr<UpdateNode>]>,
    /// Epoch-aware registry owning every update node, installed dummies
    /// included (see [`lftrie_primitives::registry`]): superseded nodes are
    /// retired through it and freed once unreferenced, so resident memory
    /// tracks the live set instead of the update history.
    nodes: Registry<UpdateNode>,
    /// Source of the never-reused [`UpdateNode::seq`] ids (0 is reserved
    /// as "no node" in notify records).
    next_seq: AtomicU64,
}

impl TrieCore {
    /// Builds the initial configuration: `S = ∅`, every `latest[x]` and
    /// every `dNodePtr` null, standing for the dummy DEL nodes of §4.5.2
    /// whose boundaries make all interpreted bits 0. Allocates no update
    /// node. The update nodes retire into `domain`, the owning trie's.
    pub(crate) fn new(universe: u64, domain: Arc<Domain>) -> Self {
        let layout = Layout::new(universe);
        let n = layout.num_leaves() as usize;
        Self {
            layout,
            latest: (0..n).map(|_| AtomicPtr::default()).collect(),
            dnode: (0..n).map(|_| AtomicPtr::default()).collect(),
            nodes: Registry::new_in(domain),
            next_seq: AtomicU64::new(1),
        }
    }

    /// The owning trie's epoch domain.
    #[inline]
    pub(crate) fn domain(&self) -> &Domain {
        self.nodes.domain()
    }

    /// The trie geometry.
    #[inline]
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// `b = ⌈log₂ u⌉`.
    #[inline]
    pub(crate) fn b(&self) -> u32 {
        self.layout.bits()
    }

    /// Reads the head of the `latest[key]` list; null until the first
    /// install, standing for the key's dummy.
    #[inline]
    pub(crate) fn latest_head(&self, key: i64) -> *mut UpdateNode {
        steps::on_read();
        self.latest[key as usize].load(Ordering::SeqCst)
    }

    /// Reads the head of the `latest[key]` list for a write that needs the
    /// key's dummy as an object. While the head is null, first installs the
    /// dummy with one CAS from null; a lost CAS frees the never-published
    /// dummy and re-reads the head, which no CAS returns to null. Never
    /// returns null.
    #[inline]
    pub(crate) fn installed_head(&self, key: i64) -> *mut UpdateNode {
        let head = self.latest_head(key);
        if !head.is_null() {
            return head;
        }
        let dummy = self.alloc_node(UpdateNode::new_dummy(key, self.b()));
        if self.cas_latest(key, head, dummy) {
            return dummy;
        }
        // Safety: the CAS failed, so the dummy was never published.
        unsafe { self.dealloc_node(dummy) };
        self.latest_head(key)
    }

    /// CAS on `latest[key]` (lines 35/54/170/192, and the dummy installs of
    /// [`TrieCore::installed_head`]). `new` is never null, so a head never
    /// returns to null.
    #[inline]
    pub(crate) fn cas_latest(
        &self,
        key: i64,
        current: *mut UpdateNode,
        new: *mut UpdateNode,
    ) -> bool {
        debug_assert!(!new.is_null(), "a latest[x] head never returns to null");
        steps::on_cas();
        let ok = self.latest[key as usize]
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        trace::cas(CasSite::Latest, ok);
        ok
    }

    /// Reads `t.dNodePtr` of internal node `t`; null until the first
    /// install, standing for the dummy of `t`'s leftmost key.
    #[inline]
    pub(crate) fn dnode_load(&self, t: NodeIndex) -> *mut UpdateNode {
        debug_assert!(!self.layout.is_leaf(t));
        steps::on_read();
        self.dnode[t as usize].load(Ordering::SeqCst)
    }

    /// `t.dNodePtr.key` of internal node `t` (lines 23 and 40): the
    /// leftmost key of `t`'s subtree while the slot is null.
    #[inline]
    pub(crate) fn dnode_key(&self, t: NodeIndex) -> i64 {
        let d = self.dnode_load(t);
        if d.is_null() {
            self.layout.leftmost_key(t) as i64
        } else {
            // Safety: a DEL node stays allocated while a slot holds it
            // (`dnode_refs`), and the caller's guard covers its displacement.
            unsafe { (*d).key() }
        }
    }

    /// CAS on `t.dNodePtr` (lines 66/70).
    ///
    /// Maintains [`UpdateNode::dnode_refs`] so reclamation can tell when a
    /// node has left every `dNodePtr` slot: the incoming node's count is
    /// raised *before* the CAS (the count over-approximates occupancy, never
    /// under-approximates it) and rolled back on failure; the displaced
    /// node's count drops after a success. `current` may be null (the slot's
    /// initial dummy, which holds no count); `new` never is, so a slot never
    /// returns to null.
    #[inline]
    pub(crate) fn dnode_cas(
        &self,
        t: NodeIndex,
        current: *mut UpdateNode,
        new: *mut UpdateNode,
    ) -> bool {
        debug_assert!(!self.layout.is_leaf(t));
        debug_assert!(!new.is_null(), "a dNodePtr slot never returns to null");
        steps::on_cas();
        // Safety: `new` is the caller's own live node; `current` was read
        // from the slot under the caller's guard.
        unsafe { (*new).dnode_refs.fetch_add(1, Ordering::SeqCst) };
        let ok = self.dnode[t as usize]
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        trace::cas(CasSite::Dnode, ok);
        if ok {
            if !current.is_null() && current != new {
                unsafe { (*current).dnode_refs.fetch_sub(1, Ordering::SeqCst) };
            } else if current == new {
                // Re-installing the same node: occupancy is unchanged.
                unsafe { (*new).dnode_refs.fetch_sub(1, Ordering::SeqCst) };
            }
            true
        } else {
            unsafe { (*new).dnode_refs.fetch_sub(1, Ordering::SeqCst) };
            false
        }
    }

    /// Allocates an update node in the arena, stamping its unique id.
    #[inline]
    pub(crate) fn alloc_node(&self, node: UpdateNode) -> *mut UpdateNode {
        let ptr = self.nodes.alloc(node);
        // Safety: not yet published; single-owner write before publication.
        unsafe { (*ptr).seq = self.next_seq.fetch_add(1, Ordering::Relaxed) };
        ptr
    }

    /// Retires an update node once it can no longer be reached by threads
    /// pinning from now on (superseded in its latest list, or never
    /// published). Freed after the epoch grace period, once its
    /// `completed`/`dNodePtr`/`target` gates open.
    ///
    /// # Safety
    ///
    /// As for [`Registry::retire`]; additionally the node must be off its
    /// `latest[x]` list (the superseding node's `latestNext` already
    /// cleared) or never published at all.
    pub(crate) unsafe fn retire_node(&self, node: *mut UpdateNode, guard: &Guard<'_>) {
        unsafe { self.nodes.retire(node, guard) };
    }

    /// Frees a node that lost its publication CAS: it was never linked
    /// anywhere, so no grace period (or `completed` gate) applies.
    ///
    /// # Safety
    ///
    /// The node was allocated by [`TrieCore::alloc_node`], never published
    /// (its `latest[x]` CAS failed before any announce/install), and is
    /// dropped by its creating operation only.
    pub(crate) unsafe fn dealloc_node(&self, node: *mut UpdateNode) {
        unsafe { self.nodes.dealloc(node) };
    }

    /// Number of update nodes ever created (installed dummies included;
    /// `new` creates none) — the E6 "GC model" space metric. With
    /// allocation pooling this counts *logical* allocations; most are
    /// served from recycled slots (see [`TrieCore::node_alloc_stats`]).
    pub(crate) fn allocated_nodes(&self) -> usize {
        self.nodes.created()
    }

    /// Full allocation statistics of the update-node registry: fresh heap
    /// boxes vs pool hits vs resident memory. The warm-churn plateau test
    /// reads these.
    pub(crate) fn node_alloc_stats(&self) -> lftrie_primitives::registry::AllocStats {
        self.nodes.stats()
    }

    /// Point-in-time reclamation health of the update-node registry, for
    /// the unified telemetry snapshot.
    pub(crate) fn node_health(&self, label: &'static str) -> lftrie_telemetry::ReclaimHealth {
        self.nodes.health(label)
    }

    /// Update nodes currently resident: `allocated − reclaimed`. The
    /// steady-state footprint the memory-bound suite asserts on.
    pub(crate) fn live_nodes(&self) -> usize {
        self.nodes.live()
    }

    /// Update nodes freed by reclamation so far.
    pub(crate) fn reclaimed_nodes(&self) -> usize {
        self.nodes.reclaimed()
    }

    /// Runs quiescent reclamation sweeps (tests/diagnostics).
    pub(crate) fn flush_reclamation(&self) {
        self.nodes.flush();
    }
}

impl Drop for TrieCore {
    fn drop(&mut self) {
        // Free the nodes still reachable from the latest lists: per key the
        // head, plus an uncleared `latestNext` (the ≤ 2-node invariant of
        // §5; the relaxed trie keeps exactly head + one-back alive).
        // A non-null `dNodePtr` slot holds either one of those or a node
        // already retired (dnode_refs parked it in the registry, whose own
        // Drop frees it), so this walk frees each resident node exactly once.
        for slot in self.latest.iter() {
            let head = slot.load(Ordering::Relaxed);
            if head.is_null() {
                continue;
            }
            let next = unsafe { (*head).latest_next() };
            if !next.is_null() {
                unsafe { self.nodes.dealloc(next) };
            }
            unsafe { self.nodes.dealloc(head) };
        }
    }
}

impl core::fmt::Debug for TrieCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TrieCore")
            .field("b", &self.b())
            .field("num_leaves", &self.layout.num_leaves())
            .field("allocated_nodes", &self.allocated_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Kind, Status};

    #[test]
    fn initial_configuration_allocates_no_update_node() {
        // Every head starts null, standing for the key's dummy; the first
        // write that needs the dummy installs it, with the dummy's fields.
        let core = TrieCore::new(8, Arc::default());
        for x in 0..8i64 {
            assert!(core.latest_head(x).is_null(), "latest[{x}] starts null");
        }
        assert_eq!(core.allocated_nodes(), 0);
        let head = core.installed_head(3);
        let node = unsafe { &*head };
        assert_eq!(node.kind(), Kind::Del);
        assert_eq!(node.status(), Status::Active);
        assert_eq!(node.key(), 3);
        assert!(node.latest_next().is_null());
        assert_eq!((node.upper0(), node.lower1()), (core.b(), core.b() + 1));
        assert_eq!(core.latest_head(3), head);
        assert_eq!(core.installed_head(3), head, "an installed head is kept");
        assert_eq!(core.allocated_nodes(), 1);
        assert!(core.latest_head(2).is_null() && core.latest_head(4).is_null());
    }

    #[test]
    fn dnode_slots_start_null_and_read_the_leftmost_key() {
        // Every slot starts null, which stands for the dummy of the
        // subtree's leftmost key: L23 and L40 read that key through it.
        let core = TrieCore::new(8, Arc::default());
        let layout = *core.layout();
        for t in 1..layout.num_leaves() {
            assert!(core.dnode_load(t).is_null(), "slot {t} starts null");
            assert_eq!(core.dnode_key(t) as u64, layout.leftmost_key(t));
        }
        // No installed dummy holds a slot, so each is free to go once
        // superseded.
        for x in 0..8i64 {
            let dummy = unsafe { &*core.installed_head(x) };
            assert_eq!(dummy.dnode_refs.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn recycled_update_nodes_are_restamped_with_fresh_seq() {
        // The never-reused-id invariant of NotifyRecord must survive
        // allocation pooling: a recycled UpdateNode slot aliases a dead
        // node's *address*, so identity tests (paper lines 222/225/227/239)
        // go through `seq` — which `alloc_node` must restamp on every
        // (re)allocation, recycled or fresh.
        let core = TrieCore::new(4, Arc::default());
        let old = core.alloc_node(UpdateNode::new_ins(
            2,
            Status::Active,
            core::ptr::null_mut(),
            core.b(),
        ));
        let old_seq = unsafe { (*old).seq };
        assert!(old_seq > 0);
        unsafe { (*old).set_completed() }; // open the reclamation gate
        {
            let guard = core.domain().pin();
            unsafe { core.retire_node(old, &guard) };
        }
        // Nothing else pins the core's own domain: one flush ages the node
        // out, and the next allocation takes its slot from the pool.
        core.flush_reclamation();
        let p = core.alloc_node(UpdateNode::new_ins(
            2,
            Status::Active,
            core::ptr::null_mut(),
            core.b(),
        ));
        assert_eq!(p, old, "one flush recycles the retired node's slot");
        let new_seq = unsafe { (*p).seq };
        assert_ne!(new_seq, old_seq, "a recycled node must carry a fresh id");
        assert!(new_seq > old_seq, "seq ids are monotone, never reused");
        let stats = core.node_alloc_stats();
        assert!(stats.recycled >= 1, "the reuse must come from the pool");
        unsafe { core.dealloc_node(p) };
    }

    #[test]
    fn cas_latest_swaps_exactly_once() {
        let core = TrieCore::new(4, Arc::default());
        let old = core.latest_head(2);
        let fresh = core.alloc_node(UpdateNode::new_ins(2, Status::Active, old, core.b()));
        assert!(core.cas_latest(2, old, fresh));
        assert!(!core.cas_latest(2, old, fresh), "stale expected must fail");
        assert_eq!(core.latest_head(2), fresh);
    }
}
