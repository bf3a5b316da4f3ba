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
    /// list.
    fn find_latest(&self, key: i64) -> *mut UpdateNode;

    /// `FirstActivated(uNode)`: is `uNode` the first activated update node in
    /// `latest[uNode.key]`?
    fn first_activated(&self, node: *mut UpdateNode) -> bool;
}

/// Storage shared by the relaxed and lock-free tries: `latest[·]`, the
/// internal nodes' `dNodePtr` fields, and the node arena.
pub(crate) struct TrieCore {
    layout: Layout,
    /// `latest[x]` for every (padded) key; initially the key's dummy DEL node.
    latest: Box<[AtomicPtr<UpdateNode>]>,
    /// `dNodePtr` of every internal node, indexed by [`NodeIndex`] `1..2^b`
    /// (slot 0 unused); initially the dummy of the subtree's leftmost key.
    dnode: Box<[AtomicPtr<UpdateNode>]>,
    /// Epoch-aware registry owning every update node, dummies included
    /// (see [`lftrie_primitives::registry`]): superseded nodes are retired
    /// through it and freed once unreferenced, so resident memory tracks
    /// the live set instead of the update history.
    nodes: Registry<UpdateNode>,
    /// Source of the never-reused [`UpdateNode::seq`] ids (0 is reserved
    /// as "no node" in notify records).
    next_seq: AtomicU64,
}

impl TrieCore {
    /// Builds the initial configuration: `S = ∅`, every `latest[x]` a dummy
    /// DEL node whose boundaries make all interpreted bits 0 (§4.5.2).
    /// The update nodes retire into `domain`, the owning trie's.
    pub(crate) fn new(universe: u64, domain: Arc<Domain>) -> Self {
        let layout = Layout::new(universe);
        let n = layout.num_leaves() as usize;
        let nodes = Registry::new_in(domain);
        let next_seq = AtomicU64::new(1);

        let mut latest = Vec::with_capacity(n);
        for x in 0..n {
            let dummy = nodes.alloc(UpdateNode::new_dummy(x as i64, layout.bits()));
            unsafe { (*dummy).seq = next_seq.fetch_add(1, Ordering::Relaxed) };
            latest.push(AtomicPtr::new(dummy));
        }

        let mut dnode = Vec::with_capacity(n);
        dnode.push(AtomicPtr::new(core::ptr::null_mut())); // slot 0: unused
        for i in 1..n {
            let leftmost = layout.leftmost_key(i as u64) as usize;
            let dummy = latest[leftmost].load(Ordering::Relaxed);
            // Seed the install count: the dummy occupies this dNodePtr slot
            // until a delete in its subtree displaces it.
            unsafe { (*dummy).dnode_refs.fetch_add(1, Ordering::Relaxed) };
            dnode.push(AtomicPtr::new(dummy));
        }

        Self {
            layout,
            latest: latest.into_boxed_slice(),
            dnode: dnode.into_boxed_slice(),
            nodes,
            next_seq,
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

    /// Reads the head of the `latest[key]` list.
    #[inline]
    pub(crate) fn latest_head(&self, key: i64) -> *mut UpdateNode {
        steps::on_read();
        self.latest[key as usize].load(Ordering::SeqCst)
    }

    /// CAS on `latest[key]` (lines 35/54/170/192).
    #[inline]
    pub(crate) fn cas_latest(
        &self,
        key: i64,
        current: *mut UpdateNode,
        new: *mut UpdateNode,
    ) -> bool {
        steps::on_cas();
        let ok = self.latest[key as usize]
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        trace::cas(CasSite::Latest, ok);
        ok
    }

    /// Reads `t.dNodePtr` of internal node `t`.
    #[inline]
    pub(crate) fn dnode_load(&self, t: NodeIndex) -> *mut UpdateNode {
        debug_assert!(!self.layout.is_leaf(t));
        steps::on_read();
        self.dnode[t as usize].load(Ordering::SeqCst)
    }

    /// CAS on `t.dNodePtr` (lines 66/70).
    ///
    /// Maintains [`UpdateNode::dnode_refs`] so reclamation can tell when a
    /// node has left every `dNodePtr` slot: the incoming node's count is
    /// raised *before* the CAS (the count over-approximates occupancy, never
    /// under-approximates it) and rolled back on failure; the displaced
    /// node's count drops after a success.
    #[inline]
    pub(crate) fn dnode_cas(
        &self,
        t: NodeIndex,
        current: *mut UpdateNode,
        new: *mut UpdateNode,
    ) -> bool {
        debug_assert!(!self.layout.is_leaf(t));
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

    /// Number of update nodes ever created (dummies included) — the E6
    /// "GC model" space metric. With allocation pooling this counts
    /// *logical* allocations; most are served from recycled slots
    /// (see [`TrieCore::node_alloc_stats`]).
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
        // Everything in a `dNodePtr` slot is either one of those or already
        // retired (dnode_refs parked it in the registry, whose own Drop
        // frees it), so this walk frees each resident node exactly once.
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
    fn initial_configuration_is_all_dummies() {
        let core = TrieCore::new(8, Arc::default());
        for x in 0..8i64 {
            let head = core.latest_head(x);
            let node = unsafe { &*head };
            assert_eq!(node.kind(), Kind::Del);
            assert_eq!(node.status(), Status::Active);
            assert_eq!(node.key(), x);
            assert!(node.latest_next().is_null());
        }
        assert_eq!(core.allocated_nodes(), 8);
    }

    #[test]
    fn dnode_seeded_with_leftmost_dummy() {
        let core = TrieCore::new(8, Arc::default());
        let layout = *core.layout();
        for t in 1..layout.num_leaves() {
            let d = core.dnode_load(t);
            let node = unsafe { &*d };
            assert_eq!(node.key() as u64, layout.leftmost_key(t));
            assert_eq!(node.kind(), Kind::Del);
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
