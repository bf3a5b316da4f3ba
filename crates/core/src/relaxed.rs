//! The wait-free **relaxed binary trie** (paper §4).
//!
//! Maintains a dynamic set over `{0, …, u−1}` with strongly-linearizable
//! `TrieInsert` / `TrieDelete` / `TrieSearch` and the *non-linearizable*
//! `RelaxedPredecessor`, whose specification (§4.1) allows the answer `⊥`
//! ([`RelaxedPred::Interference`]) only when an S-modifying update on a key
//! between the answer and the query is concurrent with the operation. All
//! operations are wait-free: `TrieSearch` is O(1) and the others are
//! O(log u) worst case.
//!
//! The lock-free linearizable trie of §5 ([`crate::LockFreeBinaryTrie`])
//! embeds this structure; the relaxed trie is also useful on its own
//! wherever a best-effort predecessor is acceptable (it never returns a
//! *wrong* key — see Lemma 4.28).

use std::sync::Arc;

use crate::access::{LatestAccess, TrieCore};
use crate::bitops;
use crate::dir::{Pred, Succ};
use crate::node::{Hold, Kind, Status, UpdateNode};
use lftrie_primitives::epoch::Domain;
use lftrie_primitives::{Key, NO_PRED, NO_SUCC};
use lftrie_telemetry::{self as telemetry, Counter, TelemetrySnapshot};

/// Result of [`RelaxedBinaryTrie::predecessor`] (specification §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelaxedPred {
    /// A key `k < y` that was in the set at some configuration during the
    /// operation (and is the true predecessor when no updates interfere).
    Found(Key),
    /// No key smaller than the query was completely present (the paper's −1).
    NoneSmaller,
    /// Concurrent update operations prevented the traversal (the paper's ⊥).
    /// Guaranteed to occur only when an S-modifying update with a key
    /// strictly between the answer-to-be and the query is concurrent.
    Interference,
}

/// Result of [`RelaxedBinaryTrie::successor`] (the mirror of
/// [`RelaxedPred`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelaxedSucc {
    /// A key `k > y` that was in the set during the operation.
    Found(Key),
    /// No key greater than the query was completely present.
    NoneGreater,
    /// Concurrent update operations prevented the traversal.
    Interference,
}

/// Diagnostic view of a key's latest update node, for the figure
/// walkthroughs and tests (the dashed boxes of Figures 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatestInfo {
    /// True if the latest update node is an INS node (`x ∈ S`).
    pub is_ins: bool,
    /// `lower1Boundary` of the latest DEL node (`b+1` when untouched);
    /// `None` for INS nodes.
    pub lower1_boundary: Option<u32>,
    /// `upper0Boundary` of the latest DEL node; `None` for INS nodes.
    pub upper0_boundary: Option<u32>,
}

/// A wait-free relaxed binary trie over `{0, …, universe−1}`.
///
/// All operations take `&self` and are safe to call from any number of
/// threads.
///
/// # Examples
///
/// ```
/// use lftrie_core::{RelaxedBinaryTrie, RelaxedPred};
///
/// let trie = RelaxedBinaryTrie::new(64);
/// trie.insert(10);
/// trie.insert(20);
/// assert!(trie.contains(10));
/// assert_eq!(trie.predecessor(15), RelaxedPred::Found(10));
/// assert_eq!(trie.predecessor(10), RelaxedPred::NoneSmaller);
/// trie.remove(10);
/// assert_eq!(trie.predecessor(15), RelaxedPred::NoneSmaller);
/// ```
pub struct RelaxedBinaryTrie {
    core: TrieCore,
    universe: u64,
}

impl LatestAccess for RelaxedBinaryTrie {
    /// `FindLatest(x)` (lines 13–14): a single read of `latest[x]`.
    #[inline]
    fn find_latest(&self, key: i64) -> *mut UpdateNode {
        self.core.latest_head(key)
    }

    #[inline]
    fn find_latest_installed(&self, key: i64) -> *mut UpdateNode {
        self.core.installed_head(key)
    }

    /// `FirstActivated(uNode)` (lines 19–21): pointer equality with
    /// `latest[uNode.key]` — every relaxed-trie update node is active.
    #[inline]
    fn first_activated(&self, node: *mut UpdateNode) -> bool {
        self.core.latest_head(unsafe { (*node).key() }) == node
    }
}

impl RelaxedBinaryTrie {
    /// Creates an empty trie over the universe `{0, …, universe−1}`.
    ///
    /// Allocates the Θ(u) trie arrays and no update node: a key's dummy DEL
    /// node (§4.5.2) is made only once an insert needs it.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2` or `universe > 2^62`.
    pub fn new(universe: u64) -> Self {
        Self {
            core: TrieCore::new(universe, Arc::default()),
            universe,
        }
    }

    /// The universe size `u` this trie was created with.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The epoch domain this trie's update nodes retire into. A caller
    /// that pins it holds back this trie's reclamation, and no other
    /// structure's, until the guard drops.
    pub fn domain(&self) -> &Domain {
        self.core.domain()
    }

    #[inline]
    fn check_key(&self, x: Key) -> i64 {
        assert!(
            x < self.universe,
            "key {x} outside universe {}",
            self.universe
        );
        x as i64
    }

    /// `TrieSearch(x)` (lines 15–18): O(1) worst case.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn contains(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::ContainsOps, 1);
        let _guard = self.domain().pin();
        let u_node = self.find_latest(x); // L16
        !u_node.is_null() && unsafe { (*u_node).kind() == Kind::Ins } // L17–18
    }

    /// `TrieInsert(x)` (lines 28–37): adds `x`; returns `true` iff this call
    /// was S-modifying (the set changed). O(log u) worst case.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn insert(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::InsertOps, 1);
        // One pin across activation and the trie update: our published node
        // must stay dereferenceable for the finish phase even if concurrent
        // updates supersede it twice in between.
        let _guard = self.domain().pin();
        match self.insert_activate(x) {
            Some(i_node) => {
                self.insert_finish(i_node); // L36
                true
            }
            None => false,
        }
    }

    /// Lines 29–35 of `TrieInsert`: create and activate the INS node (the
    /// strong-linearization point), without yet updating interpreted bits.
    ///
    /// On success, releases the link of the node the displaced head itself
    /// superseded: the relaxed trie never clears `latestNext`, so at any
    /// moment the head and its immediate `latestNext` are dereferenceable
    /// (line 34 reads one hop), but the node two generations back just
    /// became unreachable for new operations.
    pub(crate) fn insert_activate(&self, x: i64) -> Option<*mut UpdateNode> {
        let guard = &self.domain().pin();
        let d_node = self.find_latest_installed(x); // L29
        if unsafe { (*d_node).kind() } != Kind::Del {
            return None; // L30: x already in S
        }
        // L31–33 (relaxed-trie update nodes are born active).
        let i_node = self.core.alloc_node(UpdateNode::new_ins(
            x,
            Status::Active,
            d_node,
            self.core.b(),
        ));
        // L34: dNode.latestNext.target.stop ← True (ignore ⊥ reads).
        let prev_ins = unsafe { (*d_node).latest_next() };
        if !prev_ins.is_null() {
            let target = unsafe { (*prev_ins).target() };
            if !target.is_null() {
                unsafe { (*target).set_stop() };
            }
        }
        if !self.core.cas_latest(x, d_node, i_node) {
            // L35: another TrieInsert(x) won; our node was never published.
            unsafe { self.core.dealloc_node(i_node) };
            return None;
        }
        if !prev_ins.is_null() {
            // prev_ins is now two hops from the head: unreachable for new
            // operations (no code follows two latestNext links), so its
            // link goes. An owner still between activation and
            // `insert_finish` keeps it alive by its `Running` hold.
            self.core.release(prev_ins, Hold::Linked, guard);
        }
        Some(i_node)
    }

    /// Line 36 of `TrieInsert`: `InsertBinaryTrie(iNode)`, then complete
    /// the node, releasing its `Running` hold — the relaxed trie's analogue
    /// of the lock-free line 178.
    pub(crate) fn insert_finish(&self, i_node: *mut UpdateNode) {
        let guard = &self.domain().pin();
        bitops::insert_binary_trie(&self.core, self, i_node, guard);
        self.core.release(i_node, Hold::Running, guard);
    }

    /// `TrieDelete(x)` (lines 47–57): removes `x`; returns `true` iff this
    /// call was S-modifying. O(log u) worst case.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn remove(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::RemoveOps, 1);
        let _guard = self.domain().pin();
        match self.delete_activate(x) {
            Some(d_node) => {
                self.delete_finish(d_node); // L56
                true
            }
            None => false,
        }
    }

    /// Lines 48–55 of `TrieDelete`: create and activate the DEL node. On
    /// success, releases the link of the node two generations back (see
    /// [`RelaxedBinaryTrie::insert_activate`]).
    pub(crate) fn delete_activate(&self, x: i64) -> Option<*mut UpdateNode> {
        let guard = &self.domain().pin();
        let i_node = self.find_latest(x); // L48
        if i_node.is_null() || unsafe { (*i_node).kind() } != Kind::Ins {
            return None; // L49: x not in S
        }
        let prev_del = unsafe { (*i_node).latest_next() };
        // L50–53: dNode.latestNext ← iNode.
        let d_node = self.core.alloc_node(UpdateNode::new_del(
            x,
            Status::Active,
            i_node,
            self.core.b(),
        ));
        if !self.core.cas_latest(x, i_node, d_node) {
            // L54: another TrieDelete(x) won; our node was never published.
            unsafe { self.core.dealloc_node(d_node) };
            return None;
        }
        // L55: iNode.target.stop ← True (ignore ⊥).
        let target = unsafe { (*i_node).target() };
        if !target.is_null() {
            unsafe { (*target).set_stop() };
        }
        if !prev_del.is_null() {
            // As in `insert_activate`. A DEL node may stay held after this
            // by its own `Running` and by the slots and targets holding it.
            self.core.release(prev_del, Hold::Linked, guard);
        }
        Some(d_node)
    }

    /// Line 56 of `TrieDelete`: `DeleteBinaryTrie(dNode)`, then complete
    /// the node (see [`RelaxedBinaryTrie::insert_finish`]).
    pub(crate) fn delete_finish(&self, d_node: *mut UpdateNode) {
        let guard = &self.domain().pin();
        bitops::delete_binary_trie(&self.core, self, d_node, guard);
        self.core.release(d_node, Hold::Running, guard);
    }

    /// `RelaxedPredecessor(y)` (lines 73–90): the largest key smaller than
    /// `y` per the §4.1 specification. O(log u) worst case.
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ universe`.
    pub fn predecessor(&self, y: Key) -> RelaxedPred {
        let y = self.check_key(y);
        telemetry::add(Counter::PredecessorOps, 1);
        let _guard = self.domain().pin();
        match bitops::relaxed_query::<Pred, _>(&self.core, self, y) {
            None => RelaxedPred::Interference,
            Some(NO_PRED) => RelaxedPred::NoneSmaller,
            Some(k) => RelaxedPred::Found(k as Key),
        }
    }

    /// `RelaxedSuccessor(y)`: the smallest key greater than `y`, under the
    /// mirror image of the §4.1 predecessor specification. O(log u) worst
    /// case, wait-free.
    ///
    /// This is an *extension*: the paper defines predecessor only; the
    /// successor traversal is its left/right mirror. The same relaxation
    /// applies — [`RelaxedPred::Interference`] only under concurrent
    /// updates with keys strictly between `y` and the answer.
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ universe`.
    pub fn successor(&self, y: Key) -> RelaxedSucc {
        let y = self.check_key(y);
        telemetry::add(Counter::SuccessorOps, 1);
        let _guard = self.domain().pin();
        match bitops::relaxed_query::<Succ, _>(&self.core, self, y) {
            None => RelaxedSucc::Interference,
            Some(NO_SUCC) => RelaxedSucc::NoneGreater,
            Some(k) => RelaxedSucc::Found(k as Key),
        }
    }

    /// Diagnostic: the interpreted bits of every trie level, root first
    /// (level `d` has `2^d` bits) — the circles of Figures 1–3.
    pub fn interpreted_bits_by_level(&self) -> Vec<Vec<bool>> {
        let _guard = self.domain().pin();
        let layout = self.core.layout();
        let mut levels = Vec::with_capacity(layout.bits() as usize + 1);
        for depth in 0..=layout.bits() {
            let first = 1u64 << depth;
            let row = (first..(first << 1))
                .map(|t| bitops::interpreted_bit(&self.core, self, t))
                .collect();
            levels.push(row);
        }
        levels
    }

    /// Diagnostic: the latest update node's kind and boundaries for `x`
    /// (the rectangles of Figures 2–3).
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn latest_info(&self, x: Key) -> LatestInfo {
        let x = self.check_key(x);
        let _guard = self.domain().pin();
        let node = self.find_latest(x);
        if node.is_null() {
            // The uninstalled dummy's boundaries.
            let b = self.core.b();
            return LatestInfo {
                is_ins: false,
                lower1_boundary: Some(b + 1),
                upper0_boundary: Some(b),
            };
        }
        let node = unsafe { &*node };
        if node.kind() == Kind::Ins {
            LatestInfo {
                is_ins: true,
                lower1_boundary: None,
                upper0_boundary: None,
            }
        } else {
            LatestInfo {
                is_ins: false,
                lower1_boundary: Some(node.lower1()),
                upper0_boundary: Some(node.upper0()),
            }
        }
    }

    /// Total update nodes allocated so far (the GC-model E6 space metric;
    /// includes the dummies inserts installed, and is 0 until an insert).
    pub fn allocated_nodes(&self) -> usize {
        self.core.allocated_nodes()
    }

    /// Update nodes currently resident (`allocated − reclaimed`).
    pub fn live_nodes(&self) -> usize {
        self.core.live_nodes()
    }

    /// Allocation statistics of the update-node registry (fresh heap boxes
    /// vs recycled pool hits vs resident memory).
    pub fn node_alloc_stats(&self) -> lftrie_primitives::registry::AllocStats {
        self.core.node_alloc_stats()
    }

    /// Runs quiescent reclamation sweeps on the node registry.
    pub fn collect_garbage(&self) {
        self.core.flush_reclamation();
    }

    /// The unified observability read-out for a standalone relaxed trie:
    /// the process-global counters and histograms of [`lftrie_telemetry`]
    /// plus the gauges this structure can sample — epoch-domain health and
    /// the update-node registry's reclamation health. (The announcement and
    /// recovery gauges exist only on the linearizable trie.)
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = telemetry::snapshot();
        snap.epoch = Some(self.domain().health());
        snap.reclaim = vec![self.core.node_health("nodes")];
        snap
    }

    /// Used by the figure-replay tests to drive traversal steps manually.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn core(&self) -> &TrieCore {
        &self.core
    }
}

impl core::fmt::Debug for RelaxedBinaryTrie {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RelaxedBinaryTrie")
            .field("universe", &self.universe)
            .field("allocated_nodes", &self.allocated_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn model_pred(model: &BTreeSet<u64>, y: u64) -> RelaxedPred {
        match model.range(..y).next_back() {
            Some(&k) => RelaxedPred::Found(k),
            None => RelaxedPred::NoneSmaller,
        }
    }

    #[test]
    fn churn_frees_every_node_two_generations_back_and_teardown_the_rest() {
        const U: u64 = 64;
        let mut trie = RelaxedBinaryTrie::new(U);
        let mut state = 0xC0FF_EE00_u64;
        for _ in 0..4000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) % U;
            if (state >> 32) & 1 == 0 {
                trie.insert(k);
            } else {
                trie.remove(k);
            }
        }
        trie.collect_garbage();
        assert_eq!(trie.live_nodes(), trie.core.resident().len());
        trie.core.free_resident();
        trie.collect_garbage();
        assert_eq!(trie.live_nodes(), 0, "the walk missed a held node");
    }

    #[test]
    fn empty_trie_has_no_predecessors() {
        let trie = RelaxedBinaryTrie::new(16);
        for y in 0..16 {
            assert_eq!(trie.predecessor(y), RelaxedPred::NoneSmaller);
            assert!(!trie.contains(y));
        }
    }

    #[test]
    fn figure1_set() {
        // Figure 1: S = {0, 2} over U = {0,1,2,3}.
        let trie = RelaxedBinaryTrie::new(4);
        assert!(trie.insert(0));
        assert!(trie.insert(2));
        assert_eq!(
            trie.interpreted_bits_by_level(),
            vec![vec![true], vec![true, true], vec![true, false, true, false],]
        );
        assert_eq!(trie.predecessor(1), RelaxedPred::Found(0));
        assert_eq!(trie.predecessor(2), RelaxedPred::Found(0));
        assert_eq!(trie.predecessor(3), RelaxedPred::Found(2));
        assert_eq!(trie.predecessor(0), RelaxedPred::NoneSmaller);
    }

    #[test]
    fn insert_is_idempotent_and_reports_s_modification() {
        let trie = RelaxedBinaryTrie::new(8);
        assert!(trie.insert(3));
        assert!(!trie.insert(3), "second insert is not S-modifying");
        assert!(trie.remove(3));
        assert!(!trie.remove(3), "second delete is not S-modifying");
        assert!(trie.insert(3), "re-insert after delete is S-modifying");
    }

    #[test]
    fn delete_clears_path_bits() {
        let trie = RelaxedBinaryTrie::new(8);
        trie.insert(5);
        trie.remove(5);
        let bits = trie.interpreted_bits_by_level();
        for level in &bits {
            assert!(level.iter().all(|&b| !b), "all bits 0 after lone delete");
        }
    }

    #[test]
    fn delete_preserves_sibling_subtree() {
        let trie = RelaxedBinaryTrie::new(8);
        trie.insert(4);
        trie.insert(5);
        trie.remove(4);
        assert_eq!(trie.predecessor(6), RelaxedPred::Found(5));
        assert_eq!(trie.predecessor(5), RelaxedPred::NoneSmaller);
    }

    #[test]
    fn sequential_random_ops_match_btreeset() {
        let universe = 128u64;
        let trie = RelaxedBinaryTrie::new(universe);
        let mut model = BTreeSet::new();
        let mut state = 0x243F6A8885A308D3u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) % universe;
            match state % 3 {
                0 => assert_eq!(trie.insert(x), model.insert(x), "insert {x} at {step}"),
                1 => assert_eq!(trie.remove(x), model.remove(&x), "remove {x} at {step}"),
                _ => {
                    assert_eq!(
                        trie.contains(x),
                        model.contains(&x),
                        "contains {x} at {step}"
                    );
                    assert_eq!(
                        trie.predecessor(x),
                        model_pred(&model, x),
                        "pred {x} at {step} (solo runs must never see ⊥)"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_keys_and_max_key() {
        let trie = RelaxedBinaryTrie::new(6); // padded to 8 leaves
        trie.insert(0);
        trie.insert(5);
        assert_eq!(trie.predecessor(5), RelaxedPred::Found(0));
        assert_eq!(trie.predecessor(1), RelaxedPred::Found(0));
        trie.remove(0);
        assert_eq!(trie.predecessor(5), RelaxedPred::NoneSmaller);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_key_panics() {
        let trie = RelaxedBinaryTrie::new(8);
        trie.insert(8);
    }

    #[test]
    fn successor_mirrors_predecessor() {
        let trie = RelaxedBinaryTrie::new(64);
        for k in [3u64, 17, 40, 41, 63] {
            trie.insert(k);
        }
        assert_eq!(trie.successor(0), RelaxedSucc::Found(3));
        assert_eq!(trie.successor(3), RelaxedSucc::Found(17));
        assert_eq!(trie.successor(40), RelaxedSucc::Found(41));
        assert_eq!(trie.successor(41), RelaxedSucc::Found(63));
        assert_eq!(trie.successor(63), RelaxedSucc::NoneGreater);
        trie.remove(63);
        assert_eq!(trie.successor(41), RelaxedSucc::NoneGreater);
    }

    #[test]
    fn successor_matches_btreeset_solo() {
        let universe = 128u64;
        let trie = RelaxedBinaryTrie::new(universe);
        let mut model = BTreeSet::new();
        let mut state = 0x6A09E667F3BCC909u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) % universe;
            match state % 3 {
                0 => {
                    assert_eq!(trie.insert(x), model.insert(x));
                }
                1 => {
                    assert_eq!(trie.remove(x), model.remove(&x));
                }
                _ => {
                    let expected = match model.range(x + 1..).next() {
                        Some(&k) => RelaxedSucc::Found(k),
                        None => RelaxedSucc::NoneGreater,
                    };
                    assert_eq!(trie.successor(x), expected, "succ {x}");
                }
            }
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let trie = Arc::new(RelaxedBinaryTrie::new(1 << 10));
        let threads = 4u64;
        let per = 128u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    for i in 0..per {
                        assert!(trie.insert(t * per + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for x in 0..threads * per {
            assert!(trie.contains(x));
        }
        // Quiescent predecessor queries are exact.
        for y in 1..threads * per {
            assert_eq!(trie.predecessor(y), RelaxedPred::Found(y - 1));
        }
    }

    #[test]
    fn concurrent_mixed_ops_preserve_per_key_agreement() {
        // Each thread owns a disjoint key stripe, so the final state is
        // deterministic per thread and must match a sequential replay.
        let universe = 1u64 << 9;
        let trie = Arc::new(RelaxedBinaryTrie::new(universe));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    let lo = t * 128;
                    let mut model = BTreeSet::new();
                    let mut state = t + 0x9E3779B97F4A7C15;
                    for _ in 0..5_000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let x = lo + (state >> 33) % 128;
                        if state % 2 == 0 {
                            assert_eq!(trie.insert(x), model.insert(x));
                        } else {
                            assert_eq!(trie.remove(x), model.remove(&x));
                        }
                    }
                    (lo, model)
                })
            })
            .collect();
        for h in handles {
            let (lo, model) = h.join().unwrap();
            for x in lo..lo + 128 {
                assert_eq!(trie.contains(x), model.contains(&x));
            }
        }
    }

    #[test]
    fn relaxed_pred_found_key_was_present() {
        // Lemma 4.28: a returned key was in S sometime during the op. With a
        // writer toggling a fixed key set, a Found(k) must be one of them.
        let trie = Arc::new(RelaxedBinaryTrie::new(256));
        let valid: Vec<u64> = vec![10, 20, 30, 40];
        for &k in &valid {
            trie.insert(k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let k = 10 + (i % 4) * 10;
                    trie.remove(k);
                    trie.insert(k);
                    i += 1;
                }
            })
        };
        for _ in 0..20_000 {
            match trie.predecessor(45) {
                RelaxedPred::Found(k) => {
                    assert!(valid.contains(&k), "pred returned {k}, never inserted")
                }
                // ⊥ is allowed under concurrency; −1 is allowed too because a
                // long-running query can overlap toggles of all four keys, in
                // which case no key is completely present throughout (§4.1).
                RelaxedPred::Interference | RelaxedPred::NoneSmaller => {}
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        writer.join().unwrap();
    }
}
