//! The wait-free trie-update and traversal algorithms shared by both tries:
//! `InterpretedBit`, `InsertBinaryTrie`, `DeleteBinaryTrie` and
//! `RelaxedPredecessor` (paper §4.4, lines 22–90), the last written once
//! for both query directions.
//!
//! Comments carry the paper's pseudocode line numbers. The routines are
//! generic over `LatestAccess`, which is how §5 swaps in the latest-list
//! implementations of `FindLatest`/`FirstActivated` without touching these
//! algorithms.
//!
//! Each loop body is factored into a `…_step` function so that the scenario
//! tests replaying Figures 2 and 3 can drive the traversals one trie level at
//! a time; the public operations simply run the steps to completion, which
//! preserves the paper's wait-free `O(log u)` worst-case bounds (each step is
//! a constant number of shared accesses, and there are at most `b` steps).

use lftrie_telemetry::{self as telemetry, Counter};

use crate::access::{LatestAccess, TrieCore};
use crate::dir::Dir;
use crate::layout::{Layout, NodeIndex};
use crate::node::{Kind, UpdateNode};

/// Counts the trie levels a traversal visits and, on drop, records the
/// total into the per-direction touch counter and the shared
/// [`lftrie_telemetry::Hist::TraversalDepth`] histogram — one fused
/// telemetry call per completed traversal (every early return included),
/// never one per level, which keeps the always-on recording off the
/// per-node hot path.
struct TraversalTally {
    counter: Counter,
    touched: u64,
}

impl TraversalTally {
    #[inline]
    fn new(counter: Counter) -> Self {
        Self {
            counter,
            touched: 0,
        }
    }

    #[inline]
    fn touch(&mut self) {
        self.touched += 1;
    }
}

impl Drop for TraversalTally {
    #[inline]
    fn drop(&mut self) {
        telemetry::record_traversal(self.counter, self.touched);
    }
}

// ----------------------------------------------------------------------
// Bit-level helpers
// ----------------------------------------------------------------------
//
// The implicit heap indexing (`layout`) and the traversals below are all
// word-level bit manipulation; these helpers name the identities they rely
// on. `tests/bitops_props.rs` checks each against a naive bit-by-bit
// reference.

/// Number of set bits in `x`.
#[inline]
pub fn popcount(x: u64) -> u32 {
    x.count_ones()
}

/// Mask selecting the `h` low-order bits (`h ≤ 64`): the within-subtree key
/// offset at height `h` — a subtree of height `h` spans `low_mask(h) + 1`
/// keys.
///
/// Branchless (this sits inside `key_range` on every trie walk): the
/// shift-then-subtract runs in `u128` so the `h = 64` edge needs no
/// special case.
///
/// # Panics
///
/// Panics if `h > 64`.
#[inline]
pub fn low_mask(h: u32) -> u64 {
    assert!(h <= 64, "mask width exceeds the word size");
    ((1u128 << h) - 1) as u64
}

/// Position of the least-significant set bit, or `None` for 0. For a node
/// index this is the number of trailing levels on which the node is the
/// left-most right descendant.
#[inline]
pub fn first_set(x: u64) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(x.trailing_zeros())
    }
}

/// Position of the most-significant set bit, or `None` for 0. For a heap
/// node index this is exactly the node's depth (`last_set(root) = 0`).
#[inline]
pub fn last_set(x: u64) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(63 - x.leading_zeros())
    }
}

/// Position of the highest bit where `x` and `y` differ, or `None` when
/// equal. For two keys this is the height of the lowest common ancestor of
/// their leaves minus one — equivalently, the LCA of `leaf(x)` and
/// `leaf(y)` sits at height `branch_bit(x, y) + 1`.
#[inline]
pub fn branch_bit(x: u64, y: u64) -> Option<u32> {
    last_set(x ^ y)
}

/// `InterpretedBit(t)` (lines 22–27): computes the interpreted bit of trie
/// node `t` from the update node its key currently depends on.
///
/// For an internal node the key comes from `t.dNodePtr` (a DEL node whose key
/// lies in `U_t`, or a null slot standing for the dummy of `U_t`'s leftmost
/// key; see [`TrieCore::dnode_key`]); for a leaf it is the leaf's own key —
/// the paper seeds leaf `dNodePtr`s with the key's dummy, which resolves
/// identically. A null `latest` head is that key's uninstalled dummy, which
/// reads 0 at every height.
#[inline]
pub(crate) fn interpreted_bit<A: LatestAccess>(core: &TrieCore, acc: &A, t: NodeIndex) -> bool {
    let layout = core.layout();
    let key = if layout.is_leaf(t) {
        layout.leaf_key(t) as i64
    } else {
        core.dnode_key(t)
    };
    let u_node = acc.find_latest(key); // L23
    if u_node.is_null() {
        // The dummy: `h ≤ b = upper0`, `h < b + 1 = lower1`, and it is
        // first activated, so L25–26 return 0.
        return false;
    }
    let u = unsafe { &*u_node };
    if u.kind() == Kind::Ins {
        return true; // L24
    }
    let h = layout.height(t);
    if h <= u.upper0() {
        // L25
        if h < u.lower1() && acc.first_activated(u_node) {
            return false; // L26
        }
    }
    true // L27
}

/// One iteration of `InsertBinaryTrie`'s loop (lines 40–46) at node `t`.
/// Returns `false` if the operation must return (line 44).
#[inline]
pub(crate) fn insert_binary_trie_step<A: LatestAccess>(
    core: &TrieCore,
    acc: &A,
    i_node: *mut UpdateNode,
    t: NodeIndex,
) -> bool {
    // L40. A dummy met here is always written at L43 (L42's second
    // disjunct holds for it), so a null head is installed first.
    let u_node = acc.find_latest_installed(core.dnode_key(t));
    let u = unsafe { &*u_node };
    if u.kind() == Kind::Del {
        // L41
        let h = core.layout().height(t);
        // L42 re-reads t.dNodePtr for the pointer comparison. A null slot
        // never equals `u_node`; where its dummy would have, the second
        // disjunct holds (`access` module docs).
        if core.dnode_load(t) == u_node || h <= u.upper0() {
            unsafe { (*i_node).set_target(u_node) }; // L43
            if !acc.first_activated(i_node) {
                return false; // L44
            }
            if h < u.lower1() {
                // L45
                u.min_write_lower1(h); // L46
            }
        }
    }
    true
}

/// `InsertBinaryTrie(iNode)` (lines 38–46): sets the interpreted bits on the
/// path from the parent of `iNode.key`'s leaf to the root to 1.
pub(crate) fn insert_binary_trie<A: LatestAccess>(
    core: &TrieCore,
    acc: &A,
    i_node: *mut UpdateNode,
) {
    let layout = core.layout();
    let mut tally = TraversalTally::new(Counter::UpdateTouches);
    let leaf = layout.leaf(unsafe { (*i_node).key() } as u64);
    let mut t = layout.parent(leaf); // L39: parent of the leaf …
    loop {
        tally.touch();
        if !insert_binary_trie_step(core, acc, i_node, t) {
            return;
        }
        if t == Layout::ROOT {
            return; // … to the root
        }
        t = layout.parent(t);
    }
}

/// Outcome of one `DeleteBinaryTrie` iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeleteStep {
    /// Iteration acquired the parent and cleared its bit; continue from it.
    Continue(NodeIndex),
    /// The traversal is finished (returned early or reached the root).
    Done,
}

/// One iteration of `DeleteBinaryTrie`'s loop (lines 61–72), starting from
/// child node `t` (never the root).
#[inline]
pub(crate) fn delete_binary_trie_step<A: LatestAccess>(
    core: &TrieCore,
    acc: &A,
    d_node: *mut UpdateNode,
    t: NodeIndex,
) -> DeleteStep {
    let layout = core.layout();
    let d = unsafe { &*d_node };
    let stop_threshold = core.b() + 1;

    // L61: someone re-set this subtree's bits — nothing left to clear here.
    if interpreted_bit(core, acc, layout.sibling(t)) || interpreted_bit(core, acc, t) {
        return DeleteStep::Done;
    }
    let t = layout.parent(t); // L62
    let expected = core.dnode_load(t); // L63
    if !acc.first_activated(d_node) {
        return DeleteStep::Done; // L64
    }
    if d.stopped() || d.lower1() != stop_threshold {
        return DeleteStep::Done; // L65
    }
    if !core.dnode_cas(t, expected, d_node) {
        // L66 failed: one more attempt (defeats outdated-delete ABA, §4.4.3)
        let expected = core.dnode_load(t); // L67
        if !acc.first_activated(d_node) {
            return DeleteStep::Done; // L68
        }
        if d.stopped() || d.lower1() != stop_threshold {
            return DeleteStep::Done; // L69
        }
        if !core.dnode_cas(t, expected, d_node) {
            return DeleteStep::Done; // L70
        }
    }
    // L71: a child's bit turned 1 while we were acquiring t.
    if interpreted_bit(core, acc, layout.left(t)) || interpreted_bit(core, acc, layout.right(t)) {
        return DeleteStep::Done;
    }
    d.set_upper0(layout.height(t)); // L72
    if t == Layout::ROOT {
        DeleteStep::Done // L60: loop guard
    } else {
        DeleteStep::Continue(t)
    }
}

/// `DeleteBinaryTrie(dNode)` (lines 58–72): clears interpreted bits from
/// `dNode.key`'s leaf towards the root while both children read 0.
pub(crate) fn delete_binary_trie<A: LatestAccess>(
    core: &TrieCore,
    acc: &A,
    d_node: *mut UpdateNode,
) {
    let layout = core.layout();
    let mut tally = TraversalTally::new(Counter::UpdateTouches);
    let mut t = layout.leaf(unsafe { (*d_node).key() } as u64); // L59
    loop {
        // L60
        tally.touch();
        match delete_binary_trie_step(core, acc, d_node, t) {
            DeleteStep::Done => return,
            DeleteStep::Continue(next) => t = next,
        }
    }
}

/// `RelaxedPredecessor(y)` (lines 73–90), written once for both
/// directions: `D = Pred` is the paper's traversal, `D = Succ` its
/// left/right mirror `RelaxedSuccessor(y)`.
///
/// Returns `Some(key)` for a certified answer, `Some(D::NONE)` when no key
/// lies beyond `y`, and `None` for the paper's `⊥` (a concurrent update
/// prevented the traversal).
///
/// An out-of-universe sentinel query key (`y = u` for the maximum,
/// `y = −1` for the minimum) has every key beyond it, so the climb is
/// vacuous and the descent starts at the root. That descent starts
/// *uncertified*: an all-zero read of the root's children cannot
/// distinguish an empty set from a delete concurrently clearing the last
/// key's path, so it is reported as ⊥ and the caller's recovery decides —
/// which certifies emptiness exactly when no delete is announced, since a
/// delete clears interpreted bits only while announced (lines 196/202).
pub(crate) fn relaxed_query<D: Dir, A: LatestAccess>(
    core: &TrieCore,
    acc: &A,
    y: i64,
) -> Option<i64> {
    let layout = core.layout();
    let mut tally = TraversalTally::new(D::TOUCHES);
    let mut t = Layout::ROOT;
    if (0..layout.universe() as i64).contains(&y) {
        t = layout.leaf(y as u64); // L74
        loop {
            tally.touch();
            // L75: climb until t is its parent's child toward y and its
            // sibling, on the answer side, reads 1.
            let parent = layout.parent(t);
            let [toward_y, answer_side] = D::children(layout, parent);
            if t == toward_y && interpreted_bit(core, acc, answer_side) {
                t = answer_side; // L80: descend from the sibling
                break;
            }
            t = parent; // L76
            if t == Layout::ROOT {
                return Some(D::NONE); // L77–78
            }
        }
    }
    while layout.height(t) > 0 {
        // L81
        tally.touch();
        let [toward_y, away] = D::children(layout, t);
        if interpreted_bit(core, acc, toward_y) {
            t = toward_y; // L82–83
        } else if interpreted_bit(core, acc, away) {
            t = away; // L84–85
        } else {
            return None; // L86–88: both children read 0 — ⊥
        }
    }
    Some(layout.leaf_key(t) as i64) // L89–90
}
