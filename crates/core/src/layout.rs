//! Geometry of the implicit perfect binary trie (paper §1, §4.2).
//!
//! The binary trie over universe `U = {0, …, u−1}` is a perfect binary tree
//! of height `b = ⌈log₂ u⌉`: the node at depth `i` with length-`i` prefix `x`
//! is `D_i[x]`, its children are `D_{i+1}[x·0]` and `D_{i+1}[x·1]`, and the
//! leaves `D_b` are a direct-access table over `U` (padded to `2^b` keys).
//!
//! We index nodes heap-style in a single `u64`: the root is `1`, node `i` has
//! children `2i` and `2i+1`, and the leaf for key `x` is `2^b + x`. The
//! paper's `height(t)` is `b − depth(t)`.

use lftrie_primitives::Key;

/// An index into the implicit trie (`1` = root; `≥ 2^b` = leaves).
pub type NodeIndex = u64;

/// Geometry of a trie with `2^b` leaves.
///
/// # Examples
///
/// ```
/// use lftrie_core::layout::Layout;
///
/// let layout = Layout::new(6); // universe {0..5} padded to 8 leaves
/// assert_eq!(layout.bits(), 3);
/// let leaf = layout.leaf(4);
/// assert_eq!(layout.height(leaf), 0);
/// assert_eq!(layout.height(Layout::ROOT), 3);
/// assert_eq!(layout.leaf_key(leaf), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    universe: u64,
    b: u32,
    num_leaves: u64,
}

impl Layout {
    /// The root index.
    pub const ROOT: NodeIndex = 1;

    /// Creates the geometry for universe `{0, …, universe−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2` or `universe > 2^62`
    /// ([`lftrie_primitives::MAX_UNIVERSE`]).
    pub fn new(universe: u64) -> Self {
        assert!(universe >= 2, "universe must contain at least two keys");
        assert!(
            universe <= lftrie_primitives::MAX_UNIVERSE,
            "universe exceeds MAX_UNIVERSE (2^62)"
        );
        let b = 64 - (universe - 1).leading_zeros(); // ⌈log₂ universe⌉ for universe ≥ 2
        Self {
            universe,
            b,
            num_leaves: 1u64 << b,
        }
    }

    /// The universe size `u`; keys `u..2^b` are padding leaves that are
    /// never in the set.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// `b = ⌈log₂ u⌉`, the height of the root.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.b
    }

    /// Number of leaves, `2^b` (the padded universe size).
    #[inline]
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Index of the leaf for `key`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `key < 2^b`.
    #[inline]
    pub fn leaf(&self, key: Key) -> NodeIndex {
        debug_assert!(key < self.num_leaves);
        self.num_leaves + key
    }

    /// True if `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: NodeIndex) -> bool {
        node >= self.num_leaves
    }

    /// The key of a leaf index.
    #[inline]
    pub fn leaf_key(&self, node: NodeIndex) -> Key {
        debug_assert!(self.is_leaf(node));
        node - self.num_leaves
    }

    /// Parent index (undefined for the root).
    #[inline]
    pub fn parent(&self, node: NodeIndex) -> NodeIndex {
        debug_assert!(node > Self::ROOT);
        node >> 1
    }

    /// Left child (`x·0`).
    #[inline]
    pub fn left(&self, node: NodeIndex) -> NodeIndex {
        debug_assert!(!self.is_leaf(node));
        node << 1
    }

    /// Right child (`x·1`).
    #[inline]
    pub fn right(&self, node: NodeIndex) -> NodeIndex {
        debug_assert!(!self.is_leaf(node));
        (node << 1) | 1
    }

    /// The other child of `node`'s parent.
    #[inline]
    pub fn sibling(&self, node: NodeIndex) -> NodeIndex {
        debug_assert!(node > Self::ROOT);
        node ^ 1
    }

    /// True if `node` is its parent's left child.
    #[inline]
    pub fn is_left_child(&self, node: NodeIndex) -> bool {
        debug_assert!(node > Self::ROOT);
        node & 1 == 0
    }

    /// Depth (root = 0, leaves = `b`).
    ///
    /// Branchless: `height` (and through it `InterpretedBit`) calls this on
    /// every level of every trie walk, so the index-0 check is a debug
    /// assertion rather than an `Option` round-trip with a panic branch.
    #[inline]
    pub fn depth(&self, node: NodeIndex) -> u32 {
        debug_assert!(node >= Self::ROOT, "node index 0 is not in the trie");
        63 - node.leading_zeros()
    }

    /// Height (`b − depth`; leaves = 0, root = `b`), the quantity stored in
    /// `upper0Boundary` / `lower1Boundary`.
    #[inline]
    pub fn height(&self, node: NodeIndex) -> u32 {
        self.b - self.depth(node)
    }

    /// The keys of the subtrie rooted at `node`: `U_t` in the paper, as an
    /// inclusive range `(min, max)`.
    #[inline]
    pub fn key_range(&self, node: NodeIndex) -> (Key, Key) {
        let h = self.height(node);
        let prefix = node - (1u64 << self.depth(node));
        let lo = prefix << h;
        (lo, lo | crate::bitops::low_mask(h))
    }

    /// The smallest key in `U_t` — the key whose dummy DEL node a null
    /// `t.dNodePtr` stands for.
    #[inline]
    pub fn leftmost_key(&self, node: NodeIndex) -> Key {
        self.key_range(node).0
    }

    /// Iterates the path from `start` (inclusive) up to the root (inclusive).
    #[inline]
    pub fn path_to_root(&self, start: NodeIndex) -> PathToRoot {
        PathToRoot { cur: Some(start) }
    }
}

/// Iterator from a node up to the root; see [`Layout::path_to_root`].
#[derive(Debug)]
pub struct PathToRoot {
    cur: Option<NodeIndex>,
}

impl Iterator for PathToRoot {
    type Item = NodeIndex;

    #[inline]
    fn next(&mut self) -> Option<NodeIndex> {
        let cur = self.cur?;
        self.cur = if cur == Layout::ROOT {
            None
        } else {
            Some(cur >> 1)
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_rounds_up() {
        assert_eq!(Layout::new(2).bits(), 1);
        assert_eq!(Layout::new(3).bits(), 2);
        assert_eq!(Layout::new(4).bits(), 2);
        assert_eq!(Layout::new(5).bits(), 3);
        assert_eq!(Layout::new(1 << 20).bits(), 20);
        assert_eq!(Layout::new((1 << 20) + 1).bits(), 21);
    }

    #[test]
    fn figure1_geometry() {
        // Figure 1: u = 4, b = 2; leaves 0..3 at indices 4..7.
        let l = Layout::new(4);
        assert_eq!(l.leaf(0), 4);
        assert_eq!(l.leaf(3), 7);
        assert_eq!(l.parent(4), 2);
        assert_eq!(l.parent(7), 3);
        assert_eq!(l.left(1), 2);
        assert_eq!(l.right(1), 3);
        assert_eq!(l.height(1), 2);
        assert_eq!(l.height(2), 1);
        assert_eq!(l.height(4), 0);
    }

    #[test]
    fn family_relations_are_consistent() {
        let l = Layout::new(1 << 10);
        for node in 1u64..(1 << 11) {
            if !l.is_leaf(node) {
                assert_eq!(l.parent(l.left(node)), node);
                assert_eq!(l.parent(l.right(node)), node);
                assert_eq!(l.sibling(l.left(node)), l.right(node));
                assert!(l.is_left_child(l.left(node)));
                assert!(!l.is_left_child(l.right(node)));
            }
            if node > 1 {
                assert_eq!(l.height(l.parent(node)), l.height(node) + 1);
            }
        }
    }

    #[test]
    fn key_ranges_partition_each_level() {
        let l = Layout::new(64);
        for depth in 0..=l.bits() {
            let first = 1u64 << depth;
            let mut expected_lo = 0u64;
            for node in first..(first << 1) {
                let (lo, hi) = l.key_range(node);
                assert_eq!(lo, expected_lo);
                assert_eq!(hi - lo + 1, 1u64 << l.height(node));
                expected_lo = hi + 1;
            }
            assert_eq!(expected_lo, l.num_leaves());
        }
    }

    #[test]
    fn leaf_key_range_is_single_key() {
        let l = Layout::new(16);
        for k in 0..16 {
            assert_eq!(l.key_range(l.leaf(k)), (k, k));
            assert_eq!(l.leftmost_key(l.leaf(k)), k);
        }
    }

    #[test]
    fn path_to_root_hits_every_ancestor() {
        let l = Layout::new(16);
        let path: Vec<_> = l.path_to_root(l.leaf(13)).collect();
        assert_eq!(path, vec![29, 14, 7, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_universe_rejected() {
        let _ = Layout::new(1);
    }
}
