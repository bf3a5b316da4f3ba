//! Property tests for the word-level bit helpers in `lftrie_core::bitops`:
//! each identity is checked against a naive bit-by-bit reference, plus the
//! round-trips tying them to the implicit trie geometry in `layout`
//! (companion of `layout_props.rs`).

use lftrie_core::bitops::{branch_bit, first_set, last_set, low_mask, popcount};
use lftrie_core::layout::Layout;
use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};
use proptest::prelude::*;

/// Naive reference: count bits one at a time.
fn popcount_ref(x: u64) -> u32 {
    (0..64).filter(|&i| x >> i & 1 == 1).count() as u32
}

/// Naive reference: scan from bit 0 upward.
fn first_set_ref(x: u64) -> Option<u32> {
    (0..64).find(|&i| x >> i & 1 == 1)
}

/// Naive reference: scan from bit 63 downward.
fn last_set_ref(x: u64) -> Option<u32> {
    (0..64).rev().find(|&i| x >> i & 1 == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn popcount_matches_reference(x in 0u64..=u64::MAX) {
        prop_assert_eq!(popcount(x), popcount_ref(x));
    }

    #[test]
    fn first_and_last_set_match_reference(x in 0u64..=u64::MAX) {
        prop_assert_eq!(first_set(x), first_set_ref(x));
        prop_assert_eq!(last_set(x), last_set_ref(x));
    }

    #[test]
    fn single_bit_words_round_trip(bit in 0u32..64) {
        let x = 1u64 << bit;
        prop_assert_eq!(popcount(x), 1);
        prop_assert_eq!(first_set(x), Some(bit));
        prop_assert_eq!(last_set(x), Some(bit));
    }

    #[test]
    fn low_mask_round_trips(h in 0u32..=64) {
        let m = low_mask(h);
        // A width-h mask has h set bits, all below h.
        prop_assert_eq!(popcount(m), h);
        prop_assert_eq!(first_set(m), if h == 0 { None } else { Some(0) });
        prop_assert_eq!(last_set(m), h.checked_sub(1));
        // The mask is exactly 2^h - 1.
        if h < 64 {
            prop_assert_eq!(m + 1, 1u64 << h);
        } else {
            prop_assert_eq!(m, u64::MAX);
        }
    }

    #[test]
    fn mask_extraction_round_trips(x in 0u64..=u64::MAX, h in 0u32..=64) {
        let lowered = x & low_mask(h);
        // Extracted bits fit in h bits and re-masking changes nothing.
        if h < 64 {
            prop_assert!(lowered <= low_mask(h));
        }
        prop_assert_eq!(lowered & low_mask(h), lowered);
        // The two halves partition the word.
        let raised = x & !low_mask(h);
        prop_assert_eq!(lowered | raised, x);
        prop_assert_eq!(lowered & raised, 0);
        prop_assert_eq!(popcount(lowered) + popcount(raised), popcount(x));
    }

    #[test]
    fn branch_bit_is_symmetric_and_bounded(x in 0u64..=u64::MAX, y in 0u64..=u64::MAX) {
        prop_assert_eq!(branch_bit(x, y), branch_bit(y, x));
        prop_assert_eq!(branch_bit(x, x), None);
        if let Some(b) = branch_bit(x, y) {
            // Bits above the branch bit agree; the branch bit itself differs.
            // (`>> b >> 1` is `>> (b + 1)` without shift overflow at b = 63.)
            prop_assert_ne!(x >> b & 1, y >> b & 1);
            prop_assert_eq!(x >> b >> 1, y >> b >> 1);
        }
    }

    #[test]
    fn depth_is_last_set_of_the_heap_index(universe in 2u64..(1 << 20), frac in 0.0f64..1.0) {
        let layout = Layout::new(universe);
        let total = 2 * layout.num_leaves() - 1;
        let node = 1 + ((total - 1) as f64 * frac) as u64;
        prop_assert_eq!(Some(layout.depth(node)), last_set(node));
    }

    #[test]
    fn subtree_span_is_low_mask_plus_one(universe in 2u64..(1 << 20), frac in 0.0f64..1.0) {
        let layout = Layout::new(universe);
        let total = 2 * layout.num_leaves() - 1;
        let node = 1 + ((total - 1) as f64 * frac) as u64;
        let (lo, hi) = layout.key_range(node);
        prop_assert_eq!(hi - lo, low_mask(layout.height(node)));
        // lo has the height-many low bits clear.
        prop_assert_eq!(lo & low_mask(layout.height(node)), 0);
    }

    #[test]
    fn relaxed_successor_is_the_mirror_of_relaxed_predecessor(
        universe in 2u64..512,
        keys in proptest::collection::vec(0u64..512, 0..40),
        queries in proptest::collection::vec(0u64..512, 1..40),
    ) {
        // The successor traversal is defined as the left/right mirror of the
        // predecessor traversal (swap left/right children, take the
        // leftmost 1-path): on a quiescent trie over keys K ⊆ {0,…,u−1},
        //     RelaxedSuccessor_K(y) = (u−1) − RelaxedPredecessor_K'((u−1)−y)
        // where K' = { u−1−k : k ∈ K } is the mirrored key set. Solo, both
        // traversals are exact (no ⊥), so the identity must hold verbatim.
        let trie = RelaxedBinaryTrie::new(universe);
        let mirror = RelaxedBinaryTrie::new(universe);
        for &k in keys.iter().filter(|&&k| k < universe) {
            trie.insert(k);
            mirror.insert(universe - 1 - k);
        }
        for &y in queries.iter().filter(|&&y| y < universe) {
            let succ = trie.successor(y);
            let mirrored_pred = mirror.predecessor(universe - 1 - y);
            let expected = match mirrored_pred {
                RelaxedPred::Found(p) => RelaxedSucc::Found(universe - 1 - p),
                RelaxedPred::NoneSmaller => RelaxedSucc::NoneGreater,
                RelaxedPred::Interference => RelaxedSucc::Interference,
            };
            prop_assert_eq!(succ, expected, "universe {} query {}", universe, y);
        }
    }

    #[test]
    fn lockfree_successor_satisfies_the_same_mirror_identity(
        universe in 2u64..256,
        keys in proptest::collection::vec(0u64..256, 0..24),
        queries in proptest::collection::vec(0u64..256, 1..24),
    ) {
        // The linearizable wrapper must preserve the traversal-level mirror
        // identity at quiescence (its announcement machinery adds nothing
        // when no operation is concurrent), for in-universe query keys and
        // for the out-of-universe sentinel keys behind min and max.
        let trie = LockFreeBinaryTrie::new(universe);
        let mirror = LockFreeBinaryTrie::new(universe);
        for &k in keys.iter().filter(|&&k| k < universe) {
            trie.insert(k);
            mirror.insert(universe - 1 - k);
        }
        for &y in queries.iter().filter(|&&y| y < universe) {
            let succ = trie.successor(y);
            let expected = mirror.predecessor(universe - 1 - y).map(|p| universe - 1 - p);
            prop_assert_eq!(succ, expected, "universe {} query {}", universe, y);
        }
        // The sentinel-key queries mirror too: min_K = (u−1) − max_K'.
        let expected_min = mirror.max().map(|p| universe - 1 - p);
        prop_assert_eq!(trie.min(), expected_min, "universe {} min", universe);
    }

    #[test]
    fn lca_height_is_branch_bit_plus_one(
        universe in 2u64..(1 << 16),
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let layout = Layout::new(universe);
        let a = ((layout.num_leaves() - 1) as f64 * a_frac) as u64;
        let b = ((layout.num_leaves() - 1) as f64 * b_frac) as u64;
        // Walk both leaves up to their lowest common ancestor.
        let (mut na, mut nb) = (layout.leaf(a), layout.leaf(b));
        while na != nb {
            na = layout.parent(na);
            nb = layout.parent(nb);
        }
        match branch_bit(a, b) {
            None => prop_assert_eq!(layout.height(na), 0), // a == b: LCA is the leaf
            Some(bit) => prop_assert_eq!(layout.height(na), bit + 1),
        }
    }
}
