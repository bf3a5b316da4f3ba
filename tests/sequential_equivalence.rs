//! Property-based sequential equivalence: every structure in the workspace
//! behaves exactly like `BTreeSet` over arbitrary operation sequences —
//! including the ordered-query side (successor, range).

use std::collections::BTreeSet;

use lftrie::baselines::{
    CoarseBTreeSet, ConcurrentOrderedSet, FlatCombiningBinaryTrie, HarrisListSet, LockFreeSkipList,
    MutexBinaryTrie, RwLockBinaryTrie, SeqBinaryTrie,
};
use lftrie::core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};
use proptest::prelude::*;

const UNIVERSE: u64 = 96;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Predecessor(u64),
    Successor(u64),
    Range(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 0..UNIVERSE, 0..UNIVERSE).prop_map(|(kind, key, key2)| match kind {
        0 => Op::Insert(key),
        1 => Op::Remove(key),
        2 => Op::Contains(key),
        3 => Op::Predecessor(key),
        4 => Op::Successor(key),
        _ => Op::Range(key.min(key2), key.max(key2)),
    })
}

fn model_range(model: &BTreeSet<u64>, lo: u64, hi: u64) -> Vec<u64> {
    model.range(lo..=hi).copied().collect()
}

fn check_against_model(set: &dyn ConcurrentOrderedSet, ops: &[Op]) {
    let mut model = BTreeSet::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k) => assert_eq!(set.insert(k), model.insert(k), "insert {k} @{i}"),
            Op::Remove(k) => assert_eq!(set.remove(k), model.remove(&k), "remove {k} @{i}"),
            Op::Contains(k) => {
                assert_eq!(set.contains(k), model.contains(&k), "contains {k} @{i}")
            }
            Op::Predecessor(k) => assert_eq!(
                set.predecessor(k),
                model.range(..k).next_back().copied(),
                "pred {k} @{i}"
            ),
            Op::Successor(k) => assert_eq!(
                set.successor(k),
                model.range(k + 1..).next().copied(),
                "succ {k} @{i}"
            ),
            Op::Range(lo, hi) => assert_eq!(
                set.range(lo, hi),
                model_range(&model, lo, hi),
                "range {lo}..={hi} @{i}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lockfree_trie_matches_btreeset(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&LockFreeBinaryTrie::new(UNIVERSE), &ops);
    }

    #[test]
    fn relaxed_trie_matches_btreeset_solo(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        // Single-threaded, the relaxed trie must be exact: ⊥ is only
        // permitted under concurrent updates (§4.1, mirrored for the
        // successor side).
        let trie = RelaxedBinaryTrie::new(UNIVERSE);
        let mut model = BTreeSet::new();
        for &op in &ops {
            match op {
                Op::Insert(k) => prop_assert_eq!(trie.insert(k), model.insert(k)),
                Op::Remove(k) => prop_assert_eq!(trie.remove(k), model.remove(&k)),
                Op::Contains(k) => prop_assert_eq!(trie.contains(k), model.contains(&k)),
                Op::Predecessor(k) => {
                    let expected = match model.range(..k).next_back() {
                        Some(&p) => RelaxedPred::Found(p),
                        None => RelaxedPred::NoneSmaller,
                    };
                    prop_assert_eq!(trie.predecessor(k), expected);
                }
                Op::Successor(k) => {
                    let expected = match model.range(k + 1..).next() {
                        Some(&s) => RelaxedSucc::Found(s),
                        None => RelaxedSucc::NoneGreater,
                    };
                    prop_assert_eq!(trie.successor(k), expected);
                }
                Op::Range(lo, hi) => {
                    // Through the trait adapter (best-effort; exact solo).
                    prop_assert_eq!(
                        ConcurrentOrderedSet::range(&trie, lo, hi),
                        model_range(&model, lo, hi)
                    );
                }
            }
        }
    }

    #[test]
    fn skiplist_matches_btreeset(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&LockFreeSkipList::new(), &ops);
    }

    #[test]
    fn harris_list_matches_btreeset(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&HarrisListSet::new(), &ops);
    }

    #[test]
    fn locked_tries_match_btreeset(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(&MutexBinaryTrie::new(UNIVERSE), &ops);
        check_against_model(&RwLockBinaryTrie::new(UNIVERSE), &ops);
        check_against_model(&CoarseBTreeSet::new(), &ops);
    }

    #[test]
    fn flat_combining_matches_btreeset(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(&FlatCombiningBinaryTrie::new(UNIVERSE), &ops);
    }

    #[test]
    fn seq_trie_matches_btreeset(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut trie = SeqBinaryTrie::new(UNIVERSE);
        let mut model = BTreeSet::new();
        for &op in &ops {
            match op {
                Op::Insert(k) => prop_assert_eq!(trie.insert(k), model.insert(k)),
                Op::Remove(k) => prop_assert_eq!(trie.remove(k), model.remove(&k)),
                Op::Contains(k) => prop_assert_eq!(trie.contains(k), model.contains(&k)),
                Op::Predecessor(k) => {
                    prop_assert_eq!(trie.predecessor(k), model.range(..k).next_back().copied())
                }
                Op::Successor(k) => {
                    prop_assert_eq!(trie.successor(k), model.range(k + 1..).next().copied())
                }
                Op::Range(lo, hi) => {
                    prop_assert_eq!(trie.range(lo, hi), model_range(&model, lo, hi))
                }
            }
        }
        prop_assert_eq!(trie.len(), model.len());
    }

    #[test]
    fn tries_agree_across_universe_paddings(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        // Non-power-of-two universes exercise the padded leaves.
        extra in 0u64..32,
    ) {
        let universe = UNIVERSE + extra;
        let a = LockFreeBinaryTrie::new(universe);
        let b = MutexBinaryTrie::new(universe);
        for &op in &ops {
            match op {
                Op::Insert(k) => { assert_eq!(a.insert(k), ConcurrentOrderedSet::insert(&b, k)); }
                Op::Remove(k) => { assert_eq!(a.remove(k), ConcurrentOrderedSet::remove(&b, k)); }
                Op::Contains(k) => { assert_eq!(a.contains(k), ConcurrentOrderedSet::contains(&b, k)); }
                Op::Predecessor(k) => { assert_eq!(a.predecessor(k), ConcurrentOrderedSet::predecessor(&b, k)); }
                Op::Successor(k) => { assert_eq!(a.successor(k), ConcurrentOrderedSet::successor(&b, k)); }
                Op::Range(lo, hi) => { assert_eq!(a.range(lo..=hi), ConcurrentOrderedSet::range(&b, lo, hi)); }
            }
        }
    }
}
