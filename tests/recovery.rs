//! Deterministic exercises of the ⊥-recovery path (paper lines 230–251,
//! Definition 5.1).
//!
//! A delete stalled *after* linearization but *before* updating the
//! relaxed trie leaves stale 1-bits on its key's path: the real `remove`,
//! suspended at its `DeleteEmbedsDone` fault point. A later
//! `Predecessor` traversal descends into that subtree, finds both children
//! at 0, and gets ⊥ from `RelaxedPredecessor` — with the stalled DEL node
//! sitting in its `Druall`. The answer must then be reconstructed from the
//! embedded predecessor results (`delPred`, `delPred2`) and the notify
//! lists, exactly as §5.2's recovery computation prescribes.

use lftrie::core::fault::{suspend_at, FaultPoint::DeleteEmbedsDone};
use lftrie::core::LockFreeBinaryTrie;
use lftrie::telemetry::{thread_counters, Counter};

/// Runs `query` and returns its answer with the ⊥ answers and recoveries
/// this thread recorded meanwhile: the query's own, whatever other tests'
/// threads record.
fn bottoms_and_recoveries<T>(query: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = thread_counters();
    let answer = query();
    let during = thread_counters() - before;
    let bottoms = during.get(Counter::RelaxedBottoms);
    (answer, bottoms, during.get(Counter::Recoveries))
}

#[test]
fn recovery_uses_first_embedded_predecessor() {
    // S = {5, 9}; Delete(9) stalls before clearing the bits.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(9)));
    assert!(!trie.contains(9), "the stalled delete is linearized");

    // The query's relaxed traversal hits 9's stale subtree and bottoms out;
    // the recovery path must recover 5 from dNode9.delPred.
    let (answer, bottoms, recoveries) = bottoms_and_recoveries(|| trie.predecessor(20));
    assert_eq!(answer, Some(5));
    assert!(bottoms >= 1, "the stale subtree must force at least one ⊥");
    assert!(
        recoveries >= 1,
        "⊥ with a non-empty Druall runs the recovery"
    );
}

#[test]
fn recovery_follows_delpred2_chain_to_minus_one() {
    // S = {5, 9}; Delete(9) stalls, then Delete(5) completes. The recovery
    // graph is X = {5} with edge 5 → delPred2(5) = −1, so the sink is −1
    // and the answer is None.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(9)));
    assert!(trie.remove(5));
    assert_eq!(trie.predecessor(20), None);
}

#[test]
fn recovery_sees_keys_below_the_stale_subtree() {
    // A smaller key inserted *before* the stall is found even though the
    // traversal cannot pass the stale region: S = {2, 9}, stale delete of 9.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(2);
    trie.insert(9);
    suspend_at(DeleteEmbedsDone, || trie.remove(9));
    assert_eq!(trie.predecessor(12), Some(2));
    // Keys *above* the stale subtree are unaffected.
    trie.insert(17);
    assert_eq!(trie.predecessor(20), Some(17));
}

#[test]
fn inserts_after_the_stall_are_visible() {
    // An insert linearized after the stalled delete must be returned
    // (it notifies the query or is seen in the U-ALL / trie).
    let trie = LockFreeBinaryTrie::new(64);
    trie.insert(9);
    suspend_at(DeleteEmbedsDone, || trie.remove(9));
    trie.insert(7); // below 9, fresh path
    assert_eq!(trie.predecessor(12), Some(7));
    trie.insert(11);
    assert_eq!(trie.predecessor(12), Some(11));
}

#[test]
fn reinserting_the_stalled_key_repairs_the_subtree() {
    // Insert(9) after the stalled Delete(9): the insert's bit-setting pass
    // repairs the path and predecessor queries resume the fast path.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(9);
    suspend_at(DeleteEmbedsDone, || trie.remove(9));
    assert!(
        trie.insert(9),
        "re-insert after linearized delete is S-modifying"
    );
    assert!(trie.contains(9));
    assert_eq!(trie.predecessor(10), Some(9));
    assert_eq!(trie.predecessor(9), None);
}

#[test]
fn multiple_stalled_deletes_compound() {
    // Two stale subtrees between the answer and the query.
    let trie = LockFreeBinaryTrie::new(64);
    trie.insert(3);
    trie.insert(20);
    trie.insert(24);
    suspend_at(DeleteEmbedsDone, || trie.remove(20));
    suspend_at(DeleteEmbedsDone, || trie.remove(24));
    assert_eq!(trie.predecessor(30), Some(3));
    assert_eq!(trie.predecessor(24), Some(3));
    assert_eq!(trie.predecessor(3), None);
}

#[test]
fn successor_recovery_uses_first_embedded_successor() {
    // S = {5, 9}; Delete(5) stalls before clearing the bits. A successor
    // query from below descends into 5's stale subtree, bottoms out, and
    // must recover 9 from dNode5.delSucc.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(5)));
    assert!(!trie.contains(5), "the stalled delete is linearized");

    let (answer, bottoms, recoveries) = bottoms_and_recoveries(|| trie.successor(1));
    assert_eq!(answer, Some(9));
    assert!(bottoms >= 1, "the stale subtree must force at least one ⊥");
    assert!(
        recoveries >= 1,
        "⊥ with a non-empty Dpub runs the successor recovery"
    );
}

#[test]
fn successor_recovery_follows_delsucc2_chain_to_none() {
    // S = {5, 9}; Delete(5) stalls, then Delete(9) completes. The mirrored
    // recovery graph is X = {9} with edge 9 → delSucc2(9) = no-successor,
    // so the sink is "none" and the answer is None.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(5)));
    assert!(trie.remove(9));
    assert_eq!(trie.successor(1), None);
}

#[test]
fn successor_recovery_sees_keys_above_the_stale_subtree() {
    // A larger key inserted *before* the stall is found even though the
    // traversal cannot pass the stale region: S = {9, 20}, stale delete
    // of 9.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(9);
    trie.insert(20);
    suspend_at(DeleteEmbedsDone, || trie.remove(9));
    assert_eq!(trie.successor(2), Some(20));
    // Keys *below* the stale subtree are unaffected.
    trie.insert(3);
    assert_eq!(trie.successor(1), Some(3));
}

#[test]
fn successor_sees_inserts_after_the_stall() {
    let trie = LockFreeBinaryTrie::new(64);
    trie.insert(9);
    suspend_at(DeleteEmbedsDone, || trie.remove(9));
    trie.insert(11); // above 9, fresh path
    assert_eq!(trie.successor(2), Some(11));
    trie.insert(7);
    assert_eq!(trie.successor(2), Some(7));
}

#[test]
fn multiple_stalled_deletes_compound_for_successor() {
    // Two stale subtrees between the query and the answer.
    let trie = LockFreeBinaryTrie::new(64);
    trie.insert(20);
    trie.insert(24);
    trie.insert(40);
    suspend_at(DeleteEmbedsDone, || trie.remove(20));
    suspend_at(DeleteEmbedsDone, || trie.remove(24));
    assert_eq!(trie.successor(3), Some(40));
    assert_eq!(trie.successor(20), Some(40));
    assert_eq!(trie.successor(40), None);
}

#[test]
fn range_scans_cross_stale_subtrees_exactly() {
    // A scan spanning a stalled delete's subtree must return exactly the
    // live keys: the stalled key is linearized-deleted (excluded), keys on
    // both sides are found through the recovery path.
    let trie = LockFreeBinaryTrie::new(64);
    for k in [3u64, 20, 24, 40] {
        trie.insert(k);
    }
    suspend_at(DeleteEmbedsDone, || trie.remove(20));
    assert_eq!(trie.range(0..=63), vec![3, 24, 40]);
    assert_eq!(trie.range(20..=24), vec![24]);
}

#[test]
fn max_recovers_through_the_sentinel_query_key() {
    // max() is one predecessor query at the out-of-universe key y = u: the
    // relaxed traversal descends from the root, hits 9's stale subtree,
    // and bottoms out; the recovery must return 5 from dNode9.delPred.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(9)));
    let (answer, bottoms, recoveries) = bottoms_and_recoveries(|| trie.max());
    assert_eq!(answer, Some(5));
    assert_eq!(bottoms, 1, "one ⊥ from the root descent");
    assert_eq!(recoveries, 1, "one recovery");
}

#[test]
fn min_recovers_through_the_sentinel_query_key() {
    // The mirror case: min() is one successor query at y = −1; 5's stale
    // subtree forces ⊥, and the recovery returns 9 from dNode5.delSucc.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(5);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(5)));
    let (answer, bottoms, recoveries) = bottoms_and_recoveries(|| trie.min());
    assert_eq!(answer, Some(9));
    assert_eq!(bottoms, 1, "one ⊥ from the root descent");
    assert_eq!(recoveries, 1, "one recovery");
}

#[test]
fn min_and_max_recover_an_empty_set_through_a_stalled_delete() {
    // S = {9} with 9's delete stalled: the set is empty, but the stale
    // path makes both root descents bottom out with an announced delete,
    // so emptiness is certified by the recovery, not the traversal.
    let trie = LockFreeBinaryTrie::new(32);
    trie.insert(9);
    assert!(suspend_at(DeleteEmbedsDone, || trie.remove(9)));
    let (max, _, max_recoveries) = bottoms_and_recoveries(|| trie.max());
    let (min, _, min_recoveries) = bottoms_and_recoveries(|| trie.min());
    assert_eq!(max, None);
    assert_eq!(min, None);
    assert_eq!(max_recoveries, 1);
    assert_eq!(min_recoveries, 1);
    assert_eq!(trie.range(0..=31), Vec::<u64>::new());
}

#[test]
fn queries_under_concurrent_load_with_stalls_stay_sound() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let trie = Arc::new(LockFreeBinaryTrie::new(128));
    trie.insert(10);
    trie.insert(50);
    suspend_at(DeleteEmbedsDone, || trie.remove(50));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let trie = Arc::clone(&trie);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let k = 60 + (i % 40);
                trie.insert(k);
                trie.remove(k);
                i += 1;
            }
        })
    };
    for _ in 0..20_000 {
        // 10 is stable, 50 deleted (stalled), noise ≥ 60: pred(55) ∈ {10}.
        assert_eq!(trie.predecessor(55), Some(10));
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
}
