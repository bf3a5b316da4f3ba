//! Ordered aggregates and batched updates: `count`, `min`, `max`,
//! `pop_min`, `insert_all`, `delete_all` against the `BTreeSet` model,
//! sequentially and under concurrent churn.
//!
//! The concurrent tests reuse the anchor discipline of `ordered_scans.rs`:
//! writers churn a noise band, a set of anchor keys stays untouched, and
//! every aggregate answer must be consistent with the anchors regardless
//! of how the noise interleaves. `pop_min` additionally gets a uniqueness
//! check — concurrent pops are deletions, so no key may ever be popped
//! twice.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lftrie::core::LockFreeBinaryTrie;

mod common;
use common::{run_watched, stress_iters, WATCHDOG};

#[test]
fn sequential_aggregates_match_btreeset() {
    run_watched("sequential_aggregates_match_btreeset", WATCHDOG, || {
        let universe = 256u64;
        let trie = LockFreeBinaryTrie::new(universe);
        let mut model = BTreeSet::new();
        let mut state = 0x853C49E6748FEA9Bu64;
        for step in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) % universe;
            match state % 8 {
                0 | 1 => assert_eq!(trie.insert(x), model.insert(x), "insert {x} @{step}"),
                2 => assert_eq!(trie.remove(x), model.remove(&x), "remove {x} @{step}"),
                3 => {
                    let hi = (x + 1 + (state >> 17) % 64).min(universe - 1);
                    assert_eq!(
                        trie.count(x..=hi),
                        model.range(x..=hi).count(),
                        "count {x}..={hi} @{step}"
                    );
                }
                4 => {
                    assert_eq!(trie.min(), model.first().copied(), "min @{step}");
                    assert_eq!(trie.max(), model.last().copied(), "max @{step}");
                }
                5 => assert_eq!(trie.pop_min(), model.pop_first(), "pop_min @{step}"),
                6 => {
                    let len = 1 + (state >> 17) % 8;
                    let keys: Vec<u64> = (x..(x + len).min(universe)).collect();
                    let expect = keys.iter().filter(|&&k| model.insert(k)).count();
                    assert_eq!(
                        trie.insert_all(&keys),
                        expect,
                        "insert_all {keys:?} @{step}"
                    );
                }
                _ => {
                    let len = 1 + (state >> 17) % 8;
                    let keys: Vec<u64> = (x..(x + len).min(universe)).collect();
                    let expect = keys.iter().filter(|&&k| model.remove(&k)).count();
                    assert_eq!(
                        trie.delete_all(&keys),
                        expect,
                        "delete_all {keys:?} @{step}"
                    );
                }
            }
        }
        assert_eq!(
            trie.iter_from(0).collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
        assert!(trie.announcements().is_empty());
    });
}

/// Aggregates racing churn: anchors every 16 keys stay present, noise keys
/// come and go. Every answer must be consistent with the anchors alone.
#[test]
fn concurrent_aggregates_respect_stable_anchors() {
    run_watched(
        "concurrent_aggregates_respect_stable_anchors",
        WATCHDOG,
        || {
            let universe = 256u64;
            let anchors: Vec<u64> = (8..universe).step_by(16).collect();
            let (anchor_min, anchor_max) = (anchors[0], *anchors.last().unwrap());
            // Every iteration runs three scan sessions against batch churn; scale
            // the base down so heavy CI budgets stay within the lane's time box.
            let iters = stress_iters(12_000) / 3;
            let trie = Arc::new(LockFreeBinaryTrie::new(universe));
            for &a in &anchors {
                trie.insert(a);
            }
            let stop = Arc::new(AtomicBool::new(false));

            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    let trie = Arc::clone(&trie);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut state = w.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                        while !stop.load(Ordering::SeqCst) {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let k = (state >> 33) % universe;
                            if k % 16 == 8 {
                                continue; // never touch an anchor
                            }
                            // Batched noise updates exercise the shared notify
                            // traversal against the running aggregates.
                            let keys: Vec<u64> = (k..(k + 4).min(universe))
                                .filter(|&x| x % 16 != 8)
                                .collect();
                            if state % 2 == 0 {
                                trie.insert_all(&keys);
                            } else {
                                trie.delete_all(&keys);
                            }
                        }
                    })
                })
                .collect();

            let mut state = 0xA66AA66Au64 | 1;
            for _ in 0..iters {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // min is at most the lowest anchor; max at least the highest.
                let mn = trie.min().expect("anchors keep the set non-empty");
                assert!(mn <= anchor_min, "min {mn} above the lowest anchor");
                let mx = trie.max().expect("anchors keep the set non-empty");
                assert!(
                    (anchor_max..universe).contains(&mx),
                    "max {mx} below the highest anchor"
                );
                // A count over [lo, hi] sees at least the anchors of the window
                // and at most the window's width.
                let lo = (state >> 33) % (universe - 1);
                let hi = (lo + 1 + (state >> 17) % 80).min(universe - 1);
                let n = trie.count(lo..=hi);
                let anchored = anchors.iter().filter(|&&a| (lo..=hi).contains(&a)).count();
                assert!(n >= anchored, "count({lo}..={hi}) = {n} lost anchors");
                assert!(n as u64 <= hi - lo + 1, "count({lo}..={hi}) = {n} too big");
            }
            stop.store(true, Ordering::SeqCst);
            for w in writers {
                w.join().unwrap();
            }
            for &a in &anchors {
                assert!(trie.contains(a), "anchor {a} vanished");
            }
            assert!(trie.announcements().is_empty());
        },
    );
}

/// Regression: `min`/`max` must be single linearizable queries, not
/// `contains` + `successor`/`predecessor` composites. The composite's
/// counterexample — set `{hi}`, `contains(lo)` false, a writer inserts
/// `lo` and removes `hi`, `successor(lo)` (strict) returns `None` — makes
/// `min()` report an empty set although one key was present at every
/// instant. Writers here cycle `{0,1}` (and `{u−2,u−1}` for max) through
/// exactly that schedule while never leaving the pair empty, so any
/// `None` from `min`/`max` is a linearizability violation.
#[test]
fn concurrent_min_max_never_report_a_nonempty_set_empty() {
    run_watched(
        "concurrent_min_max_never_report_a_nonempty_set_empty",
        WATCHDOG,
        || {
            let universe = 256u64;
            let iters = stress_iters(40_000);
            let trie = Arc::new(LockFreeBinaryTrie::new(universe));
            trie.insert(1); // low pair starts as {1}: contains(0) is false
            trie.insert(universe - 2); // high pair starts as {u−2}
            let stop = Arc::new(AtomicBool::new(false));

            let writer = {
                let trie = Arc::clone(&trie);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        // {1} → {0,1} → {0} → {0,1} → {1}: never empty, and each
                        // intermediate state is the composite's failure window.
                        trie.insert(0);
                        trie.remove(1);
                        trie.insert(1);
                        trie.remove(0);
                        let (top, next) = (universe - 1, universe - 2);
                        trie.insert(top);
                        trie.remove(next);
                        trie.insert(next);
                        trie.remove(top);
                    }
                })
            };

            for _ in 0..iters {
                let mn = trie.min().expect("low pair is never empty: min lied");
                assert!(mn <= 1, "min {mn} above the low pair");
                let mx = trie.max().expect("high pair is never empty: max lied");
                assert!(mx >= universe - 2, "max {mx} below the high pair");
            }
            stop.store(true, Ordering::SeqCst);
            writer.join().unwrap();
            assert!(trie.announcements().is_empty());
        },
    );
}

/// `pop_min` is a delete: under concurrency every key is popped at most
/// once, and a prefilled set is popped out exactly.
#[test]
fn concurrent_pop_min_pops_each_key_exactly_once() {
    run_watched(
        "concurrent_pop_min_pops_each_key_exactly_once",
        WATCHDOG,
        || {
            let universe = 1u64 << 10;
            let n_keys = stress_iters(512).min(universe) as usize;
            let trie = Arc::new(LockFreeBinaryTrie::new(universe));
            for k in 0..n_keys as u64 {
                trie.insert(k);
            }
            let popped = Arc::new(Mutex::new(Vec::<u64>::new()));

            let poppers: Vec<_> = (0..4)
                .map(|_| {
                    let trie = Arc::clone(&trie);
                    let popped = Arc::clone(&popped);
                    std::thread::spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(k) = trie.pop_min() {
                            mine.push(k);
                        }
                        popped.lock().unwrap().extend(mine);
                    })
                })
                .collect();
            for p in poppers {
                p.join().unwrap();
            }

            let mut all = Arc::try_unwrap(popped).unwrap().into_inner().unwrap();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..n_keys as u64).collect::<Vec<_>>(),
                "pops must partition the prefilled keys: no loss, no duplicates"
            );
            assert_eq!(trie.min(), None);
            assert!(trie.announcements().is_empty());
        },
    );
}

/// Disjoint per-thread batches with a deterministic final operation: after
/// the dust settles, each block's membership equals its last batch op.
///
/// Blocks are kept small (32 keys): a batch holds its U-ALL announcements
/// live until the shared notify traversal completes, so every concurrent
/// traversal pays for the in-flight batch width — huge batches are a
/// documented anti-pattern, not a stress target.
#[test]
fn concurrent_batches_converge_to_their_final_operation() {
    run_watched(
        "concurrent_batches_converge_to_their_final_operation",
        WATCHDOG,
        || {
            let universe = 1u64 << 10;
            let threads = 4u64;
            let block = 32u64;
            // A round is 4 racing 32-key batches whose cost is quadratic in the
            // in-flight announcement count: heavily downscale the shared base.
            let rounds = stress_iters(50_000) / 1_000;
            let trie = Arc::new(LockFreeBinaryTrie::new(universe));

            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let trie = Arc::clone(&trie);
                    std::thread::spawn(move || {
                        let base = t * block;
                        let keys: Vec<u64> = (base..base + block).collect();
                        for r in 0..rounds {
                            if r % 2 == 0 {
                                trie.insert_all(&keys);
                            } else {
                                trie.delete_all(&keys);
                            }
                        }
                        let last_was_insert = rounds % 2 == 1;
                        (base, block, last_was_insert)
                    })
                })
                .collect();

            for w in workers {
                let (base, block, present) = w.join().unwrap();
                for k in base..base + block {
                    assert_eq!(trie.contains(k), present, "key {k} in block {base}");
                }
            }
            assert!(trie.announcements().is_empty());
            trie.collect_garbage();
            let (_, succ_live) = trie.succ_node_counts();
            assert!(succ_live <= 256, "batch helpers must drain: {succ_live}");
        },
    );
}
