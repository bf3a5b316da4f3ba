//! Quiescent-state validation after heavy shared-key contention: once all
//! threads join, every structure must present a single consistent set —
//! `contains`, `predecessor`, and the announcement machinery must all agree.

use std::sync::Arc;

use lftrie::core::LockFreeBinaryTrie;

mod common;
use common::stress_iters;

/// After quiescence, `predecessor`/`successor` answers and range scans must
/// match a fresh `contains` scan exactly.
fn assert_quiescent_consistency(trie: &LockFreeBinaryTrie, universe: u64) {
    let present: Vec<u64> = (0..universe).filter(|&x| trie.contains(x)).collect();
    for y in 0..universe {
        let expected = present.iter().rev().find(|&&k| k < y).copied();
        assert_eq!(
            trie.predecessor(y),
            expected,
            "quiescent predecessor({y}) disagrees with contains() scan"
        );
        let expected_succ = present.iter().find(|&&k| k > y).copied();
        assert_eq!(
            trie.successor(y),
            expected_succ,
            "quiescent successor({y}) disagrees with contains() scan"
        );
    }
    // Sampled windows plus the full span: scans must reproduce the
    // contains() scan slice for slice.
    let windows = [
        (0, universe - 1),
        (0, universe / 2),
        (universe / 4, 3 * universe / 4),
        (universe - 2, universe - 1),
    ];
    for (lo, hi) in windows {
        let expected: Vec<u64> = present
            .iter()
            .copied()
            .filter(|&k| (lo..=hi).contains(&k))
            .collect();
        assert_eq!(
            trie.range(lo..=hi),
            expected,
            "quiescent range({lo}..={hi}) disagrees with contains() scan"
        );
    }
    assert_eq!(
        trie.iter_from(0).collect::<Vec<_>>(),
        present,
        "quiescent iter_from(0) disagrees with contains() scan"
    );
    assert!(
        trie.announcements().is_empty(),
        "announcement lists must drain at quiescence"
    );
}

#[test]
fn shared_key_hammering_settles_consistently() {
    // All threads fight over the SAME small key set: maximal latest-list,
    // helping, and notification contention.
    let universe = 32u64;
    let iters = stress_iters(5_000);
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) ^ 0x2545F4914F6CDD1D;
                for _ in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % universe;
                    match state % 6 {
                        0 => {
                            trie.insert(k);
                        }
                        1 => {
                            trie.remove(k);
                        }
                        2 => {
                            std::hint::black_box(trie.contains(k));
                        }
                        3 => {
                            std::hint::black_box(trie.predecessor(k));
                        }
                        4 => {
                            std::hint::black_box(trie.successor(k));
                        }
                        _ => {
                            let hi = (k + 8).min(universe - 1);
                            std::hint::black_box(trie.range(k..=hi));
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_quiescent_consistency(&trie, universe);
}

#[test]
fn tiny_universe_maximal_contention() {
    // Universe of 4 (the paper's running example size): every operation
    // collides with every other.
    let universe = 4u64;
    let iters = stress_iters(5_000) / 4;
    for round in 0..10u64 {
        let trie = Arc::new(LockFreeBinaryTrie::new(universe));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    let mut state = t ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
                    for _ in 0..iters {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % universe;
                        if state % 3 == 0 {
                            trie.insert(k);
                        } else if state % 3 == 1 {
                            trie.remove(k);
                        } else {
                            std::hint::black_box(trie.predecessor(k));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_quiescent_consistency(&trie, universe);
    }
}

#[test]
fn alternating_phases_of_growth_and_shrink() {
    let universe = 256u64;
    let iters = stress_iters(5_000);
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    for phase in 0..4 {
        let grow = phase % 2 == 0;
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let trie = Arc::clone(&trie);
                std::thread::spawn(move || {
                    let mut state = t + phase as u64 * 1315423911;
                    for _ in 0..iters {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % universe;
                        if grow {
                            trie.insert(k);
                        } else {
                            trie.remove(k);
                        }
                        std::hint::black_box(trie.predecessor(k.max(1)));
                        std::hint::black_box(trie.successor(k.min(universe - 2)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_quiescent_consistency(&trie, universe);
    }
}

/// Reclamation stress (ISSUE 3): readers park on one epoch guard for a
/// whole churn phase, traversing continuously, while writers supersede the
/// same keys as fast as they can. No use-after-free may occur (the guard
/// keeps every node the readers can see alive), quiescent consistency must
/// hold afterwards, and — once the guards drop — the reclamation backlog
/// must drain to a bounded footprint.
#[test]
fn phase_long_reader_guards_never_see_freed_nodes() {
    let universe = 32u64;
    let iters = stress_iters(5_000);
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // One guard for the entire phase: the strongest laggard a
                // correct EBR must tolerate.
                let _outer = lftrie::primitives::epoch::pin();
                let mut state = r | 1;
                let mut checked = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let y = (state >> 33) % universe;
                    if let Some(k) = trie.predecessor(y.max(1)) {
                        assert!(k < y.max(1), "predecessor returned a non-smaller key");
                    }
                    std::hint::black_box(trie.contains(y));
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0xD1B54A32D192ED03) | 1;
                for _ in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % 8; // hot set: maximal supersession
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have made progress");
    }

    assert_quiescent_consistency(&trie, universe);
    trie.collect_garbage();
    let live = trie.live_nodes();
    assert!(
        live <= 4 * universe as usize + 512,
        "backlog must drain once the phase-long guards drop: {live} live of {}",
        trie.allocated_nodes()
    );
}

/// Scans racing inserts/removes of their own endpoints: writers toggle
/// exactly the two bounds of the scanned window while a stable anchor key
/// sits strictly inside it. Every scan must contain the anchor, stay inside
/// its bounds and strictly increasing, and only ever report the endpoint
/// keys (nothing else is ever inserted). Afterwards the structure must be
/// quiescently consistent.
#[test]
fn scans_racing_their_endpoints_stay_coherent() {
    let universe = 64u64;
    let (lo, hi, anchor) = (10u64, 50u64, 30u64);
    let iters = stress_iters(5_000);
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    trie.insert(anchor);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writers: Vec<_> = [lo, hi]
        .into_iter()
        .map(|endpoint| {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    trie.insert(endpoint);
                    trie.remove(endpoint);
                }
            })
        })
        .collect();

    for _ in 0..iters {
        let scan = trie.range(lo..=hi);
        assert!(
            scan.windows(2).all(|w| w[0] < w[1]),
            "scan not strictly increasing: {scan:?}"
        );
        assert!(
            scan.contains(&anchor),
            "scan lost the stable anchor {anchor}: {scan:?}"
        );
        for &k in &scan {
            assert!(
                k == anchor || k == lo || k == hi,
                "scan invented key {k}: {scan:?}"
            );
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    assert_quiescent_consistency(&trie, universe);
}

#[test]
fn search_is_exact_between_phases() {
    // Search's linearization is a single read; after any quiescent phase it
    // must agree with the full scan.
    let universe = 128u64;
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    let handles: Vec<_> = (0..2u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                for i in 0..universe {
                    if (i + t) % 3 == 0 {
                        trie.insert(i);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for x in 0..universe {
        let expected = x % 3 == 0 || (x + 1) % 3 == 0;
        assert_eq!(trie.contains(x), expected, "key {x}");
    }
    assert_quiescent_consistency(&trie, universe);
}
