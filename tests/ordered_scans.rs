//! Ordered-scan stress: `successor`, `iter_from` and `range` against the
//! `BTreeSet` model, sequentially and under concurrent churn.
//!
//! The concurrent tests partition the keyspace into a *noise band* that
//! writers churn and *anchor keys* nobody touches: every scan must report
//! exactly the anchors in its window, in order, and anything else it
//! reports must come from the noise band — a full-strength coherence check
//! that needs no clocks (the clocked interval checker lives in
//! `linearizability_stress.rs`).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lftrie::core::LockFreeBinaryTrie;

mod common;
use common::stress_iters;

#[test]
fn sequential_scans_match_btreeset() {
    let universe = 256u64;
    let trie = LockFreeBinaryTrie::new(universe);
    let mut model = BTreeSet::new();
    let mut state = 0x9216D5D98979FB1Bu64;
    for step in 0..20_000u64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let x = (state >> 33) % universe;
        match state % 5 {
            0 | 1 => assert_eq!(trie.insert(x), model.insert(x), "insert {x} @{step}"),
            2 => assert_eq!(trie.remove(x), model.remove(&x), "remove {x} @{step}"),
            3 => assert_eq!(
                trie.successor(x),
                model.range(x + 1..).next().copied(),
                "succ {x} @{step}"
            ),
            _ => {
                let hi = (x + 1 + (state >> 17) % 64).min(universe - 1);
                assert_eq!(
                    trie.range(x..=hi),
                    model.range(x..=hi).copied().collect::<Vec<_>>(),
                    "range {x}..={hi} @{step}"
                );
            }
        }
    }
    // Full ordered dump through the iterator.
    assert_eq!(
        trie.iter_from(0).collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    assert!(trie.announcements().is_empty());
}

/// Anchors every 16 keys stay untouched while writers churn the rest;
/// concurrent scans must see exactly the anchors of their window plus
/// possibly some noise keys, strictly increasing and in bounds.
#[test]
fn concurrent_scans_always_contain_the_stable_anchors() {
    let universe = 256u64;
    let anchors: Vec<u64> = (8..universe).step_by(16).collect();
    let iters = stress_iters(4_000);
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
                    // Never touch an anchor.
                    if k % 16 == 8 {
                        continue;
                    }
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                }
            })
        })
        .collect();

    let mut state = 0xC0FFEEu64 | 1;
    for _ in 0..iters {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let lo = (state >> 33) % (universe - 1);
        let hi = (lo + 1 + (state >> 17) % 80).min(universe - 1);
        let scan = trie.range(lo..=hi);
        assert!(
            scan.windows(2).all(|w| w[0] < w[1]),
            "scan not strictly increasing: {scan:?}"
        );
        assert!(
            scan.iter().all(|&k| (lo..=hi).contains(&k)),
            "scan escaped [{lo}, {hi}]: {scan:?}"
        );
        let scanned_anchors: Vec<u64> = scan.iter().copied().filter(|&k| k % 16 == 8).collect();
        let expected_anchors: Vec<u64> = anchors
            .iter()
            .copied()
            .filter(|&a| (lo..=hi).contains(&a))
            .collect();
        assert_eq!(
            scanned_anchors, expected_anchors,
            "scan [{lo}, {hi}] mis-reported the untouched anchors: {scan:?}"
        );
    }
    stop.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
}

/// Cursor-slide scan sessions under churn, including abandoned scans: the
/// iterator announces once, slides per step, and must withdraw its
/// announcement whether it is exhausted, bounded, or dropped mid-scan —
/// so slid successor nodes obey the same memory bound as one-shot ones.
#[test]
fn concurrent_slide_scans_with_abandonment_drain_announcements() {
    let universe = 256u64;
    let anchors: Vec<u64> = (8..universe).step_by(16).collect();
    let iters = stress_iters(4_000);
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
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                }
            })
        })
        .collect();

    let mut state = 0xDEC0DEu64 | 1;
    for _ in 0..iters {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let lo = (state >> 33) % universe;
        // Consume a bounded prefix and drop the iterator there: most scans
        // are abandoned mid-session, exercising Drop-path withdrawal.
        let take = (state >> 17) as usize % 12;
        let scan: Vec<u64> = trie.iter_from(lo).take(take).collect();
        assert!(
            scan.windows(2).all(|w| w[0] < w[1]),
            "scan not strictly increasing: {scan:?}"
        );
        assert!(scan.iter().all(|&k| k >= lo && k < universe));
        // Every anchor in [lo, last-yielded] must have been reported: the
        // consumed prefix is a complete view of that window.
        if let Some(&last) = scan.last() {
            let expected: Vec<u64> = anchors
                .iter()
                .copied()
                .filter(|&a| (lo..=last).contains(&a))
                .collect();
            let scanned: Vec<u64> = scan.iter().copied().filter(|&k| k % 16 == 8).collect();
            assert_eq!(scanned, expected, "prefix [{lo}, {last}] lost anchors");
        }
    }
    stop.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }

    // Memory bound for slid sessions: every announcement withdrew, and the
    // successor-node population drains to the epoch window, independent of how
    // many scans (or slides) ever ran.
    assert!(trie.announcements().is_empty());
    trie.collect_garbage();
    let (succ_created, succ_live) = trie.succ_node_counts();
    assert!(succ_created > 0);
    assert!(
        succ_live <= 256,
        "slid successor nodes must drain: {succ_live} live of {succ_created}"
    );
}

/// Successor queries racing churn on a hot band between two stable keys:
/// the answer must always be a key that is plausibly present — one of the
/// stable keys or a noise key — and never violate the bound given by the
/// closest stable key.
#[test]
fn concurrent_successor_bounded_by_stable_keys() {
    let universe = 128u64;
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    trie.insert(20);
    trie.insert(100);
    let stop = Arc::new(AtomicBool::new(false));
    let iters = stress_iters(10_000);

    let writer = {
        let trie = Arc::clone(&trie);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let k = 40 + (i % 32);
                trie.insert(k);
                trie.remove(k);
                i += 1;
            }
        })
    };

    for _ in 0..iters {
        // Below everything: the answer is 20, always.
        assert_eq!(trie.successor(10), Some(20));
        // Between 20 and the noise: a noise key or the stable 100.
        match trie.successor(30) {
            Some(k) => assert!(k == 100 || (40..72).contains(&k), "got {k}"),
            None => panic!("100 is always present"),
        }
        // Above the noise: exactly 100.
        assert_eq!(trie.successor(80), Some(100));
        // Above everything: nothing.
        assert_eq!(trie.successor(100), None);
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();

    trie.collect_garbage();
    let (succ_created, succ_live) = trie.succ_node_counts();
    assert!(succ_created > 0);
    assert!(
        succ_live <= 256,
        "successor announcements must drain: {succ_live} live of {succ_created}"
    );
}

/// A scan forgotten with `mem::forget` never withdraws, so it keeps its one
/// S-ALL announcement until the trie drops (the contract on `IterFrom`),
/// also after its thread has exited. Updates on other threads still
/// complete, pushing notify records onto the stale node, ordered answers
/// stay exact, and dropping the trie frees the node.
#[test]
fn a_forgotten_scan_keeps_its_announcement_until_the_trie_drops() {
    let universe = 256u64;
    let trie = LockFreeBinaryTrie::new(universe);
    let mut model: BTreeSet<u64> = (0..universe).step_by(4).collect();
    for &k in &model {
        trie.insert(k);
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut iter = trie.iter_from(0);
            assert_eq!(iter.next(), Some(0));
            // The first successor step announces the scan's node.
            assert_eq!(iter.next(), Some(4));
            std::mem::forget(iter);
        });
    });
    trie.collect_garbage();
    let lens = trie.announcements();
    assert_eq!(
        (lens.uall, lens.ruall, lens.pall, lens.sall),
        (0, 0, 0, 1),
        "the forgotten scan's announcement must stay until the trie drops"
    );

    std::thread::scope(|s| {
        s.spawn(|| {
            for k in (1..universe).step_by(4) {
                assert!(trie.insert(k), "insert {k}");
            }
            for k in (0..universe).step_by(8) {
                assert!(trie.remove(k), "remove {k}");
            }
        });
    });
    model.extend((1..universe).step_by(4));
    for k in (0..universe).step_by(8) {
        model.remove(&k);
    }
    for y in 0..universe {
        assert_eq!(
            trie.successor(y),
            model.range(y + 1..).next().copied(),
            "successor({y})"
        );
    }
    for lo in (0..universe).step_by(37) {
        let hi = (lo + 50).min(universe - 1);
        assert_eq!(
            trie.range(lo..=hi),
            model.range(lo..=hi).copied().collect::<Vec<_>>(),
            "range({lo}..={hi})"
        );
    }
    trie.collect_garbage();
    assert_eq!(trie.announcements().sall, 1);
    // Teardown frees the still-announced node; the sanitizer lanes check
    // that path.
    drop(trie);
}
