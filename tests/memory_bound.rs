//! Memory-bound regression suite: steady-state churn must not grow resident
//! memory (ISSUE 3's acceptance test).
//!
//! The paper assumes garbage collection, and the original reproduction
//! deferred every free to structure drop — so `live == allocated` and the
//! footprint grew linearly with the *total number of updates ever
//! performed*. With epoch-based reclamation, `live = allocated − reclaimed`
//! must instead stay under a ceiling determined by the universe (Θ(u)
//! structural slots), the live set, and the epoch window — **independent of
//! the iteration count**. Each test here asserts both directions:
//!
//! * `live ≤ ceiling` (fails on the drop-only arena), and
//! * `allocated ≫ ceiling` (proves the run generated enough garbage that
//!   the first assertion is meaningful — under `live == allocated` the
//!   ceiling would be exceeded many times over).
//!
//! `LFTRIE_STRESS_ITERS` scales the churn up; the ceilings do **not** scale
//! with it, which is exactly the bounded-garbage claim.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lftrie::core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};

mod common;
use common::{needed_dummies, stress_iters};

/// Steady-state ceiling for the lock-free trie over universe `u`: ≤ `2^b`
/// latest-list heads (INS, DEL or installed dummy nodes; a head no update
/// has touched is null and holds none), ≤ `2^b − 1` DEL nodes held by
/// `dNodePtr` slots, ≤ `2^b` DEL nodes held by live INS `target` edges,
/// plus the epoch window (amortized sweeps run every few dozen retires per
/// registry) and helper slack.
fn ceiling(universe: u64) -> usize {
    4 * universe as usize + 512
}

#[test]
fn sustained_churn_has_bounded_live_nodes() {
    let universe = 64u64;
    let key_span = 16u64; // small hot set: maximal per-key supersession
    let iters = stress_iters(12_000);
    let threads = 4u64;
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    let initial = trie.allocated_nodes();

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03;
                for _ in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % key_span;
                    match state % 6 {
                        0 | 1 => {
                            trie.insert(k);
                        }
                        2 => {
                            trie.remove(k);
                        }
                        3 => {
                            std::hint::black_box(trie.predecessor(k.max(1)));
                        }
                        4 => {
                            std::hint::black_box(trie.successor(k));
                        }
                        _ => {
                            std::hint::black_box(trie.range(k..=(k + 8).min(universe - 1)));
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    trie.collect_garbage();
    let allocated = trie.allocated_nodes();
    let live = trie.live_nodes();
    let reclaimed = trie.reclaimed_nodes();
    assert_eq!(allocated - reclaimed, live, "accounting must be consistent");

    // Direction 1 (fails on the drop-only seed arena, where live == allocated):
    assert!(
        live <= ceiling(universe),
        "steady-state live nodes must be bounded: {live} live after {allocated} \
         cumulative allocations (ceiling {})",
        ceiling(universe)
    );
    // Direction 2: the run must have produced enough garbage for the bound
    // to be meaningful — the drop-only arena would sit at `allocated` live.
    assert!(
        allocated >= 10 * ceiling(universe),
        "churn too small to exercise reclamation: {allocated} cumulative"
    );
    assert!(
        reclaimed >= allocated - ceiling(universe),
        "reclamation must keep up: only {reclaimed} of {allocated} freed"
    );
    let _ = initial;

    // Predecessor nodes churn too (three per delete-with-predecessor pair).
    let (pred_allocated, pred_live) = trie.pred_node_counts();
    assert!(
        pred_live <= 512,
        "predecessor nodes must be reclaimed: {pred_live} live of {pred_allocated}"
    );

    // The successor-side mirrors: every delete embeds two SuccHelper runs
    // and every successor query announces one, so the S-ALL churns at the
    // same rate as the P-ALL and must obey the same bound.
    let (succ_allocated, succ_live) = trie.succ_node_counts();
    assert!(
        succ_allocated >= 2 * ceiling(universe),
        "churn too small to exercise successor-node reclamation: {succ_allocated}"
    );
    assert!(
        succ_live <= 512,
        "successor nodes must be reclaimed: {succ_live} live of {succ_allocated}"
    );
    let cells = trie.cell_allocs();
    let (pall_cells, sall_cells) = (cells.pall, cells.sall);
    for (name, cells) in [("P-ALL", &pall_cells), ("S-ALL", &sall_cells)] {
        assert!(
            cells.resident <= 512 + pool_allowance(threads as usize),
            "{name} cells must stay bounded: {} resident of {} created",
            cells.resident,
            cells.created
        );
        assert!(
            cells.created > cells.resident,
            "{name} churn must have retired announcement cells"
        );
    }

    // With allocation pooling, *heap-resident* memory (recycle pools
    // included) must obey the same shape: live nodes plus the pool caps
    // (per-thread free lists and bags, plus the shared stock), never the
    // cumulative series.
    let stats = trie.node_alloc_stats();
    assert_eq!(stats.created, allocated, "created is the cumulative series");
    assert!(
        stats.resident <= ceiling(universe) + pool_allowance(threads as usize),
        "heap-resident nodes (pools included) must stay bounded: {} resident of {} created",
        stats.resident,
        stats.created
    );
    assert!(
        stats.fresh < stats.created,
        "some allocations must have been served from the pools"
    );
}

/// Per-registry pool allowance: each thread's local free list (64) and
/// retire bag (32) plus the shared recycle stock (1024), with slack for the
/// main thread's sweeps.
fn pool_allowance(threads: usize) -> usize {
    (threads + 1) * (64 + 32) + 1024
}

#[test]
fn live_count_is_flat_while_churning() {
    // The stronger shape claim: sample the footprint *during* churn and
    // require every sample under a fixed ceiling — a linear ramp (the seed
    // behaviour) blows through it almost immediately. The default iteration
    // count is sized so cumulative allocations comfortably clear twice the
    // ceiling (the "this test can tell a ramp from a plateau" guard below).
    let universe = 32u64;
    let iters = stress_iters(24_000);
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t ^ 0xA076_1D64_78BD_642F;
                for i in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % universe;
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                    // On an oversubscribed single-core host a thread
                    // preempted mid-pin parks the epoch for a whole
                    // scheduling quantum, so the in-flight window measures
                    // the scheduler, not the collector. Yielding at op
                    // boundaries (unpinned) keeps the test about the
                    // structure; real multi-core deployments don't preempt
                    // microsecond-scale pins wholesale.
                    if i % 64 == 63 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let sampler = {
        let trie = Arc::clone(&trie);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !stop.load(Ordering::SeqCst) {
                max_seen = max_seen.max(trie.live_nodes());
                std::thread::yield_now();
            }
            max_seen
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let max_live = sampler.join().unwrap();

    // Mid-run the epoch window and per-registry sweep batches are in
    // flight, so the in-flight ceiling is looser than the quiescent one —
    // but still constant in the iteration count (the drop-only arena blows
    // through it after ~10k updates regardless of the constant chosen).
    //
    // On an oversubscribed shared runner a writer descheduled *inside* a
    // pinned section can park the epoch for a whole scheduling quantum and
    // spike the window past the ceiling; that is scheduler noise, not a
    // ramp. Distinguish the two: a genuine ramp (live == allocated) keeps
    // climbing to the cumulative count and never drains, so on a ceiling
    // breach require (a) the spike stayed well below cumulative and (b) the
    // backlog drains to the quiescent ceiling once churn stops.
    let in_flight_ceiling = 8 * universe as usize + 8192;
    let allocated = trie.allocated_nodes();
    if max_live > in_flight_ceiling {
        assert!(
            max_live <= allocated / 2,
            "mid-churn footprint ramped: max {max_live} live of {allocated} cumulative \
             (ceiling {in_flight_ceiling})"
        );
        trie.collect_garbage();
        assert!(
            trie.live_nodes() <= ceiling(universe),
            "mid-churn spike failed to drain: {} live of {allocated} cumulative",
            trie.live_nodes()
        );
    }
    assert!(
        allocated >= 2 * in_flight_ceiling,
        "churn too small to distinguish a ramp from a plateau"
    );
}

#[test]
fn relaxed_trie_churn_is_bounded_too() {
    let universe = 64u64;
    let iters = stress_iters(12_000);
    let trie = Arc::new(RelaxedBinaryTrie::new(universe));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0x2545F4914F6CDD1D) | 1;
                for _ in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % universe;
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    trie.collect_garbage();
    let live = trie.live_nodes();
    assert!(
        live <= ceiling(universe),
        "relaxed-trie live nodes must be bounded: {live} live of {} cumulative",
        trie.allocated_nodes()
    );
    assert!(trie.allocated_nodes() >= 10 * ceiling(universe));
}

/// Two threads of insert/remove churn over all of `trie`'s keys.
fn churn_two_threads(trie: &Arc<LockFreeBinaryTrie>, iters: u64) {
    let universe = trie.universe();
    let handles: Vec<_> = (0..2u64)
        .map(|t| {
            let trie = Arc::clone(trie);
            std::thread::spawn(move || {
                let mut state = t | 1;
                for _ in 0..iters {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % universe;
                    if state % 2 == 0 {
                        trie.insert(k);
                    } else {
                        trie.remove(k);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn reader_guards_only_delay_reclamation_not_unbound_it() {
    // A reader parked on a guard blocks epoch advance while pinned; once it
    // unpins, the backlog drains back under the ceiling.
    let universe = 32u64;
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));

    let guard = trie.domain().pin();
    churn_two_threads(&trie, stress_iters(12_000) / 2);
    // While pinned, the backlog may hold (almost) everything retired since
    // the pin. Unpin and drain:
    drop(guard);
    trie.collect_garbage();
    let live = trie.live_nodes();
    assert!(
        live <= ceiling(universe),
        "backlog must drain after the long-lived guard unpins: {live} live"
    );
}

#[test]
fn readers_pinned_on_other_domains_do_not_hold_back_reclamation() {
    // Each trie owns its epoch domain: a reader pinned on the global
    // domain, or on another trie's, blocks none of this trie's epoch
    // advances, so its garbage drains under the ceiling while both pins
    // are still held.
    let universe = 32u64;
    let other = LockFreeBinaryTrie::new(universe);
    let _global = lftrie::primitives::epoch::pin();
    let _other = other.domain().pin();
    let trie = Arc::new(LockFreeBinaryTrie::new(universe));

    churn_two_threads(&trie, stress_iters(12_000) / 2);
    trie.collect_garbage();
    let live = trie.live_nodes();
    assert!(
        live <= ceiling(universe),
        "pins on other domains held back this trie's garbage: {live} live of {}",
        trie.allocated_nodes()
    );
    assert!(trie.allocated_nodes() >= 4 * ceiling(universe));
}

#[test]
fn an_insert_only_prefill_frees_every_displaced_dummy() {
    // Every even key leads a height-1 subtree, so its dummy is what that
    // subtree's dNodePtr slot stood for before any delete. The slot holds
    // no count on it, so the first insert of the key frees the dummy like
    // any other superseded node: one node per inserted key stays, its INS
    // node. No insert needs an odd key's dummy, so none is made. Ascending
    // order sets no insert `target`, so no dummy is held for that reason
    // either.
    let universe = 1u64 << 10;
    let trie = LockFreeBinaryTrie::new(universe);
    for k in (0..universe).step_by(2) {
        assert!(trie.insert(k));
    }
    trie.collect_garbage();
    assert_eq!(
        trie.live_nodes(),
        universe as usize / 2,
        "displaced dummies stay resident after an insert-only prefill"
    );
}

#[test]
fn a_trie_that_has_only_been_read_allocates_no_update_node() {
    // Every latest[x] starts null, standing for x's dummy, and no read
    // installs it: queries and failed removes of absent keys leave the
    // update-node registry empty.
    let universe = 1u64 << 16;
    let keys = (0..universe).step_by(251).chain([universe - 1]);
    let trie = LockFreeBinaryTrie::new(universe);
    for k in keys.clone() {
        assert!(!trie.contains(k));
        assert_eq!(trie.predecessor(k), None);
        assert_eq!(trie.successor(k), None);
        assert!(!trie.remove(k));
    }
    assert_eq!((trie.min(), trie.max()), (None, None));
    assert!(trie.range(0..=universe - 1).is_empty());
    assert_eq!(trie.allocated_nodes(), 0, "a read allocated an update node");

    let relaxed = RelaxedBinaryTrie::new(universe);
    for k in keys {
        assert!(!relaxed.contains(k));
        assert_eq!(relaxed.predecessor(k), RelaxedPred::NoneSmaller);
        assert_eq!(relaxed.successor(k), RelaxedSucc::NoneGreater);
        assert!(!relaxed.remove(k));
    }
    assert_eq!(
        relaxed.allocated_nodes(),
        0,
        "a read allocated an update node"
    );
}

#[test]
fn an_ascending_fill_keeps_only_the_dummies_inserts_need() {
    // A seeded random half of the universe, inserted in ascending order.
    // Each present key keeps its INS node. An absent key keeps a dummy
    // only if an insert's walk wrote it (L43/L46): an even key x with a
    // present key in the subtree it leads. Ascending order leaves no
    // displaced dummy targeted, so every other dummy is freed.
    let universe = 1u64 << 12;
    let mut keys: Vec<u64> = (0..universe).collect();
    let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
    for i in (1..keys.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        keys.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    let present: BTreeSet<u64> = keys[..keys.len() / 2].iter().copied().collect();
    let trie = LockFreeBinaryTrie::new(universe);
    for &k in &present {
        assert!(trie.insert(k));
    }
    trie.collect_garbage();
    let expected = present.len() + needed_dummies(&present, universe);
    assert!(expected < universe as usize);
    assert_eq!(
        trie.live_nodes(),
        expected,
        "the fill kept a dummy no insert needed, or freed one it did"
    );
}
