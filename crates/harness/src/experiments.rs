//! The experiment runners: one function per experiment, E1–E12.
//!
//! The paper has no empirical section (its "tables" are complexity claims
//! and its figures are example executions), so each runner regenerates a
//! *claim*: it prints the measured series whose shape the paper predicts.

use std::time::Duration;

use lftrie_baselines::{
    CoarseBTreeSet, ConcurrentOrderedSet, FlatCombiningBinaryTrie, HarrisListSet, LockFreeSkipList,
    MutexBinaryTrie, RwLockBinaryTrie,
};
use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::{self, RunConfig};
use crate::report::Table;
use crate::workload::{prefill, OpMix};

const SEED: u64 = 0x005E_ED0F_1F7E;

// Capped at 8: beyond the hardware thread count the announcement lists grow
// with every preempted-mid-operation updater, and on a 1-core host 16-way
// oversubscription measures the scheduler more than the structure (D9).
fn thread_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// E1 — `Search` is O(1): steps per search are flat across universe sizes.
pub fn e1_search_steps(quick: bool) -> Table {
    let mut table = Table::new(
        "E1: Search step complexity (claim: O(1), flat in u)",
        &["u", "log2(u)", "steps/hit", "steps/miss", "ns/search"],
    );
    let exponents: &[u32] = if quick {
        &[8, 12, 16]
    } else {
        &[8, 12, 16, 20]
    };
    for &e in exponents {
        let u = 1u64 << e;
        let trie = LockFreeBinaryTrie::new(u);
        let mut rng = StdRng::seed_from_u64(SEED);
        let present: Vec<u64> = (0..500).map(|_| rng.gen_range(0..u / 2) * 2).collect();
        for &k in &present {
            trie.insert(k);
        }
        let probes = 2_000usize;
        let (hit_elapsed, hit_steps) = driver::measure_solo(|| {
            for i in 0..probes {
                std::hint::black_box(trie.contains(present[i % present.len()]));
            }
        });
        let (_, miss_steps) = driver::measure_solo(|| {
            for i in 0..probes {
                std::hint::black_box(trie.contains((2 * i + 1) as u64 % u));
            }
        });
        table.row(&[
            format!("2^{e}"),
            e.to_string(),
            format!("{:.2}", hit_steps.steps() as f64 / probes as f64),
            format!("{:.2}", miss_steps.steps() as f64 / probes as f64),
            format!("{:.1}", hit_elapsed.as_nanos() as f64 / probes as f64),
        ]);
    }
    table
}

/// E2 — relaxed-trie updates and predecessor are O(log u) worst case: solo
/// steps per operation grow linearly in log u. The `ns/*` columns time the
/// same solo loops, with step counting on, as E1's `ns/search` does.
pub fn e2_relaxed_op_steps(quick: bool) -> Table {
    let mut table = Table::new(
        "E2: relaxed-trie solo op steps (claim: linear in log u)",
        &[
            "u",
            "log2(u)",
            "steps/insert",
            "steps/delete",
            "steps/pred",
            "ns/insert",
            "ns/delete",
            "ns/pred",
        ],
    );
    let exponents: &[u32] = if quick {
        &[8, 12, 16]
    } else {
        &[8, 12, 16, 20]
    };
    for &e in exponents {
        let u = 1u64 << e;
        let trie = RelaxedBinaryTrie::new(u);
        let mut rng = StdRng::seed_from_u64(SEED + u64::from(e));
        let keys: Vec<u64> = (0..500).map(|_| rng.gen_range(0..u)).collect();
        let (ins_elapsed, ins) = driver::measure_solo(|| {
            for &k in &keys {
                trie.insert(k);
            }
        });
        let (pred_elapsed, pred) = driver::measure_solo(|| {
            for &k in &keys {
                std::hint::black_box(trie.predecessor(k));
            }
        });
        let (del_elapsed, del) = driver::measure_solo(|| {
            for &k in &keys {
                trie.remove(k);
            }
        });
        let n = keys.len() as f64;
        table.row(&[
            format!("2^{e}"),
            e.to_string(),
            format!("{:.1}", ins.steps() as f64 / n),
            format!("{:.1}", del.steps() as f64 / n),
            format!("{:.1}", pred.steps() as f64 / n),
            format!("{:.1}", ins_elapsed.as_nanos() as f64 / n),
            format!("{:.1}", del_elapsed.as_nanos() as f64 / n),
            format!("{:.1}", pred_elapsed.as_nanos() as f64 / n),
        ]);
    }
    table
}

/// E3 — amortized cost vs point contention: steps/op and CAS/op for the
/// lock-free trie as thread count (≈ ċ) grows, at fixed u.
pub fn e3_contention_steps(quick: bool) -> Table {
    let mut table = Table::new(
        "E3: lock-free trie steps vs contention (claim: O(c^2 + log u) amortized)",
        &["mix", "threads", "steps/op", "CAS/op", "Mops/s"],
    );
    let universe = 1u64 << 14;
    let ops = if quick { 4_000 } else { 20_000 };
    for mix in [OpMix::UPDATE_HEAVY, OpMix::PRED_HEAVY] {
        for &threads in &thread_counts(quick) {
            let trie = LockFreeBinaryTrie::new(universe);
            prefill(&trie, universe, 0.3, SEED);
            let res = driver::run(
                &trie,
                &RunConfig {
                    threads,
                    ops_per_thread: ops,
                    universe,
                    mix,
                    seed: SEED,
                },
            );
            table.row(&[
                mix.label().to_string(),
                threads.to_string(),
                format!("{:.1}", res.steps_per_op),
                format!("{:.2}", res.cas_per_op),
                format!("{:.3}", res.mops),
            ]);
        }
    }
    table
}

/// E4 — throughput comparison across structures, mixes and thread counts.
pub fn e4_throughput(quick: bool) -> Vec<Table> {
    let universe = 1u64 << 16;
    let small_universe = 1u64 << 10; // Harris list is O(n): keep n humane
    let ops = if quick { 3_000 } else { 20_000 };
    let mut tables = Vec::new();
    for mix in [OpMix::UPDATE_HEAVY, OpMix::SEARCH_HEAVY, OpMix::PRED_HEAVY] {
        let mut table = Table::new(
            format!("E4: throughput, {} mix (Mops/s)", mix.label()),
            &["structure", "threads", "Mops/s"],
        );
        for &threads in &thread_counts(quick) {
            // Each structure gets a fresh instance + prefill per cell.
            let run_one = |set: &dyn ConcurrentOrderedSet, u: u64, ops: u64| -> f64 {
                prefill(set, u, 0.2, SEED);
                driver::run(
                    set,
                    &RunConfig {
                        threads,
                        ops_per_thread: ops,
                        universe: u,
                        mix,
                        seed: SEED,
                    },
                )
                .mops
            };
            let lft = LockFreeBinaryTrie::new(universe);
            table.row(&[
                lft.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&lft, universe, ops)),
            ]);
            let rlx = RelaxedBinaryTrie::new(universe);
            table.row(&[
                rlx.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&rlx, universe, ops)),
            ]);
            let mtx = MutexBinaryTrie::new(universe);
            table.row(&[
                mtx.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&mtx, universe, ops)),
            ]);
            let rwl = RwLockBinaryTrie::new(universe);
            table.row(&[
                rwl.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&rwl, universe, ops)),
            ]);
            let btr = CoarseBTreeSet::new();
            table.row(&[
                btr.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&btr, universe, ops)),
            ]);
            let fcb = FlatCombiningBinaryTrie::new(universe);
            table.row(&[
                fcb.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&fcb, universe, ops)),
            ]);
            let skl = LockFreeSkipList::new();
            table.row(&[
                skl.name().to_string(),
                threads.to_string(),
                format!("{:.3}", run_one(&skl, universe, ops)),
            ]);
            let har = HarrisListSet::new();
            table.row(&[
                format!("{} (u=2^10)", har.name()),
                threads.to_string(),
                format!("{:.3}", run_one(&har, small_universe, ops / 4)),
            ]);
        }
        tables.push(table);
    }
    tables
}

/// E5 — the relaxed trie's ⊥ rate: zero without updates, growing with the
/// update share; plus how often the lock-free trie's predecessor needed the
/// recovery path.
pub fn e5_bottom_rate(quick: bool) -> Table {
    let mut table = Table::new(
        "E5: RelaxedPredecessor ⊥ rate vs update share (claim: 0 solo, grows with contention)",
        &[
            "update %",
            "threads",
            "preds",
            "⊥ rate %",
            "lockfree recovery %",
        ],
    );
    // A small universe keeps update and query paths overlapping, so the
    // interference the specification permits actually materializes.
    let universe = 1u64 << 8;
    let per_thread = if quick { 5_000u64 } else { 30_000 };
    let threads = if quick { 2usize } else { 4 };
    for update_pct in [0u32, 25, 50, 75] {
        let relaxed = RelaxedBinaryTrie::new(universe);
        let lockfree = LockFreeBinaryTrie::new(universe);
        for s in (0..universe).step_by(7) {
            relaxed.insert(s);
            lockfree.insert(s);
        }
        let run_counts = |which: usize| -> (u64, u64) {
            // returns (preds, bottoms) for the relaxed trie; lockfree uses counters
            let preds = std::sync::atomic::AtomicU64::new(0);
            let bottoms = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let relaxed = &relaxed;
                    let lockfree = &lockfree;
                    let preds = &preds;
                    let bottoms = &bottoms;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(SEED + t as u64 + which as u64 * 97);
                        for _ in 0..per_thread {
                            let k = rng.gen_range(0..universe);
                            if rng.gen_range(0..100u32) < update_pct {
                                if rng.gen_bool(0.5) {
                                    if which == 0 {
                                        relaxed.insert(k);
                                    } else {
                                        lockfree.insert(k);
                                    }
                                } else if which == 0 {
                                    relaxed.remove(k);
                                } else {
                                    lockfree.remove(k);
                                }
                            } else if which == 0 {
                                preds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if relaxed.predecessor(k) == RelaxedPred::Interference {
                                    bottoms.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            } else {
                                preds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                std::hint::black_box(lockfree.predecessor(k));
                            }
                        }
                    });
                }
            });
            (
                preds.load(std::sync::atomic::Ordering::Relaxed),
                bottoms.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let (preds_r, bottoms_r) = run_counts(0);
        let (preds_l, _) = run_counts(1);
        let lf_bottoms = lockfree.pred_traversal().bottoms;
        table.row(&[
            update_pct.to_string(),
            threads.to_string(),
            preds_r.to_string(),
            format!("{:.3}", 100.0 * bottoms_r as f64 / preds_r.max(1) as f64),
            format!("{:.3}", 100.0 * lf_bottoms as f64 / preds_l.max(1) as f64),
        ]);
    }
    table
}

/// E6 — space: cumulative allocations grow with the update count (the
/// paper's GC-model hand-off), but the *resident* footprint — live =
/// allocated − reclaimed, the number the epoch collector actually keeps —
/// stays within O(u) regardless of how many updates ran
/// (`tests/memory_bound.rs` asserts the bound). The initial configuration
/// allocates no update node: a key's dummy is made only once an insert
/// needs it, so `initial` is 0 at every u.
/// The baselines report through the same registry accounting, so the
/// steady-state comparison is apples-to-apples.
pub fn e6_space(quick: bool) -> Table {
    let mut table = Table::new(
        "E6: update-node space (claim: cumulative ~ updates, live ~ O(u) steady state)",
        &[
            "structure",
            "u",
            "initial",
            "cumulative",
            "live",
            "reclaimed",
            "ops",
            "live delta/op",
        ],
    );
    let exponents: &[u32] = if quick { &[10, 14] } else { &[10, 14, 18] };
    let ops = if quick { 10_000u64 } else { 50_000 };
    for &e in exponents {
        let u = 1u64 << e;
        let trie = LockFreeBinaryTrie::new(u);
        let initial = trie.allocated_nodes();
        driver::run(
            &trie,
            &RunConfig {
                threads: 2,
                ops_per_thread: ops / 2,
                universe: u,
                mix: OpMix::UPDATE_HEAVY,
                seed: SEED,
            },
        );
        trie.collect_garbage();
        let cumulative = trie.allocated_nodes();
        let live = trie.live_nodes();
        table.row(&[
            "lockfree-trie".to_string(),
            format!("2^{e}"),
            initial.to_string(),
            cumulative.to_string(),
            live.to_string(),
            trie.reclaimed_nodes().to_string(),
            ops.to_string(),
            format!("{:.3}", (live as f64 - initial as f64) / ops as f64),
        ]);
    }
    // Baseline rows (same op count, pointer-structure universe = key range).
    let u = 1u64 << exponents[0];
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: ops / 2,
        universe: u,
        mix: OpMix::UPDATE_HEAVY,
        seed: SEED,
    };
    {
        let list = HarrisListSet::new();
        driver::run(&list, &cfg);
        list.collect_garbage();
        let (cumulative, live) = list.node_counts();
        table.row(&[
            "harris-list".to_string(),
            format!("2^{}", exponents[0]),
            "2".to_string(),
            cumulative.to_string(),
            live.to_string(),
            (cumulative - live).to_string(),
            ops.to_string(),
            format!("{:.3}", live as f64 / ops as f64),
        ]);
    }
    {
        let skip = LockFreeSkipList::new();
        driver::run(&skip, &cfg);
        skip.collect_garbage();
        let (cumulative, live) = skip.node_counts();
        table.row(&[
            "lockfree-skiplist".to_string(),
            format!("2^{}", exponents[0]),
            "2".to_string(),
            cumulative.to_string(),
            live.to_string(),
            (cumulative - live).to_string(),
            ops.to_string(),
            format!("{:.3}", live as f64 / ops as f64),
        ]);
    }
    table
}

/// E7 — progress: operations completed by other threads while an updater is
/// stalled, lock-free trie vs global-lock baseline.
pub fn e7_progress(quick: bool) -> Table {
    let mut table = Table::new(
        "E7: ops completed in 200 ms with a stalled updater (claim: lock-free ≫ lock-based)",
        &["structure", "stall kind", "threads", "ops completed"],
    );
    let universe = 1u64 << 10;
    let threads = if quick { 2 } else { 4 };
    let window = Duration::from_millis(200);

    #[cfg(feature = "fault-injection")]
    {
        use lftrie_core::fault::{self, FaultPoint};
        let trie = LockFreeBinaryTrie::new(universe);
        prefill(&trie, universe, 0.2, SEED);
        // Stall inserts of four keys right after their linearization
        // (announced, activated, never completed), then measure everyone
        // else. A key the prefill already holds does not stall.
        let stalled = [3u64, 257, 511, 769]
            .into_iter()
            .filter(|&k| fault::suspend_at(FaultPoint::InsertLinearized, || trie.insert(k)))
            .count();
        let done = driver::run_against_stall(
            threads,
            window,
            |t| {
                let mut rng = StdRng::seed_from_u64(SEED + t as u64);
                let k = rng.gen_range(0..universe);
                match rng.gen_range(0..4) {
                    0 => {
                        trie.insert(k);
                    }
                    1 => {
                        trie.remove(k);
                    }
                    2 => {
                        std::hint::black_box(trie.contains(k));
                    }
                    _ => {
                        std::hint::black_box(trie.predecessor(k));
                    }
                }
                1
            },
            || {},
        );
        table.row(&[
            "lockfree-trie".to_string(),
            format!("{stalled} stalled inserts"),
            threads.to_string(),
            done.to_string(),
        ]);
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        table.row(&[
            "lockfree-trie".to_string(),
            "(rebuild with --features fault-injection)".to_string(),
            threads.to_string(),
            "n/a".to_string(),
        ]);
    }

    let mutex_trie = MutexBinaryTrie::new(universe);
    prefill(&mutex_trie, universe, 0.2, SEED);
    let window_for_stall = window;
    let done = driver::run_against_stall(
        threads,
        window,
        |t| {
            let mut rng = StdRng::seed_from_u64(SEED + t as u64);
            let k = rng.gen_range(0..universe);
            match rng.gen_range(0..4) {
                0 => {
                    mutex_trie.insert(k);
                }
                1 => {
                    mutex_trie.remove(k);
                }
                2 => {
                    std::hint::black_box(mutex_trie.contains(k));
                }
                _ => {
                    std::hint::black_box(mutex_trie.predecessor(k));
                }
            }
            1
        },
        || {
            let guard = mutex_trie.stall_guard();
            std::thread::sleep(window_for_stall);
            drop(guard);
        },
    );
    table.row(&[
        "mutex-trie".to_string(),
        "lock held 200 ms".to_string(),
        threads.to_string(),
        done.to_string(),
    ]);
    table
}

/// E8 — predecessor latency distribution under background updates: the
/// lock-free trie must not exhibit the lock-convoy tail of the blocking
/// baselines.
pub fn e8_latency(quick: bool) -> Table {
    let mut table = Table::new(
        "E8: predecessor latency under 2 background updaters (ns)",
        &["structure", "p50", "p90", "p99", "p99.9", "max"],
    );
    let universe = 1u64 << 14;
    let samples = if quick { 20_000usize } else { 100_000 };

    let mut run_latency = |name: String, set: &dyn ConcurrentOrderedSet| {
        prefill(set, universe, 0.3, SEED);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut lat = Vec::with_capacity(samples);
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let stop = &stop;
                let set: &dyn ConcurrentOrderedSet = set;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(SEED ^ w);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.gen_range(0..universe);
                        set.insert(k);
                        set.remove(k);
                    }
                });
            }
            let mut rng = StdRng::seed_from_u64(SEED ^ 0xFF);
            for _ in 0..samples {
                let y = rng.gen_range(1..universe);
                let t0 = std::time::Instant::now();
                std::hint::black_box(set.predecessor(y));
                lat.push(t0.elapsed().as_nanos() as u64);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        lat.sort_unstable();
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        table.row(&[
            name,
            pct(0.50).to_string(),
            pct(0.90).to_string(),
            pct(0.99).to_string(),
            pct(0.999).to_string(),
            lat.last().unwrap().to_string(),
        ]);
    };

    let lft = LockFreeBinaryTrie::new(universe);
    run_latency(lft.name().to_string(), &lft);
    let mtx = MutexBinaryTrie::new(universe);
    run_latency(mtx.name().to_string(), &mtx);
    let rwl = RwLockBinaryTrie::new(universe);
    run_latency(rwl.name().to_string(), &rwl);
    let skl = LockFreeSkipList::new();
    run_latency(skl.name().to_string(), &skl);
    table
}

/// E9 — ordered range scans: throughput and tail latency of `range(a..=b)`
/// vs scan width and update share, across the trie and every baseline.
///
/// The lock-free trie pays one certified successor step per reported key
/// (per-step snapshot); the lock-based structures scan under one critical
/// section (atomic snapshot, but a blocking one) — this experiment
/// quantifies that trade.
pub fn e9_scan(quick: bool) -> Table {
    let mut table = Table::new(
        "E9: range-scan throughput/latency vs width and update share",
        &[
            "structure",
            "width",
            "update %",
            "scans/s",
            "keys/scan",
            "p50 ns",
            "p99 ns",
        ],
    );
    let universe = 1u64 << 12;
    let small_universe = 1u64 << 9; // Harris list is O(n) per step
    let scans = if quick { 400usize } else { 2_000 };
    let widths: &[u64] = if quick { &[16, 256] } else { &[16, 256, 2048] };

    let mut run_scan =
        |name: String, set: &dyn ConcurrentOrderedSet, u: u64, width: u64, update_pct: u32| {
            prefill(set, u, 0.3, SEED);
            let stop = std::sync::atomic::AtomicBool::new(false);
            let mut lat = Vec::with_capacity(scans);
            let mut keys_total = 0u64;
            let updaters = if update_pct == 0 { 0 } else { 2u64 };
            let scanned = std::thread::scope(|scope| {
                for w in 0..updaters {
                    let stop = &stop;
                    let set: &dyn ConcurrentOrderedSet = set;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(SEED ^ (w + 1));
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let k = rng.gen_range(0..u);
                            if rng.gen_range(0..100u32) < update_pct {
                                if rng.gen_bool(0.5) {
                                    set.insert(k);
                                } else {
                                    set.remove(k);
                                }
                            } else {
                                std::hint::black_box(set.contains(k));
                            }
                        }
                    });
                }
                let mut rng = StdRng::seed_from_u64(SEED ^ 0xE9);
                let t0 = std::time::Instant::now();
                for _ in 0..scans {
                    let lo = rng.gen_range(0..u);
                    let hi = (lo + width - 1).min(u - 1);
                    let s0 = std::time::Instant::now();
                    let out = set.range(lo, hi);
                    lat.push(s0.elapsed().as_nanos() as u64);
                    keys_total += out.len() as u64;
                    std::hint::black_box(out);
                }
                let elapsed = t0.elapsed();
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                elapsed
            });
            lat.sort_unstable();
            let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
            table.row(&[
                name,
                width.to_string(),
                update_pct.to_string(),
                format!("{:.0}", scans as f64 / scanned.as_secs_f64()),
                format!("{:.1}", keys_total as f64 / scans as f64),
                pct(0.50).to_string(),
                pct(0.99).to_string(),
            ]);
        };

    for &width in widths {
        for update_pct in [0u32, 50] {
            let lft = LockFreeBinaryTrie::new(universe);
            run_scan(lft.name().to_string(), &lft, universe, width, update_pct);
            let rlx = RelaxedBinaryTrie::new(universe);
            run_scan(rlx.name().to_string(), &rlx, universe, width, update_pct);
            let mtx = MutexBinaryTrie::new(universe);
            run_scan(mtx.name().to_string(), &mtx, universe, width, update_pct);
            let rwl = RwLockBinaryTrie::new(universe);
            run_scan(rwl.name().to_string(), &rwl, universe, width, update_pct);
            let btr = CoarseBTreeSet::new();
            run_scan(btr.name().to_string(), &btr, universe, width, update_pct);
            let fcb = FlatCombiningBinaryTrie::new(universe);
            run_scan(fcb.name().to_string(), &fcb, universe, width, update_pct);
            let skl = LockFreeSkipList::new();
            run_scan(skl.name().to_string(), &skl, universe, width, update_pct);
            let har = HarrisListSet::new();
            run_scan(
                format!("{} (u=2^9)", har.name()),
                &har,
                small_universe,
                width.min(small_universe),
                update_pct,
            );
        }
    }
    table
}

/// E10 — scan amortization: v1 per-step scans (one S-ALL announce/withdraw
/// round-trip per certified successor step, emulated with a plain
/// `successor` chain) against v2 amortized scans (`range`, one announcement
/// slid across the whole scan), across widths and update churn.
///
/// The structural claim is one announce + one withdraw + `w − 1` slides per
/// width-`w` scan (asserted exactly by the `step-count` test suite); this
/// experiment measures what that buys in wall-clock terms, and that width-1
/// scans do not regress.
pub fn e10_scan_amortization(quick: bool) -> Table {
    let mut table = Table::new(
        "E10: per-step (v1) vs amortized (v2) ordered scans",
        &[
            "mode",
            "width",
            "update %",
            "scans/s",
            "keys/scan",
            "p50 ns",
            "p99 ns",
        ],
    );
    let universe = 1u64 << 12;
    let scans = if quick { 400usize } else { 2_000 };
    let widths: &[u64] = if quick {
        &[1, 8, 64]
    } else {
        &[1, 8, 64, 1024]
    };

    /// A width-`w` scan as v1 performed it: every step is an independent
    /// `successor` call, paying the full announce/withdraw round-trip.
    fn scan_per_step(set: &LockFreeBinaryTrie, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if set.contains(lo) {
            out.push(lo);
        }
        let mut cur = lo;
        while cur < hi {
            match set.successor(cur) {
                Some(k) if k <= hi => {
                    out.push(k);
                    cur = k;
                }
                _ => break,
            }
        }
        out
    }

    let mut run = |mode: &str, width: u64, update_pct: u32| {
        let set = LockFreeBinaryTrie::new(universe);
        prefill(&set, universe, 0.3, SEED);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut lat = Vec::with_capacity(scans);
        let mut keys_total = 0u64;
        let updaters = if update_pct == 0 { 0 } else { 2u64 };
        let scanned = std::thread::scope(|scope| {
            for w in 0..updaters {
                let stop = &stop;
                let set = &set;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(SEED ^ (w + 1));
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.gen_range(0..universe);
                        if rng.gen_range(0..100u32) < update_pct {
                            if rng.gen_bool(0.5) {
                                set.insert(k);
                            } else {
                                set.remove(k);
                            }
                        } else {
                            std::hint::black_box(set.contains(k));
                        }
                    }
                });
            }
            let mut rng = StdRng::seed_from_u64(SEED ^ 0xE10);
            let t0 = std::time::Instant::now();
            for _ in 0..scans {
                let lo = rng.gen_range(0..universe);
                let hi = (lo + width - 1).min(universe - 1);
                let s0 = std::time::Instant::now();
                let out = if mode == "v1-per-step" {
                    scan_per_step(&set, lo, hi)
                } else {
                    set.range(lo..=hi)
                };
                lat.push(s0.elapsed().as_nanos() as u64);
                keys_total += out.len() as u64;
                std::hint::black_box(out);
            }
            let elapsed = t0.elapsed();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            elapsed
        });
        lat.sort_unstable();
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        table.row(&[
            mode.to_string(),
            width.to_string(),
            update_pct.to_string(),
            format!("{:.0}", scans as f64 / scanned.as_secs_f64()),
            format!("{:.1}", keys_total as f64 / scans as f64),
            pct(0.50).to_string(),
            pct(0.99).to_string(),
        ]);
    };

    for &width in widths {
        for update_pct in [0u32, 50] {
            run("v1-per-step", width, update_pct);
            run("v2-amortized", width, update_pct);
        }
    }
    table
}

/// E11 — unified telemetry: an instrumented balanced run on the lock-free
/// trie, reported entirely from the [`lftrie_telemetry`] snapshot (latency
/// percentiles from the log₂ histogram, traversal depth, epoch/reclamation
/// health) and from the counters recorded during the run (the cost of a
/// registry sweep, and the readiness-gate probes per operation). This is
/// the experiment the CI telemetry lane runs with `--emit-json`; its
/// `BENCH_e11.json` carries the full snapshot object.
pub fn e11_telemetry(quick: bool) -> Table {
    use lftrie_telemetry::{self as telemetry, Counter};

    let universe = 1u64 << 14;
    let ops = if quick { 5_000 } else { 50_000 };
    let config = RunConfig {
        threads: 4,
        ops_per_thread: ops,
        universe,
        mix: OpMix::BALANCED,
        seed: SEED,
    };
    let trie = LockFreeBinaryTrie::new(universe);
    prefill(&trie, universe, 0.2, SEED);
    let before = telemetry::counters();
    let res = driver::run_instrumented(&trie, &config);
    let run = telemetry::counters() - before;
    let snap = trie.telemetry();
    let lat = &snap.op_latency_ns;
    let depth = &snap.traversal_depth;
    let epoch = snap.epoch.unwrap_or_default();
    let limbo: usize = snap.reclaim.iter().map(|r| r.limbo + r.pending).sum();
    let live: usize = snap.reclaim.iter().map(|r| r.live).sum();

    let mut table = Table::new(
        "E11: unified telemetry of one instrumented balanced run",
        &["metric", "value"],
    );
    table.row(&["Mops/s".to_string(), format!("{:.3}", res.mops)]);
    table.row(&["ops_timed".to_string(), lat.count.to_string()]);
    table.row(&[
        "latency_p50_ns_le".to_string(),
        lat.percentile(50.0).to_string(),
    ]);
    table.row(&[
        "latency_p99_ns_le".to_string(),
        lat.percentile(99.0).to_string(),
    ]);
    table.row(&[
        "traversal_depth_mean".to_string(),
        format!("{:.1}", depth.mean()),
    ]);
    table.row(&["epoch_advances".to_string(), epoch.epoch.to_string()]);
    table.row(&[
        "stalled_readers".to_string(),
        epoch.stalled_readers.to_string(),
    ]);
    table.row(&["limbo_and_pending".to_string(), limbo.to_string()]);
    table.row(&["live_nodes".to_string(), live.to_string()]);
    // Sweeps time one in 16 and count it 16 times (`Counter::SweepNs`).
    let sweeps = run.get(Counter::Sweeps).max(1);
    table.row(&[
        "ns_per_sweep".to_string(),
        format!("{:.0}", run.get(Counter::SweepNs) as f64 / sweeps as f64),
    ]);
    let calls = (config.threads as u64 * config.ops_per_thread) as f64;
    table.row(&[
        "gate_probes_per_op".to_string(),
        format!("{:.2}", run.get(Counter::GateProbes) as f64 / calls),
    ]);
    table
}

/// E12 — causal op-tracing: where a contended balanced run spends its
/// time, phase by phase, and how much of each thread's work is helping
/// *other* operations. Requires the `op-trace` feature (the runner skips
/// it otherwise); reported entirely from the trace histograms and CAS-site
/// counters of a traced run.
pub fn e12_phase_attribution(quick: bool) -> Table {
    use lftrie_telemetry::{self as telemetry, trace, Counter, Hist};

    let universe = 1u64 << 14;
    let ops = if quick { 5_000 } else { 50_000 };
    let trie = LockFreeBinaryTrie::new(universe);
    prefill(&trie, universe, 0.2, SEED);

    let spans_before = telemetry::counters().get(Counter::TraceSpans);
    let edges_before = telemetry::counters().get(Counter::HelpEdges);
    trace::set_trace_enabled(true);
    let res = driver::run_instrumented(
        &trie,
        &RunConfig {
            threads: 4,
            ops_per_thread: ops,
            universe,
            mix: OpMix::BALANCED,
            seed: SEED,
        },
    );
    let snap = trie.telemetry();
    let counters = telemetry::counters();

    let mut table = Table::new(
        "E12: per-phase latency and helping attribution of one traced run",
        &["metric", "value"],
    );
    table.row(&["Mops/s".to_string(), format!("{:.3}", res.mops)]);
    table.row(&[
        "spans".to_string(),
        (counters.get(Counter::TraceSpans) - spans_before).to_string(),
    ]);
    table.row(&[
        "help_edges".to_string(),
        (counters.get(Counter::HelpEdges) - edges_before).to_string(),
    ]);
    for h in &snap.trace {
        if h.hist == Hist::HelpingDepth {
            table.row(&[
                "helping_depth_p99".to_string(),
                h.percentile(99.0).to_string(),
            ]);
            continue;
        }
        // One row per phase that actually ran: count + p50/p99 bucket
        // upper bounds (ns).
        if h.count == 0 {
            continue;
        }
        let name = h.hist.name();
        table.row(&[format!("{name}_count"), h.count.to_string()]);
        table.row(&[format!("{name}_p50_le"), h.percentile(50.0).to_string()]);
        table.row(&[format!("{name}_p99_le"), h.percentile(99.0).to_string()]);
    }
    for site in trace::CAS_SITES {
        let (attempts_c, failures_c) = site.counters();
        let attempts = counters.get(attempts_c);
        if attempts == 0 {
            continue;
        }
        let failures = counters.get(failures_c);
        table.row(&[
            format!("cas_{}_retry_rate", site.name()),
            format!("{:.4}", failures as f64 / attempts as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_produces_rows_for_every_structure() {
        let tables = e4_throughput(true);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows().len() % 8, 0, "8 structures per thread count");
        }
    }

    #[test]
    fn e11_reports_every_snapshot_metric() {
        let t = e11_telemetry(true);
        assert_eq!(t.rows().len(), 11);
        let metrics: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(metrics.contains(&"latency_p99_ns_le"));
        assert!(metrics.contains(&"stalled_readers"));
        assert!(metrics.contains(&"limbo_and_pending"));
        assert!(metrics.contains(&"ns_per_sweep"));
        assert!(metrics.contains(&"gate_probes_per_op"));
    }

    #[test]
    fn e12_reports_phases_and_helping_when_compiled() {
        let t = e12_phase_attribution(true);
        let metrics: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(metrics.contains(&"spans"));
        assert!(metrics.contains(&"help_edges"));
        assert!(metrics.contains(&"helping_depth_p99"));
        if lftrie_telemetry::trace::compiled() {
            // A traced balanced run must attribute time to at least the
            // announce phase and tally CAS attempts at the latest list.
            assert!(metrics.iter().any(|m| m.starts_with("phase_announce_ns")));
            assert!(metrics.contains(&"cas_latest_retry_rate"));
        }
    }

    #[cfg(feature = "step-count")]
    #[test]
    fn e1_search_steps_are_flat_and_e2_insert_steps_grow_with_u() {
        // E1 (Search is O(1)): steps/hit and steps/miss each read the same
        // nonzero value at every u.
        let e1 = e1_search_steps(true);
        let rows = e1.rows();
        for col in [2, 3] {
            let first = &rows[0][col];
            assert!(first.parse::<f64>().unwrap() > 0.0, "{rows:?}");
            assert!(rows.iter().all(|r| &r[col] == first), "{rows:?}");
        }
        // E2 (relaxed updates are O(log u)): steps/insert rises with u.
        let e2 = e2_relaxed_op_steps(true);
        let inserts: Vec<f64> = e2.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(inserts.windows(2).all(|w| w[0] < w[1]), "{inserts:?}");
    }

    #[test]
    fn e5_zero_updates_means_zero_bottoms() {
        let table = e5_bottom_rate(true);
        let first = &table.rows()[0];
        assert_eq!(first[0], "0");
        assert_eq!(first[3], "0.000", "no updates ⇒ no ⊥ (spec §4.1)");
    }

    #[test]
    fn e6_reports_bounded_live_alongside_cumulative() {
        let table = e6_space(true);
        let rows = table.rows();
        let trie_rows: Vec<_> = rows.iter().filter(|r| r[0] == "lockfree-trie").collect();
        // No update node before the first insert, at any universe …
        let initial: Vec<u64> = trie_rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(initial.iter().all(|&n| n == 0), "initial: {initial:?}");
        for r in &trie_rows {
            let initial: u64 = r[2].parse().unwrap();
            let cumulative: u64 = r[3].parse().unwrap();
            let live: u64 = r[4].parse().unwrap();
            let reclaimed: u64 = r[5].parse().unwrap();
            // … cumulative exceeds it (updates happened), accounting adds up,
            // and the steady-state footprint sits well below cumulative.
            assert!(cumulative > initial);
            assert_eq!(cumulative - reclaimed, live);
            assert!(
                live < initial + (cumulative - initial),
                "reclamation must free some superseded nodes"
            );
        }
        // Baseline rows report through the same accounting.
        assert!(rows.iter().any(|r| r[0] == "harris-list"));
        assert!(rows.iter().any(|r| r[0] == "lockfree-skiplist"));
    }

    #[test]
    fn e10_covers_both_modes_at_every_width() {
        let table = e10_scan_amortization(true);
        let rows = table.rows();
        // 2 modes × 3 widths × 2 update shares in quick mode.
        assert_eq!(rows.len(), 2 * 3 * 2);
        for width in ["1", "8", "64"] {
            for mode in ["v1-per-step", "v2-amortized"] {
                assert!(
                    rows.iter().any(|r| r[0] == mode && r[1] == width),
                    "missing {mode} at width {width}"
                );
            }
        }
        // Both modes report the same scan results on average (same seed,
        // same prefill): keys/scan must agree in the quiescent cells.
        for width in ["1", "8", "64"] {
            let cell = |mode: &str| {
                rows.iter()
                    .find(|r| r[0] == mode && r[1] == width && r[2] == "0")
                    .map(|r| r[4].clone())
                    .unwrap()
            };
            assert_eq!(cell("v1-per-step"), cell("v2-amortized"), "width {width}");
        }
    }

    #[test]
    fn e9_scans_cover_every_structure_and_cell() {
        let table = e9_scan(true);
        let rows = table.rows();
        // 8 structures × 2 widths × 2 update shares in quick mode.
        assert_eq!(rows.len(), 8 * 2 * 2);
        for r in rows {
            let scans_per_s: f64 = r[3].parse().unwrap();
            assert!(scans_per_s > 0.0, "{} produced no scans", r[0]);
        }
        // The prefilled density is 0.3, so wide quiescent scans must return
        // a substantial fraction of their span.
        let wide_quiescent = rows
            .iter()
            .find(|r| r[0] == "lockfree-trie" && r[1] == "256" && r[2] == "0")
            .unwrap();
        let keys_per_scan: f64 = wide_quiescent[4].parse().unwrap();
        assert!(keys_per_scan > 30.0, "got {keys_per_scan} keys/scan");
    }

    #[test]
    fn e7_lockfree_progresses_under_stall() {
        let table = e7_progress(true);
        let rows = table.rows();
        #[cfg(feature = "fault-injection")]
        {
            let lf: u64 = rows[0][3].parse().unwrap();
            assert!(lf > 0, "lock-free trie must progress past stalled updates");
        }
        // The mutex row completes (possibly small due to the held lock).
        assert_eq!(rows.last().unwrap()[0], "mutex-trie");
    }
}
