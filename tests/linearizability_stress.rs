//! Interval-based linearizability stress for `Predecessor`, `Successor`
//! and range scans.
//!
//! Writer threads own disjoint key stripes (so each key's S-modifying
//! history is program-ordered), query threads issue predecessor/successor
//! queries (and scans) across stripes, and every operation is stamped with
//! a global logical clock at invocation and response. The checker then
//! validates *sound necessary conditions* of linearizability — any
//! reported violation is a real bug:
//!
//! 1. a returned key must be possibly-in-S somewhere inside the query's
//!    window;
//! 2. no key strictly between the result and the query may be
//!    definitely-in-S throughout the window (for the linearizable trie), or
//!    throughout-with-no-concurrent-update (for the relaxed trie's §4.1
//!    specification, mirrored for successor).
//!
//! For a range scan, each key of the result obeys condition 1 (every
//! successor step's window lies inside the scan's window), the result is
//! strictly increasing within bounds, and any key definitely-in-S
//! throughout the *whole* scan must appear: the chain of certified
//! successor steps is strictly increasing, so the step that crosses such a
//! key cannot jump over it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lftrie::core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};

mod common;
use common::stress_iters;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ins,
    Del,
}

#[derive(Debug, Clone, Copy)]
struct UpdateEvent {
    key: u64,
    kind: Kind,
    start: u64,
    end: u64,
}

/// Direction of an ordered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Pred,
    Succ,
}

#[derive(Debug, Clone, Copy)]
struct QueryEvent {
    dir: Dir,
    y: u64,
    /// `Some(key)`, `None` = no-predecessor/-successor; relaxed ⊥ is
    /// filtered out before checking.
    result: Option<u64>,
    start: u64,
    end: u64,
}

/// Per-key presence episodes reconstructed from a single-writer history.
#[derive(Debug, Clone, Copy)]
struct Episode {
    ins_start: u64,
    ins_end: u64,
    del_start: u64, // u64::MAX if never deleted
    del_end: u64,   // u64::MAX if never deleted
}

fn episodes_per_key(updates: &[UpdateEvent], universe: u64) -> Vec<Vec<Episode>> {
    let mut per_key: Vec<Vec<UpdateEvent>> = vec![Vec::new(); universe as usize];
    for &u in updates {
        per_key[u.key as usize].push(u);
    }
    per_key
        .into_iter()
        .map(|mut evs| {
            // Single-writer per key: program order == clock order.
            evs.sort_by_key(|e| e.start);
            let mut episodes = Vec::new();
            let mut open: Option<UpdateEvent> = None;
            for e in evs {
                match (e.kind, &open) {
                    (Kind::Ins, None) => open = Some(e),
                    (Kind::Del, Some(ins)) => {
                        episodes.push(Episode {
                            ins_start: ins.start,
                            ins_end: ins.end,
                            del_start: e.start,
                            del_end: e.end,
                        });
                        open = None;
                    }
                    // S-modifying events must alternate per key.
                    (k, o) => panic!(
                        "non-alternating history for key {}: {k:?} after {o:?}",
                        e.key
                    ),
                }
            }
            if let Some(ins) = open {
                episodes.push(Episode {
                    ins_start: ins.start,
                    ins_end: ins.end,
                    del_start: u64::MAX,
                    del_end: u64::MAX,
                });
            }
            episodes
        })
        .collect()
}

/// Key `k` might be in S at some point of `[s, e]`.
fn possibly_in(eps: &[Episode], s: u64, e: u64) -> bool {
    eps.iter().any(|ep| ep.ins_start <= e && ep.del_end >= s)
}

/// Key `k` is in S at *every* point of `[s, e]`.
fn definitely_in_throughout(eps: &[Episode], s: u64, e: u64) -> bool {
    eps.iter().any(|ep| ep.ins_end <= s && ep.del_start >= e)
}

/// An S-modifying update on `k` overlaps `[s, e]`.
fn update_overlaps(updates: &[UpdateEvent], k: u64, s: u64, e: u64) -> bool {
    updates
        .iter()
        .any(|u| u.key == k && u.start <= e && u.end >= s)
}

struct StressOutput {
    updates: Vec<UpdateEvent>,
    queries: Vec<QueryEvent>,
    bottoms: u64,
}

fn run_stress(
    relaxed: bool,
    universe: u64,
    writers: usize,
    readers: usize,
    ops_per_writer: u64,
    queries_per_reader: u64,
    seed: u64,
) -> StressOutput {
    let clock = Arc::new(AtomicU64::new(0));
    let lf = Arc::new(LockFreeBinaryTrie::new(universe));
    let rx = Arc::new(RelaxedBinaryTrie::new(universe));

    let mut writer_handles = Vec::new();
    for w in 0..writers {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        let rx = Arc::clone(&rx);
        writer_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut state = seed ^ (w as u64).wrapping_mul(0x9E3779B97F4A7C15);
            for _ in 0..ops_per_writer {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Stripe ownership keeps per-key histories single-writer.
                let key = ((state >> 33) % (universe / writers as u64)) * writers as u64 + w as u64;
                let insert = (state >> 13) & 1 == 0;
                let start = clock.fetch_add(1, Ordering::SeqCst);
                let s_modifying = if relaxed {
                    if insert {
                        rx.insert(key)
                    } else {
                        rx.remove(key)
                    }
                } else if insert {
                    lf.insert(key)
                } else {
                    lf.remove(key)
                };
                let end = clock.fetch_add(1, Ordering::SeqCst);
                if s_modifying {
                    events.push(UpdateEvent {
                        key,
                        kind: if insert { Kind::Ins } else { Kind::Del },
                        start,
                        end,
                    });
                }
            }
            events
        }));
    }

    let mut reader_handles = Vec::new();
    for r in 0..readers {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        let rx = Arc::clone(&rx);
        reader_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut bottoms = 0u64;
            let mut state = seed ^ 0xABCD ^ (r as u64).wrapping_mul(0xDEAD_BEEF_CAFE);
            for _ in 0..queries_per_reader {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let dir = if (state >> 7) & 1 == 0 {
                    Dir::Pred
                } else {
                    Dir::Succ
                };
                let y = match dir {
                    Dir::Pred => 1 + (state >> 33) % (universe - 1),
                    Dir::Succ => (state >> 33) % (universe - 1),
                };
                let start = clock.fetch_add(1, Ordering::SeqCst);
                let result = match (relaxed, dir) {
                    (true, Dir::Pred) => match rx.predecessor(y) {
                        RelaxedPred::Found(k) => Some(Some(k)),
                        RelaxedPred::NoneSmaller => Some(None),
                        RelaxedPred::Interference => None,
                    },
                    (true, Dir::Succ) => match rx.successor(y) {
                        RelaxedSucc::Found(k) => Some(Some(k)),
                        RelaxedSucc::NoneGreater => Some(None),
                        RelaxedSucc::Interference => None,
                    },
                    (false, Dir::Pred) => Some(lf.predecessor(y)),
                    (false, Dir::Succ) => Some(lf.successor(y)),
                };
                let end = clock.fetch_add(1, Ordering::SeqCst);
                match result {
                    Some(res) => events.push(QueryEvent {
                        dir,
                        y,
                        result: res,
                        start,
                        end,
                    }),
                    None => bottoms += 1,
                }
            }
            (events, bottoms)
        }));
    }

    let mut updates = Vec::new();
    for h in writer_handles {
        updates.extend(h.join().unwrap());
    }
    let mut queries = Vec::new();
    let mut bottoms = 0;
    for h in reader_handles {
        let (evs, b) = h.join().unwrap();
        queries.extend(evs);
        bottoms += b;
    }
    StressOutput {
        updates,
        queries,
        bottoms,
    }
}

fn check(out: &StressOutput, universe: u64, relaxed: bool) {
    let eps = episodes_per_key(&out.updates, universe);
    let mut checked_pred = 0u64;
    let mut checked_succ = 0u64;
    for p in &out.queries {
        // Condition 1: a returned key was possibly in S inside the window.
        if let Some(k) = p.result {
            match p.dir {
                Dir::Pred => assert!(k < p.y, "pred({}) returned {k} ≥ query", p.y),
                Dir::Succ => assert!(k > p.y, "succ({}) returned {k} ≤ query", p.y),
            }
            assert!(
                possibly_in(&eps[k as usize], p.start, p.end),
                "{:?}({}) returned {k}, which was never (possibly) present in [{}, {}]",
                p.dir,
                p.y,
                p.start,
                p.end
            );
        }
        // Condition 2: completeness against definitely-present keys. The
        // gap is (result, y) for predecessor, (y, result) for successor.
        let (gap_lo, gap_hi) = match p.dir {
            Dir::Pred => (p.result.map(|k| k + 1).unwrap_or(0), p.y),
            Dir::Succ => (p.y + 1, p.result.unwrap_or(universe)),
        };
        for k2 in gap_lo..gap_hi {
            if definitely_in_throughout(&eps[k2 as usize], p.start, p.end) {
                // The linearizable trie must have answered with a key at
                // least as close as k2. The relaxed trie is excused only if
                // an update with a key strictly between the result and the
                // query overlapped the op (§4.1, mirrored for successor).
                let excused = relaxed
                    && (gap_lo..gap_hi).any(|m| update_overlaps(&out.updates, m, p.start, p.end));
                assert!(
                    excused,
                    "{:?}({}) = {:?} missed key {k2}, definitely present throughout \
                     [{}, {}] (relaxed = {relaxed})",
                    p.dir, p.y, p.result, p.start, p.end
                );
            }
        }
        match p.dir {
            Dir::Pred => checked_pred += 1,
            Dir::Succ => checked_succ += 1,
        }
    }
    assert!(checked_pred > 0 && checked_succ > 0);
}

#[test]
fn lockfree_trie_ordered_queries_are_linearizable_under_stress() {
    let iters = stress_iters(4_000);
    for seed in [11, 42, 20240610] {
        let out = run_stress(false, 64, 2, 2, iters, iters, seed);
        assert_eq!(out.bottoms, 0, "lock-free trie never reports ⊥");
        check(&out, 64, false);
    }
}

#[test]
fn lockfree_trie_ordered_queries_linearizable_wide_universe() {
    // Wider universe exercises deep trie paths and the recovery machinery
    // less often but more meaningfully.
    let iters = stress_iters(4_000) / 2;
    let out = run_stress(false, 1 << 10, 4, 2, iters, iters, 7);
    check(&out, 1 << 10, false);
}

#[test]
fn relaxed_trie_satisfies_relaxed_specification() {
    let iters = stress_iters(4_000);
    for seed in [5, 99] {
        let out = run_stress(true, 64, 2, 2, iters, iters, seed);
        check(&out, 64, true);
    }
}

/// Reclamation stress (ISSUE 3): readers deliberately hold an epoch guard
/// across long batches of queries while writers churn a small key set at
/// maximum supersession rate. The pinned guards force retired update nodes
/// to age in limbo exactly while the readers still traverse them — any
/// premature free is a use-after-free the checker (or the allocator)
/// catches; any lost linearization shows up as a condition-1/2 violation.
/// Scale with `LFTRIE_STRESS_ITERS` for the heavy CI lane.
#[test]
fn guard_holding_readers_stay_linearizable_under_churn() {
    let universe = 64u64;
    let writers = 2usize;
    let readers = 2usize;
    let iters = stress_iters(3_000);
    let batch = 128u64; // queries per held guard

    let clock = Arc::new(AtomicU64::new(0));
    let lf = Arc::new(LockFreeBinaryTrie::new(universe));

    let mut writer_handles = Vec::new();
    for w in 0..writers {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        writer_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut state = 0x5851F42D4C957F2Du64 ^ (w as u64) << 17;
            for _ in 0..iters {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Tiny hot set inside the stripe: maximal retire traffic.
                let key = ((state >> 33) % 8) * writers as u64 + w as u64;
                let insert = (state >> 13) & 1 == 0;
                let start = clock.fetch_add(1, Ordering::SeqCst);
                let s_modifying = if insert {
                    lf.insert(key)
                } else {
                    lf.remove(key)
                };
                let end = clock.fetch_add(1, Ordering::SeqCst);
                if s_modifying {
                    events.push(UpdateEvent {
                        key,
                        kind: if insert { Kind::Ins } else { Kind::Del },
                        start,
                        end,
                    });
                }
            }
            events
        }));
    }

    let mut reader_handles = Vec::new();
    for r in 0..readers {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        reader_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut state = (r as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut remaining = iters;
            while remaining > 0 {
                // Hold one outer guard across a long traversal batch: every
                // node retired during the batch must survive until we drop
                // it, and results must still linearize.
                let outer = lftrie::primitives::epoch::pin();
                for _ in 0..batch.min(remaining) {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let dir = if (state >> 7) & 1 == 0 {
                        Dir::Pred
                    } else {
                        Dir::Succ
                    };
                    let y = match dir {
                        Dir::Pred => 1 + (state >> 33) % (universe - 1),
                        Dir::Succ => (state >> 33) % (universe - 1),
                    };
                    let start = clock.fetch_add(1, Ordering::SeqCst);
                    let result = match dir {
                        Dir::Pred => lf.predecessor(y),
                        Dir::Succ => lf.successor(y),
                    };
                    let end = clock.fetch_add(1, Ordering::SeqCst);
                    events.push(QueryEvent {
                        dir,
                        y,
                        result,
                        start,
                        end,
                    });
                }
                drop(outer);
                remaining = remaining.saturating_sub(batch);
            }
            events
        }));
    }

    let mut updates = Vec::new();
    for h in writer_handles {
        updates.extend(h.join().unwrap());
    }
    let mut queries = Vec::new();
    for h in reader_handles {
        queries.extend(h.join().unwrap());
    }
    let out = StressOutput {
        updates,
        queries,
        bottoms: 0,
    };
    check(&out, universe, false);

    // The held guards only ever delayed reclamation; once everyone is done
    // the backlog must drain back to a bounded footprint.
    lf.collect_garbage();
    let live = lf.live_nodes();
    assert!(
        live <= 4 * universe as usize + 512,
        "guard-holding readers must not unbound memory: {live} live of {} cumulative",
        lf.allocated_nodes()
    );
}

/// Range-scan histories against the interval model: writers churn striped
/// keys (including the scans' own endpoints — endpoint inserts/removes race
/// the scans by construction, since stripes cover every key), scanners
/// record `(lo, hi, result, window)` events, and the checker validates the
/// per-step snapshot contract of `range`:
///
/// * results are strictly increasing and within `[lo, hi]`;
/// * every returned key was possibly in S inside the scan's window;
/// * every key definitely in S throughout the whole window appears.
#[test]
fn lockfree_trie_range_scans_satisfy_the_interval_model() {
    let universe = 64u64;
    let writers = 2usize;
    let scanners = 2usize;
    let iters = stress_iters(3_000);
    let scans = stress_iters(3_000) / 4;

    let clock = Arc::new(AtomicU64::new(0));
    let lf = Arc::new(LockFreeBinaryTrie::new(universe));

    let mut writer_handles = Vec::new();
    for w in 0..writers {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        writer_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut state = 0x853C49E6748FEA9Bu64 ^ (w as u64) << 21;
            for _ in 0..iters {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = ((state >> 33) % (universe / writers as u64)) * writers as u64 + w as u64;
                let insert = (state >> 13) & 1 == 0;
                let start = clock.fetch_add(1, Ordering::SeqCst);
                let s_modifying = if insert {
                    lf.insert(key)
                } else {
                    lf.remove(key)
                };
                let end = clock.fetch_add(1, Ordering::SeqCst);
                if s_modifying {
                    events.push(UpdateEvent {
                        key,
                        kind: if insert { Kind::Ins } else { Kind::Del },
                        start,
                        end,
                    });
                }
            }
            events
        }));
    }

    struct ScanEvent {
        lo: u64,
        hi: u64,
        result: Vec<u64>,
        start: u64,
        end: u64,
    }

    let mut scanner_handles = Vec::new();
    for r in 0..scanners {
        let clock = Arc::clone(&clock);
        let lf = Arc::clone(&lf);
        scanner_handles.push(std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut state = (r as u64).wrapping_mul(0x2545F4914F6CDD1D) | 1;
            for _ in 0..scans {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lo = (state >> 33) % universe;
                let hi = (lo + 1 + (state >> 17) % 24).min(universe - 1);
                let start = clock.fetch_add(1, Ordering::SeqCst);
                let result = lf.range(lo..=hi);
                let end = clock.fetch_add(1, Ordering::SeqCst);
                events.push(ScanEvent {
                    lo,
                    hi,
                    result,
                    start,
                    end,
                });
            }
            events
        }));
    }

    let mut updates = Vec::new();
    for h in writer_handles {
        updates.extend(h.join().unwrap());
    }
    let eps = episodes_per_key(&updates, universe);
    let mut checked = 0u64;
    for h in scanner_handles {
        for s in h.join().unwrap() {
            assert!(
                s.result.windows(2).all(|w| w[0] < w[1]),
                "range({}..={}) not strictly increasing: {:?}",
                s.lo,
                s.hi,
                s.result
            );
            for &k in &s.result {
                assert!(
                    (s.lo..=s.hi).contains(&k),
                    "range({}..={}) escaped its bounds: {k}",
                    s.lo,
                    s.hi
                );
                assert!(
                    possibly_in(&eps[k as usize], s.start, s.end),
                    "range({}..={}) returned {k}, never (possibly) present in [{}, {}]",
                    s.lo,
                    s.hi,
                    s.start,
                    s.end
                );
            }
            for k2 in s.lo..=s.hi {
                if definitely_in_throughout(&eps[k2 as usize], s.start, s.end) {
                    assert!(
                        s.result.contains(&k2),
                        "range({}..={}) missed {k2}, definitely present throughout [{}, {}]: {:?}",
                        s.lo,
                        s.hi,
                        s.start,
                        s.end,
                        s.result
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn sequential_clock_sanity() {
    // The checker itself: a key inserted before and deleted after a query
    // window is definitely-in throughout it.
    let updates = vec![
        UpdateEvent {
            key: 3,
            kind: Kind::Ins,
            start: 0,
            end: 1,
        },
        UpdateEvent {
            key: 3,
            kind: Kind::Del,
            start: 10,
            end: 11,
        },
    ];
    let eps = episodes_per_key(&updates, 8);
    assert!(definitely_in_throughout(&eps[3], 2, 9));
    // Clock stamps are unique in real histories, so the window end can never
    // equal the delete's start stamp; 11 > del_start=10 is the first
    // non-covered window end.
    assert!(!definitely_in_throughout(&eps[3], 2, 11));
    assert!(possibly_in(&eps[3], 0, 0));
    assert!(possibly_in(&eps[3], 11, 12));
    assert!(!possibly_in(&eps[3], 12, 15));
}
