//! The unified telemetry subsystem, observed through the facade: snapshot
//! coverage, monotonic-counter and histogram invariants under concurrent
//! recording, the flight recorder, and the stalled-reader gauge.
//!
//! Telemetry state is process-global, and the tests in this binary run
//! concurrently: every assertion here is *monotone* (totals only grow) so
//! cross-test interference cannot fail them. The runtime kill-switch is
//! never touched in this binary — that lives in `telemetry_overhead.rs`,
//! a separate process.

use std::sync::atomic::{AtomicBool, Ordering};

use lftrie::core::LockFreeBinaryTrie;
use lftrie::primitives::epoch;
use lftrie::telemetry::{self, Counter, FlightKind, Hist};

#[test]
fn unified_snapshot_covers_every_subsystem() {
    let trie = LockFreeBinaryTrie::new(1 << 12);
    let ins_before = telemetry::counters().get(Counter::InsertOps);
    let pred_before = telemetry::counters().get(Counter::PredecessorOps);
    for k in (0..512u64).step_by(3) {
        trie.insert(k);
    }
    for y in (1..512u64).step_by(5) {
        std::hint::black_box(trie.predecessor(y));
        std::hint::black_box(trie.successor(y));
    }
    std::hint::black_box(trie.range(0..=256));
    std::hint::black_box(trie.min());

    let snap = trie.telemetry();
    // All four gauge families are attached when sampling through the trie.
    let e = snap.epoch.expect("trie snapshot carries epoch health");
    assert!(e.participants >= 1, "this thread registered a participant");
    assert_eq!(snap.reclaim.len(), 7, "one gauge per registry");
    let labels: Vec<&str> = snap.reclaim.iter().map(|r| r.label).collect();
    for want in ["nodes", "preds", "succs", "uall_cells", "sall_cells"] {
        assert!(labels.contains(&want), "missing registry gauge {want}");
    }
    let nodes = &snap.reclaim[0];
    assert!(nodes.live >= 1, "inserted keys are live nodes");
    assert!(nodes.resident >= nodes.live);
    assert!(snap.announcements.expect("lens attached").is_empty());
    assert!(snap.traversal.is_some());

    // The global counters saw this test's operations (other tests only add).
    assert!(snap.counters.get(Counter::InsertOps) >= ins_before + 171);
    assert!(snap.counters.get(Counter::PredecessorOps) >= pred_before + 103);
    assert!(snap.counters.get(Counter::UpdateTouches) >= 171);
    assert!(
        snap.traversal_depth.count >= 171,
        "one sample per traversal"
    );

    // Both renderings carry the gauge sections.
    let prom = snap.to_prometheus();
    assert!(prom.contains("lftrie_events_total{event=\"insert_ops\"}"));
    assert!(prom.contains("lftrie_epoch_stalled_readers"));
    assert!(prom.contains("lftrie_reclaim{registry=\"nodes\",field=\"live\"}"));
    assert!(prom.contains("lftrie_announcements{list=\"uall\"} 0"));
    let json = snap.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"reclaim\":[{\"registry\":\"nodes\""));
}

#[test]
fn counters_and_histograms_are_monotone_under_concurrent_recording() {
    let trie = LockFreeBinaryTrie::new(1 << 10);
    let stop = AtomicBool::new(false);
    let watched = [
        Counter::InsertOps,
        Counter::RemoveOps,
        Counter::UpdateTouches,
        Counter::FlightEvents,
    ];
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let trie = &trie;
            let stop = &stop;
            scope.spawn(move || {
                let mut k = t;
                // Do-while: at least one insert/remove per writer, even if
                // the snapshot loop below finishes before this thread runs.
                loop {
                    k = (k.wrapping_mul(25214903917).wrapping_add(11)) % (1 << 10);
                    trie.insert(k);
                    trie.remove(k);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        // Snapshot repeatedly while the writers run: every total and every
        // histogram bucket only grows, even though a snapshot is not an
        // atomic cut.
        let mut last = telemetry::snapshot();
        for _ in 0..200 {
            let next = telemetry::snapshot();
            for c in watched {
                assert!(
                    next.counters.get(c) >= last.counters.get(c),
                    "counter {} went backwards",
                    c.name()
                );
            }
            for h in [&next.traversal_depth, &next.op_latency_ns] {
                let prev = match h.hist {
                    Hist::TraversalDepth => &last.traversal_depth,
                    Hist::OpLatencyNs => &last.op_latency_ns,
                    _ => unreachable!("loop visits only the two base histograms"),
                };
                assert!(h.count >= prev.count, "histogram count went backwards");
                assert_eq!(h.count, h.buckets.iter().sum::<u64>());
                for (b, (n, p)) in h.buckets.iter().zip(prev.buckets.iter()).enumerate() {
                    assert!(n >= p, "bucket {b} went backwards");
                }
            }
            last = next;
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        telemetry::counters().get(Counter::InsertOps) > 0,
        "writers recorded"
    );
}

#[test]
fn flight_recorder_captures_announce_and_stall_events() {
    let trie = LockFreeBinaryTrie::new(1 << 10);
    let flights_before = telemetry::counters().get(Counter::FlightEvents);
    let stalls_before = telemetry::counters().get(Counter::StallsInjected);

    // A normal update announces and withdraws; the injected stall parks an
    // insert mid-flight. Both must land in this thread's ring — they are
    // the most recent events, so the bounded ring still holds them.
    trie.insert(77);
    assert!(trie.insert_stalled_after_activation(99));

    let events = telemetry::flight_dump();
    assert!(
        events.iter().any(|e| e.kind == FlightKind::Announce),
        "announce event captured"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightKind::Stall && e.key == 99),
        "stall event carries the stalled key"
    );
    // The dump interleaves threads by timestamp (seq breaks ties), and
    // sequence ids stay unique.
    assert!(events
        .windows(2)
        .all(|w| (w[0].ts, w[0].seq) <= (w[1].ts, w[1].seq)));
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq ids are unique");
    assert!(telemetry::counters().get(Counter::FlightEvents) > flights_before);
    assert!(telemetry::counters().get(Counter::StallsInjected) > stalls_before);

    let report = telemetry::flight_report();
    assert!(report.contains("stall"), "report names the stall event");
}

#[test]
fn stalled_reader_gauge_fires_while_a_pin_is_held() {
    let trie = LockFreeBinaryTrie::new(1 << 8);
    trie.insert(1);

    // Hold a pin of the trie's own domain (a "stalled reader") while
    // advance attempts pile up: each refused attempt charges this
    // participant's blocked streak until it crosses the stall threshold.
    let domain = trie.domain();
    let guard = domain.pin();
    for _ in 0..32 {
        domain.try_advance();
    }
    let health = trie
        .telemetry()
        .epoch
        .expect("trie snapshot carries epoch health");
    assert!(
        health.stalled_readers >= 1,
        "held pin counted as a stalled reader: {health:?}"
    );
    assert!(health.max_blocked >= epoch::STALL_BLOCKED_THRESHOLD);

    // Releasing the pin clears the detector: nothing else pins this trie's
    // domain, and the gauge is point-in-time, not latched.
    drop(guard);
    for _ in 0..4 {
        domain.try_advance();
    }
    let after = trie.telemetry().epoch.unwrap();
    assert_eq!((after.pinned, after.stalled_readers), (0, 0), "{after:?}");
    assert!(
        after.total_pins >= health.total_pins,
        "pin totals stay monotone"
    );
}
