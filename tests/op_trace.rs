//! End-to-end op-trace suite: spans must close correctly when operations
//! unwind mid-flight, helping must produce joinable cross-thread edges,
//! and the Chrome trace-event export must stay schema-valid under a
//! seeded chaos storm.
//!
//! The scenarios lean on the fault-injection subsystem: an injected
//! `Panic` unwinds through the guards (terminator [`SPAN_PANICKED`]), and
//! an insert suspended after its latest-list CAS makes another thread's
//! insert of the same key help it (`HelpActivate`) — a deterministic
//! cross-thread helping edge that the uncontended happy path never
//! produces.
//!
//! Every test serializes on one lock: the fault switches, the telemetry
//! enable, and the trace kill-switch are all process-global, and `drain`
//! sees every thread's ring.
//!
//! [`SPAN_PANICKED`]: lftrie::telemetry::trace::SPAN_PANICKED

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};

use lftrie::core::fault::{self, FaultAction, FaultPlan, FaultPoint, InjectedFault};
use lftrie::core::LockFreeBinaryTrie;
use lftrie::telemetry::{self, trace};
use trace::{OpKind, TraceEvent, TraceEventKind, SPAN_OK, SPAN_PANICKED};

static SERIAL: Mutex<()> = Mutex::new(());

const U: u64 = 1 << 10;

/// Common preamble: serialize, make sure both recording switches are on,
/// and silence the injected-fault panic spew.
fn setup() -> std::sync::MutexGuard<'static, ()> {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    trace::set_trace_enabled(true);
    fault::silence_injected_panics();
    serial
}

/// The most recent span that began as `kind` on `key` (drain sees every
/// event still buffered process-wide, including earlier tests').
fn last_begin(events: &[TraceEvent], kind: OpKind, key: i64) -> Option<&TraceEvent> {
    events
        .iter()
        .rev()
        .find(|e| e.kind == TraceEventKind::OpBegin && e.b == kind as u64 && e.a as i64 == key)
}

fn end_status(events: &[TraceEvent], span: u64) -> Option<u64> {
    events
        .iter()
        .find(|e| e.kind == TraceEventKind::OpEnd && e.span == span)
        .map(|e| e.a)
}

/// Runs one insert with a panic injected once it is announced, under
/// `catch_unwind`.
fn panicked_insert(trie: &LockFreeBinaryTrie, key: u64) {
    fault::arm(
        FaultPlan::once(FaultPoint::InsertAnnounced, FaultAction::Panic),
        0xF00D,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| trie.insert(key)));
    fault::disarm();
    match outcome {
        Ok(_) => panic!("the injected fault must escape the operation"),
        Err(payload) => {
            assert!(
                payload.downcast_ref::<InjectedFault>().is_some(),
                "only the injected fault may unwind out of the insert"
            );
        }
    }
}

/// Suspends `insert(key)` of an absent key after its latest-list CAS on
/// one thread, then runs `insert(key)` on this thread while the first
/// stays alive (so the two record on distinct trace shards). The second
/// insert loses its CAS and helps the suspended node (line 171).
fn suspend_then_help(trie: &LockFreeBinaryTrie, key: u64) {
    let (stopped_tx, stopped_rx) = mpsc::channel();
    let (exit_tx, exit_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let owner = s.spawn(move || {
            let stopped = fault::suspend_at(FaultPoint::InsertPublished, || trie.insert(key));
            stopped_tx.send(stopped).expect("the helper waits");
            exit_rx.recv().expect("the helper signals");
        });
        assert!(
            stopped_rx.recv().expect("owner thread"),
            "the insert stopped"
        );
        assert!(!trie.insert(key), "the helping insert loses its CAS");
        exit_tx.send(()).expect("owner thread waits");
        owner.join().expect("owner thread");
    });
    assert!(
        trie.contains(key),
        "the helper activated the stopped insert"
    );
}

#[test]
fn panicked_span_terminates_with_panicked_status() {
    if !trace::compiled() {
        return;
    }
    let _serial = setup();
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(10);

    let key = 602u64;
    panicked_insert(&trie, key);

    let events = trace::drain();
    let begin =
        last_begin(&events, OpKind::Insert, key as i64).expect("the panicked insert opened a span");
    assert_eq!(
        end_status(&events, begin.span),
        Some(SPAN_PANICKED),
        "an unwinding span must close with the panicked terminator"
    );
    // The unwind guard finished the insert and withdrew it; a clean op on
    // the same trie must still trace an ok terminator afterwards.
    let done = trie.insert(603);
    assert!(done, "fresh insert after the absorbed panic");
    let events = trace::drain();
    let begin = last_begin(&events, OpKind::Insert, 603).expect("clean insert span");
    assert_eq!(end_status(&events, begin.span), Some(SPAN_OK));
}

/// A suspended insert and the insert that helps it, on two threads: the
/// helper's span must carry a helping edge whose node seq joins the
/// suspended span's bind on the other shard — the raw material of the
/// Chrome flow arrows — and the suspended span must close with the
/// panicked terminator, since it unwound out of the operation.
#[test]
fn helping_links_helper_span_to_suspended_bind() {
    if !trace::compiled() {
        return;
    }
    let _serial = setup();
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(10);

    let key = 604u64;
    suspend_then_help(&trie, key);

    let events = trace::drain();
    let mut begins = events.iter().rev().filter(|e| {
        e.kind == TraceEventKind::OpBegin
            && e.b == OpKind::Insert as u64
            && e.a as i64 == key as i64
    });
    let helper = begins.next().expect("the helping insert opened a span");
    let owner = begins.next().expect("the suspended insert opened a span");
    let bind = events
        .iter()
        .find(|e| e.kind == TraceEventKind::Bind && e.span == owner.span)
        .expect("the suspended insert bound its update node");
    let edge = events
        .iter()
        .find(|e| e.kind == TraceEventKind::HelpEdge && e.span == helper.span)
        .expect("the helper recorded a helping edge");
    assert_eq!(
        edge.a, bind.a,
        "the edge's node seq must join against the suspended insert's bind"
    );
    assert_ne!(edge.shard, bind.shard, "the flow crosses threads");
    assert!(edge.b >= 1, "helping depth starts at 1");
    assert_eq!(
        end_status(&events, owner.span),
        Some(SPAN_PANICKED),
        "a suspended span closes with the panicked terminator"
    );
    assert_eq!(end_status(&events, helper.span), Some(SPAN_OK));

    // The exporter joins that pair into a flow arrow.
    let json = trace::chrome_trace_json();
    assert!(json.contains("\"ph\":\"s\""), "flow start rendered");
    assert!(json.contains("\"ph\":\"f\""), "flow finish rendered");
    assert!(json.contains(&format!("\"node_seq\":{}", edge.a)));
}

/// Minimal structural validation of the Chrome trace-event document —
/// enough to catch a malformed export without a JSON parser dependency:
/// wrapper keys, balanced braces/brackets outside strings, and the event
/// kinds the acceptance criteria name (per-thread metadata, slices, at
/// least one cross-thread helping flow pair).
fn assert_chrome_schema(json: &str, want_flow: bool) {
    assert!(
        json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["),
        "wrapper object with displayTimeUnit + traceEvents"
    );
    assert!(json.ends_with("]}"), "wrapper closes");
    let (mut depth_b, mut depth_s, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth_b += 1,
            '}' if !in_str => depth_b -= 1,
            '[' if !in_str => depth_s += 1,
            ']' if !in_str => depth_s -= 1,
            _ => {}
        }
        assert!(depth_b >= 0 && depth_s >= 0, "close before open");
    }
    assert!(!in_str && depth_b == 0 && depth_s == 0, "balanced document");
    assert!(
        json.contains("\"ph\":\"M\"") && json.contains("\"thread_name\""),
        "per-thread track metadata present"
    );
    assert!(json.contains("\"ph\":\"X\""), "complete slices present");
    assert!(json.contains("\"cat\":\"op\""), "span slices present");
    assert!(json.contains("\"cat\":\"phase\""), "phase slices present");
    if want_flow {
        assert!(
            json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""),
            "at least one helping flow pair present"
        );
    }
}

/// The acceptance scenario: a seeded multi-thread chaos storm (yields and
/// panics) followed by a suspended insert and its helper must export a
/// schema-valid Chrome trace with tracks for several threads and at least
/// one cross-thread helping flow event.
#[test]
fn seeded_chaos_trace_exports_valid_chrome_json_with_flows() {
    if !trace::compiled() {
        return;
    }
    let _serial = setup();
    const THREADS: u64 = 8;
    // Small enough that nothing ages out of the 4096-slot rings before the
    // export below; large enough that the seeded plan fires faults.
    const OPS: u64 = 400;

    let trie = Arc::new(LockFreeBinaryTrie::new(U));
    for k in (1..U).step_by(7) {
        trie.insert(k);
    }

    let plan = FaultPlan::seeded(0x7ACE)
        .with_rate(24)
        .with_actions(&[FaultAction::Yield, FaultAction::Panic]);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            let plan = plan.clone();
            std::thread::spawn(move || {
                fault::arm(plan, 0x7ACE ^ (t << 16));
                let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..OPS {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = (state >> 33) % 128; // hot span: real contention
                    let r = catch_unwind(AssertUnwindSafe(|| match state % 4 {
                        0 => {
                            trie.insert(k);
                        }
                        1 => {
                            trie.remove(k);
                        }
                        2 => {
                            std::hint::black_box(trie.predecessor(k.max(1)));
                        }
                        _ => {
                            std::hint::black_box(trie.contains(k));
                        }
                    }));
                    if let Err(payload) = r {
                        if payload.downcast_ref::<InjectedFault>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
                fault::disarm();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos worker hit a non-injected panic");
    }

    // A suspended insert and its helper guarantee a cross-thread helping
    // edge even if the storm's own helping raced away. Key 1000 is absent
    // (the seed holds keys ≡ 1 mod 7) and outside the storm's hot span.
    suspend_then_help(&trie, 1000);

    let events = trace::drain();
    let shards: std::collections::BTreeSet<usize> = events.iter().map(|e| e.shard).collect();
    assert!(
        shards.len() >= 2,
        "a {THREADS}-thread storm must record on several trace shards, saw {}",
        shards.len()
    );
    let statuses: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::OpEnd)
        .map(|e| e.a)
        .collect();
    assert!(statuses.contains(&SPAN_OK), "clean terminators present");
    assert!(
        statuses.contains(&SPAN_PANICKED),
        "the suspended insert closed no span as panicked"
    );
    assert!(
        events.iter().any(|e| e.kind == TraceEventKind::HelpEdge),
        "storm + helping produced no helping edge"
    );
    // The flow arrow must join spans recorded by *different* shards —
    // that is the cross-thread causal claim the export makes.
    let cross = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::HelpEdge)
        .filter_map(|h| {
            events
                .iter()
                .rev()
                .find(|e| e.kind == TraceEventKind::Bind && e.a == h.a && e.ts <= h.ts)
                .map(|b| (b.shard, h.shard))
        })
        .any(|(victim, helper)| victim != helper);
    assert!(
        cross,
        "no helping edge joined bind and helper across distinct threads"
    );

    assert_chrome_schema(&trace::chrome_trace_json(), true);
}
