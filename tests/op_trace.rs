//! End-to-end op-trace suite: spans must close correctly when operations
//! crash mid-flight, helping/adoption must produce joinable cross-thread
//! edges, and the Chrome trace-event export must stay schema-valid under
//! a seeded chaos storm.
//!
//! The scenarios lean on the fault-injection subsystem: an injected
//! `Abandon` simulates a thread dying mid-operation (the span terminator
//! must say [`SPAN_ABANDONED`], not ok), an injected `Panic` unwinds
//! through the guards (terminator [`SPAN_PANICKED`]), and the orphans the
//! abandons leave behind force deterministic adopter→victim helping edges
//! that the uncontended happy path never produces.
//!
//! Every test serializes on one lock: the fault switches, the telemetry
//! enable, and the trace kill-switch are all process-global, and `drain`
//! sees every thread's ring.
//!
//! [`SPAN_ABANDONED`]: lftrie::telemetry::trace::SPAN_ABANDONED
//! [`SPAN_PANICKED`]: lftrie::telemetry::trace::SPAN_PANICKED

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lftrie::core::fault::{self, FaultAction, FaultPlan, FaultPoint, InjectedFault};
use lftrie::core::LockFreeBinaryTrie;
use lftrie::telemetry::{self, trace};
use trace::{OpKind, TraceEvent, TraceEventKind, SPAN_ABANDONED, SPAN_OK, SPAN_PANICKED};

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

/// Runs one faulted insert under `catch_unwind`, returning whether the
/// fault machinery reported an abandon.
fn faulted_insert(trie: &LockFreeBinaryTrie, key: u64, action: FaultAction) -> bool {
    fault::arm(FaultPlan::once(FaultPoint::InsertAnnounced, action), 0xF00D);
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
    fault::take_abandoned()
}

#[test]
fn abandoned_span_terminates_with_abandoned_status() {
    if !trace::compiled() {
        return; // compiled-out build: nothing to observe
    }
    let _serial = setup();
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(10);

    let key = 601u64;
    assert!(
        faulted_insert(&trie, key, FaultAction::Abandon),
        "abandon must mark the incarnation dead"
    );

    let events = trace::drain();
    let begin = last_begin(&events, OpKind::Insert, key as i64)
        .expect("the abandoned insert opened a span");
    assert_eq!(
        end_status(&events, begin.span),
        Some(SPAN_ABANDONED),
        "an injected Abandon must close its span with the abandoned terminator"
    );
    trie.adopt_orphans(); // leave no orphan behind for later tests
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
    assert!(
        !faulted_insert(&trie, key, FaultAction::Panic),
        "a plain panic is not an abandon"
    );

    let events = trace::drain();
    let begin =
        last_begin(&events, OpKind::Insert, key as i64).expect("the panicked insert opened a span");
    assert_eq!(
        end_status(&events, begin.span),
        Some(SPAN_PANICKED),
        "an unwinding span must close with the panicked terminator"
    );
    // The owner is still alive (the panic was absorbed here), so its
    // withdrawn announcement leaves nothing to adopt — and a clean op on
    // the same trie must still trace an ok terminator afterwards.
    let done = trie.insert(603);
    assert!(done, "fresh insert after the absorbed panic");
    let events = trace::drain();
    let begin = last_begin(&events, OpKind::Insert, 603).expect("clean insert span");
    assert_eq!(end_status(&events, begin.span), Some(SPAN_OK));
}

/// Adoption is the one helping path a single-threaded test can force
/// deterministically: abandon an announced insert, adopt it, and the
/// adopter's span must carry a helping edge whose node seq joins against
/// the victim's bind — the raw material of the Chrome flow arrows.
#[test]
fn adoption_links_adopter_span_to_victim_bind() {
    if !trace::compiled() {
        return;
    }
    let _serial = setup();
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(10);

    let key = 604u64;
    assert!(faulted_insert(&trie, key, FaultAction::Abandon));

    let before = trace::drain();
    let victim =
        last_begin(&before, OpKind::Insert, key as i64).expect("the victim insert opened a span");
    let bind = before
        .iter()
        .find(|e| e.kind == TraceEventKind::Bind && e.span == victim.span)
        .expect("the victim bound its update node before dying");

    assert!(trie.adopt_orphans() >= 1, "the orphan must be adopted");

    let events = trace::drain();
    let adopter = last_begin(&events, OpKind::Adopt, key as i64)
        .expect("adoption opened an adopt span for the victim's key");
    let edge = events
        .iter()
        .find(|e| e.kind == TraceEventKind::HelpEdge && e.span == adopter.span)
        .expect("the adopter recorded a helping edge");
    assert_eq!(
        edge.a, bind.a,
        "the edge's node seq must join against the victim's bind"
    );
    assert!(edge.b >= 1, "helping depth starts at 1");
    assert_eq!(
        end_status(&events, adopter.span),
        Some(SPAN_OK),
        "the adoption span closes cleanly"
    );

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

/// The acceptance scenario: a seeded multi-thread chaos storm (panics +
/// abandons) followed by adoption must export a schema-valid Chrome trace
/// with tracks for several threads and at least one cross-thread helping
/// flow event.
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

    let plan = FaultPlan::seeded(0x7ACE).with_rate(24).with_actions(&[
        FaultAction::Yield,
        FaultAction::Panic,
        FaultAction::Abandon,
    ]);
    let abandoned = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            let abandoned = Arc::clone(&abandoned);
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
                        if fault::take_abandoned() {
                            abandoned.fetch_add(1, Ordering::SeqCst);
                        } else if payload.downcast_ref::<InjectedFault>().is_none() {
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

    // Adoption guarantees helping edges even if the storm's own helping
    // raced away; with abandons fired there is always at least one orphan
    // or a help edge already recorded by contention.
    trie.adopt_orphans();

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
    if abandoned.load(Ordering::SeqCst) > 0 {
        assert!(
            statuses.contains(&SPAN_ABANDONED),
            "abandons fired but no span closed abandoned"
        );
    }
    assert!(
        events.iter().any(|e| e.kind == TraceEventKind::HelpEdge),
        "storm + adoption produced no helping edge"
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
