//! Causal op-tracing: per-operation spans, phase events, helping edges.
//!
//! Counters say *how often*; the flight recorder says *what just
//! happened*. Neither answers the attribution questions that matter for a
//! multi-phase helping protocol: where inside an operation the time goes,
//! who helped whom (and how deep the helping chains get), and which CAS
//! sites burn retries under contention. This module answers them with
//! three primitives, all recorded into the calling thread's shard ring,
//! the flight recorder's, beside its flight events:
//!
//! * **Spans** ([`span`]) — one per public operation, identified by a
//!   process-global id. A span emits an `OpBegin` event at entry and an
//!   `OpEnd` terminator from its RAII guard, carrying a status:
//!   [`SPAN_OK`] or [`SPAN_PANICKED`] (the guard dropped during an unwind,
//!   a suspended operation's included). Every terminator path runs
//!   through the guard, so even panicked operations close their spans.
//! * **Phases** ([`phase`]) — timed sub-intervals of the protocol (pin,
//!   traverse, announce, notify, recovery, withdraw, reclaim, help). A
//!   phase guard records the duration both as a ring event (for the
//!   timeline) and into the matching [`Hist`] (for percentiles).
//! * **Helping edges** ([`help`]) — when a thread advances *another*
//!   operation (`HelpActivate`), it records an edge from its current span
//!   to the helped operation's update node, identified by the node's
//!   never-reused `seq`. The owner side publishes the reverse half with
//!   [`bind`] (span ↔ node seq) right after allocating the node, so an
//!   exporter can join the two into a cross-thread causal graph even when
//!   the owner's span closed before the helper ran. [`help`] also tracks the
//!   per-thread helping *depth* (helping triggered while already helping)
//!   and the time spent helping others vs. own work
//!   ([`Hist::PhaseHelpNs`] vs. the span totals).
//!
//! Per-site CAS attempt/failure tallies ([`cas`]) ride along: they land in
//! ordinary [`Counter`]s but are bumped only from here, so the contended
//! sites (dnode word, latest-list install, announcement cells, published
//! cursors) pay nothing unless tracing is compiled in *and* enabled.
//!
//! # Switching it off
//!
//! * Without the `op-trace` cargo feature every entry point here is a
//!   literal empty function.
//! * [`set_trace_enabled`]`(false)` is a runtime kill-switch checked with
//!   one `Relaxed` load; it is independent of the global
//!   [`crate::set_enabled`] switch, which also gates tracing.
//! * Recording requires both switches: `enabled() && trace_enabled()`.
//!
//! # Export
//!
//! [`drain`] decodes every buffered trace event (the ring overwrites its
//! oldest entries first); [`chrome_trace_json`] renders them as a Chrome
//! trace-event JSON document — one track per recording thread, complete
//! (`"X"`) slices for spans and phases, and flow (`"s"`/`"f"`) arrows for
//! helping edges — loadable in Perfetto or `chrome://tracing`.
//! [`summary`] is the compact text form the torture driver dumps next to
//! the flight recorder on failure.

use crate::flight::RawEvent;
use crate::{Counter, Hist};

// ---------------------------------------------------------------------------
// Identifiers (available regardless of features)
// ---------------------------------------------------------------------------

/// The public operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// `insert`.
    Insert = 1,
    /// `remove`.
    Remove = 2,
    /// `contains`.
    Contains = 3,
    /// `predecessor`.
    Predecessor = 4,
    /// `successor`.
    Successor = 5,
    /// `min`.
    Min = 6,
    /// `max`.
    Max = 7,
    /// `range` / `count` scans.
    Range = 8,
    /// `insert_all` / `delete_all` batches.
    Batch = 9,
}

impl OpKind {
    /// Stable lower-case label (the Chrome slice name).
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Contains => "contains",
            OpKind::Predecessor => "predecessor",
            OpKind::Successor => "successor",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Range => "range",
            OpKind::Batch => "batch",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => OpKind::Insert,
            2 => OpKind::Remove,
            3 => OpKind::Contains,
            4 => OpKind::Predecessor,
            5 => OpKind::Successor,
            6 => OpKind::Min,
            7 => OpKind::Max,
            8 => OpKind::Range,
            9 => OpKind::Batch,
            _ => return None,
        })
    }
}

/// A timed sub-interval of the update/query protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TracePhase {
    /// Epoch pin at operation entry (announce/validate loop).
    Pin = 1,
    /// An announcement-list traversal (U-ALL/RU-ALL, both directions).
    Traverse = 2,
    /// Publishing an announcement (U-ALL/RU-ALL/P-ALL/S-ALL insert).
    Announce = 3,
    /// Notifying announced queries (`NotifyPredOps` and its mirror).
    Notify = 4,
    /// The ⊥-recovery graph computation (Definition 5.1).
    Recovery = 5,
    /// Withdrawing announcements (deannounce, query-node removal).
    Withdraw = 6,
    /// A registry garbage sweep (`collect`).
    Reclaim = 7,
    /// Advancing someone else's operation (`HelpActivate`).
    Help = 8,
}

/// Every phase, in report order.
pub const PHASES: [TracePhase; 8] = [
    TracePhase::Pin,
    TracePhase::Traverse,
    TracePhase::Announce,
    TracePhase::Notify,
    TracePhase::Recovery,
    TracePhase::Withdraw,
    TracePhase::Reclaim,
    TracePhase::Help,
];

impl TracePhase {
    /// Stable lower-case label (the Chrome slice name).
    pub const fn name(self) -> &'static str {
        match self {
            TracePhase::Pin => "pin",
            TracePhase::Traverse => "traverse",
            TracePhase::Announce => "announce",
            TracePhase::Notify => "notify",
            TracePhase::Recovery => "recovery",
            TracePhase::Withdraw => "withdraw",
            TracePhase::Reclaim => "reclaim",
            TracePhase::Help => "help",
        }
    }

    /// The latency histogram this phase's durations feed.
    pub const fn hist(self) -> Hist {
        match self {
            TracePhase::Pin => Hist::PhasePinNs,
            TracePhase::Traverse => Hist::PhaseTraverseNs,
            TracePhase::Announce => Hist::PhaseAnnounceNs,
            TracePhase::Notify => Hist::PhaseNotifyNs,
            TracePhase::Recovery => Hist::PhaseRecoveryNs,
            TracePhase::Withdraw => Hist::PhaseWithdrawNs,
            TracePhase::Reclaim => Hist::PhaseReclaimNs,
            TracePhase::Help => Hist::PhaseHelpNs,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => TracePhase::Pin,
            2 => TracePhase::Traverse,
            3 => TracePhase::Announce,
            4 => TracePhase::Notify,
            5 => TracePhase::Recovery,
            6 => TracePhase::Withdraw,
            7 => TracePhase::Reclaim,
            8 => TracePhase::Help,
            _ => return None,
        })
    }
}

/// A contended CAS site with per-attempt/per-failure counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasSite {
    /// The relaxed trie's dNodePtr install (`TrieCore::dnode_cas`).
    Dnode,
    /// The latest-list head install (`TrieCore::cas_latest`).
    Latest,
    /// Announcement-list cell CASes (insert/unlink/mark, all four lists).
    Announce,
    /// Published-cursor advance validation (`advance_publishing`).
    Cursor,
}

/// Every CAS site, in report order.
pub const CAS_SITES: [CasSite; 4] = [
    CasSite::Dnode,
    CasSite::Latest,
    CasSite::Announce,
    CasSite::Cursor,
];

impl CasSite {
    /// Stable lower-case label for reports.
    pub const fn name(self) -> &'static str {
        match self {
            CasSite::Dnode => "dnode",
            CasSite::Latest => "latest",
            CasSite::Announce => "announce",
            CasSite::Cursor => "cursor",
        }
    }

    /// The `(attempts, failures)` counter pair for this site.
    pub const fn counters(self) -> (Counter, Counter) {
        match self {
            CasSite::Dnode => (Counter::DnodeCasAttempts, Counter::DnodeCasFailures),
            CasSite::Latest => (Counter::LatestCasAttempts, Counter::LatestCasFailures),
            CasSite::Announce => (Counter::AnnounceCasAttempts, Counter::AnnounceCasFailures),
            CasSite::Cursor => (Counter::CursorCasAttempts, Counter::CursorCasFailures),
        }
    }
}

/// `OpEnd` status: the operation returned normally.
pub const SPAN_OK: u64 = 0;
/// `OpEnd` status: the span guard dropped during a panic unwind.
pub const SPAN_PANICKED: u64 = 1;

/// What one decoded trace event records. The discriminants are the ring's
/// kind bytes, above the flight kinds'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A span opened. `a` = operation key (as `i64` bits), `b` = [`OpKind`].
    OpBegin = 16,
    /// A span closed. `a` = status ([`SPAN_OK`]/[`SPAN_PANICKED`]).
    OpEnd = 17,
    /// A phase completed. `ts` is the phase *start*; `a` = duration in ns.
    Phase = 18,
    /// The current span helped another operation. `a` = helped update
    /// node's seq, `b` = helping depth at the edge (recorded up to 255).
    HelpEdge = 19,
    /// The current span owns the update node with seq `a` (the join key
    /// helpers' edges resolve against).
    Bind = 20,
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process-global sequence id (unique; per-thread monotone).
    pub seq: u64,
    /// Monotonic nanoseconds since the process trace anchor. For
    /// [`TraceEventKind::Phase`] this is the phase start.
    pub ts: u64,
    /// Telemetry shard (≈ thread) id that recorded the event; flight
    /// events from the same thread carry the same id.
    pub shard: usize,
    /// What happened.
    pub kind: TraceEventKind,
    /// The phase, for [`TraceEventKind::Phase`] events.
    pub phase: Option<TracePhase>,
    /// The span the event belongs to (0 = outside any span).
    pub span: u64,
    /// Kind-specific payload (see [`TraceEventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceEventKind`]).
    pub b: u64,
}

impl TraceEvent {
    /// The trace event in `raw`, or `None` for a flight-recorder entry.
    /// The ring keeps the span id in its payload word, `a` in its key word,
    /// and the op kind, phase or helping depth in the tag's detail byte.
    fn decode(raw: &RawEvent) -> Option<Self> {
        let kind = match raw.kind {
            16 => TraceEventKind::OpBegin,
            17 => TraceEventKind::OpEnd,
            18 => TraceEventKind::Phase,
            19 => TraceEventKind::HelpEdge,
            20 => TraceEventKind::Bind,
            _ => return None,
        };
        let (phase, b) = match kind {
            TraceEventKind::Phase => (TracePhase::from_u8(raw.detail), 0),
            TraceEventKind::OpBegin | TraceEventKind::HelpEdge => (None, raw.detail as u64),
            TraceEventKind::OpEnd | TraceEventKind::Bind => (None, 0),
        };
        Some(TraceEvent {
            seq: raw.seq,
            ts: raw.ts,
            shard: raw.shard,
            kind,
            phase,
            span: raw.aux,
            a: raw.key,
            b,
        })
    }
}

// ---------------------------------------------------------------------------
// Real implementation (op-trace on)
// ---------------------------------------------------------------------------

#[cfg(feature = "op-trace")]
mod imp {
    use super::*;
    use crate::{add, now_ticks, record};
    use core::cell::Cell;
    use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// The runtime kill-switch for tracing (default: on — the feature is
    /// itself the opt-in).
    static TRACE_ENABLED: AtomicBool = AtomicBool::new(true);

    pub(super) fn set_trace_enabled(on: bool) {
        TRACE_ENABLED.store(on, Ordering::SeqCst);
    }

    #[inline]
    pub(super) fn trace_enabled() -> bool {
        TRACE_ENABLED.load(Ordering::Relaxed)
    }

    /// The trace switch goes first: with tracing off, a hook then costs
    /// the same one load whether the always-on layer records or not.
    #[inline]
    fn recording() -> bool {
        trace_enabled() && crate::enabled()
    }

    /// Process-global span ids; starts at 1 so 0 means "no span".
    static SPAN_IDS: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        /// The innermost live span on this thread (0 outside any span).
        static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
        /// Helping-nesting depth (helping triggered while already helping).
        static HELP_DEPTH: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    fn emit(kind: TraceEventKind, detail: u8, span: u64, a: u64) {
        emit_at(now_ticks(), kind, detail, span, a);
    }

    /// `ts` is a raw tick stamp ([`crate::now_ticks`]); [`drain`] maps it
    /// to anchor-relative nanoseconds, like the flight recorder's.
    #[inline]
    pub(super) fn emit_at(ts: u64, kind: TraceEventKind, detail: u8, span: u64, a: u64) {
        let _ = crate::with_shard(|s| s.ring.push_trace(kind as u8, detail, ts, a, span));
    }

    /// RAII guard for one operation span; emits the `OpEnd` terminator on
    /// drop and restores the previously-current span.
    pub struct SpanGuard {
        id: u64,
        prev: u64,
    }

    pub(super) fn span(kind: OpKind, key: i64) -> SpanGuard {
        if !recording() {
            return SpanGuard { id: 0, prev: 0 };
        }
        let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT_SPAN.try_with(|c| c.replace(id)).unwrap_or(0);
        add(Counter::TraceSpans, 1);
        emit(TraceEventKind::OpBegin, kind as u8, id, key as u64);
        SpanGuard { id, prev }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if self.id == 0 {
                return;
            }
            let _ = CURRENT_SPAN.try_with(|c| c.set(self.prev));
            let status = if std::thread::panicking() {
                SPAN_PANICKED
            } else {
                SPAN_OK
            };
            emit(TraceEventKind::OpEnd, 0, self.id, status);
        }
    }

    /// RAII guard for one timed phase; records duration (histogram + ring
    /// event) on drop.
    pub struct PhaseGuard {
        phase: u8,
        start: u64,
    }

    pub(super) fn phase(p: TracePhase) -> PhaseGuard {
        if !recording() {
            return PhaseGuard { phase: 0, start: 0 };
        }
        PhaseGuard {
            phase: p as u8,
            start: now_ticks(),
        }
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            let Some(p) = TracePhase::from_u8(self.phase) else {
                return;
            };
            // The histogram wants nanoseconds now, not at drain time, so
            // this one spot pays a clock read for the conversion rate —
            // recording-path only, and a phase close is orders rarer than
            // the per-event stamps the tick scheme keeps cheap.
            let ticks = now_ticks().saturating_sub(self.start);
            let dur = (ticks as f64 * crate::tick_rate()) as u64;
            record(p.hist(), dur);
            let span = CURRENT_SPAN.try_with(|c| c.get()).unwrap_or(0);
            emit_at(self.start, TraceEventKind::Phase, self.phase, span, dur);
        }
    }

    /// RAII guard for one helping scope: depth-tracked and timed as
    /// [`TracePhase::Help`].
    pub struct HelpScope {
        _phase: PhaseGuard,
        active: bool,
    }

    pub(super) fn help(helped_node_seq: u64) -> HelpScope {
        if !recording() {
            return HelpScope {
                _phase: PhaseGuard { phase: 0, start: 0 },
                active: false,
            };
        }
        let depth = HELP_DEPTH.try_with(|d| {
            let v = d.get() + 1;
            d.set(v);
            v
        });
        let depth = depth.unwrap_or(1);
        add(Counter::HelpEdges, 1);
        record(Hist::HelpingDepth, depth);
        let span = CURRENT_SPAN.try_with(|c| c.get()).unwrap_or(0);
        let tagged = depth.min(u8::MAX as u64) as u8;
        emit(TraceEventKind::HelpEdge, tagged, span, helped_node_seq);
        HelpScope {
            _phase: phase(TracePhase::Help),
            active: true,
        }
    }

    impl Drop for HelpScope {
        fn drop(&mut self) {
            if self.active {
                let _ = HELP_DEPTH.try_with(|d| d.set(d.get().saturating_sub(1)));
            }
        }
    }

    pub(super) fn bind(node_seq: u64) {
        if !recording() {
            return;
        }
        let span = CURRENT_SPAN.try_with(|c| c.get()).unwrap_or(0);
        emit(TraceEventKind::Bind, 0, span, node_seq);
    }

    #[inline]
    pub(super) fn cas(site: CasSite, ok: bool) {
        if !recording() {
            return;
        }
        let (attempts, failures) = site.counters();
        add(attempts, 1);
        if !ok {
            add(failures, 1);
        }
    }

    pub(super) fn current_span() -> u64 {
        CURRENT_SPAN.try_with(|c| c.get()).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Stubs (feature off)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "op-trace"))]
mod imp {
    use super::*;

    pub(super) fn set_trace_enabled(_on: bool) {}

    #[inline]
    pub(super) fn trace_enabled() -> bool {
        false
    }

    /// Inert span guard (tracing not compiled in).
    pub struct SpanGuard;
    /// Inert phase guard (tracing not compiled in).
    pub struct PhaseGuard;
    /// Inert helping-scope guard (tracing not compiled in).
    pub struct HelpScope;

    #[inline]
    pub(super) fn span(_kind: OpKind, _key: i64) -> SpanGuard {
        SpanGuard
    }

    #[inline]
    pub(super) fn phase(_p: TracePhase) -> PhaseGuard {
        PhaseGuard
    }

    #[inline]
    pub(super) fn help(_helped_node_seq: u64) -> HelpScope {
        HelpScope
    }

    #[inline]
    pub(super) fn bind(_node_seq: u64) {}

    #[inline]
    pub(super) fn cas(_site: CasSite, _ok: bool) {}

    #[inline]
    pub(super) fn current_span() -> u64 {
        0
    }
}

/// RAII guard for one operation span; emits the `OpEnd` terminator on drop.
pub use imp::SpanGuard;

/// RAII guard for one timed phase; records the duration on drop.
pub use imp::PhaseGuard;

/// RAII guard for one helping scope; tracks depth and time-spent-helping.
pub use imp::HelpScope;

/// Turns tracing on or off at runtime (on by default when the `op-trace`
/// feature is compiled in; a no-op otherwise). Independent of, and
/// additionally gated by, the global [`crate::set_enabled`] switch.
pub fn set_trace_enabled(on: bool) {
    imp::set_trace_enabled(on);
}

/// Whether the trace layer can currently record (feature compiled in and
/// runtime kill-switch on). Does not consult [`crate::enabled`].
#[inline]
pub fn trace_enabled() -> bool {
    imp::trace_enabled()
}

/// Whether the trace recorder is compiled into this build (`op-trace` on).
/// Harness binaries use this to skip experiments that need real capture
/// instead of reporting empty traces.
#[inline]
pub const fn compiled() -> bool {
    cfg!(feature = "op-trace")
}

/// Opens a span for one public operation. The returned guard emits the
/// `OpEnd` terminator (ok, or panicked while unwinding) when dropped, and makes
/// this span the thread's *current* span — phases, binds, and helping
/// edges recorded while it is live attribute to it. Nests: an inner span
/// restores the outer one on drop.
#[inline]
pub fn span(kind: OpKind, key: i64) -> SpanGuard {
    imp::span(kind, key)
}

/// Times one protocol phase of the current span (or of no span, for
/// free-standing work like sweeps). Records the duration into the phase's
/// histogram and the thread's event ring on drop.
#[inline]
pub fn phase(p: TracePhase) -> PhaseGuard {
    imp::phase(p)
}

/// Records that the current span is advancing *another* operation — the
/// one owning the update node with the given never-reused `seq` — and
/// opens a helping scope: depth-tracked, timed as [`TracePhase::Help`].
#[inline]
pub fn help(helped_node_seq: u64) -> HelpScope {
    imp::help(helped_node_seq)
}

/// Publishes the owner-side half of the helping join: the current span
/// owns the update node with this `seq`. Helpers' [`help`] edges resolve
/// against the most recent bind for the same seq.
#[inline]
pub fn bind(node_seq: u64) {
    imp::bind(node_seq)
}

/// Tallies one CAS attempt (and, when `ok` is false, one failure) at a
/// contended protocol site. No-op unless tracing records, so the hot CAS
/// sites pay nothing by default.
#[inline]
pub fn cas(site: CasSite, ok: bool) {
    imp::cas(site, ok)
}

/// The thread's current span id (0 when outside any span or when tracing
/// is off). Diagnostic/test hook.
#[inline]
pub fn current_span() -> u64 {
    imp::current_span()
}

/// Decodes every currently-buffered trace event across all threads,
/// ordered by `(ts, seq)`: the trace-kind read of the rings
/// [`crate::flight_dump`] reads for flight kinds. Non-destructive; each
/// ring holds the most recent [`crate::RING_CAP`] events of its thread,
/// flight and trace events together.
pub fn drain() -> Vec<TraceEvent> {
    crate::read_rings(TraceEvent::decode, |e| (e.ts, e.seq))
}

/// A compact text digest (event/span/edge counts plus the most recent
/// events), for failure dumps next to the flight recorder.
pub fn summary() -> String {
    let events = drain();
    if events.is_empty() {
        return "op-trace: no events captured (feature off, disabled, or nothing ran)\n"
            .to_string();
    }
    let mut spans = 0usize;
    let mut ends = [0usize; 2];
    let mut phases = 0usize;
    let mut edges = 0usize;
    let mut shards: Vec<usize> = Vec::new();
    for e in &events {
        if !shards.contains(&e.shard) {
            shards.push(e.shard);
        }
        match e.kind {
            TraceEventKind::OpBegin => spans += 1,
            TraceEventKind::OpEnd => ends[(e.a as usize).min(1)] += 1,
            TraceEventKind::Phase => phases += 1,
            TraceEventKind::HelpEdge => edges += 1,
            TraceEventKind::Bind => {}
        }
    }
    let mut out = format!(
        "op-trace: {} event(s) on {} thread(s): {} span begins, {} ends \
         ({} ok, {} panicked), {} phases, {} help edges\n",
        events.len(),
        shards.len(),
        spans,
        ends.iter().sum::<usize>(),
        ends[0],
        ends[1],
        phases,
        edges,
    );
    for e in events.iter().rev().take(16).rev() {
        let (kind, detail) = match e.kind {
            TraceEventKind::OpBegin => (
                "begin",
                format!(
                    "op={} key={}",
                    OpKind::from_u8(e.b as u8).map_or("?", |k| k.name()),
                    e.a as i64
                ),
            ),
            TraceEventKind::OpEnd => ("end", format!("status={}", e.a)),
            TraceEventKind::Phase => (
                "phase",
                format!("{} dur={}ns", e.phase.map_or("?", |p| p.name()), e.a),
            ),
            TraceEventKind::HelpEdge => ("help", format!("node_seq={} depth={}", e.a, e.b)),
            TraceEventKind::Bind => ("bind", format!("node_seq={}", e.a)),
        };
        out.push_str(&format!(
            "  @{ts:<12} t{shard:<3} span={span:<8} {kind:<6} {detail}\n",
            ts = e.ts,
            shard = e.shard,
            span = e.span,
            kind = kind,
            detail = detail,
        ));
    }
    out
}

/// Renders every buffered trace event as a Chrome trace-event JSON
/// document (the `{"traceEvents": [...]}` wrapper format), loadable in
/// Perfetto or `chrome://tracing`:
///
/// * one track (`tid`) per recording thread, named via metadata events;
/// * a complete (`"X"`) slice per span whose begin *and* terminator are
///   still buffered, and one per phase (phases nest inside their span's
///   slice by timestamp containment);
/// * a flow arrow (`"s"` → `"f"`) per helping edge: it starts at the
///   helped operation's [`bind`] point — on the *victim's* track, which is
///   what makes cross-thread helping visible — and finishes at the
///   helper's edge event. Edges whose bind aged out of the ring are
///   dropped.
///
/// Timestamps are microseconds (fractional) from the process trace anchor.
pub fn chrome_trace_json() -> String {
    let events = drain();
    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };

    // Track metadata: one named thread per shard.
    let mut shards: Vec<usize> = events.iter().map(|e| e.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    for s in &shards {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{s},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"trace-shard-{s}\"}}}}"
            ),
        );
    }

    // Span slices: pair each OpBegin with its terminator by span id.
    for b in events.iter().filter(|e| e.kind == TraceEventKind::OpBegin) {
        let Some(end) = events
            .iter()
            .find(|e| e.kind == TraceEventKind::OpEnd && e.span == b.span)
        else {
            continue;
        };
        let name = OpKind::from_u8(b.b as u8).map_or("op", |k| k.name());
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{name}\",\"cat\":\"op\",\"args\":{{\"span\":{span},\
                 \"key\":{key},\"status\":{status}}}}}",
                tid = b.shard,
                ts = us(b.ts),
                dur = us(end.ts.saturating_sub(b.ts)),
                span = b.span,
                key = b.a as i64,
                status = end.a,
            ),
        );
    }

    // Phase slices (ts is the start, a the duration).
    for p in events.iter().filter(|e| e.kind == TraceEventKind::Phase) {
        let name = p.phase.map_or("phase", |ph| ph.name());
        push(
            &mut out,
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"name\":\"{name}\",\"cat\":\"phase\",\"args\":{{\"span\":{span}}}}}",
                tid = p.shard,
                ts = us(p.ts),
                dur = us(p.a),
                span = p.span,
            ),
        );
    }

    // Helping flows: bind (helped side) → help edge (helper side). The
    // bind always precedes the edge — helpers only reach a node after its
    // owner published it — so the arrow direction is well-defined even
    // when the helped operation was suspended long before the helper ran.
    for (i, h) in events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == TraceEventKind::HelpEdge)
    {
        let Some(bind) = events
            .iter()
            .rev()
            .find(|e| e.kind == TraceEventKind::Bind && e.a == h.a && e.ts <= h.ts)
        else {
            continue;
        };
        push(
            &mut out,
            format!(
                "{{\"ph\":\"s\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"id\":{id},\
                 \"name\":\"help\",\"cat\":\"help\",\"args\":{{\"helped_span\":{vs},\
                 \"node_seq\":{seq}}}}}",
                tid = bind.shard,
                ts = us(bind.ts),
                id = i,
                vs = bind.span,
                seq = h.a,
            ),
        );
        push(
            &mut out,
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\
                 \"id\":{id},\"name\":\"help\",\"cat\":\"help\",\
                 \"args\":{{\"helper_span\":{hs},\"depth\":{depth}}}}}",
                tid = h.shard,
                ts = us(h.ts),
                id = i,
                hs = h.span,
                depth = h.b,
            ),
        );
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(not(feature = "op-trace"))]
    fn stubs_record_nothing() {
        let _s = span(OpKind::Insert, 7);
        let _p = phase(TracePhase::Announce);
        let _h = help(42);
        bind(42);
        cas(CasSite::Dnode, false);
        assert!(!trace_enabled());
        assert_eq!(current_span(), 0);
        assert!(drain().is_empty());
        assert_eq!(
            chrome_trace_json(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }

    #[test]
    #[cfg(feature = "op-trace")]
    fn spans_phases_and_edges_round_trip() {
        let _serial = crate::test_serial();
        crate::set_enabled(true);
        set_trace_enabled(true);
        let key = -776_001_i64; // distinctive; drain() sees other tests' events too
        {
            let _s = span(OpKind::Insert, key);
            assert_ne!(current_span(), 0);
            bind(998_877);
            let _p = phase(TracePhase::Announce);
            let _h = help(998_877);
        }
        assert_eq!(current_span(), 0);
        let events = drain();
        let begin = events
            .iter()
            .find(|e| e.kind == TraceEventKind::OpBegin && e.a as i64 == key)
            .expect("begin recorded");
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::OpEnd && e.span == begin.span && e.a == SPAN_OK));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::Bind && e.a == 998_877 && e.span == begin.span));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::HelpEdge && e.a == 998_877 && e.b >= 1));
        assert!(events.iter().any(|e| e.kind == TraceEventKind::Phase
            && e.phase == Some(TracePhase::Announce)
            && e.span == begin.span));
        // Ordered by (ts, seq).
        assert!(events
            .windows(2)
            .all(|w| (w[0].ts, w[0].seq) <= (w[1].ts, w[1].seq)));

        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    #[cfg(feature = "op-trace")]
    fn kill_switch_stops_recording() {
        let _serial = crate::test_serial();
        crate::set_enabled(true);
        set_trace_enabled(false);
        let marker = -776_002_i64;
        {
            let _s = span(OpKind::Remove, marker);
            assert_eq!(current_span(), 0, "disabled span is inert");
        }
        assert!(!drain()
            .iter()
            .any(|e| e.kind == TraceEventKind::OpBegin && e.a as i64 == marker));
        set_trace_enabled(true);
    }

    /// Flight and trace events share each shard's ring: the two reads
    /// split it by kind, ids stay unique across both, `flight_events`
    /// counts flight pushes only, and every trace field survives the
    /// four-word slot.
    #[test]
    #[cfg(feature = "op-trace")]
    fn flight_and_trace_events_share_one_ring() {
        use crate::{FlightKind, RING_CAP};
        const A: u64 = 1 << 40;
        const SPAN: u64 = 1 << 41;
        let _serial = crate::test_serial();
        crate::set_enabled(true);
        let shard = crate::with_shard(|s| s.id).unwrap();
        // Push i is a flight event when i % 3 == 2, else the trace event
        // `recorded(i)` names, with `a = A + i` and span `SPAN + i`.
        let recorded = |i: u64| match i % 5 {
            0 => (TraceEventKind::OpBegin, (i % 9 + 1) as u8),
            1 => (TraceEventKind::Phase, (i % 8 + 1) as u8),
            2 => (TraceEventKind::HelpEdge, (i % 255 + 1) as u8),
            3 => (TraceEventKind::OpEnd, 0),
            _ => (TraceEventKind::Bind, 0),
        };
        let pushes = RING_CAP as u64 * 3 / 2;
        let t0 = crate::now_ticks();
        let before = crate::thread_counters();
        for i in 0..pushes {
            if i % 3 == 2 {
                crate::flight(FlightKind::Slide, -(i as i64), i);
            } else {
                let (kind, detail) = recorded(i);
                // Stamps run backwards, so only exact stamps sort the
                // trace read in reverse push order.
                let ts = t0 + (pushes - i) * 1000;
                imp::emit_at(ts, kind, detail, SPAN + i, A + i);
            }
        }
        let flights = (0..pushes).filter(|i| i % 3 == 2).count() as u64;
        let counted = (crate::thread_counters() - before).get(Counter::FlightEvents);
        assert_eq!(counted, flights, "flight_events counts flight pushes only");

        let kept = pushes - RING_CAP as u64;
        let flight: Vec<_> = crate::flight_dump()
            .into_iter()
            .filter(|e| e.shard == shard)
            .collect();
        let trace: Vec<_> = drain().into_iter().filter(|e| e.shard == shard).collect();
        assert_eq!(flight.len() + trace.len(), RING_CAP, "the last pushes");
        for e in &flight {
            assert!(e.kind == FlightKind::Slide && e.aux % 3 == 2, "{e:?}");
            assert!(e.aux >= kept && e.key == -(e.aux as i64), "{e:?}");
        }
        for e in &trace {
            let i = e.a.wrapping_sub(A);
            assert!(i >= kept && i < pushes && i % 3 != 2, "{e:?}");
            let (kind, detail) = recorded(i);
            assert_eq!((e.kind, e.span), (kind, SPAN + i));
            let (phase, b) = match kind {
                TraceEventKind::Phase => (TracePhase::from_u8(detail), 0),
                TraceEventKind::OpBegin | TraceEventKind::HelpEdge => (None, detail as u64),
                _ => (None, 0),
            };
            assert_eq!((e.phase, e.b), (phase, b), "{e:?}");
        }
        assert!(trace.windows(2).all(|w| w[0].a > w[1].a), "exact stamps");
        let mut seqs: Vec<u64> = flight.iter().map(|e| e.seq).collect();
        seqs.extend(trace.iter().map(|e| e.seq));
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), RING_CAP, "ids are unique across both kinds");
    }
}
