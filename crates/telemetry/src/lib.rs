//! Always-on, lock-free telemetry for the trie workspace.
//!
//! This crate is the one place the workspace records instrumentation:
//! counters (shared-memory step counts included), histograms, the flight
//! recorder and the op-trace rings all live on the recording thread's
//! shard, and every report reads them back from the same shards.
//!
//! * **Counters** ([`Counter`]) — plain monotonic `u64` event tallies
//!   (operation counts, traversal node touches, scan and update
//!   announcement events, step counts under `step-count`, reclamation
//!   sweeps and their time). Recording is an owner-only `Relaxed` load +
//!   store on a per-thread [`CachePadded`] shard — no RMW, cheap enough
//!   to stay on in release builds.
//! * **Histograms** ([`Hist`]) — log₂-bucketed distributions (traversal
//!   depth, per-operation latency in nanoseconds) with percentile
//!   estimation on [`snapshot`].
//! * **Gauges** — point-in-time health structs ([`EpochHealth`],
//!   [`ReclaimHealth`], [`AnnouncementLens`], [`TraversalStats`]) that the
//!   owning subsystems (`epoch.rs`, `registry.rs`, the trie) *sample into*
//!   a [`TelemetrySnapshot`]; this crate defines only the plain data shapes
//!   so it can sit below every other workspace crate.
//! * **Flight recorder** ([`flight`], [`flight_dump`]) — a bounded
//!   per-thread ring of structured protocol events (announce / slide /
//!   notify / recovery / retire / injected faults) with global sequence
//!   ids, dumped by tests and the torture driver when an invariant breaks.
//!
//! # Sharding model
//!
//! Each recording thread lazily claims a leaked, cache-padded `Shard`
//! from a global lock-free list (the same slot-recycling scheme as the
//! epoch participants). Counters are never reset — they are process-global
//! monotonic totals — so a shard released by an exiting thread keeps its
//! history and is simply re-claimed by a later thread. [`snapshot`] sums
//! over *all* shards, claimed or not, with `Relaxed` loads: totals are
//! monotone across snapshots even though they are not an atomic cut.
//! [`thread_counters`] reads only the calling thread's shard, which no
//! other thread writes, so the difference of two such reads is exactly
//! what the thread recorded in between.
//!
//! # Switching it off
//!
//! Two mechanisms, for two purposes:
//!
//! * [`set_enabled`]`(false)` — a runtime kill-switch: recorders check one
//!   relaxed atomic and return. This is what the bench-guard test uses to
//!   measure the recording overhead inside a single binary.
//! * The `compiled-out` cargo feature — every recorder becomes a literal
//!   empty function the optimizer deletes; [`snapshot`] reports zeros.
//!
//! # Examples
//!
//! ```
//! use lftrie_telemetry as telemetry;
//!
//! telemetry::add(telemetry::Counter::InsertOps, 1);
//! telemetry::record(telemetry::Hist::TraversalDepth, 12);
//! let snap = telemetry::snapshot();
//! #[cfg(not(feature = "compiled-out"))]
//! assert!(snap.counters.get(telemetry::Counter::InsertOps) >= 1);
//! println!("{}", snap.to_prometheus());
//! ```
#![warn(rust_2018_idioms)]
#![warn(missing_docs)]

use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;

mod flight;
mod snapshot;
pub mod trace;

pub use flight::{FlightEvent, FlightKind, FLIGHT_CAP};
pub use snapshot::{
    AnnouncementLens, CounterTotals, EpochHealth, HistogramSnapshot, ReclaimHealth,
    TelemetrySnapshot, TraversalStats,
};

// ---------------------------------------------------------------------------
// Counter and histogram identifiers
// ---------------------------------------------------------------------------

/// Identifies one monotonic event counter.
///
/// The discriminant doubles as the index into each shard's counter array;
/// [`Counter::name`] is the stable label used in the Prometheus and JSON
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `insert` operations started (both tries).
    InsertOps,
    /// `remove` operations started (both tries).
    RemoveOps,
    /// Membership queries started.
    ContainsOps,
    /// Predecessor queries started.
    PredecessorOps,
    /// Successor queries started.
    SuccessorOps,
    /// Range scans / range counts started.
    ScanOps,
    /// `min`/`max` aggregate queries started.
    AggregateOps,
    /// Trie nodes touched by predecessor-side traversals (climb + descend).
    PredTouches,
    /// Trie nodes touched by successor-side traversals.
    SuccTouches,
    /// Trie nodes touched by update (insert/delete) traversals.
    UpdateTouches,
    /// Relaxed queries that returned the non-linearizable `⊥` answer.
    RelaxedBottoms,
    /// `⊥` answers repaired through the announcement-list recovery path.
    Recoveries,
    /// Shared reads (recorded by `steps` under `step-count`).
    StepReads,
    /// Shared writes (recorded by `steps` under `step-count`).
    StepWrites,
    /// CAS attempts (recorded by `steps` under `step-count`).
    StepCas,
    /// MinWrites (recorded by `steps` under `step-count`).
    StepMinWrites,
    /// S-ALL announcements.
    ScanAnnounces,
    /// S-ALL cursor slides.
    ScanSlides,
    /// S-ALL withdrawals.
    ScanWithdraws,
    /// Retire-bag flushes: each stamps its batch of retired nodes with one
    /// epoch read and appends it to the flushing thread's FIFO.
    BagFlushes,
    /// Registry garbage sweeps (`collect` bodies actually entered).
    Sweeps,
    /// Nanoseconds spent inside registry sweeps, timed only while recording
    /// is on. Each thread times one sweep in 16 and counts it 16 times: a
    /// clock pair on every sweep would not fit the always-on budget.
    SweepNs,
    /// Successful global-epoch advances.
    EpochAdvances,
    /// Epoch-advance attempts refused by a straggling pinned participant.
    EpochAdvanceBlocked,
    /// Events captured by the flight recorder.
    FlightEvents,
    /// U-ALL update announcements.
    UpdateAnnounces,
    /// U-ALL update withdrawals.
    UpdateWithdraws,
    /// Faults fired by the `fault-injection` plan machinery.
    FaultsInjected,
    /// Operations withdrawn or driven to completion by an RAII unwind
    /// guard after a panic.
    UnwindWithdrawals,
    /// Operation spans opened by the op-trace layer.
    TraceSpans,
    /// Helping edges recorded (one per `HelpActivate` advance of another
    /// thread's operation).
    HelpEdges,
    /// dNodePtr-install CAS attempts (`TrieCore::dnode_cas`; op-trace).
    DnodeCasAttempts,
    /// dNodePtr-install CAS failures (op-trace).
    DnodeCasFailures,
    /// Latest-list head CAS attempts (`TrieCore::cas_latest`; op-trace).
    LatestCasAttempts,
    /// Latest-list head CAS failures (op-trace).
    LatestCasFailures,
    /// Announcement-list cell CAS attempts (all four lists; op-trace).
    AnnounceCasAttempts,
    /// Announcement-list cell CAS failures (op-trace).
    AnnounceCasFailures,
    /// Published-cursor advance CAS/validation attempts (op-trace).
    CursorCasAttempts,
    /// Published-cursor advance validation failures (op-trace).
    CursorCasFailures,
}

/// Number of [`Counter`] variants (the shard array length).
pub const COUNTER_COUNT: usize = Counter::CursorCasFailures as usize + 1;

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::InsertOps,
        Counter::RemoveOps,
        Counter::ContainsOps,
        Counter::PredecessorOps,
        Counter::SuccessorOps,
        Counter::ScanOps,
        Counter::AggregateOps,
        Counter::PredTouches,
        Counter::SuccTouches,
        Counter::UpdateTouches,
        Counter::RelaxedBottoms,
        Counter::Recoveries,
        Counter::StepReads,
        Counter::StepWrites,
        Counter::StepCas,
        Counter::StepMinWrites,
        Counter::ScanAnnounces,
        Counter::ScanSlides,
        Counter::ScanWithdraws,
        Counter::BagFlushes,
        Counter::Sweeps,
        Counter::SweepNs,
        Counter::EpochAdvances,
        Counter::EpochAdvanceBlocked,
        Counter::FlightEvents,
        Counter::UpdateAnnounces,
        Counter::UpdateWithdraws,
        Counter::FaultsInjected,
        Counter::UnwindWithdrawals,
        Counter::TraceSpans,
        Counter::HelpEdges,
        Counter::DnodeCasAttempts,
        Counter::DnodeCasFailures,
        Counter::LatestCasAttempts,
        Counter::LatestCasFailures,
        Counter::AnnounceCasAttempts,
        Counter::AnnounceCasFailures,
        Counter::CursorCasAttempts,
        Counter::CursorCasFailures,
    ];

    /// The stable report label for this counter.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::InsertOps => "insert_ops",
            Counter::RemoveOps => "remove_ops",
            Counter::ContainsOps => "contains_ops",
            Counter::PredecessorOps => "predecessor_ops",
            Counter::SuccessorOps => "successor_ops",
            Counter::ScanOps => "scan_ops",
            Counter::AggregateOps => "aggregate_ops",
            Counter::PredTouches => "pred_node_touches",
            Counter::SuccTouches => "succ_node_touches",
            Counter::UpdateTouches => "update_node_touches",
            Counter::RelaxedBottoms => "relaxed_bottoms",
            Counter::Recoveries => "recoveries",
            Counter::StepReads => "step_reads",
            Counter::StepWrites => "step_writes",
            Counter::StepCas => "step_cas",
            Counter::StepMinWrites => "step_min_writes",
            Counter::ScanAnnounces => "scan_announces",
            Counter::ScanSlides => "scan_slides",
            Counter::ScanWithdraws => "scan_withdraws",
            Counter::BagFlushes => "bag_flushes",
            Counter::Sweeps => "sweeps",
            Counter::SweepNs => "sweep_ns",
            Counter::EpochAdvances => "epoch_advances",
            Counter::EpochAdvanceBlocked => "epoch_advance_blocked",
            Counter::FlightEvents => "flight_events",
            Counter::UpdateAnnounces => "update_announces",
            Counter::UpdateWithdraws => "update_withdraws",
            Counter::FaultsInjected => "faults_injected",
            Counter::UnwindWithdrawals => "unwind_withdrawals",
            Counter::TraceSpans => "trace_spans",
            Counter::HelpEdges => "help_edges",
            Counter::DnodeCasAttempts => "dnode_cas_attempts",
            Counter::DnodeCasFailures => "dnode_cas_failures",
            Counter::LatestCasAttempts => "latest_cas_attempts",
            Counter::LatestCasFailures => "latest_cas_failures",
            Counter::AnnounceCasAttempts => "announce_cas_attempts",
            Counter::AnnounceCasFailures => "announce_cas_failures",
            Counter::CursorCasAttempts => "cursor_cas_attempts",
            Counter::CursorCasFailures => "cursor_cas_failures",
        }
    }
}

/// Identifies one log₂-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Nodes touched per completed traversal (the cache-miss proxy the
    /// ROADMAP's k-ary compression item needs).
    TraversalDepth,
    /// Wall-clock nanoseconds per operation, recorded by the harness's
    /// instrumented driver (never from inside the structures — a clock read
    /// per op would perturb the throughput experiments).
    OpLatencyNs,
    /// Epoch-pin duration in ns (op-trace phase).
    PhasePinNs,
    /// Announcement-list traversal duration in ns (op-trace phase).
    PhaseTraverseNs,
    /// Announcement-publish duration in ns (op-trace phase).
    PhaseAnnounceNs,
    /// Query-notification duration in ns (op-trace phase).
    PhaseNotifyNs,
    /// ⊥-recovery duration in ns (op-trace phase).
    PhaseRecoveryNs,
    /// Announcement-withdrawal duration in ns (op-trace phase).
    PhaseWithdrawNs,
    /// Registry-sweep duration in ns (op-trace phase).
    PhaseReclaimNs,
    /// Time spent advancing *other* threads' operations in ns (op-trace
    /// phase; the helping half of the own-work vs. helping attribution).
    PhaseHelpNs,
    /// Helping-nesting depth at each recorded helping edge (op-trace).
    HelpingDepth,
}

/// Number of [`Hist`] variants.
pub const HIST_COUNT: usize = Hist::HelpingDepth as usize + 1;

/// Buckets per histogram: bucket `b` counts values whose bit length is `b`,
/// i.e. `v == 0 → 0` and otherwise `⌊log₂ v⌋ + 1`, so the upper bound of
/// bucket `b > 0` is `2^b − 1`.
pub const HIST_BUCKETS: usize = 65;

impl Hist {
    /// Every histogram, in report order.
    pub const ALL: [Hist; HIST_COUNT] = [
        Hist::TraversalDepth,
        Hist::OpLatencyNs,
        Hist::PhasePinNs,
        Hist::PhaseTraverseNs,
        Hist::PhaseAnnounceNs,
        Hist::PhaseNotifyNs,
        Hist::PhaseRecoveryNs,
        Hist::PhaseWithdrawNs,
        Hist::PhaseReclaimNs,
        Hist::PhaseHelpNs,
        Hist::HelpingDepth,
    ];

    /// The op-trace histograms (everything after the two originals), in
    /// report order: the per-phase latency distributions plus the
    /// helping-depth distribution.
    pub const TRACE: [Hist; 9] = [
        Hist::PhasePinNs,
        Hist::PhaseTraverseNs,
        Hist::PhaseAnnounceNs,
        Hist::PhaseNotifyNs,
        Hist::PhaseRecoveryNs,
        Hist::PhaseWithdrawNs,
        Hist::PhaseReclaimNs,
        Hist::PhaseHelpNs,
        Hist::HelpingDepth,
    ];

    /// The stable report label for this histogram.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::TraversalDepth => "traversal_depth",
            Hist::OpLatencyNs => "op_latency_ns",
            Hist::PhasePinNs => "phase_pin_ns",
            Hist::PhaseTraverseNs => "phase_traverse_ns",
            Hist::PhaseAnnounceNs => "phase_announce_ns",
            Hist::PhaseNotifyNs => "phase_notify_ns",
            Hist::PhaseRecoveryNs => "phase_recovery_ns",
            Hist::PhaseWithdrawNs => "phase_withdraw_ns",
            Hist::PhaseReclaimNs => "phase_reclaim_ns",
            Hist::PhaseHelpNs => "phase_help_ns",
            Hist::HelpingDepth => "helping_depth",
        }
    }
}

/// The process-wide trace anchor: an `Instant` paired with the raw tick
/// counter read at the same moment. Event timestamps are raw ticks (one
/// `rdtsc` on x86-64 — cheap enough for the always-on budget, where an
/// `Instant::now` per flight event is not); the dump paths map ticks back
/// to nanoseconds against this anchor.
struct TickAnchor {
    instant: std::time::Instant,
    tick: u64,
}

fn tick_anchor() -> &'static TickAnchor {
    static ANCHOR: std::sync::OnceLock<TickAnchor> = std::sync::OnceLock::new();
    ANCHOR.get_or_init(|| TickAnchor {
        instant: std::time::Instant::now(),
        tick: arch_tick().unwrap_or(0),
    })
}

/// The hardware tick counter where one exists: `rdtsc` on x86-64
/// (invariant and core-synchronized on every CPU of this code's vintage).
#[inline]
fn arch_tick() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// The raw monotonic tick counter: the hardware counter where available,
/// the ns clock elsewhere (those targets pay the syscall per event and
/// their "ticks" already are nanoseconds, so the calibrated rate settles
/// at 1.0; the budget guard still holds where it runs in CI).
#[inline]
fn raw_tick() -> u64 {
    arch_tick().unwrap_or_else(|| tick_anchor().instant.elapsed().as_nanos() as u64)
}

/// A raw timestamp for one event. Shared by the flight recorder and the
/// op-trace layer, so the two timelines interleave.
#[cfg(not(feature = "compiled-out"))]
#[inline]
pub(crate) fn now_ticks() -> u64 {
    // Touch the anchor so every recorded tick is >= the anchor tick.
    let _ = tick_anchor();
    raw_tick()
}

/// Ticks per nanosecond, calibrated against the ns clock *now* — the
/// longer the process has run, the better the estimate. Costs one
/// `Instant::now`; dump/export-path only, never on the record path.
pub(crate) fn tick_rate() -> f64 {
    let anchor = tick_anchor();
    let ticks = raw_tick().saturating_sub(anchor.tick);
    if ticks == 0 {
        return 1.0;
    }
    anchor.instant.elapsed().as_nanos() as f64 / ticks as f64
}

/// Monotonic nanoseconds since the trace anchor for a recorded tick, at
/// the given [`tick_rate`]. Callers converting a batch sample the rate
/// once so one timeline gets one linear map (order-preserving; two dumps
/// may disagree by the calibration drift, events within one never do).
#[inline]
pub(crate) fn ticks_to_ns(tick: u64, rate: f64) -> u64 {
    (tick.saturating_sub(tick_anchor().tick) as f64 * rate) as u64
}

/// The bucket a value lands in: its bit length.
#[cfg(any(test, not(feature = "compiled-out")))]
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
pub(crate) fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// One thread's recording arena. Leaked on first claim, recycled (without
/// reset — counters are process-global totals) through `in_use` when the
/// owning thread exits.
struct Shard {
    /// Monotonic event counters, indexed by [`Counter`].
    counters: [AtomicU64; COUNTER_COUNT],
    /// Histogram bucket tallies, indexed by [`Hist`] then bucket.
    hist_buckets: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT],
    /// Sum of recorded values per histogram (for means).
    hist_sums: [AtomicU64; HIST_COUNT],
    /// Flight-recorder ring (see [`flight`]).
    ring: flight::Ring,
    /// Op-trace ring (see [`trace`]): `TRACE_CAP` slots of six words, so
    /// only builds with the recorder pay for it.
    #[cfg(all(feature = "op-trace", not(feature = "compiled-out")))]
    trace: trace::Ring,
    /// Small stable id for flight-event attribution.
    id: usize,
    /// Claimed by a live thread?
    in_use: AtomicBool,
    /// Next shard in the global list (written once at registration).
    next: AtomicPtr<CachePadded<Shard>>,
}

/// Owner-only increment: the shard is written by exactly one thread at a
/// time (claim/release hands ownership off, never shares it), so a plain
/// load + store replaces the `fetch_add` RMW — roughly 5× cheaper on the
/// record path, which the bench guard's 3% budget cares about. Snapshots
/// read concurrently with `Relaxed` loads and may miss the in-flight
/// increment, exactly as they may miss a not-yet-performed one.
#[cfg(not(feature = "compiled-out"))]
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

impl Shard {
    fn new(id: usize) -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            hist_buckets: [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; HIST_COUNT],
            hist_sums: [const { AtomicU64::new(0) }; HIST_COUNT],
            ring: flight::Ring::new(),
            #[cfg(all(feature = "op-trace", not(feature = "compiled-out")))]
            trace: trace::Ring::new(),
            id,
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// One counter's total on this shard. `flight_events` is the ring's
    /// cursor rather than a bumped cell: every recorded event advances it
    /// anyway, so the record path skips a second owner-only increment.
    fn counter(&self, c: Counter) -> u64 {
        match c {
            Counter::FlightEvents => self.ring.pushed(),
            c => self.counters[c as usize].load(Ordering::Relaxed),
        }
    }
}

/// Head of the global shard list.
static SHARDS: AtomicPtr<CachePadded<Shard>> = AtomicPtr::new(core::ptr::null_mut());
/// Next fresh shard id.
static SHARD_IDS: AtomicUsize = AtomicUsize::new(0);
/// The runtime kill-switch (default: recording on).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Claims a released shard or registers a fresh (leaked) one.
fn claim_shard() -> &'static CachePadded<Shard> {
    let mut cur = SHARDS.load(Ordering::SeqCst);
    while !cur.is_null() {
        let s = unsafe { &*cur };
        if !s.in_use.load(Ordering::SeqCst)
            && s.in_use
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return s;
        }
        cur = s.next.load(Ordering::SeqCst);
    }
    let id = SHARD_IDS.fetch_add(1, Ordering::SeqCst);
    let s: &'static CachePadded<Shard> = Box::leak(Box::new(CachePadded::new(Shard::new(id))));
    loop {
        let head = SHARDS.load(Ordering::SeqCst);
        s.next.store(head, Ordering::SeqCst);
        if SHARDS
            .compare_exchange(
                head,
                s as *const _ as *mut _,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            return s;
        }
    }
}

/// Releases the thread's shard back to the free pool on exit.
struct ShardHandle(&'static CachePadded<Shard>);

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Invalidate the fast-path pointer first so late recorders on this
        // thread re-claim instead of racing the next owner for the ring.
        let _ = SHARD_PTR.try_with(|p| p.set(core::ptr::null()));
        // No reset: the counters are global monotonic totals and the next
        // claimant simply continues them.
        self.0.in_use.store(false, Ordering::SeqCst);
    }
}

thread_local! {
    static SHARD: ShardHandle = ShardHandle(claim_shard());
    /// Fast-path cache of `SHARD`'s pointer. Const-initialized and without
    /// a destructor, so reading it is a plain TLS load — no lazy-init
    /// branch on the record path, which is the difference between ~3% and
    /// ~9% hot-path overhead. Null until first use and again during thread
    /// teardown.
    static SHARD_PTR: core::cell::Cell<*const CachePadded<Shard>> =
        const { core::cell::Cell::new(core::ptr::null()) };
}

/// Runs `f` on the calling thread's shard (claiming one on first use).
/// Returns `None` during thread destruction, when the TLS slots are gone.
#[inline]
fn with_shard<R>(f: impl FnOnce(&'static CachePadded<Shard>) -> R) -> Option<R> {
    let ptr = SHARD_PTR.try_with(|p| p.get()).ok()?;
    if !ptr.is_null() {
        return Some(f(unsafe { &*ptr }));
    }
    // Slow path: claim (or re-resolve) the shard and cache its pointer.
    let shard = SHARD.try_with(|h| h.0).ok()?;
    let _ = SHARD_PTR.try_with(|p| p.set(shard));
    Some(f(shard))
}

/// Walks every shard ever registered (claimed or released).
fn for_each_shard(mut f: impl FnMut(&Shard)) {
    let mut cur = SHARDS.load(Ordering::SeqCst);
    while !cur.is_null() {
        let s = unsafe { &*cur };
        f(s);
        cur = s.next.load(Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Recorders
// ---------------------------------------------------------------------------

/// Turns recording on or off at runtime (on by default). Disabling does not
/// clear anything: counters freeze at their current totals.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recorders are currently recording.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "compiled-out")]
    {
        false
    }
    #[cfg(not(feature = "compiled-out"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Adds `n` to counter `c` on the calling thread's shard.
#[inline]
pub fn add(c: Counter, n: u64) {
    #[cfg(not(feature = "compiled-out"))]
    if enabled() && n != 0 {
        with_shard(|s| bump(&s.counters[c as usize], n));
    }
    #[cfg(feature = "compiled-out")]
    {
        let _ = (c, n);
    }
}

/// Records one sample of value `v` into histogram `h`.
#[inline]
pub fn record(h: Hist, v: u64) {
    #[cfg(not(feature = "compiled-out"))]
    if enabled() {
        with_shard(|s| {
            bump(&s.hist_buckets[h as usize][bucket_of(v)], 1);
            bump(&s.hist_sums[h as usize], v);
        });
    }
    #[cfg(feature = "compiled-out")]
    {
        let _ = (h, v);
    }
}

/// Records one completed traversal: adds `touched` to counter `c` *and*
/// samples it into [`Hist::TraversalDepth`] in a single shard access.
/// Equivalent to `add(c, touched); record(Hist::TraversalDepth, touched)`,
/// fused because this runs once per trie traversal — squarely on the hot
/// path the bench guard budgets. Zero-touch traversals record nothing.
#[inline]
pub fn record_traversal(c: Counter, touched: u64) {
    #[cfg(not(feature = "compiled-out"))]
    if enabled() && touched != 0 {
        with_shard(|s| {
            bump(&s.counters[c as usize], touched);
            bump(
                &s.hist_buckets[Hist::TraversalDepth as usize][bucket_of(touched)],
                1,
            );
            bump(&s.hist_sums[Hist::TraversalDepth as usize], touched);
        });
    }
    #[cfg(feature = "compiled-out")]
    {
        let _ = (c, touched);
    }
}

/// Times `f` and records its wall-clock duration into
/// [`Hist::OpLatencyNs`]. Harness-side only: the structures themselves
/// never read clocks.
#[inline]
pub fn time_op<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    record(Hist::OpLatencyNs, start.elapsed().as_nanos() as u64);
    out
}

/// Appends a structured event to the calling thread's flight-recorder ring.
///
/// `key` is the operation key (or `-1` when not applicable), `aux` an
/// event-specific payload (list lengths, epoch numbers, sequence hints).
#[inline]
pub fn flight(kind: FlightKind, key: i64, aux: u64) {
    #[cfg(not(feature = "compiled-out"))]
    if enabled() {
        with_shard(|s| s.ring.push(kind, key, aux));
    }
    #[cfg(feature = "compiled-out")]
    {
        let _ = (kind, key, aux);
    }
}

/// Counts one protocol event in `c` *and* appends it to the flight
/// recorder, in a single shard access. Equivalent to
/// `add(c, 1); flight(kind, key, aux)`, fused because nearly every flight
/// event is also counted and several run on every update.
#[inline]
pub fn event(c: Counter, kind: FlightKind, key: i64, aux: u64) {
    #[cfg(not(feature = "compiled-out"))]
    if enabled() {
        with_shard(|s| {
            bump(&s.counters[c as usize], 1);
            s.ring.push(kind, key, aux);
        });
    }
    #[cfg(feature = "compiled-out")]
    {
        let _ = (c, kind, key, aux);
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Sums every shard's counters (Relaxed loads; monotone across snapshots,
/// not an atomic cut).
pub fn counters() -> CounterTotals {
    let mut totals = [0u64; COUNTER_COUNT];
    for_each_shard(|s| {
        for c in Counter::ALL {
            totals[c as usize] += s.counter(c);
        }
    });
    CounterTotals { totals }
}

/// The calling thread's own shard counters. Only the owning thread writes
/// a shard, so `thread_counters() - before` taken on one thread is exactly
/// what that thread recorded in between, whatever other threads record
/// meanwhile. All zeros under `compiled-out`.
pub fn thread_counters() -> CounterTotals {
    let mut totals = [0u64; COUNTER_COUNT];
    with_shard(|s| {
        for c in Counter::ALL {
            totals[c as usize] = s.counter(c);
        }
    });
    CounterTotals { totals }
}

/// Aggregates one histogram across every shard.
pub fn histogram(h: Hist) -> HistogramSnapshot {
    let mut buckets = [0u64; HIST_BUCKETS];
    let mut sum = 0u64;
    for_each_shard(|s| {
        for (b, src) in buckets.iter_mut().zip(s.hist_buckets[h as usize].iter()) {
            *b += src.load(Ordering::Relaxed);
        }
        sum = sum.wrapping_add(s.hist_sums[h as usize].load(Ordering::Relaxed));
    });
    HistogramSnapshot::from_parts(h, buckets, sum)
}

/// Collects every flight-recorder event currently buffered, across all
/// shards, ordered by `(ts, seq)`.
///
/// Timestamp-first, because sequence ids alone only resolve cross-thread
/// order to *batch* granularity: each ring reserves `SEQ_BATCH` (16) ids
/// per refill of the global counter, so thread A can stamp ids 16–31 on
/// events that happen long after thread B consumed id 40 from an earlier
/// reservation. The monotonic timestamps interleave threads at clock
/// resolution instead; ids break ties and still give the exact per-thread
/// order (they stay unique and per-thread monotone).
pub fn flight_dump() -> Vec<FlightEvent> {
    let mut out = Vec::new();
    let rate = tick_rate();
    for_each_shard(|s| s.ring.drain_into(s.id, rate, &mut out));
    out.sort_by_key(|e| (e.ts, e.seq));
    out
}

/// Renders [`flight_dump`] as a readable multi-line report (newest last).
pub fn flight_report() -> String {
    let events = flight_dump();
    if events.is_empty() {
        return "flight recorder: no events captured\n".to_string();
    }
    let mut out = String::with_capacity(events.len() * 48 + 64);
    out.push_str(&format!("flight recorder: {} event(s)\n", events.len()));
    for e in &events {
        out.push_str(&format!(
            "  #{seq:<10} @{ts:<12} t{shard:<3} {kind:<10} key={key:<20} aux={aux}\n",
            seq = e.seq,
            ts = e.ts,
            shard = e.shard,
            kind = e.kind.name(),
            key = e.key,
            aux = e.aux,
        ));
    }
    out
}

/// A global snapshot: all counters plus both histograms. Structure-level
/// gauges (`epoch`, `reclaim`, `announcements`, `traversal`) are absent —
/// the owning structures fill them in (e.g. the trie's `telemetry()`).
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: counters(),
        traversal_depth: histogram(Hist::TraversalDepth),
        op_latency_ns: histogram(Hist::OpLatencyNs),
        trace: Hist::TRACE.iter().map(|&h| histogram(h)).collect(),
        epoch: None,
        reclaim: Vec::new(),
        announcements: None,
        traversal: None,
    }
}

/// Serializes tests that toggle the process-global kill-switches (the
/// crate's own suite runs multi-threaded).
#[cfg(all(test, not(feature = "compiled-out")))]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(not(feature = "compiled-out"))]
    fn counters_accumulate_and_are_monotone() {
        let before = counters().get(Counter::InsertOps);
        add(Counter::InsertOps, 3);
        add(Counter::InsertOps, 0); // no-op, still monotone
        let after = counters().get(Counter::InsertOps);
        assert!(after >= before + 3);
    }

    #[test]
    #[cfg(not(feature = "compiled-out"))]
    fn kill_switch_freezes_totals() {
        let _serial = test_serial();
        add(Counter::RemoveOps, 1);
        let frozen = counters().get(Counter::RemoveOps);
        set_enabled(false);
        add(Counter::RemoveOps, 10);
        record(Hist::TraversalDepth, 4);
        flight(FlightKind::Announce, 7, 0);
        assert_eq!(counters().get(Counter::RemoveOps), frozen);
        set_enabled(true);
        add(Counter::RemoveOps, 2);
        assert!(counters().get(Counter::RemoveOps) >= frozen + 2);
    }

    #[test]
    #[cfg(not(feature = "compiled-out"))]
    fn thread_interval_is_exact_under_a_concurrent_recorder() {
        let _serial = test_serial();
        let stop = AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        let intervals: Vec<u64> = std::thread::scope(|scope| {
            scope.spawn(|| {
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    add(Counter::ScanSlides, 1);
                }
            });
            started.wait();
            let intervals = (0..10_000)
                .map(|_| {
                    let before = thread_counters();
                    add(Counter::ScanSlides, 3);
                    (thread_counters() - before).get(Counter::ScanSlides)
                })
                .collect();
            // Stop the recorder before asserting: a failed assertion here
            // would leave the scope waiting on it forever.
            stop.store(true, Ordering::Relaxed);
            intervals
        });
        assert!(intervals.iter().all(|&n| n == 3), "{intervals:?}");
    }

    #[test]
    #[cfg(not(feature = "compiled-out"))]
    fn histogram_buckets_match_bit_length() {
        let h = histogram(Hist::TraversalDepth);
        let base: Vec<u64> = h.buckets.to_vec();
        record(Hist::TraversalDepth, 0); // bucket 0
        record(Hist::TraversalDepth, 1); // bucket 1
        record(Hist::TraversalDepth, 5); // bucket 3 (4..=7)
        record(Hist::TraversalDepth, u64::MAX); // bucket 64
        let h2 = histogram(Hist::TraversalDepth);
        assert_eq!(h2.buckets[0], base[0] + 1);
        assert_eq!(h2.buckets[1], base[1] + 1);
        assert_eq!(h2.buckets[3], base[3] + 1);
        assert_eq!(h2.buckets[64], base[64] + 1);
    }

    #[test]
    #[cfg(feature = "compiled-out")]
    fn compiled_out_records_nothing() {
        add(Counter::InsertOps, 5);
        record(Hist::TraversalDepth, 9);
        flight(FlightKind::Announce, 1, 2);
        let snap = snapshot();
        assert_eq!(snap.counters.get(Counter::InsertOps), 0);
        assert_eq!(thread_counters().get(Counter::InsertOps), 0);
        assert_eq!(snap.traversal_depth.count, 0);
        assert!(flight_dump().is_empty());
        assert!(!enabled());
    }

    #[test]
    fn bucket_bounds_are_inclusive_uppers() {
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(3), 7);
        assert_eq!(bucket_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 8, 1023, 1024, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_bound(b));
            if b > 0 {
                assert!(v > bucket_bound(b - 1));
            }
        }
    }
}
