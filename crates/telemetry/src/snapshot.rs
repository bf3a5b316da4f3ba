//! Snapshot shapes and report rendering.
//!
//! The gauge structs here ([`EpochHealth`], [`ReclaimHealth`],
//! [`AnnouncementLens`], [`TraversalStats`]) are plain data: this crate
//! sits below every other workspace crate, so the subsystems that own the
//! live state (`epoch.rs`, `registry.rs`, the tries) construct them and
//! attach them to a [`TelemetrySnapshot`]. Rendering is hand-rolled into
//! two formats: a Prometheus-style text exposition and a single-object JSON
//! document.

use crate::{bucket_bound, Counter, Hist, COUNTER_COUNT, HIST_BUCKETS};

/// Aggregated totals of every [`Counter`] across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTotals {
    pub(crate) totals: [u64; COUNTER_COUNT],
}

impl CounterTotals {
    /// The total for one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.totals[c as usize]
    }

    /// `(counter, total)` pairs in report order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c, self.get(c)))
    }

    /// Shared-memory steps: reads + writes + CAS + MinWrites (all zero
    /// unless the `step-count` feature recorded them).
    pub fn steps(&self) -> u64 {
        self.get(Counter::StepReads)
            + self.get(Counter::StepWrites)
            + self.get(Counter::StepCas)
            + self.get(Counter::StepMinWrites)
    }
}

/// Per-counter `self − earlier`: what was recorded between two reads.
impl core::ops::Sub for CounterTotals {
    type Output = CounterTotals;
    fn sub(mut self, earlier: CounterTotals) -> CounterTotals {
        for (t, e) in self.totals.iter_mut().zip(earlier.totals) {
            *t = t.wrapping_sub(e);
        }
        self
    }
}

/// An aggregated log₂ histogram with percentile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Which histogram this is.
    pub hist: Hist,
    /// Per-bucket sample counts; bucket `b` holds values of bit length `b`
    /// (upper bound `2^b − 1`, see [`crate::HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping; meaningful while `count` is
    /// far from overflow, which every realistic run is).
    pub sum: u64,
}

impl HistogramSnapshot {
    pub(crate) fn from_parts(hist: Hist, buckets: [u64; HIST_BUCKETS], sum: u64) -> Self {
        let count = buckets.iter().sum();
        Self {
            hist,
            buckets,
            count,
            sum,
        }
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `p`-th percentile (`0.0 ≤ p ≤ 100.0`):
    /// the inclusive upper bound of the bucket containing the `⌈p% · n⌉`-th
    /// smallest sample. Returns 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(b);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }

    /// Upper bound of the largest non-empty bucket (0 when empty).
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(bucket_bound)
            .unwrap_or(0)
    }
}

/// Point-in-time health of an epoch domain — sampled by
/// `lftrie_primitives::epoch::Domain::health`, defined here so the snapshot
/// can carry it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EpochHealth {
    /// The global epoch.
    pub epoch: u64,
    /// Currently pinned participants.
    pub pinned: usize,
    /// Registered participant slots (pinned or not, live or released).
    pub participants: usize,
    /// Global epoch minus the minimum epoch announced by a pinned
    /// participant (0 when nothing is pinned; the pin protocol bounds it
    /// by 1).
    pub min_pin_lag: u64,
    /// Largest number of *consecutive blocked advance attempts* charged to
    /// a single pinned participant. Raw epoch lag saturates at 1, so this
    /// is the signal that actually grows while a reader stalls.
    pub max_blocked: u64,
    /// Participants whose blocked-advance streak reached the stall
    /// threshold (see `Domain::health`) — the stalled-reader detector.
    pub stalled_readers: usize,
    /// Lifetime pins across all participant slots.
    pub total_pins: u64,
}

/// Point-in-time health of one node registry — sampled by
/// `lftrie_primitives::registry`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimHealth {
    /// Which registry this is (e.g. `"preds"`, `"succs"`, `"cells"`).
    pub label: &'static str,
    /// Nodes aging in the limbo stack (retired, gate open, waiting out the
    /// grace period).
    pub limbo: usize,
    /// Nodes parked in the pending stack: retired with a closed gate, or
    /// opened since the last re-probe.
    pub pending: usize,
    /// Emptied nodes in the shared free stock.
    pub free_stock: usize,
    /// Heap-resident nodes not currently holding a live value (pools,
    /// limbo, pending, in-flight bags): `resident − live`.
    pub pooled: usize,
    /// Value-resident nodes.
    pub live: usize,
    /// Heap-resident nodes.
    pub resident: usize,
    /// Fresh heap allocations (lifetime).
    pub fresh: usize,
    /// Pool-recycled allocations (lifetime).
    pub recycled: usize,
    /// Values destroyed (lifetime).
    pub reclaimed: usize,
}

impl ReclaimHealth {
    /// Cumulative logical allocations, `fresh + recycled`.
    pub fn created(&self) -> usize {
        self.fresh + self.recycled
    }
}

/// Announcement-list lengths, by list.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnnouncementLens {
    /// Update announcements in the U-ALL.
    pub uall: usize,
    /// Update announcements in the RU-ALL.
    pub ruall: usize,
    /// Predecessor-query announcements in the P-ALL.
    pub pall: usize,
    /// Successor/scan announcements in the S-ALL.
    pub sall: usize,
    /// Highest total announcement count ever sampled on this structure:
    /// the gauge that still shows a burst of announcements after the
    /// current lists have drained.
    pub high_water: usize,
}

impl AnnouncementLens {
    /// Sum over all four lists (current, not high-water).
    pub fn total(&self) -> usize {
        self.uall + self.ruall + self.pall + self.sall
    }

    /// True when every list is empty (the quiescent invariant).
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Relaxed-query outcome totals: how often relaxed traversals answered
/// `⊥`, and how often recovery repaired it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraversalStats {
    /// Relaxed traversals that answered `⊥` (interference detected).
    pub bottoms: u64,
    /// `⊥` answers repaired through announcement-list recovery.
    pub recoveries: u64,
}

/// The unified snapshot: every counter and histogram, plus whatever gauges
/// the sampling context could attach. [`crate::snapshot`] fills only the
/// global parts; `LockFreeBinaryTrie::telemetry()` attaches epoch,
/// registry, announcement, and traversal gauges too.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Monotonic event totals.
    pub counters: CounterTotals,
    /// Nodes touched per traversal.
    pub traversal_depth: HistogramSnapshot,
    /// Per-operation latency (populated by the instrumented driver).
    pub op_latency_ns: HistogramSnapshot,
    /// The op-trace histograms ([`Hist::TRACE`] order): per-phase latency
    /// distributions plus helping depth. All-zero unless the `op-trace`
    /// feature recorded.
    pub trace: Vec<HistogramSnapshot>,
    /// Epoch-domain health, when the sampler had a domain in hand.
    pub epoch: Option<EpochHealth>,
    /// Per-registry reclamation health, when sampled from a structure.
    pub reclaim: Vec<ReclaimHealth>,
    /// Announcement-list lengths, when sampled from a trie.
    pub announcements: Option<AnnouncementLens>,
    /// Relaxed-query outcome totals, when sampled from a trie.
    pub traversal: Option<TraversalStats>,
}

impl TelemetrySnapshot {
    /// Renders a Prometheus-style text exposition.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE lftrie_events_total counter\n");
        for (c, v) in self.counters.iter() {
            out.push_str(&format!(
                "lftrie_events_total{{event=\"{}\"}} {}\n",
                c.name(),
                v
            ));
        }
        // Every histogram renders as a real Prometheus histogram family:
        // cumulative `_bucket{le=...}` series (le = the log₂ bucket's
        // inclusive upper bound, empty buckets elided), the `+Inf` bucket,
        // and the `_sum`/`_count` pair. Trace histograms are skipped while
        // empty so the default (untraced) exposition stays compact.
        for h in [&self.traversal_depth, &self.op_latency_ns]
            .into_iter()
            .chain(self.trace.iter().filter(|h| h.count > 0))
        {
            let name = format!("lftrie_{}", h.hist.name());
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_bound(b)
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        // Per-site CAS attempt/failure tallies (op-trace): the retry-rate
        // view of the contended protocol steps. Only rendered once any
        // site recorded an attempt.
        if crate::trace::CAS_SITES
            .iter()
            .any(|s| self.counters.get(s.counters().0) > 0)
        {
            out.push_str("# TYPE lftrie_cas_total counter\n");
            for site in crate::trace::CAS_SITES {
                let (attempts, failures) = site.counters();
                out.push_str(&format!(
                    "lftrie_cas_total{{site=\"{}\",result=\"attempts\"}} {}\n",
                    site.name(),
                    self.counters.get(attempts)
                ));
                out.push_str(&format!(
                    "lftrie_cas_total{{site=\"{}\",result=\"failures\"}} {}\n",
                    site.name(),
                    self.counters.get(failures)
                ));
            }
        }
        if let Some(e) = &self.epoch {
            out.push_str("# TYPE lftrie_epoch gauge\n");
            out.push_str(&format!("lftrie_epoch {}\n", e.epoch));
            out.push_str(&format!("lftrie_epoch_pinned {}\n", e.pinned));
            out.push_str(&format!("lftrie_epoch_participants {}\n", e.participants));
            out.push_str(&format!("lftrie_epoch_min_pin_lag {}\n", e.min_pin_lag));
            out.push_str(&format!("lftrie_epoch_max_blocked {}\n", e.max_blocked));
            out.push_str(&format!(
                "lftrie_epoch_stalled_readers {}\n",
                e.stalled_readers
            ));
            out.push_str(&format!("lftrie_epoch_total_pins {}\n", e.total_pins));
        }
        if !self.reclaim.is_empty() {
            out.push_str("# TYPE lftrie_reclaim gauge\n");
            for r in &self.reclaim {
                for (field, v) in [
                    ("limbo", r.limbo),
                    ("pending", r.pending),
                    ("free_stock", r.free_stock),
                    ("pooled", r.pooled),
                    ("live", r.live),
                    ("resident", r.resident),
                    ("fresh", r.fresh),
                    ("recycled", r.recycled),
                    ("reclaimed", r.reclaimed),
                ] {
                    out.push_str(&format!(
                        "lftrie_reclaim{{registry=\"{}\",field=\"{}\"}} {}\n",
                        r.label, field, v
                    ));
                }
            }
        }
        if let Some(a) = &self.announcements {
            out.push_str("# TYPE lftrie_announcements gauge\n");
            for (list, v) in [
                ("uall", a.uall),
                ("ruall", a.ruall),
                ("pall", a.pall),
                ("sall", a.sall),
                ("high_water", a.high_water),
            ] {
                out.push_str(&format!("lftrie_announcements{{list=\"{list}\"}} {v}\n"));
            }
        }
        if let Some(t) = &self.traversal {
            out.push_str("# TYPE lftrie_relaxed_outcomes counter\n");
            out.push_str(&format!(
                "lftrie_relaxed_outcomes{{outcome=\"bottom\"}} {}\n",
                t.bottoms
            ));
            out.push_str(&format!(
                "lftrie_relaxed_outcomes{{outcome=\"recovered\"}} {}\n",
                t.recoveries
            ));
        }
        out
    }

    /// Renders a single JSON object (hand-rolled; every key is a fixed
    /// identifier and every value numeric, so no escaping is needed).
    pub fn to_json(&self) -> String {
        fn hist_json(h: &HistogramSnapshot) -> String {
            format!(
                "{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                h.count,
                h.sum,
                h.mean(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max_bound()
            )
        }

        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\":{");
        let mut first = true;
        for (c, v) in self.counters.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", c.name(), v));
        }
        out.push_str("},\"histograms\":{");
        out.push_str(&format!(
            "\"{}\":{},\"{}\":{}",
            self.traversal_depth.hist.name(),
            hist_json(&self.traversal_depth),
            self.op_latency_ns.hist.name(),
            hist_json(&self.op_latency_ns)
        ));
        for h in &self.trace {
            out.push_str(&format!(",\"{}\":{}", h.hist.name(), hist_json(h)));
        }
        out.push_str("},\"epoch\":");
        match &self.epoch {
            None => out.push_str("null"),
            Some(e) => out.push_str(&format!(
                "{{\"epoch\":{},\"pinned\":{},\"participants\":{},\"min_pin_lag\":{},\"max_blocked\":{},\"stalled_readers\":{},\"total_pins\":{}}}",
                e.epoch, e.pinned, e.participants, e.min_pin_lag, e.max_blocked, e.stalled_readers, e.total_pins
            )),
        }
        out.push_str(",\"reclaim\":[");
        for (i, r) in self.reclaim.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"registry\":\"{}\",\"limbo\":{},\"pending\":{},\"free_stock\":{},\"pooled\":{},\"live\":{},\"resident\":{},\"fresh\":{},\"recycled\":{},\"reclaimed\":{}}}",
                r.label, r.limbo, r.pending, r.free_stock, r.pooled, r.live, r.resident, r.fresh, r.recycled, r.reclaimed
            ));
        }
        out.push_str("],\"announcements\":");
        match &self.announcements {
            None => out.push_str("null"),
            Some(a) => out.push_str(&format!(
                "{{\"uall\":{},\"ruall\":{},\"pall\":{},\"sall\":{},\"high_water\":{}}}",
                a.uall, a.ruall, a.pall, a.sall, a.high_water
            )),
        }
        out.push_str(",\"traversal\":");
        match &self.traversal {
            None => out.push_str("null"),
            Some(t) => out.push_str(&format!(
                "{{\"bottoms\":{},\"recoveries\":{}}}",
                t.bottoms, t.recoveries
            )),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist(values: &[u64]) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            buckets[crate::bucket_of(v)] += 1;
            sum += v;
        }
        HistogramSnapshot::from_parts(Hist::TraversalDepth, buckets, sum)
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: CounterTotals {
                totals: [7; COUNTER_COUNT],
            },
            traversal_depth: sample_hist(&[1, 2, 4, 8, 16]),
            op_latency_ns: sample_hist(&[]),
            trace: Vec::new(),
            epoch: Some(EpochHealth {
                epoch: 42,
                pinned: 1,
                participants: 3,
                min_pin_lag: 1,
                max_blocked: 5,
                stalled_readers: 1,
                total_pins: 1000,
            }),
            reclaim: vec![ReclaimHealth {
                label: "preds",
                limbo: 4,
                pending: 2,
                free_stock: 10,
                pooled: 16,
                live: 100,
                resident: 116,
                fresh: 116,
                recycled: 50,
                reclaimed: 66,
            }],
            announcements: Some(AnnouncementLens {
                uall: 1,
                ruall: 0,
                pall: 2,
                sall: 0,
                high_water: 3,
            }),
            traversal: Some(TraversalStats {
                bottoms: 9,
                recoveries: 3,
            }),
        }
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let h = sample_hist(&[1, 1, 1, 1000]);
        assert_eq!(h.count, 4);
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(100.0), 1023);
        assert_eq!(h.max_bound(), 1023);
        let empty = sample_hist(&[]);
        assert_eq!(empty.percentile(99.0), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn prometheus_report_contains_every_section() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("lftrie_events_total{event=\"insert_ops\"} 7"));
        assert!(text.contains("lftrie_events_total{event=\"gate_probes\"} 7"));
        assert!(text.contains("lftrie_events_total{event=\"sweep_ns\"} 7"));
        assert!(text.contains("lftrie_traversal_depth_count 5"));
        assert!(text.contains("lftrie_traversal_depth_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lftrie_epoch_stalled_readers 1"));
        assert!(text.contains("lftrie_reclaim{registry=\"preds\",field=\"limbo\"} 4"));
        assert!(text.contains("lftrie_announcements{list=\"pall\"} 2"));
        assert!(text.contains("lftrie_relaxed_outcomes{outcome=\"bottom\"} 9"));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let json = sample_snapshot().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"counters\"",
            "\"histograms\"",
            "\"epoch\"",
            "\"reclaim\"",
            "\"announcements\"",
            "\"traversal\"",
            "\"insert_ops\"",
            "\"gate_probes\":7",
            "\"sweep_ns\":7",
            "\"stalled_readers\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let none = crate::snapshot();
        let json = none.to_json();
        assert!(json.contains("\"epoch\":null"));
        assert!(json.contains("\"reclaim\":[]"));
    }

    #[test]
    fn histograms_render_as_prometheus_bucket_series() {
        // The render contract for *every* histogram family: `_bucket`
        // series with `le` labels from the log₂ bucket bounds, cumulative
        // and monotone, `+Inf` equal to `_count`, plus `_sum`.
        let mut snap = sample_snapshot();
        let mut trace_hist = sample_hist(&[3, 3, 900, 70_000]);
        trace_hist.hist = Hist::PhaseAnnounceNs;
        snap.trace = vec![trace_hist];
        let text = snap.to_prometheus();

        // 3 and 3 share bucket 2 (le=3); 900 lands in bucket 10 (le=1023);
        // 70_000 in bucket 17 (le=131071). Cumulative counts: 2, 3, 4.
        assert!(text.contains("# TYPE lftrie_phase_announce_ns histogram"));
        assert!(text.contains("lftrie_phase_announce_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("lftrie_phase_announce_ns_bucket{le=\"1023\"} 3"));
        assert!(text.contains("lftrie_phase_announce_ns_bucket{le=\"131071\"} 4"));
        assert!(text.contains("lftrie_phase_announce_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lftrie_phase_announce_ns_sum 70906"));
        assert!(text.contains("lftrie_phase_announce_ns_count 4"));

        // Cumulative bucket values never decrease within a family.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("lftrie_phase_announce_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets are monotone: {line}");
            last = v;
        }

        // Empty trace histograms are elided entirely.
        let bare = sample_snapshot().to_prometheus();
        assert!(!bare.contains("lftrie_phase_announce_ns"));

        // CAS tallies render as a labeled counter family once populated,
        // and are elided entirely while every site reads zero.
        let mut quiet = sample_snapshot();
        for site in crate::trace::CAS_SITES {
            let (attempts, failures) = site.counters();
            quiet.counters.totals[attempts as usize] = 0;
            quiet.counters.totals[failures as usize] = 0;
        }
        assert!(
            !quiet.to_prometheus().contains("lftrie_cas_total"),
            "all-zero cas elided"
        );
        let mut cased = sample_snapshot();
        cased.counters.totals[Counter::DnodeCasAttempts as usize] = 10;
        cased.counters.totals[Counter::DnodeCasFailures as usize] = 4;
        let text = cased.to_prometheus();
        assert!(text.contains("lftrie_cas_total{site=\"dnode\",result=\"attempts\"} 10"));
        assert!(text.contains("lftrie_cas_total{site=\"dnode\",result=\"failures\"} 4"));
    }

    #[test]
    fn trace_histograms_appear_in_json() {
        let mut snap = sample_snapshot();
        let mut h = sample_hist(&[5, 6]);
        h.hist = Hist::HelpingDepth;
        snap.trace = vec![h];
        let json = snap.to_json();
        assert!(json.contains("\"helping_depth\":{\"count\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn announcement_lens_totals() {
        let a = AnnouncementLens {
            uall: 1,
            ruall: 2,
            pall: 3,
            sall: 4,
            high_water: 10,
        };
        assert_eq!(a.total(), 10);
        assert!(!a.is_empty());
        assert!(AnnouncementLens::default().is_empty());
    }
}
