//! The flight recorder: a bounded per-thread ring of structured protocol
//! events with global sequence ids.
//!
//! Interleaving bugs in the announcement protocol are notoriously
//! irreproducible: by the time a validation step fails, the schedule that
//! broke it is gone. The flight recorder keeps the last [`FLIGHT_CAP`]
//! protocol events *per thread* — announces, slides, notifies, recoveries,
//! retires, injected stalls — each stamped with a process-global sequence
//! id, so a failure dump reconstructs the recent cross-thread order. Ids
//! are reserved in per-thread batches (see [`SEQ_BATCH`]): they are unique
//! and per-thread monotone, and cross-thread interleavings resolve to
//! batch granularity.
//!
//! # Write protocol (per entry)
//!
//! Each slot is a quartet of atomics: a tag packing the sequence id with
//! the event kind, then the timestamp, key and payload. The owning thread
//! first invalidates the slot (`tag ← 0`, `Relaxed`), writes the other
//! fields (`Relaxed`), then publishes the tag with a `Release` store. A
//! dumper reads the tag with `Acquire` and skips zero slots. A dump racing
//! the owner can still observe a *torn logical* entry (payload from two
//! events) — every field is individually atomic so this is benign, and the
//! dump is a diagnostic, not a source of truth. Failure-path dumps run
//! after the interesting threads have stopped, where the capture is exact.

use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Events a thread can retain in its flight-recorder ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// An update operation announced itself in the U-ALL/RU-ALL.
    Announce = 1,
    /// An update operation withdrew its announcement.
    Deannounce = 2,
    /// A scan cursor slid its S-ALL announcement to a new key.
    Slide = 3,
    /// An update notified announced queries (the NOTIFY phase).
    Notify = 4,
    /// A relaxed `⊥` answer entered the recovery path.
    Recovery = 5,
    /// A node was retired into a registry.
    Retire = 6,
    /// A `stall-injection` entry point parked an operation mid-flight.
    Stall = 7,
    /// A registry garbage sweep ran.
    Sweep = 8,
    /// A `fault-injection` plan fired (`key` = injection-point index,
    /// `aux` = action discriminant).
    Fault = 10,
    /// An orphaned announcement of a dead incarnation was adopted
    /// (completed via helping and withdrawn).
    Adopt = 11,
    /// An injected `Abandon` stranded an allocated-but-unpublished update
    /// node in its pool (no helper or adopter can ever reach it).
    Stranded = 12,
}

impl FlightKind {
    /// Stable lower-case label for reports.
    pub const fn name(self) -> &'static str {
        match self {
            FlightKind::Announce => "announce",
            FlightKind::Deannounce => "deannounce",
            FlightKind::Slide => "slide",
            FlightKind::Notify => "notify",
            FlightKind::Recovery => "recovery",
            FlightKind::Retire => "retire",
            FlightKind::Stall => "stall",
            FlightKind::Sweep => "sweep",
            FlightKind::Fault => "fault",
            FlightKind::Adopt => "adopt",
            FlightKind::Stranded => "stranded",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        Some(match v {
            1 => FlightKind::Announce,
            2 => FlightKind::Deannounce,
            3 => FlightKind::Slide,
            4 => FlightKind::Notify,
            5 => FlightKind::Recovery,
            6 => FlightKind::Retire,
            7 => FlightKind::Stall,
            8 => FlightKind::Sweep,
            10 => FlightKind::Fault,
            11 => FlightKind::Adopt,
            12 => FlightKind::Stranded,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Process-global sequence id (1-based; later events have larger ids).
    pub seq: u64,
    /// Monotonic nanoseconds since the process trace anchor (shared with
    /// the op-trace layer). Stamped at `SEQ_BATCH` resolution — one raw
    /// tick read per id-batch refill, shared by the batch; see that
    /// constant's docs for the budget/resolution trade-off — and converted
    /// against the anchor when the ring is drained.
    pub ts: u64,
    /// Shard (≈ thread) id that recorded the event.
    pub shard: usize,
    /// What happened.
    pub kind: FlightKind,
    /// Operation key, or `-1` when not applicable.
    pub key: i64,
    /// Event-specific payload.
    pub aux: u64,
}

/// Entries retained per thread. Old events are overwritten; a failure dump
/// therefore shows the last `FLIGHT_CAP` events of every recording thread.
pub const FLIGHT_CAP: usize = 128;

/// Sequence ids a ring reserves from [`SEQ`] per refill. Batching keeps the
/// contended global `fetch_add` off the per-event path (one RMW per 16
/// events); the cost is ordering *resolution* — ids stay unique and
/// per-thread monotone, but two threads' events interleave only to batch
/// granularity in a sorted dump. The timestamp rides the same boundary:
/// the ring re-reads the tick counter once per refill and stamps the whole
/// batch with it (a per-event read, even a raw `rdtsc`, measurably dents
/// the <3% always-on budget), so time also interleaves threads at batch
/// resolution — strictly finer than ids alone, since batches from
/// different threads order by wall clock rather than by when they happened
/// to reserve ids, but a burst's first events can carry a stamp up to one
/// batch stale after an idle gap.
#[cfg(not(feature = "compiled-out"))]
const SEQ_BATCH: u64 = 16;

/// Global sequence ids; starts at 1 so a published tag is never zero, the
/// empty-slot marker.
#[cfg(not(feature = "compiled-out"))]
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Low bits of a slot tag holding the [`FlightKind`]; the sequence id sits
/// above them.
const KIND_BITS: u32 = 8;

/// One ring entry: four words on a 32-byte boundary, so each push writes a
/// single cache line. `tag` is `seq << KIND_BITS | kind`, zero when empty.
#[repr(align(32))]
struct Slot {
    tag: AtomicU64,
    ts: AtomicU64,
    key: AtomicI64,
    aux: AtomicU64,
}

/// One thread's event ring.
pub(crate) struct Ring {
    slots: [Slot; FLIGHT_CAP],
    /// Events pushed so far: the next write index, and the ring's share of
    /// the `flight_events` counter. Only the owning thread advances it, but
    /// it is an atomic because the shard is shared with dumpers.
    cursor: AtomicU64,
    /// First id of the locally reserved batch (owner-only): the event at
    /// `cursor` takes id `seq_base + cursor % SEQ_BATCH`, and a cursor on
    /// a batch boundary forces a refill from the global counter.
    #[cfg(not(feature = "compiled-out"))]
    seq_base: AtomicU64,
    /// Raw tick stamp shared by the current id batch (owner-only; see
    /// [`SEQ_BATCH`] on the resolution trade-off).
    #[cfg(not(feature = "compiled-out"))]
    ts_batch: AtomicU64,
}

impl Ring {
    pub(crate) fn new() -> Self {
        Self {
            slots: [const {
                Slot {
                    tag: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    key: AtomicI64::new(0),
                    aux: AtomicU64::new(0),
                }
            }; FLIGHT_CAP],
            cursor: AtomicU64::new(0),
            #[cfg(not(feature = "compiled-out"))]
            seq_base: AtomicU64::new(0),
            #[cfg(not(feature = "compiled-out"))]
            ts_batch: AtomicU64::new(0),
        }
    }

    /// Owner-side append (see the module docs for the publication order).
    #[cfg(not(feature = "compiled-out"))]
    pub(crate) fn push(&self, kind: FlightKind, key: i64, aux: u64) {
        // Owner-only load + store throughout: a single thread owns the ring
        // at a time, so neither the cursor nor the batch base needs RMWs
        // (same reasoning as the shard counters).
        let c = self.cursor.load(Ordering::Relaxed);
        self.cursor.store(c.wrapping_add(1), Ordering::Relaxed);
        if c.is_multiple_of(SEQ_BATCH) {
            let base = SEQ.fetch_add(SEQ_BATCH, Ordering::Relaxed);
            self.seq_base.store(base, Ordering::Relaxed);
            self.ts_batch.store(crate::now_ticks(), Ordering::Relaxed);
        }
        let seq = self.seq_base.load(Ordering::Relaxed) + c % SEQ_BATCH;
        let i = c as usize % FLIGHT_CAP;
        let slot = &self.slots[i];
        slot.tag.store(0, Ordering::Relaxed);
        slot.ts
            .store(self.ts_batch.load(Ordering::Relaxed), Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.tag
            .store(seq << KIND_BITS | kind as u64, Ordering::Release);
    }

    /// Events pushed so far (Relaxed; the owner may be mid-push).
    pub(crate) fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Appends every currently-valid entry to `out` (unsorted), mapping
    /// stored ticks to nanoseconds at the given [`crate::tick_rate`] —
    /// callers sample the rate once per dump so one dump gets one linear,
    /// order-preserving map.
    pub(crate) fn drain_into(&self, shard: usize, rate: f64, out: &mut Vec<FlightEvent>) {
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            let Some(kind) = FlightKind::from_u64(tag & ((1 << KIND_BITS) - 1)) else {
                continue;
            };
            out.push(FlightEvent {
                seq: tag >> KIND_BITS,
                ts: crate::ticks_to_ns(slot.ts.load(Ordering::Relaxed), rate),
                shard,
                kind,
                key: slot.key.load(Ordering::Relaxed),
                aux: slot.aux.load(Ordering::Relaxed),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(not(feature = "compiled-out"))]
    fn ring_overwrites_oldest_and_keeps_order() {
        let ring = Ring::new();
        for k in 0..(FLIGHT_CAP as i64 + 16) {
            ring.push(FlightKind::Announce, k, 0);
        }
        let mut out = Vec::new();
        ring.drain_into(0, crate::tick_rate(), &mut out);
        assert_eq!(out.len(), FLIGHT_CAP);
        out.sort_by_key(|e| e.seq);
        // The oldest 16 events were overwritten.
        assert_eq!(out.first().unwrap().key, 16);
        assert_eq!(out.last().unwrap().key, FLIGHT_CAP as i64 + 15);
        // Sequence ids are strictly increasing.
        assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn kind_roundtrip() {
        for k in [
            FlightKind::Announce,
            FlightKind::Deannounce,
            FlightKind::Slide,
            FlightKind::Notify,
            FlightKind::Recovery,
            FlightKind::Retire,
            FlightKind::Stall,
            FlightKind::Sweep,
            FlightKind::Fault,
            FlightKind::Adopt,
            FlightKind::Stranded,
        ] {
            assert_eq!(FlightKind::from_u64(k as u64), Some(k));
        }
        assert_eq!(FlightKind::from_u64(0), None);
        assert_eq!(FlightKind::from_u64(99), None);
    }
}
