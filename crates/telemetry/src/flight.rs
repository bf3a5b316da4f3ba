//! The shard's event ring: the flight recorder, and the op-trace events of
//! builds with `op-trace`, in one bounded per-thread ring with global
//! sequence ids.
//!
//! Interleaving bugs in the announcement protocol are notoriously
//! irreproducible: by the time a validation step fails, the schedule that
//! broke it is gone. The flight recorder keeps the last protocol events
//! *per thread* — announces, slides, notifies, recoveries, retires,
//! injected faults — each stamped with a process-global sequence id, so a
//! failure dump reconstructs the recent cross-thread order. Ids are
//! reserved in per-thread batches (see [`SEQ_BATCH`]): they are unique and
//! per-thread monotone, and cross-thread interleavings resolve to batch
//! granularity. The op-trace layer (`crate::trace`) pushes its span, phase,
//! helping-edge and bind events into the same ring, and [`crate::flight_dump`]
//! and `trace::drain` read it back filtered by kind.
//!
//! # Write protocol (per entry)
//!
//! Each slot is a quartet of atomics: a tag packing the sequence id with
//! the event kind and a kind-specific detail byte, then the timestamp, key
//! and payload. The owning thread first invalidates the slot (`tag ← 0`,
//! `Relaxed`), writes the other fields (`Relaxed`), then publishes the tag
//! with a `Release` store. A dumper reads the tag with `Acquire` and skips
//! zero slots. A dump racing the owner can still observe a *torn logical*
//! entry (payload from two events) — every field is individually atomic so
//! this is benign, and the dump is a diagnostic, not a source of truth.
//! Failure-path dumps run after the interesting threads have stopped,
//! where the capture is exact.

use core::sync::atomic::{AtomicU64, Ordering};

/// Events a thread can retain in its flight-recorder ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
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
    // 7 (`stall`) and 9 (`fence`) are retired: a suspended operation is
    // recorded as the `Fault` that suspended it. 8 (`sweep`) is retired:
    // sweeps are counted in `Counter::Sweeps` only.
    /// A `fault-injection` plan fired (`key` = injection-point index,
    /// `aux` = action discriminant).
    Fault = 10,
    // 11 (`adopt`) and 12 (`stranded`) are retired. Kinds from 16 up are
    // op-trace events (`trace::TraceEventKind`).
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
            FlightKind::Fault => "fault",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FlightKind::Announce,
            2 => FlightKind::Deannounce,
            3 => FlightKind::Slide,
            4 => FlightKind::Notify,
            5 => FlightKind::Recovery,
            6 => FlightKind::Retire,
            10 => FlightKind::Fault,
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
    /// against the anchor when the ring is read.
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

impl FlightEvent {
    /// The flight event in `raw`, or `None` for an op-trace entry.
    pub(crate) fn decode(raw: &RawEvent) -> Option<Self> {
        Some(FlightEvent {
            seq: raw.seq,
            ts: raw.ts,
            shard: raw.shard,
            kind: FlightKind::from_u8(raw.kind)?,
            key: raw.key as i64,
            aux: raw.aux,
        })
    }
}

/// Entries each thread's ring retains, flight and op-trace events
/// together; old ones are overwritten. Builds with `op-trace` keep a longer
/// history, so a trace covers more than the last few operations.
pub const RING_CAP: usize = if cfg!(feature = "op-trace") {
    4096
} else {
    128
};

/// Sequence ids a ring reserves from [`SEQ`] per refill. Batching keeps the
/// contended global `fetch_add` off the per-event path (one RMW per 16
/// events); the cost is ordering *resolution* — ids stay unique and
/// per-thread monotone, but two threads' events interleave only to batch
/// granularity in a sorted dump. A flight event's timestamp rides the same
/// boundary: the ring re-reads the tick counter once per refill and stamps
/// the batch's flight events with it (a per-event read, even a raw
/// `rdtsc`, measurably dents the <3% always-on budget), so time also
/// interleaves threads at batch resolution — strictly finer than ids
/// alone, since batches from different threads order by wall clock rather
/// than by when they happened to reserve ids, but a burst's first events
/// can carry a stamp up to one batch stale after an idle gap. Op-trace
/// events carry their own exact stamps.
const SEQ_BATCH: u64 = 16;

/// Global sequence ids; starts at 1 so a published tag is never zero, the
/// empty-slot marker.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Low byte of a slot tag: the event kind.
const KIND_BITS: u32 = 8;
/// The tag's sequence id sits above its kind and detail bytes.
const SEQ_SHIFT: u32 = 16;

/// One ring entry: four words on a 32-byte boundary, so each push writes a
/// single cache line. `tag` is `seq << 16 | detail << 8 | kind`, zero when
/// empty.
#[repr(align(32))]
struct Slot {
    tag: AtomicU64,
    ts: AtomicU64,
    key: AtomicU64,
    aux: AtomicU64,
}

/// One published ring entry, as [`Ring::read`] hands it to a decoder.
pub(crate) struct RawEvent {
    pub(crate) seq: u64,
    /// Nanoseconds since the process trace anchor.
    pub(crate) ts: u64,
    pub(crate) shard: usize,
    pub(crate) kind: u8,
    /// Kind-specific: an op-trace event's op kind, phase or helping depth.
    pub(crate) detail: u8,
    pub(crate) key: u64,
    pub(crate) aux: u64,
}

/// One thread's event ring.
pub(crate) struct Ring {
    slots: [Slot; RING_CAP],
    /// Flight events pushed so far: the shard's `flight_events` count.
    /// Only the owning thread advances it, but it is an atomic because the
    /// shard is shared with dumpers.
    flights: AtomicU64,
    /// Op-trace events pushed so far (owner-only). The next event lands at
    /// position `flights + traced`, so a flight push reads this cell but
    /// writes no cell of its own beyond `flights`.
    #[cfg(feature = "op-trace")]
    traced: AtomicU64,
    /// First id of the locally reserved batch (owner-only): the event at
    /// position `p` takes id `seq_base + p % SEQ_BATCH`, and a position on
    /// a batch boundary forces a refill from the global counter.
    seq_base: AtomicU64,
    /// Raw tick stamp shared by the current id batch's flight events
    /// (owner-only; see [`SEQ_BATCH`] on the resolution trade-off).
    ts_batch: AtomicU64,
}

impl Ring {
    pub(crate) fn new() -> Self {
        Self {
            slots: [const {
                Slot {
                    tag: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    key: AtomicU64::new(0),
                    aux: AtomicU64::new(0),
                }
            }; RING_CAP],
            flights: AtomicU64::new(0),
            #[cfg(feature = "op-trace")]
            traced: AtomicU64::new(0),
            seq_base: AtomicU64::new(0),
            ts_batch: AtomicU64::new(0),
        }
    }

    /// Owner-side append of a flight event (see the module docs for the
    /// publication order).
    #[inline]
    pub(crate) fn push(&self, kind: FlightKind, key: i64, aux: u64) {
        // Owner-only load + store throughout: a single thread owns the ring
        // at a time, so neither the counts nor the batch base needs RMWs
        // (same reasoning as the shard counters).
        let n = self.flights.load(Ordering::Relaxed);
        self.flights.store(n.wrapping_add(1), Ordering::Relaxed);
        let pos = n.wrapping_add(self.traced());
        let seq = self.reserve(pos);
        let ts = self.ts_batch.load(Ordering::Relaxed);
        self.write(pos, seq << SEQ_SHIFT | kind as u64, ts, key as u64, aux);
    }

    /// Owner-side append of an op-trace event with its own raw tick stamp
    /// `ts`: `kind` and `detail` go into the tag, `a` into the key word and
    /// the span id into the payload word.
    #[cfg(feature = "op-trace")]
    pub(crate) fn push_trace(&self, kind: u8, detail: u8, ts: u64, a: u64, span: u64) {
        let n = self.traced.load(Ordering::Relaxed);
        self.traced.store(n.wrapping_add(1), Ordering::Relaxed);
        let pos = self.flights.load(Ordering::Relaxed).wrapping_add(n);
        let seq = self.reserve(pos);
        let tag = seq << SEQ_SHIFT | (detail as u64) << KIND_BITS | kind as u64;
        self.write(pos, tag, ts, a, span);
    }

    #[inline]
    fn traced(&self) -> u64 {
        #[cfg(feature = "op-trace")]
        {
            self.traced.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "op-trace"))]
        {
            0
        }
    }

    /// The id of the event at position `pos`, refilling the id batch and
    /// its tick stamp on a batch boundary.
    #[inline]
    fn reserve(&self, pos: u64) -> u64 {
        if pos.is_multiple_of(SEQ_BATCH) {
            let base = SEQ.fetch_add(SEQ_BATCH, Ordering::Relaxed);
            self.seq_base.store(base, Ordering::Relaxed);
            self.ts_batch.store(crate::now_ticks(), Ordering::Relaxed);
        }
        self.seq_base.load(Ordering::Relaxed) + pos % SEQ_BATCH
    }

    #[inline]
    fn write(&self, pos: u64, tag: u64, ts: u64, key: u64, aux: u64) {
        let slot = &self.slots[pos as usize % RING_CAP];
        slot.tag.store(0, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.key.store(key, Ordering::Relaxed);
        slot.aux.store(aux, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Release);
    }

    /// Flight events pushed so far (Relaxed; the owner may be mid-push).
    pub(crate) fn flights(&self) -> u64 {
        self.flights.load(Ordering::Relaxed)
    }

    /// Hands every published entry to `f` (unordered), mapping stored
    /// ticks to nanoseconds at the given [`crate::tick_rate`] — callers
    /// sample the rate once per dump so one dump gets one linear,
    /// order-preserving map.
    pub(crate) fn read(&self, shard: usize, rate: f64, mut f: impl FnMut(&RawEvent)) {
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            f(&RawEvent {
                seq: tag >> SEQ_SHIFT,
                ts: crate::ticks_to_ns(slot.ts.load(Ordering::Relaxed), rate),
                shard,
                kind: tag as u8,
                detail: (tag >> KIND_BITS) as u8,
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
    fn ring_overwrites_oldest_and_keeps_order() {
        let ring = Ring::new();
        for k in 0..(RING_CAP as i64 + 16) {
            ring.push(FlightKind::Announce, k, 0);
        }
        let mut out = Vec::new();
        ring.read(0, crate::tick_rate(), |raw| {
            out.extend(FlightEvent::decode(raw))
        });
        assert_eq!(out.len(), RING_CAP);
        assert_eq!(ring.flights(), RING_CAP as u64 + 16);
        out.sort_by_key(|e| e.seq);
        // The oldest 16 events were overwritten.
        assert_eq!(out.first().unwrap().key, 16);
        assert_eq!(out.last().unwrap().key, RING_CAP as i64 + 15);
        // Sequence ids are strictly increasing.
        assert!(out.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn slot_is_one_32_byte_line() {
        assert_eq!(core::mem::size_of::<Slot>(), 32);
        assert_eq!(core::mem::align_of::<Slot>(), 32);
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
            FlightKind::Fault,
        ] {
            assert_eq!(FlightKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(FlightKind::from_u8(0), None);
        assert_eq!(FlightKind::from_u8(8), None);
        assert_eq!(FlightKind::from_u8(99), None);
    }
}
