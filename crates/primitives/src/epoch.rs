//! Epoch-based memory reclamation (EBR) for the trie's update nodes and
//! list cells.
//!
//! The paper assumes garbage collection; this module supplies the missing
//! collector. It is a classic three-colour epoch scheme in the style of
//! Fraser / crossbeam-epoch, with one deliberate deviation (a **three-epoch**
//! grace period instead of two — see below) that covers the trie's helping
//! protocol.
//!
//! # Model
//!
//! * A [`Domain`] holds a global epoch counter and one *participant* entry
//!   per thread slot (see [`crate::slots`]): a thread finds its entry by
//!   its slot index, and the next thread to hold the index reuses it. Each
//!   lock-free structure owns a domain, shared by all of its registries, so
//!   a pin in one structure holds back no other's reclamation; [`pin`]
//!   pins the process-wide [`Domain::global`].
//! * Before touching shared nodes, a thread **pins** ([`Domain::pin`] /
//!   [`Handle::pin`]), announcing `(epoch, pinned)` in its participant
//!   entry. Pinning is re-entrant: nested pins reuse the outer epoch.
//!   [`Domain::register`] gives a participant a slot of its own, so one
//!   thread can act as several.
//! * Retired garbage is stamped with a fresh epoch read taken after its
//!   retirement (see [`crate::registry`]).
//! * [`Domain::try_advance`] increments the global epoch only when every
//!   pinned participant has announced the current epoch; it is called
//!   amortized (every few pins, and on registry sweeps), so a quiescent
//!   workload keeps advancing.
//!
//! # Why a three-epoch grace period
//!
//! Textbook EBR frees garbage from epoch `e` once the global epoch reaches
//! `e + 2`, relying on the invariant that a node is unlinked from shared
//! memory *before* it is retired, so threads pinning after retirement can
//! never find it. The trie's `HelpActivate` breaks the letter of that
//! invariant: a laggard helper that read an update node before it was
//! superseded may transiently **re-announce** it in the U-ALL/RU-ALL after
//! the owner's exhaustive de-announce (paper lines 130/136). Such a helper is
//! necessarily pinned from before the retirement, so while it is pinned the
//! global epoch is at most `pin + 1` — any thread that captures the transient
//! cell therefore pins at epoch `≤ retire_epoch + 1`, and that pin in turn
//! blocks the advance from `retire + 2` to `retire + 3`. Freeing only at
//! `global ≥ retire_epoch + 3` covers both the helper and every possible
//! second-hand capturer. (The capturers only *read*; they cannot re-publish
//! again, so the chain stops there.)
//!
//! # Guarantees
//!
//! With `T` live participants, garbage retired through a registry is
//! unreclaimed only while it is (a) younger than three epoch advances past
//! its stamp, or (b) still in a retire bag, or in a FIFO that only its
//! owner's sweeps free (see [`crate::registry`]). A structure retires a
//! node only once nothing keeps it alive, so nothing is ever retired and
//! then held back. No operation holds a pin for longer than one call
//! (iterators pin per step), and a pinned participant blocks at most one
//! epoch advance at a time, so steady-state garbage is `O(T²)` rather than
//! `O(total updates)`.
//!
//! The trade-off is the one crossbeam-epoch makes: a thread descheduled
//! inside an operation keeps its pin, and with it delays every reclamation
//! on its domain, until it runs again. Nothing bounds that delay, but it is
//! observable: every refused [`Domain::try_advance`] charges the refusing
//! participant's blocked streak, and [`Domain::health`] reports the longest
//! streak (`max_blocked`) and the participants past
//! [`STALL_BLOCKED_THRESHOLD`] (`stalled_readers`).
//!
//! # Examples
//!
//! ```
//! use lftrie_primitives::epoch;
//!
//! let guard = epoch::pin();
//! // ... read shared nodes; nothing retired after this point is freed
//! //     until the guard drops ...
//! drop(guard);
//! ```

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use lftrie_telemetry::{self as telemetry, Counter, EpochHealth};

use crate::slots::{self, Slot, SlotVec};

/// How often (in pins per participant) the pin fast path tries to advance
/// the global epoch.
const PINS_PER_ADVANCE: u64 = 32;

/// Blocked-advance streak at which a pinned participant counts as a
/// *stalled reader* in [`Domain::health`]. Raw epoch lag is useless as a
/// stall signal — a pinned participant bounds the global epoch to
/// `pin + 1`, so the lag saturates at one — but every refused
/// [`Domain::try_advance`] charges the refusing participant, and that
/// streak grows without bound while a reader sits on a pin.
pub const STALL_BLOCKED_THRESHOLD: u64 = 3;

/// A participant's owner-word share held by its [`Handle`], or by the
/// thread whose slot it is.
const HANDLE: u64 = 1;
/// A participant's owner-word share held by each live [`Guard`].
const GUARD: u64 = 2;

/// One slot's announcement entry in a domain: the entry of the thread that
/// holds the slot, or of a [`Handle`].
#[derive(Default)]
struct Participant {
    /// `(epoch << 1) | pinned`. Cache-padded: every pin writes this word
    /// and every `try_advance` reads all of them, so two participants'
    /// announcements sharing a line would false-share the hottest store in
    /// the system (the padding also line-aligns the whole entry, keeping
    /// the owner-local fields off other entries' lines).
    state: CachePadded<AtomicU64>,
    /// The entry's owners: [`HANDLE`] while the handle lives (a thread's
    /// entry keeps it for good) plus [`GUARD`] per live guard, so
    /// `owners / GUARD` is the re-entrant pin depth. A handle's slot is
    /// released when the word reaches zero, so a guard that outlives its
    /// handle keeps its pin and its slot.
    ///
    /// Owner-only: handles and guards are `!Send`, so every pin, guard drop
    /// and handle drop of an entry runs on the slot's holder, and a new
    /// holder starts only after the release of the slot, which its acquiring
    /// CAS reads. A plain load and store therefore update it, with no
    /// read-modify-write.
    owners: AtomicU64,
    /// Pins performed through this entry (drives amortized advancing).
    /// Written by the owner alone, like `owners`; `health` only reads it.
    pins: AtomicU64,
    /// Consecutive [`Domain::try_advance`] attempts this participant
    /// refused while pinned; reset on every announcement. The
    /// stalled-reader detector's raw signal.
    blocked: AtomicU64,
}

impl Participant {
    /// Stores the owner word left after an owner dropped; the last owner of
    /// a handle's entry releases its slot. The entry is unpinned by then:
    /// the last guard clears `state` before it gets here.
    #[inline]
    fn set_owners(&self, owners: u64, slot: Slot) {
        self.owners.store(owners, Ordering::Relaxed);
        if owners == 0 {
            slot.release();
        }
    }
}

/// An epoch domain: a global epoch plus one participant entry per slot.
///
/// Each lock-free structure owns one, shared by all of its registries, so
/// a reader pinned in one structure holds back no other structure's
/// reclamation. [`pin`] and the standalone list and registry constructors
/// use the process-wide [`Domain::global`].
pub struct Domain {
    /// The global epoch, padded onto its own cache line: every pin
    /// validates against it and every advance CASes it, so it must not
    /// share a line with the participant buckets or whatever the domain is
    /// embedded next to.
    epoch: CachePadded<AtomicU64>,
    participants: SlotVec<Participant>,
}

impl Domain {
    /// Creates an empty domain. `const` so it can back a `static`.
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            participants: SlotVec::new(),
        }
    }

    /// The process-wide domain used by [`pin`] and by the registries and
    /// lists built without a domain of their own.
    #[inline]
    pub fn global() -> &'static Domain {
        static GLOBAL: Domain = Domain::new();
        &GLOBAL
    }

    /// The current global epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Pins this domain for the calling thread, through the entry of its
    /// slot: until the returned guard (and any nested guards) drop, the
    /// global epoch can advance at most once, so no node retired from now
    /// on is freed. Re-entrant, and cheap when already pinned (one
    /// owner-word store).
    ///
    /// Every operation that dereferences nodes allocated through an
    /// epoch-aware [`crate::registry::Registry`] must run under a pin of
    /// the registry's domain.
    ///
    /// # Panics
    ///
    /// If called from a thread-local destructor after the thread's slot
    /// was torn down.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        // A crash here is the cheapest possible one: nothing announced yet.
        crate::fault::point(crate::fault::FaultPoint::EpochPin);
        self.pin_slot(slots::current().expect("pin after the thread's slot was torn down"))
    }

    /// Registers a participant with a slot of its own and returns a handle
    /// that pins through it, so one thread can act as several (tests drive
    /// pin/advance schedules this way). The slot is released when the
    /// handle and its guards have dropped.
    pub fn register(&self) -> Handle<'_> {
        let slot = Slot::acquire();
        // The previous holder left the entry unpinned with no owner share
        // that matters, and released the slot before our acquire read it.
        self.participants
            .get(slot.index)
            .owners
            .store(HANDLE, Ordering::Relaxed);
        Handle {
            domain: self,
            slot,
            _not_send: PhantomData,
        }
    }

    /// Pins the entry of `slot`, which the caller holds.
    #[inline]
    fn pin_slot(&self, slot: Slot) -> Guard<'_> {
        let p = self.participants.get(slot.index);
        // A thread's entry carries the handle share from its first pin on,
        // so its owner word never reaches zero.
        let owners = p.owners.load(Ordering::Relaxed) | HANDLE;
        if owners < GUARD {
            let _t = telemetry::trace::phase(telemetry::trace::TracePhase::Pin);
            let mut e = self.epoch.load(Ordering::SeqCst);
            loop {
                // Announce, then re-validate: the SeqCst store/load pair
                // orders the announcement before any shared read under the
                // guard and bounds how stale the announced epoch can be.
                p.state.store((e << 1) | 1, Ordering::SeqCst);
                let now = self.epoch.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                e = now;
            }
            slots::count_pin(true);
            // A fresh announcement is progress: the stall streak restarts.
            p.blocked.store(0, Ordering::Relaxed);
            let pins = p.pins.load(Ordering::Relaxed) + 1;
            p.pins.store(pins, Ordering::Relaxed);
            if pins.is_multiple_of(PINS_PER_ADVANCE) {
                self.try_advance();
            }
        }
        // The guard co-owns the entry: dropping the handle while guards
        // live must neither unpin it nor release its slot (a released slot
        // under a live guard would both lose the pin and corrupt the next
        // holder's accounting).
        p.owners.store(owners + GUARD, Ordering::Relaxed);
        Guard {
            domain: self,
            participant: p,
            slot,
            _not_send: PhantomData,
        }
    }

    /// Attempts one global-epoch increment; succeeds when every pinned
    /// participant has announced the current epoch. Returns the epoch
    /// observed *after* the attempt. A refusing participant is charged one
    /// step of its blocked streak.
    ///
    /// Lock-free, and wait-free in the absence of new slots: a single
    /// pass over the participant entries plus one CAS.
    pub fn try_advance(&self) -> u64 {
        let e = self.epoch.load(Ordering::SeqCst);
        for (_, p) in self.participants.iter() {
            let s = p.state.load(Ordering::SeqCst);
            if s & 1 == 1 && (s >> 1) != e {
                // A straggler still pinned in an older epoch: charge its
                // blocked streak (the stalled-reader signal).
                p.blocked.fetch_add(1, Ordering::Relaxed);
                telemetry::add(Counter::EpochAdvanceBlocked, 1);
                return e;
            }
        }
        if self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            telemetry::add(Counter::EpochAdvances, 1);
        }
        self.epoch.load(Ordering::SeqCst)
    }

    /// Samples this domain's health gauges in one pass over its entries.
    /// A pinned participant counts as a stalled reader once its blocked
    /// streak reaches [`STALL_BLOCKED_THRESHOLD`].
    pub fn health(&self) -> EpochHealth {
        let e = self.epoch();
        let mut h = EpochHealth {
            epoch: e,
            ..EpochHealth::default()
        };
        let mut min_pin = u64::MAX;
        for (index, p) in self.participants.iter() {
            h.total_pins += p.pins.load(Ordering::Relaxed);
            if p.owners.load(Ordering::Relaxed) != 0 && slots::tenure(index) % 2 == 1 {
                h.participants += 1;
            }
            let s = p.state.load(Ordering::SeqCst);
            if s & 1 == 1 {
                h.pinned += 1;
                min_pin = min_pin.min(s >> 1);
                let blocked = p.blocked.load(Ordering::Relaxed);
                h.max_blocked = h.max_blocked.max(blocked);
                if blocked >= STALL_BLOCKED_THRESHOLD {
                    h.stalled_readers += 1;
                }
            }
        }
        if h.pinned > 0 {
            h.min_pin_lag = e.saturating_sub(min_pin);
        }
        h
    }

    /// Number of currently pinned participants (diagnostics and tests).
    pub fn pinned_participants(&self) -> usize {
        self.participants
            .iter()
            .filter(|(_, p)| p.state.load(Ordering::SeqCst) & 1 == 1)
            .count()
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Domain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Domain")
            .field("epoch", &self.epoch())
            .field("pinned", &self.pinned_participants())
            .finish()
    }
}

/// A registered participant of a [`Domain`], with a slot of its own;
/// produces [`Guard`]s.
///
/// Not `Send`: a handle (and its guards) belong to the registering thread.
pub struct Handle<'d> {
    domain: &'d Domain,
    slot: Slot,
    _not_send: PhantomData<*mut ()>,
}

impl<'d> Handle<'d> {
    /// Pins the domain through this handle's entry: until the returned
    /// guard (and any nested guards) drop, the global epoch can advance at
    /// most once, so no node retired from now on is freed. Re-entrant.
    pub fn pin(&self) -> Guard<'d> {
        self.domain.pin_slot(self.slot)
    }

    /// The domain this handle participates in.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }
}

impl Drop for Handle<'_> {
    fn drop(&mut self) {
        // Live guards keep the entry pinned and the slot held; the slot is
        // only released when the last co-owner (handle or guard) goes away.
        let p = self.domain.participants.get(self.slot.index);
        p.set_owners(p.owners.load(Ordering::Relaxed) - HANDLE, self.slot);
    }
}

impl core::fmt::Debug for Handle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let p = self.domain.participants.get(self.slot.index);
        f.debug_struct("Handle")
            .field("pinned", &(p.owners.load(Ordering::Relaxed) >= GUARD))
            .finish()
    }
}

/// An active pin on an epoch [`Domain`].
///
/// While any guard of a participant is live, garbage retired *after* the
/// guard was created is never freed, so shared nodes read under the guard
/// stay dereferenceable. Guards nest; the participant unpins when the last
/// one drops.
///
/// # Safety contract (for `Registry::retire` callers)
///
/// Holding a guard makes **reads** safe; it does not license retirement.
/// Retiring a node additionally requires that no thread pinning *after* the
/// retirement can reach it through shared memory (modulo the transient
/// helper re-announcement the three-epoch grace period absorbs).
pub struct Guard<'d> {
    domain: &'d Domain,
    participant: &'d Participant,
    slot: Slot,
    _not_send: PhantomData<*mut ()>,
}

impl<'d> Guard<'d> {
    /// The epoch this guard's participant is currently announcing.
    pub fn epoch(&self) -> u64 {
        self.participant.state.load(Ordering::SeqCst) >> 1
    }

    /// The domain this guard pins.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let p = self.participant;
        let owners = p.owners.load(Ordering::Relaxed) - GUARD;
        if owners < GUARD {
            // The last guard unpins, before `set_owners` may release the
            // slot to a new holder whose pin this store must not clobber.
            p.state.store(0, Ordering::SeqCst);
            slots::count_pin(false);
        }
        p.set_owners(owners, self.slot);
    }
}

impl core::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Pins the global epoch domain for the calling thread:
/// `Domain::global().pin()`.
#[inline]
pub fn pin() -> Guard<'static> {
    Domain::global().pin()
}

/// True if the calling thread currently holds at least one guard on the
/// global domain.
pub fn is_pinned() -> bool {
    slots::current().is_some_and(|slot| {
        let p = Domain::global().participants.get(slot.index);
        p.owners.load(Ordering::Relaxed) >= GUARD
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_succeeds_with_no_pins() {
        let d = &Domain::new();
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.try_advance(), 1);
        assert_eq!(d.try_advance(), 2);
    }

    #[test]
    fn pinned_participant_blocks_second_advance() {
        let d = &Domain::new();
        let h = d.register();
        let g = h.pin();
        assert_eq!(g.epoch(), 0);
        // The pinned thread announced epoch 0, so 0 → 1 succeeds …
        assert_eq!(d.try_advance(), 1);
        // … but 1 → 2 must wait for it.
        assert_eq!(d.try_advance(), 1);
        assert_eq!(d.try_advance(), 1);
        drop(g);
        assert_eq!(d.try_advance(), 2);
    }

    #[test]
    fn nested_pins_keep_epoch_and_unpin_last() {
        let d = &Domain::new();
        let h = d.register();
        let g1 = h.pin();
        let g2 = h.pin();
        assert_eq!(g1.epoch(), g2.epoch());
        assert_eq!(d.pinned_participants(), 1);
        drop(g1);
        assert_eq!(d.pinned_participants(), 1, "still pinned via g2");
        drop(g2);
        assert_eq!(d.pinned_participants(), 0);
    }

    #[test]
    fn handle_drop_releases_slot_for_reuse() {
        let d = &Domain::new();
        let h1 = d.register();
        let s1 = h1.slot;
        assert_eq!(slots::tenure(s1.index), s1.tenure);
        drop(h1);
        // Released: free, or already the next holder's.
        assert!(slots::tenure(s1.index) > s1.tenure, "the slot was released");
    }

    #[test]
    fn guard_outliving_its_handle_keeps_the_pin() {
        // Regression: dropping the Handle while a Guard lives must neither
        // unpin the participant nor release the slot for recycling — the
        // guard holder is still reading shared memory. Inputs: one guard,
        // and two nested guards dropped in either order.
        for (guards, inner_first) in [(1, false), (2, false), (2, true)] {
            let d = &Domain::new();
            let h = d.register();
            let s1 = h.slot;
            let mut gs: Vec<Guard<'_>> = (0..guards).map(|_| h.pin()).collect();
            if inner_first {
                gs.reverse();
            }
            drop(h);
            assert_eq!(d.pinned_participants(), 1, "still pinned through the guard");
            assert_eq!(d.try_advance(), 1);
            assert_eq!(d.try_advance(), 1, "guard blocks the second advance");
            // Every guard but the last leaves the slot pinned and reserved.
            while gs.len() > 1 {
                drop(gs.remove(0));
                assert_eq!(d.pinned_participants(), 1, "the last guard keeps the pin");
                assert_eq!(d.try_advance(), 1, "the last guard blocks advances");
            }
            // A new registration must NOT recycle the still-guarded slot.
            let h2 = d.register();
            assert_ne!(h2.slot.index, s1.index);
            assert_eq!(slots::tenure(s1.index), s1.tenure, "still held");
            drop(h2);
            drop(gs);
            assert_eq!(d.pinned_participants(), 0);
            // Now the slot is free again.
            assert!(slots::tenure(s1.index) > s1.tenure, "released");
            assert_eq!(d.try_advance(), 2);
        }
    }

    #[test]
    fn global_pin_is_reentrant_across_calls() {
        let g1 = pin();
        assert!(is_pinned());
        let g2 = pin();
        assert_eq!(g1.epoch(), g2.epoch());
        drop(g2);
        assert!(is_pinned());
        drop(g1);
        assert!(!is_pinned());
    }

    #[test]
    fn stalled_reader_detector_counts_blocked_streaks() {
        let d = &Domain::new();
        let h = d.register();
        let g = h.pin();
        // Pinned at epoch 0: the advance to 1 succeeds, then every further
        // attempt is refused by this participant and charges its streak.
        assert_eq!(d.try_advance(), 1);
        for _ in 0..STALL_BLOCKED_THRESHOLD {
            assert_eq!(d.try_advance(), 1);
        }
        let health = d.health();
        assert_eq!(health.epoch, 1);
        assert_eq!(health.pinned, 1);
        assert_eq!(health.min_pin_lag, 1);
        assert!(health.max_blocked >= STALL_BLOCKED_THRESHOLD);
        assert_eq!(health.stalled_readers, 1);
        // An unpinned participant is no longer a stalled *reader* …
        drop(g);
        assert_eq!(d.health().stalled_readers, 0);
        // … and a fresh pin restarts the streak.
        let g = h.pin();
        assert_eq!(d.health().stalled_readers, 0);
        assert!(d.try_advance() >= 2);
        for _ in 0..STALL_BLOCKED_THRESHOLD {
            d.try_advance();
        }
        assert_eq!(d.health().stalled_readers, 1);
        drop(g);
    }

    #[test]
    fn stall_threshold_boundary_agrees_across_apis() {
        // `stalled_readers` and `max_blocked` must flip together at the
        // threshold.
        let d = &Domain::new();
        let h = d.register();
        let _g = h.pin();
        assert_eq!(d.try_advance(), 1);
        // Exactly threshold − 1 refusals: not yet stalled.
        for _ in 0..STALL_BLOCKED_THRESHOLD - 1 {
            assert_eq!(d.try_advance(), 1);
        }
        let health = d.health();
        assert_eq!(health.stalled_readers, 0);
        assert_eq!(health.max_blocked, STALL_BLOCKED_THRESHOLD - 1);
        // The refusal that reaches the threshold flips both gauges.
        assert_eq!(d.try_advance(), 1);
        let health = d.health();
        assert_eq!(health.stalled_readers, 1);
        assert_eq!(health.max_blocked, STALL_BLOCKED_THRESHOLD);
    }

    #[test]
    fn concurrent_pinners_never_block_each_other() {
        let d = &Domain::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        let g = d.pin();
                        core::hint::black_box(g.epoch());
                        drop(g);
                    }
                });
            }
        });
        // All unpinned: the epoch can advance freely again.
        let e = d.epoch();
        assert!(d.try_advance() > e);
    }
}
