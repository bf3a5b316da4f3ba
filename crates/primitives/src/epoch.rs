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
//! * A [`Domain`] holds a global epoch counter and a lock-free list of
//!   *participants* (one per thread, slots recycled on thread exit).
//! * Before touching shared nodes, a thread **pins** ([`pin`] /
//!   [`Handle::pin`]), announcing `(epoch, pinned)` in its participant slot.
//!   Pinning is re-entrant: nested pins reuse the outer epoch.
//! * Retired garbage is stamped with the epoch current at retirement
//!   (see [`crate::registry::Registry::retire`]).
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
//! unreclaimed only while it is (a) younger than three epoch advances, or
//! (b) deferred by its type's [`crate::registry::Reclaim::ready_to_reclaim`]
//! gate. No operation holds a pin for longer than one call (iterators pin
//! per step), and a pinned participant blocks at most one epoch advance at
//! a time, so steady-state garbage is `O(T² + deferred)` rather than
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
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use lftrie_telemetry::{self as telemetry, Counter, EpochHealth};

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

/// A participant's owner-word share held by its [`Handle`].
const HANDLE: u64 = 1;
/// A participant's owner-word share held by each live [`Guard`].
const GUARD: u64 = 2;

/// One thread's announcement slot. Slots are allocated once, leaked (their
/// count is bounded by the peak number of concurrent threads), and recycled
/// through the `in_use` flag when a thread exits.
pub struct Participant {
    /// `(epoch << 1) | pinned`. Cache-padded: every pin writes this word
    /// and every `try_advance` reads all of them, so two participants'
    /// announcements sharing a line would false-share the hottest store in
    /// the system (the padding also line-aligns the whole slot, keeping the
    /// owner-local fields off other slots' lines).
    state: CachePadded<AtomicU64>,
    /// The slot's owners: [`HANDLE`] while the handle lives plus [`GUARD`]
    /// per live guard, so `owners / GUARD` is the re-entrant pin depth. The
    /// slot is released when the word reaches zero, so a guard that
    /// outlives its handle keeps its pin and its slot.
    ///
    /// Owner-only: handles and guards are `!Send`, so every pin, guard drop
    /// and handle drop of a slot runs on the registering thread, and a
    /// recycling [`Domain::register`] rewrites the word only after its
    /// `in_use` CAS pairs with the releasing store. A plain load and store
    /// therefore update it, with no read-modify-write.
    owners: AtomicU64,
    /// Pins performed through this slot (drives amortized advancing).
    /// Written by the owner alone, like `owners`; `health` only reads it.
    pins: AtomicU64,
    /// Consecutive [`Domain::try_advance`] attempts this participant
    /// refused while pinned; reset on every announcement. The
    /// stalled-reader detector's raw signal.
    blocked: AtomicU64,
    /// Slot ownership flag for recycling.
    in_use: AtomicBool,
    /// Next participant in the domain's list (written once at registration).
    next: AtomicPtr<Participant>,
}

impl Participant {
    const fn new() -> Self {
        Self {
            state: CachePadded::new(AtomicU64::new(0)),
            owners: AtomicU64::new(HANDLE),
            pins: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// Stores the owner word left after an owner dropped; the last owner
    /// out releases the slot for recycling. The slot is unpinned by then:
    /// the last guard clears `state` before it gets here.
    #[inline]
    fn set_owners(&self, owners: u64) {
        self.owners.store(owners, Ordering::Relaxed);
        if owners == 0 {
            self.in_use.store(false, Ordering::SeqCst);
        }
    }
}

/// An epoch domain: a global epoch plus its registered participants.
///
/// Almost all code uses the process-wide [`Domain::global`] domain through
/// [`pin`]; tests construct private domains (leaking them for `'static`
/// lifetime) to drive pin/advance schedules deterministically.
pub struct Domain {
    /// The global epoch, padded onto its own cache line: every pin
    /// validates against it and every advance CASes it, so it must not
    /// share a line with the participant-list head (mutated on
    /// registration) or whatever the domain is embedded next to.
    epoch: CachePadded<AtomicU64>,
    participants: AtomicPtr<Participant>,
}

impl Domain {
    /// Creates an empty domain. `const` so it can back a `static`.
    pub const fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(0)),
            participants: AtomicPtr::new(core::ptr::null_mut()),
        }
    }

    /// The process-wide domain used by [`pin`] and, by default, every
    /// [`crate::registry::Registry`].
    pub fn global() -> &'static Domain {
        static GLOBAL: Domain = Domain::new();
        &GLOBAL
    }

    /// The current global epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Registers a participant slot (recycling a released one when
    /// available) and returns a handle that can pin this domain.
    ///
    /// The slot is released when the handle and its guards have dropped;
    /// the allocation itself is intentionally leaked so `Guard`s may hold
    /// `'static`-like references (total leakage is bounded by the peak
    /// participant count).
    pub fn register(&self) -> Handle<'_> {
        // Try to recycle a released slot first.
        let mut cur = self.participants.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &*cur };
            if !p.in_use.load(Ordering::SeqCst)
                && p.in_use
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                // We own the slot. Its last owner unpinned it before the
                // releasing store this CAS read, so only the owner word
                // needs resetting (`blocked` restarts at the first pin).
                p.owners.store(HANDLE, Ordering::Relaxed);
                return Handle {
                    domain: self,
                    participant: p,
                    _not_send: PhantomData,
                };
            }
            cur = p.next.load(Ordering::SeqCst);
        }
        // No free slot: push a fresh (leaked) one.
        let p: &Participant = Box::leak(Box::new(Participant::new()));
        loop {
            let head = self.participants.load(Ordering::SeqCst);
            p.next.store(head, Ordering::SeqCst);
            if self
                .participants
                .compare_exchange(
                    head,
                    p as *const _ as *mut _,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                // Leaked participants outlive `self` only in the test-domain
                // case, where the domain itself is also leaked.
                return Handle {
                    domain: self,
                    participant: unsafe { &*(p as *const Participant) },
                    _not_send: PhantomData,
                };
            }
        }
    }

    /// Attempts one global-epoch increment; succeeds when every pinned
    /// participant has announced the current epoch. Returns the epoch
    /// observed *after* the attempt. A refusing participant is charged one
    /// step of its blocked streak.
    ///
    /// Lock-free and wait-free in the absence of new registrations: a single
    /// pass over the participant list plus one CAS.
    pub fn try_advance(&self) -> u64 {
        let e = self.epoch.load(Ordering::SeqCst);
        let mut cur = self.participants.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &*cur };
            if p.in_use.load(Ordering::SeqCst) {
                let s = p.state.load(Ordering::SeqCst);
                if s & 1 == 1 && (s >> 1) != e {
                    // A straggler still pinned in an older epoch: charge
                    // its blocked streak (the stalled-reader signal).
                    p.blocked.fetch_add(1, Ordering::Relaxed);
                    telemetry::add(Counter::EpochAdvanceBlocked, 1);
                    return e;
                }
            }
            cur = p.next.load(Ordering::SeqCst);
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

    /// Samples this domain's health gauges in one participant-list pass.
    /// A pinned participant counts as a stalled reader once its blocked
    /// streak reaches [`STALL_BLOCKED_THRESHOLD`].
    pub fn health(&self) -> EpochHealth {
        let e = self.epoch();
        let mut h = EpochHealth {
            epoch: e,
            ..EpochHealth::default()
        };
        let mut min_pin = u64::MAX;
        let mut cur = self.participants.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &*cur };
            h.participants += 1;
            h.total_pins += p.pins.load(Ordering::Relaxed);
            if p.in_use.load(Ordering::SeqCst) {
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
            cur = p.next.load(Ordering::SeqCst);
        }
        if h.pinned > 0 {
            h.min_pin_lag = e.saturating_sub(min_pin);
        }
        h
    }

    /// Number of currently pinned participants (diagnostics and tests).
    pub fn pinned_participants(&self) -> usize {
        let mut n = 0;
        let mut cur = self.participants.load(Ordering::SeqCst);
        while !cur.is_null() {
            let p = unsafe { &*cur };
            if p.in_use.load(Ordering::SeqCst) && p.state.load(Ordering::SeqCst) & 1 == 1 {
                n += 1;
            }
            cur = p.next.load(Ordering::SeqCst);
        }
        n
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

/// A registered participant slot of a [`Domain`]; produces [`Guard`]s.
///
/// Not `Send`: a handle (and its guards) belong to the registering thread.
pub struct Handle<'d> {
    domain: &'d Domain,
    participant: &'d Participant,
    _not_send: PhantomData<*mut ()>,
}

impl<'d> Handle<'d> {
    /// Pins the domain: until the returned guard (and any nested guards)
    /// drop, the global epoch can advance at most once, so no node retired
    /// from now on is freed. Re-entrant.
    pub fn pin(&self) -> Guard<'d> {
        let p = self.participant;
        let owners = p.owners.load(Ordering::Relaxed);
        if owners < GUARD {
            let _t = telemetry::trace::phase(telemetry::trace::TracePhase::Pin);
            let mut e = self.domain.epoch.load(Ordering::SeqCst);
            loop {
                // Announce, then re-validate: the SeqCst store/load pair
                // orders the announcement before any shared read under the
                // guard and bounds how stale the announced epoch can be.
                p.state.store((e << 1) | 1, Ordering::SeqCst);
                let now = self.domain.epoch.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                e = now;
            }
            // A fresh announcement is progress: the stall streak restarts.
            p.blocked.store(0, Ordering::Relaxed);
            let pins = p.pins.load(Ordering::Relaxed) + 1;
            p.pins.store(pins, Ordering::Relaxed);
            if pins.is_multiple_of(PINS_PER_ADVANCE) {
                self.domain.try_advance();
            }
        }
        // The guard co-owns the slot: dropping the handle while guards live
        // must neither unpin nor recycle it (a recycled slot under a live
        // guard would both lose the pin and corrupt the next owner's
        // accounting).
        p.owners.store(owners + GUARD, Ordering::Relaxed);
        Guard {
            domain: self.domain,
            participant: p,
            _not_send: PhantomData,
        }
    }

    /// The domain this handle participates in.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }
}

impl Drop for Handle<'_> {
    fn drop(&mut self) {
        // Live guards keep the slot reserved and pinned; the slot is only
        // recycled when the last co-owner (handle or guard) goes away.
        let p = self.participant;
        p.set_owners(p.owners.load(Ordering::Relaxed) - HANDLE);
    }
}

impl core::fmt::Debug for Handle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Handle")
            .field(
                "pinned",
                &(self.participant.owners.load(Ordering::Relaxed) >= GUARD),
            )
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
            // slot to a new owner whose pin this store must not clobber.
            p.state.store(0, Ordering::SeqCst);
        }
        p.set_owners(owners);
    }
}

impl core::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.epoch())
            .finish()
    }
}

struct ThreadEntry {
    handle: Handle<'static>,
}

thread_local! {
    static ENTRY: ThreadEntry = ThreadEntry {
        handle: Domain::global().register(),
    };
}

/// Pins the global epoch domain for the calling thread. Re-entrant and
/// cheap when already pinned (one owner-word store).
///
/// Every operation that dereferences nodes allocated through an epoch-aware
/// [`crate::registry::Registry`] must run under a pin.
pub fn pin() -> Guard<'static> {
    // A crash here is the cheapest possible one: nothing announced yet.
    crate::fault::point(crate::fault::FaultPoint::EpochPin);
    ENTRY.with(|t| t.handle.pin())
}

/// True if the calling thread currently holds at least one guard on the
/// global domain.
pub fn is_pinned() -> bool {
    ENTRY.with(|t| t.handle.participant.owners.load(Ordering::Relaxed) >= GUARD)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_domain() -> &'static Domain {
        Box::leak(Box::new(Domain::new()))
    }

    #[test]
    fn advance_succeeds_with_no_pins() {
        let d = leaked_domain();
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.try_advance(), 1);
        assert_eq!(d.try_advance(), 2);
    }

    #[test]
    fn pinned_participant_blocks_second_advance() {
        let d = leaked_domain();
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
        let d = leaked_domain();
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
        let d = leaked_domain();
        let h1 = d.register();
        let p1 = h1.participant as *const Participant;
        drop(h1);
        let h2 = d.register();
        assert_eq!(
            h2.participant as *const Participant, p1,
            "released slots are recycled"
        );
    }

    #[test]
    fn guard_outliving_its_handle_keeps_the_pin() {
        // Regression: dropping the Handle while a Guard lives must neither
        // unpin the participant nor release the slot for recycling — the
        // guard holder is still reading shared memory. Inputs: one guard,
        // and two nested guards dropped in either order.
        for (guards, inner_first) in [(1, false), (2, false), (2, true)] {
            let d = leaked_domain();
            let h = d.register();
            let p1 = h.participant as *const Participant;
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
            assert_ne!(h2.participant as *const Participant, p1);
            drop(h2);
            drop(gs);
            assert_eq!(d.pinned_participants(), 0);
            // Now the slot is free again.
            let h3 = d.register();
            let p3 = h3.participant as *const Participant;
            assert!(p3 == p1 || !p3.is_null());
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
        let d = leaked_domain();
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
        let d = leaked_domain();
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
        let d = leaked_domain();
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let h = d.register();
                for _ in 0..10_000 {
                    let g = h.pin();
                    core::hint::black_box(g.epoch());
                    drop(g);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        // All unpinned: the epoch can advance freely again.
        let e = d.epoch();
        assert!(d.try_advance() > e);
    }
}
