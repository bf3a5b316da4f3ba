//! Deterministic fault injection: named points, seeded plans, and the
//! switch behind the panic-tolerance tests.
//!
//! The paper's lock-freedom argument promises progress even when threads
//! stall mid-operation. This module turns that promise into a testable
//! surface: the trie, the announcement lists, the epoch domain, and the
//! registry sweep paths are threaded with **named injection points**
//! ([`FaultPoint`]), each of which can fire a [`FaultAction`] — yield,
//! bounded stall, or panic — driven by a reproducible seeded `FaultPlan`.
//! A fourth, one-shot action, `Suspend`, stops one operation at a point
//! and leaves it there for good: `suspend_at` is the paper's stalled
//! process, the real operation cut mid-flight.
//!
//! # Every way out of an operation
//!
//! In the paper only an update's owner finishes that update; other
//! operations help only with activation (`HelpActivate`, lines 128–136).
//! A Rust thread leaves a trie operation in one of two ways: it returns,
//! or it unwinds. Unwinding runs the operation's guards, which finish a
//! published update from wherever its owner stopped, return a node nobody
//! else can reach, and withdraw a query's announcement. Everything else
//! that stops a thread mid-operation — `panic = "abort"`, allocation
//! failure, stack overflow — ends the whole process, trie included. So
//! the actions cover every case: `Yield` and `Stall` reorder threads
//! without stopping any, `Panic` unwinds through the guards, and
//! `Suspend` is the paper's process that stops taking steps, whose
//! operation other operations help along. A panic inside a guard's own
//! resume (a genuine bug: points are suppressed there) is caught by the
//! guard and stays a bounded leak of that one operation, whose
//! announcements and nodes then stay until the trie drops.
//!
//! # Zero cost by default
//!
//! Without the `fault-injection` feature, [`point`] and
//! [`point_nonfatal`] compile to literal no-ops and none of the plan
//! machinery exists. With the feature, on a thread that never called
//! `arm`, a point is a single thread-local read.
//!
//! # Determinism and scoping
//!
//! Firing decisions hash `(plan seed, point, per-thread occurrence
//! counter, thread salt)` — no wall clock, no global RNG — so a plan
//! replays exactly on a single thread and replays modulo contention-
//! dependent control flow across threads. A plan lives in the thread that
//! armed it (`arm` takes the thread's own copy; there is no process-wide
//! plan), so points fire **only on armed threads** and one test's plan
//! can never leak faults into another test's threads. Points **never**
//! fire while the thread is already panicking (a panic during unwinding
//! would abort the process) or inside a [`suppress`]ed section (the
//! unwind-guard continuations re-run protocol steps that contain
//! points).

#[cfg(feature = "fault-injection")]
use std::sync::atomic::Ordering;

/// Every named injection point, in the order the protocol reaches them.
///
/// Points are placed at *step boundaries*: each sits where the enclosing
/// operation's unwind guard has a well-defined continuation, so every
/// point tolerates every action.
/// The single exception is [`FaultPoint::RegistryCollect`], which is
/// reachable from inside a retire call mid-operation and therefore only
/// ever fires non-fatal actions (see [`point_nonfatal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultPoint {
    /// Entry of [`crate::epoch::pin`], before the participant announces.
    EpochPin = 0,
    /// Entry of an explicit registry sweep (`Registry::flush`).
    RegistrySweep,
    /// Entry of the amortized registry collection pass (`Registry::collect`)
    /// — reachable from retire-bag overflow inside an operation, so this
    /// point is non-fatal: unwinding decisions demote to a stall.
    RegistryCollect,
    /// Entry of an announcement-list insertion (U-ALL/RU-ALL).
    AnnounceInsert,
    /// Entry of an announcement-list exhaustive removal (U-ALL/RU-ALL).
    AnnounceRemove,
    /// `Insert(x)`, after the epoch pin, before any allocation.
    InsertEntry,
    /// `Insert(x)`, after the latest-list CAS published the INS node,
    /// before it is announced.
    InsertPublished,
    /// `Insert(x)`, announced but not yet activated (not linearized).
    InsertAnnounced,
    /// `Insert(x)`, activated (linearized), displaced node not yet retired
    /// and relaxed-trie bits not yet updated.
    InsertLinearized,
    /// `Insert(x)`, relaxed-trie bits updated, notifications not yet sent.
    InsertTrieUpdated,
    /// `Insert(x)`, completed flag set, announcement not yet withdrawn.
    InsertCompleted,
    /// `Delete(x)`, after the epoch pin, before the embedded helpers.
    DeleteEntry,
    /// `Delete(x)`, both first embedded helpers announced and recorded,
    /// DEL node not yet allocated.
    DeleteHelpersDone,
    /// `Delete(x)`, after the latest-list CAS published the DEL node,
    /// before it is announced.
    DeletePublished,
    /// `Delete(x)`, announced but not yet activated (not linearized).
    DeleteAnnounced,
    /// `Delete(x)`, activated (linearized), displaced INS node not yet
    /// stopped/retired.
    DeleteLinearized,
    /// `Delete(x)`, second embedded helper results recorded, relaxed-trie
    /// bits not yet cleared.
    DeleteEmbedsDone,
    /// `Delete(x)`, relaxed-trie bits updated, notifications not yet sent.
    DeleteTrieUpdated,
    /// `Delete(x)`, completed flag set, announcements/helpers not yet
    /// withdrawn.
    DeleteCompleted,
    /// A query helper (`PredHelper`/`SuccHelper`), announced in the
    /// P-ALL/S-ALL, before its traversals run.
    QueryAnnounced,
    /// A scan, before sliding its S-ALL announcement to the next key.
    ScanStep,
    /// A batched update, between two keys of the batch.
    BatchKeyDone,
}

/// Number of [`FaultPoint`] variants.
pub const POINT_COUNT: usize = FaultPoint::BatchKeyDone as usize + 1;

impl FaultPoint {
    /// Every injection point, in declaration order (drives the
    /// point-by-point test matrices).
    pub const ALL: [FaultPoint; POINT_COUNT] = [
        FaultPoint::EpochPin,
        FaultPoint::RegistrySweep,
        FaultPoint::RegistryCollect,
        FaultPoint::AnnounceInsert,
        FaultPoint::AnnounceRemove,
        FaultPoint::InsertEntry,
        FaultPoint::InsertPublished,
        FaultPoint::InsertAnnounced,
        FaultPoint::InsertLinearized,
        FaultPoint::InsertTrieUpdated,
        FaultPoint::InsertCompleted,
        FaultPoint::DeleteEntry,
        FaultPoint::DeleteHelpersDone,
        FaultPoint::DeletePublished,
        FaultPoint::DeleteAnnounced,
        FaultPoint::DeleteLinearized,
        FaultPoint::DeleteEmbedsDone,
        FaultPoint::DeleteTrieUpdated,
        FaultPoint::DeleteCompleted,
        FaultPoint::QueryAnnounced,
        FaultPoint::ScanStep,
        FaultPoint::BatchKeyDone,
    ];

    /// Stable lower-case label for logs and reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultPoint::EpochPin => "epoch_pin",
            FaultPoint::RegistrySweep => "registry_sweep",
            FaultPoint::RegistryCollect => "registry_collect",
            FaultPoint::AnnounceInsert => "announce_insert",
            FaultPoint::AnnounceRemove => "announce_remove",
            FaultPoint::InsertEntry => "insert_entry",
            FaultPoint::InsertPublished => "insert_published",
            FaultPoint::InsertAnnounced => "insert_announced",
            FaultPoint::InsertLinearized => "insert_linearized",
            FaultPoint::InsertTrieUpdated => "insert_trie_updated",
            FaultPoint::InsertCompleted => "insert_completed",
            FaultPoint::DeleteEntry => "delete_entry",
            FaultPoint::DeleteHelpersDone => "delete_helpers_done",
            FaultPoint::DeletePublished => "delete_published",
            FaultPoint::DeleteAnnounced => "delete_announced",
            FaultPoint::DeleteLinearized => "delete_linearized",
            FaultPoint::DeleteEmbedsDone => "delete_embeds_done",
            FaultPoint::DeleteTrieUpdated => "delete_trie_updated",
            FaultPoint::DeleteCompleted => "delete_completed",
            FaultPoint::QueryAnnounced => "query_announced",
            FaultPoint::ScanStep => "scan_step",
            FaultPoint::BatchKeyDone => "batch_key_done",
        }
    }
}

/// What an injection point does when its plan says "fire".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultAction {
    /// One scheduler yield: reorders threads without losing any.
    Yield = 0,
    /// A bounded busy/yield stall: widens race windows without parking.
    Stall = 1,
    /// `panic!` with an `InjectedFault` payload: the operation unwinds
    /// through its RAII guards (which withdraw or complete it).
    Panic = 2,
    // 3 (`abandon`) is retired.
    /// Simulated stall: panic with the suspending flag set, so every
    /// unwind guard *skips* its cleanup and the operation stays cut at
    /// this point, advanced only by other operations' helping. One-shot
    /// (see `suspend_at`): a seeded storm of suspensions would never
    /// drain. The flag stays set until the thread disarms.
    #[cfg(feature = "fault-injection")]
    Suspend = 4,
}

impl FaultAction {
    /// Stable lower-case label for logs and reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultAction::Yield => "yield",
            FaultAction::Stall => "stall",
            FaultAction::Panic => "panic",
            #[cfg(feature = "fault-injection")]
            FaultAction::Suspend => "suspend",
        }
    }
}

/// An injection point: fires per the armed plan. Compiled to a literal
/// no-op without the `fault-injection` feature.
#[inline(always)]
pub fn point(p: FaultPoint) {
    #[cfg(feature = "fault-injection")]
    imp::fire(p, true);
    #[cfg(not(feature = "fault-injection"))]
    let _ = p;
}

/// An injection point on a path where unwinding is not recoverable
/// (reachable mid-retire): panic and suspend decisions demote to a
/// bounded stall. Compiled to a literal no-op without the feature.
#[inline(always)]
pub fn point_nonfatal(p: FaultPoint) {
    #[cfg(feature = "fault-injection")]
    imp::fire(p, false);
    #[cfg(not(feature = "fault-injection"))]
    let _ = p;
}

/// True while the current thread is unwinding out of an operation a
/// `Suspend` stopped: unwind guards consult this and *skip* their
/// cleanup, leaving the operation's footprint. Always `false` without the
/// `fault-injection` feature.
#[inline(always)]
pub fn is_suspending() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        imp::is_suspending()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Are the RAII unwind guards enabled? Always `true` without the feature;
/// with it, tests flip the switch off to prove the guards are
/// load-bearing (the "teeth" check).
#[inline(always)]
pub fn unwind_guards_enabled() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        imp::UNWIND_GUARDS.load(Ordering::SeqCst)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        true
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::{
    arm, clear_log, disarm, fired_total, format_log, recent, set_unwind_guards_enabled,
    silence_injected_panics, suppress, suspend_at, FaultRecord, InjectedFault, SuppressGuard,
};

/// Token returned by [`suppress`]; a unit placeholder without the
/// `fault-injection` feature (there is nothing to suppress).
#[cfg(not(feature = "fault-injection"))]
#[derive(Debug)]
pub struct SuppressGuard(());

/// Suppresses injection on the current thread for the guard's lifetime.
/// A no-op without the feature — provided so the unwind guards can take
/// the token unconditionally.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn suppress() -> SuppressGuard {
    SuppressGuard(())
}

#[cfg(feature = "fault-injection")]
pub use plan::FaultPlan;

#[cfg(feature = "fault-injection")]
mod plan {
    use super::{FaultAction, FaultPoint};

    /// SplitMix64: the deterministic per-decision hash.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A reproducible firing schedule: every decision is a pure function
    /// of `(seed, point, per-thread occurrence, thread salt)`. Each armed
    /// thread holds its own copy.
    #[derive(Debug, Clone)]
    pub struct FaultPlan {
        seed: u64,
        /// Firing probability numerator out of 1024 per point occurrence.
        rate_per_1024: u32,
        /// Enabled actions (non-empty); the hash picks among them.
        actions: Vec<FaultAction>,
        /// One-shot override: fire exactly once, at the first occurrence
        /// of this point, with this action; consumed when it fires.
        once: Option<(FaultPoint, FaultAction)>,
    }

    impl FaultPlan {
        /// A plan firing yield, stall and panic at every point with the
        /// default rate (~2% of occurrences).
        pub fn seeded(seed: u64) -> Self {
            Self {
                seed,
                rate_per_1024: 24,
                actions: vec![FaultAction::Yield, FaultAction::Stall, FaultAction::Panic],
                once: None,
            }
        }

        /// A plan that fires exactly once — at the first occurrence of
        /// `point` on the thread armed with it — with `action`.
        pub fn once(point: FaultPoint, action: FaultAction) -> Self {
            Self {
                seed: 0,
                rate_per_1024: 0,
                actions: vec![action],
                once: Some((point, action)),
            }
        }

        /// Restricts the seeded plan to the given actions (panics if
        /// empty).
        pub fn with_actions(mut self, actions: &[FaultAction]) -> Self {
            assert!(!actions.is_empty(), "a plan needs at least one action");
            self.actions = actions.to_vec();
            self
        }

        /// Sets the firing probability (numerator out of 1024 per point
        /// occurrence, clamped to 1024).
        pub fn with_rate(mut self, per_1024: u32) -> Self {
            self.rate_per_1024 = per_1024.min(1024);
            self
        }

        /// The plan's seed (echoed into failure dumps).
        pub fn seed(&self) -> u64 {
            self.seed
        }

        /// Should this occurrence fire, and with what action? A one-shot
        /// plan is spent by its firing and never fires again.
        pub(super) fn decide(
            &mut self,
            point: FaultPoint,
            occurrence: u32,
            salt: u64,
        ) -> Option<FaultAction> {
            if let Some((p, action)) = self.once {
                if p == point {
                    self.once = None;
                    return Some(action);
                }
                return None;
            }
            if self.rate_per_1024 == 0 {
                return None;
            }
            let h = mix(self.seed
                ^ (point as u64).wrapping_mul(0xA24BAED4963EE407)
                ^ (occurrence as u64).wrapping_mul(0x9FB21C651E98DF25)
                ^ salt.wrapping_mul(0xD6E8FEB86659FD93));
            if (h % 1024) as u32 >= self.rate_per_1024 {
                return None;
            }
            let idx = ((h >> 10) as usize) % self.actions.len();
            Some(self.actions[idx])
        }
    }
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::plan::FaultPlan;
    use super::{FaultAction, FaultPoint, POINT_COUNT};
    use lftrie_telemetry::{self as telemetry, Counter, FlightKind};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, Once};

    /// The panic payload of injected panics and suspensions; tests downcast the
    /// caught unwind to tell injected faults from genuine bugs.
    #[derive(Debug, Clone, Copy)]
    pub struct InjectedFault {
        /// Where the fault fired.
        pub point: FaultPoint,
        /// What fired.
        pub action: FaultAction,
    }

    /// One fired fault, as kept in the bounded in-memory fault log.
    #[derive(Debug, Clone, Copy)]
    pub struct FaultRecord {
        /// Where.
        pub point: FaultPoint,
        /// What.
        pub action: FaultAction,
        /// The firing thread's arm salt.
        pub salt: u64,
        /// The per-thread occurrence counter value that fired.
        pub occurrence: u32,
    }

    pub(super) static UNWIND_GUARDS: AtomicBool = AtomicBool::new(true);
    static FIRED_TOTAL: AtomicU64 = AtomicU64::new(0);
    static LOG: Mutex<VecDeque<FaultRecord>> = Mutex::new(VecDeque::new());
    const LOG_CAP: usize = 512;

    struct ThreadState {
        plan: Option<FaultPlan>,
        salt: u64,
        occurrences: [u32; POINT_COUNT],
    }

    thread_local! {
        static STATE: std::cell::RefCell<ThreadState> = const {
            std::cell::RefCell::new(ThreadState {
                plan: None,
                salt: 0,
                occurrences: [0; POINT_COUNT],
            })
        };
        static SUPPRESS_DEPTH: Cell<u32> = const { Cell::new(0) };
        static SUSPENDING: Cell<bool> = const { Cell::new(false) };
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Arms the current thread with `plan` (replacing any plan it had
    /// armed): records the thread `salt` (part of every firing decision —
    /// give workers their index for cross-run reproducibility) and resets
    /// the per-thread occurrence counters. Threads that share a schedule
    /// each arm their own clone of one plan.
    pub fn arm(plan: FaultPlan, salt: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.plan = Some(plan);
            s.salt = salt;
            s.occurrences = [0; POINT_COUNT];
        });
    }

    /// Disarms the current thread: its points become no-ops again, and
    /// its suspending flag is cleared, so its later operations unwind
    /// through their guards normally.
    pub fn disarm() {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.plan = None;
            s.occurrences = [0; POINT_COUNT];
        });
        SUSPENDING.with(|s| s.set(false));
    }

    /// Suppresses fault firing on this thread until the guard drops (used
    /// by unwind-guard continuations, which re-run protocol code
    /// containing points).
    pub fn suppress() -> SuppressGuard {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
        SuppressGuard(())
    }

    /// RAII token of [`suppress`].
    #[derive(Debug)]
    pub struct SuppressGuard(());

    impl Drop for SuppressGuard {
        fn drop(&mut self) {
            SUPPRESS_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
    }

    pub(super) fn is_suspending() -> bool {
        SUSPENDING.with(Cell::get)
    }

    /// Flips the unwind-guard switch (the "teeth" check for the guards).
    pub fn set_unwind_guards_enabled(enabled: bool) {
        UNWIND_GUARDS.store(enabled, Ordering::SeqCst);
    }

    /// Total faults fired since process start.
    pub fn fired_total() -> u64 {
        FIRED_TOTAL.load(Ordering::SeqCst)
    }

    /// The most recent fired faults (bounded ring, oldest first).
    pub fn recent() -> Vec<FaultRecord> {
        lock(&LOG).iter().copied().collect()
    }

    /// Empties the fault log.
    pub fn clear_log() {
        lock(&LOG).clear();
    }

    /// Renders the fault log for failure dumps.
    pub fn format_log() -> String {
        use std::fmt::Write;
        let log = recent();
        let mut out = String::new();
        let _ = writeln!(out, "fault log ({} fired total):", fired_total());
        for r in log {
            let _ = writeln!(
                out,
                "  {} @ {} (salt {}, occurrence {})",
                r.action.name(),
                r.point.name(),
                r.salt,
                r.occurrence
            );
        }
        out
    }

    /// Installs (once) a panic hook that stays silent for [`InjectedFault`]
    /// panics and defers to the previous hook for everything else — keeps
    /// chaos runs from flooding stderr with expected backtraces.
    pub fn silence_injected_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<InjectedFault>().is_some() {
                    return;
                }
                prev(info);
            }));
        });
    }

    pub(super) fn fire(point: FaultPoint, fatal_ok: bool) {
        if std::thread::panicking() || SUPPRESS_DEPTH.with(Cell::get) > 0 {
            return;
        }
        let decision = STATE.with(|s| {
            let s = &mut *s.borrow_mut();
            let plan = s.plan.as_mut()?;
            let occurrence = s.occurrences[point as usize];
            s.occurrences[point as usize] = occurrence.wrapping_add(1);
            plan.decide(point, occurrence, s.salt)
                .map(|action| (action, s.salt, occurrence))
        });
        let Some((mut action, salt, occurrence)) = decision else {
            return;
        };
        if !fatal_ok && matches!(action, FaultAction::Panic | FaultAction::Suspend) {
            action = FaultAction::Stall;
        }
        FIRED_TOTAL.fetch_add(1, Ordering::SeqCst);
        telemetry::event(
            Counter::FaultsInjected,
            FlightKind::Fault,
            point as i64,
            action as u64,
        );
        {
            let mut log = lock(&LOG);
            if log.len() >= LOG_CAP {
                log.pop_front();
            }
            log.push_back(FaultRecord {
                point,
                action,
                salt,
                occurrence,
            });
        }
        match action {
            FaultAction::Yield => std::thread::yield_now(),
            FaultAction::Stall => {
                for _ in 0..3 {
                    std::thread::yield_now();
                    for _ in 0..512 {
                        std::hint::spin_loop();
                    }
                }
            }
            FaultAction::Panic => {
                std::panic::panic_any(InjectedFault { point, action });
            }
            FaultAction::Suspend => {
                SUSPENDING.with(|s| s.set(true));
                std::panic::panic_any(InjectedFault { point, action });
            }
        }
    }

    /// Runs `op` with a one-shot [`FaultAction::Suspend`] armed at `point`
    /// on this thread only, and returns whether `op` stopped there.
    ///
    /// A stopped operation keeps exactly the footprint it had reached at
    /// `point`: its unwind guards skip their cleanup — the paper's stalled
    /// process, left for other operations to help along. `op` returning
    /// normally (it finished without reaching `point`) gives `false`; any
    /// other panic propagates. The thread leaves disarmed, with its
    /// suspending flag clear, so its later operations run and unwind
    /// normally. Installs [`silence_injected_panics`], so the suspension
    /// prints no panic message.
    pub fn suspend_at<R>(point: FaultPoint, op: impl FnOnce() -> R) -> bool {
        silence_injected_panics();
        arm(FaultPlan::once(point, FaultAction::Suspend), 0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
        disarm();
        match outcome {
            Ok(_) => false,
            Err(payload) => match payload.downcast_ref::<InjectedFault>() {
                Some(f) if f.action == FaultAction::Suspend => true,
                _ => std::panic::resume_unwind(payload),
            },
        }
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_threads_never_fire() {
        // Another thread arms a plan that fires at every occurrence; this
        // thread never armed, so its points stay no-ops.
        std::thread::spawn(|| {
            arm(FaultPlan::seeded(42).with_rate(1024), 0);
            std::thread::spawn(|| point(FaultPoint::EpochPin))
                .join()
                .expect("an unarmed thread must not fire");
            disarm();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn once_plan_fires_exactly_once_and_is_caught() {
        std::thread::spawn(|| {
            silence_injected_panics();
            arm(
                FaultPlan::once(FaultPoint::InsertEntry, FaultAction::Panic),
                7,
            );
            let r = std::panic::catch_unwind(|| point(FaultPoint::InsertEntry));
            let err = r.expect_err("first occurrence fires");
            let f = err
                .downcast_ref::<InjectedFault>()
                .expect("payload identifies the injection");
            assert_eq!(f.point, FaultPoint::InsertEntry);
            point(FaultPoint::InsertEntry); // consumed: must not fire again
            assert!(!is_suspending(), "a panic is not a suspension");
            disarm();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn suspend_flags_its_unwind_and_leaves_the_thread_disarmed() {
        std::thread::spawn(|| {
            let mut flagged = false;
            let stopped = suspend_at(FaultPoint::DeleteEntry, || {
                point(FaultPoint::InsertEntry); // not the armed point
                let r = std::panic::catch_unwind(|| point(FaultPoint::DeleteEntry));
                // The unwind carries the suspending flag, so guards skip
                // their cleanup, and then continues out of the operation.
                flagged = is_suspending();
                std::panic::resume_unwind(r.expect_err("the armed point fires"));
            });
            assert!(stopped, "the operation stopped at its point");
            assert!(flagged, "suspend unwinds with the suspending flag set");
            assert!(!is_suspending(), "suspend_at clears the flag");
            point(FaultPoint::DeleteEntry); // disarmed: must not fire
            assert!(!suspend_at(FaultPoint::DeleteEntry, || ()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nonfatal_points_demote_to_stall() {
        std::thread::spawn(|| {
            arm(
                FaultPlan::once(FaultPoint::RegistryCollect, FaultAction::Panic),
                0,
            );
            point_nonfatal(FaultPoint::RegistryCollect); // must not unwind
            disarm();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn seeded_decisions_are_reproducible() {
        let mut a = FaultPlan::seeded(0xFEED).with_rate(512);
        let mut b = FaultPlan::seeded(0xFEED).with_rate(512);
        for p in FaultPoint::ALL {
            for occ in 0..64 {
                assert_eq!(a.decide(p, occ, 3), b.decide(p, occ, 3));
            }
        }
    }
}
