//! The headline chaos suite: seeded yield, stall and panic faults across
//! concurrent threads, with three acceptance gates —
//!
//! * **progress**: injected faults crash individual operations but must
//!   never stop the others (a watchdog floor on completed operations, and
//!   a wall-clock watchdog on the whole scenario);
//! * **footprint**: once the workers stop, every announcement list has
//!   drained to zero and live-node counts stay under the steady-state
//!   ceiling — the unwind guards alone clean up after every crashed
//!   operation, so its memory does not accumulate; and
//! * **consistency**: the quiescent trie answers every query family in
//!   agreement with its own membership snapshot, and keeps doing so under
//!   a clean follow-up workload.
//!
//! The `teeth_*` test proves the gates are load-bearing: with the unwind
//! guards switched off, the exact assertions above demonstrably fail.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use lftrie::core::fault::{self, FaultAction, FaultPlan, FaultPoint, InjectedFault};
use lftrie::core::LockFreeBinaryTrie;

/// The teeth test flips a process-global switch; every test in this binary
/// serializes on this lock so they never bleed into each other.
static SERIAL: Mutex<()> = Mutex::new(());

/// Restores the unwind-guard switch on drop, panic or not.
struct RestoreSwitches;

impl Drop for RestoreSwitches {
    fn drop(&mut self) {
        fault::set_unwind_guards_enabled(true);
    }
}

const U: u64 = 1 << 10;
const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 6_000;

/// One pseudo-random operation against the trie; returns `true` when the
/// operation ran to completion (its result is only sanity-checked — under
/// concurrency the model is the trie itself, validated quiescently after).
fn one_op(trie: &LockFreeBinaryTrie, state: &mut u64) {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
    let k = (*state >> 33) % U;
    // Updates hammer a hot span so membership actually toggles (an insert
    // of a present key allocates nothing): the run must generate real
    // churn for the memory ceiling to be a meaningful assertion.
    let hot = k % 128;
    match *state % 8 {
        0 | 1 => {
            trie.insert(hot);
        }
        2 | 3 => {
            trie.remove(hot);
        }
        4 => {
            if let Some(p) = trie.predecessor(k.max(1)) {
                assert!(p < k.max(1), "predecessor above its query point");
            }
        }
        5 => {
            if let Some(s) = trie.successor(k) {
                assert!(s > k, "successor below its query point");
            }
        }
        6 => {
            let hi = (k + 16).min(U - 1);
            let r = trie.range(k..=hi);
            assert!(r.windows(2).all(|w| w[0] < w[1]), "range not sorted");
        }
        _ => {
            std::hint::black_box(trie.count(k..=(k + 16).min(U - 1)));
        }
    }
}

/// Worker under fault injection: every operation runs in `catch_unwind`;
/// injected panics are absorbed, anything else is a real bug and
/// re-raised. Returns the number of operations that completed.
fn chaos_worker(trie: &LockFreeBinaryTrie, plan: FaultPlan, t: u64, seed: u64) -> u64 {
    fault::arm(plan, seed ^ (t << 16));
    let mut state = seed ^ t.wrapping_mul(0x9E3779B97F4A7C15);
    let mut completed = 0u64;
    for _ in 0..OPS_PER_THREAD {
        match catch_unwind(AssertUnwindSafe(|| one_op(trie, &mut state))) {
            Ok(()) => completed += 1,
            Err(payload) => {
                if payload.downcast_ref::<InjectedFault>().is_none() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
    fault::disarm();
    completed
}

/// Quiescent full-consistency check: snapshot membership, then require
/// every query family to agree with the snapshot.
fn assert_self_consistent(trie: &LockFreeBinaryTrie, ctx: &str) -> BTreeSet<u64> {
    let model: BTreeSet<u64> = (0..U).filter(|&x| trie.contains(x)).collect();
    for y in (1..U).step_by(13) {
        assert_eq!(
            trie.predecessor(y),
            model.range(..y).next_back().copied(),
            "{ctx}: predecessor({y})"
        );
        assert_eq!(
            trie.successor(y),
            model.range(y + 1..).next().copied(),
            "{ctx}: successor({y})"
        );
    }
    assert_eq!(trie.min(), model.first().copied(), "{ctx}: min");
    assert_eq!(trie.max(), model.last().copied(), "{ctx}: max");
    let (lo, hi) = (U / 4, 3 * U / 4);
    assert_eq!(
        trie.range(lo..=hi),
        model.range(lo..=hi).copied().collect::<Vec<_>>(),
        "{ctx}: range"
    );
    assert_eq!(
        trie.count(lo..=hi),
        model.range(lo..=hi).count(),
        "{ctx}: count"
    );
    model
}

fn chaos_round(seed: u64) {
    let trie = Arc::new(LockFreeBinaryTrie::new(U));
    for k in (1..U).step_by(5) {
        trie.insert(k);
    }

    let fired_before = fault::fired_total();
    let plan = FaultPlan::seeded(seed).with_rate(24).with_actions(&[
        FaultAction::Yield,
        FaultAction::Stall,
        FaultAction::Panic,
    ]);
    let completed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            let completed = Arc::clone(&completed);
            let plan = plan.clone();
            std::thread::spawn(move || {
                let done = chaos_worker(&trie, plan, t, seed);
                completed.fetch_add(done, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("chaos worker hit a non-injected panic");
    }
    let fired = fault::fired_total() - fired_before;

    // Progress floor: the fault rate crashes some operations, but the
    // overwhelming majority must still run to completion.
    let done = completed.load(Ordering::SeqCst);
    let floor = THREADS * OPS_PER_THREAD / 2;
    assert!(
        done >= floor,
        "progress collapsed under faults (seed {seed:#x}): \
         {done} of {} ops completed (floor {floor}, {fired} faults fired)",
        THREADS * OPS_PER_THREAD
    );
    assert!(
        fired > 0,
        "seed {seed:#x} fired no faults: chaos run is vacuous"
    );

    // Footprint: the unwind guards must have drained the crashed ops'
    // announcements.
    let lens = trie.announcements();
    assert!(
        lens.is_empty(),
        "announcements leaked after the storm (seed {seed:#x}): \
         uall {} ruall {} pall {} sall {}",
        lens.uall,
        lens.ruall,
        lens.pall,
        lens.sall
    );

    // Memory ceiling, memory_bound-style: steady-state live nodes stay
    // bounded by the universe plus a constant, independent of the op count
    // and of how many operations crashed.
    trie.collect_garbage();
    let allocated = trie.allocated_nodes();
    let live = trie.live_nodes();
    let ceiling = 4 * U as usize + 512;
    assert!(
        live <= ceiling,
        "live nodes unbounded after chaos (seed {seed:#x}): {live} live of \
         {allocated} allocated (ceiling {ceiling})"
    );
    // On the drop-only arena nothing is ever reclaimed, so this direction
    // proves the run generated enough garbage for the ceiling to bite.
    assert!(
        allocated - live >= 4 * U as usize,
        "churn too small for the ceiling to mean anything: \
         only {} of {allocated} allocations reclaimed",
        allocated - live
    );

    // Consistency now, and after a clean follow-up workload.
    let model = assert_self_consistent(&trie, "post-chaos");
    let probe = [0u64, 2, U / 2, U - 2, U - 1];
    for &k in &probe {
        trie.insert(k);
    }
    for &k in &probe[..2] {
        trie.remove(k);
    }
    let expect: BTreeSet<u64> = model
        .union(&probe.iter().copied().collect())
        .copied()
        .filter(|k| !probe[..2].contains(k))
        .collect();
    let after: BTreeSet<u64> = (0..U).filter(|&x| trie.contains(x)).collect();
    assert_eq!(
        after, expect,
        "clean follow-up workload diverged (seed {seed:#x})"
    );
    assert_self_consistent(&trie, "aftermath");
    assert!(
        trie.announcements().is_empty(),
        "clean aftermath leaked announcements (seed {seed:#x})"
    );
}

#[test]
fn chaos_panic_abandon_storm_stays_linearizable_and_drains() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::silence_injected_panics();
    let seed = std::env::var("LFTRIE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_05EEDu64);

    // Wall-clock watchdog: a wedged round must fail loudly, not hang CI.
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        chaos_round(seed);
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => handle.join().expect("chaos round"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            handle.join().expect("chaos round panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos round wedged (seed {seed:#x}): no completion within 300s")
        }
    }
}

/// Teeth: with the unwind guards switched off, a panic inside an announced
/// insert must leave its announcement behind, since nothing else withdraws
/// it. If this test ever starts failing, the guards are no longer what
/// makes the chaos suite pass.
#[test]
fn teeth_unwind_guards_off_leaks_the_panicked_announcement() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::silence_injected_panics();
    let _restore = RestoreSwitches;
    fault::set_unwind_guards_enabled(false);

    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(10);
    fault::arm(
        FaultPlan::once(FaultPoint::InsertAnnounced, FaultAction::Panic),
        1,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| trie.insert(20)));
    fault::disarm();
    assert!(outcome.is_err(), "the injected panic must escape the op");
    assert!(
        !trie.announcements().is_empty(),
        "guards disabled yet the announcement was withdrawn: \
         the chaos suite's drain assertions have lost their teeth"
    );
}
