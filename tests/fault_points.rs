//! The fault-point matrix (crash-consistency suite): inject a panic at
//! **every** named injection point, for every operation type, and require
//! that
//!
//! * the trie stays equivalent to a `BTreeSet` model — a crashed
//!   single-key update has taken effect exactly when the fault fired after
//!   its latest-list CAS, a crashed batch leaves a prefix of its keys
//!   applied, and every other key is untouched;
//! * every announcement list drains to zero once the panic has unwound,
//!   so the crashed operation's footprint does not linger; and
//! * the trie remains fully operational afterwards (follow-up operations
//!   agree with the model).
//!
//! Each scenario runs on its own thread under a watchdog: a wedged
//! scenario (a crashed operation blocking later ones) fails the test by
//! name instead of hanging the suite.
//!
//! The last four tests pin the contract of `fault::suspend_at`, the
//! stalled (not crashed) operation the progress and recovery suites build
//! on: it is never finished or reclaimed by anyone else, whoever cuts one
//! of its links retires what the link pointed to, it leaves nothing
//! behind when it never reaches its point, and it leaves its thread able
//! to unwind the next operation normally.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use lftrie::core::fault::{self, FaultAction, FaultPlan, FaultPoint, InjectedFault};
use lftrie::core::LockFreeBinaryTrie;

const U: u64 = 1 << 9;

/// Seed membership: every third key, away from the universe edges.
fn seed_keys() -> Vec<u64> {
    (3..U - 3).step_by(3).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    InsertNew,
    InsertDup,
    RemovePresent,
    RemoveAbsent,
    Predecessor,
    Successor,
    Range,
    Count,
    PopMin,
    InsertAll,
    DeleteAll,
}

const OPS: [Op; 11] = [
    Op::InsertNew,
    Op::InsertDup,
    Op::RemovePresent,
    Op::RemoveAbsent,
    Op::Predecessor,
    Op::Successor,
    Op::Range,
    Op::Count,
    Op::PopMin,
    Op::InsertAll,
    Op::DeleteAll,
];

fn model_pred(model: &BTreeSet<u64>, y: u64) -> Option<u64> {
    model.range(..y).next_back().copied()
}

fn model_succ(model: &BTreeSet<u64>, y: u64) -> Option<u64> {
    model.range(y + 1..).next().copied()
}

/// Full-membership equivalence plus ordered-query spot checks.
fn assert_equivalent(trie: &LockFreeBinaryTrie, model: &BTreeSet<u64>, ctx: &str) {
    for x in 0..U {
        assert_eq!(
            trie.contains(x),
            model.contains(&x),
            "{ctx}: membership of {x} diverged"
        );
    }
    for y in (1..U).step_by(17) {
        assert_eq!(
            trie.predecessor(y),
            model_pred(model, y),
            "{ctx}: predecessor({y}) diverged"
        );
        assert_eq!(
            trie.successor(y),
            model_succ(model, y),
            "{ctx}: successor({y}) diverged"
        );
    }
    assert_eq!(trie.min(), model.first().copied(), "{ctx}: min diverged");
    assert_eq!(trie.max(), model.last().copied(), "{ctx}: max diverged");
    let lo = U / 4;
    let hi = 3 * U / 4;
    assert_eq!(
        trie.range(lo..=hi),
        model.range(lo..=hi).copied().collect::<Vec<_>>(),
        "{ctx}: range diverged"
    );
}

/// Runs one `(point, op)` scenario with a panic injected at `point`, to
/// completion. Panics (with context) on any consistency violation.
fn scenario(point: FaultPoint, op: Op) {
    let ctx = format!("panic/{} on {op:?}", point.name());
    let trie = LockFreeBinaryTrie::new(U);
    let mut model: BTreeSet<u64> = BTreeSet::new();
    for k in seed_keys() {
        trie.insert(k);
        model.insert(k);
    }

    // Keys chosen so every mutating scenario touches fresh state: `k_new`
    // is absent, `k_old` present.
    let k_new = 100; // 100 % 3 == 1 → absent from the seed
    let k_old = 99; // multiple of 3 → present
    assert!(!model.contains(&k_new) && model.contains(&k_old));
    let batch_new: Vec<u64> = [130, 131, 133, 134].into(); // all absent
    let batch_old: Vec<u64> = [132, 135, 138, 141].into(); // all present
    assert!(batch_new.iter().all(|k| !model.contains(k)));
    assert!(batch_old.iter().all(|k| model.contains(k)));

    fault::arm(
        FaultPlan::once(point, FaultAction::Panic),
        (point as u64) << 8 | op as u64,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| match op {
        Op::InsertNew => {
            assert!(trie.insert(k_new), "{ctx}: insert of absent key");
        }
        Op::InsertDup => {
            assert!(!trie.insert(k_old), "{ctx}: insert of present key");
        }
        Op::RemovePresent => {
            assert!(trie.remove(k_old), "{ctx}: remove of present key");
        }
        Op::RemoveAbsent => {
            assert!(!trie.remove(k_new), "{ctx}: remove of absent key");
        }
        Op::Predecessor => {
            // Computed against the seed (no concurrency): must be exact.
            for y in [1, k_old, U / 2, U - 1] {
                assert_eq!(trie.predecessor(y), model_pred_of(y), "{ctx}: pred({y})");
            }
        }
        Op::Successor => {
            for y in [0, k_old, U / 2, U - 2] {
                assert_eq!(trie.successor(y), model_succ_of(y), "{ctx}: succ({y})");
            }
        }
        Op::Range => {
            let got = trie.range(10..=200);
            let want: Vec<u64> = (10..=200).filter(|k| k % 3 == 0).collect();
            assert_eq!(got, want, "{ctx}: range scan");
        }
        Op::Count => {
            let got = trie.count(10..=200);
            let want = (10..=200).filter(|k| k % 3 == 0).count();
            assert_eq!(got, want, "{ctx}: count");
        }
        Op::PopMin => {
            let m = trie.pop_min();
            assert_eq!(m, Some(3), "{ctx}: pop_min");
        }
        Op::InsertAll => {
            assert_eq!(
                trie.insert_all(&batch_new),
                batch_new.len(),
                "{ctx}: insert_all"
            );
        }
        Op::DeleteAll => {
            assert_eq!(
                trie.delete_all(&batch_old),
                batch_old.len(),
                "{ctx}: delete_all"
            );
        }
    }));
    fault::disarm();

    let crashed = match outcome {
        Ok(()) => false,
        Err(payload) => {
            assert!(
                payload.downcast_ref::<InjectedFault>().is_some(),
                "{ctx}: non-injected panic escaped: {payload:?}",
            );
            true
        }
    };

    // Resolve the crashed operation's outcome from the trie: either effect
    // is linearizable, but it must be atomic per key.
    if crashed {
        match op {
            // A crashed single-key update has taken effect exactly when its
            // fault fired after the latest-list CAS published its node:
            // from then on its unwind guard must finish it. Checked before
            // any follow-up operation on the key can help the node in.
            Op::InsertNew => {
                let published = fires_after_publication(point);
                assert_eq!(
                    trie.contains(k_new),
                    published,
                    "{ctx}: the crashed insert's outcome"
                );
                if published {
                    model.insert(k_new);
                }
            }
            Op::RemovePresent => {
                let published = fires_after_publication(point);
                assert_eq!(
                    !trie.contains(k_old),
                    published,
                    "{ctx}: the crashed remove's outcome"
                );
                if published {
                    model.remove(&k_old);
                }
            }
            Op::PopMin => {
                // Only the final `remove(min)` mutates; one injected fault
                // means at most that single remove crashed.
                let min = *model.first().expect("seed is non-empty");
                if !trie.contains(min) {
                    model.remove(&min);
                }
            }
            Op::InsertAll => {
                // Per-key unwind guards leave a clean linearized prefix.
                let done: Vec<bool> = batch_new.iter().map(|&k| trie.contains(k)).collect();
                let first_missing = done.iter().position(|&d| !d).unwrap_or(done.len());
                assert!(
                    done[first_missing..].iter().all(|&d| !d),
                    "{ctx}: crashed batch is not a prefix: {done:?}"
                );
                for &k in &batch_new[..first_missing] {
                    model.insert(k);
                }
            }
            Op::DeleteAll => {
                let done: Vec<bool> = batch_old.iter().map(|&k| !trie.contains(k)).collect();
                let first_missing = done.iter().position(|&d| !d).unwrap_or(done.len());
                assert!(
                    done[first_missing..].iter().all(|&d| !d),
                    "{ctx}: crashed batch is not a prefix: {done:?}"
                );
                for &k in &batch_old[..first_missing] {
                    model.remove(&k);
                }
            }
            // Queries don't mutate; a crashed query changes nothing.
            _ => {}
        }
    } else {
        // Un-crashed mutating ops already asserted their return values.
        match op {
            Op::InsertNew => {
                model.insert(k_new);
            }
            Op::RemovePresent => {
                model.remove(&k_old);
            }
            Op::PopMin => {
                model.pop_first();
            }
            Op::InsertAll => model.extend(batch_new.iter().copied()),
            Op::DeleteAll => {
                for k in &batch_old {
                    model.remove(k);
                }
            }
            _ => {}
        }
    }

    assert_equivalent(&trie, &model, &ctx);

    // The crashed operation's announcement footprint must be fully gone.
    let lens = trie.announcements();
    assert!(
        lens.is_empty(),
        "{ctx}: announcements leaked after the crash: \
         uall {} ruall {} pall {} sall {}",
        lens.uall,
        lens.ruall,
        lens.pall,
        lens.sall
    );

    // And the trie must still work: exercise every op family once more.
    for k in [k_new, k_old, 200, 201] {
        trie.insert(k);
        model.insert(k);
    }
    for k in [99, 201] {
        trie.remove(k);
        model.remove(&k);
    }
    assert_equivalent(&trie, &model, &format!("{ctx} (aftermath)"));
    let lens = trie.announcements();
    assert!(lens.is_empty(), "{ctx}: aftermath leaked announcements");
}

/// Whether a fault at `point` that crashes an S-modifying `insert` or
/// `remove` fires after the update's latest-list CAS. The U-ALL/RU-ALL
/// points count too: such an update first announces (lines 173/196) and
/// first withdraws (lines 179/205) after that CAS.
fn fires_after_publication(point: FaultPoint) -> bool {
    use FaultPoint::*;
    matches!(
        point,
        AnnounceInsert
            | AnnounceRemove
            | InsertPublished
            | InsertAnnounced
            | InsertLinearized
            | InsertTrieUpdated
            | InsertCompleted
            | DeletePublished
            | DeleteAnnounced
            | DeleteLinearized
            | DeleteEmbedsDone
            | DeleteTrieUpdated
            | DeleteCompleted
    )
}

fn model_pred_of(y: u64) -> Option<u64> {
    seed_keys().into_iter().rfind(|&k| k < y)
}

fn model_succ_of(y: u64) -> Option<u64> {
    seed_keys().into_iter().find(|&k| k > y)
}

/// Runs `scenario` on a watchdog thread so a wedged trie fails by name.
fn run_watched(point: FaultPoint, op: Op) {
    let (tx, rx) = mpsc::channel();
    let name = format!("panic/{} on {op:?}", point.name());
    let handle = std::thread::spawn(move || {
        scenario(point, op);
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        // Joins on both arms propagate a scenario panic with its own
        // message; only a still-running thread is a wedge.
        Ok(()) => handle.join().expect("scenario thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            handle.join().expect("scenario thread panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("scenario {name} wedged: no completion within 60s")
        }
    }
}

#[test]
fn panic_at_every_point_keeps_model_equivalence() {
    fault::silence_injected_panics();
    for point in FaultPoint::ALL {
        for op in OPS {
            run_watched(point, op);
        }
    }
}

/// The matrix above fires at a point's first occurrence only. A seeded
/// plan that yields at most points and panics at a few reaches later
/// occurrences too, such as the second of a delete's two first embedded
/// queries: an update that unwinds from any of them, on a thread that stays
/// alive, must leave no announcement behind.
#[test]
fn a_panic_at_any_occurrence_leaves_no_announcement() {
    use FaultAction::{Panic, Yield};
    fault::silence_injected_panics();
    let plan = FaultPlan::seeded(0x0CC0)
        .with_rate(1024)
        .with_actions(&[Yield, Yield, Yield, Panic]);
    let mut panics = 0;
    for salt in 0..256 {
        let trie = LockFreeBinaryTrie::new(64);
        for k in [5, 9, 20] {
            trie.insert(k);
        }
        fault::arm(plan.clone(), salt);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            trie.remove(9);
            trie.insert(7);
        }));
        fault::disarm();
        if let Err(payload) = outcome {
            assert!(payload.downcast_ref::<InjectedFault>().is_some());
            panics += 1;
        }
        let lens = trie.announcements();
        assert!(
            lens.is_empty(),
            "salt {salt}: announcements leaked: uall {} ruall {} pall {} sall {}",
            lens.uall,
            lens.ruall,
            lens.pall,
            lens.sall
        );
    }
    assert!(panics > 128, "only {panics} of 256 runs panicked");
}

/// The same for scans, whose last point is the epoch pin of the
/// withdrawal that ends the scan: a panic there, too, must leave no
/// announcement behind once it has unwound through the iterator.
#[test]
fn a_panic_at_any_occurrence_in_a_scan_leaves_no_announcement() {
    use FaultAction::{Panic, Yield};
    fault::silence_injected_panics();
    let plan = FaultPlan::seeded(0x5CA7)
        .with_rate(1024)
        .with_actions(&[Yield, Yield, Yield, Panic]);
    let trie = LockFreeBinaryTrie::new(64);
    for k in [5, 9, 20] {
        trie.insert(k);
    }
    let mut completed = 0;
    for salt in 0..256 {
        fault::arm(plan.clone(), salt);
        let outcome = catch_unwind(AssertUnwindSafe(|| trie.range(0..=63)));
        fault::disarm();
        match outcome {
            Ok(keys) => {
                assert_eq!(keys, [5, 9, 20], "salt {salt}");
                completed += 1;
            }
            Err(payload) => assert!(payload.downcast_ref::<InjectedFault>().is_some()),
        }
        assert_eq!(trie.announcements().sall, 0, "salt {salt}: scan leaked");
    }
    assert!(completed > 0, "no scan of 256 ran to its end");
}

/// An update that cuts another update's `latestNext` link retires the
/// node the link pointed to. Here an insert cuts the link (lines 168–169)
/// of a delete stopped between its activation and its own cut (line 199):
/// the stopped delete never runs again, so no one else would retire the
/// INS node it displaced.
#[test]
fn the_update_that_cuts_a_link_retires_the_displaced_node() {
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(9);
    assert!(
        fault::suspend_at(FaultPoint::DeleteLinearized, || trie.remove(9)),
        "the delete stopped"
    );
    assert!(trie.insert(9));
    trie.collect_garbage();
    // The stopped delete keeps its announcement and its first embedded
    // queries.
    let lens = trie.announcements();
    assert_eq!((lens.uall, lens.ruall, lens.pall, lens.sall), (1, 1, 1, 1));
    // The second INS node of 9, the DEL node that never completes and so
    // is never freed, and the dummies the walk of insert(9) installs as
    // latest-list heads and targets: those of the other keys that lead a
    // subtree holding 9 (8 and 0). The INS node the DEL node displaced is
    // freed, and so is 9's own dummy.
    let leaders: BTreeSet<u64> = (1..=U.trailing_zeros())
        .map(|h| 9 >> h << h)
        .filter(|&k| k != 9)
        .collect();
    assert_eq!(
        trie.live_nodes(),
        2 + leaders.len(),
        "a displaced node was never retired"
    );
}

#[test]
fn suspended_delete_is_neither_adopted_nor_reclaimed() {
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(5);
    trie.insert(9);
    assert!(fault::suspend_at(FaultPoint::DeleteEmbedsDone, || trie.remove(9)));
    assert!(!trie.contains(9), "the suspended delete is linearized");
    // The DEL node in the U-ALL and RU-ALL, and its two embedded
    // predecessor and two embedded successor queries in the P-ALL/S-ALL.
    let footprint = |trie: &LockFreeBinaryTrie| {
        let lens = trie.announcements();
        (lens.uall, lens.ruall, lens.pall, lens.sall)
    };
    assert_eq!(footprint(&trie), (1, 1, 2, 2));
    trie.collect_garbage();
    assert_eq!(
        footprint(&trie),
        (1, 1, 2, 2),
        "garbage collection must not complete or withdraw a stalled delete"
    );
    assert_eq!(trie.predecessor(20), Some(5));
}

#[test]
fn suspend_at_an_unreached_point_leaves_nothing_behind() {
    let trie = LockFreeBinaryTrie::new(U);
    trie.insert(5);
    assert!(
        !fault::suspend_at(FaultPoint::DeleteEmbedsDone, || trie.remove(9)),
        "the delete of an absent key never reaches the point"
    );
    assert!(trie.announcements().is_empty());
    // The thread is disarmed: this delete runs to completion.
    assert!(trie.remove(5));
    assert!(trie.announcements().is_empty());
    assert_eq!(trie.predecessor(20), None);
}

#[test]
fn a_panic_after_a_suspension_still_runs_its_unwind_guard() {
    let trie = LockFreeBinaryTrie::new(U);
    assert!(fault::suspend_at(FaultPoint::InsertLinearized, || trie.insert(5)));
    fault::arm(
        FaultPlan::once(FaultPoint::InsertAnnounced, FaultAction::Panic),
        3,
    );
    let outcome = catch_unwind(AssertUnwindSafe(|| trie.insert(20)));
    fault::disarm();
    let payload = outcome.expect_err("the injected panic escapes the insert");
    assert!(payload.downcast_ref::<InjectedFault>().is_some());
    // The guard completed the panicked insert and withdrew it; only the
    // suspended insert is still announced.
    assert!(trie.contains(20), "the unwind guard completed the insert");
    let lens = trie.announcements();
    assert_eq!((lens.uall, lens.ruall, lens.pall, lens.sall), (1, 1, 0, 0));
}
