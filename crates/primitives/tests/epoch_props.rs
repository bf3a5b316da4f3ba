//! Property tests for the epoch-reclamation subsystem: arbitrary
//! pin/unpin/retire/sweep/advance schedules over a private domain, checked
//! against the safety invariant that makes [`lftrie_primitives::epoch`]'s
//! guards meaningful:
//!
//! > no node is freed while any participant is still pinned at an epoch
//! > less than or equal to the node's retire epoch
//!
//! (the implementation is stricter — a free needs three advances past the
//! retire epoch — but this is the property unsafe readers rely on), plus
//! progress (a quiescent flush reclaims everything), garbage retired
//! across many epochs draining in stamp order as the epoch advances, and
//! slot ownership across nested guards and unwinding.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard, Handle};
use lftrie_primitives::registry::Registry;
use proptest::prelude::*;

const PARTICIPANTS: usize = 3;

/// A payload that records when it is dropped (freed).
struct Tracked {
    freed: Arc<AtomicBool>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.freed.store(true, Ordering::SeqCst);
    }
}

/// One step of a schedule: `(op, participant index)`.
fn schedules() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..5, 0usize..PARTICIPANTS), 1..150)
}

struct Sim {
    domain: &'static Domain,
    handles: Vec<Handle<'static>>,
    /// Outstanding outermost guard per participant, with its pin epoch.
    guards: Vec<Option<(Guard<'static>, u64)>>,
    /// `Arc` so schedules can retire from scratch threads (pool stealing).
    reg: Arc<Registry<Tracked>>,
    /// `(retire_epoch, freed_flag)` for every retired item.
    items: Vec<(u64, Arc<AtomicBool>)>,
}

impl Sim {
    fn new() -> Self {
        // Leaked, so the handles and guards can be `'static`.
        let shared: &'static Arc<Domain> = Box::leak(Box::new(Arc::new(Domain::new())));
        let domain: &'static Domain = shared;
        let handles: Vec<Handle<'static>> = (0..PARTICIPANTS).map(|_| domain.register()).collect();
        Sim {
            domain,
            guards: (0..PARTICIPANTS).map(|_| None).collect(),
            reg: Arc::new(Registry::new_in(Arc::clone(shared))),
            items: Vec::new(),
            handles,
        }
    }

    fn retire_one(&mut self, idx: usize) -> Arc<AtomicBool> {
        let freed = Arc::new(AtomicBool::new(false));
        let p = self.reg.alloc(Tracked {
            freed: Arc::clone(&freed),
        });
        let g = self.handles[idx].pin();
        let retire_epoch = self.domain.epoch();
        unsafe { self.reg.retire(p, &g) };
        self.items.push((retire_epoch, Arc::clone(&freed)));
        freed
    }

    /// The safety invariant, checked after every step (the stub's
    /// `prop_assert!` panics with the replay seed attached).
    fn check_invariant(&self) {
        for (retire_epoch, freed) in &self.items {
            if freed.load(Ordering::SeqCst) {
                for slot in self.guards.iter().flatten() {
                    let (_, pin_epoch) = slot;
                    assert!(
                        pin_epoch > retire_epoch,
                        "item retired at epoch {retire_epoch} was freed while a \
                         participant is still pinned at epoch {pin_epoch}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_item_freed_under_a_pre_retirement_pin(ops in schedules()) {
        let mut sim = Sim::new();
        for (op, idx) in ops {
            match op {
                // Pin (outermost only; nesting is covered below).
                0 => {
                    if sim.guards[idx].is_none() {
                        let g = sim.handles[idx].pin();
                        let e = g.epoch();
                        sim.guards[idx] = Some((g, e));
                    }
                }
                // Unpin.
                1 => {
                    sim.guards[idx] = None;
                }
                // Retire a fresh item through a transient guard.
                2 => {
                    sim.retire_one(idx);
                }
                // Sweep.
                3 => sim.reg.collect(),
                // Bare epoch advance.
                _ => {
                    sim.domain.try_advance();
                }
            }
            sim.check_invariant();
            // The global epoch is monotone and every pinned participant is
            // within one epoch of it.
            for slot in sim.guards.iter().flatten() {
                let (_, pin_epoch) = slot;
                prop_assert!(*pin_epoch <= sim.domain.epoch());
            }
        }
        // Liveness: once every guard drops, a flush reclaims everything.
        sim.guards.clear();
        sim.reg.flush();
        for (i, (_, freed)) in sim.items.iter().enumerate() {
            prop_assert!(freed.load(Ordering::SeqCst), "item {i} never reclaimed");
        }
        prop_assert_eq!(sim.reg.live(), 0);
    }

    #[test]
    fn limbo_bags_rotate_with_the_epoch(batch_sizes in proptest::collection::vec(1usize..8, 1..12)) {
        // Retire a batch per epoch; verify garbage from old epochs drains
        // as the epoch advances while the *current* window's items may
        // persist until three further advances.
        let mut sim = Sim::new();
        let mut total = 0usize;
        for batch in batch_sizes {
            for _ in 0..batch {
                sim.retire_one(0);
                total += 1;
            }
            sim.domain.try_advance();
        }
        sim.reg.flush();
        prop_assert_eq!(sim.reg.reclaimed(), total, "quiescent flush drains every bag");
        // `created` is the cumulative logical series; `allocated` (fresh
        // heap boxes) may be smaller — recycling can kick in mid-schedule.
        prop_assert_eq!(sim.reg.created(), total);
        prop_assert!(sim.reg.allocated() <= total);
    }

    #[test]
    fn pooled_schedules_preserve_safety_and_accounting(ops in proptest::collection::vec((0u8..7, 0usize..PARTICIPANTS), 1..120)) {
        // The pooled registry under arbitrary alloc / dealloc / retire /
        // sweep / pin schedules — including retires from threads that exit
        // immediately (their bags land in a *released pool* that later
        // sweeps must steal). Checks the safety invariant after every step
        // plus the counter algebra the pools introduce.
        let mut sim = Sim::new();
        let mut total_created = 0usize;
        for (op, idx) in ops {
            match op {
                0 => {
                    if sim.guards[idx].is_none() {
                        let g = sim.handles[idx].pin();
                        let e = g.epoch();
                        sim.guards[idx] = Some((g, e));
                    }
                }
                1 => {
                    sim.guards[idx] = None;
                }
                2 => {
                    sim.retire_one(idx);
                    total_created += 1;
                }
                // Speculative-node path: alloc, never publish, dealloc —
                // recycles immediately, no grace period.
                3 => {
                    let freed = Arc::new(AtomicBool::new(false));
                    let p = sim.reg.alloc(Tracked {
                        freed: Arc::clone(&freed),
                    });
                    unsafe { sim.reg.dealloc(p) };
                    total_created += 1;
                    prop_assert!(freed.load(Ordering::SeqCst), "dealloc drops the value now");
                }
                4 => sim.reg.collect(),
                5 => {
                    sim.domain.try_advance();
                }
                // Retire from a thread that exits right away: its pool is
                // released with the node still bagged; only sweep-side
                // stealing can ever age it out.
                _ => {
                    let reg = Arc::clone(&sim.reg);
                    let domain = sim.domain;
                    let freed = Arc::new(AtomicBool::new(false));
                    let thread_freed = Arc::clone(&freed);
                    let retire_epoch = std::thread::spawn(move || {
                        let handle = domain.register();
                        let g = handle.pin();
                        let e = domain.epoch();
                        let p = reg.alloc(Tracked {
                            freed: thread_freed,
                        });
                        unsafe { reg.retire(p, &g) };
                        e
                    })
                    .join()
                    .unwrap();
                    sim.items.push((retire_epoch, freed));
                    total_created += 1;
                }
            }
            sim.check_invariant();
            // Counter algebra: the logical series splits into fresh heap
            // boxes and pool hits; destruction never outruns creation; the
            // heap-resident count never exceeds what was heap-allocated.
            let s = sim.reg.stats();
            prop_assert_eq!(s.created, s.fresh + s.recycled);
            prop_assert_eq!(s.created, total_created);
            prop_assert!(s.reclaimed <= s.created);
            prop_assert!(s.resident <= s.fresh);
            prop_assert_eq!(s.live, s.created - s.reclaimed);
        }
        // Liveness: once every guard drops, a flush reclaims everything —
        // including bags stranded in released pools.
        sim.guards.clear();
        sim.reg.flush();
        for (i, (_, freed)) in sim.items.iter().enumerate() {
            prop_assert!(freed.load(Ordering::SeqCst), "item {i} never reclaimed");
        }
        prop_assert_eq!(sim.reg.live(), 0);
    }

    #[test]
    fn nested_pins_share_the_epoch_and_release_last(depth in 2usize..6) {
        let sim = Sim::new();
        let mut guards = Vec::new();
        for _ in 0..depth {
            guards.push(sim.handles[0].pin());
        }
        let e = guards[0].epoch();
        for g in &guards {
            prop_assert_eq!(g.epoch(), e, "nested guards announce one epoch");
        }
        // While pinned at e, the domain can advance at most once past it.
        sim.domain.try_advance();
        sim.domain.try_advance();
        prop_assert!(sim.domain.epoch() <= e + 1);
        while guards.len() > 1 {
            guards.pop();
            prop_assert_eq!(sim.domain.pinned_participants(), 1, "still pinned");
        }
        guards.clear();
        prop_assert_eq!(sim.domain.pinned_participants(), 0);
    }
}

/// Unwind-drop regression: a panic through a pinned reader unwinds
/// through `Guard::drop`, which must unpin and hand the slot back with a
/// clean owner word. A count left behind would either keep the dead
/// reader's pin (parking its garbage forever) or stop the slot from ever
/// being recycled; a recycled slot must still block advances for its new
/// owner.
#[test]
fn panic_through_pinned_reader_unpins_and_recycles_its_slot() {
    use lftrie_primitives::epoch::STALL_BLOCKED_THRESHOLD;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let sim = Sim::new();
    let reg = Arc::clone(&sim.reg);
    let freed = Arc::new(AtomicBool::new(false));
    let item = reg.alloc(Tracked {
        freed: Arc::clone(&freed),
    });

    struct Quiet;
    let payload = catch_unwind(AssertUnwindSafe(|| {
        let g = sim.handles[0].pin();
        let _nested = sim.handles[0].pin();
        unsafe { reg.retire(item, &g) };
        std::panic::panic_any(Quiet); // unwinds through both guards
    }))
    .expect_err("the closure panics");
    assert!(payload.downcast_ref::<Quiet>().is_some());
    assert_eq!(sim.domain.pinned_participants(), 0, "guard drop unpinned");

    // Its protected garbage ages out normally.
    reg.flush();
    assert!(
        freed.load(Ordering::SeqCst),
        "item protected by the dead reader must reclaim after unwind"
    );

    // Release the unwound reader's slot and register again: the slot must
    // be recycled (the participant list does not grow), and its new owner,
    // stalled well past the detector threshold, must keep the epoch within
    // one advance of its pin.
    let mut handles = sim.handles;
    drop(handles.remove(0));
    let h = sim.domain.register();
    assert_eq!(
        sim.domain.health().participants,
        PARTICIPANTS,
        "the released slot was recycled"
    );
    let g = h.pin();
    let pinned_at = g.epoch();
    for _ in 0..(2 * STALL_BLOCKED_THRESHOLD + 2) {
        sim.domain.try_advance();
    }
    assert!(
        sim.domain.epoch() <= pinned_at + 1,
        "recycled slot lost its pin: epoch ran from {} to {} past a pinned reader",
        pinned_at,
        sim.domain.epoch()
    );
    assert_eq!(sim.domain.health().stalled_readers, 1);
    drop(g);
}
