//! Dense per-thread slot indices, and the slot-indexed arrays that hold each
//! structure's per-thread state.
//!
//! A thread that pins an epoch domain or allocates from a registry holds
//! one *slot*: the lowest index that was free when it first needed one. It
//! returns the index when it exits. A `SlotVec` keeps one entry per
//! index, so an epoch domain finds the thread's participant, and a registry
//! the thread's pool, with one array index — no map lookup, and nothing
//! that outlives the structure that owns the array.
//!
//! # Tenures
//!
//! Each acquisition of an index is a *tenure*: a per-index counter that is
//! odd while the index is held and moves on when it is released, so a
//! tenure number names one holder for good. A registry pool records the
//! tenure that owns it. The index's next holder inherits the pool, and a
//! sweep may steal the chains of a pool whose tenure has ended (see
//! [`crate::registry`]).
//!
//! # Late guards
//!
//! A thread may exit while it still holds a pin, through a guard kept in
//! another thread-local that is destroyed after the slot. Its index is then
//! never released: when the late guard drops it still unpins its own entry,
//! and no later holder of the index can have pinned that entry meanwhile.

use core::cell::Cell;
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Buckets of a `SlotVec`: bucket `b` holds the `2^b` entries from index
/// `2^b − 1` on, so the buckets cover every `usize` index.
const BUCKETS: usize = usize::BITS as usize;

/// Per-index tenure counters (module docs).
static TENURES: SlotVec<AtomicU64> = SlotVec::new();

/// One past the highest index ever handed out; bounds `SlotVec::iter`.
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// One tenure of a slot index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// The index: the lowest one free when the tenure began.
    pub index: usize,
    /// The tenure's number (odd).
    pub tenure: u64,
}

impl Slot {
    /// Takes the lowest free index, starting a new tenure of it.
    pub(crate) fn acquire() -> Slot {
        let mut index = 0;
        loop {
            let counter = TENURES.get(index);
            let t = counter.load(Ordering::SeqCst);
            if t.is_multiple_of(2)
                && counter
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                HIGH_WATER.fetch_max(index + 1, Ordering::SeqCst);
                return Slot {
                    index,
                    tenure: t + 1,
                };
            }
            index += 1;
        }
    }

    /// Ends the tenure and frees the index for the next acquisition. The
    /// release pairs with the next holder's acquiring CAS, so everything
    /// this holder wrote to its entries happens before that holder (or a
    /// sweep that saw the tenure end) touches them.
    pub(crate) fn release(self) {
        TENURES
            .get(self.index)
            .store(self.tenure + 1, Ordering::SeqCst);
    }
}

/// The current tenure counter of `index`: odd while the index is held.
pub fn tenure(index: usize) -> u64 {
    TENURES.get(index).load(Ordering::SeqCst)
}

/// The calling thread's slot, released when the thread exits unless it
/// still holds a pin (module docs).
struct ThreadSlot(Slot);

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        if PINS_HELD.get() == 0 {
            self.0.release();
        }
    }
}

thread_local! {
    static THREAD: ThreadSlot = ThreadSlot(Slot::acquire());
    /// Outermost pins this thread holds, on any participant. It has no
    /// destructor, so guards dropped during thread-local teardown still
    /// reach it.
    static PINS_HELD: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's slot, acquired on first use. `None` once the slot
/// has been torn down at thread exit.
#[inline]
pub fn current() -> Option<Slot> {
    THREAD.try_with(|s| s.0).ok()
}

/// Counts an outermost pin of the calling thread taken (`true`) or dropped.
#[inline]
pub(crate) fn count_pin(taken: bool) {
    PINS_HELD.set(if taken {
        PINS_HELD.get() + 1
    } else {
        PINS_HELD.get() - 1
    });
}

/// A lock-free, grow-only array with one entry per slot index. A bucket is
/// allocated, its entries defaulted, when one of them is first touched,
/// and freed when the array drops.
pub(crate) struct SlotVec<T> {
    buckets: [AtomicPtr<T>; BUCKETS],
    _owns: PhantomData<T>,
}

impl<T: Default> SlotVec<T> {
    /// An array with no bucket allocated. `const` so it can back a `static`.
    pub(crate) const fn new() -> Self {
        Self {
            buckets: [const { AtomicPtr::new(ptr::null_mut()) }; BUCKETS],
            _owns: PhantomData,
        }
    }

    /// The entry of `index`, allocating its bucket on first touch.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &T {
        let n = index + 1;
        let b = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let mut bucket = self.buckets[b].load(Ordering::Acquire);
        if bucket.is_null() {
            bucket = self.grow(b);
        }
        // SAFETY: bucket `b` holds `2^b` entries, more than `n − 2^b`, and
        // is freed only when `self` drops.
        unsafe { &*bucket.add(n - (1 << b)) }
    }

    #[cold]
    fn grow(&self, b: usize) -> *mut T {
        let entries: Box<[T]> = (0..1usize << b).map(|_| T::default()).collect();
        let fresh = Box::into_raw(entries).cast::<T>();
        let (null, order) = (ptr::null_mut(), Ordering::SeqCst);
        match self.buckets[b].compare_exchange(null, fresh, order, order) {
            Ok(_) => fresh,
            Err(won) => {
                // SAFETY: `fresh` lost the race, so no one else has seen it.
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, 1 << b)) });
                won
            }
        }
    }

    /// Every entry of an allocated bucket, with its index, in index order.
    /// An entry touched concurrently may be missed, as if touched after the
    /// walk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let used = (usize::BITS - HIGH_WATER.load(Ordering::SeqCst).leading_zeros()) as usize;
        self.buckets[..used]
            .iter()
            .enumerate()
            .flat_map(|(b, bucket)| {
                let first = bucket.load(Ordering::SeqCst);
                let len = if first.is_null() { 0 } else { 1 << b };
                // SAFETY: as in `get`.
                (0..len).map(move |i| ((1 << b) - 1 + i, unsafe { &*first.add(i) }))
            })
    }
}

impl<T> Drop for SlotVec<T> {
    fn drop(&mut self) {
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            let first = *bucket.get_mut();
            if !first.is_null() {
                // SAFETY: `grow` allocated this bucket with `2^b` entries.
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(first, 1 << b)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{Domain, Guard};
    use crate::registry::Registry;
    use std::cell::RefCell;
    use std::sync::{mpsc, Arc};

    struct Node;

    /// Acquires slots until one is at `target` or above, and returns it
    /// with the lower ones, still held. Other test threads take and free
    /// indices concurrently, so callers check what they got and retry.
    fn acquire_from(target: usize) -> (Vec<Slot>, Slot) {
        let mut below = Vec::new();
        loop {
            let slot = Slot::acquire();
            if slot.index >= target {
                return (below, slot);
            }
            below.push(slot);
        }
    }

    /// Runs `attempt` until it reports that it got the index it wanted.
    fn retry(mut attempt: impl FnMut() -> bool) {
        assert!(
            (0..100).any(|_| attempt()),
            "never got the wanted index back"
        );
    }

    #[test]
    fn reusing_an_index_starts_a_new_tenure() {
        retry(|| {
            let first = Slot::acquire();
            first.release();
            let (below, again) = acquire_from(first.index);
            below.into_iter().for_each(Slot::release);
            again.release();
            if again.index != first.index {
                return false;
            }
            assert_eq!(again.tenure, first.tenure + 2, "a fresh, odd tenure");
            assert!(tenure(first.index) > again.tenure, "and it ended too");
            true
        });
    }

    #[test]
    fn the_next_tenure_of_an_index_inherits_an_exited_threads_pool() {
        retry(|| {
            let reg = Arc::new(Registry::<Node>::new_in(Arc::default()));
            // The first thread leaves one recycled node on its free list.
            let (a, node) = {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let p = reg.alloc(Node);
                    unsafe { reg.dealloc(p) };
                    (current().unwrap(), p as usize)
                })
                .join()
                .unwrap()
            };
            // Free the index only once every lower one is held, so that the
            // next thread to start takes it.
            let (below, probe) = acquire_from(a.index);
            probe.release();
            let (b, got) = {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || (current().unwrap(), reg.alloc(Node) as usize))
                    .join()
                    .unwrap()
            };
            below.into_iter().for_each(Slot::release);
            unsafe { reg.dealloc(got as *mut Node) };
            if b.index != a.index {
                return false;
            }
            assert!(b.tenure > a.tenure);
            // No sweep ran, so the node never left the pool for the shared
            // stock: the next tenure found it on the pool it claimed.
            assert_eq!(got, node, "the new tenure inherits the pool's free list");
            assert_eq!((reg.allocated(), reg.recycled()), (1, 1));
            true
        });
    }

    #[test]
    fn a_sweep_steals_a_pool_whose_tenure_has_ended() {
        retry(|| {
            let reg = Arc::new(Registry::<Node>::new_in(Arc::default()));
            // The first thread leaves one node in its retire bag.
            let a = {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let p = reg.alloc(Node);
                    unsafe { reg.retire(p, &reg.domain().pin()) };
                    current().unwrap()
                })
                .join()
                .unwrap()
            };
            // A new tenure holds the index again but never touches the
            // registry: the pool still records the ended one.
            let (below, b) = acquire_from(a.index);
            below.into_iter().for_each(Slot::release);
            let got_it = b.index == a.index;
            if got_it {
                assert_eq!(reg.live(), 1, "still bagged");
                reg.flush();
                assert_eq!(reg.live(), 0, "the sweep stole the ended tenure's bag");
            }
            b.release();
            got_it
        });
    }

    #[test]
    fn a_thread_exiting_under_a_pin_keeps_its_index_and_unpins_later() {
        static DOMAIN: Domain = Domain::new();
        thread_local! {
            static KEPT: RefCell<Option<Guard<'static>>> = const { RefCell::new(None) };
        }
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            // Thread-locals are destroyed in reverse order of first use:
            // touching `KEPT` before the slot exists makes its guard drop
            // after the slot's destructor has run.
            KEPT.with(|_| {});
            let guard = DOMAIN.pin();
            tx.send(current().unwrap()).unwrap();
            KEPT.with(|k| *k.borrow_mut() = Some(guard));
        })
        .join()
        .unwrap();
        let slot = rx.recv().unwrap();
        assert_eq!(
            tenure(slot.index),
            slot.tenure,
            "an index whose thread exited under a pin is never handed on"
        );
        assert_eq!(DOMAIN.pinned_participants(), 0, "the late guard unpinned");
        let e = DOMAIN.epoch();
        assert_eq!(DOMAIN.try_advance(), e + 1);
        assert_eq!(DOMAIN.try_advance(), e + 2);
    }
}
