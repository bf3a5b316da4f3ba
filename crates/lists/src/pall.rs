//! The predecessor announcement linked list, P-ALL (paper §5.1).
//!
//! An *unsorted* lock-free linked list of predecessor nodes. A
//! `Predecessor(y)` operation announces itself by inserting its predecessor
//! node at the head (paper line 209); just before completing it removes the
//! node (line 255). `Delete` operations keep the predecessor nodes of their
//! two embedded predecessor operations announced until the `Delete` returns
//! (line 206). Update operations traverse the whole list to notify every
//! announced predecessor (line 148), and a predecessor operation traverses
//! the suffix starting at its own node to snapshot the older announcements
//! into its sequence `Q` (lines 210–214).
//!
//! Head insertion gives exactly the recency order those traversals need:
//! from any cell, `next` leads to strictly older announcements.
//!
//! The successor mirror (the S-ALL) reuses this list unchanged, with one
//! addition for sliding scans: a step that *reuses* an already-announced
//! cell cannot rebuild `Q` from its own (physically old) cell, so
//! [`PallList::head_snapshot`] + [`PallList::iter_from`] reconstruct the
//! suffix a fresh head insertion at the snapshot instant would have seen.
//!
//! # Memory reclamation
//!
//! Like [`crate::announce`], cells live in an epoch-aware [`Registry`] and
//! are retired by the one successful CAS that physically unlinks them, so
//! every mutating entry point takes an epoch [`Guard`]. The predecessor
//! *payloads* are owned by the trie, which retires them right after
//! [`PallList::remove`] returns (by then the announcement is unreachable for
//! newly pinned threads).

use core::fmt;
use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::marked::{AtomicMarkedPtr, MarkedPtr};
use lftrie_primitives::registry::Registry;
use lftrie_telemetry::trace::{self, CasSite};

/// One P-ALL cell announcing a predecessor node `P`.
pub struct PallCell<P> {
    payload: *mut P,
    next: AtomicMarkedPtr<PallCell<P>>,
}

impl<P> PallCell<P> {
    /// The announced predecessor node (null on the head sentinel).
    #[inline]
    pub fn payload(&self) -> *mut P {
        self.payload
    }
}

impl<P> fmt::Debug for PallCell<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PallCell")
            .field("payload", &self.payload)
            .finish()
    }
}

/// The P-ALL: lock-free LIFO announcement list with arbitrary removal.
///
/// # Examples
///
/// ```
/// use lftrie_lists::pall::PallList;
/// use lftrie_primitives::epoch;
///
/// let pall: PallList<u64> = PallList::new();
/// let guard = epoch::pin();
/// let mut a = 1u64;
/// let mut b = 2u64;
/// let ca = pall.insert(&mut a, &guard);
/// let cb = pall.insert(&mut b, &guard);
/// // Newest first:
/// let seen: Vec<*mut u64> = pall.iter(&guard).map(|c| unsafe { (*c).payload() }).collect();
/// assert_eq!(seen, vec![&mut b as *mut u64, &mut a as *mut u64]);
/// unsafe { pall.remove(cb, &guard) };
/// assert_eq!(pall.iter(&guard).count(), 1);
/// # let _ = ca;
/// ```
pub struct PallList<P> {
    head: *mut PallCell<P>, // sentinel
    cells: Registry<PallCell<P>>,
}

// Safety: as for AnnounceList — the list owns its cells, payloads are raw.
unsafe impl<P: Send + Sync> Send for PallList<P> {}
unsafe impl<P: Send + Sync> Sync for PallList<P> {}

impl<P> fmt::Debug for PallList<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PallList")
            .field("len", &self.len())
            .finish()
    }
}

impl<P> Default for PallList<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PallList<P> {
    /// Creates an empty list on the global epoch domain.
    pub fn new() -> Self {
        Self::with_cells(Registry::new())
    }

    /// Creates an empty list whose cells retire into `domain`, the epoch
    /// domain of the structure that owns the list.
    pub fn new_in(domain: Arc<Domain>) -> Self {
        Self::with_cells(Registry::new_in(domain))
    }

    fn with_cells(cells: Registry<PallCell<P>>) -> Self {
        let head = cells.alloc(PallCell {
            payload: core::ptr::null_mut(),
            next: AtomicMarkedPtr::null(),
        });
        Self { head, cells }
    }

    /// Announces `payload` at the head (paper line 209). Returns the cell,
    /// which the caller later passes to [`PallList::remove`].
    pub fn insert(&self, payload: *mut P, _guard: &Guard<'_>) -> *mut PallCell<P> {
        let cell = self.cells.alloc(PallCell {
            payload,
            next: AtomicMarkedPtr::null(),
        });
        loop {
            let first = unsafe { (*self.head).next.load() };
            debug_assert!(!first.is_marked(), "head sentinel is never marked");
            unsafe { (*cell).next.store(MarkedPtr::new(first.ptr(), false)) };
            let ok = unsafe {
                (*self.head)
                    .next
                    .compare_exchange(first, MarkedPtr::new(cell, false))
            };
            trace::cas(CasSite::Announce, ok);
            if ok {
                return cell;
            }
        }
    }

    /// Removes a previously inserted cell: marks it (logical delete), then
    /// unlinks it. The cell is retired by whichever thread performs the
    /// physical unlink.
    ///
    /// # Safety
    ///
    /// `cell` must have been returned by [`PallList::insert`] on this list,
    /// and each inserted cell may be removed at most once.
    pub unsafe fn remove(&self, cell: *mut PallCell<P>, guard: &Guard<'_>) {
        // Logical delete: set the mark on cell.next.
        loop {
            let next = unsafe { (*cell).next.load() };
            if next.is_marked() {
                break; // already removed (should not happen for unique owners)
            }
            let ok = unsafe { (*cell).next.compare_exchange(next, next.with_mark()) };
            trace::cas(CasSite::Announce, ok);
            if ok {
                break;
            }
        }
        // Physical unlink: scan from the head, detaching marked cells.
        self.unlink_marked(guard);
    }

    /// Detaches (and retires) every marked cell reachable from the head.
    fn unlink_marked(&self, guard: &Guard<'_>) {
        'retry: loop {
            let mut pred = self.head;
            let mut cur = unsafe { (*pred).next.load() }.ptr();
            while !cur.is_null() {
                let cur_next = unsafe { (*cur).next.load() };
                if cur_next.is_marked() {
                    let expected = MarkedPtr::new(cur, false);
                    let replacement = MarkedPtr::new(cur_next.ptr(), false);
                    let ok = unsafe { (*pred).next.compare_exchange(expected, replacement) };
                    trace::cas(CasSite::Announce, ok);
                    if !ok {
                        continue 'retry;
                    }
                    // The successful unlink CAS is unique per cell.
                    unsafe { self.cells.retire(cur, guard) };
                    cur = cur_next.ptr();
                } else {
                    pred = cur;
                    cur = cur_next.ptr();
                }
            }
            return;
        }
    }

    /// Iterates over live cells, newest announcement first.
    pub fn iter<'g>(&self, guard: &'g Guard<'_>) -> PallIter<'g, P> {
        PallIter {
            cur: self.head,
            pending: false,
            _guard: guard,
        }
    }

    /// Iterates over the live cells strictly older than `cell` — the
    /// traversal of lines 210–214 (the sequence `Q` before prepending).
    ///
    /// `cell` must have been returned by [`PallList::insert`] on this list
    /// and reached under `guard` (or an outer pin of the same thread).
    pub fn iter_after<'g>(&self, cell: *mut PallCell<P>, guard: &'g Guard<'_>) -> PallIter<'g, P> {
        PallIter {
            cur: cell,
            pending: false,
            _guard: guard,
        }
    }

    /// Snapshot of the list head: the newest cell linked at call time
    /// (null when the list is empty). A sliding scan step records this at
    /// its start so it can later rebuild the exact "announced before me"
    /// sequence `Q` via [`PallList::iter_from`] — the moral equivalent of
    /// the cell position a fresh [`PallList::insert`] would have occupied.
    pub fn head_snapshot(&self, _guard: &Guard<'_>) -> *mut PallCell<P> {
        unsafe { (*self.head).next.load() }.ptr()
    }

    /// Iterates over the live cells starting at `cell` *inclusive*, then
    /// strictly older ones. `cell` must have been obtained from
    /// [`PallList::head_snapshot`] or [`PallList::insert`] on this list
    /// under `guard` (or an outer pin of the same thread); a null `cell`
    /// yields nothing.
    pub fn iter_from<'g>(&self, cell: *mut PallCell<P>, guard: &'g Guard<'_>) -> PallIter<'g, P> {
        PallIter {
            cur: cell,
            pending: !cell.is_null(),
            _guard: guard,
        }
    }

    /// Number of live cells; O(n), for tests and diagnostics (pins
    /// internally).
    pub fn len(&self) -> usize {
        let guard = self.cells.domain().pin();
        self.iter(&guard).count()
    }

    /// True if no predecessor operation is announced (pins internally).
    pub fn is_empty(&self) -> bool {
        let guard = self.cells.domain().pin();
        self.iter(&guard).next().is_none()
    }

    /// Visits every physically linked cell (marked or not), newest first —
    /// the owning structure's teardown uses this to free payloads of cells
    /// that were never removed (suspended operations, forgotten scans).
    /// Requires exclusive access.
    pub fn for_each_linked(&mut self, mut f: impl FnMut(*mut P, bool)) {
        let mut cur = unsafe { (*self.head).next.load() }.ptr();
        while !cur.is_null() {
            let link = unsafe { (*cur).next.load() };
            f(unsafe { (*cur).payload }, link.is_marked());
            cur = link.ptr();
        }
    }

    /// Runs quiescent reclamation sweeps on the cell registry.
    pub fn flush_reclamation(&self) {
        self.cells.flush();
    }

    /// `(cumulative, live)` cell allocation counts (space accounting).
    pub fn cell_counts(&self) -> (usize, usize) {
        (self.cells.created(), self.cells.live())
    }

    /// Full allocation statistics of the cell registry (fresh vs recycled
    /// vs resident).
    pub fn cell_stats(&self) -> lftrie_primitives::registry::AllocStats {
        self.cells.stats()
    }

    /// Point-in-time reclamation health of the cell registry, tagged
    /// `label`, for the unified telemetry snapshot.
    pub fn cell_health(&self, label: &'static str) -> lftrie_telemetry::ReclaimHealth {
        self.cells.health(label)
    }
}

impl<P> Drop for PallList<P> {
    fn drop(&mut self) {
        // Free the sentinel and any still-linked cells; unlinked cells were
        // retired and are freed by the registry's own Drop.
        let mut cur = self.head;
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load() }.ptr();
            unsafe { self.cells.dealloc(cur) };
            cur = next;
        }
    }
}

/// Iterator over live P-ALL cells; see [`PallList::iter`].
pub struct PallIter<'a, P> {
    cur: *mut PallCell<P>,
    /// Yield `cur` itself (if live) before advancing — set by
    /// [`PallList::iter_from`].
    pending: bool,
    _guard: &'a Guard<'a>,
}

impl<'a, P> Iterator for PallIter<'a, P> {
    type Item = *mut PallCell<P>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_null() {
            return None;
        }
        if self.pending {
            self.pending = false;
            if !unsafe { (*self.cur).next.load() }.is_marked() {
                return Some(self.cur);
            }
        }
        loop {
            let next = unsafe { (*self.cur).next.load() }.ptr();
            if next.is_null() {
                return None;
            }
            self.cur = next;
            if !unsafe { (*next).next.load() }.is_marked() {
                return Some(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifo_order() {
        let pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let guard = pall.cells.domain().pin();
        let mut xs: Vec<u64> = (0..5).collect();
        for x in xs.iter_mut() {
            pall.insert(x, &guard);
        }
        let seen: Vec<u64> = pall
            .iter(&guard)
            .map(|c| unsafe { *(*c).payload() })
            .collect();
        assert_eq!(seen, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn iter_after_sees_only_older() {
        let pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let guard = pall.cells.domain().pin();
        let mut a = 1u64;
        let mut b = 2u64;
        let mut c = 3u64;
        pall.insert(&mut a, &guard);
        let cb = pall.insert(&mut b, &guard);
        pall.insert(&mut c, &guard);
        let older: Vec<u64> = pall
            .iter_after(cb, &guard)
            .map(|cell| unsafe { *(*cell).payload() })
            .collect();
        assert_eq!(older, vec![1], "only announcements older than b");
    }

    #[test]
    fn head_snapshot_and_iter_from_are_inclusive() {
        let pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let guard = pall.cells.domain().pin();
        assert!(pall.head_snapshot(&guard).is_null());
        assert_eq!(pall.iter_from(core::ptr::null_mut(), &guard).count(), 0);
        let mut a = 1u64;
        let mut b = 2u64;
        let mut c = 3u64;
        pall.insert(&mut a, &guard);
        let cb = pall.insert(&mut b, &guard);
        let snap = pall.head_snapshot(&guard);
        assert_eq!(snap, cb, "snapshot is the newest cell at call time");
        // A later announcement is invisible to the snapshot walk.
        pall.insert(&mut c, &guard);
        let seen: Vec<u64> = pall
            .iter_from(snap, &guard)
            .map(|cell| unsafe { *(*cell).payload() })
            .collect();
        assert_eq!(seen, vec![2, 1], "inclusive of the snapshot cell");
        // Removing the snapshot cell: the walk skips it but still reaches
        // older cells through its marked next pointer.
        unsafe { pall.remove(cb, &guard) };
        let seen: Vec<u64> = pall
            .iter_from(snap, &guard)
            .map(|cell| unsafe { *(*cell).payload() })
            .collect();
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn remove_unlinks_and_reclaims() {
        let pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let mut a = 1u64;
        let mut b = 2u64;
        let guard = pall.cells.domain().pin();
        let ca = pall.insert(&mut a, &guard);
        let cb = pall.insert(&mut b, &guard);
        unsafe { pall.remove(ca, &guard) };
        let seen: Vec<u64> = pall
            .iter(&guard)
            .map(|c| unsafe { *(*c).payload() })
            .collect();
        assert_eq!(seen, vec![2]);
        unsafe { pall.remove(cb, &guard) };
        assert!(pall.is_empty());
        drop(guard);
        pall.flush_reclamation();
        let (allocated, live) = pall.cell_counts();
        assert_eq!(allocated, 3); // sentinel + two cells
        assert_eq!(live, 1, "only the sentinel survives");
    }

    #[test]
    fn removed_cell_iteration_still_reaches_older_cells() {
        // A Predecessor operation may hold a cell pointer while that cell is
        // concurrently removed; iter_after must still reach older live cells
        // through the marked cell's next pointer.
        let pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let guard = pall.cells.domain().pin();
        let mut a = 1u64;
        let mut b = 2u64;
        let ca = pall.insert(&mut a, &guard);
        let cb = pall.insert(&mut b, &guard);
        unsafe { pall.remove(cb, &guard) };
        let older: Vec<u64> = pall
            .iter_after(cb, &guard)
            .map(|cell| unsafe { *(*cell).payload() })
            .collect();
        assert_eq!(older, vec![1]);
        let _ = ca;
    }

    #[test]
    fn concurrent_announce_remove_converges_empty() {
        let pall: Arc<PallList<u64>> = Arc::new(PallList::new_in(Arc::new(Domain::new())));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pall = Arc::clone(&pall);
            handles.push(std::thread::spawn(move || {
                let mut slot = 7u64;
                for _ in 0..500 {
                    let guard = pall.cells.domain().pin();
                    let c = pall.insert(&mut slot, &guard);
                    let _ = pall.iter(&guard).count();
                    unsafe { pall.remove(c, &guard) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(pall.is_empty());
        pall.flush_reclamation();
        let (allocated, live) = pall.cell_counts();
        assert_eq!(allocated, 2001);
        assert!(
            live <= 257,
            "removed announcements must be reclaimed, {live} live"
        );
    }

    #[test]
    fn for_each_linked_reports_marks() {
        let mut pall: PallList<u64> = PallList::new_in(Arc::new(Domain::new()));
        let guard = pall.cells.domain().pin();
        let mut a = 1u64;
        let mut b = 2u64;
        pall.insert(&mut a, &guard);
        let cb = pall.insert(&mut b, &guard);
        // Mark b without physically unlinking (logical delete only).
        loop {
            let next = unsafe { (*cb).next.load() };
            if unsafe { (*cb).next.compare_exchange(next, next.with_mark()) } {
                break;
            }
        }
        drop(guard);
        let mut seen = Vec::new();
        pall.for_each_linked(|p, marked| seen.push((unsafe { *p }, marked)));
        assert_eq!(seen, vec![(2, true), (1, false)]);
    }
}
