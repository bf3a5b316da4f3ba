//! The sorted announcement lists: U-ALL and RU-ALL (paper §5.1).
//!
//! The *update announcement linked list* (U-ALL) is a lock-free linked list
//! of update nodes sorted by key ascending; the *reverse update announcement
//! linked list* (RU-ALL) mirrors its contents sorted by key descending. In
//! both, a node with key `k` is inserted **after** every node with the same
//! key, and both carry sentinels with keys `+∞` / `−∞` (the RU-ALL sentinels'
//! keys are what `notifyThreshold` reads before/after a predecessor's
//! traversal).
//!
//! The paper uses Fomitchev–Ruppert lists for their amortized bounds; we use
//! Harris–Michael lists (CAS insert, logical delete by marking a cell's
//! `next`, physical unlink during mutating searches). One
//! structural difference matters: `HelpActivate` (paper line 130) lets a
//! helper re-insert an update node that its owner already removed, so the
//! same payload may transiently have several *cells* in a list. We therefore
//! separate list cells from payloads and make [`AnnounceList::remove_all`]
//! unlink every cell carrying the payload (each helper inserts at most one,
//! so this is bounded by the helping degree).
//!
//! # Memory reclamation
//!
//! Cells are allocated through an epoch-aware [`Registry`] and **retired at
//! the moment they are physically unlinked** (each cell is unlinked by
//! exactly one successful CAS, so retirement is unique). Unlink sites run in
//! `find`, `remove_all`, iteration, and [`AnnounceList::advance_publishing`];
//! all of them therefore require the caller to hold an epoch [`Guard`].
//! Cells still linked when the list drops (the two sentinels, plus any
//! left-over announcements of suspended operations) are freed by walking
//! the physical chain in `Drop`.

use core::fmt;
use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::fault;
use lftrie_primitives::marked::{AtomicMarkedPtr, MarkedPtr};
use lftrie_primitives::registry::Registry;
use lftrie_primitives::swcursor::PublishedKey;
use lftrie_primitives::{NEG_INF, POS_INF};
use lftrie_telemetry::trace::{self, CasSite};

/// Sort direction of an announcement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// U-ALL order: keys ascending, head sentinel `−∞`, tail sentinel `+∞`.
    Ascending,
    /// RU-ALL order: keys descending, head sentinel `+∞`, tail sentinel `−∞`.
    Descending,
}

impl Direction {
    /// True if a cell with key `a` must appear strictly after every cell with
    /// key `b` — i.e. `a` is past the insertion region for key `b`.
    #[inline]
    fn strictly_after(self, a: i64, b: i64) -> bool {
        match self {
            Direction::Ascending => a > b,
            Direction::Descending => a < b,
        }
    }
}

/// One list cell: an immutable key, an immutable payload pointer, and the
/// markable `next` link.
pub struct Cell<P> {
    key: i64,
    payload: *mut P,
    next: AtomicMarkedPtr<Cell<P>>,
}

impl<P> Cell<P> {
    /// The cell's key (a universe key, or a sentinel `±∞`).
    #[inline]
    pub fn key(&self) -> i64 {
        self.key
    }

    /// The announced payload (null on sentinels).
    #[inline]
    pub fn payload(&self) -> *mut P {
        self.payload
    }
}

impl<P> fmt::Debug for Cell<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("key", &self.key)
            .field("payload", &self.payload)
            .finish()
    }
}

/// A lock-free sorted announcement list (U-ALL / RU-ALL).
///
/// Duplicate keys are allowed and FIFO-ordered: a new cell is linked after
/// every existing cell with an equal key, as §5.1 requires for both lists.
///
/// # Examples
///
/// ```
/// use lftrie_lists::announce::{AnnounceList, Direction};
/// use lftrie_primitives::epoch;
///
/// let uall: AnnounceList<u64> = AnnounceList::new(Direction::Ascending);
/// let guard = epoch::pin();
/// let mut a = 7u64;
/// let mut b = 3u64;
/// uall.insert(7, &mut a, &guard);
/// uall.insert(3, &mut b, &guard);
/// let keys: Vec<i64> = uall.iter(&guard).map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![3, 7]);
/// ```
pub struct AnnounceList<P> {
    head: *mut Cell<P>,
    direction: Direction,
    cells: Registry<Cell<P>>,
}

// Safety: the list owns its cells via the registry; payloads are raw pointers
// whose dereference sites carry their own obligations.
unsafe impl<P: Send + Sync> Send for AnnounceList<P> {}
unsafe impl<P: Send + Sync> Sync for AnnounceList<P> {}

impl<P> fmt::Debug for AnnounceList<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnnounceList")
            .field("direction", &self.direction)
            .field("len", &self.len())
            .finish()
    }
}

impl<P> AnnounceList<P> {
    /// Creates an empty list with its two sentinels, on the global epoch
    /// domain.
    pub fn new(direction: Direction) -> Self {
        Self::with_cells(direction, Registry::new())
    }

    /// Creates an empty list whose cells retire into `domain`, the epoch
    /// domain of the structure that owns the list.
    pub fn new_in(direction: Direction, domain: Arc<Domain>) -> Self {
        Self::with_cells(direction, Registry::new_in(domain))
    }

    fn with_cells(direction: Direction, cells: Registry<Cell<P>>) -> Self {
        let (head_key, tail_key) = match direction {
            Direction::Ascending => (NEG_INF, POS_INF),
            Direction::Descending => (POS_INF, NEG_INF),
        };
        let tail = cells.alloc(Cell {
            key: tail_key,
            payload: core::ptr::null_mut(),
            next: AtomicMarkedPtr::null(),
        });
        let head = cells.alloc(Cell {
            key: head_key,
            payload: core::ptr::null_mut(),
            next: AtomicMarkedPtr::new(MarkedPtr::new(tail, false)),
        });
        Self {
            head,
            direction,
            cells,
        }
    }

    /// The head sentinel (`−∞` ascending, `+∞` descending). RU-ALL traversals
    /// start here so that `RuallPosition` initially publishes `+∞` (paper
    /// line 108).
    #[inline]
    pub fn head(&self) -> *mut Cell<P> {
        self.head
    }

    /// The list's sort direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Unlinks `cur` from `pred` (both loaded unmarked, `cur` marked since),
    /// retiring the cell on success. Returns `false` if the window moved.
    #[inline]
    fn unlink(
        &self,
        pred: *mut Cell<P>,
        cur: *mut Cell<P>,
        cur_next: *mut Cell<P>,
        guard: &Guard<'_>,
    ) -> bool {
        let expected = MarkedPtr::new(cur, false);
        let replacement = MarkedPtr::new(cur_next, false);
        let ok = unsafe { (*pred).next.compare_exchange(expected, replacement) };
        trace::cas(CasSite::Announce, ok);
        if ok {
            // Exactly one CAS detaches each cell (cells are never re-linked),
            // so this retire runs once per cell.
            unsafe { self.cells.retire(cur, guard) };
            true
        } else {
            false
        }
    }

    /// Finds the insertion window for `key`: returns `(pred, succ)` where
    /// `pred` is the last unmarked cell not strictly after `key` and `succ`
    /// its unmarked successor. Physically unlinks (and retires) marked cells
    /// on the way (Michael-style helping).
    fn find(&self, key: i64, guard: &Guard<'_>) -> (*mut Cell<P>, *mut Cell<P>) {
        'retry: loop {
            let mut pred = self.head;
            // Safety: linked cells stay allocated while we hold the guard.
            let mut cur = unsafe { (*pred).next.load() }.ptr();
            loop {
                debug_assert!(!cur.is_null(), "tail sentinel is never passed");
                let cur_next = unsafe { (*cur).next.load() };
                if cur_next.is_marked() {
                    // cur is logically deleted: unlink it from pred.
                    if !self.unlink(pred, cur, cur_next.ptr(), guard) {
                        continue 'retry;
                    }
                    cur = cur_next.ptr();
                } else if self.direction.strictly_after(unsafe { (*cur).key }, key) {
                    return (pred, cur);
                } else {
                    pred = cur;
                    cur = cur_next.ptr();
                }
            }
        }
    }

    /// Inserts a new cell announcing `payload` under `key`, after all equal
    /// keys. Returns the cell.
    pub fn insert(&self, key: i64, payload: *mut P, guard: &Guard<'_>) -> *mut Cell<P> {
        // Before the cell allocation: a crash here leaves no footprint.
        fault::point(fault::FaultPoint::AnnounceInsert);
        let cell = self.cells.alloc(Cell {
            key,
            payload,
            next: AtomicMarkedPtr::null(),
        });
        loop {
            let (pred, succ) = self.find(key, guard);
            unsafe { (*cell).next.store(MarkedPtr::new(succ, false)) };
            let expected = MarkedPtr::new(succ, false);
            let new = MarkedPtr::new(cell, false);
            let ok = unsafe { (*pred).next.compare_exchange(expected, new) };
            trace::cas(CasSite::Announce, ok);
            if ok {
                return cell;
            }
        }
    }

    /// Logically deletes (and physically unlinks) **every** cell with key
    /// `key` announcing `payload`. Returns the number of cells removed.
    ///
    /// Removal must be exhaustive because helpers may have announced the same
    /// payload again after the owner's removal (paper lines 130/136).
    pub fn remove_all(&self, key: i64, payload: *mut P, guard: &Guard<'_>) -> usize {
        // Before any unlink: removal is exhaustive and idempotent, so a
        // panic here leaves the announcement for the unwind guard's resume
        // to withdraw.
        fault::point(fault::FaultPoint::AnnounceRemove);
        let mut removed = 0;
        'retry: loop {
            let mut pred = self.head;
            let mut cur = unsafe { (*pred).next.load() }.ptr();
            loop {
                let cur_next = unsafe { (*cur).next.load() };
                if cur_next.is_marked() {
                    if !self.unlink(pred, cur, cur_next.ptr(), guard) {
                        continue 'retry;
                    }
                    cur = cur_next.ptr();
                    continue;
                }
                let cur_key = unsafe { (*cur).key };
                if self.direction.strictly_after(cur_key, key) {
                    return removed;
                }
                if cur_key == key && unsafe { (*cur).payload } == payload {
                    // Mark, then loop without advancing so the unlink branch
                    // above detaches it.
                    let expected = MarkedPtr::new(cur_next.ptr(), false);
                    let marked = MarkedPtr::new(cur_next.ptr(), true);
                    let ok = unsafe { (*cur).next.compare_exchange(expected, marked) };
                    trace::cas(CasSite::Announce, ok);
                    if ok {
                        removed += 1;
                    }
                    continue 'retry;
                }
                pred = cur;
                cur = cur_next.ptr();
            }
        }
    }

    /// Read-only iterator over unmarked cells in list order (sentinels
    /// excluded), yielding `(key, payload)`.
    ///
    /// The iterator follows live `next` pointers; cells concurrently removed
    /// may or may not be yielded, exactly like the paper's traversals (the
    /// caller re-validates with `FirstActivated`). Dead cells encountered on
    /// the way are unlinked and retired, which is why the guard is required.
    pub fn iter<'g>(&'g self, guard: &'g Guard<'_>) -> Iter<'g, P> {
        Iter {
            cur: self.head,
            list: self,
            guard,
        }
    }

    /// Advances an RU-ALL traversal one hop, publishing the key of the
    /// destination cell in `position` with the validate-retry protocol
    /// standing in for the paper's atomic copy (line 262; see
    /// [`lftrie_primitives::swcursor`]).
    ///
    /// Logically-deleted cells in front of the cursor are physically
    /// unlinked (and retired) before the hop (when `cur` itself is live):
    /// without this, workloads whose keys trend monotonically never route an
    /// insertion or removal scan past the dead region, the physical chain
    /// grows without bound, and every traversal pays O(dead) — the paper's
    /// lists stay O(contention) precisely because traversals help clean up.
    ///
    /// Returns the destination cell (possibly the tail sentinel, whose key is
    /// `−∞`).
    ///
    /// # Safety
    ///
    /// `cur` must be a cell of this list that was reached under `guard` (or
    /// an outer guard of the same pin) and must not be the tail sentinel.
    pub unsafe fn advance_publishing(
        &self,
        cur: *mut Cell<P>,
        position: &PublishedKey,
        guard: &Guard<'_>,
    ) -> *mut Cell<P> {
        loop {
            let cur_link = unsafe { (*cur).next.load() };
            let next = cur_link.ptr();
            debug_assert!(!next.is_null(), "advance_publishing called on the tail");
            let next_link = unsafe { (*next).next.load() };
            if next_link.is_marked() && !cur_link.is_marked() {
                // `next` is logically deleted and `cur` is live: unlink it
                // and retry (on CAS failure the window changed; re-read).
                let _ = self.unlink(cur, next, next_link.ptr(), guard);
                continue;
            }
            // Validated copy: publish, then confirm the source is unchanged.
            position.publish(unsafe { (*next).key });
            let check = unsafe { (*cur).next.load() };
            let ok = check.ptr() == next;
            // Not a CAS, but the validate-retry plays the same role: a
            // failed validation is a contention-forced retry of the hop.
            trace::cas(CasSite::Cursor, ok);
            if ok {
                return next;
            }
        }
    }

    /// Number of live (unmarked, non-sentinel) cells; O(n), for tests and
    /// diagnostics (pins internally).
    pub fn len(&self) -> usize {
        let guard = self.cells.domain().pin();
        self.iter(&guard).count()
    }

    /// Number of physically linked non-sentinel cells, marked included —
    /// the quantity the traversal-side unlinking keeps bounded (tests and
    /// diagnostics; O(n); pins internally).
    pub fn physical_len(&self) -> usize {
        let _guard = self.cells.domain().pin();
        let mut n = 0usize;
        let mut cur = self.head;
        loop {
            let next = unsafe { (*cur).next.load() }.ptr();
            if next.is_null() {
                return n.saturating_sub(1); // last counted hop was the tail
            }
            n += 1;
            cur = next;
        }
    }

    /// True if no live cells are present (pins internally).
    pub fn is_empty(&self) -> bool {
        let guard = self.cells.domain().pin();
        self.iter(&guard).next().is_none()
    }

    /// Runs quiescent reclamation sweeps on the cell registry (tests and
    /// teardown paths).
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

impl<P> Drop for AnnounceList<P> {
    fn drop(&mut self) {
        // Free every still-linked cell (sentinels included). Unlinked cells
        // were retired at their unlink and are freed by the registry.
        let mut cur = self.head;
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load() }.ptr();
            unsafe { self.cells.dealloc(cur) };
            cur = next;
        }
    }
}

/// Iterator over `(key, payload)` pairs; see [`AnnounceList::iter`].
pub struct Iter<'a, P> {
    cur: *mut Cell<P>,
    list: &'a AnnounceList<P>,
    guard: &'a Guard<'a>,
}

impl<'a, P> Iterator for Iter<'a, P> {
    type Item = (i64, *mut P);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let cur_link = unsafe { (*self.cur).next.load() };
            let cell = cur_link.ptr();
            if cell.is_null() {
                return None; // walked off the tail sentinel
            }
            let cell_next = unsafe { (*cell).next.load() };
            if cell_next.ptr().is_null() {
                return None; // tail sentinel
            }
            if cell_next.is_marked() {
                // Dead cell: help unlink it (only from a live predecessor)
                // so monotone workloads cannot grow the physical chain.
                if !cur_link.is_marked() {
                    let _ = self
                        .list
                        .unlink(self.cur, cell, cell_next.ptr(), self.guard);
                    continue; // re-read the (possibly repaired) link
                }
                self.cur = cell; // dead predecessor: just walk through
                continue;
            }
            self.cur = cell;
            return Some(unsafe { ((*cell).key, (*cell).payload) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn keys<P>(list: &AnnounceList<P>) -> Vec<i64> {
        let guard = list.cells.domain().pin();
        list.iter(&guard).map(|(k, _)| k).collect()
    }

    #[test]
    fn ascending_orders_keys() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Ascending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        let mut payloads: Vec<u64> = (0..6).collect();
        for (i, k) in [5i64, 1, 3, 2, 4, 0].iter().enumerate() {
            list.insert(*k, &mut payloads[i], &guard);
        }
        assert_eq!(keys(&list), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn descending_orders_keys() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Descending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        let mut payloads: Vec<u64> = (0..6).collect();
        for (i, k) in [5i64, 1, 3, 2, 4, 0].iter().enumerate() {
            list.insert(*k, &mut payloads[i], &guard);
        }
        assert_eq!(keys(&list), vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn duplicates_inserted_after_equals_fifo() {
        for dir in [Direction::Ascending, Direction::Descending] {
            let list: AnnounceList<u64> = AnnounceList::new_in(dir, Arc::new(Domain::new()));
            let guard = list.cells.domain().pin();
            let mut a = 1u64;
            let mut b = 2u64;
            let mut c = 3u64;
            list.insert(7, &mut a, &guard);
            list.insert(7, &mut b, &guard);
            list.insert(7, &mut c, &guard);
            let payloads: Vec<*mut u64> = list.iter(&guard).map(|(_, p)| p).collect();
            assert_eq!(
                payloads,
                vec![&mut a as *mut u64, &mut b as *mut u64, &mut c as *mut u64],
                "equal keys must keep insertion (FIFO) order in {dir:?}"
            );
        }
    }

    #[test]
    fn remove_all_removes_every_cell_of_payload() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Ascending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        let mut a = 1u64;
        let mut b = 2u64;
        // Simulate helper duplication: payload `a` announced twice.
        list.insert(4, &mut a, &guard);
        list.insert(4, &mut b, &guard);
        list.insert(4, &mut a, &guard);
        assert_eq!(list.len(), 3);
        assert_eq!(list.remove_all(4, &mut a, &guard), 2);
        let payloads: Vec<*mut u64> = list.iter(&guard).map(|(_, p)| p).collect();
        assert_eq!(payloads, vec![&mut b as *mut u64]);
        assert_eq!(list.remove_all(4, &mut a, &guard), 0, "idempotent");
    }

    #[test]
    fn sentinels_bound_traversal() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Descending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        assert!(list.is_empty());
        let head = list.head();
        assert_eq!(unsafe { (*head).key() }, POS_INF);
        let cursor = PublishedKey::new(POS_INF);
        let tail = unsafe { list.advance_publishing(head, &cursor, &guard) };
        assert_eq!(unsafe { (*tail).key() }, NEG_INF);
        assert_eq!(cursor.load(), NEG_INF);
    }

    #[test]
    fn advance_publishing_walks_and_publishes_each_key() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Descending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        let mut payloads: Vec<u64> = (0..3).collect();
        list.insert(10, &mut payloads[0], &guard);
        list.insert(20, &mut payloads[1], &guard);
        list.insert(30, &mut payloads[2], &guard);
        let cursor = PublishedKey::new(POS_INF);
        let mut cell = list.head();
        let mut seen = Vec::new();
        loop {
            cell = unsafe { list.advance_publishing(cell, &cursor, &guard) };
            let k = unsafe { (*cell).key() };
            assert_eq!(cursor.load(), k, "published key tracks the cursor");
            if k == NEG_INF {
                break;
            }
            seen.push(k);
        }
        assert_eq!(seen, vec![30, 20, 10]);
    }

    #[test]
    fn monotone_churn_does_not_grow_the_descending_chain() {
        // Regression: ascending keys in a descending list insert *before*
        // the dead region, so insertion/removal scans never unlink old
        // cells; traversals must do it instead, or every RU-ALL walk pays
        // O(history).
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Descending, Arc::new(Domain::new()));
        let mut payload = 7u64;
        let p: *mut u64 = &mut payload;
        for round in 0..10_000i64 {
            let guard = list.cells.domain().pin();
            list.insert(round, p, &guard);
            assert_eq!(list.remove_all(round, p, &guard), 1);
            drop(guard);
            if round % 256 == 0 {
                // A traversal with the published cursor cleans as it goes.
                let guard = list.cells.domain().pin();
                let cursor = PublishedKey::new(POS_INF);
                let mut cell = list.head();
                while unsafe { (*cell).key() } != lftrie_primitives::NEG_INF {
                    cell = unsafe { list.advance_publishing(cell, &cursor, &guard) };
                }
                drop(guard);
                assert!(
                    list.physical_len() <= 2,
                    "dead cells accumulated: {} at round {round}",
                    list.physical_len()
                );
            }
        }
        // Plain iteration cleans too.
        let guard = list.cells.domain().pin();
        let _ = list.iter(&guard).count();
        drop(guard);
        assert!(list.physical_len() <= 2);
        assert!(list.is_empty());
        // Unlinked cells really get freed once the epochs turn over.
        list.flush_reclamation();
        let (allocated, live) = list.cell_counts();
        assert!(allocated >= 10_000);
        assert!(
            live <= 64,
            "unlinked cells must be reclaimed, {live} still live"
        );
    }

    #[test]
    fn iterator_unlinks_dead_cells() {
        let list: AnnounceList<u64> =
            AnnounceList::new_in(Direction::Ascending, Arc::new(Domain::new()));
        let guard = list.cells.domain().pin();
        let mut a = 1u64;
        for k in 0..100 {
            list.insert(100 - k, &mut a, &guard); // descending keys in ascending list
            list.remove_all(100 - k, &mut a, &guard);
        }
        assert!(list.physical_len() > 0 || list.is_empty());
        let _ = list.iter(&guard).count();
        assert!(
            list.physical_len() <= 1,
            "iter() must unlink dead cells, found {}",
            list.physical_len()
        );
    }

    #[test]
    fn concurrent_insert_remove_keeps_order_and_converges() {
        let list: Arc<AnnounceList<u64>> = Arc::new(AnnounceList::new_in(
            Direction::Ascending,
            Arc::new(Domain::new()),
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            handles.push(std::thread::spawn(move || {
                let mut payloads: Vec<u64> = (0..64).collect();
                for round in 0..64u64 {
                    let guard = list.cells.domain().pin();
                    let key = ((t * 64 + round) % 16) as i64;
                    let p: *mut u64 = &mut payloads[round as usize];
                    list.insert(key, p, &guard);
                    // Interleave a second announcement of the same payload
                    // (helper behaviour), then remove all of them.
                    if round % 3 == 0 {
                        list.insert(key, p, &guard);
                    }
                    assert!(list.remove_all(key, p, &guard) >= 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(list.is_empty(), "all announcements removed");
    }

    #[test]
    fn concurrent_inserts_always_sorted() {
        let list: Arc<AnnounceList<u64>> = Arc::new(AnnounceList::new_in(
            Direction::Ascending,
            Arc::new(Domain::new()),
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            handles.push(std::thread::spawn(move || {
                let mut payloads: Vec<u64> = (0..128).collect();
                let guard = list.cells.domain().pin();
                for (i, payload) in payloads.iter_mut().enumerate() {
                    list.insert(((t * 131 + i as u64 * 17) % 97) as i64, payload, &guard);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ks = keys(&list);
        let mut sorted = ks.clone();
        sorted.sort();
        assert_eq!(ks, sorted);
        assert_eq!(ks.len(), 4 * 128);
    }
}
