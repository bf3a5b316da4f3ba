//! A lock-free skip list with predecessor queries.
//!
//! The paper's related work (§3) compares against skip-list-based designs
//! (Fomitchev–Ruppert \[28\], the skip trie \[41\]); this baseline is the
//! classic Herlihy–Shavit lock-free skip list: per-level Harris lists with a
//! shared tower per key, logical deletion by marking, physical unlinking
//! during `find`. `Search` and `Predecessor` are O(log n) *expected* —
//! the contrast with the trie's O(1) search and O(log u) deterministic
//! bounds is exactly what experiment E4 measures.
//!
//! Towers are epoch-reclaimed at their last release. Each node's `links`
//! counts the levels linking it (raised before each link CAS, dropped at
//! the CAS that unlinks it) plus one hold of its insert's, released once
//! the insert stops linking. Whoever drops the count to zero retires the
//! tower: the `find` that unlinks its last level, or its insert. `remove`
//! only marks and unlinks. The count never rises from zero, because only
//! the insert links a tower and its own hold is still in while it does:
//! without that hold, an insert that read an upper level as unmarked could
//! link it there after a remover had marked and unlinked every level
//! linked so far. So once the count is zero no level links the tower or
//! ever will, and a thread that pins later cannot reach it.

use core::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::marked::{AtomicMarkedPtr, MarkedPtr};
use lftrie_primitives::registry::Registry;
use lftrie_primitives::{NEG_INF, POS_INF};

use crate::set_trait::ConcurrentOrderedSet;

const MAX_HEIGHT: usize = 24;

struct Node {
    key: i64,
    /// Tower of next pointers; `next[0]` is the full (bottom) list.
    next: Vec<AtomicMarkedPtr<Node>>,
    /// Levels linking this node, or about to (raised before each link
    /// CAS, so it never under-reports them), plus one while its insert may
    /// still link it. The release that drops it to zero retires the node.
    links: AtomicUsize,
}

impl Node {
    fn height(&self) -> usize {
        self.next.len()
    }
}

/// Shared reference to a registry node; sound only while the caller holds an
/// epoch [`Guard`](lftrie_primitives::epoch::Guard) pinned since the pointer
/// was read from shared memory — a tower is retired only once no level
/// links it, and freed after the grace period.
#[inline]
fn nref<'a>(ptr: *mut Node) -> &'a Node {
    debug_assert!(!ptr.is_null());
    unsafe { &*ptr }
}

/// A lock-free skip list over `u64` keys with predecessor queries.
///
/// # Examples
///
/// ```
/// use lftrie_baselines::skiplist::LockFreeSkipList;
/// use lftrie_baselines::ConcurrentOrderedSet;
///
/// let set = LockFreeSkipList::new();
/// set.insert(8);
/// set.insert(64);
/// assert_eq!(set.predecessor(64), Some(8));
/// ```
pub struct LockFreeSkipList {
    head: *mut Node,
    nodes: Registry<Node>,
    /// Cheap splittable seed for tower heights.
    seed: AtomicUsize,
}

// Safety: nodes are owned by the registry; all mutation is via atomics.
unsafe impl Send for LockFreeSkipList {}
unsafe impl Sync for LockFreeSkipList {}

impl Default for LockFreeSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl LockFreeSkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        let nodes = Registry::new_in(Arc::default());
        let tail = nodes.alloc(Node {
            key: POS_INF,
            next: (0..MAX_HEIGHT).map(|_| AtomicMarkedPtr::null()).collect(),
            links: AtomicUsize::new(0),
        });
        let head = nodes.alloc(Node {
            key: NEG_INF,
            next: (0..MAX_HEIGHT)
                .map(|_| AtomicMarkedPtr::new(MarkedPtr::new(tail, false)))
                .collect(),
            links: AtomicUsize::new(0),
        });
        Self {
            head,
            nodes,
            seed: AtomicUsize::new(0x9E3779B97F4A7C15),
        }
    }

    /// The epoch domain this set's nodes retire into. A caller that pins
    /// it holds back this set's reclamation, and no other structure's,
    /// until the guard drops.
    pub fn domain(&self) -> &Domain {
        self.nodes.domain()
    }

    fn random_height(&self) -> usize {
        let mut s = self.seed.fetch_add(0x6A09E667F3BCC909, Ordering::Relaxed);
        s ^= s >> 33;
        s = s.wrapping_mul(0xFF51AFD7ED558CCD);
        s ^= s >> 33;
        ((s.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Drops one of `node`'s links; the last one retires the tower.
    fn release(&self, node: *mut Node, guard: &Guard<'_>) {
        if nref(node).links.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Safety: no level links the node and its insert has stopped
            // linking, so no thread that pins from now on can reach it.
            unsafe { self.nodes.retire(node, guard) };
        }
    }

    /// Herlihy–Shavit `find`: fills `preds`/`succs` for `key` at every
    /// level, physically unlinking marked nodes on the way. Returns `true`
    /// if a bottom-level node with exactly `key` was found.
    fn find(
        &self,
        key: i64,
        preds: &mut [*mut Node; MAX_HEIGHT],
        succs: &mut [*mut Node; MAX_HEIGHT],
        guard: &Guard<'_>,
    ) -> bool {
        'retry: loop {
            let mut pred = self.head;
            for level in (0..MAX_HEIGHT).rev() {
                let mut cur = nref(pred).next[level].load().ptr();
                loop {
                    let cur_next = nref(cur).next[level].load();
                    if cur_next.is_marked() {
                        // Unlink the marked node at this level.
                        let expected = MarkedPtr::new(cur, false);
                        let replacement = MarkedPtr::new(cur_next.ptr(), false);
                        if !nref(pred).next[level].compare_exchange(expected, replacement) {
                            continue 'retry;
                        }
                        // One level fewer links the node.
                        self.release(cur, guard);
                        cur = cur_next.ptr();
                    } else if nref(cur).key < key {
                        pred = cur;
                        cur = cur_next.ptr();
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = cur;
            }
            return nref(succs[0]).key == key;
        }
    }

    /// Adds `key`; returns `true` if the set changed.
    pub fn insert(&self, key: u64) -> bool {
        let key = key as i64;
        let guard = &self.domain().pin();
        let mut preds = [core::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [core::ptr::null_mut(); MAX_HEIGHT];
        let height = self.random_height();
        let new_node = self.nodes.alloc(Node {
            key,
            next: (0..height).map(|_| AtomicMarkedPtr::null()).collect(),
            links: AtomicUsize::new(1), // this insert's own hold
        });
        loop {
            if self.find(key, &mut preds, &mut succs, guard) {
                // Already present: the speculative node was never published.
                unsafe { self.nodes.dealloc(new_node) };
                return false;
            }
            // Prepare the tower, then link the bottom level: the
            // linearization point of insert. Each link is counted *before*
            // its CAS (and released if the CAS fails), so the count never
            // under-reports the levels linking the node.
            for (level, link) in nref(new_node).next.iter().enumerate() {
                link.store(MarkedPtr::new(succs[level], false));
            }
            let expected = MarkedPtr::new(succs[0], false);
            nref(new_node).links.fetch_add(1, Ordering::SeqCst);
            if !nref(preds[0]).next[0].compare_exchange(expected, MarkedPtr::new(new_node, false)) {
                self.release(new_node, guard);
                continue; // bottom CAS lost: re-find and retry
            }
            // Link the upper levels (best effort; marked ⇒ stop).
            'link: for level in 1..height {
                loop {
                    let cur_link = nref(new_node).next[level].load();
                    if cur_link.is_marked() {
                        break 'link; // concurrently deleted: stop linking
                    }
                    if cur_link.ptr() != succs[level] {
                        let fresh = MarkedPtr::new(succs[level], false);
                        if !nref(new_node).next[level].compare_exchange(cur_link, fresh) {
                            break 'link; // marked meanwhile
                        }
                    }
                    let expected = MarkedPtr::new(succs[level], false);
                    nref(new_node).links.fetch_add(1, Ordering::SeqCst);
                    if nref(preds[level]).next[level]
                        .compare_exchange(expected, MarkedPtr::new(new_node, false))
                    {
                        break;
                    }
                    self.release(new_node, guard);
                    // Window moved: recompute it. If the key vanished, our
                    // node was deleted; stop.
                    if !self.find(key, &mut preds, &mut succs, guard) {
                        break 'link;
                    }
                    if succs[level] == new_node {
                        // Unreachable today (no code path links another
                        // thread's tower); if helping is ever added, the
                        // helper's own inc-before-CAS covers this link — a
                        // second count here would leak the tower forever.
                        break;
                    }
                }
            }
            // This insert links no more: its own hold goes, and with it the
            // tower if a remover has already unlinked every level.
            self.release(new_node, guard);
            return true;
        }
    }

    /// Removes `key`; returns `true` if the set changed (only the thread
    /// whose bottom-level mark succeeds reports `true`).
    pub fn remove(&self, key: u64) -> bool {
        let key = key as i64;
        let guard = &self.domain().pin();
        let mut preds = [core::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [core::ptr::null_mut(); MAX_HEIGHT];
        if !self.find(key, &mut preds, &mut succs, guard) {
            return false;
        }
        let victim = succs[0];
        // Mark upper levels (order irrelevant; the bottom level decides).
        for level in (1..nref(victim).height()).rev() {
            loop {
                let next = nref(victim).next[level].load();
                if next.is_marked() {
                    break;
                }
                if nref(victim).next[level].compare_exchange(next, next.with_mark()) {
                    break;
                }
            }
        }
        // Mark the bottom level: the linearization point of delete.
        loop {
            let next = nref(victim).next[0].load();
            if next.is_marked() {
                return false; // another remover won
            }
            if nref(victim).next[0].compare_exchange(next, next.with_mark()) {
                // Physical unlink. The release of the tower's last link,
                // here or wherever it happens, retires it.
                let _ = self.find(key, &mut preds, &mut succs, guard);
                return true;
            }
        }
    }

    /// Membership test (read-only traversal, no helping).
    pub fn contains(&self, key: u64) -> bool {
        let key = key as i64;
        let _guard = self.domain().pin();
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut cur = nref(pred).next[level].load().ptr();
            while nref(cur).key < key {
                pred = cur;
                cur = nref(cur).next[level].load().ptr();
            }
            if nref(cur).key == key {
                return !nref(cur).next[0].load().is_marked();
            }
        }
        false
    }

    /// Largest key smaller than `y`, or `None`.
    pub fn predecessor(&self, y: u64) -> Option<u64> {
        let y = y as i64;
        let _guard = self.domain().pin();
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut cur = nref(pred).next[level].load().ptr();
            while nref(cur).key < y {
                pred = cur;
                cur = nref(cur).next[level].load().ptr();
            }
        }
        if nref(pred).key != NEG_INF && !nref(pred).next[0].load().is_marked() {
            return Some(nref(pred).key as u64);
        }
        // The closest node is deleted (or none exists): rescan the bottom
        // level for the last unmarked key < y.
        let mut best: Option<u64> = None;
        let mut cur = nref(self.head).next[0].load().ptr();
        while nref(cur).key < y {
            if !nref(cur).next[0].load().is_marked() {
                best = Some(nref(cur).key as u64);
            }
            cur = nref(cur).next[0].load().ptr();
        }
        best
    }

    /// Smallest key greater than `y`, or `None`: descend to the last tower
    /// with key `≤ y`, then take the first unmarked bottom-level node after
    /// it. O(log n) expected.
    pub fn successor(&self, y: u64) -> Option<u64> {
        let y = y as i64;
        let _guard = self.domain().pin();
        let mut pred = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let mut cur = nref(pred).next[level].load().ptr();
            while nref(cur).key <= y {
                pred = cur;
                cur = nref(cur).next[level].load().ptr();
            }
        }
        // Every bottom-level node after `pred` has key > y.
        let mut cur = nref(pred).next[0].load().ptr();
        while nref(cur).key != POS_INF {
            if !nref(cur).next[0].load().is_marked() {
                return Some(nref(cur).key as u64);
            }
            cur = nref(cur).next[0].load().ptr();
        }
        None
    }
}

impl LockFreeSkipList {
    /// `(cumulative, live)` node allocation counts (E6 space accounting).
    pub fn node_counts(&self) -> (usize, usize) {
        (self.nodes.created(), self.nodes.live())
    }

    /// Full allocation statistics (fresh vs recycled vs resident).
    pub fn alloc_stats(&self) -> lftrie_primitives::registry::AllocStats {
        self.nodes.stats()
    }

    /// Runs quiescent reclamation sweeps on the node registry.
    pub fn collect_garbage(&self) {
        self.nodes.flush();
    }

    /// Every node some level links, once each, head and tail included:
    /// with no operation in flight, every node not yet retired.
    fn linked(&self) -> Vec<*mut Node> {
        let mut linked = vec![self.head];
        for level in 0..MAX_HEIGHT {
            let mut cur = nref(self.head).next[level].load().ptr();
            while !cur.is_null() {
                linked.push(cur);
                cur = nref(cur).next[level].load().ptr();
            }
        }
        linked.sort_unstable();
        linked.dedup();
        linked
    }
}

impl Drop for LockFreeSkipList {
    fn drop(&mut self) {
        // A removed tower can still be linked above the bottom level, so
        // every level is walked. Retired towers are linked at none, and the
        // registry's Drop frees them.
        for node in self.linked() {
            // Safety: `&mut self` excludes every operation, and a linked
            // node was never retired, so the registry does not free it too.
            unsafe { self.nodes.dealloc(node) };
        }
    }
}

impl ConcurrentOrderedSet for LockFreeSkipList {
    fn insert(&self, x: u64) -> bool {
        LockFreeSkipList::insert(self, x)
    }
    fn remove(&self, x: u64) -> bool {
        LockFreeSkipList::remove(self, x)
    }
    fn contains(&self, x: u64) -> bool {
        LockFreeSkipList::contains(self, x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        LockFreeSkipList::predecessor(self, y)
    }
    fn successor(&self, y: u64) -> Option<u64> {
        LockFreeSkipList::successor(self, y)
    }
    fn name(&self) -> &'static str {
        "lockfree-skiplist"
    }
}

impl core::fmt::Debug for LockFreeSkipList {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LockFreeSkipList")
            .field("created", &self.nodes.created())
            .field("live", &self.nodes.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    #[test]
    fn sequential_oracle() {
        let s = LockFreeSkipList::new();
        let mut model = BTreeSet::new();
        let mut state = 0xA5A5_5A5A_1234_8765u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) % 512;
            match state % 4 {
                0 => assert_eq!(s.insert(x), model.insert(x)),
                1 => assert_eq!(s.remove(x), model.remove(&x)),
                2 => assert_eq!(s.contains(x), model.contains(&x)),
                _ => assert_eq!(s.predecessor(x), model.range(..x).next_back().copied()),
            }
        }
    }

    #[test]
    fn churn_reclaims_removed_towers() {
        let s = LockFreeSkipList::new();
        for round in 0..10_000u64 {
            s.insert(round % 8);
            s.remove(round % 8);
        }
        s.collect_garbage();
        let (allocated, live) = s.node_counts();
        assert!(allocated >= 10_000);
        assert_eq!(live, 2, "every removed tower is freed; head and tail stay");
    }

    #[test]
    fn teardown_frees_a_tower_still_linked_above_the_bottom() {
        // A removed tower whose bottom level alone was unlinked is still
        // linked above it, so it is not garbage, and teardown must free it.
        let s = LockFreeSkipList::new();
        let pin = s.domain().pin();
        let guard = &pin;
        let mut preds = [core::ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [core::ptr::null_mut(); MAX_HEIGHT];
        let tall = loop {
            assert!(s.insert(7));
            assert!(s.find(7, &mut preds, &mut succs, guard));
            if nref(succs[0]).height() > 1 {
                break succs[0];
            }
            assert!(s.remove(7));
        };
        // Mark every level, then unlink the bottom one only, as a remover
        // whose find has not reached the upper levels yet would.
        for link in nref(tall).next.iter().rev() {
            let next = link.load();
            assert!(link.compare_exchange(next, next.with_mark()));
        }
        let after = MarkedPtr::new(nref(tall).next[0].load().ptr(), false);
        assert!(nref(preds[0]).next[0].compare_exchange(MarkedPtr::new(tall, false), after));
        s.release(tall, guard);
        drop(pin);
        s.collect_garbage();
        assert!(!s.contains(7));
        let linked = s.linked();
        assert!(linked.contains(&tall), "still linked above the bottom");
        assert_eq!(s.node_counts().1, linked.len(), "nothing else is live");
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let s = Arc::new(LockFreeSkipList::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..512 {
                        assert!(s.insert(t * 512 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for x in 0..2048 {
            assert!(s.contains(x), "missing {x}");
        }
        for y in 1..2048 {
            assert_eq!(s.predecessor(y), Some(y - 1));
        }
    }

    #[test]
    fn racing_same_key_updates_keep_set_semantics() {
        let s = Arc::new(LockFreeSkipList::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut ins = 0usize;
                    let mut del = 0usize;
                    for _ in 0..1000 {
                        if s.insert(42) {
                            ins += 1;
                        }
                        if s.remove(42) {
                            del += 1;
                        }
                    }
                    (ins, del)
                })
            })
            .collect();
        let (mut ins, mut del) = (0, 0);
        for h in handles {
            let (i, d) = h.join().unwrap();
            ins += i;
            del += d;
        }
        // Every successful delete pairs with a successful insert.
        let present = s.contains(42);
        assert_eq!(ins, del + usize::from(present));
    }

    #[test]
    fn tower_heights_are_bounded_and_varied() {
        let s = LockFreeSkipList::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let h = s.random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
            seen.insert(h);
        }
        assert!(seen.len() > 3, "heights should vary: {seen:?}");
    }
}
