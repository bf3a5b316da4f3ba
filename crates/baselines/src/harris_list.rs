//! A Harris lock-free sorted linked-list set with predecessor queries.
//!
//! The simplest lock-free ordered set (§3's starting point, \[31\]): O(n)
//! operations, which is exactly the degenerate behaviour the skip trie paper
//! warns about and the binary trie avoids. Included as the low end of the
//! E4 comparison and as a second oracle for the list substrate.
//!
//! Nodes are epoch-reclaimed: the thread whose CAS physically unlinks a
//! marked node retires it, so steady-state memory tracks the live set (the
//! same [`Registry`] accounting the trie uses, keeping the E6 space
//! comparison apples-to-apples).

use std::sync::Arc;

use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::marked::{AtomicMarkedPtr, MarkedPtr};
use lftrie_primitives::registry::Registry;
use lftrie_primitives::{NEG_INF, POS_INF};

use crate::set_trait::ConcurrentOrderedSet;

struct Node {
    key: i64,
    next: AtomicMarkedPtr<Node>,
}

/// A lock-free sorted linked list over `u64` keys.
///
/// # Examples
///
/// ```
/// use lftrie_baselines::harris_list::HarrisListSet;
/// use lftrie_baselines::ConcurrentOrderedSet;
///
/// let set = HarrisListSet::new();
/// set.insert(3);
/// set.insert(7);
/// assert_eq!(set.predecessor(7), Some(3));
/// ```
pub struct HarrisListSet {
    head: *mut Node,
    nodes: Registry<Node>,
}

// Safety: nodes owned by the registry; mutation via atomics only.
unsafe impl Send for HarrisListSet {}
unsafe impl Sync for HarrisListSet {}

impl Default for HarrisListSet {
    fn default() -> Self {
        Self::new()
    }
}

impl HarrisListSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        let nodes = Registry::new_in(Arc::default());
        let tail = nodes.alloc(Node {
            key: POS_INF,
            next: AtomicMarkedPtr::null(),
        });
        let head = nodes.alloc(Node {
            key: NEG_INF,
            next: AtomicMarkedPtr::new(MarkedPtr::new(tail, false)),
        });
        Self { head, nodes }
    }

    /// The epoch domain this set's nodes retire into. A caller that pins
    /// it holds back this set's reclamation, and no other structure's,
    /// until the guard drops.
    pub fn domain(&self) -> &Domain {
        self.nodes.domain()
    }

    /// Michael-style search: `(pred, cur)` with `pred.key < key ≤ cur.key`,
    /// unlinking (and retiring) marked nodes.
    fn find(&self, key: i64, guard: &Guard<'_>) -> (*mut Node, *mut Node) {
        'retry: loop {
            let mut pred = self.head;
            let mut cur = unsafe { (*pred).next.load() }.ptr();
            loop {
                let cur_next = unsafe { (*cur).next.load() };
                if cur_next.is_marked() {
                    let expected = MarkedPtr::new(cur, false);
                    let replacement = MarkedPtr::new(cur_next.ptr(), false);
                    if !unsafe { (*pred).next.compare_exchange(expected, replacement) } {
                        continue 'retry;
                    }
                    // Exactly one CAS unlinks each node: retire it here.
                    unsafe { self.nodes.retire(cur, guard) };
                    cur = cur_next.ptr();
                } else if unsafe { (*cur).key } < key {
                    pred = cur;
                    cur = cur_next.ptr();
                } else {
                    return (pred, cur);
                }
            }
        }
    }

    /// Adds `key`; returns `true` if the set changed.
    pub fn insert(&self, key: u64) -> bool {
        let key = key as i64;
        let guard = &self.domain().pin();
        let node = self.nodes.alloc(Node {
            key,
            next: AtomicMarkedPtr::null(),
        });
        loop {
            let (pred, cur) = self.find(key, guard);
            if unsafe { (*cur).key } == key {
                // Never published: free the speculative node immediately.
                unsafe { self.nodes.dealloc(node) };
                return false;
            }
            unsafe { (*node).next.store(MarkedPtr::new(cur, false)) };
            if unsafe {
                (*pred)
                    .next
                    .compare_exchange(MarkedPtr::new(cur, false), MarkedPtr::new(node, false))
            } {
                return true;
            }
        }
    }

    /// Removes `key`; returns `true` if the set changed.
    pub fn remove(&self, key: u64) -> bool {
        let key = key as i64;
        let guard = &self.domain().pin();
        loop {
            let (_, cur) = self.find(key, guard);
            if unsafe { (*cur).key } != key {
                return false;
            }
            let next = unsafe { (*cur).next.load() };
            if next.is_marked() {
                return false; // another remover is ahead
            }
            if unsafe { (*cur).next.compare_exchange(next, next.with_mark()) } {
                let _ = self.find(key, guard); // physical unlink (and retire)
                return true;
            }
        }
    }

    /// Membership test (read-only traversal).
    pub fn contains(&self, key: u64) -> bool {
        let key = key as i64;
        let _guard = self.domain().pin();
        let mut cur = unsafe { (*self.head).next.load() }.ptr();
        while unsafe { (*cur).key } < key {
            cur = unsafe { (*cur).next.load() }.ptr();
        }
        let found = unsafe { (*cur).key } == key;
        found && !unsafe { (*cur).next.load() }.is_marked()
    }

    /// Largest key smaller than `y`, or `None`.
    pub fn predecessor(&self, y: u64) -> Option<u64> {
        let y = y as i64;
        let _guard = self.domain().pin();
        let mut best: Option<u64> = None;
        let mut cur = unsafe { (*self.head).next.load() }.ptr();
        while unsafe { (*cur).key } < y {
            if !unsafe { (*cur).next.load() }.is_marked() {
                best = Some(unsafe { (*cur).key } as u64);
            }
            cur = unsafe { (*cur).next.load() }.ptr();
        }
        best
    }

    /// Smallest key greater than `y`, or `None` (read-only traversal).
    pub fn successor(&self, y: u64) -> Option<u64> {
        let y = y as i64;
        let _guard = self.domain().pin();
        let mut cur = unsafe { (*self.head).next.load() }.ptr();
        loop {
            let key = unsafe { (*cur).key };
            if key == POS_INF {
                return None;
            }
            if key > y && !unsafe { (*cur).next.load() }.is_marked() {
                return Some(key as u64);
            }
            cur = unsafe { (*cur).next.load() }.ptr();
        }
    }
}

impl HarrisListSet {
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
}

impl Drop for HarrisListSet {
    fn drop(&mut self) {
        // Free the still-linked chain (sentinels included); unlinked nodes
        // were retired and are freed by the registry's Drop.
        let mut cur = self.head;
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load() }.ptr();
            unsafe { self.nodes.dealloc(cur) };
            cur = next;
        }
    }
}

impl ConcurrentOrderedSet for HarrisListSet {
    fn insert(&self, x: u64) -> bool {
        HarrisListSet::insert(self, x)
    }
    fn remove(&self, x: u64) -> bool {
        HarrisListSet::remove(self, x)
    }
    fn contains(&self, x: u64) -> bool {
        HarrisListSet::contains(self, x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        HarrisListSet::predecessor(self, y)
    }
    fn successor(&self, y: u64) -> Option<u64> {
        HarrisListSet::successor(self, y)
    }
    fn name(&self) -> &'static str {
        "harris-list"
    }
}

impl core::fmt::Debug for HarrisListSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HarrisListSet")
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
        let s = HarrisListSet::new();
        let mut model = BTreeSet::new();
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 33) % 256;
            match state % 4 {
                0 => assert_eq!(s.insert(x), model.insert(x)),
                1 => assert_eq!(s.remove(x), model.remove(&x)),
                2 => assert_eq!(s.contains(x), model.contains(&x)),
                _ => assert_eq!(s.predecessor(x), model.range(..x).next_back().copied()),
            }
        }
    }

    #[test]
    fn churn_reclaims_removed_nodes() {
        let s = HarrisListSet::new();
        for round in 0..10_000u64 {
            s.insert(round % 8);
            s.remove(round % 8);
        }
        s.collect_garbage();
        let (allocated, live) = s.node_counts();
        assert!(allocated >= 10_000);
        assert!(
            live <= 2 + 8 + 64,
            "unlinked nodes must be reclaimed, {live} still live"
        );
    }

    #[test]
    fn concurrent_toggles_converge() {
        let s = Arc::new(HarrisListSet::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let x = (t * 7 + i) % 32;
                        s.insert(x);
                        if i % 2 == 0 {
                            s.remove(x);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Set semantics preserved: contains agrees with predecessor sweep.
        let present: Vec<u64> = (0..32).filter(|&x| s.contains(x)).collect();
        for window in present.windows(2) {
            assert_eq!(s.predecessor(window[1]), Some(window[0]));
        }
    }
}
