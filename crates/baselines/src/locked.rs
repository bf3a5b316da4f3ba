//! Lock-based baselines: the simplest correct concurrent implementations.
//!
//! The paper's introduction positions the lock-free trie against what was
//! previously achievable — universal constructions and lock-based wrappers
//! (§1, §3). These baselines bound that design space from below:
//!
//! * [`MutexBinaryTrie`] — a global mutex around the sequential trie; the
//!   classic coarse-grained baseline (every operation serializes).
//! * [`RwLockBinaryTrie`] — readers (`contains`, `predecessor`) share the
//!   lock; writers exclude everyone.
//! * [`CoarseBTreeSet`] — a mutex around `std::collections::BTreeSet`, the
//!   "just use the standard library" strawman.

use std::collections::BTreeSet;

use parking_lot::{Mutex, RwLock};

use crate::seq_trie::SeqBinaryTrie;
use crate::set_trait::ConcurrentOrderedSet;

/// Global-mutex sequential binary trie.
///
/// # Examples
///
/// ```
/// use lftrie_baselines::locked::MutexBinaryTrie;
/// use lftrie_baselines::ConcurrentOrderedSet;
///
/// let set = MutexBinaryTrie::new(64);
/// set.insert(9);
/// assert_eq!(set.predecessor(10), Some(9));
/// ```
#[derive(Debug)]
pub struct MutexBinaryTrie {
    inner: Mutex<SeqBinaryTrie>,
}

impl MutexBinaryTrie {
    /// Creates an empty set over `{0, …, universe−1}`.
    pub fn new(universe: u64) -> Self {
        Self {
            inner: Mutex::new(SeqBinaryTrie::new(universe)),
        }
    }

    /// Acquires and returns the global lock, emulating an updater that
    /// stalls (or crashes) while holding it — the blocking counterpart of
    /// the lock-free trie's inserts stalled mid-flight
    /// (`fault::suspend_at`) in experiment E7. Every other operation
    /// blocks until the guard is dropped.
    pub fn stall_guard(&self) -> parking_lot::MutexGuard<'_, SeqBinaryTrie> {
        self.inner.lock()
    }
}

impl ConcurrentOrderedSet for MutexBinaryTrie {
    fn insert(&self, x: u64) -> bool {
        self.inner.lock().insert(x)
    }
    fn remove(&self, x: u64) -> bool {
        self.inner.lock().remove(x)
    }
    fn contains(&self, x: u64) -> bool {
        self.inner.lock().contains(x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        self.inner.lock().predecessor(y)
    }
    fn successor(&self, y: u64) -> Option<u64> {
        self.inner.lock().successor(y)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        // One critical section: an atomic snapshot (the blocking trade E9
        // measures against the lock-free per-step scan). Aggregates and
        // batches below are atomic for the same reason — one lock hold.
        self.inner.lock().range(lo, hi)
    }
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        self.inner.lock().count_range(lo, hi)
    }
    fn min(&self) -> Option<u64> {
        self.inner.lock().min()
    }
    fn max(&self) -> Option<u64> {
        self.inner.lock().max()
    }
    fn pop_min(&self) -> Option<u64> {
        let mut g = self.inner.lock();
        let m = g.min()?;
        g.remove(m);
        Some(m)
    }
    fn insert_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.lock();
        keys.iter().filter(|&&k| g.insert(k)).count()
    }
    fn delete_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.lock();
        keys.iter().filter(|&&k| g.remove(k)).count()
    }
    fn name(&self) -> &'static str {
        "mutex-trie"
    }
}

/// Reader-writer-locked sequential binary trie.
#[derive(Debug)]
pub struct RwLockBinaryTrie {
    inner: RwLock<SeqBinaryTrie>,
}

impl RwLockBinaryTrie {
    /// Creates an empty set over `{0, …, universe−1}`.
    pub fn new(universe: u64) -> Self {
        Self {
            inner: RwLock::new(SeqBinaryTrie::new(universe)),
        }
    }
}

impl ConcurrentOrderedSet for RwLockBinaryTrie {
    fn insert(&self, x: u64) -> bool {
        self.inner.write().insert(x)
    }
    fn remove(&self, x: u64) -> bool {
        self.inner.write().remove(x)
    }
    fn contains(&self, x: u64) -> bool {
        self.inner.read().contains(x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        self.inner.read().predecessor(y)
    }
    fn successor(&self, y: u64) -> Option<u64> {
        self.inner.read().successor(y)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.inner.read().range(lo, hi)
    }
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        self.inner.read().count_range(lo, hi)
    }
    fn min(&self) -> Option<u64> {
        self.inner.read().min()
    }
    fn max(&self) -> Option<u64> {
        self.inner.read().max()
    }
    fn pop_min(&self) -> Option<u64> {
        let mut g = self.inner.write();
        let m = g.min()?;
        g.remove(m);
        Some(m)
    }
    fn insert_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.write();
        keys.iter().filter(|&&k| g.insert(k)).count()
    }
    fn delete_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.write();
        keys.iter().filter(|&&k| g.remove(k)).count()
    }
    fn name(&self) -> &'static str {
        "rwlock-trie"
    }
}

/// Global-mutex `BTreeSet`.
#[derive(Debug, Default)]
pub struct CoarseBTreeSet {
    inner: Mutex<BTreeSet<u64>>,
}

impl CoarseBTreeSet {
    /// Creates an empty set (the universe is implicit for a BTree).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConcurrentOrderedSet for CoarseBTreeSet {
    fn insert(&self, x: u64) -> bool {
        self.inner.lock().insert(x)
    }
    fn remove(&self, x: u64) -> bool {
        self.inner.lock().remove(&x)
    }
    fn contains(&self, x: u64) -> bool {
        self.inner.lock().contains(&x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        self.inner.lock().range(..y).next_back().copied()
    }
    fn successor(&self, y: u64) -> Option<u64> {
        // Excluded bound instead of `y + 1..`: this baseline has no
        // universe cap, so `y = u64::MAX` must yield `None`, not overflow.
        use std::ops::Bound;
        self.inner
            .lock()
            .range((Bound::Excluded(y), Bound::Unbounded))
            .next()
            .copied()
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        if lo > hi {
            return Vec::new();
        }
        self.inner.lock().range(lo..=hi).copied().collect()
    }
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        if lo > hi {
            return 0;
        }
        self.inner.lock().range(lo..=hi).count()
    }
    fn min(&self) -> Option<u64> {
        self.inner.lock().first().copied()
    }
    fn max(&self) -> Option<u64> {
        self.inner.lock().last().copied()
    }
    fn pop_min(&self) -> Option<u64> {
        self.inner.lock().pop_first()
    }
    fn insert_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.lock();
        keys.iter().filter(|&&k| g.insert(k)).count()
    }
    fn delete_all(&self, keys: &[u64]) -> usize {
        let mut g = self.inner.lock();
        keys.iter().filter(|&&k| g.remove(&k)).count()
    }
    fn name(&self) -> &'static str {
        "mutex-btreeset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(set: &dyn ConcurrentOrderedSet) {
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9));
        assert_eq!(set.predecessor(9), Some(5));
        assert_eq!(set.predecessor(5), None);
        assert_eq!(set.successor(5), Some(9));
        assert_eq!(set.successor(9), None);
        assert_eq!(set.range(0, 15), vec![5, 9]);
        assert!(set.remove(5));
        assert_eq!(set.predecessor(9), None);
        assert_eq!(set.range(0, 15), vec![9]);
        assert!(set.contains(9));
    }

    #[test]
    fn all_locked_variants_behave_identically() {
        exercise(&MutexBinaryTrie::new(16));
        exercise(&RwLockBinaryTrie::new(16));
        exercise(&CoarseBTreeSet::new());
    }

    #[test]
    fn btreeset_successor_at_key_domain_top_is_none() {
        // The BTreeSet baseline has no universe cap, so the top of the key
        // domain itself must answer cleanly instead of overflowing `y + 1`.
        let set = CoarseBTreeSet::new();
        set.insert(u64::MAX);
        assert_eq!(set.successor(u64::MAX), None);
        assert_eq!(set.successor(u64::MAX - 1), Some(u64::MAX));
    }

    #[test]
    fn concurrent_use_is_safe() {
        let set = Arc::new(RwLockBinaryTrie::new(1024));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for i in 0..256 {
                        let x = t * 256 + i;
                        set.insert(x);
                        assert!(set.contains(x));
                        let _ = set.predecessor(x.max(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for x in 0..1024 {
            assert!(set.contains(x));
        }
    }
}
