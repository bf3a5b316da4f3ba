//! The common interface every evaluated structure implements.

use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};

/// A concurrent dynamic set over `{0, …, u−1}` with ordered queries —
/// the abstract data type of the paper (§1), completed with the successor
/// and range-scan side.
///
/// All methods take `&self`; implementations must be safe for concurrent use.
pub trait ConcurrentOrderedSet: Send + Sync {
    /// Adds `x`; returns `true` iff the set changed (the call was
    /// S-modifying).
    fn insert(&self, x: u64) -> bool;
    /// Removes `x`; returns `true` iff the set changed.
    fn remove(&self, x: u64) -> bool;
    /// Membership test.
    fn contains(&self, x: u64) -> bool;
    /// Largest key smaller than `y`, or `None` (the paper's −1).
    fn predecessor(&self, y: u64) -> Option<u64>;
    /// Smallest key greater than `y`, or `None` (the successor extension).
    fn successor(&self, y: u64) -> Option<u64>;
    /// The keys in `[lo, hi]` in ascending order.
    ///
    /// The default implementation chains `contains`/`successor` steps, so
    /// for lock-free structures the scan is a *per-step* snapshot (each step
    /// individually linearizable, the whole scan not atomic — see the trie's
    /// `range` docs). Lock-based structures override this with a scan under
    /// a single critical section, which *is* an atomic snapshot; the
    /// scan-throughput experiment (E9) measures exactly this trade.
    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        if self.contains(lo) {
            out.push(lo);
        }
        let mut cur = lo;
        while let Some(k) = self.successor(cur) {
            if k > hi {
                break;
            }
            out.push(k);
            cur = k;
        }
        out
    }
    /// Number of keys in `[lo, hi]` (`0` when `lo > hi`). Same scan
    /// semantics as [`ConcurrentOrderedSet::range`].
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        self.range(lo, hi).len()
    }
    /// The smallest key, or `None` when the set is empty.
    ///
    /// The default is a **non-atomic composite** of `contains(0)` and
    /// `successor(0)`: updates between the two calls can make it miss a
    /// concurrently inserted 0 or report `None` on a never-empty set, so it
    /// is *not* linearizable even when both building blocks are.
    /// Implementations with an atomic minimum (a single query under a lock,
    /// or the trie's one-certified-step `min`) override it.
    fn min(&self) -> Option<u64> {
        if self.contains(0) {
            Some(0)
        } else {
            self.successor(0)
        }
    }
    /// The largest key, or `None` when the set is empty.
    ///
    /// The default walks `successor` to the top — O(n) steps, and like
    /// [`ConcurrentOrderedSet::min`]'s default it is a non-atomic composite
    /// (not linearizable under concurrent updates); structures with a cheap
    /// atomic maximum override this.
    fn max(&self) -> Option<u64> {
        let mut cur = self.min()?;
        while let Some(k) = self.successor(cur) {
            cur = k;
        }
        Some(cur)
    }
    /// Removes and returns the smallest key (priority-queue `pop`), or
    /// `None` when the set is empty at the minimum query's linearization
    /// point. The default retries `min` + `remove` until the removal wins,
    /// and is only as linearizable as the `min` it builds on (see
    /// [`ConcurrentOrderedSet::min`] on the default's composite caveat).
    fn pop_min(&self) -> Option<u64> {
        loop {
            let m = self.min()?;
            if self.remove(m) {
                return Some(m);
            }
        }
    }
    /// Inserts every key in `keys`; returns how many calls were
    /// S-modifying. Each insert linearizes individually — batching is an
    /// amortization of per-call overhead, not an atomic multi-insert.
    fn insert_all(&self, keys: &[u64]) -> usize {
        keys.iter().filter(|&&k| self.insert(k)).count()
    }
    /// Removes every key in `keys`; returns how many calls were
    /// S-modifying. Same per-key linearization as
    /// [`ConcurrentOrderedSet::insert_all`].
    fn delete_all(&self, keys: &[u64]) -> usize {
        keys.iter().filter(|&&k| self.remove(k)).count()
    }
    /// Short display name for reports.
    fn name(&self) -> &'static str;
    /// A unified telemetry snapshot for this structure.
    ///
    /// The default returns the process-global counters and histograms only,
    /// with no structure gauges attached. The tries override it with their full `telemetry()`,
    /// attaching epoch health, per-registry reclamation gauges, and
    /// announcement-list lengths, so harness code can sample any structure
    /// through the trait.
    fn telemetry(&self) -> lftrie_telemetry::TelemetrySnapshot {
        lftrie_telemetry::snapshot()
    }
}

impl ConcurrentOrderedSet for LockFreeBinaryTrie {
    fn insert(&self, x: u64) -> bool {
        LockFreeBinaryTrie::insert(self, x)
    }
    fn remove(&self, x: u64) -> bool {
        LockFreeBinaryTrie::remove(self, x)
    }
    fn contains(&self, x: u64) -> bool {
        LockFreeBinaryTrie::contains(self, x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        LockFreeBinaryTrie::predecessor(self, y)
    }
    fn successor(&self, y: u64) -> Option<u64> {
        LockFreeBinaryTrie::successor(self, y)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<u64> {
        LockFreeBinaryTrie::range(self, lo..=hi)
    }
    fn count_range(&self, lo: u64, hi: u64) -> usize {
        LockFreeBinaryTrie::count(self, lo..=hi)
    }
    fn min(&self) -> Option<u64> {
        LockFreeBinaryTrie::min(self)
    }
    fn max(&self) -> Option<u64> {
        LockFreeBinaryTrie::max(self)
    }
    fn pop_min(&self) -> Option<u64> {
        LockFreeBinaryTrie::pop_min(self)
    }
    fn insert_all(&self, keys: &[u64]) -> usize {
        LockFreeBinaryTrie::insert_all(self, keys)
    }
    fn delete_all(&self, keys: &[u64]) -> usize {
        LockFreeBinaryTrie::delete_all(self, keys)
    }
    fn name(&self) -> &'static str {
        "lockfree-trie"
    }
    fn telemetry(&self) -> lftrie_telemetry::TelemetrySnapshot {
        LockFreeBinaryTrie::telemetry(self)
    }
}

/// Best-effort adapter for the relaxed trie: `predecessor`/`successor` map
/// the non-linearizable `⊥` answer to `None`.
///
/// Only meaningful in throughput experiments that tolerate relaxed
/// semantics (E5 measures how often `⊥` actually occurs).
impl ConcurrentOrderedSet for RelaxedBinaryTrie {
    fn insert(&self, x: u64) -> bool {
        RelaxedBinaryTrie::insert(self, x)
    }
    fn remove(&self, x: u64) -> bool {
        RelaxedBinaryTrie::remove(self, x)
    }
    fn contains(&self, x: u64) -> bool {
        RelaxedBinaryTrie::contains(self, x)
    }
    fn predecessor(&self, y: u64) -> Option<u64> {
        match RelaxedBinaryTrie::predecessor(self, y) {
            RelaxedPred::Found(k) => Some(k),
            RelaxedPred::NoneSmaller | RelaxedPred::Interference => None,
        }
    }
    fn successor(&self, y: u64) -> Option<u64> {
        match RelaxedBinaryTrie::successor(self, y) {
            RelaxedSucc::Found(k) => Some(k),
            RelaxedSucc::NoneGreater | RelaxedSucc::Interference => None,
        }
    }
    fn name(&self) -> &'static str {
        "relaxed-trie(best-effort)"
    }
    fn telemetry(&self) -> lftrie_telemetry::TelemetrySnapshot {
        RelaxedBinaryTrie::telemetry(self)
    }
}
