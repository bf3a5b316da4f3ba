//! Single-writer published cursor: the atomic-copy substitute.
//!
//! While a `Predecessor(y)` operation traverses the RU-ALL, the paper requires
//! it to *atomically copy* the next-node pointer into its predecessor node's
//! `RuallPosition` field (§5.2, `TraverseRUall` line 262). Update operations
//! read that field to decide the `notifyThreshold` they stamp on
//! notifications; Figure 8 shows the non-atomic interleaving that breaks
//! linearizability. The paper cites a single-writer O(1) atomic-copy
//! construction from CAS \[7\].
//!
//! We substitute a *validate-retry published cursor*: the single writer
//!
//! 1. reads the source (the list node's `next` pointer),
//! 2. publishes the derived key via [`PublishedKey::publish`],
//! 3. re-reads the source, retrying from step 1 if it changed.
//!
//! On exit the publication and the source agreed at the step-3 read, which is
//! the linearization point of the copy. Concurrent RU-ALL insertions before
//! the cursor force a retry rather than being skipped, so the traversal
//! either visits a node or provably passed it before the node was linked —
//! the dichotomy Lemmas 5.19–5.21 rely on. Only the *key* is published (the
//! single field notifiers consume), which also removes any lifetime coupling
//! between the cursor and list cells.
//!
//! The retry loop is lock-free but not wait-free: a retry only happens when
//! another operation completed an RU-ALL insertion, so system-wide progress
//! is preserved; per-operation the O(1) bound of \[7\] degrades to O(#inserts).

use core::sync::atomic::{AtomicI64, Ordering};

use crate::steps;

/// A key published by one writer (the traversing predecessor operation) and
/// read by many (notifying update operations).
///
/// # Examples
///
/// ```
/// use lftrie_primitives::swcursor::PublishedKey;
/// use lftrie_primitives::POS_INF;
///
/// let cursor = PublishedKey::new(POS_INF); // RuallPosition starts at the +∞ sentinel
/// cursor.publish(41);
/// assert_eq!(cursor.load(), 41);
/// ```
#[derive(Debug)]
pub struct PublishedKey(AtomicI64);

impl PublishedKey {
    /// Creates a cursor publishing `initial`.
    pub fn new(initial: i64) -> Self {
        Self(AtomicI64::new(initial))
    }

    /// Reads the currently published key (any thread).
    #[inline]
    pub fn load(&self) -> i64 {
        steps::on_read();
        self.0.load(Ordering::SeqCst)
    }

    /// Publishes `key`. Call only from the single writing thread; readers may
    /// observe intermediate (pre-validation) publications, which the
    /// validate-retry protocol accounts for. The writer may also *re-arm*
    /// the cursor — reset it to a sentinel and start a new traversal — any
    /// number of times, as sliding scan announcements do; each re-arm is
    /// just another single-writer publication.
    #[inline]
    pub fn publish(&self, key: i64) {
        steps::on_write();
        self.0.store(key, Ordering::SeqCst);
    }

    /// Performs one validated copy step: publishes the value derived from
    /// `read_source` and retries until the source is stable across the
    /// publication.
    ///
    /// `read_source` must be idempotent; it is called at least twice. Returns
    /// the published source value.
    pub fn copy_validated<S: Copy + PartialEq>(
        &self,
        mut read_source: impl FnMut() -> (S, i64),
    ) -> S {
        loop {
            let (src, key) = read_source();
            self.publish(key);
            let (check, _) = read_source();
            if check == src {
                return src;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64 as StdAtomicI64;
    use std::sync::Arc;

    #[test]
    fn copy_validated_publishes_stable_value() {
        let cursor = PublishedKey::new(i64::MAX);
        let src = StdAtomicI64::new(10);
        let out = cursor.copy_validated(|| {
            let v = src.load(Ordering::SeqCst);
            (v, v)
        });
        assert_eq!(out, 10);
        assert_eq!(cursor.load(), 10);
    }

    #[test]
    fn copy_validated_retries_until_stable() {
        let cursor = PublishedKey::new(i64::MAX);
        // Source changes once mid-copy: first read returns 5, the validation
        // read sees 7, forcing a retry that then stabilizes on 7.
        let calls = StdAtomicI64::new(0);
        let out = cursor.copy_validated(|| {
            let n = calls.fetch_add(1, Ordering::SeqCst);
            let v = if n == 0 { 5 } else { 7 };
            (v, v)
        });
        assert_eq!(out, 7);
        assert_eq!(cursor.load(), 7);
        assert!(calls.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn readers_never_see_values_newer_than_source() {
        // Figure 8 regression shape: concurrent readers of the cursor must
        // only observe keys that the writer actually derived from the source.
        let cursor = Arc::new(PublishedKey::new(i64::MAX));
        let src = Arc::new(StdAtomicI64::new(1_000));
        let stop = Arc::new(StdAtomicI64::new(0));

        let reader = {
            let cursor = Arc::clone(&cursor);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = i64::MAX;
                while stop.load(Ordering::SeqCst) == 0 {
                    let k = cursor.load();
                    assert!(k == i64::MAX || k <= 1_000);
                    // Descending-list traversal publishes non-increasing keys
                    // except for validated corrections; all stay <= source max.
                    last = last.min(k);
                }
                last
            })
        };

        for step in (0..1_000i64).rev() {
            src.store(step, Ordering::SeqCst);
            let s = Arc::clone(&src);
            cursor.copy_validated(move || {
                let v = s.load(Ordering::SeqCst);
                (v, v)
            });
        }
        stop.store(1, Ordering::SeqCst);
        let observed_min = reader.join().unwrap();
        assert!(observed_min >= 0);
    }
}
