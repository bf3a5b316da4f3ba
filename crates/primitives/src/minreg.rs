//! Bounded min-registers.
//!
//! A *min-register* stores a value and supports `Read()` plus `MinWrite(w)`,
//! which replaces the value with `w` only if `w` is smaller (paper §2). The
//! lock-free binary trie uses a `(b+1)`-bounded min-register for the
//! `lower1Boundary` field of every DEL update node: `TrieInsert` operations
//! shrink it to flip interpreted bits from 0 to 1, and the min-semantics
//! guarantee a bit can never flip back from 1 to 0 as a result (§4.3.1).
//!
//! The paper observes (§1) that "a min-write on a `(b+1)`-bit memory location
//! can be easily implemented using a single `(b+1)`-bit AND operation", so the
//! object is hardware-supported. [`AndMinRegister`] is that construction: the
//! value `v` is encoded in unary as the word with the `v` lowest bits set, and
//! `MinWrite(w)` is `fetch_and(encode(w))` — the bitwise AND of two unary
//! encodings is the encoding of their minimum.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::steps;

/// The paper's AND-based min-register over values `0..=cap` with `cap ≤ 63`.
///
/// Value `v` is stored as the unary word `(1 << v) − 1` (the `v` low bits
/// set). `min_write(w)` is a single atomic `AND` with `encode(w)`:
/// `encode(a) & encode(b) == encode(min(a, b))`. The register is
/// linearizable: `read` returns the minimum of the initial value and every
/// `min_write` linearized before it.
///
/// The register is one word: it does not store `cap`. The caller knows its
/// bound (the trie's is `b + 1`), so [`AndMinRegister::new`] checks the
/// initial value against it and `min_write` debug-checks only the word's
/// own bound, 63. Every trie update node holds one, so a stored cap would
/// cost each node 8 bytes with padding.
///
/// # Examples
///
/// ```
/// use lftrie_primitives::minreg::AndMinRegister;
///
/// let r = AndMinRegister::new(17, 17); // b + 1 for a trie of height b = 16
/// r.min_write(3);
/// r.min_write(9);
/// assert_eq!(r.read(), 3);
/// ```
#[derive(Debug)]
pub struct AndMinRegister {
    bits: AtomicU64,
}

impl AndMinRegister {
    /// Creates a register holding `initial`, for values bounded by `cap`
    /// (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `cap > 63` or `initial > cap`.
    pub fn new(initial: u32, cap: u32) -> Self {
        assert!(cap <= 63, "AndMinRegister supports caps up to 63");
        assert!(initial <= cap, "initial value exceeds cap");
        Self {
            bits: AtomicU64::new(Self::encode(initial)),
        }
    }

    #[inline]
    fn encode(v: u32) -> u64 {
        debug_assert!(v <= 63, "min-register values are at most 63");
        (1u64 << v) - 1
    }

    #[inline]
    fn decode(word: u64) -> u32 {
        word.trailing_ones()
    }

    /// Returns the current value.
    #[inline]
    pub fn read(&self) -> u32 {
        steps::on_read();
        Self::decode(self.bits.load(Ordering::SeqCst))
    }

    /// Lowers the stored value to `v` (at most 63) if `v` is smaller than
    /// the current value; otherwise has no effect.
    #[inline]
    pub fn min_write(&self, v: u32) {
        steps::on_min_write();
        // L46 of the paper's pseudocode performs MinWrite via a single AND.
        self.bits.fetch_and(Self::encode(v), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn encode_decode_roundtrip() {
        for v in 0..=63 {
            assert_eq!(AndMinRegister::decode(AndMinRegister::encode(v)), v);
        }
    }

    #[test]
    fn and_of_encodings_is_min() {
        for a in 0..=20 {
            for b in 0..=20 {
                assert_eq!(
                    AndMinRegister::decode(AndMinRegister::encode(a) & AndMinRegister::encode(b)),
                    a.min(b)
                );
            }
        }
    }

    #[test]
    fn sequential_semantics_match() {
        let reg = AndMinRegister::new(63, 63);
        let mut model = 63u32;
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = (state >> 33) as u32 % 64;
            reg.min_write(v);
            model = model.min(v);
            assert_eq!(reg.read(), model);
        }
    }

    #[test]
    fn initial_value_is_returned_before_any_write() {
        let r = AndMinRegister::new(17, 20);
        assert_eq!(r.read(), 17);
    }

    #[test]
    fn concurrent_min_writes_converge_to_global_min() {
        let reg = Arc::new(AndMinRegister::new(63, 63));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    reg.min_write((t * 7 + i * 13) % 60 + 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The minimum over all written values: values are (t*7 + i*13) % 60 + 3,
        // whose minimum over the ranges above is 3.
        assert_eq!(reg.read(), 3);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn cap_over_63_rejected() {
        let _ = AndMinRegister::new(0, 64);
    }
}
