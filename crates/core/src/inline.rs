//! A vector that keeps its first [`INLINE`] entries in place and spills to
//! the heap only beyond them.
//!
//! A query's traversal sets — the `(I, D)` sets of its list walks, its
//! snapshot `Q` of older announcements, and its `I_notify`/`D_notify` sets —
//! hold one entry per announcement it meets, and the announcement lists are
//! short: perfbench's `trie.announce_high_water` over all four lists is
//! 12–13 on churn-u16. Kept inline, these sets make a warm operation run
//! without a heap call; a longer list still works, through the spill.

use core::mem::MaybeUninit;
use core::ops::{Deref, DerefMut};

/// Entries kept in place before the first spill.
pub(crate) const INLINE: usize = 8;

/// A `Vec<T>` for `Copy` entries whose first [`INLINE`] entries need no
/// heap. Reads go through the slice it derefs to.
pub(crate) struct InlineVec<T: Copy> {
    /// Entries written in `inline`; unused once spilled.
    len: usize,
    inline: [MaybeUninit<T>; INLINE],
    /// Every entry once more than [`INLINE`] were pushed; empty until then.
    spilled: Vec<T>,
}

impl<T: Copy> InlineVec<T> {
    pub(crate) fn new() -> Self {
        Self {
            len: 0,
            inline: [MaybeUninit::uninit(); INLINE],
            spilled: Vec::new(),
        }
    }

    /// Appends `value`, moving every entry to the heap on the first push
    /// past [`INLINE`].
    pub(crate) fn push(&mut self, value: T) {
        if self.len < INLINE {
            self.inline[self.len].write(value);
            self.len += 1;
            return;
        }
        if self.spilled.is_empty() {
            // SAFETY: all `INLINE` entries were written.
            let inline =
                unsafe { core::slice::from_raw_parts(self.inline.as_ptr().cast(), INLINE) };
            self.spilled.reserve(2 * INLINE);
            self.spilled.extend_from_slice(inline);
        }
        self.spilled.push(value);
    }
}

impl<T: Copy> Deref for InlineVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.spilled.is_empty() {
            // SAFETY: the first `len` entries were written by `push`.
            unsafe { core::slice::from_raw_parts(self.inline.as_ptr().cast(), self.len) }
        } else {
            &self.spilled
        }
    }
}

impl<T: Copy> DerefMut for InlineVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.spilled.is_empty() {
            // SAFETY: as in `deref`.
            unsafe { core::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast(), self.len) }
        } else {
            &mut self.spilled
        }
    }
}

impl<T: Copy> FromIterator<T> for InlineVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for value in iter {
            v.push(value);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_read_back_in_order_across_the_spill() {
        let mut v = InlineVec::new();
        for i in 0..INLINE as u32 {
            v.push(i);
        }
        assert!(v.spilled.is_empty(), "the first {INLINE} stay inline");
        assert_eq!(*v, (0..INLINE as u32).collect::<Vec<_>>()[..]);
        for i in INLINE as u32..3 * INLINE as u32 {
            v.push(i);
        }
        assert_eq!(*v, (0..3 * INLINE as u32).collect::<Vec<_>>()[..]);
        v.reverse();
        assert_eq!(v.first(), Some(&(3 * INLINE as u32 - 1)));
        let collected: InlineVec<u32> = (0..INLINE as u32 + 1).collect();
        assert_eq!(collected.len(), INLINE + 1);
        assert!(collected.contains(&(INLINE as u32)));
    }
}
