//! Atomic pointers with an embedded mark bit.
//!
//! Harris-style lock-free linked lists logically delete a node by setting a
//! *mark* on the node's `next` pointer, then physically unlink it with a
//! second CAS. Because every node this workspace allocates is at least
//! word-aligned, the low pointer bit is free to carry the mark, keeping the
//! `(pointer, mark)` pair inside a single CAS-able word — the standard
//! technique the announcement lists of the paper's §5 require.

use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};

use crate::steps;

const MARK: usize = 1;

/// A `(pointer, mark)` pair packed into one word.
pub struct MarkedPtr<T> {
    raw: usize,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for MarkedPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MarkedPtr<T> {}

impl<T> PartialEq for MarkedPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for MarkedPtr<T> {}

impl<T> fmt::Debug for MarkedPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MarkedPtr")
            .field("ptr", &self.ptr())
            .field("marked", &self.is_marked())
            .finish()
    }
}

impl<T> MarkedPtr<T> {
    /// Packs `ptr` and `marked` into one word.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `ptr` is at least 2-byte aligned.
    #[inline]
    pub fn new(ptr: *mut T, marked: bool) -> Self {
        debug_assert_eq!(ptr as usize & MARK, 0, "pointer not aligned for marking");
        Self {
            raw: ptr as usize | usize::from(marked),
            _marker: PhantomData,
        }
    }

    /// The null pointer, unmarked.
    #[inline]
    pub fn null() -> Self {
        Self::new(core::ptr::null_mut(), false)
    }

    /// The pointer component.
    #[inline]
    pub fn ptr(self) -> *mut T {
        (self.raw & !MARK) as *mut T
    }

    /// The mark component.
    #[inline]
    pub fn is_marked(self) -> bool {
        self.raw & MARK == MARK
    }

    /// Returns the same pointer with the mark set.
    #[inline]
    pub fn with_mark(self) -> Self {
        Self {
            raw: self.raw | MARK,
            _marker: PhantomData,
        }
    }

    /// True if the pointer component is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.ptr().is_null()
    }
}

/// An atomic [`MarkedPtr`].
///
/// # Examples
///
/// ```
/// use lftrie_primitives::marked::{AtomicMarkedPtr, MarkedPtr};
///
/// let node = Box::into_raw(Box::new(7u64));
/// let link = AtomicMarkedPtr::new(MarkedPtr::new(node, false));
/// // Logically delete by marking:
/// let cur = link.load();
/// assert!(link.compare_exchange(cur, cur.with_mark()));
/// assert!(link.load().is_marked());
/// # unsafe { drop(Box::from_raw(node)) };
/// ```
pub struct AtomicMarkedPtr<T> {
    raw: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// Safety: AtomicMarkedPtr is a word that names a T; it hands out raw pointers
// only, never references, so sharing the word across threads is sound as long
// as T itself may be shared (the unsafe dereference sites carry their own
// obligations).
unsafe impl<T: Send + Sync> Send for AtomicMarkedPtr<T> {}
unsafe impl<T: Send + Sync> Sync for AtomicMarkedPtr<T> {}

impl<T> fmt::Debug for AtomicMarkedPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AtomicMarkedPtr")
            .field(&self.load())
            .finish()
    }
}

impl<T> AtomicMarkedPtr<T> {
    /// Creates the atomic cell holding `initial`.
    #[inline]
    pub fn new(initial: MarkedPtr<T>) -> Self {
        Self {
            raw: AtomicUsize::new(initial.raw),
            _marker: PhantomData,
        }
    }

    /// Null, unmarked.
    #[inline]
    pub fn null() -> Self {
        Self::new(MarkedPtr::null())
    }

    /// Atomically loads the `(pointer, mark)` pair (`SeqCst`; the paper's
    /// algorithms assume sequential consistency).
    #[inline]
    pub fn load(&self) -> MarkedPtr<T> {
        steps::on_read();
        MarkedPtr {
            raw: self.raw.load(Ordering::SeqCst),
            _marker: PhantomData,
        }
    }

    /// Atomically stores the pair (`SeqCst`).
    #[inline]
    pub fn store(&self, val: MarkedPtr<T>) {
        steps::on_write();
        self.raw.store(val.raw, Ordering::SeqCst);
    }

    /// Single CAS over the packed word; returns whether it succeeded.
    #[inline]
    pub fn compare_exchange(&self, current: MarkedPtr<T>, new: MarkedPtr<T>) -> bool {
        steps::on_cas();
        self.raw
            .compare_exchange(current.raw, new.raw, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack() {
        let p = Box::into_raw(Box::new(42u32));
        for marked in [false, true] {
            let m = MarkedPtr::new(p, marked);
            assert_eq!(m.ptr(), p);
            assert_eq!(m.is_marked(), marked);
        }
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn with_mark_preserves_pointer() {
        let p = Box::into_raw(Box::new(1u64));
        let m = MarkedPtr::new(p, false).with_mark();
        assert!(m.is_marked());
        assert_eq!(m.ptr(), p);
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn cas_fails_on_mark_mismatch() {
        let p = Box::into_raw(Box::new(0u64));
        let cell = AtomicMarkedPtr::new(MarkedPtr::new(p, false));
        let stale = MarkedPtr::new(p, true);
        assert!(!cell.compare_exchange(stale, MarkedPtr::null()));
        assert!(cell.compare_exchange(MarkedPtr::new(p, false), MarkedPtr::null()));
        assert!(cell.load().is_null());
        unsafe { drop(Box::from_raw(p)) };
    }

    #[test]
    fn null_is_unmarked() {
        let n = MarkedPtr::<u8>::null();
        assert!(n.is_null());
        assert!(!n.is_marked());
    }
}
