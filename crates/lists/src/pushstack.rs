//! Insert-only push stack with a guarded CAS: the notify-list substrate.
//!
//! Every predecessor node owns a `notifyList` of notify nodes; update
//! operations prepend notifications with `SendNotification` (paper lines
//! 156–161), whose CAS is *guarded*: between linking the new node's `next`
//! and publishing it at the head, the sender re-checks that its update node
//! is still first-activated, aborting the send otherwise. The list is never
//! removed from — predecessor operations only read it — so a simple
//! Treiber-style push suffices.
//!
//! Because nothing is ever unlinked, no per-node epoch retirement is needed:
//! the stack frees its chain when it drops. Its lifetime is that of the
//! owning predecessor node, which *is* epoch-reclaimed by the trie — so a
//! notify list's memory is bounded by its predecessor operation's lifetime
//! instead of the structure's. Nodes come from a [`Registry`] named at
//! construction, and go back to it with [`Registry::dealloc`], never
//! retired: when a guarded push fails, when [`PushStack::clear`] detaches
//! the chain, and when the stack drops. The trie gives each query side one
//! registry for all of its notify lists, so a warm notification reuses a
//! record some earlier list gave back instead of calling the allocator; a
//! pool claim is one array index (see `lftrie_primitives::slots`).

use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicPtr, Ordering};

use crossbeam::utils::CachePadded;
use lftrie_primitives::registry::Registry;
use lftrie_primitives::steps;

/// One pushed value and its link: what a stack's registry allocates.
pub struct PushNode<T> {
    value: T,
    next: *mut PushNode<T>,
}

// Safety: `next` is a link the owning stack alone follows; a node is as
// shareable as its value.
unsafe impl<T: Send> Send for PushNode<T> {}
unsafe impl<T: Sync> Sync for PushNode<T> {}

/// The registry a [`PushStack`] takes its nodes from.
pub type NodePool<T> = Registry<PushNode<T>>;

/// The stack's one padded line: the head, and the registry every push and
/// free goes through, read-only after construction.
struct Head<T> {
    top: AtomicPtr<PushNode<T>>,
    pool: *const NodePool<T>,
    /// Whether `pool` was made by [`PushStack::new`] and dies with the
    /// stack.
    owns_pool: bool,
}

/// An insert-only stack supporting guarded pushes and snapshot iteration.
///
/// # Examples
///
/// ```
/// use lftrie_lists::pushstack::PushStack;
///
/// let stack: PushStack<i32> = PushStack::new();
/// assert!(stack.push_with(1, || true));
/// assert!(!stack.push_with(2, || false)); // guard failed: not linked
/// assert_eq!(stack.iter().copied().collect::<Vec<_>>(), vec![1]);
/// ```
pub struct PushStack<T> {
    /// Padded: the head is the only contended word of the stack, and a
    /// predecessor node packs it right next to its other announcement
    /// fields. The registry handle rides in the same line, so it costs the
    /// node no space.
    head: CachePadded<Head<T>>,
}

// Safety: nodes are registry allocations owned exclusively by the stack —
// published ones are reachable only through the head and freed by `clear`
// (whose contract excludes readers) or `Drop` (which takes `&mut self`),
// unpublished ones die on their creating thread — and values are only
// shared by reference after the publishing CAS. Every thread using the
// stack uses its registry, hence `Sync` values for `Send`.
unsafe impl<T: Send + Sync> Send for PushStack<T> {}
unsafe impl<T: Send + Sync> Sync for PushStack<T> {}

impl<T> fmt::Debug for PushStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PushStack")
            .field("len", &self.iter().count())
            .finish()
    }
}

impl<T> Default for PushStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PushStack<T> {
    /// Creates an empty stack with a registry of its own.
    pub fn new() -> Self {
        let pool = Box::into_raw(Box::new(NodePool::new()));
        Self::with_pool(pool, true)
    }

    /// Creates an empty stack whose nodes come from, and go back to,
    /// `pool`.
    ///
    /// # Safety
    ///
    /// `pool` must outlive the stack: its pushes, [`PushStack::clear`] and
    /// its drop all use it.
    pub unsafe fn new_in(pool: &NodePool<T>) -> Self {
        Self::with_pool(pool, false)
    }

    fn with_pool(pool: *const NodePool<T>, owns_pool: bool) -> Self {
        Self {
            head: CachePadded::new(Head {
                top: AtomicPtr::new(core::ptr::null_mut()),
                pool,
                owns_pool,
            }),
        }
    }

    #[inline]
    fn pool(&self) -> &NodePool<T> {
        // Safety: the pool outlives the stack (`new_in`), or is its own.
        unsafe { &*self.head.pool }
    }

    /// Pushes `value` at the head unless `guard` fails.
    ///
    /// Implements the `SendNotification` loop: each attempt reads the head,
    /// links `next`, evaluates `guard`, and only then attempts the CAS
    /// (paper lines 157–161). Returns `false` — without linking the value —
    /// as soon as `guard` returns `false`.
    pub fn push_with(&self, value: T, mut guard: impl FnMut() -> bool) -> bool {
        let node = self.pool().alloc(PushNode {
            value,
            next: core::ptr::null_mut(),
        });
        loop {
            steps::on_read();
            let head = self.head.top.load(Ordering::SeqCst); // L158
            unsafe { (*node).next = head }; // L159
            if !guard() {
                // Never published: the node (and its value) die here.
                // Safety: no other thread has seen the node.
                unsafe { self.pool().dealloc(node) };
                return false; // L160
            }
            steps::on_cas();
            if self
                .head
                .top
                .compare_exchange(head, node, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true; // L161
            }
        }
    }

    /// Unconditional push (a guard that always passes).
    pub fn push(&self, value: T) {
        let pushed = self.push_with(value, || true);
        debug_assert!(pushed);
    }

    /// Iterates the stack newest-first from the head read *now* — the
    /// `C_notify` snapshot point of the paper's line 219: nodes pushed after
    /// this call starts are not observed.
    pub fn iter(&self) -> PushStackIter<'_, T> {
        steps::on_read();
        PushStackIter {
            cur: self.head.top.load(Ordering::SeqCst),
            _stack: PhantomData,
        }
    }

    /// Detaches every currently-linked value and frees it.
    ///
    /// Racing *pushes* stay safe without coordination: a pusher whose CAS
    /// loses against the detaching swap retries against the emptied head,
    /// and one whose CAS won just before the swap simply has its value
    /// detached and freed with the rest. Pushers never dereference the old
    /// head they linked as `next`. If the registry hands a freed head out
    /// again and it is pushed back at the head, a stale CAS succeeds and
    /// links the pusher's node in front of a node the stack holds, as any
    /// push does. The sliding-scan notify list uses this to reclaim
    /// era-stale records mid-slide, when every record a racing push could
    /// land carries a stale era the next step ignores anyway.
    ///
    /// # Safety
    ///
    /// No other thread may be *reading* the stack (an outstanding
    /// [`PushStack::iter`], or `len`/`Debug` which iterate) for the whole
    /// call: detached nodes go back to the registry at once, where the next
    /// allocation may reuse them, not grace-period deferred. Callers must
    /// own the only read path — e.g. a scan owner clearing its own
    /// successor query node's list, which nothing else ever reads.
    pub unsafe fn clear(&self) {
        steps::on_write();
        let chain = self.head.top.swap(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { self.free_chain(chain) };
    }

    /// Returns the detached chain from `cur` on to the registry.
    ///
    /// # Safety
    ///
    /// No other thread can reach the chain any more.
    unsafe fn free_chain(&self, mut cur: *mut PushNode<T>) {
        while !cur.is_null() {
            // Safety: the chain is the caller's alone, and every node on it
            // came from this stack's registry and was never retired.
            let next = unsafe { (*cur).next };
            unsafe { self.pool().dealloc(cur) };
            cur = next;
        }
    }

    /// Number of linked values; O(n), for tests and diagnostics.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True if nothing has been pushed (or every push's guard failed).
    pub fn is_empty(&self) -> bool {
        self.head.top.load(Ordering::SeqCst).is_null()
    }
}

impl<T> Drop for PushStack<T> {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain. Nodes are never unlinked
        // during the stack's life, so every allocation is reachable here.
        let chain = *self.head.top.get_mut();
        unsafe { self.free_chain(chain) };
        if self.head.owns_pool {
            // Safety: `new` boxed it, and nothing else refers to it.
            drop(unsafe { Box::from_raw(self.head.pool.cast_mut()) });
        }
    }
}

/// Iterator over pushed values, newest first; see [`PushStack::iter`].
pub struct PushStackIter<'a, T> {
    cur: *mut PushNode<T>,
    _stack: PhantomData<&'a PushStack<T>>,
}

impl<'a, T> Iterator for PushStackIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_null() {
            return None;
        }
        let node = unsafe { &*self.cur };
        self.cur = node.next;
        Some(&node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn newest_first_iteration() {
        let s: PushStack<u32> = PushStack::new();
        for v in 0..5 {
            s.push(v);
        }
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn guard_failure_discards_value() {
        let s: PushStack<u32> = PushStack::new();
        s.push(1);
        assert!(!s.push_with(2, || false));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn guard_reevaluated_per_attempt() {
        // The guard must run between the head read and the CAS on every
        // retry; we approximate by counting invocations under contention.
        let s: Arc<PushStack<u64>> = Arc::new(PushStack::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let calls = Arc::clone(&calls);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let ok = s.push_with(t * 1000 + i, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        true
                    });
                    assert!(ok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 1000);
        assert!(calls.load(Ordering::Relaxed) >= 1000);
    }

    #[test]
    fn iter_is_a_snapshot() {
        let s: PushStack<u32> = PushStack::new();
        s.push(1);
        let it = s.iter();
        s.push(2);
        assert_eq!(it.copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn clear_frees_the_chain_and_keeps_accepting_pushes() {
        let s: PushStack<u32> = PushStack::new();
        for v in 0..4 {
            s.push(v);
        }
        // Safety: no concurrent readers.
        unsafe { s.clear() };
        assert!(s.is_empty());
        s.push(9);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn nodes_come_from_and_go_back_to_the_named_registry() {
        // A failed guard, a clear and the drop each return their nodes at
        // once, so the stack's next nodes are recycled, not fresh.
        let pool: NodePool<u32> = NodePool::new();
        {
            // Safety: `pool` outlives the stack.
            let s = unsafe { PushStack::new_in(&pool) };
            s.push(1);
            assert!(!s.push_with(2, || false));
            s.push(3);
            assert_eq!((pool.allocated(), pool.live()), (2, 2));
            unsafe { s.clear() };
            assert_eq!(pool.live(), 0);
            s.push(4);
            s.push(5);
            assert_eq!(pool.allocated(), 2, "the cleared nodes were reused");
        }
        let stats = pool.stats();
        assert_eq!((stats.live, stats.created, stats.recycled), (0, 5, 3));
    }

    #[test]
    fn clear_races_pushers_without_losing_the_stack() {
        // Pushers race repeated clears; no crash, no corruption, and the
        // survivors of the final clear are exactly the post-clear pushes.
        let s: Arc<PushStack<u64>> = Arc::new(PushStack::new());
        let pushers: Vec<_> = (0..4u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        s.push(t * 1000 + i);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            // Safety: pushers never read; this thread is the only reader
            // and it only reads between clears (below, after joining).
            unsafe { s.clear() };
        }
        for p in pushers {
            p.join().unwrap();
        }
        let survivors = s.len();
        assert!(survivors <= 2000);
        unsafe { s.clear() };
        assert!(s.is_empty());
    }
}
