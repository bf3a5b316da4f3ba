//! Lock-free linked-list substrates for the lock-free binary trie (paper §5).
//!
//! The linearizable trie surrounds its wait-free relaxed trie with four
//! auxiliary lists through which operations help and inform each other:
//!
//! | Paper structure | Module | Shape |
//! |-----------------|--------|-------|
//! | U-ALL (update announcements) | [`announce`] | sorted ascending, duplicate keys FIFO |
//! | RU-ALL (reverse update announcements) | [`announce`] | sorted descending, published-cursor traversal |
//! | P-ALL (predecessor announcements) | [`pall`] | unsorted LIFO with removal |
//! | per-predecessor `notifyList` | [`pushstack`] | insert-only, guarded push |
//!
//! All lists are lock-free and separate their cells from the announced
//! payloads (so helper re-announcements are harmless; see [`announce`]). Cells
//! are epoch-reclaimed as they are unlinked — mutating traversals therefore
//! take an [`lftrie_primitives::epoch::Guard`] — and whatever is still
//! linked is freed when the list drops.
//!
//! # Examples
//!
//! ```
//! use lftrie_lists::announce::{AnnounceList, Direction};
//! use lftrie_primitives::epoch;
//!
//! let ruall: AnnounceList<()> = AnnounceList::new(Direction::Descending);
//! let guard = epoch::pin();
//! ruall.insert(5, std::ptr::null_mut(), &guard);
//! ruall.insert(9, std::ptr::null_mut(), &guard);
//! let keys: Vec<i64> = ruall.iter(&guard).map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![9, 5]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod announce;
pub mod pall;
pub mod pushstack;

pub use announce::{AnnounceList, Direction};
pub use pall::PallList;
pub use pushstack::PushStack;
