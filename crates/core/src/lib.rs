//! # lftrie-core — the lock-free binary trie
//!
//! Reproduction of *"A Lock-free Binary Trie"* (Jeremy Ko, ICDCS 2024;
//! arXiv:2405.06208): a dynamic set over the universe `{0, …, u−1}` with
//!
//! * O(1) worst-case `Search`,
//! * lock-free, linearizable `Insert`, `Delete` and **`Predecessor`** with
//!   `O(ċ² + c̃ + log u)` amortized step complexity (`ċ` = point contention,
//!   `c̃` = overlapping-interval contention),
//!
//! built from two layers:
//!
//! * [`RelaxedBinaryTrie`] (§4) — wait-free; its `RelaxedPredecessor` may
//!   report [`RelaxedPred::Interference`] under concurrent updates.
//! * [`LockFreeBinaryTrie`] (§5) — linearizable; wraps the relaxed trie with
//!   announcement lists (U-ALL, RU-ALL, P-ALL) and per-predecessor notify
//!   lists so `predecessor` always returns an exact answer.
//!
//! # Examples
//!
//! ```
//! use lftrie_core::RelaxedBinaryTrie;
//!
//! let trie = RelaxedBinaryTrie::new(1 << 16);
//! trie.insert(500);
//! trie.insert(7_000);
//! assert!(trie.contains(500));
//! assert_eq!(
//!     trie.predecessor(6_000),
//!     lftrie_core::RelaxedPred::Found(500)
//! );
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod access;
mod dir;
#[cfg(test)]
mod figures;
mod inline;
mod node;

pub mod bitops;
pub mod layout;
pub mod relaxed;
pub mod trie;

pub use lftrie_primitives::fault;
pub use relaxed::{LatestInfo, RelaxedBinaryTrie, RelaxedPred, RelaxedSucc};
pub use trie::{CellAllocStats, IterFrom, LockFreeBinaryTrie};
