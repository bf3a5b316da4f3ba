//! Shared-memory primitives underpinning the lock-free binary trie.
//!
//! The paper ("A Lock-free Binary Trie", Ko, ICDCS 2024) works in an
//! asynchronous shared-memory model whose objects are registers, CAS objects,
//! and `(log u)`-bit min-registers, plus a single-writer atomic-copy primitive
//! used while traversing the reverse update-announcement list. This crate
//! provides the concrete realisations of those model objects:
//!
//! * [`minreg`] — the paper's AND-based bounded min-register (`MinWrite`
//!   via a single `fetch_and`).
//! * [`marked`] — word-sized atomic pointers with an embedded mark bit, the
//!   substrate for Harris-style lock-free linked lists.
//! * [`epoch`] — epoch-based reclamation (one domain per structure, each
//!   with its epoch, per-thread participants and pinning guards): the
//!   stand-in for the garbage collector the paper's model assumes. A pin
//!   announces the epoch and nothing else; a thread descheduled inside an
//!   operation delays reclamation in that structure until it runs again,
//!   and the domain's health gauges report it as a stalled reader (see the
//!   module docs).
//! * [`registry`] — the epoch-aware allocation registry through which every
//!   node is allocated, retired, and accounted (bounded garbage under
//!   churn; see the module docs). Per-thread node pools
//!   recycle reclaimed nodes, so warm steady-state churn allocates
//!   nothing.
//! * [`slots`] — dense per-thread slot indices and the slot-indexed
//!   arrays in which domains keep their participants and registries their
//!   pools; each holding of an index is a tenure.
//! * [`swcursor`] — the single-writer published cursor substituting for the
//!   atomic-copy primitive.
//! * [`fault`] — deterministic fault injection: named injection points
//!   threaded through the trie, announcement lists, epoch domain, and
//!   registry sweeps, firing yield/stall/panic/abandon from a seeded
//!   [`fault::FaultPlan`](crate::fault) (feature `fault-injection`;
//!   literal no-op by default).
//! * [`liveness`] — thread-incarnation ids and the live-set oracle behind
//!   orphan adoption: dead incarnations' announcements are detected,
//!   completed via helping, and withdrawn.
//! * [`steps`] — shared-memory step recorders, telemetry counters under the
//!   `step-count` feature, used to reproduce the paper's step-complexity
//!   claims empirically.
//! * [`keys`] — the key domain shared by all crates, including the `−∞`/`+∞`
//!   sentinels and the `−1` "no predecessor" value used by the paper.
//!
//! # Examples
//!
//! ```
//! use lftrie_primitives::minreg::AndMinRegister;
//!
//! let reg = AndMinRegister::new(8, 8); // values in 0..=8, initially 8
//! reg.min_write(5);
//! reg.min_write(7); // no effect: 7 > 5
//! assert_eq!(reg.read(), 5);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod epoch;
pub mod fault;
pub mod keys;
pub mod liveness;
pub mod marked;
pub mod minreg;
pub mod registry;
pub mod slots;
pub mod steps;
pub mod swcursor;

pub use keys::{Key, MAX_UNIVERSE, NEG_INF, NO_PRED, NO_SUCC, POS_INF};
