//! The two query directions.
//!
//! The paper specifies `Predecessor` only (§5, lines 207–269); successor is
//! its left/right mirror. Every query routine of this crate — the relaxed
//! traversal, the announcement, both list traversals, the notification
//! harvest, ⊥-recovery and withdrawal — is written once, generic over a
//! zero-sized direction type, and monomorphized for [`Pred`] and [`Succ`].
//! A direction supplies only what differs between the two sides.

use lftrie_lists::Direction;
use lftrie_primitives::{NEG_INF, NO_PRED, NO_SUCC, POS_INF};
use lftrie_telemetry::Counter;

use crate::layout::{Layout, NodeIndex};

/// What distinguishes the predecessor side from the successor side.
pub(crate) trait Dir: 'static {
    /// This side's slot in per-direction storage: the trie's query sides,
    /// a delete's embedded-query slots, and a DEL node's embedded results.
    const IDX: usize;
    /// Order of the list the query walks with its published cursor: the
    /// descending RU-ALL for predecessors, the ascending U-ALL for
    /// successors. The other list is walked plainly.
    const PUBLISHED: Direction;
    /// Key of the published list's head sentinel, where the cursor starts
    /// (`+∞` for predecessors, `−∞` for successors; paper line 108).
    const ORIGIN: i64;
    /// Key of the published list's tail sentinel, where the cursor rests
    /// once the traversal has finished.
    const TAIL: i64;
    /// The answer when no key lies beyond the query key: [`NO_PRED`] (the
    /// paper's −1) or [`NO_SUCC`]; the identity of [`Dir::best`].
    const NONE: i64;
    /// Telemetry counter of the relaxed-trie nodes a traversal touches.
    const TOUCHES: Counter;
    /// Whether announcing and withdrawing a query node are scan events:
    /// true for the S-ALL, whose sessions they measure (counted as
    /// `ScanAnnounces`/`ScanWithdraws`, flight-recorded); the P-ALL records
    /// neither.
    const SCAN_EVENTS: bool;

    /// `a` lies strictly beyond `b` on the answer side: `a < b` for
    /// predecessors, `a > b` for successors. Used for "key beyond the query
    /// key" (line 219) and for "cursor past the notifier's key" — a
    /// threshold beyond a key means the traversal had already passed it
    /// (lines 220/223/240).
    fn beyond(a: i64, b: i64) -> bool;

    /// The children of trie node `t` in descent order, the one toward the
    /// query key first: (right, left) for predecessors, (left, right) for
    /// successors (lines 80–85).
    fn children(layout: &Layout, t: NodeIndex) -> [NodeIndex; 2];

    /// The better of two candidate answers, the one nearer the query key:
    /// the larger for predecessors, the smaller for successors.
    #[inline]
    fn best(a: i64, b: i64) -> i64 {
        if Self::beyond(a, b) {
            b
        } else {
            a
        }
    }
}

/// The predecessor side: the paper's own protocol.
pub(crate) struct Pred;

/// The successor side: the left/right mirror of [`Pred`].
pub(crate) struct Succ;

impl Dir for Pred {
    const IDX: usize = 0;
    const PUBLISHED: Direction = Direction::Descending;
    const ORIGIN: i64 = POS_INF;
    const TAIL: i64 = NEG_INF;
    const NONE: i64 = NO_PRED;
    const TOUCHES: Counter = Counter::PredTouches;
    const SCAN_EVENTS: bool = false;

    #[inline]
    fn beyond(a: i64, b: i64) -> bool {
        a < b
    }

    #[inline]
    fn children(layout: &Layout, t: NodeIndex) -> [NodeIndex; 2] {
        [layout.right(t), layout.left(t)]
    }
}

impl Dir for Succ {
    const IDX: usize = 1;
    const PUBLISHED: Direction = Direction::Ascending;
    const ORIGIN: i64 = NEG_INF;
    const TAIL: i64 = POS_INF;
    const NONE: i64 = NO_SUCC;
    const TOUCHES: Counter = Counter::SuccTouches;
    const SCAN_EVENTS: bool = true;

    #[inline]
    fn beyond(a: i64, b: i64) -> bool {
        a > b
    }

    #[inline]
    fn children(layout: &Layout, t: NodeIndex) -> [NodeIndex; 2] {
        [layout.left(t), layout.right(t)]
    }
}
