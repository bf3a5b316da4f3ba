//! The lock-free, linearizable **binary trie** (paper §5).
//!
//! Wraps the wait-free relaxed trie of §4 with the announcement machinery
//! that makes `Predecessor` linearizable:
//!
//! * **latest lists** — per key, a list of ≤ 2 update nodes whose first
//!   *activated* node defines membership; activation (`status:
//!   Inactive → Active`) is the linearization point of S-modifying updates
//!   (§5.3.1);
//! * **U-ALL / RU-ALL** — update announcements sorted ascending/descending;
//!   the RU-ALL is traversed with a published cursor (`RuallPosition`) that
//!   update operations read to stamp `notifyThreshold` on notifications;
//! * **P-ALL + notify lists** — predecessor announcements and the
//!   notifications updates send them;
//! * **embedded predecessor operations** — every `Delete` runs two
//!   `PredHelper` instances whose results (`delPred`, `delPred2`) feed the
//!   recovery computation (Definition 5.1) when a predecessor's relaxed-trie
//!   traversal returns ⊥.
//!
//! Pseudocode line numbers (91–269) are cited throughout.
//!
//! # Successor: one engine, two directions
//!
//! The paper gives `Predecessor` only; this implementation completes the
//! ordered-set API with a linearizable `successor(y)`. The query engine —
//! `PredHelper` with its announcement, both list traversals, the
//! notification harvest and ⊥-recovery, plus withdrawal, the updates'
//! notify loop and the crash-tolerance paths — is written once, generic
//! over a zero-sized direction type (`Pred` or `Succ`), and compiled for
//! each. The direction supplies only what differs between the two sides:
//!
//! * the list walked with the published cursor, with the cursor's origin
//!   and tail — the RU-ALL from `+∞` for predecessors, the U-ALL from `−∞`
//!   for successors — and the other list, walked plainly;
//! * the strict "beyond `y`" comparison, which also flips every
//!   notify-threshold test;
//! * the none answer (`−1`, or a value above every key) and the extremum
//!   fold (max or min);
//! * the child order of the relaxed-trie descent;
//! * its query side: the P-ALL and its node registry, or the S-ALL
//!   (successor announcement list) and its own;
//! * its slot for a DEL node's embedded results: every `Delete` embeds two
//!   queries of each direction (`delPred`/`delPred2` and
//!   `delSucc`/`delSucc2`), so ⊥-recovery works on both sides.
//!
//! On top of `successor`, [`LockFreeBinaryTrie::iter_from`] and
//! [`LockFreeBinaryTrie::range`] provide ordered scans by repeated
//! certified successor steps (see their docs for the snapshot semantics).
//!
//! # Scan subsystem v2: sliding announcements
//!
//! A scan reuses **one** S-ALL announcement for all of its steps. Each
//! query node carries an era seqlock (even = stable, odd = mid-slide); a
//! step after the first *slides* the node — bumps the era to odd, rewrites
//! the query key, re-arms the published U-ALL cursor at `−∞`, bumps the
//! era back to even — instead of withdrawing and re-announcing. Notifiers
//! read the key/threshold pair under the era seqlock in a single attempt
//! and skip the node if a slide is in progress (never spin — lock-freedom
//! is preserved even if the scan owner stalls mid-slide), stamping each
//! notification with the era they read. A step accepts only notifications
//! bearing its own era; era-stale records correspond to v1 executions in
//! which the sender's S-ALL traversal passed before a fresh announcement,
//! which the paper's proof already covers. A width-`w` scan therefore
//! costs one announce + one withdraw + `w − 1` cheap slides (counted by
//! the `ScanAnnounces`/`ScanWithdraws`/`ScanSlides` telemetry counters).
//!
//! The same machinery powers the ordered aggregates
//! ([`LockFreeBinaryTrie::count`], [`LockFreeBinaryTrie::min`],
//! [`LockFreeBinaryTrie::max`], [`LockFreeBinaryTrie::pop_min`]). The
//! batched updates ([`LockFreeBinaryTrie::insert_all`],
//! [`LockFreeBinaryTrie::delete_all`]) are loops over `insert`/`remove`:
//! each key pins the epoch domain for its own update only and withdraws
//! its announcement before the next key starts, so at most one batch
//! announcement is ever live.
//!
//! # Finishing an interrupted update
//!
//! In the paper only an update's owner runs its tail; other operations
//! help only through activation (`HelpActivate`, lines 128–136). That
//! holds here too. An operation leaves only by returning or by unwinding,
//! and when it unwinds its own guard finishes a *published* update with
//! `finish_update`: activation and the displaced-node handoff (lines
//! 131–134, shared with `help_activate`), a delete's lost second embedded
//! queries (200–201), the relaxed-trie update, notification, completion
//! and de-announcement. Each step is idempotent or claimed exactly once
//! (the argument is on `UpdateOpGuard`), so the routine may start
//! wherever the owner stopped. An operation suspended for good
//! (`fault::suspend_at`) is the paper's stalled process: its guards leave
//! its footprint, and other operations only help it through activation.

use core::cell::Cell as StdCell;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use lftrie_lists::announce::AnnounceList;
use lftrie_lists::pall::PallList;
use lftrie_lists::pushstack::{NodePool, PushStack};
use lftrie_lists::Direction;
use lftrie_primitives::epoch::{Domain, Guard};
use lftrie_primitives::fault::{self, FaultPoint};
use lftrie_primitives::registry::{AllocStats, Registry};
use lftrie_primitives::{Key, NO_PRED, POS_INF};
use lftrie_telemetry::trace::{self, OpKind, TracePhase};
use lftrie_telemetry::{
    self as telemetry, AnnouncementLens, Counter, FlightKind, TelemetrySnapshot, TraversalStats,
};

use crate::access::{LatestAccess, TrieCore};
use crate::bitops;
use crate::dir::{Dir, Pred, Succ};
use crate::inline::InlineVec;
use crate::node::{Hold, Kind, NotifyRecord, QueryNode, Status, UpdateNode, DEL2_UNSET};

/// A traversal's INS or DEL set (lines 141–143 / 265–267).
type NodeSet = InlineVec<*mut UpdateNode>;

/// An update-node identity + key snapshot taken from a [`NotifyRecord`]:
/// what the query computation keeps of a notifier without ever
/// dereferencing it (`seq` replaces the paper's pointer identity).
#[derive(Debug, Clone, Copy)]
struct NotifyCand {
    seq: u64,
    key: i64,
}

/// The unique id of a live update node (helper for identity tests between
/// snapshots and freshly traversed nodes).
#[inline]
fn seq_of(node: *mut UpdateNode) -> u64 {
    // Safety: callers only pass nodes reached under their epoch guard.
    unsafe { (*node).seq }
}

/// A delete's embedded query announcements, indexed by direction
/// (`Dir::IDX`) and by embedding (0 for line 184's, 1 for line 200's):
/// null until made, nulled again once withdrawn.
struct EmbeddedQueries([[StdCell<*mut QueryNode>; 2]; 2]);

impl EmbeddedQueries {
    fn new() -> Self {
        Self(core::array::from_fn(|_| {
            core::array::from_fn(|_| StdCell::new(core::ptr::null_mut()))
        }))
    }
}

/// How far an in-flight update got, in the only terms that change what
/// its [`UpdateOpGuard`]'s resume does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpPhase {
    /// Not in the latest list: nobody else can reach the update node, if
    /// one is allocated. A delete's first embedded queries may already be
    /// announced, recorded in the guard.
    Unpublished,
    /// The latest-list CAS succeeded (lines 170/192); the owner's own
    /// announcement (173/196) may not have landed.
    Published,
    /// The owner's announcement landed.
    Announced,
    /// Finished, or returned without changing the set: nothing to resume.
    Done,
}

/// RAII unwind guard for one `Insert`/`Delete`. On a panic that unwinds
/// through the public API it returns a never-published node to the pool,
/// or finishes a published one with `finish_update`, so a panicked
/// operation never wedges the trie or leaks its footprint.
///
/// Four phases suffice because `finish_update` may start wherever the
/// owner stopped, step by step:
///
/// 1. activation (line 131) is a one-way store;
/// 2. the displaced-node handoff (132–134) acts only while `latestNext` is
///    set, and whoever clears that link releases the node's
///    [`Hold::Linked`], which only one of them gets;
/// 3. each second embedded query (200–201) runs only while its result is
///    missing; the first embedded queries are never re-run;
/// 4. the relaxed-trie update runs only while unclaimed (a re-run of
///    `DeleteBinaryTrie` would rewrite `upper0Boundary` without the +1
///    steps of Lemma 4.13), and the owner claims it as it finishes its own;
/// 5. notification and completion run only while `completed` is unset:
///    the owner completes right after notifying, releasing the node's
///    [`Hold::Running`];
/// 6. de-announcement removes every cell of the node, and each embedded
///    query's withdrawal is claimed once (`remove_query_node`).
///
/// So the resume needs only whether the node is published (if not, it is
/// returned) and whether the owner's announcement landed (if not, the
/// resume announces it first, as line 130 does).
///
/// The resume is skipped while the thread unwinds out of an operation an
/// injected `Suspend` stopped (the paper's stalled process, whose
/// operation others help along), or when the guards were switched off via
/// [`fault::set_unwind_guards_enabled`] (the "teeth" check).
struct UpdateOpGuard<'t> {
    trie: &'t LockFreeBinaryTrie,
    phase: StdCell<OpPhase>,
    /// The operation's own update node, once allocated.
    node: StdCell<*mut UpdateNode>,
    /// A delete's four embedded query announcements.
    embeds: EmbeddedQueries,
}

impl<'t> UpdateOpGuard<'t> {
    fn new(trie: &'t LockFreeBinaryTrie) -> Self {
        Self {
            trie,
            phase: StdCell::new(OpPhase::Unpublished),
            node: StdCell::new(core::ptr::null_mut()),
            embeds: EmbeddedQueries::new(),
        }
    }
}

impl Drop for UpdateOpGuard<'_> {
    fn drop(&mut self) {
        if self.phase.get() == OpPhase::Done || !std::thread::panicking() {
            return;
        }
        if fault::is_suspending() || !fault::unwind_guards_enabled() {
            // A suspended operation leaves its footprint for others to help
            // along; with the guards off, leaving it is the point.
            return;
        }
        let _quiet = fault::suppress();
        telemetry::add(Counter::UnwindWithdrawals, 1);
        let this: &UpdateOpGuard<'_> = self;
        // The resume must not unwind out of a Drop that itself runs during
        // unwinding (that would abort); a genuine panic inside the resume
        // is contained to a bounded leak of this one operation.
        let _ = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            // Re-pin (re-entrantly — the panicking operation's own pin is
            // still live in the unwinding caller frame).
            let guard = &this.trie.domain().pin();
            this.trie.resume_update(this, guard);
        }));
    }
}

/// RAII unwind guard for one announced query of direction `D`
/// (`PredHelper` or its successor mirror): a panic between the announcement
/// and the helper's return withdraws the announcement (query operations
/// have no side effects to complete — withdrawal alone restores
/// quiescence). Disarmed on the normal return path, where the caller owns
/// the withdrawal.
struct QueryGuard<'t, D: Dir> {
    trie: &'t LockFreeBinaryTrie,
    node: *mut QueryNode,
    armed: StdCell<bool>,
    dir: PhantomData<D>,
}

impl<D: Dir> Drop for QueryGuard<'_, D> {
    fn drop(&mut self) {
        if !self.armed.get() || !std::thread::panicking() {
            return;
        }
        if fault::is_suspending() || !fault::unwind_guards_enabled() {
            return;
        }
        let _quiet = fault::suppress();
        telemetry::add(Counter::UnwindWithdrawals, 1);
        let _ = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            let guard = &self.trie.domain().pin();
            self.trie.remove_query_node::<D>(self.node, guard);
        }));
    }
}

/// RAII unwind guard for one `HelpActivate` (lines 128–136): a panic
/// between the helper's announcement of another operation's node (L130)
/// and its own withdrawal check (L135–136) runs that check on the way out.
/// Without it the helper could leave an announcement of a node whose owner
/// has already completed and withdrawn, which nobody else withdraws: once
/// the helper's pin ends the node can be reclaimed under the stale cell.
/// For that reason the check also runs when the thread unwinds out of a
/// suspension, since that unwinding releases the pin too.
struct HelpGuard<'t, 'g> {
    trie: &'t LockFreeBinaryTrie,
    node: *mut UpdateNode,
    guard: &'g Guard<'g>,
}

impl Drop for HelpGuard<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() || !fault::unwind_guards_enabled() {
            return;
        }
        let _quiet = fault::suppress();
        let _ = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            if unsafe { (*self.node).completed() } {
                self.trie.deannounce(self.node, self.guard); // L136
            }
        }));
    }
}

/// Allocation statistics of the four announcement-list cell registries,
/// by list.
#[derive(Debug, Clone, Copy)]
pub struct CellAllocStats {
    /// U-ALL cell registry.
    pub uall: AllocStats,
    /// RU-ALL cell registry.
    pub ruall: AllocStats,
    /// P-ALL cell registry.
    pub pall: AllocStats,
    /// S-ALL cell registry.
    pub sall: AllocStats,
}

/// One query direction's announcement state.
struct QuerySide {
    /// The P-ALL (predecessor announcements, §5.1) or the S-ALL (successor
    /// announcements).
    list: PallList<QueryNode>,
    /// Epoch-aware registry owning every query node of this side; nodes are
    /// retired when their operation withdraws its announcement.
    nodes: Registry<QueryNode>,
    /// The notify records of this side's query nodes, allocated by the
    /// notifiers and given back when a guarded push fails, when a scan's
    /// slide clears its list, and when the query node drops. Declared
    /// after `nodes`, so it outlives every query node at teardown.
    records: NodePool<NotifyRecord>,
    /// Diagnostic tallies (experiments E5/E7): how often this side's
    /// relaxed traversal answered ⊥, and how often ⊥-recovery ran.
    bottoms: AtomicU64,
    recoveries: AtomicU64,
}

impl QuerySide {
    fn new(domain: &Arc<Domain>) -> Self {
        Self {
            list: PallList::new_in(Arc::clone(domain)),
            nodes: Registry::new_in(Arc::clone(domain)),
            records: NodePool::new_in(Arc::clone(domain)),
            bottoms: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    fn traversal(&self) -> TraversalStats {
        TraversalStats {
            bottoms: self.bottoms.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

/// A lock-free, linearizable binary trie over `{0, …, universe−1}` with
/// O(1) `contains` and lock-free exact `predecessor`.
///
/// All operations take `&self` and may be called concurrently from any
/// number of threads.
///
/// # Examples
///
/// ```
/// use lftrie_core::LockFreeBinaryTrie;
///
/// let set = LockFreeBinaryTrie::new(1 << 12);
/// set.insert(100);
/// set.insert(311);
/// assert!(set.contains(311));
/// assert_eq!(set.predecessor(311), Some(100));
/// assert_eq!(set.predecessor(100), None);
/// assert_eq!(set.successor(100), Some(311));
/// assert_eq!(set.range(0..=311), vec![100, 311]);
/// set.remove(100);
/// assert_eq!(set.predecessor(311), None);
/// ```
pub struct LockFreeBinaryTrie {
    core: TrieCore,
    universe: u64,
    /// U-ALL: update announcements, key-ascending (§5.1).
    uall: AnnounceList<UpdateNode>,
    /// RU-ALL: update announcements, key-descending (§5.1).
    ruall: AnnounceList<UpdateNode>,
    /// The predecessor and successor query sides, indexed by `Dir::IDX`.
    sides: [QuerySide; 2],
    /// Approximate live-announcement total (all four lists), maintained at
    /// the announce/withdraw sites; feeds the high-water gauge. Signed so
    /// that transient interleavings of the relaxed updates cannot wrap.
    ann_current: AtomicI64,
    /// Highest `ann_current` ever observed: how many announcements were
    /// live at once at the peak, which the list lengths stop showing once
    /// they drain.
    ann_high_water: AtomicU64,
}

impl LatestAccess for LockFreeBinaryTrie {
    /// `FindLatest(x)` (lines 116–120): first activated node of the
    /// `latest[x]` list.
    fn find_latest(&self, key: i64) -> *mut UpdateNode {
        let u_node = self.core.latest_head(key); // L117
        if u_node.is_null() {
            return u_node; // x's uninstalled dummy
        }
        self.find_latest_from(u_node)
    }

    fn find_latest_installed(&self, key: i64) -> *mut UpdateNode {
        self.find_latest_from(self.core.installed_head(key)) // L117
    }

    /// `FirstActivated(uNode)` (lines 125–127).
    fn first_activated(&self, node: *mut UpdateNode) -> bool {
        let u_node = self.core.latest_head(unsafe { (*node).key() }); // L126
        if node == u_node {
            return true; // L127, first disjunct
        }
        if u_node.is_null() {
            // Never for a published node: its key's head is not null.
            return false;
        }
        let u = unsafe { &*u_node };
        u.status() == Status::Inactive && node == u.latest_next() // L127, second
    }
}

impl LockFreeBinaryTrie {
    /// Lines 118–120 of `FindLatest` on the non-null head `u_node` read at
    /// L117: the head, or its `latestNext` while the head is inactive.
    #[inline]
    fn find_latest_from(&self, u_node: *mut UpdateNode) -> *mut UpdateNode {
        let u = unsafe { &*u_node };
        if u.status() == Status::Inactive {
            // L118
            let next = u.latest_next(); // L119
            if !next.is_null() {
                return next; // L120
            }
        }
        u_node
    }

    /// Creates an empty trie over `{0, …, universe−1}`.
    ///
    /// Allocates the Θ(u) trie arrays and no update node: a key's dummy DEL
    /// node is made only once an insert needs it.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2` or `universe > 2^62`.
    pub fn new(universe: u64) -> Self {
        let domain = Arc::new(Domain::new());
        Self {
            core: TrieCore::new(universe, Arc::clone(&domain)),
            universe,
            uall: AnnounceList::new_in(Direction::Ascending, Arc::clone(&domain)),
            ruall: AnnounceList::new_in(Direction::Descending, Arc::clone(&domain)),
            sides: [QuerySide::new(&domain), QuerySide::new(&domain)],
            ann_current: AtomicI64::new(0),
            ann_high_water: AtomicU64::new(0),
        }
    }

    /// The universe size `u` this trie was created with.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The epoch domain all of this trie's registries retire into. A
    /// caller that pins it holds back this trie's reclamation, and no
    /// other structure's, until the guard drops.
    pub fn domain(&self) -> &Domain {
        self.core.domain()
    }

    #[inline]
    fn check_key(&self, x: Key) -> i64 {
        assert!(
            x < self.universe,
            "key {x} outside universe {}",
            self.universe
        );
        x as i64
    }

    /// Query side `D`.
    #[inline]
    fn side<D: Dir>(&self) -> &QuerySide {
        &self.sides[D::IDX]
    }

    /// The update list `D`'s queries walk with their published cursor
    /// (line 215), then the one they walk plainly (line 217).
    #[inline]
    fn lists<D: Dir>(&self) -> (&AnnounceList<UpdateNode>, &AnnounceList<UpdateNode>) {
        match D::PUBLISHED {
            Direction::Descending => (&self.ruall, &self.uall),
            Direction::Ascending => (&self.uall, &self.ruall),
        }
    }

    // ------------------------------------------------------------------
    // Announcement helpers
    // ------------------------------------------------------------------

    /// Bumps the live-announcement gauge and folds it into the high-water
    /// mark. Called after each successful list insert, so a crash at the
    /// injection point *before* the insert never counts a phantom.
    #[inline]
    fn ann_add(&self, n: usize) {
        let cur = self.ann_current.fetch_add(n as i64, Ordering::Relaxed) + n as i64;
        self.ann_high_water
            .fetch_max(cur.max(0) as u64, Ordering::Relaxed);
    }

    /// Debits the live-announcement gauge by the number of cells actually
    /// removed (withdrawal under helping can remove 0, 1, or more).
    #[inline]
    fn ann_sub(&self, n: usize) {
        self.ann_current.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// Inserts `uNode` into the U-ALL and RU-ALL (lines 130/173/196).
    fn announce(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        let _p = trace::phase(TracePhase::Announce);
        let key = unsafe { (*u_node).key() };
        telemetry::event(Counter::UpdateAnnounces, FlightKind::Announce, key, 0);
        self.uall.insert(key, u_node, guard);
        self.ann_add(1);
        self.ruall.insert(key, u_node, guard);
        self.ann_add(1);
    }

    /// Removes every announcement of `uNode` (lines 136/179/205): helpers
    /// may have re-announced it, so removal is exhaustive.
    fn deannounce(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        let _p = trace::phase(TracePhase::Withdraw);
        let key = unsafe { (*u_node).key() };
        telemetry::event(Counter::UpdateWithdraws, FlightKind::Deannounce, key, 0);
        let removed = self.uall.remove_all(key, u_node, guard);
        self.ann_sub(removed);
        let removed = self.ruall.remove_all(key, u_node, guard);
        self.ann_sub(removed);
    }

    /// Lines 131–134 of `HelpActivate`: activates `uNode` and hands off the
    /// node it displaced. Idempotent.
    fn activate(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        unsafe { (*u_node).activate() }; // L131
        self.hand_off(u_node, guard); // L132–134
    }

    /// Lines 132–134 for an activated `uNode` (also lines 168–169,
    /// 175 and 190): stops the displaced node's target if `uNode` is a DEL
    /// node, cuts the `latestNext` link, and releases the displaced node's
    /// [`Hold::Linked`]. After the cut nothing reaches that node through
    /// the latest list, so whoever cuts the link releases it — a suspended
    /// owner never would — and only one of them gets the bit. A no-op once
    /// the link is gone.
    fn hand_off(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        let u = unsafe { &*u_node };
        let displaced = u.latest_next();
        if displaced.is_null() {
            return;
        }
        if u.kind() == Kind::Del {
            // L132–133: uNode.latestNext.target.stop ← True (⊥-tolerant)
            let target = unsafe { (*displaced).target() };
            if !target.is_null() {
                unsafe { (*target).set_stop() };
            }
        }
        u.clear_latest_next(); // L134
        self.core.release(displaced, Hold::Linked, guard);
    }

    /// `HelpActivate(uNode)` (lines 128–136): finish a stalled update's
    /// announcement and activation on its behalf.
    fn help_activate(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        let u = unsafe { &*u_node };
        if u.status() == Status::Inactive {
            // L129. The helping edge targets the helped node's never-reused
            // allocation seq; the exporter joins it to the owner's span.
            let _h = trace::help(seq_of(u_node));
            let _unwind = HelpGuard {
                trie: self,
                node: u_node,
                guard,
            };
            self.announce(u_node, guard); // L130
            self.activate(u_node, guard); // L131–134
            if u.completed() {
                // L135: the owner finished while we were helping — our (or
                // a stale) announcement must go.
                self.deannounce(u_node, guard); // L136
            }
        }
    }

    /// Adds a first-activated `u_node` to the INS or DEL set of a list
    /// traversal (lines 141–143 / 265–267). The sets are sets: duplicate
    /// cells from helpers' re-announcements collapse here.
    fn collect_first_activated(
        &self,
        u_node: *mut UpdateNode,
        ins: &mut NodeSet,
        del: &mut NodeSet,
    ) {
        let u = unsafe { &*u_node };
        if u.status() != Status::Inactive && self.first_activated(u_node) {
            let bucket = if u.kind() == Kind::Ins { ins } else { del };
            if !bucket.contains(&u_node) {
                bucket.push(u_node);
            }
        }
    }

    /// `TraverseUall(y)` (lines 137–145), or its successor mirror over the
    /// RU-ALL: walks `D`'s plain list while keys lie beyond `y`, collecting
    /// the first-activated update nodes split into `(I, D)` by kind.
    fn traverse_plain<D: Dir>(&self, y: i64, guard: &Guard<'_>) -> (NodeSet, NodeSet) {
        let _p = trace::phase(TracePhase::Traverse);
        let mut ins = NodeSet::new();
        let mut del = NodeSet::new();
        for (key, u_node) in self.lists::<D>().1.iter(guard) {
            // L139–144
            if !D::beyond(key, y) {
                break; // L140
            }
            self.collect_first_activated(u_node, &mut ins, &mut del); // L141–143
        }
        (ins, del) // L145
    }

    /// `TraverseRUall(pNode)` (lines 257–269), or its successor mirror over
    /// the U-ALL: walks `D`'s published list from its head sentinel,
    /// publishing each hop's key in the query node's cursor, and collects
    /// the first-activated update nodes with keys beyond `y`, split into
    /// `(I, D)` by kind.
    fn traverse_published<D: Dir>(
        &self,
        q_node: *mut QueryNode,
        guard: &Guard<'_>,
    ) -> (NodeSet, NodeSet) {
        let _p = trace::phase(TracePhase::Traverse);
        let q = unsafe { &*q_node };
        let y = q.key(); // L259
        let list = self.lists::<D>().0;
        let mut ins = NodeSet::new();
        let mut del = NodeSet::new();
        let mut cell = list.head(); // L260: the origin sentinel
        loop {
            // L261–263: atomic-copy step (a validated publication).
            // Safety: `cell` starts at this list's head sentinel and each hop
            // returns another cell of the same list; the tail break below
            // stops the walk before the tail is passed back in.
            cell = unsafe { list.advance_publishing(cell, &q.position, guard) };
            let key = unsafe { (*cell).key() };
            if key == D::TAIL {
                break; // L268 (tail sentinel reached; payload is null)
            }
            if D::beyond(key, y) {
                // L264
                let u_node = unsafe { (*cell).payload() };
                self.collect_first_activated(u_node, &mut ins, &mut del); // L265–267
            }
        }
        (ins, del) // L269
    }

    /// `NotifyPredOps(uNode)` (lines 146–155), for both query directions:
    /// send a notification about `uNode` to every announced predecessor
    /// operation, then to every announced successor operation. One full
    /// U-ALL traversal (L147, `TraverseUall(∞)`) yields the INS set both
    /// extremum computations read.
    fn notify_query_ops(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        let _p = trace::phase(TracePhase::Notify);
        let (ins, _del) = self.traverse_plain::<Pred>(POS_INF, guard); // L147: TraverseUall(∞)
        telemetry::flight(FlightKind::Notify, unsafe { (*u_node).key() }, 0);
        // L149's early return ends the whole notification, successors
        // included.
        if self.notify_side::<Pred>(u_node, &ins, guard) {
            self.notify_side::<Succ>(u_node, &ins, guard);
        }
    }

    /// Lines 148–155 for the queries announced on side `D`. Returns `false`
    /// once `uNode` is no longer first-activated (line 149): the caller
    /// must stop notifying.
    fn notify_side<D: Dir>(
        &self,
        u_node: *mut UpdateNode,
        ins: &[*mut UpdateNode],
        guard: &Guard<'_>,
    ) -> bool {
        let u = unsafe { &*u_node };
        // DEL nodes notify only after line 201 set their second embedded
        // results, so `del2` is final and can be snapshotted into the
        // (pointer-free) record.
        let del2 = match u.kind() {
            Kind::Del => u.del_result2::<D>().unwrap_or(DEL2_UNSET),
            Kind::Ins => DEL2_UNSET,
        };
        for cell in self.side::<D>().list.iter(guard) {
            // L148
            let q = unsafe { &*(*cell).payload() };
            if !self.first_activated(u_node) {
                return false; // L149
            }
            // Era-seqlock read of the (key, cursor) pair. A sliding scan
            // (scan subsystem v2) rewrites both between steps; if the pair
            // is mid-slide or changed under us, *skip* this node rather
            // than spin: the step that begins when the slide ends re-arms
            // the cursor and runs its traversals entirely after it, which
            // is exactly the situation of an update whose traversal passed
            // before a fresh announcement — a case the v1 proof already
            // covers. Skipping keeps notifiers lock-free even when a scan
            // owner stalls mid-slide. Nodes that never slide always read
            // stable.
            let Some((y, threshold, era)) = q.stable_pair() else {
                continue;
            };
            // L150–154: build the notify node (a value snapshot; see
            // `NotifyRecord` for why no pointers are stored). L153's
            // updateNodeMax is the INS key beyond y nearest to it; keys are
            // unique among first-activated INS nodes.
            let ext_key = ins
                .iter()
                .map(|&i| unsafe { (*i).key() })
                .filter(|&k| D::beyond(k, y))
                .fold(D::NONE, D::best);
            let ext_seq = ins
                .iter()
                .find(|&&i| unsafe { (*i).key() } == ext_key)
                .map_or(0, |&i| seq_of(i));
            let record = NotifyRecord {
                key: u.key(),   // L151
                kind: u.kind(), // (line 220's read)
                seq: u.seq,     // L152, by identity
                del2,           // (line 245's read)
                ext_seq,        // L153
                ext_key,
                notify_threshold: threshold, // L154
                era,
            };
            // L155 + SendNotification (lines 156–161): guarded push.
            if !q
                .notify_list
                .push_with(record, || self.first_activated(u_node))
            {
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Set operations
    // ------------------------------------------------------------------

    /// `Search(x)` (lines 121–124): O(1) worst case.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn contains(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::ContainsOps, 1);
        let _s = trace::span(OpKind::Contains, x);
        let _guard = self.domain().pin();
        let u_node = self.find_latest(x); // L122
        !u_node.is_null() && unsafe { (*u_node).kind() == Kind::Ins } // L123–124
    }

    /// `Insert(x)` (lines 162–180): adds `x`; returns `true` iff this call
    /// was S-modifying.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn insert(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::InsertOps, 1);
        let _s = trace::span(OpKind::Insert, x);
        let guard = &self.domain().pin();
        fault::point(FaultPoint::InsertEntry);
        let d_node = self.find_latest_installed(x); // L163
        if unsafe { (*d_node).kind() } != Kind::Del {
            return false; // L164: x already in S
        }
        let og = UpdateOpGuard::new(self);
        // L165–167: new inactive INS node with latestNext → dNode.
        let i_node = self.core.alloc_node(UpdateNode::new_ins(
            x,
            Status::Inactive,
            d_node,
            self.core.b(),
        ));
        og.node.set(i_node);
        // Bind this span to the node's never-reused allocation seq so
        // helpers' edges (which only see the node) join back to the span.
        trace::bind(seq_of(i_node));
        self.hand_off(d_node, guard); // L168–169
        if !self.core.cas_latest(x, d_node, i_node) {
            // L170 failed: help the Insert that won, then return. Our node
            // was never published; nobody else can hold it. (A crash while
            // helping leaves the guard `Unpublished`, whose resume
            // performs exactly this dealloc.)
            self.help_activate(self.core.latest_head(x), guard); // L171
            unsafe { self.core.dealloc_node(i_node) };
            og.phase.set(OpPhase::Done);
            return false; // L172
        }
        og.phase.set(OpPhase::Published);
        fault::point(FaultPoint::InsertPublished);
        self.announce(i_node, guard); // L173
        og.phase.set(OpPhase::Announced);
        fault::point(FaultPoint::InsertAnnounced);
        unsafe { (*i_node).activate() }; // L174: linearization point
        fault::point(FaultPoint::InsertLinearized);
        // L175. The cut releases dNode's link; it is garbage once its own
        // Delete completed and no dNodePtr slot or target holds it.
        self.hand_off(i_node, guard);
        self.update_relaxed(i_node, guard); // L176
        fault::point(FaultPoint::InsertTrieUpdated);
        self.notify_query_ops(i_node, guard); // L177 (+ successor mirror)
        self.core.release(i_node, Hold::Running, guard); // L178
        fault::point(FaultPoint::InsertCompleted);
        self.deannounce(i_node, guard); // L179
        og.phase.set(OpPhase::Done);
        true // L180
    }

    /// `Delete(x)` (lines 181–206): removes `x`; returns `true` iff this
    /// call was S-modifying.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ universe`.
    pub fn remove(&self, x: Key) -> bool {
        let x = self.check_key(x);
        telemetry::add(Counter::RemoveOps, 1);
        let _s = trace::span(OpKind::Remove, x);
        let guard = &self.domain().pin();
        fault::point(FaultPoint::DeleteEntry);
        let i_node = self.find_latest(x); // L182
        if i_node.is_null() || unsafe { (*i_node).kind() } != Kind::Ins {
            return false; // L183: x not in S
        }
        let og = UpdateOpGuard::new(self);
        // L184: the first embedded predecessor and the first embedded
        // successor; their announcements stay until this Delete returns.
        let (del_pred, p_node1) = self.embed::<Pred>(x, 0, &og.embeds, guard);
        let (del_succ, s_node1) = self.embed::<Succ>(x, 0, &og.embeds, guard);
        fault::point(FaultPoint::DeleteHelpersDone);
        // L185–189: new inactive DEL node recording the embedded results.
        let d_node = self.core.alloc_node(UpdateNode::new_del(
            x,
            Status::Inactive,
            i_node,
            self.core.b(),
        ));
        og.node.set(d_node);
        // Bind the delete's span to its node seq for helping attribution.
        trace::bind(seq_of(d_node));
        // Safety: our own node; it outlives this operation's pin.
        let d = unsafe { &*d_node };
        d.init_del::<Pred>(del_pred, p_node1); // L188–189
        d.init_del::<Succ>(del_succ, s_node1);
        self.hand_off(i_node, guard); // L190
        self.notify_query_ops(i_node, guard); // L191: help previous Insert notify
        if !self.core.cas_latest(x, i_node, d_node) {
            // L192 failed: dNode was never published. (A crash while
            // helping leaves the guard `Unpublished`, whose resume performs
            // exactly this cleanup.)
            self.help_activate(self.core.latest_head(x), guard); // L193
            self.withdraw_embeds(&og.embeds, guard); // L194
            unsafe { self.core.dealloc_node(d_node) };
            og.phase.set(OpPhase::Done);
            return false; // L195
        }
        og.phase.set(OpPhase::Published);
        fault::point(FaultPoint::DeletePublished);
        self.announce(d_node, guard); // L196
        og.phase.set(OpPhase::Announced);
        fault::point(FaultPoint::DeleteAnnounced);
        d.activate(); // L197: linearization point
        fault::point(FaultPoint::DeleteLinearized);
        // L198: iNode.target.stop ← True (⊥-tolerant).
        let target = unsafe { (*i_node).target() };
        if !target.is_null() {
            unsafe { (*target).set_stop() };
        }
        // L199. iNode is then off the latest[x] list: release its link (it
        // is garbage once its own Insert completed too; INS nodes have no
        // other holds).
        d.clear_latest_next();
        self.core.release(i_node, Hold::Linked, guard);
        // L200–201: the second embedded predecessor and successor.
        d.set_del_result2::<Pred>(self.embed::<Pred>(x, 1, &og.embeds, guard).0);
        d.set_del_result2::<Succ>(self.embed::<Succ>(x, 1, &og.embeds, guard).0);
        fault::point(FaultPoint::DeleteEmbedsDone);
        self.update_relaxed(d_node, guard); // L202
        fault::point(FaultPoint::DeleteTrieUpdated);
        self.notify_query_ops(d_node, guard); // L203
        self.core.release(d_node, Hold::Running, guard); // L204
        fault::point(FaultPoint::DeleteCompleted);
        self.deannounce(d_node, guard); // L205
        self.withdraw_embeds(&og.embeds, guard); // L206
        og.phase.set(OpPhase::Done);
        true
    }

    /// The relaxed-trie update of `uNode` (line 176 or 202), then its
    /// claim: the update is not idempotent, so a finisher runs it only
    /// while unclaimed.
    fn update_relaxed(&self, u_node: *mut UpdateNode, guard: &Guard<'_>) {
        match unsafe { (*u_node).kind() } {
            Kind::Ins => bitops::insert_binary_trie(&self.core, self, u_node, guard),
            Kind::Del => bitops::delete_binary_trie(&self.core, self, u_node, guard),
        }
        unsafe { (*u_node).claim_trie_update() };
    }

    /// Runs embedded query `n` of direction `D` for the delete of `x`
    /// (line 184 for `n = 0`, line 200 for `n = 1`) and records its
    /// still-announced node in `embeds`, where the delete's completion or
    /// its unwind guard finds it to withdraw. Returns the result and the
    /// node.
    fn embed<D: Dir>(
        &self,
        x: i64,
        n: usize,
        embeds: &EmbeddedQueries,
        guard: &Guard<'_>,
    ) -> (i64, *mut QueryNode) {
        let (result, q_node) = self.query_helper::<D>(x, guard);
        embeds.0[D::IDX][n].set(q_node);
        (result, q_node)
    }

    /// Lines 200–201 of direction `D` for the finisher of an interrupted
    /// delete: runs the second embedded query only if its result was lost
    /// (a re-run would overwrite an already-published result).
    fn embed_second<D: Dir>(&self, d: &UpdateNode, embeds: &EmbeddedQueries, guard: &Guard<'_>) {
        if d.del_result2::<D>().is_none() {
            let (result, _) = self.embed::<D>(d.key(), 1, embeds, guard);
            d.set_del_result2::<D>(result);
        }
    }

    /// Withdraws the embedded query announcements still recorded in
    /// `embeds` (line 206), predecessors first.
    fn withdraw_embeds(&self, embeds: &EmbeddedQueries, guard: &Guard<'_>) {
        self.withdraw_embedded::<Pred>(embeds, guard);
        self.withdraw_embedded::<Succ>(embeds, guard);
    }

    /// [`LockFreeBinaryTrie::withdraw_embeds`] for direction `D`.
    fn withdraw_embedded<D: Dir>(&self, embeds: &EmbeddedQueries, guard: &Guard<'_>) {
        for slot in &embeds.0[D::IDX] {
            let q_node = slot.get();
            if !q_node.is_null() {
                self.remove_query_node::<D>(q_node, guard);
                slot.set(core::ptr::null_mut());
            }
        }
    }

    // ------------------------------------------------------------------
    // Panic tolerance: the unwind resume
    // ------------------------------------------------------------------

    /// Finishes a published update whose owner cannot, from wherever the
    /// owner stopped: activation and the displaced-node handoff (lines
    /// 131–134), then — unless the update already completed — the second
    /// embedded queries whose results were lost (200–201), the relaxed-trie
    /// update if still unclaimed and the node not yet superseded,
    /// notification and completion, and finally de-announcement (205) and
    /// the withdrawal of the embedded queries recorded in `embeds` (206),
    /// including the ones run here. The caller has announced the node.
    /// Completion releases the node's [`Hold::Running`], and the handoff
    /// the [`Hold::Linked`] of the node it displaced. Called by the unwind
    /// resume; see [`UpdateOpGuard`] for why every step may run again.
    fn finish_update(&self, u_node: *mut UpdateNode, embeds: &EmbeddedQueries, guard: &Guard<'_>) {
        let u = unsafe { &*u_node };
        self.activate(u_node, guard); // L131–134
        if !u.completed() {
            if u.kind() == Kind::Del {
                self.embed_second::<Pred>(u, embeds, guard);
                self.embed_second::<Succ>(u, embeds, guard);
            }
            if !u.trie_update_claimed() && self.first_activated(u_node) {
                self.update_relaxed(u_node, guard);
            }
            self.notify_query_ops(u_node, guard);
            self.core.release(u_node, Hold::Running, guard);
        }
        self.deannounce(u_node, guard);
        self.withdraw_embeds(embeds, guard);
    }

    /// The unwind resume of a panicked update (called by
    /// [`UpdateOpGuard`]'s drop): returns a never-published node to the
    /// pool and withdraws a delete's first embedded queries, or finishes a
    /// published update, announcing it first if the owner's announcement
    /// never landed (lines 173/196).
    fn resume_update(&self, og: &UpdateOpGuard<'_>, guard: &Guard<'_>) {
        let node = og.node.get();
        match og.phase.get() {
            OpPhase::Unpublished => {
                if !node.is_null() {
                    unsafe { self.core.dealloc_node(node) };
                }
                self.withdraw_embeds(&og.embeds, guard);
            }
            OpPhase::Published => {
                self.announce(node, guard);
                self.finish_update(node, &og.embeds, guard);
            }
            OpPhase::Announced => self.finish_update(node, &og.embeds, guard),
            OpPhase::Done => {}
        }
    }

    /// `Predecessor(y)` (lines 253–256): the largest key in the set smaller
    /// than `y`, or `None` (the paper's −1). Linearizable.
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ universe`.
    pub fn predecessor(&self, y: Key) -> Option<Key> {
        let y = self.check_key(y);
        telemetry::add(Counter::PredecessorOps, 1);
        let _s = trace::span(OpKind::Predecessor, y);
        self.query::<Pred>(y)
    }

    /// `Successor(y)`: the smallest key in the set greater than `y`, or
    /// `None`. Linearizable — `Predecessor` (lines 253–256) run in the
    /// successor direction.
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ universe`.
    pub fn successor(&self, y: Key) -> Option<Key> {
        let y = self.check_key(y);
        telemetry::add(Counter::SuccessorOps, 1);
        let _s = trace::span(OpKind::Successor, y);
        self.query::<Succ>(y)
    }

    /// Lines 253–256 in direction `D`: one announced, computed and
    /// withdrawn query at key `y`.
    fn query<D: Dir>(&self, y: i64) -> Option<Key> {
        let guard = &self.domain().pin();
        let (answer, q_node) = self.query_helper::<D>(y, guard); // L254
        self.remove_query_node::<D>(q_node, guard); // L255
        (answer != D::NONE).then_some(answer as Key) // L256
    }

    /// An ordered iterator over the keys `≥ start`, produced by repeated
    /// certified successor steps that share **one** S-ALL announcement
    /// (scan subsystem v2): the first successor step announces a
    /// query node, every later step *slides* it — rewrites its query key
    /// and re-arms its published U-ALL cursor under the era seqlock — and
    /// dropping (or exhausting) the iterator withdraws it. A width-w scan
    /// therefore costs one announce + one withdraw + `w − 1` cheap slides
    /// instead of `w` announce/withdraw round-trips.
    ///
    /// **Snapshot semantics:** each step is individually linearizable
    /// (a slid step linearizes exactly like a fresh
    /// [`LockFreeBinaryTrie::successor`] call: the slide re-arms the notify
    /// threshold at the new position, and the step accepts only
    /// notifications stamped with its own era), but the scan as a whole is
    /// *not* an atomic snapshot. The yielded sequence is strictly
    /// increasing, every yielded key was in the set at its step's
    /// linearization point, and every key that is in the set throughout the
    /// entire scan (and `≥ start`) is yielded; keys concurrently inserted
    /// or removed may or may not appear.
    ///
    /// # Panics
    ///
    /// Panics if `start ≥ universe` — eagerly, at the call site
    /// (consistently with [`LockFreeBinaryTrie::successor`] and
    /// [`LockFreeBinaryTrie::range`]).
    pub fn iter_from(&self, start: Key) -> IterFrom<'_> {
        self.check_key(start);
        telemetry::add(Counter::ScanOps, 1);
        IterFrom {
            trie: self,
            s_node: core::ptr::null_mut(),
            hi: (self.universe - 1) as i64,
            state: IterState::CheckStart(start),
        }
    }

    /// Collects the keys in `range` in ascending order, by certified
    /// successor steps under a single S-ALL announcement
    /// ([`LockFreeBinaryTrie::iter_from`]'s per-step snapshot semantics
    /// apply). The upper bound is clamped to the universe, an empty range
    /// (`lo > hi`) returns no keys without touching the set, and the scan
    /// terminates as soon as the next step's lower bound would exceed the
    /// upper bound — it never runs a successor step whose answer could only
    /// be out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use lftrie_core::LockFreeBinaryTrie;
    ///
    /// let set = LockFreeBinaryTrie::new(64);
    /// for k in [3, 17, 40, 41] {
    ///     set.insert(k);
    /// }
    /// assert_eq!(set.range(3..=40), vec![3, 17, 40]);
    /// assert_eq!(set.range(4..=16), Vec::<u64>::new());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty (`lo ≤ hi`) and its start is
    /// `≥ universe` (consistently with [`LockFreeBinaryTrie::successor`] —
    /// an out-of-universe start is a caller bug, not an empty scan).
    pub fn range(&self, range: core::ops::RangeInclusive<Key>) -> Vec<Key> {
        let _s = trace::span(OpKind::Range, *range.start() as i64);
        match self.range_iter(range) {
            Some(iter) => iter.collect(),
            None => Vec::new(),
        }
    }

    /// Counts the keys in `range`: `range(a..=b).len()` without
    /// materializing the keys, under one S-ALL announcement. Same bound
    /// handling (and panics) as [`LockFreeBinaryTrie::range`].
    pub fn count(&self, range: core::ops::RangeInclusive<Key>) -> usize {
        let _s = trace::span(OpKind::Range, *range.start() as i64);
        match self.range_iter(range) {
            Some(iter) => iter.count(),
            None => 0,
        }
    }

    /// The shared bound handling of [`LockFreeBinaryTrie::range`] and
    /// [`LockFreeBinaryTrie::count`]: `None` for an empty range, otherwise
    /// a bounded iterator.
    fn range_iter(&self, range: core::ops::RangeInclusive<Key>) -> Option<IterFrom<'_>> {
        let (lo, hi) = (*range.start(), *range.end());
        if lo > hi {
            return None;
        }
        let mut iter = self.iter_from(lo); // validates lo eagerly
        iter.hi = hi.min(self.universe - 1) as i64;
        Some(iter)
    }

    /// The smallest key in the set, or `None` when empty. Linearizable:
    /// **one** certified successor step at the sentinel query key `−1`
    /// (strictly below the universe, so `successor(−1)` *is* the minimum).
    /// A composite such as `contains(0)` followed by `successor(0)` would
    /// not linearize — updates between the two calls can make the pair
    /// report an answer no single state ever had — so the whole query runs
    /// as one successor query under one S-ALL announcement.
    pub fn min(&self) -> Option<Key> {
        telemetry::add(Counter::AggregateOps, 1);
        let _s = trace::span(OpKind::Min, NO_PRED);
        self.query::<Succ>(NO_PRED) // y = −1
    }

    /// The largest key in the set, or `None` when empty. Linearizable:
    /// **one** certified predecessor step at the sentinel query key `u`
    /// (strictly above every key, so `predecessor(u)` *is* the maximum) —
    /// the mirror of [`LockFreeBinaryTrie::min`].
    pub fn max(&self) -> Option<Key> {
        telemetry::add(Counter::AggregateOps, 1);
        let _s = trace::span(OpKind::Max, self.universe as i64);
        self.query::<Pred>(self.universe as i64)
    }

    /// Removes and returns the smallest key (the priority-queue `pop`), or
    /// `None` when the set is empty at the minimum query's linearization
    /// point.
    ///
    /// Each attempt runs one [`LockFreeBinaryTrie::min`] query (one
    /// certified successor step under one S-ALL announcement) and tries to
    /// `remove` its answer; if another thread deletes that key first, the
    /// attempt retries — lock-free, as the race loser's retry is caused by
    /// another operation's progress.
    pub fn pop_min(&self) -> Option<Key> {
        loop {
            let m = self.min()?;
            if self.remove(m) {
                return Some(m);
            }
        }
    }

    /// Inserts every key in `keys` by calling [`LockFreeBinaryTrie::insert`]
    /// on each in turn; returns how many calls were S-modifying. Each
    /// insert linearizes on its own (this is not an atomic multi-insert)
    /// and pins the trie's epoch domain for its own duration only, so a
    /// long batch holds back no reclamation. Each key also withdraws its
    /// announcement before the next starts, so at most one of the batch's
    /// U-ALL announcements is ever live (the
    /// [`LockFreeBinaryTrie::announcements`] high-water is the same for any
    /// batch width).
    ///
    /// # Panics
    ///
    /// Panics if any key is `≥ universe` — before any key is inserted: the
    /// whole batch is validated up front, so a bad key never leaves a
    /// partial batch applied.
    pub fn insert_all(&self, keys: &[Key]) -> usize {
        self.batch(keys, Self::insert)
    }

    /// Removes every key in `keys` by calling [`LockFreeBinaryTrie::remove`]
    /// on each in turn — the delete mirror of
    /// [`LockFreeBinaryTrie::insert_all`], with the same per-key epoch pin
    /// and linearization. Returns how many calls were S-modifying.
    ///
    /// # Panics
    ///
    /// Panics if any key is `≥ universe` — before any key is removed (the
    /// same up-front validation as [`LockFreeBinaryTrie::insert_all`]).
    pub fn delete_all(&self, keys: &[Key]) -> usize {
        self.batch(keys, Self::remove)
    }

    /// The loop behind [`LockFreeBinaryTrie::insert_all`] and
    /// [`LockFreeBinaryTrie::delete_all`]: validates every key, then runs
    /// `update` per key.
    fn batch(&self, keys: &[Key], update: fn(&Self, Key) -> bool) -> usize {
        for &x in keys {
            self.check_key(x);
        }
        let _s = trace::span(OpKind::Batch, keys.len() as i64);
        let mut modifying = 0;
        for &x in keys {
            modifying += usize::from(update(self, x));
            fault::point(FaultPoint::BatchKeyDone);
        }
        modifying
    }

    // ------------------------------------------------------------------
    // The query engine: PredHelper (lines 207–252), in either direction
    // ------------------------------------------------------------------

    /// `PredHelper(y)` in direction `D`: announces a query node for `y` and
    /// returns the certified answer along with the still-announced node.
    fn query_helper<D: Dir>(&self, y: i64, guard: &Guard<'_>) -> (i64, *mut QueryNode) {
        let q_node = self.announce_query::<D>(y, guard); // L208–209
                                                         // From here to the return the announcement is live: a panic in the
                                                         // computation withdraws it (queries have nothing to complete).
        let qg = QueryGuard::<D> {
            trie: self,
            node: q_node,
            armed: StdCell::new(true),
            dir: PhantomData,
        };
        fault::point(FaultPoint::QueryAnnounced);

        // L210–214: Q = announcements older than ours, oldest-first (the
        // list prepends, so walking newest→oldest and reversing yields
        // oldest-first).
        let mut q: InlineVec<*mut QueryNode> = self
            .side::<D>()
            .list
            .iter_after(unsafe { (*q_node).cell() }, guard)
            .map(|c| unsafe { (*c).payload() })
            .collect();
        q.reverse();

        let answer = self.query_compute::<D>(y, 0, q_node, &q, guard);
        qg.armed.set(false);
        (answer, q_node)
    }

    /// Lines 208–209 in direction `D`: allocates a query node for key `y`
    /// and announces it on its side.
    fn announce_query<D: Dir>(&self, y: i64, guard: &Guard<'_>) -> *mut QueryNode {
        let _p = trace::phase(TracePhase::Announce);
        if D::SCAN_EVENTS {
            telemetry::event(
                Counter::ScanAnnounces,
                FlightKind::Announce,
                y,
                D::IDX as u64,
            );
        }
        let side = self.side::<D>();
        // Safety: `records` outlives every query node of the side (see
        // `QuerySide`, and this trie's `Drop`).
        let notify_list = unsafe { PushStack::new_in(&side.records) };
        let q_node = side.nodes.alloc(QueryNode::new(y, D::ORIGIN, notify_list));
        let cell = side.list.insert(q_node, guard);
        unsafe { (*q_node).set_cell(cell) };
        self.ann_add(1);
        q_node
    }

    /// Withdraws a query node's announcement and retires it.
    ///
    /// Retirement is sound here: after the list removal, the only other
    /// path to a query node is `dNode.delPredNode` (or `delSuccNode`),
    /// which the recovery computation follows only for DEL nodes found in
    /// its *own* published traversal — impossible for threads pinning after
    /// the owning `Delete` de-announced. Only the delete's owner withdraws
    /// its embedded queries, always after that de-announcement (line 205
    /// precedes line 206, in the unwind resume too), and a helper that
    /// re-announces the delete later was pinned before the retirement and
    /// withdraws its cell before it unpins (lines 135–136, or
    /// `HelpGuard`). Concurrent holders are pinned, which the grace period
    /// covers.
    fn remove_query_node<D: Dir>(&self, q_node: *mut QueryNode, guard: &Guard<'_>) {
        // Exactly-once: the claim turns a repeated withdrawal into a no-op,
        // so no path retires a node twice.
        if !unsafe { (*q_node).claim_withdraw() } {
            return;
        }
        let _p = trace::phase(TracePhase::Withdraw);
        if D::SCAN_EVENTS {
            telemetry::event(
                Counter::ScanWithdraws,
                FlightKind::Deannounce,
                unsafe { (*q_node).key() },
                D::IDX as u64,
            );
        }
        let side = self.side::<D>();
        // Safety: the cell was stored into the node by `announce_query`,
        // and the claim above makes this removal unique.
        unsafe { side.list.remove((*q_node).cell(), guard) };
        unsafe { side.nodes.retire(q_node, guard) };
        self.ann_sub(1);
    }

    /// One certified successor step that *reuses* an already-announced
    /// successor node by sliding it to query key `y` (scan subsystem v2):
    ///
    /// 1. era → odd ([`QueryNode::begin_slide`]): notifiers stand back;
    /// 2. rewrite the query key, re-arm the published cursor at `−∞`, and
    ///    reclaim the notify list — every record in it (and every record a
    ///    racing push can still land while the era is odd) carries a stale
    ///    era the new step ignores, so a long scan's per-step work and
    ///    memory stay bounded by *this* step's notifications instead of
    ///    accumulating every notification since the scan began;
    /// 3. take the S-ALL head snapshot that will seed `Q` — still inside
    ///    the slide window, so the snapshot instant is unambiguously the
    ///    step's logical announce point: an announcement inserted after it
    ///    is strictly newer than this step (it cannot also see our slid
    ///    node as older-than itself in a way that makes the older-than
    ///    relation symmetric, as a post-`end_slide` snapshot would allow);
    /// 4. era → even ([`QueryNode::end_slide`]): the step begins;
    /// 5. rebuild `Q` from that snapshot — exactly the announcements a
    ///    *fresh* announce at the snapshot instant would have found older
    ///    than itself (our own cell, physically older, is excluded);
    /// 6. run the standard certified computation, accepting only
    ///    notifications stamped with this step's era.
    ///
    /// Era-stale records are ones whose sender read our pair before this
    /// step began; dropping them reproduces the legal v1 execution in which
    /// that sender's S-ALL traversal passed before a fresh announcement.
    fn succ_step_slide(&self, s_node: *mut QueryNode, y: i64, guard: &Guard<'_>) -> i64 {
        // Before the slide begins: a panic here leaves the node stable
        // (even era) and still announced — the scan's drop withdraws it.
        fault::point(FaultPoint::ScanStep);
        telemetry::add(Counter::ScanSlides, 1);
        let s = unsafe { &*s_node };
        s.begin_slide();
        s.set_key(y);
        s.position.publish(Succ::ORIGIN);
        // Safety: only the scan owner (us) ever reads this notify list — a
        // scan's node is never a delete's embedded `delSuccNode`, which is
        // the one cross-thread read path to successor notify lists.
        unsafe { s.notify_list.clear() };
        let snap = self.side::<Succ>().list.head_snapshot(guard);
        let era = s.end_slide();
        telemetry::flight(FlightKind::Slide, y, era);
        let mut q: InlineVec<*mut QueryNode> = self
            .side::<Succ>()
            .list
            .iter_from(snap, guard)
            .map(|c| unsafe { (*c).payload() })
            .filter(|&p| p != s_node)
            .collect();
        q.reverse();
        self.query_compute::<Succ>(y, era, s_node, &q, guard)
    }

    /// The certified computation of `PredHelper` after the announcement
    /// (lines 215–252) in direction `D`: traversals, notification harvest,
    /// and ⊥-recovery for the announced `q_node` at query key `y`. `era` is
    /// the step's even era; records stamped with any other era are ignored
    /// (0 for queries that never slide, so every record matches).
    fn query_compute<D: Dir>(
        &self,
        y: i64,
        era: u64,
        q_node: *mut QueryNode,
        q: &[*mut QueryNode],
        guard: &Guard<'_>,
    ) -> i64 {
        let (i_pub, d_pub) = self.traverse_published::<D>(q_node, guard); // L215
        let r0 = bitops::relaxed_query::<D, _>(&self.core, self, y); // L216
        let (i_plain, d_plain) = self.traverse_plain::<D>(y, guard); // L217

        // L218–227: collect notifications (head read = C_notify). Records
        // are value snapshots; identity tests use never-reused seq ids. The
        // notify threshold is the receiver's cursor at send time: beyond a
        // key, the traversal had already passed it.
        let mut i_notify = InlineVec::<NotifyCand>::new();
        let mut d_notify = InlineVec::<NotifyCand>::new();
        for record in unsafe { &*q_node }.notify_list.iter() {
            // Records from other eras target another step of a sliding
            // scan, not this one. L219: notify nodes with keys beyond y.
            if record.era != era || !D::beyond(record.key, y) {
                continue;
            }
            let threshold = record.notify_threshold;
            if record.kind == Kind::Ins {
                // L220
                if !D::beyond(record.key, threshold)
                    && !i_notify.iter().any(|c| c.seq == record.seq)
                {
                    i_notify.push(NotifyCand {
                        seq: record.seq,
                        key: record.key,
                    }); // L221–222
                }
            } else if D::beyond(threshold, record.key)
                && !d_notify.iter().any(|c| c.seq == record.seq)
            {
                d_notify.push(NotifyCand {
                    seq: record.seq,
                    key: record.key,
                }); // L223–225
            }
            // L226–227: accept the notifier's updateNodeMax when the
            // notification arrived after our published traversal finished
            // and the notifier itself was not seen during that traversal.
            if threshold == D::TAIL
                && !i_pub.iter().any(|&u| seq_of(u) == record.seq)
                && !d_pub.iter().any(|&u| seq_of(u) == record.seq)
                && record.ext_seq != 0
                && !i_notify.iter().any(|c| c.seq == record.ext_seq)
            {
                i_notify.push(NotifyCand {
                    seq: record.ext_seq,
                    key: record.ext_key,
                });
            }
        }

        // L228: r1 = best key over
        // Iplain ∪ Inotify ∪ (Dplain − Dpub) ∪ (Dnotify − Dpub).
        let mut r1 = D::NONE;
        for &u in i_plain.iter() {
            r1 = D::best(r1, unsafe { (*u).key() });
        }
        for c in i_notify.iter() {
            r1 = D::best(r1, c.key);
        }
        for &u in d_plain.iter() {
            if !d_pub.contains(&u) {
                r1 = D::best(r1, unsafe { (*u).key() });
            }
        }
        for c in d_notify.iter() {
            if !d_pub.iter().any(|&u| seq_of(u) == c.seq) {
                r1 = D::best(r1, c.key);
            }
        }

        // L229–251: the relaxed traversal failed — recover from embedded
        // query results.
        let r0 = match r0 {
            Some(v) => v,
            None => {
                let side = self.side::<D>();
                side.bottoms.fetch_add(1, Ordering::Relaxed);
                telemetry::add(Counter::RelaxedBottoms, 1);
                if d_pub.is_empty() {
                    D::NONE // only r1 constrains the answer (see §5.2)
                } else {
                    side.recoveries.fetch_add(1, Ordering::Relaxed);
                    telemetry::event(Counter::Recoveries, FlightKind::Recovery, y, D::IDX as u64);
                    let _p = trace::phase(TracePhase::Recovery);
                    self.recover_from_embedded::<D>(y, era, q_node, q, &d_pub) // L230–251
                }
            }
        };
        D::best(r0, r1) // L252
    }

    /// Lines 231–251 in direction `D`: Definition 5.1's graph computation
    /// over the notify lists of this operation and of the oldest relevant
    /// embedded query.
    fn recover_from_embedded<D: Dir>(
        &self,
        y: i64,
        era: u64,
        q_node: *mut QueryNode,
        q: &[*mut QueryNode],
        d_pub: &[*mut UpdateNode],
    ) -> i64 {
        // L232: query nodes of the first embedded queries of Dpub's
        // deletes.
        let embedded: Vec<*mut QueryNode> = d_pub
            .iter()
            .map(|&d| unsafe { (*d).del_node::<D>() })
            .collect();

        // L231–236: L1 from the *earliest announced* such node we saw in Q
        // (Q is oldest-first, so the first match). Entries are value
        // snapshots of the records — nothing here dereferences a notifier.
        let mut l1: Vec<NotifyRecord> = Vec::new();
        if let Some(&earliest) = q.iter().find(|&&n| embedded.contains(&n)) {
            // L233–234
            for record in unsafe { &*earliest }.notify_list.iter() {
                // L235–236: prepend updateNode if not already present.
                if D::beyond(record.key, y) && !l1.iter().any(|e| e.seq == record.seq) {
                    l1.insert(0, *record);
                }
            }
        }

        // L237–241: L2 from our own notify list; also remove from L1 every
        // update node that notified us. Records from other eras belong to
        // other steps of a sliding scan — a fresh announce would not have
        // received them at all, so they are invisible here too.
        let mut l2: Vec<NotifyRecord> = Vec::new();
        for record in unsafe { &*q_node }.notify_list.iter() {
            // L238
            if record.era != era || !D::beyond(record.key, y) {
                continue;
            }
            l1.retain(|e| e.seq != record.seq); // L239
            if !D::beyond(record.notify_threshold, record.key)
                && !l2.iter().any(|e| e.seq == record.seq)
            {
                l2.insert(0, *record); // L240–241
            }
        }

        // L242: L = L1 · L2.
        let mut l: Vec<NotifyRecord> = l1;
        l.extend(l2);

        // L243: drop DEL nodes that are not the last update node in L with
        // their key (so ≤ 1 DEL node per key survives).
        let l: Vec<NotifyRecord> = l
            .iter()
            .enumerate()
            .filter(|&(i, e)| e.kind == Kind::Ins || !l[i + 1..].iter().any(|v| v.key == e.key))
            .map(|(_, &e)| e)
            .collect();

        // L244–246 (Definition 5.1): edges key(dNode) → dNode.delPred2 for
        // DEL nodes in L. Each vertex has ≤ 1 outgoing edge and every edge
        // moves strictly beyond its source, so chains terminate.
        let mut edges: Vec<(i64, i64)> = Vec::new();
        for e in &l {
            if e.kind == Kind::Del {
                // A DEL node only notifies after line 201 set delPred2, so
                // the snapshot is always present (§5.2).
                debug_assert_ne!(e.del2, DEL2_UNSET, "DEL in L without delPred2");
                if e.del2 != DEL2_UNSET {
                    edges.push((e.key, e.del2));
                }
            }
        }
        let out_edge = |v: i64| edges.iter().find(|&&(u, _)| u == v).map(|&(_, w)| w);

        // L247–248: X = delPred results of Dpub ∪ keys of INS nodes in L.
        let mut x_set: Vec<i64> = d_pub
            .iter()
            .map(|&d| unsafe { (*d).del_result::<D>() })
            .collect();
        for e in &l {
            if e.kind == Kind::Ins {
                x_set.push(e.key);
            }
        }

        // L249: R = sinks of T_L reachable from X (edges strictly move
        // beyond their source, so following out-edges terminates at the
        // sink).
        let mut r_set: Vec<i64> = Vec::new();
        for &start in &x_set {
            let mut v = start;
            while let Some(next) = out_edge(v) {
                debug_assert!(
                    D::beyond(next, v),
                    "delPred2 edges must move beyond (Def. 5.1)"
                );
                v = next;
            }
            r_set.push(v);
        }

        // L250: deleted keys (per Dpub) cannot be answers.
        r_set.retain(|&w| !d_pub.iter().any(|&d| unsafe { (*d).key() } == w));

        // L251: the best of R; the paper proves R is non-empty here.
        r_set.into_iter().fold(D::NONE, D::best)
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Quiescent snapshot of the set's contents (O(u); for tests, examples
    /// and experiment verification — not part of the paper's API).
    pub fn collect_keys(&self) -> Vec<Key> {
        (0..self.universe).filter(|&x| self.contains(x)).collect()
    }

    /// Relaxed-traversal outcomes of all `predecessor` calls so far
    /// (experiment E5): how often the relaxed traversal answered `⊥` and
    /// how often the announcement-list recovery computation repaired it.
    pub fn pred_traversal(&self) -> TraversalStats {
        self.side::<Pred>().traversal()
    }

    /// The successor counterpart of [`LockFreeBinaryTrie::pred_traversal`].
    pub fn succ_traversal(&self) -> TraversalStats {
        self.side::<Succ>().traversal()
    }

    /// Number of live announcements in each list — all zero at quiescence
    /// (Figure 5 shape checks).
    pub fn announcements(&self) -> AnnouncementLens {
        AnnouncementLens {
            uall: self.uall.len(),
            ruall: self.ruall.len(),
            pall: self.side::<Pred>().list.len(),
            sall: self.side::<Succ>().list.len(),
            high_water: self.ann_high_water.load(Ordering::Relaxed) as usize,
        }
    }

    /// Total update nodes allocated over the trie's lifetime (the paper's
    /// GC-model E6 metric; includes the dummies inserts installed, and is 0
    /// until an insert).
    pub fn allocated_nodes(&self) -> usize {
        self.core.allocated_nodes()
    }

    /// Update nodes currently resident (`allocated − reclaimed`): the
    /// steady-state footprint. Under churn this stays bounded by the live
    /// set plus O(u) structural slots plus the epoch window, independent of
    /// how many updates ever ran (`tests/memory_bound.rs`).
    pub fn live_nodes(&self) -> usize {
        self.core.live_nodes()
    }

    /// Update nodes freed by epoch reclamation so far.
    pub fn reclaimed_nodes(&self) -> usize {
        self.core.reclaimed_nodes()
    }

    /// Predecessor-node accounting: `(cumulative, live)`.
    pub fn pred_node_counts(&self) -> (usize, usize) {
        let nodes = &self.side::<Pred>().nodes;
        (nodes.created(), nodes.live())
    }

    /// Successor-node accounting: `(cumulative, live)`.
    pub fn succ_node_counts(&self) -> (usize, usize) {
        let nodes = &self.side::<Succ>().nodes;
        (nodes.created(), nodes.live())
    }

    /// Allocation statistics of the update-node registry: fresh heap boxes
    /// vs recycled pool hits vs resident memory. Under warm steady-state
    /// churn `fresh` plateaus — every update node is served from a pool —
    /// which `tests/alloc_plateau.rs` asserts.
    pub fn node_alloc_stats(&self) -> AllocStats {
        self.core.node_alloc_stats()
    }

    /// Allocation statistics of the predecessor-node registry.
    pub fn pred_alloc_stats(&self) -> AllocStats {
        self.side::<Pred>().nodes.stats()
    }

    /// Allocation statistics of the successor-node registry.
    pub fn succ_alloc_stats(&self) -> AllocStats {
        self.side::<Succ>().nodes.stats()
    }

    /// Allocation statistics of the notify-record registries:
    /// `(predecessor side, successor side)`.
    pub fn record_alloc_stats(&self) -> (AllocStats, AllocStats) {
        let (preds, succs) = (self.side::<Pred>(), self.side::<Succ>());
        (preds.records.stats(), succs.records.stats())
    }

    /// Allocation statistics of the four auxiliary-list cell registries,
    /// by list.
    pub fn cell_allocs(&self) -> CellAllocStats {
        CellAllocStats {
            uall: self.uall.cell_stats(),
            ruall: self.ruall.cell_stats(),
            pall: self.side::<Pred>().list.cell_stats(),
            sall: self.side::<Succ>().list.cell_stats(),
        }
    }

    /// The unified observability read-out: the process-global counters and
    /// histograms of [`lftrie_telemetry`], with every gauge this trie can
    /// sample attached — the health of its own epoch domain (epoch, pin
    /// lag, the stalled-reader detector), per-registry reclamation health
    /// for all seven registries this trie owns (update nodes,
    /// predecessor/successor nodes, and the four announcement-list cell
    /// registries), announcement-list lengths, and relaxed-traversal outcomes
    /// (predecessor + successor combined; see
    /// [`LockFreeBinaryTrie::pred_traversal`] /
    /// [`LockFreeBinaryTrie::succ_traversal`] for the split).
    ///
    /// O(announcements) — the length gauges walk the lists — so this is a
    /// sampling/diagnostic call, not a hot-path one.
    ///
    /// # Examples
    ///
    /// ```
    /// use lftrie_core::LockFreeBinaryTrie;
    ///
    /// let set = LockFreeBinaryTrie::new(64);
    /// set.insert(9);
    /// let snap = set.telemetry();
    /// assert!(snap.epoch.is_some());
    /// assert_eq!(snap.reclaim.len(), 7);
    /// println!("{}", snap.to_prometheus());
    /// ```
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let pred = self.pred_traversal();
        let succ = self.succ_traversal();
        let (preds, succs) = (self.side::<Pred>(), self.side::<Succ>());
        let mut snap = telemetry::snapshot();
        snap.epoch = Some(self.domain().health());
        snap.reclaim = vec![
            self.core.node_health("nodes"),
            preds.nodes.health("preds"),
            succs.nodes.health("succs"),
            self.uall.cell_health("uall_cells"),
            self.ruall.cell_health("ruall_cells"),
            preds.list.cell_health("pall_cells"),
            succs.list.cell_health("sall_cells"),
        ];
        snap.announcements = Some(self.announcements());
        snap.traversal = Some(TraversalStats {
            bottoms: pred.bottoms + succ.bottoms,
            recoveries: pred.recoveries + succ.recoveries,
        });
        snap
    }

    /// Runs quiescent reclamation sweeps on every registry this trie owns
    /// (update nodes, predecessor/successor nodes, announcement-list
    /// cells): after a few epoch turns, everything retired and unreferenced
    /// is freed. Called by tests and the space experiment before sampling
    /// `live_nodes`.
    pub fn collect_garbage(&self) {
        self.core.flush_reclamation();
        for side in &self.sides {
            side.nodes.flush();
        }
        self.uall.flush_reclamation();
        self.ruall.flush_reclamation();
        for side in &self.sides {
            side.list.flush_reclamation();
        }
    }
}

/// State machine of [`LockFreeBinaryTrie::iter_from`].
enum IterState {
    /// Next `next()` call must first test membership of the start key.
    CheckStart(Key),
    /// Keys `≤ .0` have been reported; continue with `successor(.0)`.
    After(Key),
    /// The scan ended (walked off the top of the set or past its bound)
    /// and its announcement has been withdrawn.
    Done,
}

/// Ordered iterator over a [`LockFreeBinaryTrie`]'s keys; see
/// [`LockFreeBinaryTrie::iter_from`] for the per-step snapshot semantics.
///
/// The iterator owns one S-ALL announcement for its whole lifetime: the
/// first successor step announces a query node, later steps slide it, and
/// exhaustion or `drop` withdraws it.
///
/// # Forgetting a scan
///
/// Only `drop` (or exhaustion) withdraws the announcement. A scan
/// forgotten with [`core::mem::forget`] keeps its one S-ALL announcement
/// until the trie drops, and every later update pushes a notify record
/// onto it. That is safe — answers stay exact, updates still complete,
/// and dropping the trie frees the node — but it is a leak, as forgetting
/// any guard is (a forgotten `MutexGuard` keeps its lock).
pub struct IterFrom<'a> {
    trie: &'a LockFreeBinaryTrie,
    /// The scan's announced successor node; null until the first successor
    /// step, null again after withdrawal.
    s_node: *mut QueryNode,
    /// Inclusive upper bound (`universe − 1` for an unbounded scan): the
    /// scan stops, without running another step, once a step could only
    /// answer above it.
    hi: i64,
    state: IterState,
}

impl IterFrom<'_> {
    /// One certified successor step under this scan's shared announcement:
    /// the first step announces the scan's query node, every later step
    /// slides it.
    fn step(&mut self, y: i64) -> i64 {
        let guard = &self.trie.domain().pin();
        if self.s_node.is_null() {
            let (succ, s_node) = self.trie.query_helper::<Succ>(y, guard);
            self.s_node = s_node;
            succ
        } else {
            self.trie.succ_step_slide(self.s_node, y, guard)
        }
    }

    /// Ends the scan and withdraws its announcement (idempotent).
    fn finish(&mut self) {
        self.state = IterState::Done;
        // A suspended scan keeps its announcement, like any stalled
        // operation.
        if self.s_node.is_null() || fault::is_suspending() {
            return;
        }
        // Pin before giving up the node: if the pin panics, the drop on
        // the way out still finds the node to withdraw.
        let guard = &self.trie.domain().pin();
        let s_node = core::mem::replace(&mut self.s_node, core::ptr::null_mut());
        self.trie.remove_query_node::<Succ>(s_node, guard);
    }
}

impl Iterator for IterFrom<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        loop {
            match self.state {
                IterState::CheckStart(start) => {
                    self.state = IterState::After(start);
                    if self.trie.contains(start) {
                        return Some(start);
                    }
                }
                IterState::After(cur) => {
                    if cur as i64 >= self.hi {
                        // `successor(cur)` could only answer above the
                        // bound; stop without running the step.
                        self.finish();
                        return None;
                    }
                    let succ = self.step(cur as i64);
                    if succ == Succ::NONE || succ > self.hi {
                        self.finish();
                        return None;
                    }
                    self.state = IterState::After(succ as Key);
                    return Some(succ as Key);
                }
                IterState::Done => return None,
            }
        }
    }
}

impl Drop for IterFrom<'_> {
    fn drop(&mut self) {
        // Withdraw the announcement of a scan dropped before its end;
        // without this, every notifier would keep paying for it forever.
        self.finish();
    }
}

impl core::fmt::Debug for IterFrom<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let state = match self.state {
            IterState::CheckStart(k) => ("check-start", k),
            IterState::After(k) => ("after", k),
            IterState::Done => ("done", 0),
        };
        f.debug_struct("IterFrom")
            .field("state", &state)
            .field("announced", &!self.s_node.is_null())
            .field("hi", &self.hi)
            .finish()
    }
}

impl Drop for LockFreeBinaryTrie {
    fn drop(&mut self) {
        // Free query nodes still announced at teardown (suspended
        // operations, forgotten scans): their cells are still linked in the
        // P-ALL / S-ALL.
        // De-announced nodes were retired and are freed by their registry's
        // own Drop; marked-but-linked cells' payloads were retired too, so
        // only unmarked cells carry live payloads.
        for side in &mut self.sides {
            let nodes = &side.nodes;
            side.list.for_each_linked(|q_node, marked| {
                if !marked && !q_node.is_null() {
                    unsafe { nodes.dealloc(q_node) };
                }
            });
        }
    }
}

impl core::fmt::Debug for LockFreeBinaryTrie {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let a = self.announcements();
        f.debug_struct("LockFreeBinaryTrie")
            .field("universe", &self.universe)
            .field("uall", &a.uall)
            .field("ruall", &a.ruall)
            .field("pall", &a.pall)
            .field("sall", &a.sall)
            .field("allocated_nodes", &self.allocated_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lftrie_telemetry::CounterTotals;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Runs `f`, returning its result and the counters it recorded on this
    /// thread (exact: no other thread writes this thread's shard).
    fn recorded<T>(f: impl FnOnce() -> T) -> (T, CounterTotals) {
        let before = telemetry::thread_counters();
        let out = f();
        (out, telemetry::thread_counters() - before)
    }

    /// The S-ALL `(announces, slides, withdraws)` of a recorded interval.
    fn scan_events(ev: &CounterTotals) -> (u64, u64, u64) {
        (
            ev.get(Counter::ScanAnnounces),
            ev.get(Counter::ScanSlides),
            ev.get(Counter::ScanWithdraws),
        )
    }

    fn model_pred(model: &BTreeSet<u64>, y: u64) -> Option<u64> {
        model.range(..y).next_back().copied()
    }

    #[test]
    fn empty_trie_behaviour() {
        let t = LockFreeBinaryTrie::new(16);
        assert!(!t.contains(7));
        assert_eq!(t.predecessor(15), None);
        assert!(!t.remove(3), "delete of absent key is not S-modifying");
    }

    #[test]
    fn basic_insert_search_delete_predecessor() {
        let t = LockFreeBinaryTrie::new(64);
        assert!(t.insert(10));
        assert!(t.insert(20));
        assert!(!t.insert(20));
        assert!(t.contains(10));
        assert_eq!(t.predecessor(15), Some(10));
        assert_eq!(t.predecessor(21), Some(20));
        assert_eq!(t.predecessor(10), None);
        assert!(t.remove(10));
        assert_eq!(t.predecessor(15), None);
        assert_eq!(t.predecessor(21), Some(20));
    }

    #[test]
    fn announcements_drain_at_quiescence() {
        let t = LockFreeBinaryTrie::new(32);
        for x in 0..32 {
            t.insert(x);
        }
        for x in (0..32).step_by(2) {
            t.remove(x);
        }
        for y in 0..32 {
            let _ = t.predecessor(y);
        }
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn sequential_random_ops_match_btreeset() {
        let universe = 128u64;
        let t = LockFreeBinaryTrie::new(universe);
        let mut model = BTreeSet::new();
        let mut state = 0xB7E151628AED2A6Bu64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) % universe;
            match state % 4 {
                0 => assert_eq!(t.insert(x), model.insert(x), "insert {x} @{step}"),
                1 => assert_eq!(t.remove(x), model.remove(&x), "remove {x} @{step}"),
                2 => assert_eq!(t.contains(x), model.contains(&x), "contains {x} @{step}"),
                _ => assert_eq!(t.predecessor(x), model_pred(&model, x), "pred {x} @{step}"),
            }
        }
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn delete_runs_embedded_predecessors() {
        let t = LockFreeBinaryTrie::new(16);
        t.insert(3);
        t.insert(9);
        // Deleting 9 runs PredHelper(9) twice; both should see 3.
        assert!(t.remove(9));
        assert_eq!(t.predecessor(10), Some(3));
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn concurrent_disjoint_stripes_agree_with_models() {
        let universe = 1u64 << 9;
        let t = Arc::new(LockFreeBinaryTrie::new(universe));
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let lo = tid * 128;
                    let mut model = BTreeSet::new();
                    let mut state = tid ^ 0xDEADBEEFCAFEF00D;
                    for _ in 0..3_000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let x = lo + (state >> 33) % 128;
                        if state % 2 == 0 {
                            assert_eq!(t.insert(x), model.insert(x));
                        } else {
                            assert_eq!(t.remove(x), model.remove(&x));
                        }
                    }
                    (lo, model)
                })
            })
            .collect();
        for h in handles {
            let (lo, model) = h.join().unwrap();
            for x in lo..lo + 128 {
                assert_eq!(t.contains(x), model.contains(&x), "key {x}");
            }
        }
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn predecessor_remains_exact_under_update_contention() {
        // Writers toggle "noise" keys while a fixed key below them stays
        // put; predecessor(noise_floor) must always see the fixed key.
        let t = Arc::new(LockFreeBinaryTrie::new(256));
        t.insert(10); // fixed
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let k = 100 + ((w * 31 + i * 7) % 64);
                        t.insert(k);
                        t.remove(k);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..10_000 {
            // 50 < 100: noise is above the query, must never affect it.
            assert_eq!(t.predecessor(50), Some(10));
        }
        // Queries above the noise must return ≥ 10 and < 200, and any key
        // they return must be 10 or a noise key.
        for _ in 0..10_000 {
            match t.predecessor(200) {
                Some(k) => assert!(k == 10 || (100..164).contains(&k), "got {k}"),
                None => panic!("10 is always present"),
            }
        }
        stop.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
    }

    fn model_succ(model: &BTreeSet<u64>, y: u64) -> Option<u64> {
        model.range(y + 1..).next().copied()
    }

    #[test]
    fn basic_successor_and_range() {
        let t = LockFreeBinaryTrie::new(64);
        assert_eq!(t.successor(0), None);
        for k in [3u64, 17, 40, 41, 63] {
            assert!(t.insert(k));
        }
        assert_eq!(t.successor(0), Some(3));
        assert_eq!(t.successor(3), Some(17));
        assert_eq!(t.successor(40), Some(41));
        assert_eq!(t.successor(63), None);
        assert_eq!(t.range(0..=63), vec![3, 17, 40, 41, 63]);
        assert_eq!(t.range(17..=41), vec![17, 40, 41]);
        assert_eq!(t.range(18..=39), Vec::<u64>::new());
        let (lo, hi) = (5u64, 3u64); // inverted bounds: empty scan
        assert_eq!(t.range(lo..=hi), Vec::<u64>::new());
        assert_eq!(t.iter_from(41).collect::<Vec<_>>(), vec![41, 63]);
        t.remove(40);
        assert_eq!(t.successor(17), Some(41));
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn range_clamps_to_universe() {
        let t = LockFreeBinaryTrie::new(16);
        t.insert(14);
        t.insert(15);
        assert_eq!(t.range(0..=u64::MAX), vec![14, 15]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn range_start_outside_universe_panics() {
        let t = LockFreeBinaryTrie::new(16);
        let _ = t.range(16..=20);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn iter_from_start_outside_universe_panics_eagerly() {
        let t = LockFreeBinaryTrie::new(16);
        // The panic must fire here, not on the first `next()`.
        let _iter = t.iter_from(16);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // empty input is the point
    fn empty_range_never_validates_its_start() {
        // `lo > hi` is an empty scan even when `lo` is outside the
        // universe: emptiness is decided before start validation.
        let t = LockFreeBinaryTrie::new(16);
        t.insert(3);
        assert_eq!(t.range(20..=5), Vec::<u64>::new());
        assert_eq!(t.count(20..=5), 0);
    }

    #[test]
    fn aggregates_match_model() {
        let t = LockFreeBinaryTrie::new(64);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.pop_min(), None);
        assert_eq!(t.count(0..=63), 0);
        for k in [3u64, 17, 40, 41, 63] {
            t.insert(k);
        }
        assert_eq!(t.min(), Some(3));
        assert_eq!(t.max(), Some(63));
        assert_eq!(t.count(0..=63), 5);
        assert_eq!(t.count(17..=41), 3);
        assert_eq!(t.count(18..=39), 0);
        assert_eq!(t.count(41..=41), 1);
        assert_eq!(t.count(0..=u64::MAX), 5); // clamped, like `range`
        assert_eq!(t.pop_min(), Some(3));
        assert_eq!(t.pop_min(), Some(17));
        assert_eq!(t.min(), Some(40));
        t.insert(0);
        assert_eq!(t.min(), Some(0));
        t.insert(63); // already present
        assert_eq!(t.max(), Some(63));
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn min_is_one_certified_successor_step() {
        // min() must be a single query (one S-ALL announce/withdraw), not a
        // contains + successor composite — the composite is not
        // linearizable (see `concurrent_min_never_reports_empty` in
        // tests/aggregates.rs for the interleaving).
        let t = LockFreeBinaryTrie::new(64);
        t.insert(5);
        let (m, ev) = recorded(|| t.min());
        assert_eq!(m, Some(5));
        assert_eq!(scan_events(&ev), (1, 0, 1));
        // Including on an empty set, where the root descent reads ⊥ and the
        // no-announced-delete recovery arm certifies emptiness.
        let t2 = LockFreeBinaryTrie::new(64);
        let (m, ev) = recorded(|| t2.min());
        assert_eq!(m, None);
        assert_eq!(scan_events(&ev), (1, 0, 1));
    }

    #[test]
    fn min_max_at_universe_edges() {
        // The sentinel query keys (−1 for min, u for max) must handle keys
        // at both edges of the universe.
        let t = LockFreeBinaryTrie::new(16);
        t.insert(0);
        t.insert(15);
        assert_eq!(t.min(), Some(0));
        assert_eq!(t.max(), Some(15));
        t.remove(0);
        t.remove(15);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        t.insert(7);
        assert_eq!((t.min(), t.max()), (Some(7), Some(7)));
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn batch_with_bad_key_panics_before_any_update() {
        // A key ≥ universe must abort the whole batch up front: a lazy
        // per-key check would leave the keys before it applied.
        let t = LockFreeBinaryTrie::new(16);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert_all(&[3, 7, 99]);
        }));
        assert!(panicked.is_err());
        assert!(!t.contains(3) && !t.contains(7), "partial batch applied");
        assert!(t.announcements().is_empty(), "leaked announcements");

        t.insert(3);
        t.insert(7);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.delete_all(&[3, 7, 99]);
        }));
        assert!(panicked.is_err());
        assert!(t.contains(3) && t.contains(7), "partial batch applied");
        assert!(t.announcements().is_empty(), "leaked announcements");
    }

    #[test]
    fn batched_updates_match_individual_semantics() {
        let t = LockFreeBinaryTrie::new(64);
        assert_eq!(t.insert_all(&[5, 9, 5, 23]), 3); // duplicate in batch
        assert!(t.contains(5) && t.contains(9) && t.contains(23));
        assert_eq!(t.insert_all(&[9, 10]), 1); // 9 already present
        assert_eq!(t.range(0..=63), vec![5, 9, 10, 23]);
        assert_eq!(t.delete_all(&[9, 42, 9]), 1); // absent + double delete
        assert_eq!(t.delete_all(&[5, 10, 23]), 3);
        assert_eq!(t.range(0..=63), Vec::<u64>::new());
        assert_eq!(t.insert_all(&[]), 0);
        assert_eq!(t.delete_all(&[]), 0);
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn batch_updates_pipeline_their_announcements() {
        // Regression: `insert_all`/`delete_all` used to hold every key's
        // U-ALL announcement until a shared notify traversal at the end of
        // the batch, so a width-w batch kept w announcements live at once —
        // and every concurrent notifier paid O(w) per update for the
        // duration. The pipelined form withdraws each key's announcement as
        // soon as its own notify pass completes: the trie's announcement
        // high-water must not grow with the batch width.
        let high_water = |width: u64| {
            let t = LockFreeBinaryTrie::new(128);
            let keys: Vec<u64> = (0..width).collect();
            let (applied, ev) = recorded(|| t.insert_all(&keys));
            assert_eq!(applied as u64, width);
            assert_eq!(ev.get(Counter::UpdateAnnounces), width);
            let after_insert = t.announcements().high_water;
            let (applied, ev) = recorded(|| t.delete_all(&keys));
            assert_eq!(applied as u64, width);
            assert_eq!(ev.get(Counter::UpdateAnnounces), width);
            assert!(t.announcements().is_empty());
            (after_insert, t.announcements().high_water)
        };
        let single = high_water(1);
        for width in [2, 8, 64] {
            assert_eq!(high_water(width), single, "width-{width} batch");
        }
    }

    #[test]
    fn scan_costs_one_announce_one_withdraw() {
        let t = LockFreeBinaryTrie::new(64);
        for k in (0..=62u64).step_by(2) {
            t.insert(k);
        }

        // A plain successor query is one announce/withdraw round-trip.
        let (_, ev) = recorded(|| t.successor(10));
        assert_eq!(scan_events(&ev), (1, 0, 1));

        // A width-32 scan: one announce, one withdraw, slides for every
        // certified step after the first. Steps run from 0,2,…,60 (the
        // step at 62 is suppressed by the bound), so 31 steps total.
        let (keys, ev) = recorded(|| t.range(0..=62));
        assert_eq!(keys.len(), 32);
        assert_eq!(scan_events(&ev), (1, 30, 1));

        // Regression: the scan must not run a certified step whose answer
        // could only exceed the bound. 17 ∈ set, hi = 17: steps 0→3
        // (announce) and 3→17 (slide), then stop — the v1 code ran a third
        // step 17→40 and discarded it.
        let t2 = LockFreeBinaryTrie::new(64);
        for k in [3u64, 17, 40] {
            t2.insert(k);
        }
        let (keys, ev) = recorded(|| t2.range(0..=17));
        assert_eq!(keys, vec![3, 17]);
        assert_eq!(scan_events(&ev), (1, 1, 1));
    }

    #[test]
    fn dropped_scan_withdraws_its_announcement() {
        let t = LockFreeBinaryTrie::new(64);
        for k in [3u64, 17, 40] {
            t.insert(k);
        }
        let mut iter = t.iter_from(0);
        assert_eq!(iter.next(), Some(3));
        assert_eq!(iter.next(), Some(17));
        drop(iter); // dropped mid-scan: the query node must be withdrawn
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn sequential_random_successor_matches_btreeset() {
        let universe = 128u64;
        let t = LockFreeBinaryTrie::new(universe);
        let mut model = BTreeSet::new();
        let mut state = 0x452821E638D01377u64;
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) % universe;
            match state % 4 {
                0 => assert_eq!(t.insert(x), model.insert(x), "insert {x} @{step}"),
                1 => assert_eq!(t.remove(x), model.remove(&x), "remove {x} @{step}"),
                2 => assert_eq!(t.successor(x), model_succ(&model, x), "succ {x} @{step}"),
                _ => {
                    let hi = (x + 16).min(universe - 1);
                    let expected: Vec<u64> = model.range(x..=hi).copied().collect();
                    assert_eq!(t.range(x..=hi), expected, "range {x}..={hi} @{step}");
                }
            }
        }
        assert!(t.announcements().is_empty());
    }

    #[test]
    fn successor_remains_exact_under_update_contention() {
        // The mirror of the predecessor contention test: writers toggle
        // noise keys *below* a fixed key; successor queries from above the
        // noise floor must always see the fixed key.
        let t = Arc::new(LockFreeBinaryTrie::new(256));
        t.insert(200); // fixed
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let k = 50 + ((w * 31 + i * 7) % 64);
                        t.insert(k);
                        t.remove(k);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..10_000 {
            // Noise tops out at 113 < 150: it must never affect the query.
            assert_eq!(t.successor(150), Some(200));
        }
        // Queries below the noise must return a noise key or 200.
        for _ in 0..10_000 {
            match t.successor(10) {
                Some(k) => assert!(k == 200 || (50..114).contains(&k), "got {k}"),
                None => panic!("200 is always present"),
            }
        }
        stop.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn delete_runs_embedded_successors() {
        let t = LockFreeBinaryTrie::new(16);
        t.insert(3);
        t.insert(9);
        // Deleting 3 runs SuccHelper(3) twice; both should see 9.
        assert!(t.remove(3));
        assert_eq!(t.successor(1), Some(9));
        assert!(t.announcements().is_empty());
        let (_, succ_live) = t.succ_node_counts();
        t.collect_garbage();
        assert!(succ_live <= 4, "succ nodes drain at quiescence");
    }

    #[test]
    fn a_pin_from_before_a_slot_is_replaced_keeps_its_del_node_readable() {
        let t = LockFreeBinaryTrie::new(8);
        let parent = t.core.layout().parent(t.core.layout().leaf(1));
        assert!(t.insert(1));
        assert!(t.remove(1)); // installs its DEL node in the slots above 1
        t.collect_garbage();
        let reader = t.domain().register();
        let pin = reader.pin();
        let old = t.core.dnode_load(parent);
        assert!(!old.is_null());
        // The next delete of 1 replaces `old` in every slot it holds, and
        // `old`'s insert-time cut already released its link.
        assert!(t.insert(1));
        assert!(t.remove(1));
        assert_ne!(t.core.dnode_load(parent), old, "the slot was replaced");
        let reclaimed = t.core.reclaimed_nodes();
        for _ in 0..4 {
            t.collect_garbage();
        }
        assert_eq!(t.core.reclaimed_nodes(), reclaimed, "freed under the pin");
        let node = unsafe { &*old };
        assert_eq!((node.key(), node.kind()), (1, Kind::Del), "still readable");
        drop(pin);
        t.collect_garbage();
        let resident = t.core.resident();
        assert!(!resident.contains(&old));
        assert_eq!(
            t.core.live_nodes(),
            resident.len(),
            "the old DEL node was freed"
        );
    }

    #[test]
    fn an_ins_node_holds_its_target_until_it_is_freed() {
        // Universe 8. Inserting 4 first makes its INS node target 0's dummy
        // at the root (L42's second disjunct holds for a dummy); inserting
        // 0 then cuts the dummy, which only that target holds afterwards.
        let t = LockFreeBinaryTrie::new(8);
        assert!(t.insert(4));
        let i4 = t.core.latest_head(4);
        let dummy = unsafe { (*i4).target() };
        assert!(!dummy.is_null());
        assert_eq!(t.core.latest_head(0), dummy, "0's dummy");
        assert!(t.insert(0));
        t.collect_garbage();
        let resident = t.core.resident();
        assert!(resident.contains(&dummy), "held by the target alone");
        assert_eq!(
            (t.core.live_nodes(), resident.len()),
            (3, 3),
            "I4, I0, the dummy"
        );
        // Removing 4 frees its INS node, and the node's retirement releases
        // the dummy.
        assert!(t.remove(4));
        t.collect_garbage();
        let resident = t.core.resident();
        assert!(!resident.contains(&dummy));
        assert_eq!((t.core.live_nodes(), resident.len()), (2, 2), "I0 and D4");
    }

    #[test]
    fn teardown_frees_every_node_still_held() {
        const U: u64 = 64;
        let mut t = LockFreeBinaryTrie::new(U);
        // Inserting in a scrambled order makes INS nodes target dummies
        // that a later insert cuts; the churn then puts DEL nodes in slots
        // and replaces some of them.
        for i in 0..U {
            t.insert(i * 37 % U);
        }
        let mut state = 0x5EED_1234_u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) % U;
            if (state >> 32) & 1 == 0 {
                t.insert(k);
            } else {
                t.remove(k);
            }
        }
        t.collect_garbage();
        // Every node no longer held was retired and freed.
        let resident = t.core.resident();
        assert_eq!(t.core.live_nodes(), resident.len());
        // The churn left nodes held only by a slot, and only by a target.
        let layout = *t.core.layout();
        let heads: Vec<_> = (0..U as i64).map(|x| t.core.latest_head(x)).collect();
        let slots: Vec<_> = (1..layout.num_leaves())
            .map(|n| t.core.dnode_load(n))
            .filter(|d| !d.is_null() && !heads.contains(d))
            .collect();
        let targets = heads
            .iter()
            .filter(|h| !h.is_null())
            .map(|&h| unsafe { (*h).target() })
            .filter(|x| !x.is_null() && !heads.contains(x) && !slots.contains(x))
            .count();
        assert!(
            !slots.is_empty() && targets > 0,
            "slot nodes that are no head: {}, targets neither: {targets}",
            slots.len()
        );
        t.core.free_resident();
        t.collect_garbage();
        assert_eq!(t.core.live_nodes(), 0, "the walk missed a held node");
    }

    #[test]
    fn racing_inserts_of_same_key_one_wins() {
        let t = Arc::new(LockFreeBinaryTrie::new(8));
        let wins: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.insert(5))
            })
            .collect();
        let total: usize = wins
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(total, 1, "exactly one S-modifying insert");
        assert!(t.contains(5));
        assert!(t.announcements().is_empty());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_panic_while_helping_withdraws_the_helpers_announcement() {
        use fault::{FaultAction, FaultPlan};
        let trie = LockFreeBinaryTrie::new(32);
        // An insert of 9 stalls with its node published but not yet
        // announced or activated; then, as if its owner ran to the end
        // while the helper below was between lines 129 and 135, mark it
        // completed. The owner's own withdrawal has come and gone.
        assert!(fault::suspend_at(FaultPoint::InsertPublished, || trie.insert(9)));
        let owner_node = trie.core.latest_head(9);
        trie.core
            .release(owner_node, Hold::Running, &trie.domain().pin());
        // A competing insert loses its CAS and helps (line 171): it
        // announces and activates the node, sees it completed, and its
        // withdrawal (line 136) panics on entry.
        fault::arm(
            FaultPlan::once(FaultPoint::AnnounceRemove, FaultAction::Panic),
            0,
        );
        let outcome = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| trie.insert(9)));
        fault::disarm();
        assert!(outcome.is_err(), "the injected panic escapes the helper");
        assert!(
            trie.announcements().is_empty(),
            "the helper's announcement of a completed node outlived it"
        );
        assert!(trie.contains(9), "the helper activated the insert");
    }
}
