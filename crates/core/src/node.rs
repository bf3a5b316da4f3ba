//! Node types of the binary tries (paper Figure 4 and Figure 6).
//!
//! A single [`UpdateNode`] layout serves both the relaxed trie (§4, Figure 4)
//! and the lock-free trie (§5, Figure 6): the relaxed trie simply creates its
//! nodes already [`Status::Active`] and ignores the announcement-related
//! fields. Field mutability follows the figures; "immutable" fields are
//! written once before the node is published and never changed.
//!
//! All orderings are `SeqCst`: the paper's proofs assume sequential
//! consistency, and the helping protocol contains store-buffer patterns
//! (e.g. `W(target); R(latest)` racing `W(latest); R(target)`) that weaker
//! orderings would not linearize.

use core::sync::atomic::{
    AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering,
};

use lftrie_lists::pall::PallCell;
use lftrie_lists::pushstack::PushStack;
use lftrie_primitives::minreg::AndMinRegister;
use lftrie_primitives::registry::Reclaim;
use lftrie_primitives::steps;
use lftrie_primitives::swcursor::PublishedKey;

use crate::dir::{Dir, Pred, Succ};

/// `type` field of an update node: INS or DEL (Figure 4 line 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Created by an `Insert`.
    Ins,
    /// Created by a `Delete` (or a per-key dummy).
    Del,
}

/// `status` field of an update node (Figure 6 line 94): `Inactive` until the
/// creating operation (or a helper) activates it, which is the linearization
/// point of S-modifying updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Not yet linearized.
    Inactive = 0,
    /// Linearized.
    Active = 1,
}

/// Sentinel for "delPred2 / delSucc2 not yet written" (`⊥` in Figure 6
/// line 104); legitimate values are universe keys or a direction's none
/// answer (`NO_PRED`, `NO_SUCC`).
pub(crate) const DEL2_UNSET: i64 = i64::MIN;

/// An INS or DEL update node (Figures 4 and 6).
///
/// DEL-only fields (`upper0_boundary`, `lower1_boundary`, `del_*`) are
/// present on every node for layout uniformity; they are only meaningful when
/// `kind == Kind::Del`, mirroring the paper's "additional fields when
/// type = DEL".
pub struct UpdateNode {
    /// Immutable key in `U` (Fig. 6 line 92).
    pub(crate) key: i64,
    /// Immutable type (line 93).
    pub(crate) kind: Kind,
    /// Unique id stamped at allocation (never reused). Notify records carry
    /// it instead of raw pointers so that identity comparisons against
    /// long-dead notifiers can never alias a recycled address (ABA).
    pub(crate) seq: u64,
    /// `false → true` once the relaxed-trie bit update for this node has
    /// run to completion. The bit update is *not* idempotent (`set_target`
    /// double-counts on a re-run), so exactly one of the owner's pipeline
    /// or its unwind guard's resume claims it via
    /// [`UpdateNode::claim_trie_update`].
    trie_updated: AtomicBool,
    /// Number of `dNodePtr` slots currently (or about to be) holding this
    /// node; maintained by [`crate::access::TrieCore::dnode_cas`]. A retired
    /// node is not freed while this is non-zero — `InterpretedBit` may still
    /// read it through `t.dNodePtr` arbitrarily late.
    pub(crate) dnode_refs: AtomicU32,
    /// Number of live INS nodes whose `target` points here; incremented by
    /// [`UpdateNode::set_target`], decremented when the pointing node is
    /// itself reclaimed. Guards the `target.stop ← True` dereferences
    /// (lines 34/55/133/168/198).
    pub(crate) target_refs: AtomicU32,
    /// `Inactive → Active` once (line 94).
    status: AtomicU8,
    /// Points to the update node this one replaced; changes once to null
    /// (`⊥`) after activation (line 95).
    latest_next: AtomicPtr<UpdateNode>,
    /// INS nodes: the DEL node whose `lower1Boundary` the insert is about to
    /// min-write (line 96); null is `⊥`.
    target: AtomicPtr<UpdateNode>,
    /// `false → true` once (line 97): tells the owner of the *targeted* DEL
    /// node to stop clearing interpreted bits.
    stop: AtomicBool,
    /// `false → true` once (line 98): set after the relaxed-trie update and
    /// notifications finish, so helpers know to de-announce (line 135).
    completed: AtomicBool,
    /// Claim flag for *this node's retirement as a displaced node*: when a
    /// successful latest-list CAS supersedes this node, exactly one of the
    /// superseding operation, its unwind guard, or a helper retires it
    /// (retirement is a limbo-list push and must not double-run).
    retire_claim: AtomicBool,
    /// DEL: heights `≤ upper0Boundary` that depend on this node read bit 0
    /// (line 100). Only the creator writes it, incrementing by 1 (Obs. 4.12).
    /// A height is at most `b ≤ 62` (`MAX_UNIVERSE` is 2^62), so one byte
    /// holds it.
    upper0_boundary: AtomicU8,
    /// DEL: min-register; heights `≥ lower1Boundary` read bit 1 (line 101).
    /// Bounded by `b + 1`, which the node does not store.
    lower1_boundary: AndMinRegister,
    /// DEL, per query direction ([`Dir::IDX`]): query node of the first
    /// embedded query (`delPredNode`, line 102).
    del_node: [AtomicPtr<QueryNode>; 2],
    /// DEL, per direction: result of the first embedded query (`delPred`,
    /// line 103).
    del_result: [AtomicI64; 2],
    /// DEL, per direction: `⊥ →` result of the second embedded query
    /// (`delPred2`, line 104).
    del_result2: [AtomicI64; 2],
}

// Safety: every field is either immutable after publication or atomic; raw
// pointers are dereferenced only while the owning trie (and thus the
// registries keeping every node alive) is borrowed.
unsafe impl Send for UpdateNode {}
unsafe impl Sync for UpdateNode {}

impl UpdateNode {
    /// Creates an INS node for `key` (Insert lines 31–33 / 165–166).
    pub(crate) fn new_ins(key: i64, status: Status, latest_next: *mut UpdateNode, b: u32) -> Self {
        Self::new(key, Kind::Ins, status, latest_next, 0, b + 1, b)
    }

    /// Creates a DEL node for `key` with `latestNext` pointing at the INS
    /// node it supersedes (Delete lines 50–53 / 185–187).
    pub(crate) fn new_del(key: i64, status: Status, latest_next: *mut UpdateNode, b: u32) -> Self {
        Self::new(key, Kind::Del, status, latest_next, 0, b + 1, b)
    }

    /// Creates the per-key dummy DEL node of the initial configuration: its
    /// boundaries make every interpreted bit 0 (`upper0 = b`,
    /// `lower1 = b+1`), it is active, and its `latestNext` is `⊥`. A null
    /// `latest[x]` stands for it until the first write that needs it
    /// installs it (`TrieCore::installed_head`). Dummies are born
    /// `completed` — no operation ever finishes them, and the flag gates
    /// their reclamation once the first real insert supersedes them.
    pub(crate) fn new_dummy(key: i64, b: u32) -> Self {
        let node = Self::new(
            key,
            Kind::Del,
            Status::Active,
            core::ptr::null_mut(),
            b,
            b + 1,
            b,
        );
        node.completed.store(true, Ordering::Relaxed);
        // Structural: nothing about a dummy is ever driven through a bit
        // update.
        node.trie_updated.store(true, Ordering::Relaxed);
        node
    }

    fn new(
        key: i64,
        kind: Kind,
        status: Status,
        latest_next: *mut UpdateNode,
        upper0: u32,
        lower1: u32,
        b: u32,
    ) -> Self {
        Self {
            key,
            kind,
            seq: 0,
            trie_updated: AtomicBool::new(false),
            dnode_refs: AtomicU32::new(0),
            target_refs: AtomicU32::new(0),
            status: AtomicU8::new(status as u8),
            latest_next: AtomicPtr::new(latest_next),
            target: AtomicPtr::new(core::ptr::null_mut()),
            stop: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            retire_claim: AtomicBool::new(false),
            upper0_boundary: AtomicU8::new(upper0 as u8),
            lower1_boundary: AndMinRegister::new(lower1, b + 1),
            del_node: [
                AtomicPtr::new(core::ptr::null_mut()),
                AtomicPtr::new(core::ptr::null_mut()),
            ],
            del_result: [AtomicI64::new(Pred::NONE), AtomicI64::new(Succ::NONE)],
            del_result2: [AtomicI64::new(DEL2_UNSET), AtomicI64::new(DEL2_UNSET)],
        }
    }

    /// The node's immutable key.
    #[inline]
    pub(crate) fn key(&self) -> i64 {
        self.key
    }

    /// The node's immutable type.
    #[inline]
    pub(crate) fn kind(&self) -> Kind {
        self.kind
    }

    /// Claims the relaxed-trie bit update for this node: returns `true`
    /// exactly once (for the caller who must now run it). See the
    /// `trie_updated` field docs.
    #[inline]
    pub(crate) fn claim_trie_update(&self) -> bool {
        !self.trie_updated.swap(true, Ordering::SeqCst)
    }

    /// Claims this node's retirement-as-displaced: returns `true` exactly
    /// once, for the caller who must now retire it. See the `retire_claim`
    /// field docs.
    #[inline]
    pub(crate) fn claim_retire(&self) -> bool {
        !self.retire_claim.swap(true, Ordering::SeqCst)
    }

    /// Has the relaxed-trie bit update for this node been claimed?
    #[inline]
    pub(crate) fn trie_update_claimed(&self) -> bool {
        self.trie_updated.load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn status(&self) -> Status {
        steps::on_read();
        if self.status.load(Ordering::SeqCst) == Status::Active as u8 {
            Status::Active
        } else {
            Status::Inactive
        }
    }

    /// Activation: the linearization point of S-modifying updates (lines
    /// 131/174/197). Idempotent (helpers may race the owner).
    #[inline]
    pub(crate) fn activate(&self) {
        steps::on_write();
        self.status.store(Status::Active as u8, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn latest_next(&self) -> *mut UpdateNode {
        steps::on_read();
        self.latest_next.load(Ordering::SeqCst)
    }

    /// Clears `latestNext` to `⊥` (lines 134/169/175/190/199).
    #[inline]
    pub(crate) fn clear_latest_next(&self) {
        steps::on_write();
        self.latest_next
            .store(core::ptr::null_mut(), Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn target(&self) -> *mut UpdateNode {
        steps::on_read();
        self.target.load(Ordering::SeqCst)
    }

    /// `iNode.target ← uNode` (line 43). Only the creating insert writes
    /// this field (single writer; concurrent readers go through the atomic).
    ///
    /// Maintains the targeted node's [`UpdateNode::target_refs`] count: the
    /// new target is pinned *before* it is published (so a retired target is
    /// rescued from limbo before any reader can reach it through us), the
    /// displaced one released after.
    pub(crate) fn set_target(&self, node: *mut UpdateNode) {
        steps::on_write();
        if !node.is_null() {
            // Safety: the caller read `node` as a live first-activated node
            // under its epoch guard; it is not freed while we hold it.
            unsafe { (*node).target_refs.fetch_add(1, Ordering::SeqCst) };
        }
        let old = self.target.swap(node, Ordering::SeqCst);
        if !old.is_null() {
            // Safety: our count kept `old` alive until this release.
            unsafe { (*old).target_refs.fetch_sub(1, Ordering::SeqCst) };
        }
    }

    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        steps::on_read();
        self.stop.load(Ordering::SeqCst)
    }

    /// `….stop ← True` (lines 34/55/133/168/198).
    #[inline]
    pub(crate) fn set_stop(&self) {
        steps::on_write();
        self.stop.store(true, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn completed(&self) -> bool {
        steps::on_read();
        self.completed.load(Ordering::SeqCst)
    }

    /// `….completed ← True` (lines 178/204).
    #[inline]
    pub(crate) fn set_completed(&self) {
        steps::on_write();
        self.completed.store(true, Ordering::SeqCst);
    }

    /// Reads `upper0Boundary` (heights ≤ it see interpreted bit 0).
    #[inline]
    pub(crate) fn upper0(&self) -> u32 {
        steps::on_read();
        self.upper0_boundary.load(Ordering::SeqCst).into()
    }

    /// `dNode.upper0Boundary ← t.height` (line 72); only the creator writes,
    /// and consecutive writes increment by exactly 1 (Lemma 4.13).
    #[inline]
    pub(crate) fn set_upper0(&self, height: u32) {
        debug_assert_eq!(self.kind, Kind::Del);
        debug_assert_eq!(
            u32::from(self.upper0_boundary.load(Ordering::SeqCst)) + 1,
            height,
            "upper0Boundary must increment by 1 (Lemma 4.13)"
        );
        steps::on_write();
        self.upper0_boundary.store(height as u8, Ordering::SeqCst);
    }

    /// Reads `lower1Boundary`.
    #[inline]
    pub(crate) fn lower1(&self) -> u32 {
        self.lower1_boundary.read()
    }

    /// `MinWrite(uNode.lower1Boundary, t.height)` (line 46).
    #[inline]
    pub(crate) fn min_write_lower1(&self, height: u32) {
        debug_assert_eq!(self.kind, Kind::Del);
        self.lower1_boundary.min_write(height);
    }

    /// `delPredNode` / `delSuccNode`: the first embedded query's node.
    #[inline]
    pub(crate) fn del_node<D: Dir>(&self) -> *mut QueryNode {
        steps::on_read();
        self.del_node[D::IDX].load(Ordering::SeqCst)
    }

    /// `delPred` / `delSucc`: the first embedded query's result.
    #[inline]
    pub(crate) fn del_result<D: Dir>(&self) -> i64 {
        steps::on_read();
        self.del_result[D::IDX].load(Ordering::SeqCst)
    }

    /// Writes the immutable first embedded query's result and node before
    /// the node is published (lines 188–189).
    #[inline]
    pub(crate) fn init_del<D: Dir>(&self, result: i64, node: *mut QueryNode) {
        self.del_result[D::IDX].store(result, Ordering::SeqCst);
        self.del_node[D::IDX].store(node, Ordering::SeqCst);
    }

    /// Reads `delPred2` / `delSucc2`; `None` until the second embedded
    /// query's result is recorded.
    #[inline]
    pub(crate) fn del_result2<D: Dir>(&self) -> Option<i64> {
        steps::on_read();
        match self.del_result2[D::IDX].load(Ordering::SeqCst) {
            DEL2_UNSET => None,
            v => Some(v),
        }
    }

    /// `dNode.delPred2 ← delPred2` (line 201); written once.
    #[inline]
    pub(crate) fn set_del_result2<D: Dir>(&self, key: i64) {
        debug_assert_ne!(key, DEL2_UNSET);
        steps::on_write();
        self.del_result2[D::IDX].store(key, Ordering::SeqCst);
    }
}

impl Reclaim for UpdateNode {
    /// A retired update node may still be read through two long-lived
    /// shared paths the paper's GC model leaves dangling: `t.dNodePtr`
    /// (until a later delete displaces it) and some live INS node's
    /// `target`. Both are reference-counted; `completed` additionally keeps
    /// the node while its own operation may still install it (the owner
    /// only sets `completed` after its trie update and notifications, lines
    /// 178/204).
    fn ready_to_reclaim(&self) -> bool {
        self.completed.load(Ordering::SeqCst)
            && self.dnode_refs.load(Ordering::SeqCst) == 0
            && self.target_refs.load(Ordering::SeqCst) == 0
    }

    /// Releases the `target_refs` pin this node holds on its target (the
    /// count kept the target alive for exactly as long as our `target`
    /// field was dereferenceable).
    fn on_reclaim(&self) {
        let t = self.target.load(Ordering::SeqCst);
        if !t.is_null() {
            // Safety: target_refs > 0 kept `t` allocated until this release.
            unsafe { (*t).target_refs.fetch_sub(1, Ordering::SeqCst) };
        }
    }
}

impl core::fmt::Debug for UpdateNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut s = f.debug_struct("UpdateNode");
        s.field("key", &self.key)
            .field("kind", &self.kind)
            .field("status", &self.status())
            .field("stop", &self.stop.load(Ordering::SeqCst))
            .field("completed", &self.completed());
        if self.kind == Kind::Del {
            s.field("upper0", &self.upper0_boundary.load(Ordering::SeqCst))
                .field("lower1", &self.lower1_boundary.read());
        }
        s.finish()
    }
}

/// A notification record (Figure 6 lines 109–113): the *value* carried by one
/// notify node in a query node's `notifyList`.
///
/// The paper stores *pointers* to the notifying update node (line 111) and
/// to the U-ALL maximum (line 112), relying on garbage collection to keep
/// them dereferenceable for as long as any notify list holds them. Under
/// epoch reclamation a record can outlive its notifier by many epochs (a
/// delete's embedded query node — and thus its notify list — stays
/// readable through `delPredNode` well after the notifier is reclaimed), so
/// the record instead carries a **value snapshot** of everything the
/// receiver reads (key, kind, `delPred2`), plus the never-reused
/// [`UpdateNode::seq`] ids for the identity tests of lines 222/225/227/239.
/// Nothing in a record is ever dereferenced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NotifyRecord {
    /// The notifying update node's key (line 110).
    pub key: i64,
    /// The notifying update node's kind (read on line 220).
    pub kind: Kind,
    /// The notifying update node's unique id (stands in for the line-111
    /// pointer in identity comparisons).
    pub seq: u64,
    /// DEL notifiers: the second embedded query's result *of the
    /// receiver's direction* (`delPred2` for a predecessor receiver,
    /// `delSucc2` for a successor receiver), final by the time any DEL
    /// notifies (line 201 precedes line 203); [`DEL2_UNSET`] on INS
    /// notifiers. Only receivers of one direction ever read a record.
    pub del2: i64,
    /// Id of the extremal INS node the notifier saw in its full traversal
    /// (line 112): the INS key beyond the receiver's key nearest to it —
    /// the largest key `< y` for a predecessor receiver, the smallest key
    /// `> y` for a successor receiver. 0 is `⊥`.
    pub ext_seq: u64,
    /// That node's key (the direction's none answer when `ext_seq` is 0).
    pub ext_key: i64,
    /// The receiver's published traversal position at send time (line 113).
    pub notify_threshold: i64,
    /// The receiver's [`QueryNode::era`] at send time, read under the era
    /// seqlock together with `key` and `notify_threshold`. A sliding scan
    /// (scan subsystem v2) bumps the era twice per step; the step then
    /// accepts only records stamped with its own (even) era, discarding
    /// notifications aimed at an earlier query key. Always 0 for receivers
    /// that never slide.
    pub era: u64,
}

/// A query node: the announcement of one predecessor or successor
/// operation in the P-ALL or S-ALL (Figure 6 lines 105–108).
///
/// The node is the same for both directions; the direction decides only
/// where it is announced and which list its cursor walks. A predecessor's
/// cursor walks the RU-ALL descending from `+∞` (`RuallPosition`); a
/// successor's walks the U-ALL ascending from `−∞`. Either way the cursor
/// starts at the published list's head key, so a notification sent before
/// the traversal fails every threshold comparison.
///
/// # Sliding reuse (scan subsystem v2)
///
/// A scan session keeps one announced successor node alive across many
/// successor steps, *sliding* it: the owner rewrites `key` to the next
/// query key and re-arms `position` at the origin instead of withdrawing
/// and re-announcing. Notifiers read `(key, position)` as a pair; to keep
/// that pair consistent across a slide the node carries an `era` seqlock —
/// even while stable, odd during the slide's boundary rewrite. Notifiers
/// skip a node whose era is odd or changes under them and stamp the era
/// they read into the record; the step discards records from other eras.
/// Nodes that never slide — every predecessor node, and one-shot successor
/// operations — keep era 0, so the filter accepts everything.
pub struct QueryNode {
    /// Input key `y` (line 106); rewritten only by the owning scan session
    /// between steps, under the `era` seqlock.
    key: AtomicI64,
    /// Era seqlock guarding `(key, position)` pairs: even = stable,
    /// odd = a slide is rewriting the pair. Only the owner writes it.
    era: AtomicU64,
    /// Insert-only list of notifications (line 107).
    pub(crate) notify_list: PushStack<NotifyRecord>,
    /// Published traversal position; initially the published list's head
    /// key (line 108). Written by the owner via the validated-copy
    /// protocol.
    pub(crate) position: PublishedKey,
    /// The P-ALL / S-ALL cell this node was announced with, for removal.
    cell: AtomicPtr<PallCell<QueryNode>>,
    /// Withdrawal claim: withdrawal retires the node, so it must happen
    /// exactly once; the claim turns a repeated withdrawal into a no-op.
    withdrawn: AtomicBool,
}

// Safety: as for UpdateNode.
unsafe impl Send for QueryNode {}
unsafe impl Sync for QueryNode {}

/// Query nodes are retired only after their announcement is removed; the
/// one long-lived path to them (`dNode.delPredNode` / `delSuccNode`) is
/// only followed for DEL nodes found announced in the query's own
/// published traversal, which cannot happen for threads pinning after the
/// owning `Delete` de-announced — so the plain grace period suffices and no
/// readiness gate is needed.
impl Reclaim for QueryNode {}

impl QueryNode {
    /// Creates the announcement record for a query at key `y` whose cursor
    /// starts at `origin`, the published list's head key.
    pub(crate) fn new(y: i64, origin: i64) -> Self {
        Self {
            key: AtomicI64::new(y),
            era: AtomicU64::new(0),
            notify_list: PushStack::new(),
            position: PublishedKey::new(origin),
            cell: AtomicPtr::new(core::ptr::null_mut()),
            withdrawn: AtomicBool::new(false),
        }
    }

    /// Claims this node's withdrawal+retirement; true for exactly one
    /// caller over the node's lifetime.
    #[inline]
    pub(crate) fn claim_withdraw(&self) -> bool {
        !self.withdrawn.swap(true, Ordering::SeqCst)
    }

    /// The current query key (rewritten between scan steps by the owner).
    #[inline]
    pub(crate) fn key(&self) -> i64 {
        steps::on_read();
        self.key.load(Ordering::SeqCst)
    }

    /// Reads the era seqlock.
    #[inline]
    pub(crate) fn era(&self) -> u64 {
        steps::on_read();
        self.era.load(Ordering::SeqCst)
    }

    /// Reads the `(key, position, era)` triple a notifier stamps into its
    /// record, in a single seqlock attempt: `None` while a slide is in
    /// progress or if one ran under the read.
    #[inline]
    pub(crate) fn stable_pair(&self) -> Option<(i64, i64, u64)> {
        let e1 = self.era();
        if e1 % 2 == 1 {
            return None;
        }
        let key = self.key();
        let threshold = self.position.load();
        (self.era() == e1).then_some((key, threshold, e1))
    }

    /// Begins a slide: bumps the era to odd. Owner only; must be followed
    /// by [`QueryNode::set_key`], a cursor re-arm, and
    /// [`QueryNode::end_slide`].
    #[inline]
    pub(crate) fn begin_slide(&self) {
        steps::on_write();
        let e = self.era.load(Ordering::SeqCst);
        debug_assert_eq!(e % 2, 0, "begin_slide on an already-sliding node");
        self.era.store(e + 1, Ordering::SeqCst);
    }

    /// Rewrites the query key mid-slide. Owner only, era must be odd.
    #[inline]
    pub(crate) fn set_key(&self, key: i64) {
        debug_assert_eq!(self.era.load(Ordering::SeqCst) % 2, 1);
        steps::on_write();
        self.key.store(key, Ordering::SeqCst);
    }

    /// Ends a slide: bumps the era back to even and returns the new era.
    #[inline]
    pub(crate) fn end_slide(&self) -> u64 {
        steps::on_write();
        let e = self.era.load(Ordering::SeqCst);
        debug_assert_eq!(e % 2, 1, "end_slide without begin_slide");
        self.era.store(e + 1, Ordering::SeqCst);
        e + 1
    }

    pub(crate) fn cell(&self) -> *mut PallCell<QueryNode> {
        self.cell.load(Ordering::SeqCst)
    }

    pub(crate) fn set_cell(&self, cell: *mut PallCell<QueryNode>) {
        self.cell.store(cell, Ordering::SeqCst);
    }
}

impl core::fmt::Debug for QueryNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QueryNode")
            .field("key", &self.key())
            .field("era", &self.era.load(Ordering::SeqCst))
            .field("position", &self.position.load())
            .field("notifications", &self.notify_list.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lftrie_primitives::{NEG_INF, NO_PRED, NO_SUCC, POS_INF};

    #[test]
    fn dummy_reads_as_all_zero_bits() {
        let b = 4;
        let dummy = UpdateNode::new_dummy(3, b);
        assert_eq!(dummy.kind(), Kind::Del);
        assert_eq!(dummy.status(), Status::Active);
        // Every height h in 1..=b satisfies h <= upper0 and h < lower1,
        // which is the "interpreted bit 0" condition.
        for h in 0..=b {
            assert!(h <= dummy.upper0());
            assert!(h < dummy.lower1());
        }
    }

    #[test]
    fn upper0_increments_by_one() {
        let d = UpdateNode::new_del(5, Status::Active, core::ptr::null_mut(), 4);
        assert_eq!(d.upper0(), 0);
        d.set_upper0(1);
        d.set_upper0(2);
        assert_eq!(d.upper0(), 2);
    }

    #[test]
    #[should_panic(expected = "increment by 1")]
    fn upper0_skip_is_rejected_in_debug() {
        let d = UpdateNode::new_del(5, Status::Active, core::ptr::null_mut(), 4);
        d.set_upper0(3);
    }

    #[test]
    fn lower1_only_decreases() {
        let d = UpdateNode::new_del(5, Status::Active, core::ptr::null_mut(), 6);
        assert_eq!(d.lower1(), 7);
        d.min_write_lower1(4);
        d.min_write_lower1(6); // ignored
        assert_eq!(d.lower1(), 4);
    }

    #[test]
    fn del_pred2_transitions_from_unset() {
        let d = UpdateNode::new_del(5, Status::Inactive, core::ptr::null_mut(), 4);
        assert_eq!(d.del_result::<Pred>(), NO_PRED, "delPred defaults to −1");
        assert_eq!(d.del_result2::<Pred>(), None);
        d.set_del_result2::<Pred>(-1);
        assert_eq!(d.del_result2::<Pred>(), Some(-1));
        assert_eq!(d.del_result2::<Succ>(), None, "directions are separate");
    }

    #[test]
    fn del_succ2_transitions_from_unset() {
        let d = UpdateNode::new_del(5, Status::Inactive, core::ptr::null_mut(), 4);
        assert_eq!(
            d.del_result::<Succ>(),
            NO_SUCC,
            "delSucc defaults to no-successor"
        );
        assert_eq!(d.del_result2::<Succ>(), None);
        d.set_del_result2::<Succ>(NO_SUCC);
        assert_eq!(d.del_result2::<Succ>(), Some(NO_SUCC));
        assert_eq!(d.del_result2::<Pred>(), None, "directions are separate");
    }

    #[test]
    fn succ_node_cursor_starts_at_neg_inf() {
        // The S-ALL mirror of the `RuallPosition`-starts-at-+∞ invariant:
        // the published U-ALL cursor must start at the −∞ head sentinel so
        // pre-traversal notifications fail every threshold comparison.
        let s = QueryNode::new(9, Succ::ORIGIN);
        assert_eq!(s.position.load(), NEG_INF);
        assert!(s.cell().is_null());
        let p = QueryNode::new(9, Pred::ORIGIN);
        assert_eq!(p.position.load(), POS_INF);
    }

    #[test]
    fn succ_node_slide_protocol_bumps_era_twice() {
        // A slide must pass through an odd era (notifiers skip the node)
        // and land on the next even era with the new key and a re-armed
        // cursor.
        let s = QueryNode::new(9, Succ::ORIGIN);
        assert_eq!(s.era(), 0);
        assert_eq!(s.stable_pair(), Some((9, NEG_INF, 0)));
        s.begin_slide();
        assert_eq!(s.era(), 1, "slide in progress reads odd");
        assert_eq!(s.stable_pair(), None, "notifiers skip a sliding node");
        s.set_key(12);
        s.position.publish(NEG_INF);
        assert_eq!(s.end_slide(), 2);
        assert_eq!(s.key(), 12);
        assert_eq!(s.position.load(), NEG_INF);
        assert_eq!(s.stable_pair(), Some((12, NEG_INF, 2)));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn update_node_is_104_bytes() {
        // Every update allocates one, and every resident key keeps one:
        // a field added here is paid for per key. The registry's 16-byte
        // pool header makes a 120-byte request, which glibc serves from a
        // 128-byte chunk; chunks come every 16 bytes, so one more byte of
        // node would cost 16 per key.
        assert_eq!(core::mem::size_of::<UpdateNode>(), 104);
    }

    #[test]
    fn status_flips_once() {
        let n = UpdateNode::new_ins(1, Status::Inactive, core::ptr::null_mut(), 4);
        assert_eq!(n.status(), Status::Inactive);
        n.activate();
        n.activate();
        assert_eq!(n.status(), Status::Active);
    }
}
