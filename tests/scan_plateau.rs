//! The scan-session allocation plateau: after a warm-up phase, sustained
//! sliding scans and aggregates perform **zero** fresh heap allocations —
//! each session draws exactly one successor node and one S-ALL cell from the
//! recycle pools, slides the announcement across its whole width, and
//! returns both on withdrawal. Slides themselves allocate nothing: they
//! re-arm the existing node's published cursor in place.

use lftrie::core::LockFreeBinaryTrie;

#[test]
fn warm_scans_allocate_zero_fresh_nodes() {
    let universe = 256u64;
    let trie = LockFreeBinaryTrie::new(universe);
    for k in (0..universe).step_by(3) {
        trie.insert(k);
    }
    // One width-w session = one successor node + one S-ALL cell, however many
    // slides it takes; the aggregate mix keeps the per-session shape while
    // varying entry points and widths.
    let scans = |n: u64| {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lo = (state >> 33) % (universe - 1);
            match state % 4 {
                0 => {
                    let hi = (lo + 1 + (state >> 17) % 48).min(universe - 1);
                    std::hint::black_box(trie.range(lo..=hi));
                }
                1 => {
                    let hi = (lo + 1 + (state >> 17) % 48).min(universe - 1);
                    std::hint::black_box(trie.count(lo..=hi));
                }
                2 => {
                    std::hint::black_box(trie.iter_from(lo).take(8).count());
                }
                _ => {
                    std::hint::black_box((trie.min(), trie.max()));
                }
            }
        }
    };
    scans(2_000);
    // Over-provision the pools exactly as alloc_plateau.rs does: scan under
    // a held pin so nothing ages, inflating the in-flight population, then
    // release and flush that surplus into the free pools.
    {
        let pin = trie.domain().pin();
        scans(500);
        drop(pin);
    }
    trie.collect_garbage();
    let warm_succs = trie.succ_alloc_stats();
    let warm_sall = trie.cell_allocs().sall;

    scans(4_000);
    let succs = trie.succ_alloc_stats();
    let sall = trie.cell_allocs().sall;

    assert_eq!(
        succs.fresh,
        warm_succs.fresh,
        "warm scan sessions must not touch the heap \
         ({} successor nodes created since warm-up)",
        succs.created - warm_succs.created
    );
    assert_eq!(sall.fresh, warm_sall.fresh, "S-ALL cells too");

    // The plateau is meaningful only if the steady phase really scanned:
    // the logical series keeps growing, one node per *session* — far fewer
    // than one per step, or the slide amortization isn't real.
    let sessions = succs.created - warm_succs.created;
    assert!(
        sessions >= 2_000,
        "steady phase produced too few scan sessions: {sessions}"
    );
    assert!(succs.recycled > warm_succs.recycled);
    assert!(sall.created > warm_sall.created);
    // ~3000 of the 4000 steady ops open a session whose width is ≥ 8 keys
    // on a 1/3-dense universe; per-step allocation would create several
    // successor nodes per op. One-per-session stays well under 2 per op even
    // counting the embedded helpers of min/max.
    assert!(
        sessions <= 2 * 4_000,
        "successor-node creation scales per-step, not per-session: {sessions}"
    );
}
