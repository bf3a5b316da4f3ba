//! The zero-allocation plateau: after a warm-up phase, sustained
//! insert/delete churn performs **zero** fresh heap allocations — every
//! node comes out of the registry's recycle pools (see the "Allocation
//! pooling" section of the README).

use lftrie::baselines::{HarrisListSet, LockFreeSkipList};
use lftrie::core::{LockFreeBinaryTrie, RelaxedBinaryTrie};
use lftrie::primitives::epoch::Domain;
use lftrie::primitives::registry::AllocStats;

/// Keys churned: a span small enough for maximal per-key supersession.
const SPAN: u64 = 8;

/// `n` inserts or removes (`update(key, insert)`) over keys `0..SPAN`, from
/// the same deterministic sequence on every call.
fn churn(update: &dyn Fn(u64, bool), n: u64) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        update((state >> 33) % SPAN, state.is_multiple_of(2));
    }
}

/// The warm-up every structure gets before its plateau is measured: churn,
/// then churn under a held pin of the structure's `domain`, then `flush`
/// ages the garbage into the free pools.
///
/// The held pin over-provisions the pools: nothing ages under it, so the
/// node population inflates by the whole in-flight window, and the flush
/// turns that entire surplus into free-pool stock. This is the
/// warm-up-with-headroom a real deployment gets for free from its bursty
/// start; without it, the steady phase's single deepest pipeline moment
/// can exceed the warm phase's by a node or two.
fn warm_up(domain: &Domain, update: &dyn Fn(u64, bool), flush: impl Fn()) {
    churn(update, 6_000);
    {
        let pin = domain.pin();
        churn(update, 2_000);
        drop(pin);
    }
    flush();
}

/// Warms one single-registry structure up, churns it again, and asserts
/// that the second churn allocated nothing fresh.
fn assert_plateau(
    name: &str,
    domain: &Domain,
    update: &dyn Fn(u64, bool),
    flush: impl Fn(),
    stats: impl Fn() -> AllocStats,
) {
    warm_up(domain, update, flush);
    let warm = stats();
    churn(update, 6_000);
    let end = stats();
    assert_eq!(
        end.fresh,
        warm.fresh,
        "warm {name} churn must not touch the heap ({} created since warm-up)",
        end.created - warm.created
    );
    assert!(
        end.recycled > warm.recycled,
        "{name}'s steady phase must be served from the pools"
    );
}

#[test]
fn warm_churn_allocates_zero_fresh_nodes() {
    // The tentpole claim of the pooled registry, end to end through the
    // trie: after a warm-up phase, sustained insert/delete churn performs
    // **zero** fresh heap allocations — update nodes, predecessor *and*
    // successor nodes, and all four auxiliary-list cell types are served
    // entirely from the recycle pools, while the logical (E6) series keeps
    // growing. Single-threaded so the pipeline (bags + epoch window) is
    // deterministic and the plateau is exact. (Every delete embeds two
    // successor helpers, so insert/delete churn exercises the S-ALL and
    // the successor-node registry without any explicit successor calls.)
    let universe = 32u64;
    let trie = LockFreeBinaryTrie::new(universe);
    let update = |k: u64, insert: bool| {
        if insert {
            trie.insert(k);
        } else {
            trie.remove(k);
        }
    };
    warm_up(trie.domain(), &update, || trie.collect_garbage());
    let warm_nodes = trie.node_alloc_stats();
    let warm_preds = trie.pred_alloc_stats();
    let warm_succs = trie.succ_alloc_stats();
    let warm_cells = trie.cell_allocs();
    let (warm_uall, warm_ruall, warm_pall, warm_sall) = (
        warm_cells.uall,
        warm_cells.ruall,
        warm_cells.pall,
        warm_cells.sall,
    );

    churn(&update, 6_000);
    let nodes = trie.node_alloc_stats();
    let preds = trie.pred_alloc_stats();
    let succs = trie.succ_alloc_stats();
    let cells = trie.cell_allocs();
    let (uall, ruall, pall, sall) = (cells.uall, cells.ruall, cells.pall, cells.sall);

    assert_eq!(
        nodes.fresh,
        warm_nodes.fresh,
        "warm update-node churn must not touch the heap \
         ({} created since warm-up)",
        nodes.created - warm_nodes.created
    );
    assert_eq!(preds.fresh, warm_preds.fresh, "predecessor nodes too");
    assert_eq!(succs.fresh, warm_succs.fresh, "successor nodes too");
    assert_eq!(uall.fresh, warm_uall.fresh, "U-ALL cells too");
    assert_eq!(ruall.fresh, warm_ruall.fresh, "RU-ALL cells too");
    assert_eq!(pall.fresh, warm_pall.fresh, "P-ALL cells too");
    assert_eq!(sall.fresh, warm_sall.fresh, "S-ALL cells too");

    // The plateau is meaningful only if the post-warm-up phase really
    // churned: the logical series must keep growing, served from pools.
    assert!(
        nodes.created >= warm_nodes.created + 2_000,
        "steady phase produced too few update nodes: {} → {}",
        warm_nodes.created,
        nodes.created
    );
    assert!(nodes.recycled > warm_nodes.recycled);
    assert!(preds.created > warm_preds.created);
    assert!(succs.created > warm_succs.created);
    assert!(sall.created > warm_sall.created);

    // The relaxed trie and the two lock-free baselines allocate through the
    // same pooled registry and must plateau the same way.
    let relaxed = RelaxedBinaryTrie::new(universe);
    assert_plateau(
        "relaxed-trie",
        relaxed.domain(),
        &|k, insert| {
            if insert {
                relaxed.insert(k);
            } else {
                relaxed.remove(k);
            }
        },
        || relaxed.collect_garbage(),
        || relaxed.node_alloc_stats(),
    );
    let list = HarrisListSet::new();
    assert_plateau(
        "harris-list",
        list.domain(),
        &|k, insert| {
            if insert {
                list.insert(k);
            } else {
                list.remove(k);
            }
        },
        || list.collect_garbage(),
        || list.alloc_stats(),
    );
    let skip = LockFreeSkipList::new();
    assert_plateau(
        "lockfree-skiplist",
        skip.domain(),
        &|k, insert| {
            if insert {
                skip.insert(k);
            } else {
                skip.remove(k);
            }
        },
        || skip.collect_garbage(),
        || skip.alloc_stats(),
    );
}
