//! The zero-allocation plateau: after a warm-up phase, sustained
//! insert/delete churn performs **zero** fresh heap allocations — every
//! node and notify record comes out of the registries' recycle pools (see
//! the "Allocation pooling" section of the README) — and a warm call of
//! each of the trie's operations makes no heap call at all, which a
//! counting global allocator checks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lftrie::baselines::{HarrisListSet, LockFreeSkipList};
use lftrie::core::{LockFreeBinaryTrie, RelaxedBinaryTrie};
use lftrie::primitives::epoch::Domain;
use lftrie::primitives::registry::AllocStats;

/// The system allocator, counting each thread's allocations on that
/// thread: the harness runs this binary's tests on parallel threads.
struct CountingAlloc;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread. `const`
    /// initialized, so reading it never allocates.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_heap_call() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = HEAP_CALLS.try_with(|n| n.set(n.get() + 1));
}

// Safety: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `op` and returns its result with the heap allocations it made on
/// this thread.
fn heap_calls<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = HEAP_CALLS.with(Cell::get);
    let out = op();
    (out, HEAP_CALLS.with(Cell::get) - before)
}

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
    // successor nodes, both sides' notify records, and all four
    // auxiliary-list cell types are served
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
    let (warm_pred_records, warm_succ_records) = trie.record_alloc_stats();
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
    let (pred_records, succ_records) = trie.record_alloc_stats();
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
    assert_eq!(
        pred_records.fresh, warm_pred_records.fresh,
        "predecessor notify records too"
    );
    assert_eq!(
        succ_records.fresh, warm_succ_records.fresh,
        "successor notify records too"
    );
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
    // Every delete notifies its own embedded queries of both directions.
    assert!(pred_records.recycled > warm_pred_records.recycled);
    assert!(succ_records.recycled > warm_succ_records.recycled);

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

#[test]
fn warm_calls_make_no_heap_allocation() {
    // Once one thread's churn has warmed the pools, a warm call of any of
    // the trie's operations makes no heap call: nodes, cells and notify
    // records are recycled, and the traversal sets stay inline. A
    // successful remove is the costliest call: it pushes six notify
    // records into its own embedded queries, two at L191 and four at L203.
    const U: u64 = 64;
    let trie = LockFreeBinaryTrie::new(U);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next_key = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) % U
    };
    let mut mixed = |n: usize| {
        for _ in 0..n {
            let k = next_key();
            match k % 4 {
                0 => drop(trie.predecessor(k)),
                1 => drop(trie.successor(k)),
                _ if trie.contains(k) => drop(trie.remove(k)),
                _ => drop(trie.insert(k)),
            }
        }
    };
    mixed(4_000);
    {
        // As in `warm_up`: churn under a held pin over-provisions the
        // pools, and the flush turns the surplus into free stock.
        let _pin = trie.domain().pin();
        mixed(1_000);
    }
    trie.collect_garbage();
    mixed(1_000);

    for round in 0..64 {
        let k = (0..U).find(|&k| !trie.contains(k)).expect("a free key");
        let calls = [
            ("insert", heap_calls(|| assert!(trie.insert(k))).1),
            ("remove", heap_calls(|| assert!(trie.remove(k))).1),
            ("insert again", heap_calls(|| assert!(trie.insert(k))).1),
            ("predecessor", heap_calls(|| trie.predecessor(k)).1),
            ("successor", heap_calls(|| trie.successor(k)).1),
            ("contains", heap_calls(|| trie.contains(k)).1),
            ("min", heap_calls(|| trie.min()).1),
            ("max", heap_calls(|| trie.max()).1),
            ("remove again", heap_calls(|| assert!(trie.remove(k))).1),
        ];
        for (op, n) in calls {
            assert_eq!(
                n, 0,
                "a warm {op} made {n} heap allocations (round {round})"
            );
        }
        mixed(16);
    }
}
