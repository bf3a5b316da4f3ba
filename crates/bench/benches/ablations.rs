//! Ablation benches:
//!
//! * **A1** — the paper's AND-encoded min-register vs a `fetch_min` register.
//! * **A2** — the price of linearizability: `predecessor` on the lock-free
//!   trie (announcements, RU-ALL traversal, notify collection) vs the
//!   wait-free relaxed traversal alone.
//! * **A3** — the announcement overhead on updates: lock-free trie insert
//!   vs relaxed trie insert at the same universe.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use lftrie_core::{LockFreeBinaryTrie, RelaxedBinaryTrie};
use lftrie_primitives::minreg::{AndMinRegister, FetchMinRegister, MinRegister};

fn a1_min_register(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_min_register");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
    let and_reg = AndMinRegister::new(63, 63);
    let fm_reg = FetchMinRegister::new(63);
    let mut v = 0u32;
    group.bench_function("and_min_write", |b| {
        b.iter(|| {
            v = (v + 7) % 64;
            and_reg.min_write(std::hint::black_box(v));
        })
    });
    group.bench_function("fetch_min_write", |b| {
        b.iter(|| {
            v = (v + 7) % 64;
            fm_reg.min_write(std::hint::black_box(v));
        })
    });
    group.bench_function("and_read", |b| {
        b.iter(|| std::hint::black_box(and_reg.read()))
    });
    group.bench_function("fetch_min_read", |b| {
        b.iter(|| std::hint::black_box(fm_reg.read()))
    });
    group.finish();
}

fn a2_linearizable_vs_relaxed_pred(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_predecessor_linearizability_cost");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let u = 1u64 << 16;
    let lockfree = LockFreeBinaryTrie::new(u);
    let relaxed = RelaxedBinaryTrie::new(u);
    for k in (0..u).step_by(4) {
        lockfree.insert(k);
        relaxed.insert(k);
    }
    let mut key = 1u64;
    group.bench_function("lockfree_pred", |b| {
        b.iter(|| {
            key = 1 + (key + 12_289) % (u - 1);
            std::hint::black_box(lockfree.predecessor(key))
        })
    });
    group.bench_function("relaxed_pred", |b| {
        b.iter(|| {
            key = 1 + (key + 12_289) % (u - 1);
            std::hint::black_box(relaxed.predecessor(key))
        })
    });
    group.finish();
}

fn a3_announcement_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_update_announcement_overhead");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let u = 1u64 << 16;
    let lockfree = LockFreeBinaryTrie::new(u);
    let relaxed = RelaxedBinaryTrie::new(u);
    let mut key = 1u64;
    group.bench_function("lockfree_insert_delete", |b| {
        b.iter(|| {
            key = (key + 24_593) % u;
            lockfree.insert(key);
            lockfree.remove(key);
        })
    });
    group.bench_function("relaxed_insert_delete", |b| {
        b.iter(|| {
            key = (key + 24_593) % u;
            relaxed.insert(key);
            relaxed.remove(key);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    a1_min_register,
    a2_linearizable_vs_relaxed_pred,
    a3_announcement_overhead
);
criterion_main!(benches);
