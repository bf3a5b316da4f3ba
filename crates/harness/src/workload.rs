//! Workload specification and generation.
//!
//! Every experiment drives a [`ConcurrentOrderedSet`] with a stream of
//! operations drawn from an [`OpMix`] over a key universe. Generation is
//! deterministic per `(seed, thread)` so runs are reproducible.

use lftrie_baselines::ConcurrentOrderedSet;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One abstract set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Insert(key)`
    Insert(u64),
    /// `Delete(key)`
    Remove(u64),
    /// `Search(key)`
    Contains(u64),
    /// `Predecessor(key)`
    Predecessor(u64),
}

/// Percentages of each operation type (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// % of `Insert`.
    pub insert: u32,
    /// % of `Delete`.
    pub remove: u32,
    /// % of `Search`.
    pub contains: u32,
    /// % of `Predecessor`.
    pub predecessor: u32,
}

impl OpMix {
    /// 40/40/10/10 — the contention-heavy mix of E3/E4.
    pub const UPDATE_HEAVY: OpMix = OpMix {
        insert: 40,
        remove: 40,
        contains: 10,
        predecessor: 10,
    };
    /// 10/10/70/10 — read-dominated (shows off O(1) search).
    pub const SEARCH_HEAVY: OpMix = OpMix {
        insert: 10,
        remove: 10,
        contains: 70,
        predecessor: 10,
    };
    /// 20/20/10/50 — predecessor-dominated (the paper's headline op).
    pub const PRED_HEAVY: OpMix = OpMix {
        insert: 20,
        remove: 20,
        contains: 10,
        predecessor: 50,
    };
    /// 25/25/25/25 — balanced.
    pub const BALANCED: OpMix = OpMix {
        insert: 25,
        remove: 25,
        contains: 25,
        predecessor: 25,
    };

    /// A short identifier for reports.
    pub fn label(&self) -> &'static str {
        match *self {
            OpMix::UPDATE_HEAVY => "update-heavy",
            OpMix::SEARCH_HEAVY => "search-heavy",
            OpMix::PRED_HEAVY => "pred-heavy",
            OpMix::BALANCED => "balanced",
            _ => "custom",
        }
    }

    fn weights(&self) -> [u32; 4] {
        let w = [self.insert, self.remove, self.contains, self.predecessor];
        assert_eq!(w.iter().sum::<u32>(), 100, "OpMix must sum to 100");
        w
    }
}

/// A deterministic per-thread operation stream over uniformly drawn keys.
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    dist: WeightedIndex<u32>,
    universe: u64,
}

impl OpStream {
    /// Creates the stream for `(seed, thread_id)` over `{0, …, universe−1}`.
    pub fn new(mix: OpMix, universe: u64, seed: u64, thread_id: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ thread_id.wrapping_mul(0x9E3779B97F4A7C15)),
            dist: WeightedIndex::new(mix.weights()).expect("valid weights"),
            universe,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.rng.gen_range(0..self.universe);
        match self.dist.sample(&mut self.rng) {
            0 => Op::Insert(key),
            1 => Op::Remove(key),
            2 => Op::Contains(key),
            _ => Op::Predecessor(key),
        }
    }
}

/// Applies `op` to `set`, returning which counter to bump.
#[inline]
pub fn apply<S: ConcurrentOrderedSet + ?Sized>(set: &S, op: Op) -> Op {
    match op {
        Op::Insert(k) => {
            std::hint::black_box(set.insert(k));
        }
        Op::Remove(k) => {
            std::hint::black_box(set.remove(k));
        }
        Op::Contains(k) => {
            std::hint::black_box(set.contains(k));
        }
        Op::Predecessor(k) => {
            std::hint::black_box(set.predecessor(k));
        }
    }
    op
}

/// Fills `set` so roughly `density` of the universe is present (uniformly),
/// deterministically from `seed`. Returns the number of keys inserted.
pub fn prefill<S: ConcurrentOrderedSet + ?Sized>(
    set: &S,
    universe: u64,
    density: f64,
    seed: u64,
) -> u64 {
    assert!((0.0..=1.0).contains(&density));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inserted = 0;
    for key in 0..universe {
        if rng.gen_bool(density) && set.insert(key) {
            inserted += 1;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use lftrie_baselines::CoarseBTreeSet;

    #[test]
    fn streams_are_deterministic_per_seed_and_thread() {
        let mut a = OpStream::new(OpMix::BALANCED, 1024, 7, 3);
        let mut b = OpStream::new(OpMix::BALANCED, 1024, 7, 3);
        let mut c = OpStream::new(OpMix::BALANCED, 1024, 7, 4);
        let ops_a: Vec<Op> = (0..100).map(|_| a.next_op()).collect();
        let ops_b: Vec<Op> = (0..100).map(|_| b.next_op()).collect();
        let ops_c: Vec<Op> = (0..100).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c, "different threads draw different streams");
    }

    #[test]
    fn mix_proportions_are_respected() {
        let mut s = OpStream::new(OpMix::SEARCH_HEAVY, 256, 1, 0);
        let mut contains = 0;
        for _ in 0..10_000 {
            if matches!(s.next_op(), Op::Contains(_)) {
                contains += 1;
            }
        }
        // 70% ± 3 points.
        assert!((6_700..=7_300).contains(&contains), "got {contains}");
    }

    #[test]
    fn prefill_hits_requested_density() {
        let set = CoarseBTreeSet::new();
        let n = prefill(&set, 10_000, 0.5, 42);
        assert!((4_500..=5_500).contains(&n), "got {n}");
    }

    #[test]
    fn all_keys_within_universe() {
        let mut s = OpStream::new(OpMix::UPDATE_HEAVY, 64, 9, 2);
        for _ in 0..1000 {
            let (Op::Insert(k) | Op::Remove(k) | Op::Contains(k) | Op::Predecessor(k)) =
                s.next_op();
            assert!(k < 64);
        }
    }
}
