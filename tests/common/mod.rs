//! Helpers shared by the integration suites.

use std::collections::BTreeSet;

/// Iteration budget for the long-running stress suites.
///
/// Defaults keep `cargo test -q` CI-friendly (a few seconds even on a
/// single-core runner); set `LFTRIE_STRESS_ITERS` to restore or exceed the
/// heavy mode, e.g.:
///
/// ```text
/// LFTRIE_STRESS_ITERS=100000 cargo test --release --test linearizability_stress
/// ```
///
/// The value is the *base* per-thread count; call sites scale it (dividing
/// by small constants) so the relative weight of each scenario is
/// preserved — the floor of 4 keeps every scaled site non-zero.
pub fn stress_iters(default: u64) -> u64 {
    match std::env::var("LFTRIE_STRESS_ITERS") {
        Ok(v) => v
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("LFTRIE_STRESS_ITERS must be a u64, got {v:?}"))
            .max(4),
        Err(_) => default,
    }
}

/// The dummies a quiescent lock-free trie holding `present` keeps as
/// latest-list heads: one per absent even key `x` with a present key in the
/// subtree `x` leads, `(x, x + 2^tz(x))`, where `tz(0)` is `b` (the whole
/// universe, a power of two). No other absent key's dummy is ever written,
/// so none is made.
#[allow(dead_code)]
pub fn needed_dummies(present: &BTreeSet<u64>, universe: u64) -> usize {
    let b = universe.trailing_zeros();
    (0..universe)
        .step_by(2)
        .filter(|x| !present.contains(x))
        .filter(|&x| {
            let end = x + (1 << x.trailing_zeros().min(b));
            present.range(x + 1..end).next().is_some()
        })
        .count()
}
