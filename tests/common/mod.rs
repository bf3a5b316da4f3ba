//! Helpers shared by the integration suites.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

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
#[allow(dead_code)]
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

/// Runs `body` on its own thread under a watchdog, so a run that never
/// finishes (a wedged trie, or a scan or `min`/`max` that never
/// terminates) fails as `name` after `limit` instead of hanging the suite.
/// A panic in `body` propagates with its own payload.
#[allow(dead_code)]
pub fn run_watched(name: &str, limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        tx.send(()).ok();
    });
    match rx.recv_timeout(limit) {
        // A finished body sent; a panicked one dropped the sender. Only a
        // still-running thread is a wedge.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name} wedged: no completion within {limit:?}")
        }
    }
}

/// How long one test of the scan suites (`aggregates`, `ordered_scans`)
/// may run before its watchdog fails it. The slowest of them,
/// `concurrent_scans_always_contain_the_stable_anchors`, took 2.2 s in the
/// release pass at `LFTRIE_STRESS_ITERS=50000` and 1.6 s under ASan at
/// 20000 on a 2-core host, and no test took longer in a debug build; 120 s
/// leaves room for slower runners and the valgrind fallback.
#[allow(dead_code)]
pub const WATCHDOG: Duration = Duration::from_secs(120);
