//! Multithreaded measurement driver.
//!
//! Spawns `threads` workers that apply deterministic operation streams to a
//! shared structure, synchronized on a barrier, and reports wall-clock
//! throughput plus (under the `step-count` feature) shared-memory steps per
//! operation — the unit of the paper's complexity claims — read as each
//! worker's own telemetry counter interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lftrie_baselines::ConcurrentOrderedSet;
use lftrie_telemetry::{self as telemetry, Counter, CounterTotals};

use crate::workload::{apply, Op, OpMix, OpStream};

/// Configuration of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker count.
    pub threads: usize,
    /// Operations each worker performs.
    pub ops_per_thread: u64,
    /// Universe size keys are drawn from.
    pub universe: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Base RNG seed.
    pub seed: u64,
}

/// Result of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Total operations applied.
    pub total_ops: u64,
    /// Wall-clock time of the measured section.
    pub elapsed: Duration,
    /// Million operations per second (all threads combined).
    pub mops: f64,
    /// Mean shared-memory steps per operation (0 without `step-count`).
    pub steps_per_op: f64,
    /// Mean CAS operations per operation (0 without `step-count`).
    pub cas_per_op: f64,
}

/// Runs `cfg` against `set` and measures throughput (and steps under the
/// `step-count` feature).
///
/// Workers run identical-length deterministic streams; the clock covers the
/// span from the barrier release to the last worker finishing.
pub fn run<S: ConcurrentOrderedSet + ?Sized>(set: &S, cfg: &RunConfig) -> RunResult {
    drive(cfg, |op| apply(set, op))
}

/// Like [`run`], but additionally records each operation's wall-clock
/// latency into the telemetry latency histogram
/// ([`lftrie_telemetry::Hist::OpLatencyNs`]).
///
/// Timing every operation costs two `Instant` reads per op, so this is a
/// separate entry point rather than a [`RunConfig`] knob: throughput
/// numbers from [`run`] stay comparable across reports, and experiments
/// opt into latency capture explicitly (e.g. for `--emit-json` snapshots).
pub fn run_instrumented<S: ConcurrentOrderedSet + ?Sized>(set: &S, cfg: &RunConfig) -> RunResult {
    drive(cfg, |op| telemetry::time_op(|| apply(set, op)))
}

/// The measured run behind [`run`] and [`run_instrumented`], which differ
/// only in how each worker applies one operation (`apply_op`).
fn drive(cfg: &RunConfig, apply_op: impl Fn(Op) -> Op + Sync) -> RunResult {
    let barrier = Barrier::new(cfg.threads + 1);
    let (elapsed, intervals) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let (barrier, apply_op) = (&barrier, &apply_op);
                scope.spawn(move || {
                    let mut stream = OpStream::new(cfg.mix, cfg.universe, cfg.seed, t as u64);
                    barrier.wait();
                    let before = telemetry::thread_counters();
                    for _ in 0..cfg.ops_per_thread {
                        apply_op(stream.next_op());
                    }
                    telemetry::thread_counters() - before
                })
            })
            .collect();
        // Stamp the start *before* releasing the barrier: workers cannot
        // pass it until this thread arrives, so the stamp lower-bounds every
        // worker's first operation (stamping after the release races the
        // workers on a single-core host and can observe an empty interval).
        let start = Instant::now();
        barrier.wait();
        let intervals: Vec<CounterTotals> = workers
            .into_iter()
            .map(|w| w.join().expect("a driver worker panicked"))
            .collect();
        (start.elapsed(), intervals)
    });

    let total_ops = cfg.ops_per_thread * cfg.threads as u64;
    let steps: u64 = intervals.iter().map(CounterTotals::steps).sum();
    let cas: u64 = intervals.iter().map(|i| i.get(Counter::StepCas)).sum();
    RunResult {
        total_ops,
        elapsed,
        mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        steps_per_op: steps as f64 / total_ops as f64,
        cas_per_op: cas as f64 / total_ops as f64,
    }
}

/// Measures a single closure on this thread (for the solo-op experiments
/// E1/E2). Returns `(elapsed, counters the closure recorded)`; the
/// interval's [`CounterTotals::steps`] are its shared-memory steps.
pub fn measure_solo<T>(f: impl FnOnce() -> T) -> (Duration, CounterTotals) {
    let before = telemetry::thread_counters();
    let start = Instant::now();
    let _ = std::hint::black_box(f());
    let elapsed = start.elapsed();
    (elapsed, telemetry::thread_counters() - before)
}

/// Runs `f` on `threads` workers for `duration`, returning the number of
/// completed calls (progress experiment E7). `stall` is invoked on a
/// dedicated non-counted thread once the workers have started.
pub fn run_against_stall<F, G>(threads: usize, duration: Duration, f: F, stall: G) -> u64
where
    F: Fn(usize) -> u64 + Sync,
    G: FnOnce() + Send,
{
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 2);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..threads {
            let stop = &stop;
            let barrier = &barrier;
            let f = &f;
            workers.push(scope.spawn(move || {
                barrier.wait();
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    done += f(t);
                }
                done
            }));
        }
        scope.spawn(|| {
            barrier.wait();
            stall();
        });
        barrier.wait();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lftrie_baselines::CoarseBTreeSet;
    use lftrie_core::LockFreeBinaryTrie;

    #[test]
    fn run_counts_every_operation() {
        let set = LockFreeBinaryTrie::new(256);
        let cfg = RunConfig {
            threads: 2,
            ops_per_thread: 500,
            universe: 256,
            mix: OpMix::BALANCED,
            seed: 3,
        };
        let res = run(&set, &cfg);
        assert_eq!(res.total_ops, 1000);
        assert!(res.mops > 0.0);
    }

    #[test]
    fn run_instrumented_counts_ops_and_records_latency() {
        let set = LockFreeBinaryTrie::new(256);
        let cfg = RunConfig {
            threads: 2,
            ops_per_thread: 200,
            universe: 256,
            mix: OpMix::BALANCED,
            seed: 5,
        };
        let before = lftrie_telemetry::histogram(lftrie_telemetry::Hist::OpLatencyNs);
        let res = run_instrumented(&set, &cfg);
        assert_eq!(res.total_ops, 400);
        let after = lftrie_telemetry::histogram(lftrie_telemetry::Hist::OpLatencyNs);
        // Telemetry is process-global; other tests may record latencies too,
        // so assert growth, not an exact count.
        if lftrie_telemetry::enabled() {
            assert!(after.count >= before.count + res.total_ops);
        }
    }

    #[test]
    fn identical_seeds_give_identical_final_state() {
        let mk = || {
            let set = CoarseBTreeSet::new();
            let cfg = RunConfig {
                threads: 1,
                ops_per_thread: 2000,
                universe: 128,
                mix: OpMix::UPDATE_HEAVY,
                seed: 11,
            };
            run(&set, &cfg);
            (0..128).filter(|&x| set.contains(x)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn run_against_stall_reports_progress() {
        let done = run_against_stall(
            2,
            Duration::from_millis(50),
            |_| 1,
            || std::thread::sleep(Duration::from_millis(10)),
        );
        assert!(done > 0);
    }
}
