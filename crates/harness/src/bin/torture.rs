//! Long-running torture driver: continuous randomized concurrent load with
//! periodic quiescent validation against a full `contains` scan.
//!
//! ```text
//! cargo run --release -p lftrie-harness --bin torture -- \
//!     [seconds] [threads] [log2_universe] [--trace <path>]
//! ```
//!
//! Defaults: 10 seconds, 4 threads, universe 2^10 (log2 of the universe
//! between 1 and 24). Exits 1 on any consistency violation, and 2 with a
//! usage line on an argument or environment value it cannot use. With
//! `threads` well above the core count, the run is also the
//! **oversubscription lane**: the scheduler preempts threads inside their
//! pinned operations, so reclamation must stay bounded while pins stall,
//! and a premature free shows up as a use-after-free under the sanitizer
//! lane rather than as silent corruption.
//!
//! `--trace <path>` (requires `--features op-trace`) writes the captured
//! Chrome trace-event JSON there — at exit on success, and from the
//! failure dump on a violation, where the causal trace (spans, phases,
//! helping edges) sits next to the flight recorder.
//!
//! Environment:
//!
//! * `LFTRIE_TORTURE_SEED` — base seed folded into every per-thread RNG
//!   and fault decision (default 0). A failure dump echoes the full
//!   reproduction line, seed included.
//! * `LFTRIE_TORTURE_FAULTS` — `mixed` arms the chaos lane (requires
//!   `--features fault-injection`): every worker runs under a seeded
//!   `FaultPlan` that fires yields, stalls and panics at the named
//!   injection points. The unwind guards finish or roll back every
//!   panicked operation, and each round validates the usual quiescent
//!   invariants *plus* full announcement drain.
//! * `LFTRIE_TORTURE_FAULT_RATE` — firing probability per 1024 point
//!   occurrences, at most 1024 (default 24).
//!
//! A **progress watchdog** guards every round: the workers must complete a
//! minimum number of operations per round even while the fault plan fires
//! (surviving threads must keep progressing past crashed ones — the
//! lock-freedom claim under crashes). A violation dumps telemetry, the
//! flight recorder, and the fault log.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lftrie_core::fault::FaultAction::{self, Panic, Stall, Yield};
use lftrie_core::LockFreeBinaryTrie;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything needed to reproduce a run, echoed by every failure dump.
#[derive(Clone, Copy)]
struct Repro {
    seconds: u64,
    threads: usize,
    log2_u: u64,
    seed: u64,
    /// The `LFTRIE_TORTURE_FAULTS` mode; empty when the chaos lane is off.
    faults: &'static str,
    /// The fault actions that mode fires; empty when the lane is off.
    actions: &'static [FaultAction],
    fault_rate: u32,
}

/// The fault actions of `LFTRIE_TORTURE_FAULTS=mixed`, the one fault mode.
const MIXED: &[FaultAction] = &[Yield, Stall, Panic];

impl Repro {
    fn print(&self) {
        eprintln!("--- reproduction ---");
        eprintln!(
            "LFTRIE_TORTURE_SEED={} LFTRIE_TORTURE_FAULTS={} LFTRIE_TORTURE_FAULT_RATE={} \\",
            self.seed,
            if self.faults.is_empty() {
                "\"\""
            } else {
                self.faults
            },
            self.fault_rate,
        );
        eprintln!(
            "  cargo run --release -p lftrie-harness --features fault-injection \
             --bin torture -- {} {} {}",
            self.seconds, self.threads, self.log2_u
        );
    }
}

/// Where `--trace` asked for the Chrome trace-event JSON, if anywhere.
/// Global so the failure path can flush the trace without threading the
/// path through every validation call.
static TRACE_PATH: OnceLock<String> = OnceLock::new();

/// Writes the captured Chrome trace-event JSON to the `--trace` path (if
/// one was given and capture is compiled in). Returns the path on success.
fn write_trace() -> Option<&'static str> {
    let path = TRACE_PATH.get()?;
    match std::fs::write(path, lftrie_telemetry::trace::chrome_trace_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("failed to write trace {path}: {e}");
            None
        }
    }
}

/// Reports a consistency violation, dumps the unified telemetry snapshot,
/// the flight-recorder ring (the last protocol events leading up to the
/// failure), the causal op-trace digest, the fault log, and the
/// reproduction seed, then exits non-zero.
fn fail(round: u64, trie: &LockFreeBinaryTrie, repro: &Repro, msg: &str) -> ! {
    // The heartbeat ends in `\r` with the cursor mid-line; terminate and
    // flush it so the dump below starts on a clean line instead of
    // overwriting (and being interleaved with) the last heartbeat.
    {
        use std::io::Write;
        println!();
        std::io::stdout().flush().ok();
    }
    eprintln!("round {round}: {msg}");
    repro.print();
    eprintln!("--- telemetry at failure ---");
    eprint!("{}", trie.telemetry().to_prometheus());
    eprintln!("--- flight recorder (oldest first) ---");
    eprint!("{}", lftrie_telemetry::flight_report());
    eprintln!("--- op-trace ---");
    eprint!("{}", lftrie_telemetry::trace::summary());
    if let Some(path) = write_trace() {
        eprintln!("wrote Chrome trace-event JSON to {path}");
    }
    #[cfg(feature = "fault-injection")]
    {
        eprintln!("--- fault log ---");
        eprint!("{}", lftrie_core::fault::format_log());
    }
    std::process::exit(1);
}

/// Returns whether the environment arms the chaos lane (each worker then
/// arms its own copy of the seeded plan; see `worker_loop_faulty`).
#[cfg(feature = "fault-injection")]
fn chaos_lane(repro: &Repro) -> bool {
    if repro.actions.is_empty() {
        return false;
    }
    lftrie_core::fault::silence_injected_panics();
    true
}

#[cfg(not(feature = "fault-injection"))]
fn chaos_lane(repro: &Repro) -> bool {
    if !repro.actions.is_empty() {
        eprintln!(
            "warning: LFTRIE_TORTURE_FAULTS needs --features fault-injection; \
             running without the chaos lane"
        );
    }
    false
}

/// One worker operation against the trie; panics injected mid-operation
/// unwind out of here (and are handled by the caller).
fn one_op(trie: &LockFreeBinaryTrie, rng: &mut StdRng, universe: u64) {
    let k = rng.gen_range(0..universe);
    match rng.gen_range(0..16) {
        0..=2 => {
            trie.insert(k);
        }
        3..=5 => {
            trie.remove(k);
        }
        6 => {
            std::hint::black_box(trie.contains(k));
        }
        7..=8 => {
            if let Some(p) = trie.predecessor(k.max(1)) {
                assert!(p < k.max(1), "pred returned ≥ query");
            }
        }
        9..=10 => {
            if let Some(s) = trie.successor(k) {
                assert!(s > k, "succ returned ≤ query");
            }
        }
        11 => {
            let hi = (k + 32).min(universe - 1);
            let scan = trie.range(k..=hi);
            assert!(
                scan.windows(2).all(|w| w[0] < w[1]),
                "scan not strictly increasing"
            );
            assert!(
                scan.iter().all(|&x| x >= k && x <= hi),
                "scan escaped its bounds"
            );
        }
        12 => {
            let hi = (k + 32).min(universe - 1);
            let n = trie.count(k..=hi);
            assert!(n as u64 <= hi - k + 1, "count exceeds range width");
        }
        13 => {
            // Two separately linearized calls: the set may change between
            // them, so only each answer is checked here. The round's
            // quiescent validation compares both with the model.
            if let Some(mn) = trie.min() {
                assert!(mn < universe, "min escaped the universe");
            }
            if let Some(mx) = trie.max() {
                assert!(mx < universe, "max escaped the universe");
            }
        }
        14 => {
            if let Some(m) = trie.pop_min() {
                assert!(m < universe, "pop_min escaped the universe");
            }
        }
        _ => {
            let len = 8.min(universe - k);
            let keys: Vec<u64> = (k..k + len).collect();
            if rng.gen_bool(0.5) {
                assert!(
                    trie.insert_all(&keys) <= keys.len(),
                    "insert_all over-reported"
                );
            } else {
                assert!(
                    trie.delete_all(&keys) <= keys.len(),
                    "delete_all over-reported"
                );
            }
        }
    }
}

/// The chaos-lane worker loop: arms this thread with its own copy of the
/// run's seeded plan, then runs every operation under `catch_unwind`;
/// injected panics are absorbed (the unwind guards finished or rolled back
/// the operation), and anything else is a real bug and is re-thrown.
#[cfg(feature = "fault-injection")]
fn worker_loop_faulty(
    trie: &LockFreeBinaryTrie,
    rng: &mut StdRng,
    universe: u64,
    stop: &AtomicBool,
    repro: &Repro,
    salt: u64,
) -> u64 {
    use lftrie_core::fault::{self, FaultPlan};
    fault::arm(
        FaultPlan::seeded(repro.seed)
            .with_rate(repro.fault_rate)
            .with_actions(repro.actions),
        salt,
    );
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            one_op(trie, rng, universe)
        })) {
            Ok(()) => n += 1,
            Err(payload) => {
                if payload.downcast_ref::<fault::InjectedFault>().is_none() {
                    std::panic::resume_unwind(payload); // a real bug
                }
            }
        }
    }
    fault::disarm();
    n
}

fn worker_loop_plain(
    trie: &LockFreeBinaryTrie,
    rng: &mut StdRng,
    universe: u64,
    stop: &AtomicBool,
) -> u64 {
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        one_op(trie, rng, universe);
        n += 1;
    }
    n
}

const USAGE: &str = "usage: torture [seconds] [threads] [log2_universe] [--trace <path>]
  env: LFTRIE_TORTURE_SEED=<u64> LFTRIE_TORTURE_FAULTS=mixed \
LFTRIE_TORTURE_FAULT_RATE=<0..=1024>";

/// Reads the command line (without the program name) and the `LFTRIE_TORTURE_*`
/// variables through `env`. Returns the run and the `--trace` path, or the
/// reason the input is unusable.
fn parse(
    args: &[String],
    env: impl Fn(&str) -> Option<String>,
) -> Result<(Repro, Option<String>), String> {
    let mut trace = None;
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args.next().ok_or("--trace requires a path argument")?;
            trace = Some(path.clone());
        } else {
            let n: u64 = arg
                .parse()
                .map_err(|_| format!("argument {arg:?} is not a non-negative integer"))?;
            positional.push(n);
        }
    }
    if positional.len() > 3 {
        return Err(format!(
            "{} positional arguments, at most 3",
            positional.len()
        ));
    }
    let seconds = positional.first().copied().unwrap_or(10);
    let threads = positional.get(1).copied().unwrap_or(4);
    let log2_u = positional.get(2).copied().unwrap_or(10);
    if threads == 0 {
        return Err("threads must be at least 1".into());
    }
    if !(1..=24).contains(&log2_u) {
        return Err(format!("log2_universe {log2_u} is outside 1..=24"));
    }
    let seed = match env("LFTRIE_TORTURE_SEED") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("LFTRIE_TORTURE_SEED={v:?} is not a u64"))?,
    };
    let (faults, actions) = match env("LFTRIE_TORTURE_FAULTS").as_deref() {
        None | Some("") => ("", &[][..]),
        Some("mixed") => ("mixed", MIXED),
        Some(mode) => {
            return Err(format!(
                "unknown LFTRIE_TORTURE_FAULTS mode {mode:?} (want mixed)"
            ))
        }
    };
    let fault_rate = match env("LFTRIE_TORTURE_FAULT_RATE") {
        None => 24,
        Some(v) => v
            .parse()
            .ok()
            .filter(|&r| r <= 1024)
            .ok_or_else(|| format!("LFTRIE_TORTURE_FAULT_RATE={v:?} is not in 0..=1024"))?,
    };
    let repro = Repro {
        seconds,
        threads: threads as usize,
        log2_u,
        seed,
        faults,
        actions,
        fault_rate,
    };
    Ok((repro, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let (repro, trace) = parse(&args, env).unwrap_or_else(|e| {
        eprintln!("torture: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(path) = trace {
        if lftrie_telemetry::trace::compiled() {
            TRACE_PATH.set(path).unwrap();
        } else {
            eprintln!("warning: --trace needs --features op-trace; running without capture");
        }
    }
    let (seconds, threads, log2_u) = (repro.seconds, repro.threads, repro.log2_u);
    let universe = 1u64 << log2_u;
    let faulty = chaos_lane(&repro);

    println!(
        "torture: {seconds}s, {threads} threads, universe 2^{log2_u}, seed {}, faults {}",
        repro.seed,
        if repro.faults.is_empty() {
            "off"
        } else {
            repro.faults
        }
    );
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut round = 0u64;
    let total_ops = Arc::new(AtomicU64::new(0));
    // Progress watchdog floor: even under the fault plan, the worker pool
    // as a whole must clear this many operations per 300 ms round. The
    // floor is intentionally far below fault-free throughput (~10^5/round)
    // — it catches a wedged trie, not a slow one.
    let min_ops_per_round = 10 * threads as u64;

    while Instant::now() < deadline {
        round += 1;
        let trie = Arc::new(LockFreeBinaryTrie::new(universe));
        let counters_at_start = lftrie_telemetry::counters();
        let stop = Arc::new(AtomicBool::new(false));
        let round_ops = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let trie = Arc::clone(&trie);
                let stop = Arc::clone(&stop);
                let total_ops = Arc::clone(&total_ops);
                let round_ops = Arc::clone(&round_ops);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(repro.seed ^ round ^ ((t as u64) << 32));
                    let salt = (round << 8) ^ t as u64;
                    let n = if faulty {
                        #[cfg(feature = "fault-injection")]
                        {
                            worker_loop_faulty(&trie, &mut rng, universe, &stop, &repro, salt)
                        }
                        #[cfg(not(feature = "fault-injection"))]
                        {
                            let _ = salt;
                            unreachable!("chaos lane armed without the feature")
                        }
                    } else {
                        let _ = salt;
                        worker_loop_plain(&trie, &mut rng, universe, &stop)
                    };
                    total_ops.fetch_add(n, Ordering::Relaxed);
                    round_ops.fetch_add(n, Ordering::Relaxed);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }

        // The progress watchdog: surviving threads must have kept working
        // while the fault plan fired.
        let this_round = round_ops.load(Ordering::Relaxed);
        if this_round < min_ops_per_round {
            fail(
                round,
                &trie,
                &repro,
                &format!(
                    "progress watchdog: {this_round} ops this round \
                     (floor {min_ops_per_round})"
                ),
            );
        }

        // Quiescent validation.
        let present: Vec<u64> = (0..universe).filter(|&x| trie.contains(x)).collect();
        for y in (1..universe).step_by(7) {
            let expected = present.iter().rev().find(|&&k| k < y).copied();
            let got = trie.predecessor(y);
            if got != expected {
                fail(
                    round,
                    &trie,
                    &repro,
                    &format!("predecessor({y}) = {got:?}, expected {expected:?}"),
                );
            }
            let expected_succ = present.iter().find(|&&k| k > y).copied();
            let got_succ = trie.successor(y);
            if got_succ != expected_succ {
                fail(
                    round,
                    &trie,
                    &repro,
                    &format!("successor({y}) = {got_succ:?}, expected {expected_succ:?}"),
                );
            }
        }
        if trie.min() != present.first().copied() || trie.max() != present.last().copied() {
            fail(
                round,
                &trie,
                &repro,
                &format!(
                    "min/max = {:?}/{:?}, expected {:?}/{:?}",
                    trie.min(),
                    trie.max(),
                    present.first(),
                    present.last()
                ),
            );
        }
        let mid = universe / 2;
        let expect_count = present.iter().filter(|&&k| k <= mid).count();
        if trie.count(0..=mid) != expect_count {
            fail(
                round,
                &trie,
                &repro,
                &format!(
                    "count(0..={mid}) = {}, expected {expect_count}",
                    trie.count(0..=mid)
                ),
            );
        }
        let lens = trie.announcements();
        if !lens.is_empty() {
            fail(
                round,
                &trie,
                &repro,
                &format!(
                    "announcements leaked: {}/{}/{}/{}",
                    lens.uall, lens.ruall, lens.pall, lens.sall
                ),
            );
        }
        // Heartbeat: throughput plus the reclamation health gauges that warn
        // of a wedged epoch (lagging reader) or unbounded garbage (limbo),
        // and the round's ⊥ answers and recoveries, which every thread
        // records.
        let snap = trie.telemetry();
        let in_round = snap.counters - counters_at_start;
        let ops = total_ops.load(Ordering::Relaxed);
        let ops_per_s = ops as f64 / start.elapsed().as_secs_f64();
        let (epoch_lag, stalled) = snap
            .epoch
            .as_ref()
            .map(|e| (e.min_pin_lag, e.stalled_readers))
            .unwrap_or((0, 0));
        let limbo: usize = snap.reclaim.iter().map(|r| r.limbo + r.pending).sum();
        #[cfg(feature = "fault-injection")]
        let fired = lftrie_core::fault::fired_total();
        #[cfg(not(feature = "fault-injection"))]
        let fired = 0u64;
        print!(
            "\rround {round}: ok ({ops} ops, {ops_per_s:.0} ops/s, ⊥ {bottoms}, rec {recoveries}, epoch lag {epoch_lag}, stalled {stalled}, limbo {limbo}, faults {fired})   ",
            bottoms = in_round.get(lftrie_telemetry::Counter::RelaxedBottoms),
            recoveries = in_round.get(lftrie_telemetry::Counter::Recoveries),
        );
        use std::io::Write;
        std::io::stdout().flush().ok();
    }
    println!(
        "\ntorture passed: {} rounds, {} ops",
        round,
        total_ops.load(Ordering::Relaxed)
    );
    if let Some(path) = write_trace() {
        println!("wrote Chrome trace-event JSON to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str], env: &[(&str, &str)]) -> Result<(Repro, Option<String>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args, |name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn defaults_and_full_input_parse() {
        let (repro, trace) = run(&[], &[]).unwrap();
        assert_eq!(
            (repro.seconds, repro.threads, repro.log2_u, trace),
            (10, 4, 10, None)
        );
        assert_eq!((repro.seed, repro.faults, repro.fault_rate), (0, "", 24));
        assert!(repro.actions.is_empty());

        let env = [
            ("LFTRIE_TORTURE_SEED", "99"),
            ("LFTRIE_TORTURE_FAULTS", "mixed"),
            ("LFTRIE_TORTURE_FAULT_RATE", "1024"),
        ];
        let (repro, trace) = run(&["5", "--trace", "t.json", "8", "24"], &env).unwrap();
        assert_eq!((repro.seconds, repro.threads, repro.log2_u), (5, 8, 24));
        assert_eq!(trace.as_deref(), Some("t.json"));
        assert_eq!(
            (repro.seed, repro.faults, repro.fault_rate),
            (99, "mixed", 1024)
        );
        assert_eq!(repro.actions, MIXED);
    }

    #[test]
    fn bad_input_is_rejected_not_defaulted() {
        // An unparsable positional used to be dropped, shifting the rest:
        // `10 x 8` ran 8 threads at u = 2^10.
        assert!(run(&["10", "x", "8"], &[]).is_err());
        assert!(run(&["1", "2", "3", "4"], &[]).is_err());
        assert!(run(&["1", "0"], &[]).is_err());
        assert!(run(&["1", "2", "25"], &[]).is_err());
        assert!(run(&["1", "2", "0"], &[]).is_err());
        assert!(run(&["--trace"], &[]).is_err());
        assert!(run(&[], &[("LFTRIE_TORTURE_SEED", "seven")]).is_err());
        assert!(run(&[], &[("LFTRIE_TORTURE_FAULT_RATE", "1025")]).is_err());
        assert!(run(&[], &[("LFTRIE_TORTURE_FAULT_RATE", "-1")]).is_err());
        assert!(run(&[], &[("LFTRIE_TORTURE_FAULTS", "panik")]).is_err());
        assert!(run(&[], &[("LFTRIE_TORTURE_FAULTS", "panic")]).is_err());
    }
}
