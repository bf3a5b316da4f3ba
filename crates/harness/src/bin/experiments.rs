//! Experiment runner: regenerates every experiment, E1–E12.
//!
//! Usage:
//!
//! ```text
//! experiments [e1 e2 … e12 | all] [--quick] [--emit-json] [--trace <path>]
//! ```
//!
//! An unknown experiment name or flag exits 2 with a usage line before any
//! experiment runs.
//!
//! E1–E3 measure *step complexity* and need the `step-count` feature:
//!
//! ```text
//! cargo run -p lftrie-harness --release --features step-count --bin experiments -- e1 e2 e3
//! ```
//!
//! E12 measures *phase attribution* and needs the `op-trace` feature; with
//! `--trace <path>` the runner additionally writes the captured Chrome
//! trace-event JSON there after the selected experiments finish (open it
//! in Perfetto or `chrome://tracing`).
//!
//! `--emit-json` additionally writes one `BENCH_<exp>.json` per experiment
//! run (JSON lines: the table rows, then a final `{"telemetry": …}` object
//! with the process-global counters, histograms, and latency percentiles).
//! Target directory: `$LFTRIE_BENCH_DIR`, else the current directory.

use lftrie_harness::report::Table;
use lftrie_harness::{experiments, report, steps_enabled};

const USAGE: &str =
    "usage: experiments [e1 e2 … e12 | all] [--quick] [--emit-json] [--trace <path>]";

/// Runs one experiment (`--quick` or not) and returns its tables.
type Runner = fn(bool) -> Vec<Table>;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [(&str, Runner); 12] = [
    ("e1", |q| vec![experiments::e1_search_steps(q)]),
    ("e2", |q| vec![experiments::e2_relaxed_op_steps(q)]),
    ("e3", |q| vec![experiments::e3_contention_steps(q)]),
    ("e4", experiments::e4_throughput),
    ("e5", |q| vec![experiments::e5_bottom_rate(q)]),
    ("e6", |q| vec![experiments::e6_space(q)]),
    ("e7", |q| vec![experiments::e7_progress(q)]),
    ("e8", |q| vec![experiments::e8_latency(q)]),
    ("e9", |q| vec![experiments::e9_scan(q)]),
    ("e10", |q| vec![experiments::e10_scan_amortization(q)]),
    ("e11", |q| vec![experiments::e11_telemetry(q)]),
    ("e12", |q| vec![experiments::e12_phase_attribution(q)]),
];

/// The checked command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Indices into [`EXPERIMENTS`] of the experiments to run, in order.
    wanted: Vec<usize>,
    quick: bool,
    emit_json: bool,
    trace: Option<String>,
}

/// Reads the command line (without the program name). Every experiment
/// name is checked before any experiment runs; no name, or `all`, selects
/// all twelve.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut all = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--emit-json" => parsed.emit_json = true,
            "--trace" => {
                let path = args.next().ok_or("--trace requires a path argument")?;
                parsed.trace = Some(path.clone());
            }
            "all" => all = true,
            name => {
                let i = EXPERIMENTS
                    .iter()
                    .position(|&(exp, _)| exp == name)
                    .ok_or_else(|| {
                        format!("unknown experiment or flag {name:?} (expected e1..e12 or all)")
                    })?;
                parsed.wanted.push(i);
            }
        }
    }
    if all || parsed.wanted.is_empty() {
        parsed.wanted = (0..EXPERIMENTS.len()).collect();
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        wanted,
        quick,
        emit_json,
        trace,
    } = parse(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let trace_path = trace.filter(|_| {
        if !lftrie_telemetry::trace::compiled() {
            eprintln!("--trace ignored: rebuild with `--features op-trace` to capture");
            return false;
        }
        true
    });

    report::print_environment();
    if quick {
        println!("mode: --quick (reduced sizes)");
    }

    for i in wanted {
        let (exp, run) = EXPERIMENTS[i];
        match exp {
            "e1" | "e2" | "e3" if !steps_enabled() => {
                println!(
                    "\n### {}: skipped — steps need `--features step-count` and telemetry recording on",
                    exp.to_uppercase()
                );
                continue;
            }
            "e12" if !lftrie_telemetry::trace::compiled() => {
                println!(
                    "\n### E12: skipped — rebuild with `--features op-trace` to capture phases"
                );
                continue;
            }
            _ => {}
        }
        let tables = run(quick);
        for table in &tables {
            table.print();
        }
        if emit_json {
            match report::write_bench_json(exp, &tables) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write BENCH_{exp}.json: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if let Some(path) = trace_path {
        let json = lftrie_telemetry::trace::chrome_trace_json();
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote Chrome trace-event JSON to {path}"),
            Err(e) => {
                eprintln!("failed to write trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn names_and_flags_parse() {
        let every: Vec<usize> = (0..12).collect();
        let all = run(&[]).unwrap();
        assert_eq!(all.wanted, every);
        assert!(!all.quick && !all.emit_json && all.trace.is_none());
        assert_eq!(run(&["e4", "all"]).unwrap().wanted, every);

        let args = run(&["e9", "--quick", "--trace", "t.json", "e1", "--emit-json"]).unwrap();
        assert_eq!(
            args,
            Args {
                wanted: vec![8, 0],
                quick: true,
                emit_json: true,
                trace: Some("t.json".to_string()),
            }
        );
    }

    #[test]
    fn an_unknown_name_or_flag_rejects_the_whole_run() {
        assert!(run(&["e1", "e13"]).is_err());
        assert!(run(&["e4", "--quik"]).is_err());
        assert!(run(&["e4", "--trace"]).is_err());
    }
}
