//! Experiment runner: regenerates every experiment, E1–E12.
//!
//! Usage:
//!
//! ```text
//! experiments [e1 e2 … e12 | all] [--quick] [--emit-json] [--trace <path>]
//! ```
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let emit_json = args.iter().any(|a| a == "--emit-json");
    // `--trace <path>` takes a value: pull the pair out before the
    // positional scan below mistakes the path for an experiment name.
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("--trace requires a path argument");
                std::process::exit(2);
            }
            let path = args.remove(i + 1);
            args.remove(i);
            path
        })
        .filter(|_| {
            if !lftrie_telemetry::trace::compiled() {
                eprintln!("--trace ignored: rebuild with `--features op-trace` to capture");
                return false;
            }
            true
        });
    let mut wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
        ]
        .map(String::from)
        .to_vec();
    }

    report::print_environment();
    if quick {
        println!("mode: --quick (reduced sizes)");
    }

    for exp in &wanted {
        let tables: Vec<Table> = match exp.as_str() {
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
            "e1" => vec![experiments::e1_search_steps(quick)],
            "e2" => vec![experiments::e2_relaxed_op_steps(quick)],
            "e3" => vec![experiments::e3_contention_steps(quick)],
            "e4" => experiments::e4_throughput(quick),
            "e5" => vec![experiments::e5_bottom_rate(quick)],
            "e6" => vec![experiments::e6_space(quick)],
            "e7" => vec![experiments::e7_progress(quick)],
            "e8" => vec![experiments::e8_latency(quick)],
            "e9" => vec![experiments::e9_scan(quick)],
            "e10" => vec![experiments::e10_scan_amortization(quick)],
            "e11" => vec![experiments::e11_telemetry(quick)],
            "e12" => vec![experiments::e12_phase_attribution(quick)],
            other => {
                eprintln!("unknown experiment: {other} (expected e1..e12 or all)");
                continue;
            }
        };
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
