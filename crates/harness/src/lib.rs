//! Evaluation harness for the lock-free binary trie reproduction.
//!
//! * [`workload`] — operation mixes and deterministic streams.
//! * [`driver`] — barrier-synchronized multithreaded measurement.
//! * [`experiments`] — the E1–E12 experiment runners.
//! * [`report`] — markdown table output.
//!
//! The `experiments` binary ties it together:
//!
//! ```text
//! cargo run -p lftrie-harness --release --bin experiments -- all --quick
//! cargo run -p lftrie-harness --release --features step-count --bin experiments -- e1 e2 e3
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod experiments;
pub mod report;
pub mod workload;

/// True if this build records shared-memory steps, as experiments E1–E3
/// require: the `step-count` feature, with telemetry recording on (steps
/// are telemetry counters, so a kill-switched or compiled-out recorder
/// would report zeros).
pub fn steps_enabled() -> bool {
    cfg!(feature = "step-count") && lftrie_telemetry::enabled()
}
