//! Step-count instrumentation for the complexity experiments (E1–E3).
//!
//! The paper's claims are about *step complexity*: the number of accesses to
//! shared objects. To reproduce those claims empirically every shared read,
//! write, CAS and MinWrite the algorithms perform bumps a telemetry counter
//! (`StepReads` … `StepMinWrites`) on the calling thread's shard. Counting
//! is compiled in only under the `step-count` feature; without it every
//! recorder is a no-op the optimizer deletes, so throughput experiments are
//! unaffected.
//!
//! A per-thread interval is two [`lftrie_telemetry::thread_counters`] reads:
//!
//! ```
//! use lftrie_primitives::steps;
//! use lftrie_telemetry::{thread_counters, Counter};
//!
//! let before = thread_counters();
//! steps::on_read();
//! steps::on_cas();
//! let interval = thread_counters() - before;
//! if cfg!(feature = "step-count") && lftrie_telemetry::enabled() {
//!     assert_eq!(interval.get(Counter::StepCas), 1);
//!     assert_eq!(interval.steps(), 2);
//! } else {
//!     assert_eq!(interval.steps(), 0);
//! }
//! ```

#[cfg(feature = "step-count")]
use lftrie_telemetry::{add, Counter};

/// Records a shared read.
#[inline]
pub fn on_read() {
    #[cfg(feature = "step-count")]
    add(Counter::StepReads, 1);
}

/// Records a shared write.
#[inline]
pub fn on_write() {
    #[cfg(feature = "step-count")]
    add(Counter::StepWrites, 1);
}

/// Records a CAS attempt.
#[inline]
pub fn on_cas() {
    #[cfg(feature = "step-count")]
    add(Counter::StepCas, 1);
}

/// Records a MinWrite.
#[inline]
pub fn on_min_write() {
    #[cfg(feature = "step-count")]
    add(Counter::StepMinWrites, 1);
}
