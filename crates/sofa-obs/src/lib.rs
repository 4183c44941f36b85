//! Deterministic observability for the SOFA reproduction stack.
//!
//! Two complementary sinks, both designed so their output can be
//! golden-tested byte-for-byte like every other artifact in this repo:
//!
//! * [`metrics::MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms with *stable iteration order* (sorted maps, no hash
//!   nondeterminism) and a single-line JSON snapshot export.
//! * [`trace::TraceRecorder`] — a span/event recorder stamped in **simulated
//!   cycles, not wall clock**, exporting Chrome trace-event JSON that loads
//!   directly in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Plus one streaming aggregate: [`sketch::QuantileSketch`], the
//! log-bucketed histogram serving reports use for O(1) latency percentiles
//! at fleet scale (deterministic, mergeable, ≤1/128 relative error).
//!
//! Determinism contract: a disabled recorder is a branch and nothing else
//! (no allocation, no formatting), so instrumented code paths produce
//! bit-identical results with tracing off; with tracing on, per-worker
//! buffers forked with [`trace::TraceRecorder::fork`] and merged in caller
//! order with [`trace::TraceRecorder::absorb`] make the trace byte-identical
//! at any `SOFA_THREADS`.
//!
//! [`check::validate_chrome_trace`] is a small self-contained validity
//! checker (schema, per-track timestamp monotonicity, balanced begin/end)
//! used by the CI regression gate on the exported trace artifact.
//!
//! On the host's side, [`alloc::CountingAlloc`] is a global allocator that
//! counts live and peak heap bytes and allocations, for the binaries that
//! gate what a run holds in memory.

pub mod alloc;
pub mod check;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod trace;

pub use check::{validate_chrome_trace, TraceStats};
pub use metrics::MetricsRegistry;
pub use sketch::QuantileSketch;
pub use trace::{ArgValue, TraceRecorder};
