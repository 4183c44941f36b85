//! Request-level serving on top of the SOFA cycle-level simulation.
//!
//! The paper evaluates one attention task at a time; this crate opens the
//! serving-workload scenario: a stream of mixed prefill/decode requests
//! (`sofa_model::trace`) is multiplexed onto one or more simulated SOFA
//! instances that share a DRAM channel (`sofa_sim::multi`), under a
//! continuous-batching admission scheduler.
//!
//! * `admission` (crate-private) — the admission core both simulators
//!   share: the deduplicated lowering pass, the request table, the
//!   arrival/retry intake, per-instance bookings, the aged smallest-first
//!   pick, the least-booked placement and the adaptive controller (decay,
//!   feedback pressure, retries).
//! * [`scheduler`] — [`ServeSim`]: routes each request to an
//!   `OperatingPoint` ([`OpRouter`]: trace-native, fixed, or per-class
//!   Pareto routing through a DSE front), lowers it layer by layer into a
//!   tile stream, admits its sparsity-reduced footprint against a
//!   per-instance buffer budget (a larger budget overbooks, Tailors-style)
//!   and a per-request energy budget (re-routing or shedding over-budget
//!   requests), balances load across instances, and ages waiting requests
//!   so none starves.
//! * [`report`] — [`ServeReport`]: per-request latency percentiles
//!   (p50/p95/p99), queueing delay, projected energy (J/req), per-instance
//!   utilization, DRAM-sharing statistics, shed requests.
//! * [`routing`] — [`DseServeComparison`] / [`RoutedServeStudy`]: serve the
//!   same trace at the paper-default point, a DSE-tuned point, and
//!   per-request Pareto routing (`sofa_dse::DseReport`), for side-by-side
//!   latency/energy comparison.
//! * [`fleet`] — [`FleetServeSim`]: sharded serving across many nodes
//!   (each a private-DRAM node of `sofa_sim::FleetSim`) joined by an
//!   inter-node fabric; epoch-synchronized least-booked placement with optional
//!   prefill/decode disaggregation, reporting streaming-sketch percentiles
//!   ([`FleetReport`]) so million-request traces stay cheap. The fleet
//!   records no trace.
//!
//! # Example
//!
//! ```
//! use sofa_hw::config::HwConfig;
//! use sofa_model::trace::{RequestTrace, TraceConfig};
//! use sofa_serve::{ServeConfig, ServeSim};
//!
//! let mut tc = TraceConfig::new(8, 50.0, 42);
//! tc.seq_len = 256;
//! tc.hidden = 256;
//! tc.heads = 4;
//! tc.prefill_queries = 8;
//! let trace = RequestTrace::generate(&tc);
//! let report = ServeSim::new(ServeConfig::new(HwConfig::small(), 2)).run(&trace);
//! assert_eq!(report.records.len(), 8);
//! assert!(report.p99() >= report.p50());
//! ```

mod admission;
pub mod fleet;
pub mod report;
pub mod routing;
pub mod scheduler;

pub use fleet::{FleetConfig, FleetReport, FleetServeSim};
pub use report::{RequestRecord, ServeReport, ShedRecord};
pub use routing::{AdaptiveServeConfig, AdaptiveServeStudy, DseServeComparison, RoutedServeStudy};
pub use scheduler::{FeedbackConfig, OpRouter, RetryPolicy, ServeConfig, ServeSim};
