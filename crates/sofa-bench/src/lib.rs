//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section.
//!
//! Each experiment is a library function in [`experiments`] that returns a
//! [`Table`]; the typed [`registry`] names every runnable experiment and
//! drives the `sofa-bench <experiment>` binary (`sofa-bench all` runs the
//! whole evaluation section), the spec-driven `sofa-harness` runner, and
//! the generated `docs/EXPERIMENTS.md` catalogue — so none of them can
//! drift from the code.

pub mod experiments;
pub mod registry;
pub mod report;

pub use registry::{ExperimentEntry, ExperimentOutput, MetricValue};
pub use report::Table;
