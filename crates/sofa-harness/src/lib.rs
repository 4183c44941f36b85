//! Declarative experiment + gate harness.
//!
//! Every CI-relevant experiment is a JSON *spec file* under `specs/` naming
//! an experiment from the typed [`sofa_bench::registry`], the artifacts it
//! writes, the golden snapshot it must match, and a list of gate
//! *predicates* drawn from a small algebra ([`spec::Predicate`]):
//! `tolerance`, `dominance`, `non_empty`, `two_run_determinism`,
//! `thread_byte_identity`, `golden_match`, `golden_hash`, `trace_valid`,
//! `count_equality` and `wall_time_budget`. One binary (`harness`) executes them:
//!
//! ```text
//! harness run  (--all | --spec NAME...) [--json PATH] [--update-golden] [--specs DIR]
//! harness check [--specs DIR]           # lint every spec without running it
//! harness list [--markdown] [--specs DIR]
//! ```
//!
//! `harness run` follows the regression-gate exit-code contract: `0` all
//! predicates passed, `1` a gate tripped (a genuine regression), `2` an
//! artifact was missing, unwritable or unparseable (an infrastructure
//! problem — fix the pipeline, not the code). Adding a scenario or a gate
//! is a spec-file diff, not a new binary + golden wiring + CI step + gate
//! clause.

pub mod catalog;
pub mod golden;
pub mod predicate;
pub mod runner;
pub mod spec;
