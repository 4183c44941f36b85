//! Hardware-aware design-space exploration of the cross-stage tiling
//! parameters (paper §III-D, Algorithm 1 — closed against the hardware).
//!
//! The paper picks per-layer tile sizes `Bc` and a keep ratio `k` with
//! Bayesian optimisation over a *proxy* objective: an accuracy-loss term plus
//! analytic sorting/synchronisation penalties. This crate supersedes the old
//! `sofa_core::dse` module by closing the loop the proxy approximated: every
//! candidate is lowered through the real stack —
//!
//! ```text
//! (tile sizes, keep ratio)
//!   → SofaPipeline::predict (once per layer)  stage-1 DLZS scores, per search
//!   → SofaPipeline::run_predicted (per layer) measured proxy loss + op counts
//!   → PipelineResult::tile_selection_stats    real per-tile selection counts
//!   → SofaAccelerator::tile_descriptors       per-tile work + DRAM traffic
//!   → CycleSim::run_with_stats                end-to-end cycles
//!   → sofa_hw energy / area models            energy (pJ) and area (mm²)
//! ```
//!
//! — so each candidate is scored as a `(loss, cycles, energy_pj, area_mm2)`
//! vector ([`MetricVector`]) instead of a scalar proxy.
//!
//! * [`space`] — the discrete search space ([`DseSpace`], [`DseCandidate`])
//!   and the analytic penalty terms retained for the proxy-mode search.
//! * [`surrogate`] — the Gaussian-process surrogate and expected-improvement
//!   acquisition shared by both search modes.
//! * [`search`] — the proxy-objective Bayesian/random search (the paper's
//!   Algorithm 1, kept for the ablation experiment).
//! * [`eval`] — [`HwAwareEvaluator`]: the candidate-to-metric-vector lowering
//!   described above, scored through an [`EvalSession`] that predicts each
//!   layer once, batch-parallel via `sofa-par` and bit-identical at any
//!   `SOFA_THREADS`.
//! * [`pareto`] — non-dominated filtering with deterministic dedup and
//!   ordering.
//! * [`report`] — [`hardware_aware_search`]: scalarized Bayesian search under
//!   several weight profiles in parallel, pooled into a [`DseReport`] with
//!   the Pareto front and the tuned-vs-paper-default comparison that
//!   `sofa-serve` and `sofa-bench` consume.
//!
//! # Example
//!
//! ```
//! use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
//!
//! let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(7), 2);
//! let report = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(7));
//! assert!(!report.pareto.is_empty());
//! assert_eq!(report.best.candidate.tile_sizes.len(), 2);
//! ```

pub mod eval;
pub mod pareto;
pub mod report;
pub mod search;
pub mod space;
pub mod surrogate;

pub use eval::{CandidateEval, EvalConfig, EvalSession, HwAwareEvaluator, MetricVector};
pub use pareto::{pareto_front, ParetoFront};
pub use report::{hardware_aware_search, DseReport, DseSearchConfig, ScalarWeights};
pub use search::{bayesian_optimize, random_search, DseConfig, DseResult};
pub use space::{DseCandidate, DseSpace};
