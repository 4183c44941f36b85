//! The typed experiment registry: one entry per runnable experiment, with
//! everything the consumers need to stay in sync — the `sofa-bench`
//! binary (`sofa-bench <name>`, `sofa-bench all`), the spec-driven
//! `sofa-harness` runner (both look experiments up by name), and the
//! generated `docs/EXPERIMENTS.md` catalogue (`harness list --markdown`).
//!
//! An experiment run produces an [`ExperimentOutput`]: the tables it
//! renders, named scalar/series *metrics* for gate predicates (tolerance,
//! dominance, count equality), and named *texts* for non-tabular artifacts
//! (the Chrome trace and metrics snapshot). Keeping the gate inputs in the
//! output — instead of recomputing them in a bespoke gate binary — is what
//! lets a spec file express a regression gate declaratively.

use crate::experiments;
use crate::report::Table;
use sofa_hw::config::HwConfig;
use sofa_sim::CycleSim;
use std::collections::BTreeMap;

/// A named gate-input value exported by an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// One number (a percentile, a count, a budget).
    Scalar(f64),
    /// One number per grid point (the per-config relative errors).
    Series(Vec<f64>),
}

/// Everything one experiment run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentOutput {
    /// Human-readable tables, in print order (the `--json` artifact is the
    /// JSON array of these, exactly as `report::tables_to_json` writes it).
    pub tables: Vec<Table>,
    /// Named gate inputs for spec predicates.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Named non-tabular artifacts (`trace`, `metrics`, `summary`).
    pub texts: BTreeMap<String, String>,
}

impl ExperimentOutput {
    /// An output that is just tables (most experiments).
    pub fn of_tables(tables: Vec<Table>) -> Self {
        ExperimentOutput {
            tables,
            ..Default::default()
        }
    }

    /// Adds a scalar metric (builder style).
    pub fn with_scalar(mut self, name: &str, value: f64) -> Self {
        self.metrics
            .insert(name.to_string(), MetricValue::Scalar(value));
        self
    }

    /// Adds a series metric (builder style).
    pub fn with_series(mut self, name: &str, values: Vec<f64>) -> Self {
        self.metrics
            .insert(name.to_string(), MetricValue::Series(values));
        self
    }

    /// Adds a named text artifact (builder style).
    pub fn with_text(mut self, name: &str, text: String) -> Self {
        self.texts.insert(name.to_string(), text);
        self
    }

    /// Looks up a scalar metric.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Scalar(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a metric as a series (a scalar is a length-1 series).
    pub fn series(&self, name: &str) -> Option<Vec<f64>> {
        match self.metrics.get(name) {
            Some(MetricValue::Scalar(v)) => Some(vec![*v]),
            Some(MetricValue::Series(vs)) => Some(vs.clone()),
            None => None,
        }
    }
}

/// One registered experiment.
pub struct ExperimentEntry {
    /// Registry key — what spec files name in their `experiment` field and
    /// `sofa-bench <name>` runs.
    pub name: &'static str,
    /// One-line description (the generated catalogue's prose column).
    pub about: &'static str,
    /// `true` for reproductions of the paper's figures/tables; `false`
    /// for the simulation / serving / DSE studies that go beyond it.
    pub paper: bool,
    /// Run by `sofa-bench all`.
    pub in_all: bool,
    /// Must run on the main thread, after any parallel fan-out (the
    /// `par_scaling` wall-time study — inside a parallel region `sofa-par`
    /// degrades to sequential and the speedup column would read 1.0x).
    pub main_thread: bool,
    /// Runs the experiment.
    pub run: fn() -> ExperimentOutput,
}

/// Maximum |relative error| tolerated between cycle simulation and the
/// analytic model on compute-bound configurations. The `cycle_sim_fidelity`
/// spec repeats the number; the differential test in
/// `tests/harness_specs.rs` keeps the two in agreement.
pub const CYCLE_SIM_TOLERANCE: f64 = 0.25;

/// Maximum p95 drift tolerated between the fleet path at 1 node × 1
/// instance and the single-node scheduler (CI gate `fleet`).
pub const FLEET_TOLERANCE: f64 = 0.15;

/// The cycle-sim fidelity gate input: per-config relative error of the
/// cycle simulator against the analytic model on the *compute-bound*
/// points of the standard grid (memory-bound points are expected to
/// diverge and are exported for reference only).
pub fn cycle_sim_fidelity_output() -> ExperimentOutput {
    let sim = CycleSim::new(HwConfig::paper_default());
    let mut t = Table::new(
        "Gate  Cycle-sim fidelity on the standard grid (compute-bound only)",
        &["T", "S", "keep", "Bc", "bound", "rel err"],
    );
    let mut errors = Vec::new();
    for task in experiments::cycle_sim_tasks() {
        let cmp = sim.validate(&task).1;
        let bound = if cmp.analytic_memory_bound {
            "memory"
        } else {
            "compute"
        };
        if !cmp.analytic_memory_bound {
            errors.push(cmp.relative_error);
        }
        t.push([
            task.queries.to_string(),
            task.seq_len.to_string(),
            format!("{}", task.keep_ratio),
            task.tile_size.to_string(),
            bound.to_string(),
            format!("{:+.1}%", 100.0 * cmp.relative_error),
        ]);
    }
    let n = errors.len() as f64;
    ExperimentOutput::of_tables(vec![t])
        .with_series("compute_bound_rel_err", errors)
        .with_scalar("compute_bound_configs", n)
}

/// The DSE gate output on an already-computed report: the Pareto-front and
/// serving-A/B tables plus the front-size metrics gate `dse` checks.
pub fn dse_output_from(r: &sofa_dse::DseReport) -> ExperimentOutput {
    ExperimentOutput::of_tables(vec![
        experiments::dse_pareto_from(r),
        experiments::dse_serve_ab_from(r),
    ])
    .with_scalar("pareto_points", r.pareto.len() as f64)
    .with_scalar("dominating_points", r.dominating().len() as f64)
}

/// The routed-serving gate output on an already-computed study: the
/// `serve_routed` table plus the (p95, J/req, budget) metrics gate
/// `routing` checks.
pub fn routed_output_from(study: &sofa_serve::RoutedServeStudy) -> ExperimentOutput {
    let max_request_pj = study
        .budgeted
        .records
        .iter()
        .map(|r| r.energy_pj)
        .fold(0.0f64, f64::max);
    ExperimentOutput::of_tables(vec![experiments::serve_routed_table(study)])
        .with_scalar("routed_p95", study.routed.p95() as f64)
        .with_scalar(
            "routed_energy_pj_per_req",
            study.routed.energy_pj_per_request(),
        )
        .with_scalar("default_p95", study.paper_default.p95() as f64)
        .with_scalar(
            "default_energy_pj_per_req",
            study.paper_default.energy_pj_per_request(),
        )
        .with_scalar("tuned_p95", study.tuned.p95() as f64)
        .with_scalar("budgeted_max_request_pj", max_request_pj)
        .with_scalar("budget_pj", study.budget_pj)
}

/// The adaptive-serving gate output on an already-computed study: the
/// `serve_adaptive` table plus the (p95, shed, J/req) metrics gate
/// `adaptive` checks. `decode_op` labels the operating-point column.
pub fn adaptive_output_from(
    study: &sofa_serve::AdaptiveServeStudy,
    decode_op: &sofa_model::OperatingPoint,
) -> ExperimentOutput {
    ExperimentOutput::of_tables(vec![experiments::serve_adaptive_table(study, decode_op)])
        .with_scalar("adaptive_p95", study.adaptive.p95() as f64)
        .with_scalar("static_p95", study.static_routed.p95() as f64)
        .with_scalar("adaptive_shed", study.adaptive.shed.len() as f64)
        .with_scalar("static_shed", study.static_routed.shed.len() as f64)
        .with_scalar(
            "adaptive_energy_pj_per_req",
            study.adaptive.energy_pj_per_request(),
        )
        .with_scalar(
            "static_energy_pj_per_req",
            study.static_routed.energy_pj_per_request(),
        )
}

/// The fleet-consistency gate output on an already-computed pair: served
/// counts and p95 drift between the 1×1 fleet path and the single-node
/// scheduler on the same trace.
pub fn fleet_consistency_output_from(
    fleet: &sofa_serve::FleetReport,
    single: &sofa_serve::ServeReport,
) -> ExperimentOutput {
    let drift = sofa_serve::fleet::p95_drift(fleet, single);
    let mut t = Table::new(
        "Gate  Fleet 1x1 vs single-node scheduler",
        &["path", "served", "p95 kcyc"],
    );
    t.push([
        "fleet 1x1".to_string(),
        fleet.served.to_string(),
        format!("{:.1}", fleet.p95() as f64 / 1e3),
    ]);
    t.push([
        "single-node".to_string(),
        single.records.len().to_string(),
        format!("{:.1}", single.p95() as f64 / 1e3),
    ]);
    ExperimentOutput::of_tables(vec![t])
        .with_scalar("fleet_served", fleet.served as f64)
        .with_scalar("single_served", single.records.len() as f64)
        .with_scalar("p95_drift", drift)
}

/// The observability run as an output: the serving summary plus the Chrome
/// trace and metrics snapshot as named texts, byte-identical to what the
/// `sofa-bench serve_trace` writes.
fn serve_trace_output() -> ExperimentOutput {
    let (report, obs, metrics) = experiments::serve_trace_observed();
    let summary = format!("{}trace: {} events\n", report.summary(), obs.len());
    ExperimentOutput::default()
        .with_text("summary", summary)
        .with_text("trace", obs.to_chrome_json())
        .with_text("metrics", format!("{}\n", metrics.to_json()))
}

/// The full registry, in canonical order: the paper artefacts first (the
/// order `sofa-bench all` prints them), then the studies and gate-only
/// experiments.
pub fn registry() -> Vec<ExperimentEntry> {
    fn paper(
        name: &'static str,
        about: &'static str,
        run: fn() -> ExperimentOutput,
    ) -> ExperimentEntry {
        ExperimentEntry {
            name,
            about,
            paper: true,
            in_all: true,
            main_thread: false,
            run,
        }
    }
    fn study(
        name: &'static str,
        about: &'static str,
        in_all: bool,
        run: fn() -> ExperimentOutput,
    ) -> ExperimentEntry {
        ExperimentEntry {
            name,
            about,
            paper: false,
            in_all,
            main_thread: false,
            run,
        }
    }
    fn tables(f: fn() -> Table) -> ExperimentOutput {
        ExperimentOutput::of_tables(vec![f()])
    }
    vec![
        paper(
            "fig01_breakdown",
            "Fig. 1 — memory-footprint and computation breakdown for long sequences",
            || tables(experiments::fig01_breakdown),
        ),
        paper(
            "fig03_mat",
            "Fig. 3 — memory-access-time ratio of whole-row dynamic-sparsity accelerators vs token parallelism",
            || tables(experiments::fig03_mat),
        ),
        paper(
            "fig04_oi",
            "Fig. 4 — operational intensity of QKV / MHA / FFN vs token parallelism",
            || tables(experiments::fig04_oi),
        ),
        paper(
            "fig05_fa2_overhead",
            "Fig. 5 — FlashAttention-2 exp/compare overhead vs the un-tiled softmax",
            || tables(experiments::fig05_fa2_overhead),
        ),
        paper(
            "fig08_distribution",
            "Fig. 8 — proportions of the three attention-score distribution types",
            || tables(experiments::fig08_distribution),
        ),
        paper(
            "fig16_latency_breakdown",
            "Fig. 16 — GPU latency breakdown and attention memory/energy share",
            || tables(experiments::fig16_latency_breakdown),
        ),
        paper(
            "fig17_complexity_ablation",
            "Fig. 17 — normalized complexity of the 4-bit+full-sort+FA-2 → DLZS → +SADS → +SU-FA ablation",
            || tables(experiments::fig17_complexity_ablation),
        ),
        paper(
            "fig18_lp_reduction",
            "Fig. 18 — LP computation reduction on the 20-benchmark suite at 0/1/2 % loss budgets",
            || tables(experiments::fig18_lp_reduction),
        ),
        paper(
            "fig19_throughput",
            "Fig. 19 — SOFA throughput gain over the A100 and over LP / LP+FA variants",
            || tables(experiments::fig19_throughput),
        ),
        paper(
            "fig20_memory_energy",
            "Fig. 20 — memory-access reduction and energy-efficiency gain over the A100",
            || tables(experiments::fig20_memory_energy),
        ),
        paper(
            "fig21_gain_breakdown",
            "Fig. 21 — gain breakdown of SOFA's mechanisms added to the GPU/TPU",
            || tables(experiments::fig21_gain_breakdown),
        ),
        paper(
            "table1_summary",
            "Table I — qualitative optimisation coverage of the SOTA accelerators",
            || tables(experiments::table1_summary),
        ),
        paper(
            "table2_comparison",
            "Table II — quantitative comparison with the SOTA accelerators",
            || tables(experiments::table2_comparison),
        ),
        paper(
            "table3_area_power",
            "Table III — area and power breakdown of the accelerator",
            || tables(experiments::table3_area_power),
        ),
        paper(
            "table4_power",
            "Table IV — system power breakdown (core / memory interface / DRAM)",
            || tables(experiments::table4_power),
        ),
        paper(
            "ablation_dse",
            "DSE convergence: Bayesian optimisation vs random search",
            || tables(experiments::ablation_dse),
        ),
        paper(
            "ablation_sufa_order",
            "SU-FA ascending vs descending updating order (§III-C)",
            || tables(experiments::ablation_sufa_order),
        ),
        paper(
            "ablation_rass",
            "RASS KV-fetch reduction vs the naive schedule",
            || tables(experiments::ablation_rass),
        ),
        study(
            "sim_cycle_vs_analytic",
            "cycle simulator vs analytic model across compute- and memory-bound configs, plus the per-stage stall breakdown",
            true,
            || {
                ExperimentOutput::of_tables(vec![
                    experiments::sim_cycle_vs_analytic(),
                    experiments::sim_stall_breakdown(),
                ])
            },
        ),
        study(
            "dse_pareto",
            "hardware-aware DSE Pareto front + tuned-vs-default serving A/B (process-cached search)",
            true,
            || dse_output_from(&experiments::dse_pareto_report()),
        ),
        study(
            "serve_routed",
            "paper-default vs tuned vs Pareto-routed vs budgeted routing on one mixed trace",
            true,
            || routed_output_from(&experiments::serve_routed_study()),
        ),
        ExperimentEntry {
            name: "par_scaling",
            about: "wall-time vs worker threads with a bit-identity re-check column (host-dependent, never gated)",
            paper: false,
            in_all: true,
            main_thread: true,
            run: || tables(experiments::par_scaling),
        },
        study(
            "serve_sweep",
            "continuous-batching latency percentiles + multi-instance strong scaling",
            false,
            || {
                ExperimentOutput::of_tables(vec![
                    experiments::serve_throughput_latency(),
                    experiments::serve_scaling(),
                ])
            },
        ),
        study(
            "serve_adaptive",
            "closed-loop controller A/B: the overload trace under static budgeted Pareto routing vs decay + measured-state feedback + client shed/retry",
            false,
            || {
                let report = experiments::dse_pareto_report();
                let decode_op = report.route(&sofa_model::trace::RequestClass::Decode);
                adaptive_output_from(&experiments::serve_adaptive_study_from(&report), &decode_op)
            },
        ),
        study(
            "serve_fleet",
            "fleet-scale sharded serving: the pinned 1/2/4-node grid over the inter-node fabric",
            false,
            || tables(experiments::serve_fleet),
        ),
        study(
            "serve_fleet_mega",
            "one million requests through 8 nodes x 8 instances — the CI thread-matrix byte-identity scenario",
            false,
            || {
                ExperimentOutput::of_tables(vec![experiments::serve_fleet_scaled(
                    1_000_000, 400.0, 8, 8, false,
                )])
            },
        ),
        study(
            "serve_fleet_consistency",
            "served counts and p95 drift between the 1x1 fleet path and the single-node scheduler",
            false,
            || {
                let (fleet, single) = experiments::serve_fleet_consistency();
                fleet_consistency_output_from(&fleet, &single)
            },
        ),
        study(
            "serve_trace",
            "the budgeted routed-serving scenario traced end to end in simulated cycles (Chrome trace + metrics snapshot)",
            false,
            serve_trace_output,
        ),
        study(
            "cycle_sim_fidelity",
            "per-config relative error of the cycle simulator vs the analytic model on the compute-bound grid",
            false,
            cycle_sim_fidelity_output,
        ),
        study(
            "dse_pareto_fresh",
            "dse_pareto without the process-wide cache: every run performs the full search, so determinism predicates are meaningful",
            false,
            || dse_output_from(&experiments::dse_pareto_report_fresh()),
        ),
        // The wall-time perf experiments: hit rates are hard
        // gates, wall seconds are host-dependent and only budgeted. Like
        // par_scaling these must run on the main thread — inside a parallel
        // region sofa-par degrades to sequential and the timings would
        // measure the degraded path.
        ExperimentEntry {
            name: "perf_lowering",
            about: "serving lowering-cache wall time + hit rate on the routed and adaptive traces (hit-rate floors and miss pins gate; wall time budgeted, never snapshotted)",
            paper: false,
            in_all: true,
            main_thread: true,
            run: experiments::perf_lowering,
        },
        ExperimentEntry {
            name: "perf_fleet_mega",
            about: "1M-request fleet wall time at one worker thread + per-node lowering-cache hit rate + node events per request + a streamed run's peak live heap at 100k and 1M requests (hit-rate floor, events pin, heap ratio and wall budget gate)",
            paper: false,
            in_all: false,
            main_thread: true,
            run: experiments::perf_fleet_mega,
        },
        ExperimentEntry {
            name: "perf_dse",
            about: "fresh DSE search wall time + candidate-dedup and layer-memo counters (dedup liveness and one cycle simulation per distinct layer point gated; wall time budgeted)",
            paper: false,
            in_all: true,
            main_thread: true,
            run: experiments::perf_dse,
        },
    ]
}

/// Looks an experiment up by registry key.
pub fn find(name: &str) -> Option<ExperimentEntry> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry names");
        // `sofa-bench all` is the fan-out, so no entry may take its name.
        assert!(!names.contains(&"all"), "`all` is reserved");
    }

    #[test]
    fn paper_entries_are_in_all() {
        for e in registry() {
            if e.paper {
                assert!(e.in_all, "{} is a paper artefact but not in_all", e.name);
            }
        }
    }

    #[test]
    fn scalar_and_series_lookups() {
        let out = ExperimentOutput::default()
            .with_scalar("a", 1.5)
            .with_series("b", vec![1.0, 2.0]);
        assert_eq!(out.scalar("a"), Some(1.5));
        assert_eq!(out.scalar("b"), None);
        assert_eq!(out.series("a"), Some(vec![1.5]));
        assert_eq!(out.series("b"), Some(vec![1.0, 2.0]));
        assert_eq!(out.series("c"), None);
    }

    #[test]
    fn cycle_sim_fidelity_exports_compute_bound_errors() {
        let out = cycle_sim_fidelity_output();
        let errs = out.series("compute_bound_rel_err").unwrap();
        assert!(!errs.is_empty());
        assert_eq!(out.scalar("compute_bound_configs"), Some(errs.len() as f64));
        assert!(!out.tables[0].rows.is_empty());
    }
}
