//! The three workloads: how their inputs are built from the seed, the one
//! public call each run makes, and the checks every run's output must pass.

use crate::spans::Spans;
use sofa_core::CacheStats;
use sofa_dse::{
    hardware_aware_search, DseReport, DseSearchConfig, EvalConfig, HwAwareEvaluator, ScalarWeights,
};
use sofa_hw::config::HwConfig;
use sofa_model::{OperatingPoint, RequestTrace, TraceConfig};
use sofa_serve::{
    FeedbackConfig, FleetConfig, FleetReport, FleetServeSim, OpRouter, RetryPolicy, ServeConfig,
    ServeReport, ServeSim,
};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// An underloaded 8×8 fleet: the event core and the serial router.
    FleetMega,
    /// One fresh hardware-aware DSE search: the algorithm kernels and the
    /// standalone cycle simulator.
    DseSearch,
    /// A saturated two-instance node under the adaptive controller:
    /// admission, decay, retry and re-lowering.
    ServeOverload,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetMega,
        Workload::DseSearch,
        Workload::ServeOverload,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMega => "fleet_mega",
            Workload::DseSearch => "dse_search",
            Workload::ServeOverload => "serve_overload",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the benchmark's own, or tiny inputs for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Inputs small enough for a unit test.
    Smoke,
}

impl Size {
    fn fleet_requests(self) -> usize {
        match self {
            Size::Full => 200_000,
            Size::Smoke => 2_000,
        }
    }

    fn overload_requests(self) -> usize {
        match self {
            Size::Full => 2_000,
            Size::Smoke => 60,
        }
    }
}

/// Offered load of both serving traces, in requests per million cycles.
const ARRIVALS_PER_MCYCLE: f64 = 400.0;

/// The `fleet_mega` trace: S=512 on a 512-wide, 8-head model with
/// 32-query prefills and keep 0.25, as an open-loop Poisson stream.
pub fn fleet_trace(size: Size, seed: u64) -> RequestTrace {
    let mut tc = TraceConfig::new(size.fleet_requests(), ARRIVALS_PER_MCYCLE, seed);
    tc.seq_len = 512;
    tc.hidden = 512;
    tc.heads = 8;
    tc.prefill_queries = 32;
    tc.keep_ratio = 0.25;
    RequestTrace::generate(&tc)
}

/// The `fleet_mega` fleet: 8 nodes of 8 paper-default instances, served
/// trace-native on a single-layer `Bc = 64` deployment point.
pub fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::new(HwConfig::paper_default(), 8, 8);
    cfg.serve.op = OperatingPoint::single(0.25, 64);
    cfg
}

/// The `serve_overload` trace: the S=1024 serve shape (1024-wide, 8 heads,
/// 32-query prefills, keep 0.25) at the same open-loop rate.
fn overload_trace(size: Size, seed: u64) -> RequestTrace {
    let mut tc = TraceConfig::new(size.overload_requests(), ARRIVALS_PER_MCYCLE, seed);
    tc.seq_len = 1024;
    tc.hidden = 1024;
    tc.heads = 8;
    tc.prefill_queries = 32;
    tc.keep_ratio = 0.25;
    RequestTrace::generate(&tc)
}

/// The DSE setup of `dse_search`, also the search that builds the front
/// `serve_overload` routes over: the evaluator config, its layer count and
/// the search budget. The seed drives the search's proposals; the layers
/// it scores are the repository's pinned DSE workloads.
pub fn dse_configs(size: Size, seed: u64) -> (EvalConfig, usize, DseSearchConfig) {
    match size {
        Size::Full => (
            EvalConfig::quick(EVAL_SEED),
            4,
            DseSearchConfig::quick(seed),
        ),
        // The full probe grid (it holds the candidates that beat the paper
        // default) with one short balanced profile, on two layers.
        Size::Smoke => (
            EvalConfig::quick(EVAL_SEED),
            2,
            DseSearchConfig {
                init_samples: 1,
                guided_iters: 1,
                profiles: vec![ScalarWeights::balanced()],
                ..DseSearchConfig::quick(seed)
            },
        ),
    }
}

/// Seed of the evaluator's pinned layer workloads: the one the
/// repository's own DSE experiments use. Some other layer draws leave no
/// candidate that beats the paper default on cycles and energy at equal
/// loss, which the correctness check requires.
const EVAL_SEED: u64 = 0xD5E;

/// Search seed of the DSE front `serve_overload` routes over.
const FRONT_SEED: u64 = EVAL_SEED;

/// The built inputs of one workload. Building them is the set-up the
/// benchmark times as `setup_s`.
#[derive(Debug)]
pub enum Inputs {
    /// `fleet_mega`.
    Fleet {
        /// The fleet simulator.
        sim: FleetServeSim,
        /// The offered trace.
        trace: RequestTrace,
    },
    /// `dse_search`.
    Dse {
        /// The evaluator with its pinned per-layer workloads.
        evaluator: HwAwareEvaluator,
        /// The search budget and seed.
        search: DseSearchConfig,
    },
    /// `serve_overload`.
    Overload {
        /// The scheduler with its energy budget and controller set.
        sim: ServeSim,
        /// The offered trace.
        trace: RequestTrace,
        /// The DSE search whose front the feedback router routes over.
        front: Box<DseReport>,
        /// The feedback router's parameters.
        feedback: FeedbackConfig,
    },
}

/// Builds `workload`'s inputs from `seed`, with a span around each public
/// call.
pub fn build_inputs(workload: Workload, size: Size, seed: u64, spans: &mut Spans) -> Inputs {
    match workload {
        Workload::FleetMega => Inputs::Fleet {
            trace: spans.record("model.trace_generate", |_| fleet_trace(size, seed)),
            sim: FleetServeSim::new(fleet_config()),
        },
        Workload::DseSearch => {
            let (eval, layers, search) = dse_configs(size, seed);
            Inputs::Dse {
                evaluator: spans
                    .record("dse.evaluator_new", |_| HwAwareEvaluator::new(eval, layers)),
                search,
            }
        }
        Workload::ServeOverload => {
            let trace = spans.record("model.trace_generate", |_| overload_trace(size, seed));
            // The front is searched at a pinned seed, so every trace seed
            // routes over the same points.
            let (eval, layers, search) = dse_configs(size, FRONT_SEED);
            let front = spans.record("dse.front_search", |s| {
                let evaluator =
                    s.record("dse.evaluator_new", |_| HwAwareEvaluator::new(eval, layers));
                hardware_aware_search(&evaluator, &search)
            });
            // Two instances under the DSE's timing model, with a 32 KiB
            // admission buffer so the overload queues at the scheduler.
            let mut cfg = ServeConfig::new(HwConfig::paper_default(), 2);
            cfg.sim.min_tile_cycles = sofa_dse::eval::TILE_CONTROL_CYCLES;
            cfg.admit_buffer_bytes = 32 * 1024;
            // The energy budget is 2/3 of what the paper-default point
            // spends per request on this trace. The routed energy steps
            // where the budget crosses a front point's cost: at 3/4 the
            // budget sits on such a step (seeds split between about 304
            // and 358 uJ/req), at 2/3 every seed lands on the same one,
            // with the budget binding.
            let default_op = OperatingPoint::paper_default(front.pareto.layers());
            let baseline = spans.record("serve.budget_calibration", |_| {
                ServeSim::new(cfg.clone()).run_tuned(&trace, &default_op)
            });
            cfg.energy_budget_pj_per_req = Some(baseline.energy_pj_per_request() * 2.0 / 3.0);
            cfg.decay_threshold = Some(300_000);
            cfg.retry = Some(RetryPolicy {
                backoff_cycles: 3_000_000,
                max_retries: 2,
                keep_factor: 0.1,
            });
            Inputs::Overload {
                sim: ServeSim::new(cfg),
                trace,
                front: Box::new(front),
                feedback: FeedbackConfig {
                    target_latency_cycles: 500_000,
                    alpha: 0.25,
                    queue_depth_bar: 4,
                    energy_bar_pj: None,
                },
            }
        }
    }
}

/// What one run of a workload returns.
#[derive(Debug)]
pub enum Output {
    /// A fleet report and the per-node lowering-cache counters.
    Fleet(FleetReport, CacheStats),
    /// A DSE report and the evaluator's counters for this search alone.
    Dse {
        /// The search's report.
        report: DseReport,
        /// Per-layer cycle simulations the search ran.
        layer_evals: u64,
        /// Of those, how many agreed with the analytic model.
        fidelity_hits: u64,
    },
    /// A scheduler report and the lowering-cache counters.
    Serve(ServeReport, CacheStats),
}

/// Runs the workload once: exactly one public call, inside one span.
pub fn run_once(inputs: &Inputs, spans: &mut Spans) -> Output {
    match inputs {
        Inputs::Fleet { sim, trace } => {
            let (report, stats) = spans.record("serve.fleet_run", |_| {
                sim.run_with_cache_stats(trace, OpRouter::TraceNative)
            });
            Output::Fleet(report, stats)
        }
        Inputs::Dse { evaluator, search } => {
            let (evals, hits) = (evaluator.layer_evals(), evaluator.fidelity_hits());
            let report = spans.record("dse.search", |_| hardware_aware_search(evaluator, search));
            Output::Dse {
                report,
                layer_evals: evaluator.layer_evals() - evals,
                fidelity_hits: evaluator.fidelity_hits() - hits,
            }
        }
        Inputs::Overload {
            sim,
            trace,
            front,
            feedback,
        } => {
            let (report, stats) = spans.record("serve.sched_run", |_| {
                sim.run_with_cache_stats(trace, OpRouter::Feedback(&front.pareto, feedback))
            });
            Output::Serve(report, stats)
        }
    }
}

/// Checks the conservation rules of one run's output.
///
/// # Errors
///
/// Describes the first rule the output breaks.
pub fn check(inputs: &Inputs, out: &Output) -> Result<(), String> {
    match (inputs, out) {
        (Inputs::Fleet { trace, .. }, Output::Fleet(r, _)) => {
            let offered = trace.len() as u64;
            if r.served + r.shed != offered {
                return Err(format!(
                    "served {} + shed {} != offered {offered}",
                    r.served, r.shed
                ));
            }
            if r.prefills + r.decodes != r.served {
                return Err(format!(
                    "prefills {} + decodes {} != served {}",
                    r.prefills, r.decodes, r.served
                ));
            }
            Ok(())
        }
        (Inputs::Overload { trace, .. }, Output::Serve(r, _)) => {
            // Every offered request is served or shed exactly once, under
            // its own class.
            let mut seen = vec![false; trace.len()];
            let outcomes = r
                .records
                .iter()
                .map(|x| (x.id, x.class))
                .chain(r.shed.iter().map(|x| (x.id, x.class)));
            for (id, class) in outcomes {
                let spec = usize::try_from(id)
                    .ok()
                    .and_then(|i| trace.requests.get(i))
                    .ok_or_else(|| format!("request {id} is not in the trace"))?;
                if spec.class != class {
                    return Err(format!("request {id} changed class"));
                }
                if std::mem::replace(&mut seen[spec.id as usize], true) {
                    return Err(format!("request {id} was accounted twice"));
                }
            }
            match seen.iter().position(|&s| !s) {
                Some(lost) => Err(format!("request {lost} was neither served nor shed")),
                None => Ok(()),
            }
        }
        (Inputs::Dse { .. }, Output::Dse { report, .. }) => {
            if report.pareto.points().is_empty() {
                return Err("the search found no Pareto point".to_string());
            }
            if report.dominating().is_empty() {
                return Err("no Pareto point dominates the paper default".to_string());
            }
            Ok(())
        }
        _ => Err("output does not belong to the workload".to_string()),
    }
}

/// FNV-1a over the `Debug` rendering of the simulated report: equal
/// digests mean equal reports, down to every float's bits.
pub fn digest(out: &Output) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let rendered = match out {
        Output::Fleet(r, _) => std::fmt::write(&mut h, format_args!("{r:?}")),
        Output::Dse { report, .. } => std::fmt::write(&mut h, format_args!("{report:?}")),
        Output::Serve(r, _) => std::fmt::write(&mut h, format_args!("{r:?}")),
    };
    rendered.expect("hashing never fails");
    h.0
}

/// The modelled design's numbers for one run, in simulated time and energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// Requests offered.
    pub offered: u64,
    /// Requests served.
    pub served: u64,
    /// Median request latency in cycles.
    pub p50_cycles: f64,
    /// 99th-percentile request latency in cycles.
    pub p99_cycles: f64,
    /// Served requests per million cycles of makespan.
    pub req_per_mcycle: f64,
    /// Modelled energy per served request in microjoules.
    pub uj_per_req: f64,
}

/// The modelled numbers of `out`. On `dse_search` the request is one pass
/// of the pinned multi-layer workload at the tuned operating point, so its
/// latency distribution is that one value.
pub fn modelled(inputs: &Inputs, out: &Output) -> Modelled {
    match (inputs, out) {
        (Inputs::Fleet { trace, .. }, Output::Fleet(r, _)) => Modelled {
            offered: trace.len() as u64,
            served: r.served,
            p50_cycles: r.p50() as f64,
            p99_cycles: r.p99() as f64,
            req_per_mcycle: r.throughput_per_mcycle(),
            uj_per_req: r.energy_pj_per_request() * 1e-6,
        },
        (Inputs::Overload { trace, .. }, Output::Serve(r, _)) => Modelled {
            offered: trace.len() as u64,
            served: r.records.len() as u64,
            p50_cycles: r.p50() as f64,
            p99_cycles: r.p99() as f64,
            req_per_mcycle: r.throughput_per_mcycle(),
            uj_per_req: r.energy_pj_per_request() * 1e-6,
        },
        (_, Output::Dse { report, .. }) => {
            let tuned = report.best.metrics;
            Modelled {
                offered: 1,
                served: 1,
                p50_cycles: tuned.cycles as f64,
                p99_cycles: tuned.cycles as f64,
                req_per_mcycle: 1e6 / tuned.cycles as f64,
                uj_per_req: tuned.energy_pj * 1e-6,
            }
        }
        _ => panic!("output does not belong to the workload"),
    }
}

/// Work items one run completes, for the per-host-second rate: served
/// requests on the serving workloads, fresh candidate evaluations (one
/// simulated multi-layer request each) on `dse_search`.
pub fn work_items(inputs: &Inputs, out: &Output) -> f64 {
    match (inputs, out) {
        (Inputs::Dse { evaluator, .. }, Output::Dse { layer_evals, .. }) => {
            *layer_evals as f64 / evaluator.layers() as f64
        }
        _ => modelled(inputs, out).served as f64,
    }
}
