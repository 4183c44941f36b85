//! The repository benchmark. One run builds a workload's inputs from a
//! seed, times the workload's public call for a fixed number of host
//! seconds, checks every run's output, and reports named metrics with
//! units. Untraced runs give the end-to-end metrics; a traced run records
//! host-time spans around each public call and gives the per-layer metrics.
//! See `README.md` in this directory for the workloads and metrics.

mod host;
mod probes;
mod reference;
mod spans;
mod workloads;

pub use host::Host;
pub use reference::NOMINAL_MS;
pub use spans::{Span, Spans};
use std::time::Instant;
use workloads::{build_inputs, check, digest, modelled, run_once, work_items, Inputs, Output};
pub use workloads::{Size, Workload};

/// The `SOFA_THREADS` worker count every workload runs at. One worker keeps
/// host times steady on a shared machine; a second run at
/// [`CHECK_THREADS`] checks that the simulated output does not depend on it.
pub const THREADS: usize = 1;

/// The worker count of the thread-independence check run.
pub const CHECK_THREADS: usize = 2;

/// Largest share of the timed window spent on set-ups between timed runs.
const SETUP_SHARE: f64 = 0.05;

/// Timed runs (and set-ups) per measurement, whatever the time budget.
const MIN_RUNS: usize = 3;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds of timed runs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload runs made (warm-up, timed, traced and thread-check runs).
    pub attempted: u64,
    /// Runs whose output failed a check, with what failed.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the simulated report, equal on every run of one seed.
    pub digest: u64,
    /// The host the run was measured on.
    pub host: Host,
    /// The traced run's spans (empty when untraced).
    pub spans: Spans,
}

impl Outcome {
    /// The contract's result line: `correct`, `attempted`, `failed` and
    /// `metrics` with a value and unit each.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(m.name),
                    m.value,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(",")
        )
    }
}

/// Runs the benchmark described by `opts` in this process, at
/// [`THREADS`] workers.
pub fn run(opts: &Options) -> Outcome {
    sofa_par::with_threads(THREADS, || run_at(opts))
}

/// Counts runs and collects the failed checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one run: its conservation checks and, when given, that its
    /// digest equals the reference.
    fn record(&mut self, what: &str, inputs: &Inputs, out: &Output, reference: Option<u64>) {
        self.attempted += 1;
        let verdict = check(inputs, out).and_then(|()| match reference {
            Some(want) if digest(out) != want => {
                Err(format!("digest {:016x} != {want:016x}", digest(out)))
            }
            _ => Ok(()),
        });
        if let Err(e) = verdict {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn run_at(opts: &Options) -> Outcome {
    let mut spans = if opts.trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };

    // Set-up, MIN_RUNS times before the timed runs (the traced run records
    // the first) and again between them; the first inputs are kept.
    let mut samples = Samples {
        opts,
        setup_s: Vec::new(),
        ref_ms: Vec::new(),
    };
    let inputs = samples.setup(&mut spans);
    for _ in 1..MIN_RUNS {
        drop(samples.setup(&mut Spans::disabled()));
    }

    // The warm-up run fixes the digest every later run must reproduce.
    let mut tally = Tally::default();
    let first = run_once(&inputs, &mut Spans::disabled());
    let want = digest(&first);
    tally.record("warm-up run", &inputs, &first, None);

    // Untraced timed runs. A traced run spends half its budget here, for
    // the overhead comparison, and half on traced runs.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut timed =
        |spans: &mut Spans| timed_runs(&inputs, budget, want, &mut tally, spans, &mut samples);
    let mut untraced = timed(&mut Spans::disabled());
    let mut traced = if opts.trace {
        timed(&mut spans)
    } else {
        Vec::new()
    };

    // The simulated output must not depend on the worker count.
    let other = sofa_par::with_threads(CHECK_THREADS, || run_once(&inputs, &mut Spans::disabled()));
    tally.record("thread-check run", &inputs, &other, Some(want));

    let host = Host::probe(THREADS, median(&mut samples.ref_ms));
    let metrics = if opts.trace {
        let mut metrics = per_layer(opts, &inputs, &first, &mut spans);
        if let Err(e) = spans.check_nesting().and_then(|()| {
            sofa_obs::validate_chrome_trace(&spans.to_chrome_json(opts.workload.name())).map(|_| ())
        }) {
            tally.failures.push(format!("trace: {e}"));
        }
        let overhead = median(&mut traced) - median(&mut untraced);
        metrics.push(metric("trace.overhead_s", overhead, "s"));
        metrics.push(metric("host.ref_loop_ms", host.ref_loop_ms, "ms"));
        metrics
    } else {
        end_to_end(&inputs, &first, untraced, samples.setup_s)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally
            .failures
            .push(format!("metric {} is {}", m.name, m.value));
    }
    Outcome {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
        digest: want,
        host,
        spans,
    }
}

/// The run's set-ups and reference passes, each timed.
struct Samples<'a> {
    opts: &'a Options,
    /// Scaled seconds of each set-up.
    setup_s: Vec<f64>,
    /// Host milliseconds of each reference pass.
    ref_ms: Vec<f64>,
}

impl Samples<'_> {
    /// Runs `f` after a reference pass and returns its result and its host
    /// seconds scaled to the nominal reference host.
    fn scaled<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let ref_ms = reference::pass_ms();
        self.ref_ms.push(ref_ms);
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64() * NOMINAL_MS / ref_ms)
    }

    /// Builds the workload's inputs from the seed, timed.
    fn setup(&mut self, spans: &mut Spans) -> Inputs {
        let Options {
            workload,
            size,
            seed,
            ..
        } = *self.opts;
        let (inputs, secs) =
            self.scaled(|| spans.record("bench.setup", |s| build_inputs(workload, size, seed, s)));
        self.setup_s.push(secs);
        inputs
    }
}

/// Runs the workload until `seconds` have passed (at least [`MIN_RUNS`]
/// times), checking each output against the digest `want`, and returns
/// each run's scaled seconds. Before each run, set-ups repeat while they
/// have taken less than [`SETUP_SHARE`] of the elapsed time, so `setup_s`
/// samples the same stretch of host time as `wall_s`.
fn timed_runs(
    inputs: &Inputs,
    seconds: f64,
    want: u64,
    tally: &mut Tally,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Vec<f64> {
    let mut walls = Vec::new();
    let mut setup_spent = 0.0;
    let start = Instant::now();
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        while setup_spent <= SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            drop(samples.setup(&mut Spans::disabled()));
            setup_spent += t.elapsed().as_secs_f64();
        }
        let (out, secs) = samples.scaled(|| spans.record("bench.run", |s| run_once(inputs, s)));
        walls.push(secs);
        tally.record("timed run", inputs, &out, Some(want));
    }
    walls
}

/// The end-to-end metrics of the untraced runs.
fn end_to_end(
    inputs: &Inputs,
    out: &Output,
    mut walls: Vec<f64>,
    mut setup_s: Vec<f64>,
) -> Vec<Metric> {
    let m = modelled(inputs, out);
    let wall_s = median(&mut walls);
    vec![
        metric("wall_s", wall_s, "s"),
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        metric("sim_req_per_s", work_items(inputs, out) / wall_s, "1/s"),
        metric("sim_p50_kcycles", m.p50_cycles / 1e3, "kcycles"),
        metric("sim_p99_kcycles", m.p99_cycles / 1e3, "kcycles"),
        metric("sim_req_per_mcycle", m.req_per_mcycle, "1/Mcycle"),
        metric("sim_uj_per_req", m.uj_per_req, "uJ"),
        metric(
            "sim_served_frac",
            m.served as f64 / m.offered as f64,
            "fraction",
        ),
    ]
}

/// Runs the probes and derives the per-layer metrics. A layer the workload
/// does not exercise reads 0.
fn per_layer(opts: &Options, inputs: &Inputs, out: &Output, spans: &mut Spans) -> Vec<Metric> {
    let (size, seed) = (opts.size, opts.seed);
    let ops_total = spans.record("bench.probe_kernels", |s| probes::kernels(size, seed, s));
    spans.record("bench.probe_cyclesim", |s| probes::cyclesim(size, seed, s));
    let events = spans.record("bench.probe_event_core", |s| {
        probes::event_core(size, seed, s)
    });
    if let (Inputs::Dse { evaluator, .. }, Output::Dse { report, .. }) = (inputs, out) {
        // Fresh evaluations of the paper default and the tuned pick, timed
        // one call at a time.
        spans.record("bench.probe_evaluate", |s| {
            for c in [&report.paper_default.candidate, &report.best.candidate].repeat(2) {
                std::hint::black_box(s.record("dse.evaluate", |_| evaluator.evaluate(c)));
            }
        });
    }

    let secs = |name| median_or_zero(spans.seconds_of(name));
    let mut metrics = vec![
        metric(
            "core.pipeline_run_ms",
            secs("core.pipeline_run") * 1e3,
            "ms",
        ),
        metric(
            "core.dlzs_predict_ms",
            secs("core.dlzs_predict") * 1e3,
            "ms",
        ),
        metric("core.sads_topk_ms", secs("core.sads_topk") * 1e3, "ms"),
        metric("core.sufa_ms", secs("core.sufa") * 1e3, "ms"),
        metric("core.ops_total", ops_total as f64, "count"),
        metric("sim.cyclesim_job_ms", secs("sim.cyclesim_job") * 1e3, "ms"),
        metric("sim.cyclesim_run_ms", secs("sim.cyclesim_run") * 1e3, "ms"),
        metric(
            "sim.multi_events_per_req",
            events.events as f64 / events.requests as f64,
            "event/req",
        ),
        metric(
            "sim.multi_ns_per_event",
            secs("sim.multi_events") * 1e9 / events.events as f64,
            "ns",
        ),
        metric("serve.fleet_run_s", secs("serve.fleet_run"), "s"),
        metric("serve.sched_run_s", secs("serve.sched_run"), "s"),
        metric("dse.search_s", secs("dse.search"), "s"),
        metric("dse.evaluate_ms", secs("dse.evaluate") * 1e3, "ms"),
        metric("model.trace_generate_s", secs("model.trace_generate"), "s"),
    ];
    metrics.extend(simulated_layers(inputs, out));
    metrics
}

/// Per-layer counts and simulated statistics of the workload's own output.
/// All of them repeat exactly for a seed.
fn simulated_layers(inputs: &Inputs, out: &Output) -> Vec<Metric> {
    #[derive(Default)]
    struct Layers {
        decayed: f64,
        retried: f64,
        rerouted: f64,
        queue_kcycles: f64,
        shed_frac: f64,
        lowering: sofa_core::CacheStats,
        dram: Dram,
        util_mean: f64,
        fabric_mb: f64,
        evaluations: f64,
        evals_saved: f64,
        fidelity_rate: f64,
        tuned_speedup: f64,
        tuned_energy_gain: f64,
    }
    let mut l = Layers::default();
    let m = modelled(inputs, out);
    l.shed_frac = 1.0 - m.served as f64 / m.offered as f64;
    match out {
        Output::Fleet(r, stats) => {
            l.retried = r.retried as f64;
            l.rerouted = r.rerouted as f64;
            l.queue_kcycles = r.mean_queueing_delay() / 1e3;
            l.lowering = *stats;
            l.util_mean = r.mean_utilization();
            l.fabric_mb = r.fabric.total_bytes() as f64 / 1e6;
            l.dram = Dram::over(&r.nodes, r.total_cycles);
        }
        Output::Serve(r, stats) => {
            l.decayed = r.decayed_requests() as f64;
            l.retried = r.retried as f64;
            l.rerouted = r.rerouted_requests() as f64;
            l.queue_kcycles = r.mean_queueing_delay() / 1e3;
            l.lowering = *stats;
            l.util_mean = r.mean_utilization();
            l.dram = Dram::over(std::slice::from_ref(&r.multi), r.total_cycles);
        }
        Output::Dse {
            report,
            layer_evals,
            fidelity_hits,
        } => {
            l.evaluations = report.evaluations as f64;
            l.evals_saved = report.evals_saved as f64;
            l.fidelity_rate = *fidelity_hits as f64 / *layer_evals as f64;
            let (default, tuned) = (report.paper_default.metrics, report.best.metrics);
            l.tuned_speedup = default.cycles as f64 / tuned.cycles as f64;
            l.tuned_energy_gain = default.energy_pj / tuned.energy_pj;
        }
    }
    vec![
        metric("serve.decayed", l.decayed, "count"),
        metric("serve.retried", l.retried, "count"),
        metric("serve.rerouted", l.rerouted, "count"),
        metric("serve.queue_kcycles", l.queue_kcycles, "kcycles"),
        metric("serve.shed_frac", l.shed_frac, "fraction"),
        metric("core.lowering_hits", l.lowering.hits as f64, "count"),
        metric("core.lowering_misses", l.lowering.misses as f64, "count"),
        metric("core.lowering_hit_rate", l.lowering.hit_rate(), "fraction"),
        metric("sim.dram_busy_frac", l.dram.busy_frac, "fraction"),
        metric("sim.dram_queue_wait_cycles", l.dram.queue_wait, "cycles"),
        metric("sim.dram_aged_issues", l.dram.aged_issues, "count"),
        metric("sim.stall_dram_frac", l.dram.stall_frac, "fraction"),
        metric("sim.util_mean", l.util_mean, "fraction"),
        metric("sim.fabric_mb", l.fabric_mb, "MB"),
        metric("dse.evaluations", l.evaluations, "count"),
        metric("dse.evals_saved", l.evals_saved, "count"),
        metric("dse.fidelity_rate", l.fidelity_rate, "fraction"),
        metric("dse.tuned_speedup", l.tuned_speedup, "x"),
        metric("dse.tuned_energy_gain", l.tuned_energy_gain, "x"),
    ]
}

/// DRAM statistics over the channels of one run's `MultiReport`s (one
/// per node).
#[derive(Debug, Default)]
struct Dram {
    /// Busy share of the makespan, averaged over channels.
    busy_frac: f64,
    /// Mean cycles a request queued, averaged over channels.
    queue_wait: f64,
    /// Issues decided by priority aging.
    aged_issues: f64,
    /// Share of stage-cycles stalled on DRAM.
    stall_frac: f64,
}

impl Dram {
    fn over(reports: &[sofa_sim::MultiReport], total_cycles: u64) -> Dram {
        let channels = reports.len() as f64;
        let span = total_cycles.max(1) as f64;
        let stages: Vec<_> = reports
            .iter()
            .flat_map(|r| r.instances.iter().flat_map(|i| i.stages.iter()))
            .collect();
        Dram {
            busy_frac: reports
                .iter()
                .map(|r| r.dram.busy_cycles as f64)
                .sum::<f64>()
                / (channels * span),
            queue_wait: reports.iter().map(|r| r.dram_mean_queue_wait).sum::<f64>() / channels,
            aged_issues: reports.iter().map(|r| r.dram_aged_issues as f64).sum(),
            stall_frac: stages.iter().map(|s| s.stall_dram as f64).sum::<f64>()
                / (stages.len() as f64 * span),
        }
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (NaN when empty). Sorts in place.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn median_or_zero(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    }
}

/// `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
