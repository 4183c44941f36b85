//! The continuous-batching serving simulator of one node.
//!
//! [`ServeSim`] multiplexes a [`RequestTrace`] onto `N` simulated SOFA
//! instances. Requests are lowered once into pipeline jobs; admission then
//! interleaves with the cycle-level simulation — a request admitted at cycle
//! `t` has its tiles enter the instance's stream at `t`, and the completion
//! events the simulation produces feed the next admission decision. This is
//! continuous batching at tile granularity: an instance never drains between
//! requests, new tiles enter right behind the previous request's.
//!
//! Every admission decision is the admission core's, which
//! [`FleetServeSim`](crate::FleetServeSim) shares; [`ServeSim`] keeps the
//! event-exact loop over [`MultiPipelineSim`], the per-request records and
//! the tracing. The policy the core carries out:
//!
//! **Operating points.** Every request is lowered at an [`OperatingPoint`]
//! chosen by an [`OpRouter`] — the trace's native keep ratios on the
//! deployment tiling, one fixed point, or per-class Pareto routing through a
//! DSE front ([`sofa_dse::ParetoFront`]). A multi-layer point lowers the
//! request once per layer, switching keep ratio and tile size between the
//! layer invocations, and streams the concatenated tile sequence through the
//! instance.
//!
//! **Energy budget.** Lowering projects each request's energy from the DSE
//! energy model. A request over the per-request budget
//! ([`ServeConfig::energy_budget_pj_per_req`]) is re-routed to the front's
//! energy-leanest point, and **shed** ([`ServeReport::shed`]) if it is over
//! even there.
//!
//! **Buffer budget.** Worst-case sizing would reserve the SRAM a *dense*
//! request pins, but after the prediction stage top-k sparsity keeps a
//! fraction of that resident, so admission books the top-k footprint
//! against [`ServeConfig::admit_buffer_bytes`]; a larger budget overbooks
//! in the Tailors sense. Requests are picked smallest-footprint-first
//! unless one has waited 100,000 cycles, when the oldest goes first, and
//! land on the least-booked instance they fit.
//!
//! **Adaptive control loop.** Three opt-in mechanisms close the loop on
//! *measured* state, all inside the serial loop, so reports and trace bytes
//! stay bit-identical at any `SOFA_THREADS`:
//!
//! * **decay** ([`ServeConfig::decay_threshold`]) — a request waiting past
//!   the threshold is re-lowered to a leaner operating point (decodes to
//!   the front's cycle-leanest point, prefills to its energy-leanest),
//!   recorded as [`RequestRecord::decayed`] and traced as an instant;
//! * **feedback** ([`OpRouter::Feedback`]) — EWMAs of completion latency,
//!   energy and wait-queue depth map measured overload to a pressure level
//!   ([`FeedbackConfig`]) that shifts the routing bar along the front
//!   ([`sofa_dse::ParetoFront::route_pressure`]) at admission time;
//! * **retry** ([`ServeConfig::retry`]) — a shed request re-arrives after a
//!   deterministic client backoff at a leaner keep ratio and is recorded as
//!   shed only once its retries are exhausted; served retries are counted
//!   in [`ServeReport::retried`].

use crate::admission::{AdaptiveKind, Admission, Arrival, Bookings};
use crate::report::{RequestRecord, ServeReport, ShedRecord};

use sofa_core::cache::{CacheStats, ShapeKey};
use sofa_dse::ParetoFront;
use sofa_hw::config::HwConfig;
use sofa_model::trace::{RequestClass, RequestSpec, RequestTrace};
use sofa_model::OperatingPoint;
use sofa_obs::{ArgValue, MetricsRegistry, TraceRecorder};
use sofa_sim::tracks::PID_SERVE_BASE;
use sofa_sim::{MultiPipelineSim, SimParams};

/// Process id of the per-request lifecycle tracks (tid = request id).
pub const PID_REQUESTS: u64 = PID_SERVE_BASE;
/// Process id of the scheduler-level counter tracks (wait-queue depth).
pub const PID_SCHEDULER: u64 = PID_SERVE_BASE + 1;
/// Track id, within an instance process, of the booked-bytes counter.
pub const TID_SERVE_INFLIGHT: u64 = 8;
/// Track id, within an instance process, of the admitted-energy counter.
pub const TID_SERVE_ENERGY: u64 = 9;

/// Trace-viewer label of a request class.
fn class_name(class: RequestClass) -> &'static str {
    match class {
        RequestClass::Prefill => "prefill",
        RequestClass::Decode => "decode",
    }
}

/// Deterministic client retry model for shed requests
/// ([`ServeConfig::retry`]).
///
/// A request the energy budget sheds is not dropped: the client re-submits
/// it `backoff_cycles` later at a leaner keep ratio — each attempt shrinks
/// the keep by `keep_factor` from the fixed point under [`OpRouter::Fixed`],
/// the front's leanest point under front routing, or else the deployment
/// point — until it fits the budget or `max_retries` attempts are
/// exhausted, at which point it is finally recorded in [`ServeReport::shed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Cycles the client waits before re-submitting a shed request.
    pub backoff_cycles: u64,
    /// Attempts after the initial submission before the request is shed for
    /// good.
    pub max_retries: u32,
    /// Keep-ratio shrink per attempt, in `(0, 1]`: attempt `n` re-lowers at
    /// `base_keep × keep_factorⁿ`.
    pub keep_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff_cycles: 50_000,
            max_retries: 2,
            keep_factor: 0.5,
        }
    }
}

/// Measured-state parameters of [`OpRouter::Feedback`].
///
/// The scheduler keeps an EWMA (`ewma ← α·sample + (1−α)·ewma`) of each
/// instance's completion latency and per-request energy, and of the wait
/// queue depth, sampled at every completion. The hottest instance's latency
/// EWMA against `target_latency_cycles` and the queue EWMA against
/// `queue_depth_bar` map to a discrete pressure level (0, 1 or 2) that
/// shifts the routing eligibility bar along the Pareto front
/// ([`sofa_dse::ParetoFront::route_pressure`]): level 1 drops the
/// keep-parity bar, level 2 routes straight to the leanest points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// Completion-latency target in cycles (the SLO the loop steers toward).
    /// Latency EWMA past the target is pressure 1; past twice the target,
    /// pressure 2.
    pub target_latency_cycles: u64,
    /// EWMA smoothing factor in `(0, 1]` — higher reacts faster.
    pub alpha: f64,
    /// Wait-queue depth whose EWMA alone raises pressure to 1 (2 at twice
    /// the bar), so feedback engages even before slow completions land.
    pub queue_depth_bar: usize,
    /// Optional per-request energy EWMA bar: when the hottest instance's
    /// admitted-energy EWMA exceeds it, pressure rises one level (energy
    /// headroom recovers by routing leaner).
    pub energy_bar_pj: Option<f64>,
}

impl FeedbackConfig {
    /// A feedback loop targeting `target_latency_cycles` with the defaults:
    /// `alpha = 0.25`, queue-depth bar 8, no energy bar.
    pub fn new(target_latency_cycles: u64) -> Self {
        FeedbackConfig {
            target_latency_cycles,
            alpha: 0.25,
            queue_depth_bar: 8,
            energy_bar_pj: None,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_latency_cycles == 0 {
            return Err("feedback target latency must be positive".into());
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("feedback alpha must be in (0, 1]".into());
        }
        if self.queue_depth_bar == 0 {
            return Err("feedback queue depth bar must be positive".into());
        }
        if let Some(bar) = self.energy_bar_pj {
            if bar <= 0.0 || bar.is_nan() {
                return Err("feedback energy bar must be positive".into());
            }
        }
        Ok(())
    }
}

/// How each request's operating point is chosen at admission time.
#[derive(Debug, Clone, Copy)]
pub enum OpRouter<'a> {
    /// The trace's native keep ratios on the deployment tiling
    /// ([`ServeConfig::op`] with each request's keep substituted).
    TraceNative,
    /// One fixed operating point for every request (single-point tuned
    /// deployments, paper-default baselines).
    Fixed(&'a OperatingPoint),
    /// Per-class routing through a DSE Pareto front: latency-lean points for
    /// decodes, energy-lean points for prefills
    /// ([`ParetoFront::route`]).
    Pareto(&'a ParetoFront),
    /// Pareto routing closed on measured state: requests pre-lower exactly
    /// like [`OpRouter::Pareto`], but at admission time the scheduler's
    /// pressure level (EWMAs of completion latency, queue depth and energy —
    /// see [`FeedbackConfig`]) shifts the eligibility bar along the front
    /// ([`sofa_dse::ParetoFront::route_pressure`]), re-lowering the picked
    /// request to a leaner point when the measured tail drifts past target.
    Feedback(&'a ParetoFront, &'a FeedbackConfig),
}

impl OpRouter<'_> {
    /// The operating point this router assigns to `spec`.
    pub(crate) fn pick(&self, deployment: &OperatingPoint, spec: &RequestSpec) -> OperatingPoint {
        match self {
            OpRouter::TraceNative => deployment.with_uniform_keep(spec.keep_ratio),
            OpRouter::Fixed(op) => (*op).clone(),
            OpRouter::Pareto(front) | OpRouter::Feedback(front, _) => front.route(&spec.class),
        }
    }

    /// Refills `key` with the key of lowering `spec` at the point
    /// [`Self::pick`] assigns it, without building that point: trace-native
    /// keys read the deployment tiling and the request's keep, a fixed
    /// point is borrowed, and a front routes by request class alone, so
    /// `routed` holds each class's point after its first pick.
    pub(crate) fn refill_key(
        &self,
        deployment: &OperatingPoint,
        spec: &RequestSpec,
        key: &mut ShapeKey,
        routed: &mut [Option<OperatingPoint>; 2],
    ) {
        let op: &OperatingPoint = match self {
            OpRouter::TraceNative => {
                let keeps = std::iter::repeat_n(spec.keep_ratio, deployment.layers());
                return key.refill(spec, keeps, deployment.tiles());
            }
            OpRouter::Fixed(op) => op,
            OpRouter::Pareto(front) | OpRouter::Feedback(front, _) => {
                routed[spec.class as usize].get_or_insert_with(|| front.route(&spec.class))
            }
        };
        key.refill(spec, op.keeps().iter().copied(), op.tiles());
    }

    /// The leaner point an over-budget request is re-routed to, when the
    /// router has one (only front-backed routing does).
    pub(crate) fn leaner(&self) -> Option<OperatingPoint> {
        match self {
            OpRouter::Pareto(front) | OpRouter::Feedback(front, _) => Some(front.leanest_energy()),
            _ => None,
        }
    }

    /// The point a decayed (over-waited) request re-lowers to: the front's
    /// cycle-leanest point for decodes (drain the queue fast), its
    /// energy-leanest for prefills (cheapest way through the backlog).
    /// `None` for routers without a front — decay is a no-op there.
    pub(crate) fn decay_target(&self, class: RequestClass) -> Option<OperatingPoint> {
        let front = match self {
            OpRouter::Pareto(front) | OpRouter::Feedback(front, _) => front,
            _ => return None,
        };
        Some(match class {
            RequestClass::Decode => front.leanest_cycles(),
            RequestClass::Prefill => front.leanest_energy(),
        })
    }
}

/// Configuration of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Hardware configuration of every instance.
    pub hw: HwConfig,
    /// Microarchitectural simulation parameters (shared by all instances).
    /// [`ServeConfig::new`] enables the calibrated DRAM command occupancy so
    /// routing decisions see request-granularity DRAM effects.
    pub sim: SimParams,
    /// Number of accelerator instances.
    pub instances: usize,
    /// The deployment operating point: the tiling requests are lowered with
    /// when no router overrides it (trace-native runs substitute each
    /// request's keep ratio into this point).
    pub op: OperatingPoint,
    /// Per-instance admission budget in bytes (defaults to the token SRAM).
    /// Setting it above the SRAM size overbooks: it banks on sparsity
    /// keeping real occupancy below the booked footprints.
    pub admit_buffer_bytes: u64,
    /// Per-request energy ceiling in picojoules (the per-instance J/req
    /// budget from the DSE energy model). `None` disables the energy path;
    /// with a budget, over-budget requests are re-routed to the router's
    /// leanest point and shed if still over.
    pub energy_budget_pj_per_req: Option<f64>,
    /// Waiting cycles beyond which a queued request *decays*: it is
    /// re-lowered to the router's decay target (cycle-leanest for decodes,
    /// energy-leanest for prefills) instead of only being priority-aged.
    /// `None` (the default) disables decay; routers without a Pareto front
    /// ignore it.
    pub decay_threshold: Option<u64>,
    /// Client retry model for shed requests. `None` (the default) sheds
    /// immediately, exactly as before the adaptive controller existed.
    pub retry: Option<RetryPolicy>,
}

impl ServeConfig {
    /// A serving setup of `instances` copies of `hw` with the defaults:
    /// a token-SRAM admission budget, DRAM priority aging after 4 burst
    /// latencies, calibrated DRAM command occupancy, a single-layer
    /// deployment point at the trace-default keep and `Bc = 32`, and no
    /// energy budget.
    pub fn new(hw: HwConfig, instances: usize) -> Self {
        let mut sim = SimParams::default();
        sim.dram_age_threshold = 4 * sim.burst_latency;
        let sim = sim.with_dram_command_calibration(&hw);
        ServeConfig {
            hw,
            sim,
            instances,
            op: OperatingPoint::single(0.25, 32),
            admit_buffer_bytes: hw.token_sram_bytes as u64,
            energy_budget_pj_per_req: None,
            decay_threshold: None,
            retry: None,
        }
    }

    /// Whether `energy_pj` breaks the per-request energy budget.
    pub(crate) fn over_energy_budget(&self, energy_pj: f64) -> bool {
        self.energy_budget_pj_per_req.is_some_and(|b| energy_pj > b)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("instances must be positive".into());
        }
        if self.admit_buffer_bytes == 0 {
            return Err("admit_buffer_bytes must be positive".into());
        }
        if let Some(b) = self.energy_budget_pj_per_req {
            if b <= 0.0 || b.is_nan() {
                return Err("energy budget must be positive".into());
            }
        }
        if let Some(retry) = &self.retry {
            if retry.backoff_cycles == 0 {
                return Err("retry backoff must be positive".into());
            }
            if retry.max_retries == 0 {
                return Err("retry max_retries must be positive".into());
            }
            if !(retry.keep_factor > 0.0 && retry.keep_factor <= 1.0) {
                return Err("retry keep_factor must be in (0, 1]".into());
            }
        }
        Ok(())
    }
}

/// The continuous-batching serving simulator.
#[derive(Debug)]
pub struct ServeSim {
    cfg: ServeConfig,
}

impl ServeSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ServeConfig::validate`].
    pub fn new(cfg: ServeConfig) -> Self {
        cfg.validate().expect("invalid serve config");
        ServeSim { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves `trace` with every request lowered at the trace's native keep
    /// ratio on the deployment tiling ([`OpRouter::TraceNative`]).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run(&self, trace: &RequestTrace) -> ServeReport {
        self.run_with(trace, OpRouter::TraceNative)
    }

    /// Serves `trace` to completion under `router` and reports per-request
    /// latencies, queueing delays, energy and per-instance utilization.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty or a [`OpRouter::Feedback`] configuration
    /// fails [`FeedbackConfig::validate`].
    pub fn run_with(&self, trace: &RequestTrace, router: OpRouter) -> ServeReport {
        self.run_inner(
            trace,
            router,
            &mut TraceRecorder::disabled(),
            &mut CacheStats::default(),
        )
    }

    /// [`ServeSim::run_with`] plus the lowering-cache effectiveness counters
    /// of the run, which ride outside the report: it is bit-identical to
    /// [`ServeSim::run_with`]'s.
    pub fn run_with_cache_stats(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
    ) -> (ServeReport, CacheStats) {
        let mut stats = CacheStats::default();
        let report = self.run_inner(trace, router, &mut TraceRecorder::disabled(), &mut stats);
        (report, stats)
    }

    /// [`ServeSim::run_with`] plus observability: request-lifecycle spans,
    /// reroute/shed instants and per-instance booking counters land in `obs`
    /// (stamped in simulated cycles — merge it with other recorders and call
    /// [`TraceRecorder::to_chrome_json`] for Perfetto), and the report's
    /// summary statistics land in `metrics`. The report itself is
    /// bit-identical to the untraced run's at any `SOFA_THREADS`: lowering
    /// workers fork per-request recorders that are absorbed in arrival
    /// order, so the trace bytes are thread-count-independent too.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run_traced(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
        obs: &mut TraceRecorder,
        metrics: &mut MetricsRegistry,
    ) -> ServeReport {
        let report = self.run_inner(trace, router, obs, &mut CacheStats::default());
        report.record_metrics(metrics);
        report
    }

    fn run_inner(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
        obs: &mut TraceRecorder,
        cache_stats: &mut CacheStats,
    ) -> ServeReport {
        let n = self.cfg.instances;
        // The whole wait queue is the pick window.
        let mut adm = Admission::new(
            &self.cfg,
            router,
            trace.into(),
            n,
            usize::MAX,
            obs.is_enabled(),
        );
        if obs.is_enabled() {
            obs.process_name(PID_REQUESTS, "requests");
            for i in 0..trace.requests.len() {
                obs.thread_name(PID_REQUESTS, i as u64, &format!("req{i}"));
            }
            obs.process_name(PID_SCHEDULER, "scheduler");
            obs.thread_name(PID_SCHEDULER, 0, "serve.wait_queue");
            if matches!(router, OpRouter::Feedback(..)) {
                obs.thread_name(PID_SCHEDULER, 1, "serve.pressure");
            }
            for i in 0..n {
                obs.thread_name(i as u64, TID_SERVE_INFLIGHT, "serve.inflight_bytes");
                obs.thread_name(i as u64, TID_SERVE_ENERGY, "serve.energy_pj");
            }
        }
        // Each request's "lowered" instant precedes the run's counter
        // samples in the trace, but a request is lowered only when it
        // arrives: the loop records into its own buffer, absorbed after the
        // instants.
        let mut run_obs = obs.fork();

        let mut msim = MultiPipelineSim::new(&self.cfg.hw, n, self.cfg.sim);
        if obs.is_enabled() {
            msim.enable_tracing();
        }
        let mut energy_pj = vec![0.0; n];
        // The served requests' records in admission order, each with its
        // slab key, and per request the position of its record.
        let mut records: Vec<RequestRecord> = Vec::with_capacity(trace.len());
        let mut keys: Vec<usize> = Vec::with_capacity(trace.len());
        let mut record_of = vec![u32::MAX; trace.len()];
        let mut shed: Vec<ShedRecord> = Vec::new();
        let budget = self.cfg.admit_buffer_bytes;

        loop {
            // Completions at the same cycle free capacity before any
            // admission decision, so simulation events win ties.
            let event = msim.next_event_time();
            let obs = &mut run_obs;
            let now = if let Some((now, req, arrival)) = adm.next_external(event) {
                match arrival {
                    Arrival::Queued => sample_waiting(obs, now, adm.waiting()),
                    Arrival::BackedOff => {}
                    Arrival::Shed { attempt, energy_pj } => {
                        let spec = &trace.requests[req];
                        shed.push(ShedRecord {
                            id: req as u64,
                            class: spec.class,
                            arrival: spec.arrival_cycle,
                            energy_pj,
                            retries: attempt,
                        });
                    }
                }
                now
            } else if event.is_some() {
                let step = msim.step().expect("event was pending");
                let Some(done) = step.completed else {
                    continue;
                };
                let (req, inst) = (done.request as usize, done.instance);
                let at = record_of[req] as usize;
                records[at].completed = step.time;
                if let Some(level) = adm.complete(inst, keys[at], step.time).level {
                    if obs.is_enabled() {
                        obs.counter(
                            PID_SCHEDULER,
                            1,
                            "serve.pressure",
                            step.time,
                            &[("level", level as f64)],
                        );
                    }
                }
                sample_booked(obs, step.time, inst, adm.booked(inst));
                step.time
            } else {
                break;
            };
            // The simulator tags each job with its request id.
            let place = |b: &Bookings, _, fp| b.place(0..n, fp, budget);
            adm.admit(now, place, |a| {
                let (req, low) = (a.req, &a.req.low);
                msim.submit(a.slot, req.seq as u64, &low.job, now);
                energy_pj[a.slot] += low.energy_pj;
                record_of[req.seq] =
                    u32::try_from(records.len()).expect("fewer than 2^32 requests");
                keys.push(a.key);
                records.push(RequestRecord {
                    id: req.seq as u64,
                    class: req.spec.class,
                    instance: a.slot,
                    arrival: req.arrival,
                    admitted: now,
                    completed: u64::MAX,
                    footprint_bytes: low.footprint,
                    energy_pj: low.energy_pj,
                    rerouted: low.rerouted,
                    decayed: req.decayed,
                    retries: req.attempts,
                });
                sample_waiting(obs, now, a.waiting);
                sample_booked(obs, now, a.slot, a.booked);
                if obs.is_enabled() {
                    obs.counter(
                        a.slot as u64,
                        TID_SERVE_ENERGY,
                        "serve.energy_pj",
                        now,
                        &[("pj", energy_pj[a.slot])],
                    );
                }
            });
        }
        assert!(
            records.iter().all(|r| r.completed != u64::MAX),
            "every admitted request must complete"
        );

        if let (Some(first), Some(events)) = (&adm.first, &adm.events) {
            for (i, (spec, low)) in trace.requests.iter().zip(first).enumerate() {
                let (tid, at) = (i as u64, spec.arrival_cycle);
                obs.instant(
                    PID_REQUESTS,
                    tid,
                    "lowered",
                    at,
                    &[
                        ("class", ArgValue::Str(class_name(spec.class))),
                        ("footprint_bytes", ArgValue::U64(low.footprint)),
                        ("energy_pj", ArgValue::F64(low.energy_pj)),
                    ],
                );
                if low.rerouted {
                    obs.instant(
                        PID_REQUESTS,
                        tid,
                        "reroute",
                        at,
                        &[("to", ArgValue::Str("energy-leanest"))],
                    );
                }
                // With a retry policy a first-attempt shed is not final:
                // the admission core buffers shed-retry/retry/shed instants
                // and they are emitted with the lifecycle spans instead.
                if !low.admit && self.cfg.retry.is_none() {
                    obs.instant(
                        PID_REQUESTS,
                        tid,
                        "shed",
                        at,
                        &[("energy_pj", ArgValue::F64(low.energy_pj))],
                    );
                }
            }
            obs.absorb(run_obs);
            // Lifecycle spans are emitted once placement and completion are
            // known; walking the requests in id order keeps every per-request
            // track's timestamps (lowered -> queued -> execute) sorted. The
            // adaptive instants buffered during the loop (decay, feedback,
            // retry, late shed) interleave around the spans by timestamp, so
            // each track stays monotone.
            let mut per_req: Vec<Vec<(u64, AdaptiveKind)>> = vec![Vec::new(); trace.len()];
            for ev in events {
                per_req[ev.req].push((ev.ts, ev.kind));
            }
            for (i, spec) in trace.requests.iter().enumerate() {
                let tid = i as u64;
                let events = &per_req[i];
                let Some(r) = records.get(record_of[i] as usize) else {
                    for &(ts, kind) in events {
                        adaptive_instant(obs, tid, ts, kind);
                    }
                    continue;
                };
                // Retry instants precede the (effective) arrival; decay and
                // feedback instants land between arrival and admission.
                let split = events.partition_point(|&(ts, _)| ts <= r.arrival);
                for &(ts, kind) in &events[..split] {
                    adaptive_instant(obs, tid, ts, kind);
                }
                obs.complete(
                    PID_REQUESTS,
                    tid,
                    "queued",
                    r.arrival,
                    r.admitted - r.arrival,
                    &[("class", ArgValue::Str(class_name(spec.class)))],
                );
                for &(ts, kind) in &events[split..] {
                    adaptive_instant(obs, tid, ts, kind);
                }
                obs.complete(
                    PID_REQUESTS,
                    tid,
                    "execute",
                    r.admitted,
                    r.completed - r.admitted,
                    &[("instance", ArgValue::U64(r.instance as u64))],
                );
            }
        }

        records.sort_unstable_by_key(|r| r.id);
        let retried = adm.retried;
        let done = adm.finish();
        *cache_stats = done.stats;
        let multi = msim.report();
        obs.absorb(msim.take_trace());
        let latency = ServeReport::sketch_latencies(&records);
        ServeReport {
            records,
            shed,
            total_cycles: multi.total_cycles,
            multi,
            budget_bytes: self.cfg.admit_buffer_bytes,
            peak_inflight_bytes: done.peaks,
            energy_pj_per_instance: energy_pj,
            retried,
            latency,
        }
    }
}

/// Emits one buffered adaptive instant on a request's lifecycle track.
fn adaptive_instant(obs: &mut TraceRecorder, tid: u64, ts: u64, kind: AdaptiveKind) {
    let (name, arg) = match kind {
        AdaptiveKind::Decay => ("decay", ("to", ArgValue::Str("leanest"))),
        AdaptiveKind::Feedback(level) => ("feedback", ("pressure", ArgValue::U64(level as u64))),
        AdaptiveKind::RetryShed(attempt) => {
            ("shed-retry", ("attempt", ArgValue::U64(attempt as u64)))
        }
        AdaptiveKind::Retry(attempt) => ("retry", ("attempt", ArgValue::U64(attempt as u64))),
        AdaptiveKind::Shed(energy_pj) => ("shed", ("energy_pj", ArgValue::F64(energy_pj))),
    };
    obs.instant(PID_REQUESTS, tid, name, ts, &[arg]);
}

/// Samples instance `inst`'s booked bytes on its counter track.
fn sample_booked(obs: &mut TraceRecorder, now: u64, inst: usize, bytes: u64) {
    obs.counter(
        inst as u64,
        TID_SERVE_INFLIGHT,
        "serve.inflight_bytes",
        now,
        &[("bytes", bytes as f64)],
    );
}

/// Samples the wait-queue depth on the scheduler's counter track.
fn sample_waiting(obs: &mut TraceRecorder, now: u64, depth: usize) {
    obs.counter(
        PID_SCHEDULER,
        0,
        "serve.wait_queue",
        now,
        &[("waiting", depth as f64)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AGING_THRESHOLD;
    use sofa_dse::{CandidateEval, DseCandidate, MetricVector};
    use sofa_hw::accel::AttentionTask;
    use sofa_model::trace::TraceConfig;
    use sofa_sim::tracks::PID_SHARED_DRAM;
    use sofa_sim::CycleSim;

    fn small_cfg(instances: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(HwConfig::small(), instances);
        cfg.op = OperatingPoint::single(0.25, 64);
        cfg
    }

    fn small_trace(n: usize, rate: f64, seed: u64) -> RequestTrace {
        let mut tc = TraceConfig::new(n, rate, seed);
        tc.seq_len = 512;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 16;
        RequestTrace::generate(&tc)
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let report = ServeSim::new(small_cfg(2)).run(&small_trace(24, 40.0, 1));
        assert_eq!(report.records.len(), 24);
        assert!(report.shed.is_empty(), "no budget, nothing shed");
        for r in &report.records {
            assert!(r.admitted >= r.arrival, "admission precedes arrival");
            assert!(r.completed > r.admitted, "completion precedes admission");
            assert!(r.instance < 2);
            assert!(r.energy_pj > 0.0, "every request projects energy");
            assert!(!r.rerouted, "nothing re-routes without a budget");
        }
        let placed: usize = (0..2).map(|i| report.requests_on(i)).sum();
        assert_eq!(placed, 24);
        assert_eq!(
            report
                .multi
                .instances
                .iter()
                .map(|a| a.requests)
                .sum::<usize>(),
            24
        );
        // Admitted energy is conserved across instances.
        let per_instance: f64 = report.energy_pj_per_instance.iter().sum();
        let per_request: f64 = report.records.iter().map(|r| r.energy_pj).sum();
        assert!((per_instance - per_request).abs() < 1e-6);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace(16, 60.0, 9);
        let a = ServeSim::new(small_cfg(2)).run(&trace);
        let b = ServeSim::new(small_cfg(2)).run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn booked_footprints_respect_the_budget() {
        let cfg = small_cfg(2);
        let report = ServeSim::new(cfg).run(&small_trace(32, 200.0, 3));
        let largest = report
            .records
            .iter()
            .map(|r| r.footprint_bytes)
            .max()
            .unwrap();
        for &peak in &report.peak_inflight_bytes {
            assert!(
                peak <= report.budget_bytes.max(largest),
                "peak {peak} exceeds budget {} (largest single {largest})",
                report.budget_bytes
            );
        }
    }

    #[test]
    fn overbooking_admits_requests_sooner() {
        // Saturating load on one instance: relaxing the budget must not make
        // queueing worse.
        let trace = small_trace(32, 400.0, 5);
        let tight = ServeSim::new(small_cfg(1)).run(&trace);
        let mut loose_cfg = small_cfg(1);
        loose_cfg.admit_buffer_bytes *= 4;
        let loose = ServeSim::new(loose_cfg).run(&trace);
        assert!(
            loose.mean_queueing_delay() <= tight.mean_queueing_delay(),
            "overbooking cannot increase queueing: {} vs {}",
            loose.mean_queueing_delay(),
            tight.mean_queueing_delay()
        );
        assert_eq!(loose.records.len(), trace.len());
    }

    #[test]
    fn aging_bounds_the_wait_of_large_requests() {
        // Under smallest-first picking a steady stream of small decodes could
        // starve a large prefill. Once a request has waited the aging
        // threshold, nothing younger is admitted ahead of it: an aged pick
        // takes the oldest, and admission stops while it does not fit.
        let trace = small_trace(48, 300.0, 13);
        let report = ServeSim::new(small_cfg(1)).run(&trace);
        let rs = &report.records;
        let mut aged = 0;
        for a in rs {
            // `a` waits at every admission in `[a.arrival + threshold, a.admitted)`.
            let aged_from = a.arrival + AGING_THRESHOLD;
            if aged_from < a.admitted {
                aged += 1;
            }
            for b in rs {
                let overtaken = (aged_from..a.admitted).contains(&b.admitted)
                    && (a.arrival, a.id) < (b.arrival, b.id);
                assert!(!overtaken, "{} overtook the aged {}", b.id, a.id);
            }
        }
        assert!(aged > 0, "the load must age some request");
    }

    #[test]
    fn two_instances_beat_one_under_load() {
        let trace = small_trace(32, 300.0, 7);
        let one = ServeSim::new(small_cfg(1)).run(&trace);
        let two = ServeSim::new(small_cfg(2)).run(&trace);
        assert!(
            two.total_cycles < one.total_cycles,
            "a second instance must cut the makespan: {} vs {}",
            two.total_cycles,
            one.total_cycles
        );
        assert!(two.p95() <= one.p95());
        assert!(two.requests_on(0) > 0 && two.requests_on(1) > 0);
    }

    #[test]
    fn trace_dram_traffic_is_conserved() {
        let cfg = small_cfg(3);
        let trace = small_trace(20, 100.0, 21);
        let report = ServeSim::new(cfg.clone()).run(&trace);
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        let want: u64 = trace
            .requests
            .iter()
            .map(|spec| {
                let op = cfg.op.with_uniform_keep(spec.keep_ratio);
                let task = AttentionTask::at_layer(
                    spec.queries,
                    spec.seq_len,
                    spec.hidden,
                    spec.heads,
                    &op,
                    0,
                );
                csim.job(&task, None).total_dram_bytes()
            })
            .sum();
        assert_eq!(report.multi.dram.total_bytes(), want);
    }

    #[test]
    fn multi_layer_lowering_concatenates_the_layer_streams() {
        // A two-layer fixed point must stream both layers' tiles: double the
        // single-layer DRAM traffic when the layers are identical.
        let cfg = small_cfg(1);
        let trace = small_trace(6, 50.0, 31);
        let sim = ServeSim::new(cfg);
        let one = OperatingPoint::single(0.25, 64);
        let two = OperatingPoint::uniform(0.25, 64, 2);
        let r1 = sim.run_with(&trace, OpRouter::Fixed(&one));
        let r2 = sim.run_with(&trace, OpRouter::Fixed(&two));
        assert_eq!(
            r2.multi.dram.total_bytes(),
            2 * r1.multi.dram.total_bytes(),
            "two identical layers move twice the bytes"
        );
        assert!(r2.total_cycles > r1.total_cycles);
        // Energy doubles with the layers too.
        let sum = |r: &ServeReport| r.records.iter().map(|x| x.energy_pj).sum::<f64>();
        assert!((sum(&r2) - 2.0 * sum(&r1)).abs() < 1e-6 * sum(&r2));
    }

    #[test]
    fn energy_budget_sheds_what_even_the_leanest_point_exceeds() {
        // A fixed router has no leaner point to fall back to: every request
        // over the (absurdly small) budget is shed, decodes stay under it.
        let trace = small_trace(16, 80.0, 17);
        let mut cfg = small_cfg(1);
        // Between a decode's projection (~9–19 µJ at this shape) and a
        // prefill's (~28 µJ).
        let budget = 2.0e7;
        cfg.energy_budget_pj_per_req = Some(budget);
        let sim = ServeSim::new(cfg);
        let report = sim.run(&trace);
        assert!(!report.shed.is_empty(), "prefills must exceed the budget");
        assert!(
            report.shed.iter().all(|s| s.class == RequestClass::Prefill),
            "only the bulky prefills exceed this budget"
        );
        assert_eq!(report.records.len() + report.shed.len(), trace.len());
        for r in &report.records {
            assert!(r.energy_pj <= budget);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_trace_validates() {
        let trace = small_trace(16, 120.0, 11);
        let sim = ServeSim::new(small_cfg(2));
        let plain = sim.run(&trace);
        let mut obs = TraceRecorder::enabled();
        let mut reg = MetricsRegistry::new();
        let traced = sim.run_traced(&trace, OpRouter::TraceNative, &mut obs, &mut reg);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let stats = sofa_obs::validate_chrome_trace(&obs.to_chrome_json()).expect("valid trace");
        // Per admitted request: queued + execute lifecycle spans on top of
        // the per-tile stage spans from the instances.
        assert!(stats.spans >= 2 * traced.records.len());
        assert!(
            stats.instants >= traced.records.len(),
            "one lowered instant each"
        );
        assert!(stats.counter_samples > 0, "booking counters sampled");
        assert!(stats.max_ts > 0 && stats.max_ts <= traced.total_cycles);
        // The documented single-node layout: the instances, the DRAM
        // channel, the request tracks and the scheduler.
        let doc = sofa_obs::json::parse(&obs.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .map(|e| e.get("pid").and_then(|p| p.as_num()).unwrap() as u64)
            .collect();
        let want = [0, 1, PID_SHARED_DRAM, PID_REQUESTS, PID_SCHEDULER];
        assert_eq!(pids, want.into_iter().collect());
        assert_eq!(reg.counter("serve.requests.admitted"), 16);
        assert_eq!(reg.counter("serve.requests.shed"), 0);
        assert!(reg.gauge("serve.latency_p95").is_some());
        assert_eq!(
            reg.gauge("serve.total_cycles"),
            Some(traced.total_cycles as f64)
        );
    }

    #[test]
    fn trace_bytes_are_thread_count_independent() {
        let trace = small_trace(12, 150.0, 23);
        let sim = ServeSim::new(small_cfg(2));
        let run = |threads: usize| {
            sofa_par::with_threads(threads, || {
                let mut obs = TraceRecorder::enabled();
                let mut reg = MetricsRegistry::new();
                let report = sim.run_traced(&trace, OpRouter::TraceNative, &mut obs, &mut reg);
                (obs.to_chrome_json(), reg.to_json(), report)
            })
        };
        let (t1, m1, r1) = run(1);
        for threads in [2, 8] {
            let (t, m, r) = run(threads);
            assert_eq!(r1, r, "report differs at {threads} threads");
            assert_eq!(t1, t, "trace bytes differ at {threads} threads");
            assert_eq!(m1, m, "metrics differ at {threads} threads");
        }
    }

    #[test]
    fn shed_requests_leave_instants_not_lifecycle_spans() {
        let trace = small_trace(16, 80.0, 17);
        let mut cfg = small_cfg(1);
        cfg.energy_budget_pj_per_req = Some(2.0e7);
        let sim = ServeSim::new(cfg);
        let mut obs = TraceRecorder::enabled();
        let mut reg = MetricsRegistry::new();
        let report = sim.run_traced(&trace, OpRouter::TraceNative, &mut obs, &mut reg);
        assert!(!report.shed.is_empty());
        let json = obs.to_chrome_json();
        sofa_obs::validate_chrome_trace(&json).expect("valid trace");
        let count = |needle: &str| json.matches(needle).count();
        assert_eq!(count("\"name\":\"shed\""), report.shed.len());
        assert_eq!(
            count("\"name\":\"queued\""),
            report.records.len(),
            "only admitted requests get lifecycle spans"
        );
        assert_eq!(reg.counter("serve.requests.shed"), report.shed.len() as u64);
    }

    /// A three-point front with distinct routed / cycle-leanest /
    /// energy-leanest picks, so decay and feedback visibly re-route:
    /// normal decode routing takes `keep_parity` (the only point clearing
    /// both bars), pressure 1 takes `heavy_fast`, pressure 2 and decay take
    /// `lossy_lean`.
    fn adaptive_front() -> ParetoFront {
        let entry = |keep: f64, bc: usize, loss: f64, cycles: u64, energy: f64| CandidateEval {
            candidate: DseCandidate {
                keep_ratios: vec![keep, keep],
                tile_sizes: vec![bc, bc],
            },
            metrics: MetricVector {
                loss,
                cycles,
                energy_pj: energy,
                area_mm2: 5.0,
            },
        };
        let keep_parity = entry(0.25, 16, 0.10, 120, 6.0e7);
        let heavy_fast = entry(0.4, 32, 0.11, 80, 9.0e7);
        let lossy_lean = entry(0.05, 8, 0.30, 40, 2.0e7);
        let reference = entry(0.25, 16, 0.12, 130, 7.0e7);
        ParetoFront::new(&[keep_parity, heavy_fast, lossy_lean], &reference)
    }

    #[test]
    fn refilled_keys_equal_the_keys_of_picked_points() {
        // The dedup pass keys each request through one reused key; every
        // router must give the key of the point it picks.
        let trace = small_trace(64, 400.0, 23);
        let front = adaptive_front();
        let fixed = OperatingPoint::new(vec![0.3, 0.2], vec![32, 16]).unwrap();
        let deployment = small_cfg(1).op;
        for router in [
            OpRouter::TraceNative,
            OpRouter::Fixed(&fixed),
            OpRouter::Pareto(&front),
        ] {
            let (mut key, mut routed) = (ShapeKey::default(), [None, None]);
            for spec in &trace.requests {
                router.refill_key(&deployment, spec, &mut key, &mut routed);
                assert_eq!(key, ShapeKey::new(spec, &router.pick(&deployment, spec)));
            }
        }
    }

    #[test]
    fn decay_relowers_overwaited_requests_to_leaner_points() {
        let trace = small_trace(32, 400.0, 19);
        let front = adaptive_front();
        let mut cfg = small_cfg(1);
        cfg.decay_threshold = Some(10_000);
        let sim = ServeSim::new(cfg);
        let decayed = sim.run_with(&trace, OpRouter::Pareto(&front));
        assert_eq!(decayed.records.len(), trace.len(), "decay never sheds");
        assert!(
            decayed.decayed_requests() > 0,
            "saturating one instance must push waits past the threshold"
        );
        for r in decayed.records.iter().filter(|r| r.decayed) {
            assert!(r.rerouted, "a decayed request is by definition rerouted");
        }
        // Without a front, decay has no leaner point and is a no-op.
        let mut plain_cfg = small_cfg(1);
        plain_cfg.decay_threshold = Some(10_000);
        let plain = ServeSim::new(plain_cfg).run(&trace);
        assert_eq!(plain.decayed_requests(), 0);
        // Deterministic.
        assert_eq!(decayed, sim.run_with(&trace, OpRouter::Pareto(&front)));
    }

    #[test]
    fn retry_readmits_shed_requests_at_leaner_points() {
        // The per-request energy budget sheds every prefill at this shape
        // (see `energy_budget_sheds_what_even_the_leanest_point_exceeds`);
        // with a retry policy the client re-submits at a shrunken keep, which
        // halves the projected energy under the budget.
        let trace = small_trace(16, 80.0, 17);
        let mut cfg = small_cfg(1);
        cfg.energy_budget_pj_per_req = Some(2.0e7);
        let base = ServeSim::new(cfg.clone()).run(&trace);
        assert!(!base.shed.is_empty());
        cfg.retry = Some(RetryPolicy {
            backoff_cycles: 20_000,
            max_retries: 2,
            keep_factor: 0.5,
        });
        let sim = ServeSim::new(cfg);
        let adaptive = sim.run(&trace);
        assert!(
            adaptive.retried > 0,
            "shed prefills must re-enter after the client backoff"
        );
        assert!(
            adaptive.shed.len() <= base.shed.len(),
            "retry cannot shed more than immediate shedding: {} vs {}",
            adaptive.shed.len(),
            base.shed.len()
        );
        assert_eq!(adaptive.records.len() + adaptive.shed.len(), trace.len());
        assert_eq!(adaptive.retried as usize, adaptive.retried_served());
        for r in adaptive.records.iter().filter(|r| r.retries > 0) {
            assert!(r.energy_pj <= 2.0e7, "a served retry fits the budget");
            assert!(r.rerouted, "a retry re-lowers at a leaner keep");
        }
        for s in &adaptive.shed {
            assert_eq!(s.retries, 2, "finally-shed requests exhaust retries");
        }
        // Deterministic.
        assert_eq!(adaptive, sim.run(&trace));
    }

    #[test]
    fn feedback_router_matches_pareto_at_zero_pressure() {
        // With unreachable bars the pressure level never leaves 0, and the
        // feedback router must be byte-for-byte the static Pareto router.
        let trace = small_trace(24, 200.0, 19);
        let front = adaptive_front();
        let calm = FeedbackConfig {
            target_latency_cycles: u64::MAX / 4,
            alpha: 0.25,
            queue_depth_bar: usize::MAX,
            energy_bar_pj: None,
        };
        let sim = ServeSim::new(small_cfg(1));
        let fb = sim.run_with(&trace, OpRouter::Feedback(&front, &calm));
        let pareto = sim.run_with(&trace, OpRouter::Pareto(&front));
        assert_eq!(fb, pareto);
    }

    #[test]
    fn feedback_router_relowers_under_measured_pressure() {
        // A 1-cycle latency target is blown by the very first completion, so
        // every later admission re-routes to the front's leanest points.
        let trace = small_trace(32, 300.0, 23);
        let front = adaptive_front();
        let hot = FeedbackConfig::new(1);
        let sim = ServeSim::new(small_cfg(1));
        let fb = sim.run_with(&trace, OpRouter::Feedback(&front, &hot));
        assert_eq!(fb.records.len(), trace.len());
        assert!(
            fb.records.iter().any(|r| r.rerouted),
            "measured pressure must re-route some admissions"
        );
        // Routing leaner under pressure cannot cost energy overall.
        let pareto = sim.run_with(&trace, OpRouter::Pareto(&front));
        let total = |r: &ServeReport| r.records.iter().map(|x| x.energy_pj).sum::<f64>();
        assert!(total(&fb) <= total(&pareto));
        // Deterministic.
        assert_eq!(fb, sim.run_with(&trace, OpRouter::Feedback(&front, &hot)));
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn zero_retry_keep_factor_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.retry = Some(RetryPolicy {
            keep_factor: 0.0,
            ..RetryPolicy::default()
        });
        let _ = ServeSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "invalid feedback config")]
    fn zero_feedback_target_is_rejected() {
        let front = adaptive_front();
        let mut bad = FeedbackConfig::new(1);
        bad.target_latency_cycles = 0;
        let _ = ServeSim::new(small_cfg(1))
            .run_with(&small_trace(2, 50.0, 1), OpRouter::Feedback(&front, &bad));
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn non_positive_energy_budget_is_rejected() {
        let mut cfg = small_cfg(1);
        cfg.energy_budget_pj_per_req = Some(0.0);
        let _ = ServeSim::new(cfg);
    }
}
