//! Fleet-scale sharded serving: cross-node placement over `sofa-sim`'s
//! node/fabric hierarchy.
//!
//! [`ServeSim`](crate::ServeSim) schedules one node — `N` instances
//! behind one shared DRAM channel. [`FleetServeSim`] scales that out:
//! requests are routed across [`FleetConfig::nodes`] nodes of a
//! [`sofa_sim::FleetSim`] (each a full [`sofa_sim::MultiPipelineSim`] with
//! a private DRAM channel), reaching their node through an inter-node
//! [`Fabric`] whose per-node ingress links add serialization and latency
//! to every placement. Placement is least-booked across the whole fleet,
//! with optional **prefill/decode disaggregation**: prefills pin to one
//! node pool, decodes to the other, spilling over only when their pool has
//! no capacity at all.
//!
//! **Epoch-synchronized.** The router interacts with the simulation only at
//! multiples of [`FleetConfig::epoch_cycles`]: each epoch, every node's
//! event stream advances independently to the boundary (serially, in node
//! order — nodes share nothing between boundaries), then completions are
//! folded into the booking state node-major, arrivals are ingested, and
//! admission runs at the boundary cycle. Queueing delays are therefore
//! quantized to the epoch; the boundary is computed from the next pending
//! activity, so idle stretches are skipped in one step.
//!
//! **Fleet-scale accounting.** A million-request trace cannot keep a
//! per-request record vector; [`FleetReport`] aggregates latency and
//! queueing delay into streaming [`QuantileSketch`]es (exact below 256
//! cycles, ≤1/128 relative error above) the moment each completion
//! surfaces. Lowering is shape-memoized: distinct request shapes are
//! lowered once (in parallel) and shared as [`Arc<PipelineJob>`]s across
//! every request of that shape.
//!
//! Determinism contract: the report (and, when traced, the Perfetto
//! artifact: per-node pid windows absorbed in node order, router/fabric
//! counters stamped at boundary cycles) is byte-identical at any
//! `SOFA_THREADS` and across repeated runs.

use crate::admission::{self, Arrival, Bookings, Intake, LowerCache, RequestTable, WaitQueue};
use crate::report::ServeReport;
use crate::scheduler::{OpRouter, ServeConfig};
use sofa_core::cache::CacheStats;
use sofa_model::trace::{RequestClass, RequestTrace};
use sofa_obs::{MetricsRegistry, QuantileSketch, TraceRecorder};
use sofa_sim::tracks::{PID_FABRIC, PID_FLEET_ROUTER};
use sofa_sim::{CycleSim, Fabric, FabricParams, FabricReport, FleetSim, MultiReport};
use std::ops::Range;
use std::sync::Arc;

/// How many waiting requests (oldest first) the smallest-first pick scans
/// per admission: bounds the per-admission cost on deep backlogs, while
/// aging still protects the queue head.
const ADMIT_WINDOW: usize = 64;

/// Fraction of nodes in the prefill pool when disaggregating (rounded,
/// clamped so both pools are non-empty).
const PREFILL_NODE_FRACTION: f64 = 0.5;

/// Configuration of a sharded serving fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-node serving parameters; [`ServeConfig::instances`] is the
    /// instance count *per node*. The admission knobs (budget, aging,
    /// energy budgets, retry) apply fleet-wide; the fleet does not decay,
    /// so [`ServeConfig::decay_threshold`] must be `None`.
    pub serve: ServeConfig,
    /// Number of nodes, each with [`ServeConfig::instances`] instances and
    /// a private DRAM channel.
    pub nodes: usize,
    /// Inter-node fabric model every placement pays to reach its node.
    pub fabric: FabricParams,
    /// Synchronization granularity: the router admits and collects
    /// completions only at multiples of this cycle count. Larger epochs
    /// amortize cross-node synchronization at the cost of coarser admission
    /// timing.
    pub epoch_cycles: u64,
    /// Split the fleet into a prefill node pool (half the nodes, rounded:
    /// [`FleetConfig::prefill_nodes`]) and a decode node pool of the rest;
    /// each class spills to the other pool only when its own has no
    /// capacity. Requires at least two nodes.
    pub disaggregate: bool,
}

impl FleetConfig {
    /// A fleet of `nodes` × `instances_per_node` instances of `hw` with the
    /// single-node serving defaults, the default fabric, a 64Ki-cycle
    /// epoch and no disaggregation.
    pub fn new(hw: sofa_hw::config::HwConfig, nodes: usize, instances_per_node: usize) -> Self {
        FleetConfig {
            serve: ServeConfig::new(hw, instances_per_node),
            nodes,
            fabric: FabricParams::default(),
            epoch_cycles: 1 << 16,
            disaggregate: false,
        }
    }

    /// Total instances across the fleet.
    pub fn total_instances(&self) -> usize {
        self.nodes * self.serve.instances
    }

    /// Number of nodes in the prefill pool — 0 when not disaggregating,
    /// and 0 for un-validatable configs (fewer than two nodes cannot be
    /// split into two non-empty pools; [`FleetConfig::validate`] rejects
    /// them, but this method must stay total for configs inspected before
    /// validation, where `clamp(1, nodes - 1)` would panic or underflow).
    pub fn prefill_nodes(&self) -> usize {
        if !self.disaggregate || self.nodes < 2 {
            return 0;
        }
        let p = (self.nodes as f64 * PREFILL_NODE_FRACTION).round() as usize;
        p.clamp(1, self.nodes - 1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.serve.validate()?;
        if self.nodes == 0 {
            return Err("nodes must be positive".into());
        }
        if self.serve.decay_threshold.is_some() {
            return Err("serve.decay_threshold is not supported by the fleet".into());
        }
        if self.epoch_cycles == 0 {
            return Err("epoch_cycles must be positive".into());
        }
        if self.fabric.bytes_per_cycle == 0 {
            return Err("fabric.bytes_per_cycle must be positive".into());
        }
        if self.disaggregate && self.nodes < 2 {
            return Err("disaggregation needs at least two nodes".into());
        }
        Ok(())
    }
}

/// Aggregated outcome of serving one trace across the fleet. Per-request
/// records are never materialized — latency and queueing distributions are
/// streaming sketches, everything else is counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Requests served to completion.
    pub served: u64,
    /// Requests the energy budget shed.
    pub shed: u64,
    /// Served requests the energy budget re-routed to a leaner point.
    pub rerouted: u64,
    /// Retry re-arrivals admitted back into the wait queue (shed requests
    /// whose backoff-and-degrade resubmission fit the budget). Zero without
    /// a retry policy.
    pub retried: u64,
    /// Served prefills.
    pub prefills: u64,
    /// Served decodes.
    pub decodes: u64,
    /// End-to-end latency distribution (arrival → completion, cycles).
    pub latency: QuantileSketch,
    /// Queueing-delay distribution (arrival → admission boundary, cycles;
    /// quantized to the epoch).
    pub queueing: QuantileSketch,
    /// Fleet makespan: the latest cycle any node reached.
    pub total_cycles: u64,
    /// Per-node simulation accounting.
    pub nodes: Vec<MultiReport>,
    /// Inter-node fabric accounting.
    pub fabric: FabricReport,
    /// Total projected energy of the admitted requests in picojoules (from
    /// the DSE energy model, summed at admission).
    pub energy_pj: f64,
    /// Requests placed on each node.
    pub requests_per_node: Vec<u64>,
    /// Highest concurrently-booked bytes observed on any single instance of
    /// each node.
    pub peak_inflight_bytes: Vec<u64>,
    /// The effective per-instance admission budget in bytes.
    pub budget_bytes: u64,
}

impl FleetReport {
    /// Latency at percentile `p` (nearest-rank via the streaming sketch).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]` or nothing was served.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        assert!(self.served > 0, "no requests were served");
        self.latency.percentile(p)
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> u64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile (tail) latency.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Mean cycles requests waited for an admission boundary with capacity.
    pub fn mean_queueing_delay(&self) -> f64 {
        self.queueing.mean()
    }

    /// Completed requests per million cycles of makespan.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.served as f64 * 1.0e6 / self.total_cycles as f64
    }

    /// Mean projected energy per served request in picojoules.
    pub fn energy_pj_per_request(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.energy_pj / self.served as f64
    }

    /// Mean bottleneck-stage busy fraction of node `n`'s instances over the
    /// makespan.
    pub fn node_utilization(&self, n: usize) -> f64 {
        let node = &self.nodes[n];
        let total: f64 = node
            .instances
            .iter()
            .map(|i| i.utilization(self.total_cycles))
            .sum();
        total / node.instances.len() as f64
    }

    /// Mean utilization across all nodes.
    pub fn mean_utilization(&self) -> f64 {
        (0..self.nodes.len())
            .map(|n| self.node_utilization(n))
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Adds the fleet summary to `reg` under the `fleet.` prefix.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("fleet.requests.total", self.served + self.shed);
        reg.inc("fleet.requests.served", self.served);
        reg.inc("fleet.requests.shed", self.shed);
        reg.inc("fleet.requests.rerouted", self.rerouted);
        // Only adaptive (retry-enabled) runs carry the counter, so existing
        // metric snapshots stay byte-stable.
        if self.retried > 0 {
            reg.inc("fleet.requests.retried", self.retried);
        }
        reg.inc("fleet.requests.prefill", self.prefills);
        reg.inc("fleet.requests.decode", self.decodes);
        reg.set_gauge("fleet.total_cycles", self.total_cycles as f64);
        reg.set_gauge("fleet.throughput_per_mcycle", self.throughput_per_mcycle());
        reg.set_gauge("fleet.mean_queueing_delay", self.mean_queueing_delay());
        reg.set_gauge("fleet.energy_pj_per_request", self.energy_pj_per_request());
        if self.served > 0 {
            reg.set_gauge("fleet.latency_p50", self.p50() as f64);
            reg.set_gauge("fleet.latency_p95", self.p95() as f64);
            reg.set_gauge("fleet.latency_p99", self.p99() as f64);
        }
        reg.set_gauge("fleet.fabric.bytes", self.fabric.total_bytes() as f64);
        reg.set_gauge(
            "fleet.fabric.transfers",
            self.fabric.total_transfers() as f64,
        );
        for n in 0..self.nodes.len() {
            reg.set_gauge(
                &format!("fleet.node{n}.requests"),
                self.requests_per_node[n] as f64,
            );
            reg.set_gauge(
                &format!("fleet.node{n}.utilization"),
                self.node_utilization(n),
            );
            reg.set_gauge(
                &format!("fleet.node{n}.link_utilization"),
                self.fabric.link_utilization(n, self.total_cycles),
            );
            reg.set_gauge(
                &format!("fleet.node{n}.peak_inflight_bytes"),
                self.peak_inflight_bytes[n] as f64,
            );
        }
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "served {}  shed {}  rerouted {}  makespan {} cyc  throughput {:.2} req/Mcyc\n",
            self.served,
            self.shed,
            self.rerouted,
            self.total_cycles,
            self.throughput_per_mcycle(),
        ));
        if self.retried > 0 {
            out.push_str(&format!(
                "retried {} (served after client backoff)\n",
                self.retried
            ));
        }
        if self.served > 0 {
            out.push_str(&format!(
                "latency p50 {}  p95 {}  p99 {}  mean queueing {:.0} cyc\n",
                self.p50(),
                self.p95(),
                self.p99(),
                self.mean_queueing_delay(),
            ));
        }
        for n in 0..self.nodes.len() {
            out.push_str(&format!(
                "node {n}: {} requests  util {:>5.1}%  link busy {:>4.1}%  peak buffer {}/{} B\n",
                self.requests_per_node[n],
                100.0 * self.node_utilization(n),
                100.0 * self.fabric.link_utilization(n, self.total_cycles),
                self.peak_inflight_bytes[n],
                self.budget_bytes,
            ));
        }
        out.push_str(&format!(
            "fabric: {:.1} MB moved in {} transfers  energy {:.1} nJ/req\n",
            self.fabric.total_bytes() as f64 / 1e6,
            self.fabric.total_transfers(),
            self.energy_pj_per_request() / 1e3,
        ));
        out
    }
}

/// Mutable routing state of one fleet run.
struct RouterState {
    /// Waiting (admitted-eligible) request indices, in arrival order.
    waiting: WaitQueue,
    /// Bookings per instance slot (`node * instances_per_node + inst`).
    bookings: Bookings,
    requests_per_node: Vec<u64>,
    latency: QuantileSketch,
    queueing: QuantileSketch,
    served: u64,
    energy_pj: f64,
}

/// The fleet-scale serving simulator.
#[derive(Debug)]
pub struct FleetServeSim {
    cfg: FleetConfig,
}

impl FleetServeSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FleetConfig::validate`].
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate().expect("invalid fleet config");
        FleetServeSim { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Serves `trace` across the fleet under `router`. The fleet has no
    /// feedback loop: [`OpRouter::Feedback`] routes as [`OpRouter::Pareto`]
    /// over the same front.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run(&self, trace: &RequestTrace, router: OpRouter) -> FleetReport {
        self.run_inner(
            trace,
            router,
            &mut TraceRecorder::disabled(),
            &mut CacheStats::default(),
        )
    }

    /// [`FleetServeSim::run`] plus the lowering-cache effectiveness counters
    /// of the run. The report is bit-identical to [`FleetServeSim::run`]'s;
    /// the statistics ride outside it so cache-on and cache-off reports stay
    /// comparable bytes.
    pub fn run_with_cache_stats(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
    ) -> (FleetReport, CacheStats) {
        let mut stats = CacheStats::default();
        let report = self.run_inner(trace, router, &mut TraceRecorder::disabled(), &mut stats);
        (report, stats)
    }

    /// [`FleetServeSim::run`] plus observability: per-node pipeline tracks
    /// (each node in its own pid window), router wait-queue and per-node
    /// fabric counters land in `obs`; the report's summary lands in
    /// `metrics`. Unlike the single-node scheduler, no per-request spans
    /// are emitted — at fleet request counts they would dwarf the trace.
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
    ) -> FleetReport {
        let report = self.run_inner(trace, router, obs, &mut CacheStats::default());
        report.record_metrics(metrics);
        report
    }

    /// The instance slots of the node pool `class` placements try first.
    fn pool(&self, class: RequestClass) -> Range<usize> {
        let total = self.cfg.total_instances();
        if !self.cfg.disaggregate {
            return 0..total;
        }
        let p = self.cfg.prefill_nodes() * self.cfg.serve.instances;
        match class {
            RequestClass::Prefill => 0..p,
            RequestClass::Decode => p..total,
        }
    }

    /// Admits as many waiting requests as fit, at boundary cycle `now`:
    /// pick (aged oldest or windowed smallest-first), place (least-booked
    /// with energy headroom in the class pool, spilling fleet-wide when the
    /// pool is full), book the fabric transfer, and hand the job to the
    /// node at its delivery cycle.
    fn try_admit(
        &self,
        now: u64,
        table: &RequestTable,
        state: &mut RouterState,
        fabric: &mut Fabric,
        fleet: &mut FleetSim,
        obs: &mut TraceRecorder,
    ) {
        let s = &self.cfg.serve;
        let ipn = s.instances;
        let budget = s.admit_buffer_bytes;
        let energy_budget = s.instance_energy_budget_pj;
        while !state.waiting.is_empty() {
            let pos = admission::pick(
                s,
                now,
                &state.waiting,
                ADMIT_WINDOW,
                |r| table.arrival[r],
                |r| table[r].footprint,
            );
            let req = state.waiting[pos];
            let low = &table[req];
            let (fp, energy_pj) = (low.footprint, low.energy_pj);
            let place = |slots| {
                state
                    .bookings
                    .place(slots, fp, energy_pj, budget, energy_budget)
            };
            let target = place(self.pool(table.specs[req].class)).or_else(|| {
                self.cfg
                    .disaggregate
                    .then(|| place(0..self.cfg.total_instances()))
                    .flatten()
            });
            let Some(slot) = target else {
                // The candidate fits nowhere; the next boundary retries.
                // Stopping (not skipping to a smaller request) keeps the
                // aged head from being overtaken forever.
                return;
            };
            state.waiting.remove(pos);
            let (node, inst) = (slot / ipn, slot % ipn);
            let delivery = fabric.transfer(node, fp, now);
            fleet.submit(node, inst, req as u64, Arc::clone(&low.job), delivery);
            state.bookings.book(slot, fp, energy_pj);
            state.requests_per_node[node] += 1;
            state.energy_pj += energy_pj;
            state.queueing.record(now - table.arrival[req]);
            if obs.is_enabled() {
                obs.counter(
                    PID_FABRIC,
                    node as u64,
                    "fabric.bytes",
                    now,
                    &[("bytes", fabric.report().links[node].bytes as f64)],
                );
            }
        }
    }

    fn run_inner(
        &self,
        trace: &RequestTrace,
        router: OpRouter,
        obs: &mut TraceRecorder,
        cache_stats: &mut CacheStats,
    ) -> FleetReport {
        assert!(!trace.is_empty(), "cannot serve an empty trace");
        let s = &self.cfg.serve;
        let ipn = s.instances;
        let mut csim = CycleSim::new(s.hw);
        csim.params = s.sim;
        let mut cache = LowerCache::new(s.lowering_cache);
        // One lowering per distinct shape, shared by every request of it.
        let mut table = admission::lower_trace(s, &csim, trace, &router, &mut cache);
        let mut intake = Intake::default();

        let mut fleet = FleetSim::new(&s.hw, self.cfg.nodes, ipn, s.sim);
        let mut fabric = Fabric::new(self.cfg.fabric, self.cfg.nodes);
        if obs.is_enabled() {
            obs.process_name(PID_FLEET_ROUTER, "fleet-router");
            obs.thread_name(PID_FLEET_ROUTER, 0, "fleet.wait_queue");
            obs.process_name(PID_FABRIC, "fabric");
            for n in 0..self.cfg.nodes {
                obs.thread_name(PID_FABRIC, n as u64, &format!("fabric.node{n}.bytes"));
            }
            fleet.enable_tracing();
        }

        let mut state = RouterState {
            waiting: WaitQueue::default(),
            bookings: Bookings::new(self.cfg.total_instances()),
            requests_per_node: vec![0; self.cfg.nodes],
            latency: QuantileSketch::new(),
            queueing: QuantileSketch::new(),
            served: 0,
            energy_pj: 0.0,
        };
        let mut shed = 0u64;
        let mut rerouted = 0u64;
        let mut retried = 0u64;
        let mut prefills = 0u64;
        let mut decodes = 0u64;
        let epoch = self.cfg.epoch_cycles;

        loop {
            let next = [fleet.next_activity(), intake.next_time(&table)];
            let Some(next) = next.into_iter().flatten().min() else {
                break;
            };
            // The first boundary strictly past the next pending activity —
            // idle stretches collapse into one epoch step.
            let boundary = (next / epoch + 1) * epoch;
            for c in fleet.run_until(boundary) {
                let req = c.request as usize;
                let low = &table[req];
                let slot = c.node * ipn + c.instance;
                state.bookings.release(slot, low.footprint, low.energy_pj);
                match table.specs[req].class {
                    RequestClass::Prefill => prefills += 1,
                    RequestClass::Decode => decodes += 1,
                }
                if low.rerouted {
                    rerouted += 1;
                }
                state.latency.record(c.time - table.arrival[req]);
                state.served += 1;
            }
            // Ingest originals and retry re-arrivals below the boundary in
            // time order, so the wait queue stays arrival-ordered.
            while let Some((_, arrival)) =
                intake.pop_before(Some(boundary), s, &mut cache, &csim, &router, &mut table)
            {
                match arrival {
                    Arrival::Queued { req, attempt } => {
                        retried += u64::from(attempt > 0);
                        state.waiting.push(req, table.arrival[req]);
                    }
                    Arrival::BackedOff { .. } => {}
                    Arrival::Shed { .. } => shed += 1,
                }
            }
            self.try_admit(boundary, &table, &mut state, &mut fabric, &mut fleet, obs);
            if obs.is_enabled() {
                obs.counter(
                    PID_FLEET_ROUTER,
                    0,
                    "fleet.wait_queue",
                    boundary,
                    &[("waiting", state.waiting.len() as f64)],
                );
            }
        }
        assert!(state.waiting.is_empty(), "all eligible requests admitted");
        assert_eq!(
            state.served + shed,
            trace.len() as u64,
            "served + shed == offered"
        );
        state.bookings.assert_drained();
        *cache_stats = cache.stats();
        obs.absorb(fleet.take_trace());

        let sim_report = fleet.report();
        let total_cycles = sim_report.total_cycles();
        let node_peaks = state.bookings.peak.chunks(ipn);
        FleetReport {
            served: state.served,
            shed,
            rerouted,
            retried,
            prefills,
            decodes,
            latency: state.latency,
            queueing: state.queueing,
            total_cycles,
            nodes: sim_report.nodes,
            fabric: fabric.report(),
            energy_pj: state.energy_pj,
            requests_per_node: state.requests_per_node,
            peak_inflight_bytes: node_peaks
                .map(|n| n.iter().copied().max().unwrap_or(0))
                .collect(),
            budget_bytes: s.admit_buffer_bytes,
        }
    }
}

/// How far the fleet's p95 latency drifts from a reference single-node
/// serving run of the same trace — the 1-node × 1-instance consistency
/// check the regression gate enforces.
pub fn p95_drift(fleet: &FleetReport, single: &ServeReport) -> f64 {
    let f = fleet.p95() as f64;
    let s = single.p95() as f64;
    (f - s).abs() / s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeSim;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::TraceConfig;

    fn small_trace(n: usize, rate: f64) -> RequestTrace {
        let mut tc = TraceConfig::new(n, rate, 42);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        RequestTrace::generate(&tc)
    }

    fn small_cfg(nodes: usize, ipn: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, ipn);
        cfg.epoch_cycles = 4096;
        cfg
    }

    #[test]
    fn fleet_serves_every_request() {
        let trace = small_trace(24, 100.0);
        let report = FleetServeSim::new(small_cfg(2, 2)).run(&trace, OpRouter::TraceNative);
        assert_eq!(report.served, 24);
        assert_eq!(report.shed, 0);
        assert_eq!(report.prefills + report.decodes, 24);
        assert_eq!(report.requests_per_node.iter().sum::<u64>(), 24);
        assert!(report.p50() <= report.p95());
        assert!(report.p95() <= report.p99());
        assert!(report.total_cycles > 0);
        // Every placement crossed the fabric.
        assert_eq!(report.fabric.total_transfers(), 24);
    }

    #[test]
    fn fleet_is_deterministic_across_runs_and_epochs_shift_timing_only() {
        let trace = small_trace(16, 100.0);
        let sim = FleetServeSim::new(small_cfg(2, 1));
        let a = sim.run(&trace, OpRouter::TraceNative);
        let b = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(a, b);
    }

    #[test]
    fn disaggregation_splits_classes_across_pools() {
        let trace = small_trace(24, 100.0);
        let mut cfg = small_cfg(2, 1);
        cfg.disaggregate = true;
        let sim = FleetServeSim::new(cfg);
        let report = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(report.served, 24);
        // Pool split: node 0 takes prefills, node 1 decodes. Spillover may
        // blur the split under pressure, but both nodes must see work.
        assert!(report.requests_per_node.iter().all(|&r| r > 0));
        assert_eq!(sim.config().prefill_nodes(), 1);
    }

    #[test]
    fn single_node_fleet_tracks_the_single_node_scheduler() {
        let trace = small_trace(12, 50.0);
        let mut cfg = small_cfg(1, 1);
        // Isolate the epoch/fabric overheads the fleet path adds.
        cfg.fabric.latency_cycles = 0;
        let single = ServeSim::new(cfg.serve.clone()).run(&trace);
        let fleet = FleetServeSim::new(cfg).run(&trace, OpRouter::TraceNative);
        assert_eq!(fleet.served as usize, single.records.len());
        assert!(
            p95_drift(&fleet, &single) < 0.15,
            "fleet p95 {} vs single {}",
            fleet.p95(),
            single.p95()
        );
    }

    #[test]
    fn single_node_and_one_node_fleet_share_the_lowering_pass() {
        let trace = small_trace(24, 100.0);
        for cache in [true, false] {
            let mut cfg = small_cfg(1, 2);
            cfg.serve.lowering_cache = cache;
            let (_, single) = ServeSim::new(cfg.serve.clone())
                .run_with_cache_stats(&trace, OpRouter::TraceNative);
            let (_, fleet) =
                FleetServeSim::new(cfg).run_with_cache_stats(&trace, OpRouter::TraceNative);
            assert_eq!(single, fleet, "cache {cache}");
            assert_eq!(single.hits + single.misses, 24);
        }
    }

    #[test]
    fn single_node_and_one_node_fleet_agree_on_retries() {
        // The budget sheds prefills on first submission and the retries
        // re-lower them at shrinking keeps. Which attempt fits depends only
        // on the lowerings, not on admission timing, so both drivers shed,
        // retry and reroute the same requests through the same cache
        // lookups.
        let trace = small_trace(40, 150.0);
        for ipn in [1, 2] {
            let mut cfg = small_cfg(1, ipn);
            cfg.serve.energy_budget_pj_per_req = Some(4.0e6);
            cfg.serve.retry = Some(crate::RetryPolicy {
                backoff_cycles: 20_000,
                max_retries: 2,
                keep_factor: 0.5,
            });
            let (single, single_stats) = ServeSim::new(cfg.serve.clone())
                .run_with_cache_stats(&trace, OpRouter::TraceNative);
            let (fleet, fleet_stats) =
                FleetServeSim::new(cfg).run_with_cache_stats(&trace, OpRouter::TraceNative);
            assert!(fleet.shed > 0 && fleet.retried > 0, "{ipn} per node");
            assert_eq!(fleet.shed, single.shed.len() as u64, "{ipn} per node");
            assert_eq!(fleet.retried, single.retried, "{ipn} per node");
            assert_eq!(fleet.rerouted, single.rerouted_requests() as u64);
            assert_eq!(fleet_stats, single_stats, "{ipn} per node");
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_validates() {
        let trace = small_trace(10, 100.0);
        let sim = FleetServeSim::new(small_cfg(2, 1));
        let plain = sim.run(&trace, OpRouter::TraceNative);
        let mut obs = TraceRecorder::enabled();
        let mut metrics = MetricsRegistry::new();
        let traced = sim.run_traced(&trace, OpRouter::TraceNative, &mut obs, &mut metrics);
        assert_eq!(plain, traced);
        let json = obs.to_chrome_json();
        let stats = sofa_obs::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans > 0);
        assert!(json.contains("fleet-router"));
        assert!(json.contains("fabric.node1.bytes"));
        assert!(json.contains("node1.dram-channel"));
        assert!(!metrics.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid fleet config")]
    fn zero_nodes_rejected() {
        FleetServeSim::new(FleetConfig {
            nodes: 0,
            ..small_cfg(1, 1)
        });
    }

    #[test]
    fn decay_threshold_is_rejected_by_validate() {
        // Regression: the fleet never read it, so a decaying config ran as
        // if it did not decay.
        let mut cfg = small_cfg(1, 1);
        cfg.serve.decay_threshold = Some(10_000);
        let err = cfg.validate().expect_err("the fleet cannot decay");
        assert!(err.contains("serve.decay_threshold"), "{err}");
    }

    #[test]
    fn zero_fabric_bandwidth_is_rejected_by_validate() {
        // Regression: validate() accepted it and the run then panicked in
        // `Fabric::new`.
        let mut cfg = small_cfg(2, 1);
        cfg.fabric.bytes_per_cycle = 0;
        let err = cfg
            .validate()
            .expect_err("zero fabric bandwidth must not validate");
        assert!(err.contains("fabric.bytes_per_cycle"), "{err}");
        cfg.fabric.bytes_per_cycle = 1;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn prefill_nodes_is_total_on_unvalidatable_configs() {
        // Regression: `clamp(1, nodes - 1)` panicked (min > max) for a
        // single-node disaggregated config inspected before validate(), and
        // underflowed at nodes == 0.
        for nodes in [0, 1] {
            let cfg = FleetConfig {
                nodes,
                disaggregate: true,
                ..small_cfg(2, 1)
            };
            assert!(cfg.validate().is_err(), "{nodes} nodes must not validate");
            assert_eq!(cfg.prefill_nodes(), 0);
        }
        // Valid configs still split into two non-empty pools.
        let mut cfg = small_cfg(4, 1);
        cfg.disaggregate = true;
        assert_eq!(cfg.prefill_nodes(), 2);
    }

    #[test]
    fn fleet_retry_readmits_shed_requests() {
        let trace = small_trace(24, 150.0);
        let mut cfg = small_cfg(2, 1);
        // Between a decode's projection and a prefill's at this shape, so
        // prefills shed on first submission.
        cfg.serve.energy_budget_pj_per_req = Some(4.0e6);
        let base = FleetServeSim::new(cfg.clone()).run(&trace, OpRouter::TraceNative);
        assert!(base.shed > 0, "prefills must shed without retry");
        assert_eq!(base.retried, 0);

        cfg.serve.retry = Some(crate::RetryPolicy {
            backoff_cycles: 20_000,
            max_retries: 2,
            keep_factor: 0.5,
        });
        let sim = FleetServeSim::new(cfg);
        let adaptive = sim.run(&trace, OpRouter::TraceNative);
        assert!(
            adaptive.shed <= base.shed,
            "retry cannot shed more: {} vs {}",
            adaptive.shed,
            base.shed
        );
        assert!(adaptive.retried > 0, "degraded resubmissions must land");
        assert_eq!(adaptive.served + adaptive.shed, trace.len() as u64);
        // Determinism with the retry path active.
        let again = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(adaptive, again);
    }

    #[test]
    fn instance_energy_budget_spreads_load() {
        let trace = small_trace(24, 300.0);
        let mut cfg = small_cfg(2, 1);
        // Roomy enough that everything is eventually served, tight enough
        // that placement must account energy headroom.
        cfg.serve.instance_energy_budget_pj = Some(5.0e7);
        let sim = FleetServeSim::new(cfg.clone());
        let report = sim.run(&trace, OpRouter::TraceNative);
        assert_eq!(report.served, 24, "budgeted placement must still serve all");
        assert!(report.requests_per_node.iter().all(|&r| r > 0));
        assert_eq!(report, sim.run(&trace, OpRouter::TraceNative));
    }
}
