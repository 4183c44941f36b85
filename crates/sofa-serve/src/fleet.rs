//! Fleet-scale sharded serving: cross-node placement over `sofa-sim`'s
//! node/fabric hierarchy.
//!
//! [`ServeSim`](crate::ServeSim) schedules one node — `N` instances
//! behind one shared DRAM channel. [`FleetServeSim`] scales that out
//! across [`FleetConfig::nodes`] nodes of a [`sofa_sim::FleetSim`] (each a
//! full [`sofa_sim::MultiPipelineSim`] with a private DRAM channel),
//! reached through an inter-node [`Fabric`] whose per-node ingress links
//! add serialization and latency to every placement. Both run one
//! admission core, adaptive controller included; the fleet keeps its
//! epoch loop, the fabric, the class pools and the sketches. Placement is
//! least-booked across the fleet, with optional **prefill/decode
//! disaggregation**: prefills pin to one node pool, decodes to the other,
//! spilling over only when their pool has no capacity at all.
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
//! **Fleet-scale accounting.** A run holds nothing per offered request. It
//! reads its requests from a [`RequestSource`] (a materialised trace or a
//! lazy [`TraceConfig::requests`](sofa_model::TraceConfig::requests)
//! stream), keeps admission state only for the requests in flight, in the
//! pick window or backing off for a retry, and [`FleetReport`] aggregates
//! latency and queueing delay into streaming [`QuantileSketch`]es (exact
//! below 256 cycles, ≤1/128 relative error above) the moment each
//! completion surfaces.
//!
//! Determinism contract: the report is byte-identical at any
//! `SOFA_THREADS` and across repeated runs. The fleet records no trace; a
//! full trace of a million-request run would take gigabytes.

use crate::admission::{Admission, Arrival, Bookings, Finished};
use crate::report::ServeReport;
use crate::scheduler::{OpRouter, ServeConfig};
use sofa_core::cache::CacheStats;
use sofa_model::trace::{RequestClass, RequestSource};
use sofa_obs::QuantileSketch;
use sofa_sim::{Fabric, FabricParams, FabricReport, FleetSim, MultiReport};
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
    /// instance count *per node*. The admission knobs (budget, energy
    /// budget, decay, retry) apply fleet-wide.
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
    /// `FleetConfig::prefill_nodes`) and a decode node pool of the rest;
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
    pub(crate) fn total_instances(&self) -> usize {
        self.nodes * self.serve.instances
    }

    /// Number of nodes in the prefill pool — 0 when not disaggregating,
    /// and 0 for un-validatable configs (fewer than two nodes cannot be
    /// split into two non-empty pools; [`FleetConfig::validate`] rejects
    /// them, but this method must stay total for configs inspected before
    /// validation, where `clamp(1, nodes - 1)` would panic or underflow).
    pub(crate) fn prefill_nodes(&self) -> usize {
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
    pub(crate) latency: QuantileSketch,
    /// Queueing-delay distribution (arrival → admission boundary, cycles;
    /// quantized to the epoch).
    pub(crate) queueing: QuantileSketch,
    /// Fleet makespan: the latest cycle any node reached.
    pub total_cycles: u64,
    /// Per-node simulation accounting.
    pub nodes: Vec<MultiReport>,
    /// Inter-node fabric accounting.
    pub fabric: FabricReport,
    /// Total projected energy of the admitted requests in picojoules (from
    /// the DSE energy model, summed at admission).
    pub(crate) energy_pj: f64,
    /// Requests placed on each node.
    pub(crate) requests_per_node: Vec<u64>,
    /// Highest concurrently-booked bytes observed on any single instance of
    /// each node.
    pub(crate) peak_inflight_bytes: Vec<u64>,
    /// The effective per-instance admission budget in bytes.
    pub(crate) budget_bytes: u64,
}

impl FleetReport {
    /// Latency at percentile `p` (nearest-rank via the streaming sketch).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]` or nothing was served.
    pub(crate) fn latency_percentile(&self, p: f64) -> u64 {
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
    pub(crate) fn node_utilization(&self, n: usize) -> f64 {
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

    /// Serves the requests of `requests` across the fleet under `router`.
    /// `requests` is a [`RequestSource`]: a `&RequestTrace`, or a
    /// [`TraceConfig::requests`](sofa_model::TraceConfig::requests) stream.
    /// The run reads it one request at a time and keeps state only for the
    /// requests it has in flight, waiting or backing off for a retry, so a
    /// streamed run's memory does not grow with its length.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty or a [`OpRouter::Feedback`]
    /// configuration fails `crate::FeedbackConfig::validate`.
    pub fn run<'t>(&self, requests: impl Into<RequestSource<'t>>, router: OpRouter) -> FleetReport {
        self.run_inner(requests.into(), router, ADMIT_WINDOW).0
    }

    /// [`FleetServeSim::run`] plus the lowering-cache effectiveness counters
    /// of the run, which ride outside the report: it is bit-identical to
    /// [`FleetServeSim::run`]'s.
    pub fn run_with_cache_stats<'t>(
        &self,
        requests: impl Into<RequestSource<'t>>,
        router: OpRouter,
    ) -> (FleetReport, CacheStats) {
        let (report, done) = self.run_inner(requests.into(), router, ADMIT_WINDOW);
        (report, done.stats)
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

    /// The run, deferring an arriving original once `defer_after` requests
    /// wait keyed ([`Admission::new`]).
    fn run_inner(
        &self,
        requests: RequestSource,
        router: OpRouter,
        defer_after: usize,
    ) -> (FleetReport, Finished) {
        let s = &self.cfg.serve;
        let (ipn, total) = (s.instances, self.cfg.total_instances());
        let mut adm = Admission::new(s, router, requests, total, ADMIT_WINDOW, false);
        adm.defer_after = defer_after;
        let mut fleet = FleetSim::new(&s.hw, self.cfg.nodes, ipn, s.sim);
        let mut fabric = Fabric::new(self.cfg.fabric, self.cfg.nodes);

        let mut requests_per_node = vec![0; self.cfg.nodes];
        let mut latency = QuantileSketch::new();
        let mut queueing = QuantileSketch::new();
        let (mut served, mut shed, mut rerouted) = (0u64, 0u64, 0u64);
        let (mut prefills, mut decodes) = (0u64, 0u64);
        let mut energy_pj = 0.0;
        let epoch = self.cfg.epoch_cycles;
        let budget = s.admit_buffer_bytes;

        loop {
            let next = [fleet.next_activity(), adm.next_arrival()];
            let Some(next) = next.into_iter().flatten().min() else {
                break;
            };
            // The first boundary strictly past the next pending activity —
            // idle stretches collapse into one epoch step.
            let boundary = (next / epoch + 1) * epoch;
            for c in fleet.run_until(boundary) {
                let done = adm.complete(c.node * ipn + c.instance, c.request as usize, c.time);
                match done.class {
                    RequestClass::Prefill => prefills += 1,
                    RequestClass::Decode => decodes += 1,
                }
                rerouted += u64::from(done.rerouted);
                latency.record(c.time - done.arrival);
                served += 1;
            }
            // Ingest originals and retry re-arrivals below the boundary in
            // time order, so the wait queue stays arrival-ordered.
            while let Some((_, _, arrival)) = adm.next_external(Some(boundary)) {
                shed += u64::from(matches!(arrival, Arrival::Shed { .. }));
            }
            // Least-booked in the class pool, spilling fleet-wide when the
            // pool is full; the job reaches its node over the fabric, tagged
            // with the request's slab key.
            let place = |b: &Bookings, class, fp| {
                let place = |slots| b.place(slots, fp, budget);
                place(self.pool(class))
                    .or_else(|| self.cfg.disaggregate.then(|| place(0..total)).flatten())
            };
            adm.admit(boundary, place, |a| {
                let (node, inst) = (a.slot / ipn, a.slot % ipn);
                let low = &a.req.low;
                let delivery = fabric.transfer(node, low.footprint, boundary);
                fleet.submit(node, inst, a.key as u64, Arc::clone(&low.job), delivery);
                requests_per_node[node] += 1;
                energy_pj += low.energy_pj;
                queueing.record(boundary - a.req.arrival);
            });
        }
        let retried = adm.retried;
        let done = adm.finish();
        assert_eq!(served + shed, done.offered, "served + shed == offered");

        let sim_report = fleet.report();
        let report = FleetReport {
            served,
            shed,
            rerouted,
            retried,
            prefills,
            decodes,
            latency,
            queueing,
            total_cycles: sim_report.total_cycles(),
            nodes: sim_report.nodes,
            fabric: fabric.report(),
            energy_pj,
            requests_per_node,
            peak_inflight_bytes: done
                .peaks
                .chunks(ipn)
                .map(|n| n.iter().copied().max().unwrap_or(0))
                .collect(),
            budget_bytes: s.admit_buffer_bytes,
        };
        (report, done)
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
    use crate::admission;
    use crate::ServeSim;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::{RequestTrace, TraceConfig};

    fn small_trace_config(n: usize, rate: f64) -> TraceConfig {
        let mut tc = TraceConfig::new(n, rate, 42);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        tc
    }

    fn small_trace(n: usize, rate: f64) -> RequestTrace {
        RequestTrace::generate(&small_trace_config(n, rate))
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
        assert_eq!(sim.cfg.prefill_nodes(), 1);
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
        let cfg = small_cfg(1, 2);
        let (_, single) =
            ServeSim::new(cfg.serve.clone()).run_with_cache_stats(&trace, OpRouter::TraceNative);
        let (_, fleet) =
            FleetServeSim::new(cfg.clone()).run_with_cache_stats(&trace, OpRouter::TraceNative);
        assert_eq!(single, fleet);
        assert_eq!(single.hits + single.misses, 24);
        // The shared intake gives every request what lowering it alone
        // gives.
        let source = (&trace).into();
        let mut adm = Admission::new(&cfg.serve, OpRouter::TraceNative, source, 2, 1, true);
        while adm.next_external(None).is_some() {}
        let csim = {
            let mut csim = sofa_sim::CycleSim::new(cfg.serve.hw);
            csim.params = cfg.serve.sim;
            csim
        };
        let first = adm.first.as_ref().expect("traced");
        for (i, (spec, low)) in trace.requests.iter().zip(first).enumerate() {
            let alone = admission::lower_routed(&cfg.serve, &csim, spec, &OpRouter::TraceNative);
            assert_eq!((&low.op, &low.job), (&alone.op, &alone.job), "request {i}");
            assert_eq!(low.footprint, alone.footprint);
            assert_eq!(low.energy_pj.to_bits(), alone.energy_pj.to_bits());
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
    #[should_panic(expected = "invalid fleet config")]
    fn zero_nodes_rejected() {
        FleetServeSim::new(FleetConfig {
            nodes: 0,
            ..small_cfg(1, 1)
        });
    }

    /// A two-layer front whose routed, cycle-leanest and energy-leanest
    /// points differ.
    fn small_front() -> sofa_dse::ParetoFront {
        use sofa_dse::{CandidateEval, DseCandidate, MetricVector};
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
        let points = [
            entry(0.25, 16, 0.10, 120, 6.0e7),
            entry(0.4, 32, 0.11, 80, 9.0e7),
            entry(0.05, 8, 0.30, 40, 2.0e7),
        ];
        sofa_dse::ParetoFront::new(&points, &entry(0.25, 16, 0.12, 130, 7.0e7))
    }

    /// The controller scenario: 48 requests on one node of two instances
    /// under an energy budget that sheds, with retries and, when `decay`,
    /// a decay threshold.
    fn controller_scenario(decay: bool) -> (TraceConfig, FleetConfig) {
        let mut tc = TraceConfig::new(48, 400.0, 42);
        (tc.seq_len, tc.hidden, tc.heads) = (256, 256, 4);
        (tc.prefill_queries, tc.max_decode_queries) = (64, 32);
        let mut cfg = small_cfg(1, 2);
        cfg.serve.energy_budget_pj_per_req = Some(2.0e7);
        cfg.serve.retry = Some(crate::RetryPolicy {
            backoff_cycles: 20_000,
            max_retries: 2,
            keep_factor: 0.8,
        });
        cfg.serve.decay_threshold = decay.then_some(10_000);
        (tc, cfg)
    }

    #[test]
    fn the_fleet_runs_the_whole_controller() {
        // Decay, feedback routing, retries and an energy budget on one
        // trace. Which attempt fits depends only on the lowerings, and decay
        // and feedback re-lower only within the budget, so both drivers
        // serve, shed and retry the same requests whatever their timing.
        let front = small_front();
        let feedback = crate::FeedbackConfig::new(20_000);
        let router = OpRouter::Feedback(&front, &feedback);
        let (tc, controller) = controller_scenario(true);
        let trace = RequestTrace::generate(&tc);
        let (_, cfg) = controller_scenario(false);

        let single = ServeSim::new(controller.serve.clone()).run_with(&trace, router);
        let sim = FleetServeSim::new(controller);
        let fleet = sim.run(&trace, router);
        assert!(fleet.shed > 0 && fleet.retried > 0);
        assert_eq!(fleet.served, single.records.len() as u64);
        assert_eq!(fleet.shed, single.shed.len() as u64);
        assert_eq!(fleet.retried, single.retried);
        assert_eq!(fleet, sim.run(&trace, router));
        // Decay and feedback re-route beyond what the budget alone does.
        let budget_only = FleetServeSim::new(cfg).run(&trace, OpRouter::Pareto(&front));
        assert!(fleet.rerouted > budget_only.rerouted);
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
    fn a_streamed_run_equals_the_materialised_run() {
        // The plain path on two nodes, and the whole controller: decay,
        // feedback routing, an energy budget that sheds and retries.
        let front = small_front();
        let feedback = crate::FeedbackConfig::new(20_000);
        let (controlled, controller) = controller_scenario(true);
        let arms = [
            (
                small_trace_config(64, 150.0),
                small_cfg(2, 2),
                OpRouter::TraceNative,
            ),
            (
                controlled,
                controller,
                OpRouter::Feedback(&front, &feedback),
            ),
        ];
        for (tc, cfg, router) in arms {
            let trace = RequestTrace::generate(&tc);
            let sim = FleetServeSim::new(cfg);
            for threads in [1, 2, 8] {
                let run = |source: RequestSource| {
                    sofa_par::with_threads(threads, || sim.run_with_cache_stats(source, router))
                };
                let (held, held_stats) = run((&trace).into());
                let (streamed, streamed_stats) = run(tc.requests().into());
                assert_eq!(
                    format!("{streamed:?}"),
                    format!("{held:?}"),
                    "{threads} threads"
                );
                assert_eq!(streamed_stats, held_stats, "{threads} threads");
                if matches!(router, OpRouter::Feedback(..)) {
                    assert!(held.shed > 0 && held.retried > 0 && held.rerouted > 0);
                }
            }
        }
    }

    #[test]
    fn a_streamed_run_holds_only_its_live_requests() {
        // A calm run and one offered three times what it serves, whose
        // backlog grows to most of the trace: the slab holds the requests in
        // flight and the pick window, not the backlog.
        const REQUESTS: usize = 50_000;
        for (rate, overloaded) in [(100.0, false), (3_000.0, true)] {
            let tc = small_trace_config(REQUESTS, rate);
            let sim = FleetServeSim::new(small_cfg(1, 2));
            let requests = tc.requests().into();
            let (report, done) = sim.run_inner(requests, OpRouter::TraceNative, ADMIT_WINDOW);
            assert_eq!(report.served, REQUESTS as u64);
            assert_eq!(done.offered, REQUESTS as u64);
            assert_eq!(
                report.throughput_per_mcycle() < rate / 3.0,
                overloaded,
                "{} served per Mcycle at {rate} offered",
                report.throughput_per_mcycle()
            );
            assert_eq!(
                done.high_water, done.peak_live,
                "the slab grows only to the most requests live at once"
            );
            assert!(
                done.peak_live < 2 * ADMIT_WINDOW,
                "{} requests live at once out of {REQUESTS} at {rate}",
                done.peak_live
            );
        }
    }

    #[test]
    fn deferring_the_backlog_changes_no_decision() {
        // Overloaded runs whose backlog outgrows the pick window: the plain
        // path on two nodes, and the whole controller, whose decay frontier
        // walks into the deferred backlog and whose budget sheds and
        // retries originals among the deferred ones.
        let front = small_front();
        let feedback = crate::FeedbackConfig::new(20_000);
        let (mut controlled, mut controller) = controller_scenario(true);
        (controlled.num_requests, controlled.arrivals_per_mcycle) = (600, 4_000.0);
        controller.serve.decay_threshold = Some(200_000);
        let arms = [
            (
                small_trace_config(600, 6_000.0),
                small_cfg(2, 1),
                OpRouter::TraceNative,
            ),
            (
                controlled,
                controller,
                OpRouter::Feedback(&front, &feedback),
            ),
        ];
        for (tc, cfg, router) in arms {
            let sim = FleetServeSim::new(cfg);
            let run = |defer_after| sim.run_inner(tc.requests().into(), router, defer_after);
            let (deferred, lean) = run(ADMIT_WINDOW);
            let (keyed, full) = run(usize::MAX);
            assert_eq!(format!("{deferred:?}"), format!("{keyed:?}"));
            assert_eq!(lean.stats, full.stats);
            let live = format!(
                "{} live with deferral, {} without",
                lean.peak_live, full.peak_live
            );
            if matches!(router, OpRouter::Feedback(..)) {
                // Decay keys the requests it re-lowers, and backing-off
                // requests are live: only the young backlog is deferred.
                assert!(lean.peak_live < full.peak_live, "{live}");
                assert!(deferred.shed > 0 && deferred.retried > 0 && deferred.rerouted > 0);
            } else {
                assert!(lean.peak_live < 2 * ADMIT_WINDOW, "{live}");
                assert!(full.peak_live > 4 * ADMIT_WINDOW, "{live}");
            }
        }
    }
}
