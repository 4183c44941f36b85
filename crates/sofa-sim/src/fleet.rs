//! Fleet-scale hierarchical simulation: instances → nodes → fabric.
//!
//! [`crate::MultiPipelineSim`] models one *node*: `N` pipeline instances
//! contending for one private DRAM channel. [`FleetSim`] composes many such
//! nodes the way Occamy composes silicon — cores into chiplets behind
//! private HBM, chiplets behind an inter-chiplet fabric: every node keeps
//! its own event queue and DRAM channel, and nodes are joined only by a
//! [`Fabric`] whose per-node ingress links have their own latency and
//! bandwidth model.
//!
//! **Serial stepping.** Between synchronization epochs the nodes share
//! nothing, so [`FleetSim::run_until`] steps them one after another, in
//! node order, on the calling thread; each node appends its completions to
//! the fleet's one buffer. Results do not depend on `SOFA_THREADS`. Fleet
//! runs are not traced: a node is traced on its own, as a
//! [`MultiPipelineSim`].
//!
//! **Deliveries.** Work enters a node through [`FleetSim::submit`] with an
//! explicit delivery timestamp (computed by the router from the fabric
//! model). The node applies the submission only once its own event stream
//! has caught up to that time, so a delivery can never rewind a node's
//! local clock — the causality guarantee that keeps per-node streams
//! independent between epochs.
//!
//! The serving-layer router that drives this simulator (placement,
//! disaggregation, admission control) lives in `sofa-serve`'s `fleet`
//! module; this module is policy-free mechanism.

use crate::multi::{Completion, MultiPipelineSim, MultiReport};
use crate::sim::{PipelineJob, SimParams};
use sofa_hw::config::HwConfig;
use std::collections::VecDeque;
use std::sync::Arc;

/// Latency/bandwidth model of the inter-node fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricParams {
    /// Fixed propagation latency of a transfer, in cycles (added after the
    /// serialization delay).
    pub latency_cycles: u64,
    /// Per-node ingress link bandwidth in bytes per cycle; transfers to the
    /// same node serialize at this rate.
    pub bytes_per_cycle: u64,
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams {
            latency_cycles: 64,
            bytes_per_cycle: 64,
        }
    }
}

/// Accounting of one node's ingress link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct FabricLink {
    /// Transfers the link carried.
    pub(crate) transfers: u64,
    /// Payload bytes the link carried.
    pub(crate) bytes: u64,
    /// Cycles the link spent serializing payloads.
    pub(crate) busy_cycles: u64,
}

/// Per-link fabric accounting of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricReport {
    /// One entry per node ingress link.
    pub(crate) links: Vec<FabricLink>,
}

impl FabricReport {
    /// Total transfers across all links.
    pub fn total_transfers(&self) -> u64 {
        self.links.iter().map(|l| l.transfers).sum()
    }

    /// Total payload bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }
}

/// The inter-node fabric: per-node ingress links with serialization and a
/// fixed propagation latency. Deterministic — delivery times are a pure
/// function of the transfer sequence.
#[derive(Debug)]
pub struct Fabric {
    params: FabricParams,
    /// Cycle each node's ingress link finishes its last serialization.
    link_free: Vec<u64>,
    links: Vec<FabricLink>,
}

impl Fabric {
    /// A fabric joining `nodes` nodes under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.bytes_per_cycle` is zero.
    pub fn new(params: FabricParams, nodes: usize) -> Self {
        assert!(params.bytes_per_cycle > 0, "fabric needs bandwidth");
        Fabric {
            params,
            link_free: vec![0; nodes],
            links: vec![FabricLink::default(); nodes],
        }
    }

    /// Books a `bytes`-byte transfer to `node` decided at cycle `now` and
    /// returns its delivery cycle: the payload serializes on the node's
    /// ingress link (after any transfer already occupying it) and then pays
    /// the propagation latency.
    pub fn transfer(&mut self, node: usize, bytes: u64, now: u64) -> u64 {
        let xfer = bytes.div_ceil(self.params.bytes_per_cycle);
        let start = now.max(self.link_free[node]);
        let end = start + xfer;
        self.link_free[node] = end;
        let link = &mut self.links[node];
        link.transfers += 1;
        link.bytes += bytes;
        link.busy_cycles += xfer;
        end + self.params.latency_cycles
    }

    /// Snapshot of the per-link accounting.
    pub fn report(&self) -> FabricReport {
        FabricReport {
            links: self.links.clone(),
        }
    }
}

/// A submission in flight across the fabric, waiting to enter its node.
#[derive(Debug)]
struct Pending {
    deliver_at: u64,
    inst: usize,
    request: u64,
    job: Arc<PipelineJob>,
}

/// One fleet node: a [`MultiPipelineSim`] plus its in-flight deliveries.
/// Only [`FleetSim`] builds and steps nodes.
#[derive(Debug)]
pub(crate) struct NodeSim {
    sim: MultiPipelineSim,
    /// Deliveries not yet applied, in non-decreasing `deliver_at` order
    /// (the per-node fabric link serializes, so the router's decision order
    /// is already delivery order).
    pending: VecDeque<Pending>,
}

impl NodeSim {
    fn new(cfg: &HwConfig, instances: usize, params: SimParams) -> Self {
        NodeSim {
            sim: MultiPipelineSim::new(cfg, instances, params),
            pending: VecDeque::new(),
        }
    }

    /// Queues `job` for instance `inst`, entering the node's tile streams
    /// at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `deliver_at` precedes an already-queued delivery.
    pub(crate) fn submit_at(
        &mut self,
        inst: usize,
        request: u64,
        job: Arc<PipelineJob>,
        deliver_at: u64,
    ) {
        if let Some(back) = self.pending.back() {
            assert!(
                deliver_at >= back.deliver_at,
                "deliveries must be scheduled in time order"
            );
        }
        self.pending.push_back(Pending {
            deliver_at,
            inst,
            request,
            job,
        });
    }

    /// Earliest future activity: the next simulation event or pending
    /// delivery.
    pub(crate) fn next_activity(&self) -> Option<u64> {
        let ev = self.sim.next_event_time();
        let sub = self.pending.front().map(|p| p.deliver_at);
        match (ev, sub) {
            (Some(e), Some(s)) => Some(e.min(s)),
            (a, b) => a.or(b),
        }
    }

    /// Processes every event and delivery with timestamp strictly below
    /// `until`, appending the node's completions to `out` in time order,
    /// tagged as node `node`. Events run before deliveries on equal
    /// timestamps — a completion at cycle `t` frees its instance before work
    /// delivered at `t` enters, matching the single-node serving scheduler's
    /// tie rule.
    pub(crate) fn run_until(&mut self, node: usize, until: u64, out: &mut Vec<FleetCompletion>) {
        loop {
            // One bound per delivery: events up to and including the next
            // delivery's cycle run first, then the delivery enters.
            let next = self.pending.front().filter(|p| p.deliver_at < until);
            let bound = next.map_or(until, |p| p.deliver_at + 1);
            while self.sim.next_event_time().is_some_and(|e| e < bound) {
                let step = self.sim.step().expect("event was pending");
                if let Some(Completion { instance, request }) = step.completed {
                    out.push(FleetCompletion {
                        node,
                        instance,
                        request,
                        time: step.time,
                    });
                }
            }
            if next.is_none() {
                break;
            }
            let p = self.pending.pop_front().expect("delivery was pending");
            self.sim.submit(p.inst, p.request, &p.job, p.deliver_at);
        }
    }
}

/// A request completion observed at fleet level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetCompletion {
    /// Node the request ran on.
    pub node: usize,
    /// Instance within the node.
    pub instance: usize,
    /// Request identifier given at [`FleetSim::submit`].
    pub request: u64,
    /// Completion cycle.
    pub time: u64,
}

/// Per-node accounting of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimReport {
    /// One [`MultiReport`] per node.
    pub nodes: Vec<MultiReport>,
}

impl FleetSimReport {
    /// End-to-end makespan: the latest cycle any node reached.
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_cycles).max().unwrap_or(0)
    }
}

/// `nodes` × `instances_per_node` pipeline instances, grouped into nodes
/// with private DRAM channels, stepped serially between epochs.
#[derive(Debug)]
pub struct FleetSim {
    nodes: Vec<NodeSim>,
    /// Completion scratch refilled by [`FleetSim::run_until`] — allocated
    /// once and reused across the tens of thousands of epochs of a fleet
    /// run.
    completions: Vec<FleetCompletion>,
}

impl FleetSim {
    /// Creates `nodes` nodes of `instances_per_node` instances each, every
    /// node at `cfg` with its own DRAM channel.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `instances_per_node` is zero.
    pub fn new(cfg: &HwConfig, nodes: usize, instances_per_node: usize, params: SimParams) -> Self {
        assert!(nodes > 0, "need at least one node");
        FleetSim {
            nodes: (0..nodes)
                .map(|_| NodeSim::new(cfg, instances_per_node, params))
                .collect(),
            completions: Vec::new(),
        }
    }

    /// Queues `job` for `inst` of `node`, entering its tile streams at
    /// `deliver_at` (a fabric-computed delivery cycle; per-node deliveries
    /// must be scheduled in time order).
    pub fn submit(
        &mut self,
        node: usize,
        inst: usize,
        request: u64,
        job: Arc<PipelineJob>,
        deliver_at: u64,
    ) {
        self.nodes[node].submit_at(inst, request, job, deliver_at);
    }

    /// Earliest future activity across all nodes.
    pub fn next_activity(&self) -> Option<u64> {
        self.nodes.iter().filter_map(|n| n.next_activity()).min()
    }

    /// Runs every node, in node order, up to (exclusive) `until` and
    /// returns the epoch's completions grouped by node (node-major,
    /// time-ordered within a node). The slice borrows the fleet's reusable
    /// scratch buffer and is valid until the next stepping call.
    pub fn run_until(&mut self, until: u64) -> &[FleetCompletion] {
        self.completions.clear();
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.run_until(n, until, &mut self.completions);
        }
        &self.completions
    }

    /// Snapshot of every node's accounting.
    pub fn report(&self) -> FleetSimReport {
        FleetSimReport {
            nodes: self.nodes.iter().map(|n| n.sim.report()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CycleSim;
    use sofa_hw::accel::AttentionTask;

    fn small_job(sim: &CycleSim) -> Arc<PipelineJob> {
        Arc::new(sim.job(&AttentionTask::new(16, 512, 256, 4, 0.25, 32), None))
    }

    #[test]
    fn fabric_serializes_per_node_and_adds_latency() {
        let mut fabric = Fabric::new(
            FabricParams {
                latency_cycles: 10,
                bytes_per_cycle: 4,
            },
            2,
        );
        // 40 bytes at 4 B/cyc = 10 cycles on the link, +10 latency.
        assert_eq!(fabric.transfer(0, 40, 0), 20);
        // Same node: queues behind the first transfer (link free at 10).
        assert_eq!(fabric.transfer(0, 4, 0), 21);
        // Other node: own link, no queueing.
        assert_eq!(fabric.transfer(1, 4, 0), 11);
        let report = fabric.report();
        assert_eq!(report.total_transfers(), 3);
        assert_eq!(report.total_bytes(), 48);
        assert_eq!(report.links[0].busy_cycles, 11);
        assert_eq!(report.links[1].busy_cycles, 1);
    }

    #[test]
    fn single_node_fleet_matches_multi_pipeline_sim() {
        // One node, one instance, deliveries interleaved exactly as a
        // reference driver would submit them — cycle-for-cycle equal.
        let csim = CycleSim::new(HwConfig::small());
        let job = small_job(&csim);

        let mut reference = MultiPipelineSim::new(csim.accel.config(), 1, csim.params);
        let mut ref_done = Vec::new();
        for (req, at) in [(0u64, 0u64), (1, 100), (2, 5_000)] {
            while reference.next_event_time().is_some_and(|e| e <= at) {
                if let Some(c) = reference
                    .step()
                    .and_then(|s| s.completed.map(|c| (s.time, c)))
                {
                    ref_done.push(c);
                }
            }
            reference.submit(0, req, &job, at);
        }
        for (t, c) in reference.run_to_idle() {
            ref_done.push((t, c));
        }

        let mut fleet = FleetSim::new(csim.accel.config(), 1, 1, csim.params);
        for (req, at) in [(0u64, 0u64), (1, 100), (2, 5_000)] {
            fleet.submit(0, 0, req, Arc::clone(&job), at);
        }
        let fleet_done = fleet.run_until(u64::MAX);

        assert_eq!(fleet_done.len(), ref_done.len());
        for (f, (t, c)) in fleet_done.iter().zip(ref_done.iter()) {
            assert_eq!((f.time, f.instance, f.request), (*t, c.instance, c.request));
        }
        assert_eq!(fleet.report().nodes[0], reference.report());
    }

    #[test]
    fn nodes_run_independently_and_deterministically_across_threads() {
        // Nodes step serially on the calling thread, so the outcome cannot
        // depend on the worker count; a repeated run must match exactly.
        let csim = CycleSim::new(HwConfig::small());
        let job = small_job(&csim);
        let run = || {
            let mut fleet = FleetSim::new(csim.accel.config(), 3, 2, csim.params);
            for r in 0..12u64 {
                fleet.submit(
                    (r % 3) as usize,
                    (r % 2) as usize,
                    r,
                    Arc::clone(&job),
                    r * 50,
                );
            }
            let mut done: Vec<FleetCompletion> = Vec::new();
            let mut epoch = 4096u64;
            while fleet.next_activity().is_some() {
                done.extend(fleet.run_until(epoch));
                epoch += 4096;
            }
            (done, fleet.report())
        };
        let one = run();
        assert_eq!(run(), one, "fleet runs diverged");
        // Three nodes really ran: each completed its requests.
        for node in &one.1.nodes {
            let reqs: usize = node.instances.iter().map(|i| i.requests).sum();
            assert_eq!(reqs, 4);
        }
    }

    #[test]
    fn run_until_returns_completions_node_major_and_time_ordered_per_node() {
        // Deliveries to three nodes interleave in time, so the completions
        // interleave in time across nodes too; one epoch must still hand
        // them back grouped by node, each node's in time order — the order
        // the serving router folds them in.
        let csim = CycleSim::new(HwConfig::small());
        let job = small_job(&csim);
        let mut fleet = FleetSim::new(csim.accel.config(), 3, 1, csim.params);
        for r in 0..9u64 {
            fleet.submit((r % 3) as usize, 0, r, Arc::clone(&job), r * 10);
        }
        let done = fleet.run_until(u64::MAX).to_vec();
        assert_eq!(done.len(), 9);
        let nodes: Vec<usize> = done.iter().map(|c| c.node).collect();
        assert_eq!(nodes, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
        for group in done.chunks(3) {
            assert!(group.windows(2).all(|w| w[0].time <= w[1].time));
            let requests: Vec<u64> = group.iter().map(|c| c.request).collect();
            let n = group[0].node as u64;
            assert_eq!(requests, [n, n + 3, n + 6]);
        }
        // The completions really interleave in time: node-major order is
        // not time order.
        assert!(done.windows(2).any(|w| w[0].time > w[1].time));
    }

    #[test]
    fn epoch_boundaries_do_not_change_the_outcome() {
        let csim = CycleSim::new(HwConfig::small());
        let job = small_job(&csim);
        let run = |epoch: u64| {
            let mut fleet = FleetSim::new(csim.accel.config(), 2, 1, csim.params);
            for r in 0..6u64 {
                fleet.submit((r % 2) as usize, 0, r, Arc::clone(&job), r * 1000);
            }
            let mut done: Vec<FleetCompletion> = Vec::new();
            let mut t = epoch;
            while fleet.next_activity().is_some() {
                done.extend(fleet.run_until(t));
                t += epoch;
            }
            (done, fleet.report())
        };
        // Completions arrive grouped differently per epoch length, but the
        // simulated outcome (times, placements, reports) is identical.
        let fine = run(512);
        let coarse = run(1 << 20);
        let sort = |mut v: Vec<FleetCompletion>| {
            v.sort_by_key(|c| (c.time, c.node, c.request));
            v
        };
        assert_eq!(sort(fine.0), sort(coarse.0));
        assert_eq!(fine.1, coarse.1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_deliveries_panic() {
        let csim = CycleSim::new(HwConfig::small());
        let job = small_job(&csim);
        let mut node = NodeSim::new(csim.accel.config(), 1, csim.params);
        node.submit_at(0, 0, Arc::clone(&job), 100);
        node.submit_at(0, 1, job, 50);
    }
}
