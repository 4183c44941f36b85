//! Probes of single layers, run only in the traced run. Each times public
//! calls on the same input in every workload, so a layer's host time can be
//! read apart from the workload that exercises it.

use crate::spans::Spans;
use crate::workloads::{dse_configs, fleet_config, fleet_trace, Size};
use sofa_core::pipeline::{PipelineConfig, SofaPipeline};
use sofa_core::sads::sads_topk;
use sofa_core::topk::resolve_k;
use sofa_core::{sorted_updating_attention, DlzsPredictor, OpCounts, SadsConfig, SuFaOrder};
use sofa_hw::accel::AttentionTask;
use sofa_model::{AttentionWorkload, OperatingPoint};
use sofa_sim::{CycleSim, MultiPipelineSim, PipelineJob};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Times each kernel probe call this many times.
pub const KERNEL_REPS: usize = 10;

/// `dse_search`'s pinned layer-0 workload and the paper-default point it
/// is probed at.
fn pinned_layer(size: Size, seed: u64) -> (AttentionWorkload, OperatingPoint) {
    let (cfg, _, _) = dse_configs(size, seed);
    let w = AttentionWorkload::generate(
        &cfg.distribution,
        cfg.queries,
        cfg.seq_len,
        cfg.input_dim,
        cfg.head_dim,
        cfg.seed,
    );
    (w, OperatingPoint::paper_default(1))
}

/// The kernel probe: the whole pipeline, then DLZS prediction, SADS top-k
/// and SU-FA one at a time on `dse_search`'s pinned layer workload, in
/// spans `core.pipeline_run`, `core.dlzs_predict`, `core.sads_topk` and
/// `core.sufa`. Returns the pipeline's total operation count.
pub fn kernels(size: Size, seed: u64, spans: &mut Spans) -> u64 {
    let (w, op) = pinned_layer(size, seed);
    let cfg = PipelineConfig::for_layer(&op, 0);
    let pipeline = SofaPipeline::new(cfg);
    let k = resolve_k(w.seq_len(), cfg.keep_ratio);
    let sads = SadsConfig::from_tile_size(
        w.seq_len(),
        cfg.tile_size,
        cfg.radius_frac,
        cfg.refine_iters,
    );
    let predictor = DlzsPredictor::prepare(&w.wk);
    let (keys, values) = (w.keys(), w.values());
    let mut ops_total = 0;
    for _ in 0..KERNEL_REPS {
        let result = spans.record("core.pipeline_run", |_| pipeline.run(black_box(&w)));
        ops_total = result.total_ops().total_ops();
        let (scores, _) = spans.record("core.dlzs_predict", |_| {
            predictor.predict(black_box(&w.x), black_box(&w.q))
        });
        let (mask, _) = spans.record("core.sads_topk", |_| {
            sads_topk(black_box(&scores), k, &sads)
        });
        let mut ops = OpCounts::new();
        black_box(spans.record("core.sufa", |_| {
            sorted_updating_attention(&w.q, &keys, &values, &mask, SuFaOrder::Descending, &mut ops)
        }));
    }
    ops_total
}

/// The cycle-simulator probe: one DSE layer evaluation's lowering
/// (`CycleSim::job`) and replay (`CycleSim::run_job`) at the paper-default
/// point, under the evaluator's timing model, in spans `sim.cyclesim_job`
/// and `sim.cyclesim_run`.
pub fn cyclesim(size: Size, seed: u64, spans: &mut Spans) {
    let (cfg, _, _) = dse_configs(size, seed);
    let (w, op) = pinned_layer(size, seed);
    let result = SofaPipeline::new(PipelineConfig::for_layer(&op, 0)).run(&w);
    let stats = result.tile_selection_stats(op.tile(0));
    let mut task = AttentionTask::at_layer(
        cfg.queries,
        cfg.seq_len,
        cfg.heads * cfg.head_dim,
        cfg.heads,
        &op,
        0,
    );
    task.key_union_fraction = (result.keys_generated as f64 / cfg.seq_len as f64).clamp(1e-6, 1.0);
    let mut sim = CycleSim::new(cfg.hw);
    sim.params.min_tile_cycles = sofa_dse::eval::TILE_CONTROL_CYCLES;
    sim.params = sim.params.with_dram_command_calibration(&cfg.hw);
    for _ in 0..KERNEL_REPS {
        let job = spans.record("sim.cyclesim_job", |_| {
            sim.job(black_box(&task), Some(&stats))
        });
        black_box(spans.record("sim.cyclesim_run", |_| sim.run_job(black_box(&job))));
    }
}

/// What the event-core probe counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCore {
    /// Requests submitted.
    pub requests: u64,
    /// `MultiPipelineSim::step` calls that processed an event.
    pub events: u64,
}

/// The event-core probe: the `fleet_mega` shapes lowered with
/// `CycleSim::job`, then one node's share of the trace (every eighth
/// request) submitted to an 8-instance `MultiPipelineSim` at its arrival,
/// least-pending instance first, stepping events in between. The submit and
/// step loop runs in span `sim.multi_events`.
pub fn event_core(size: Size, seed: u64, spans: &mut Spans) -> EventCore {
    let trace = fleet_trace(size, seed);
    let cfg = fleet_config();
    let mut csim = CycleSim::new(cfg.serve.hw);
    csim.params = cfg.serve.sim;
    let share: Vec<_> = trace.requests.iter().step_by(cfg.nodes).collect();
    let mut jobs: BTreeMap<usize, PipelineJob> = BTreeMap::new();
    spans.record("sim.multi_lower", |_| {
        for r in &share {
            jobs.entry(r.queries).or_insert_with(|| {
                let op = cfg.serve.op.with_uniform_keep(r.keep_ratio);
                let task = AttentionTask::at_layer(r.queries, r.seq_len, r.hidden, r.heads, &op, 0);
                csim.job(&task, None)
            });
        }
    });
    let mut sim = MultiPipelineSim::new(&cfg.serve.hw, cfg.serve.instances, cfg.serve.sim);
    let mut events = 0u64;
    spans.record("sim.multi_events", |_| {
        for r in &share {
            while sim.next_event_time().is_some_and(|t| t <= r.arrival_cycle) {
                sim.step();
                events += 1;
            }
            let inst = (0..sim.num_instances())
                .min_by_key(|&i| sim.pending_tiles(i))
                .expect("the node has instances");
            sim.submit(inst, r.id, &jobs[&r.queries], r.arrival_cycle);
        }
        while sim.step().is_some() {
            events += 1;
        }
    });
    EventCore {
        requests: share.len() as u64,
        events,
    }
}
