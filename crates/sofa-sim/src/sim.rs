//! The event-driven cycle-level simulator of the four-stage SOFA pipeline.
//!
//! [`CycleSim`] replays an [`AttentionTask`] tile by tile through
//! DLZS predict → SADS sort → on-demand KV generation → SU-FA formal compute,
//! with the structural constraints the analytic model abstracts away:
//!
//! * stages communicate through double-buffered (ping-pong) SRAM banks — a
//!   producer stalls when both banks are occupied, a consumer starves when
//!   none is ready;
//! * all off-chip traffic shares one DRAM channel with round-robin
//!   arbitration and per-burst latency — on-demand KV fetches contend with
//!   prediction streams and output writeback;
//! * the selected-KV fetch of a tile can only be *issued* once the sorting
//!   stage has decided which keys the tile needs (the on-demand property);
//! * per-tile work comes from [`SofaAccelerator::tile_descriptors`], so real
//!   per-tile selection counts (Distributed Cluster Effect imbalance) shift
//!   load between tiles.
//!
//! On compute-bound configurations the simulated cycle count converges to the
//! analytic `SimReport` (same engine throughput models, same traffic); on
//! memory-bound configurations it diverges upward and attributes the gap to
//! per-stage DRAM stalls — the behaviour [`CycleSim::validate`] checks.
//!
//! `CycleSim` has no event loop of its own. It lowers a task into a
//! [`PipelineJob`], submits that job at cycle 0 to a one-instance
//! [`MultiPipelineSim`] and maps the resulting report onto a
//! [`CycleReport`], so single-task replay and serving run on the same
//! pipeline engine.

use crate::multi::MultiPipelineSim;
use crate::report::{BufferActivity, CycleComparison, CycleReport};
use sofa_core::tiling::TileSelectionStats;
use sofa_hw::accel::{AttentionTask, SofaAccelerator, StageCycles};
use sofa_hw::config::HwConfig;
use sofa_hw::descriptor::TileWork;
use sofa_hw::engines::{DlzsWork, KvGenWork, SortWork, SuFaWork};
use sofa_obs::TraceRecorder;

pub(crate) const STAGES: usize = 4;

/// Timing knobs of the simulated microarchitecture. Its structure is fixed:
/// [`SimParams::BUFFER_DEPTH`] banks per stage boundary and a key-stream
/// prefetch of [`SimParams::PREFETCH_DEPTH`] tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Fixed DRAM latency from request issue to first data beat (cycles).
    pub burst_latency: u64,
    /// Minimum cycles a tile occupies a stage (control overhead floor).
    pub min_tile_cycles: u64,
    /// DRAM queueing delay beyond which a request overrides round-robin
    /// arbitration (priority aging); `u64::MAX` disables aging. Mostly
    /// relevant to multi-instance simulation, where streams can starve
    /// each other.
    pub dram_age_threshold: u64,
    /// Channel cycles every DRAM request occupies beyond its transfer time
    /// (row activation / command serialisation). 0 — the default — keeps the
    /// classic bandwidth-only channel; the hardware-aware DSE evaluator sets
    /// it so fine tilings pay for their extra requests.
    pub dram_command_cycles: u64,
}

impl SimParams {
    /// Ping-pong banks per stage boundary: SOFA double-buffers every stage
    /// boundary, so a producer stalls once both banks are occupied.
    pub const BUFFER_DEPTH: usize = 2;

    /// How many tiles ahead of the prediction stage its key stream is
    /// fetched.
    pub const PREFETCH_DEPTH: usize = 2;

    /// Returns these parameters with `dram_command_cycles` calibrated
    /// against the burst-latency model for `cfg`'s bandwidth
    /// ([`crate::dram::calibrate_dram_command_cycles`]). At the
    /// paper-default timing the calibration lands on 32 cycles. The DSE
    /// evaluator and the serving simulations both run with this enabled, so
    /// request-granularity DRAM effects (many small scattered fetches under
    /// fine tilings) are visible to the latency percentiles and to routing
    /// decisions; the plain [`Default`] keeps the classic bandwidth-only
    /// channel for the single-task experiments and their goldens.
    pub fn with_dram_command_calibration(mut self, cfg: &HwConfig) -> Self {
        let bytes_per_cycle = cfg.dram_bandwidth_bps / cfg.freq_hz;
        self.dram_command_cycles =
            crate::dram::calibrate_dram_command_cycles(self.burst_latency, bytes_per_cycle);
        self
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            burst_latency: 64,
            min_tile_cycles: 1,
            dram_age_threshold: u64::MAX,
            dram_command_cycles: 0,
        }
    }
}

/// The cycle-level simulator. Construct with [`CycleSim::new`], optionally
/// toggle the ablation flags on [`CycleSim::accel`], then [`CycleSim::run`].
#[derive(Debug, Clone, Copy)]
pub struct CycleSim {
    /// The accelerator being simulated; its `rass` / `sufa` /
    /// `include_kv_generation` flags steer the per-tile descriptors.
    pub accel: SofaAccelerator,
    /// Microarchitectural parameters of the simulation.
    pub params: SimParams,
}

impl CycleSim {
    /// Creates a simulator of the full-featured accelerator at `cfg`.
    pub fn new(cfg: HwConfig) -> Self {
        CycleSim {
            accel: SofaAccelerator::new(cfg),
            params: SimParams::default(),
        }
    }

    /// Wraps an existing (possibly ablated) accelerator model.
    pub fn from_accelerator(accel: SofaAccelerator, params: SimParams) -> Self {
        CycleSim { accel, params }
    }

    /// Simulates `task` with expected-value per-tile selection counts.
    pub fn run(&self, task: &AttentionTask) -> CycleReport {
        self.run_with_stats(task, None)
    }

    /// Simulates `task` and cross-checks against the analytic model.
    pub fn validate(&self, task: &AttentionTask) -> (CycleReport, CycleComparison) {
        let report = self.run(task);
        let analytic = self.accel.simulate(task);
        let cmp = report.compare(&analytic, self.accel.config().freq_hz);
        (report, cmp)
    }

    /// Simulates `task`, optionally driven by real per-tile selection counts
    /// from `sofa_core::pipeline::PipelineResult::tile_selection_stats`.
    pub fn run_with_stats(
        &self,
        task: &AttentionTask,
        stats: Option<&TileSelectionStats>,
    ) -> CycleReport {
        self.run_traced(task, stats, &mut TraceRecorder::disabled())
    }

    /// [`CycleSim::run_with_stats`] with a trace sink: per-stage busy/stall
    /// spans and the ping-pong bank-occupancy counters of instance 0, and
    /// the DRAM queue-depth counter of the channel process, are recorded
    /// into `obs` in simulated cycles (the multi-instance layout of
    /// [`crate::tracks`]). A disabled recorder costs a branch per record
    /// point and the report is bit-identical either way.
    /// Use a fresh recorder per run — every run restarts simulated time at
    /// cycle zero, so appending two runs to one buffer would violate the
    /// per-track timestamp monotonicity the trace checker enforces.
    pub fn run_traced(
        &self,
        task: &AttentionTask,
        stats: Option<&TileSelectionStats>,
        obs: &mut TraceRecorder,
    ) -> CycleReport {
        self.run_job_traced(&self.job(task, stats), obs)
    }

    /// Replays an already-lowered [`PipelineJob`] (see [`CycleSim::job`]).
    /// Identical to [`CycleSim::run_with_stats`] on the task the job was
    /// lowered from; callers that need both the descriptors and the
    /// simulation pay the lowering once.
    pub fn run_job(&self, job: &PipelineJob) -> CycleReport {
        self.run_job_traced(job, &mut TraceRecorder::disabled())
    }

    /// [`CycleSim::run_job`] with a trace sink (see [`CycleSim::run_traced`]).
    pub fn run_job_traced(&self, job: &PipelineJob, obs: &mut TraceRecorder) -> CycleReport {
        let mut multi = MultiPipelineSim::new(self.accel.config(), 1, self.params);
        multi.timeline = Some(Vec::with_capacity(job.num_tiles() * STAGES));
        if obs.is_enabled() {
            multi.enable_tracing();
        }
        if job.num_tiles() > 0 {
            multi.submit(0, 0, job, 0);
        }
        multi.run_to_idle();
        obs.absorb(multi.take_trace());
        let report = multi.report();
        let inst = &report.instances[0];
        CycleReport {
            total_cycles: report.total_cycles,
            stages: inst.stages,
            dram: report.dram,
            buffers: inst
                .buffer_occupancy
                .map(|average_occupancy| BufferActivity {
                    average_occupancy,
                    capacity: SimParams::BUFFER_DEPTH,
                }),
            timeline: multi.timeline.take().unwrap_or_default(),
            num_tiles: job.num_tiles(),
        }
    }

    /// Lowers `task` into a replayable [`PipelineJob`]: the per-tile work
    /// descriptors plus the per-tile stage cycle counts this simulator would
    /// charge. The multi-instance simulator (`crate::multi`) and the serving
    /// scheduler consume jobs instead of tasks so the lowering cost is paid
    /// once per request, not once per simulation.
    pub fn job(&self, task: &AttentionTask, stats: Option<&TileSelectionStats>) -> PipelineJob {
        let work = self.accel.tile_descriptors(task, stats);
        let cycles = self.tile_cycles(task, &work);
        PipelineJob { work, cycles }
    }

    /// Per-tile compute cycles of each stage.
    ///
    /// Each stage's *whole-task* cycle count comes from the same engine
    /// models the analytic `SofaAccelerator::simulate` uses (including the
    /// fill latency and the query-line utilization scaling), evaluated on the
    /// summed per-tile work. That total is then distributed over the tiles
    /// proportionally to each tile's share of the stage's work — so the
    /// simulated stage-busy totals match the analytic stage cycles exactly,
    /// and every deviation of the end-to-end cycle count is attributable to
    /// pipeline structure (buffers, DRAM, imbalance), not to a different
    /// compute model.
    fn tile_cycles(&self, task: &AttentionTask, work: &[TileWork]) -> Vec<[u64; STAGES]> {
        let cfg = self.accel.config();
        let util = task.line_utilization(cfg.query_parallelism);
        let floor = self.params.min_tile_cycles;
        let n = work.len();

        // Aggregate work per stage (equals the analytic model's amounts when
        // the descriptors come from expected values).
        let agg = work.iter().fold(
            (
                DlzsWork::default(),
                SortWork::default(),
                KvGenWork::default(),
                SuFaWork::default(),
            ),
            |mut acc, w| {
                acc.0.shift_ops += w.dlzs.shift_ops;
                acc.0.lz_encodes += w.dlzs.lz_encodes;
                acc.1.elements += w.sort.elements;
                acc.2.macs += w.kvgen.macs;
                acc.3.macs += w.sufa.macs;
                acc.3.exps += w.sufa.exps;
                acc.3.divs += w.sufa.divs;
                acc
            },
        );
        let totals = StageCycles::from_work(cfg, &agg.0, &agg.1, &agg.2, &agg.3, util);
        let stage_totals = [
            totals.prediction,
            totals.sorting,
            totals.kv_generation,
            totals.formal,
        ];

        // Per-tile share of each stage's work (uniform when a stage has no
        // work at all, so fixed costs still spread over the tiles).
        let weights: [Vec<f64>; STAGES] = [
            work.iter()
                .map(|w| {
                    (w.dlzs.shift_ops as f64 / cfg.dlzs_ops_per_cycle())
                        .max(w.dlzs.lz_encodes as f64 / cfg.query_parallelism as f64)
                })
                .collect(),
            work.iter().map(|w| w.sort.elements as f64).collect(),
            work.iter().map(|w| w.kvgen.macs as f64).collect(),
            work.iter()
                .map(|w| {
                    (w.sufa.macs as f64 / cfg.sufa_macs_per_cycle())
                        .max((w.sufa.exps + w.sufa.divs) as f64 / cfg.exp_units as f64)
                })
                .collect(),
        ];

        let mut cycles = vec![[floor; STAGES]; n];
        for s in 0..STAGES {
            let sum: f64 = weights[s].iter().sum();
            for (t, row) in cycles.iter_mut().enumerate() {
                let share = if sum > 0.0 {
                    weights[s][t] / sum
                } else {
                    1.0 / n as f64
                };
                row[s] = ((stage_totals[s] * share).ceil() as u64).max(floor);
            }
        }
        cycles
    }
}

/// One task lowered to per-tile descriptors and stage cycle counts — the unit
/// of work the multi-instance simulator schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineJob {
    /// Per-tile work descriptors (dataflow order along the context).
    pub work: Vec<TileWork>,
    /// Per-tile `[predict, sort, kv, formal]` stage cycles.
    pub cycles: Vec<[u64; STAGES]>,
}

impl PipelineJob {
    /// Number of context tiles.
    pub fn num_tiles(&self) -> usize {
        self.work.len()
    }

    /// Total DRAM bytes the job moves across all tiles and stages.
    pub fn total_dram_bytes(&self) -> u64 {
        self.work.iter().map(|w| w.total_dram_bytes()).sum()
    }

    /// Number of DRAM requests the job issues: one per non-empty traffic
    /// stream (prediction read, KV read, extra formal read, writeback) per
    /// tile. The shared request count behind the per-request activation
    /// energy charge of the DSE evaluator and the serving layer's energy
    /// projections — keeping them on one definition keeps the energy model
    /// the routing decisions trust consistent with the one that built the
    /// Pareto front.
    pub fn dram_requests(&self) -> u64 {
        self.work
            .iter()
            .map(|w| {
                u64::from(w.pred_read_bytes > 0)
                    + u64::from(w.kv_read_bytes > 0)
                    + u64::from(w.extra_formal_read_bytes > 0)
                    + u64::from(w.write_bytes > 0)
            })
            .sum()
    }

    /// The largest per-tile DRAM footprint — the bytes one resident tile of
    /// this request can pin in on-chip buffers, used by admission control.
    pub fn peak_tile_bytes(&self) -> u64 {
        self.work
            .iter()
            .map(|w| w.total_dram_bytes())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_task() -> AttentionTask {
        AttentionTask::new(16, 512, 256, 4, 0.25, 32)
    }

    #[test]
    fn all_tiles_flow_through_every_stage() {
        let sim = CycleSim::new(HwConfig::small());
        let r = sim.run(&small_task());
        assert_eq!(r.num_tiles, 16);
        for s in &r.stages {
            assert_eq!(s.tiles, 16);
        }
        assert_eq!(r.timeline.len(), 4 * 16);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn timeline_respects_dataflow_order() {
        let sim = CycleSim::new(HwConfig::small());
        let r = sim.run(&small_task());
        let find = |stage, tile| {
            r.timeline
                .iter()
                .find(|e| e.stage == stage && e.tile == tile)
                .copied()
                .expect("entry exists")
        };
        for tile in 0..r.num_tiles {
            for stage in 1..4 {
                assert!(
                    find(stage, tile).start >= find(stage - 1, tile).end,
                    "stage {stage} of tile {tile} started before its input was ready"
                );
            }
        }
        for stage in 0..4 {
            for tile in 1..r.num_tiles {
                assert!(
                    find(stage, tile).start >= find(stage, tile - 1).end,
                    "stage {stage} processed tiles out of order"
                );
            }
        }
    }

    #[test]
    fn dram_traffic_matches_descriptors() {
        let sim = CycleSim::new(HwConfig::small());
        let task = small_task();
        let work = sim.accel.tile_descriptors(&task, None);
        let r = sim.run(&task);
        let want_read: u64 = work
            .iter()
            .map(|w| w.pred_read_bytes + w.kv_read_bytes + w.extra_formal_read_bytes)
            .sum();
        let want_write: u64 = work.iter().map(|w| w.write_bytes).sum();
        assert_eq!(r.dram.bytes_read, want_read);
        assert_eq!(r.dram.bytes_written, want_write);
    }

    #[test]
    fn busy_plus_stall_never_exceeds_total() {
        let sim = CycleSim::new(HwConfig::small());
        let r = sim.run(&small_task());
        for s in &r.stages {
            assert!(s.busy + s.total_stall() <= r.total_cycles);
        }
    }

    #[test]
    fn single_tile_task_runs_stages_serially() {
        // Tile larger than the sequence: one tile, no pipelining possible.
        let sim = CycleSim::new(HwConfig::small());
        let task = AttentionTask::new(8, 48, 64, 2, 0.5, 64);
        let r = sim.run(&task);
        assert_eq!(r.num_tiles, 1);
        assert_eq!(r.timeline.len(), 4);
        for w in r.timeline.windows(2) {
            assert!(w[1].start >= w[0].end, "single tile cannot pipeline");
        }
    }

    #[test]
    fn zero_kept_keys_still_drains_the_pipeline() {
        // A mask that kept nothing: formal/kv stages see zero work but every
        // tile still flows through (control overhead floor).
        use sofa_core::topk::TopKMask;
        let mask = TopKMask::new(96, vec![vec![]; 8]);
        let stats = TileSelectionStats::from_mask(&mask, 32);
        let task = AttentionTask::new(8, 96, 64, 2, 0.01, 32);
        let sim = CycleSim::new(HwConfig::small());
        let r = sim.run_with_stats(&task, Some(&stats));
        assert_eq!(r.num_tiles, 3);
        assert_eq!(r.stages[3].tiles, 3);
        assert_eq!(r.dram.bytes_written, 8 * 64 * 2);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn imbalanced_stats_slow_the_pipeline_down() {
        use sofa_core::topk::TopKMask;
        let task = AttentionTask::new(16, 512, 256, 4, 0.125, 32);
        let sim = CycleSim::new(HwConfig::small());
        let balanced = sim.run(&task);
        // All 64 selections of every query crammed into the first two tiles.
        let rows: Vec<Vec<usize>> = (0..16).map(|_| (0..64).collect()).collect();
        let stats = TileSelectionStats::from_mask(&TopKMask::new(512, rows), 32);
        let skewed = sim.run_with_stats(&task, Some(&stats));
        assert!(
            skewed.total_cycles > balanced.total_cycles,
            "clustered selections must serialise the formal stage: {} vs {}",
            skewed.total_cycles,
            balanced.total_cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = CycleSim::new(HwConfig::small());
        let a = sim.run(&small_task());
        let b = sim.run(&small_task());
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_trace_validates() {
        let sim = CycleSim::new(HwConfig::small());
        let task = small_task();
        let plain = sim.run(&task);
        let mut obs = TraceRecorder::enabled();
        let traced = sim.run_traced(&task, None, &mut obs);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let stats = sofa_obs::validate_chrome_trace(&obs.to_chrome_json()).expect("valid trace");
        // One busy span per timeline entry, plus stall spans.
        assert!(stats.spans >= plain.timeline.len());
        assert!(stats.counter_samples > 0, "queue/bank counters must sample");
        assert!(stats.max_ts <= plain.total_cycles);
    }

    #[test]
    fn traced_export_is_byte_identical_across_runs() {
        let sim = CycleSim::new(HwConfig::small());
        let run = || {
            let mut obs = TraceRecorder::enabled();
            sim.run_traced(&small_task(), None, &mut obs);
            obs.to_chrome_json()
        };
        assert_eq!(run(), run());
    }
}
