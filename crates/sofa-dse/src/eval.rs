//! Hardware-in-the-loop candidate evaluation.
//!
//! [`HwAwareEvaluator`] scores one [`DseCandidate`] as a [`MetricVector`]
//! by lowering it through the real stack, per layer:
//!
//! 1. `SofaPipeline::run_predicted` at `(keep_ratio, tile_sizes[layer])` on
//!    that layer's pinned workload and its stage-1 DLZS prediction —
//!    measured proxy loss and measured op counts. The prediction reads
//!    neither the keep ratio nor the tile size, so an [`EvalSession`]
//!    computes it once per layer (`SofaPipeline::predict`) and every
//!    candidate the session scores reuses it;
//! 2. `PipelineResult::tile_selection_stats` — the run's real per-tile
//!    selection counts (Distributed Cluster Effect imbalance included);
//! 3. `SofaAccelerator::tile_descriptors` → `CycleSim::run_with_stats` —
//!    end-to-end cycles of the tiled pipeline under buffer back-pressure and
//!    DRAM contention;
//! 4. the `sofa-hw` energy models — compute energy from the *measured* op
//!    counts (so SADS comparison counts really vary with the tile size),
//!    SRAM/interface/DRAM energy from the analytic traffic model, plus a
//!    per-DRAM-request activation overhead that charges fine tilings for
//!    their extra bursts;
//! 5. a tile-size-aware area model: the sorting network grows with
//!    `Bc·log₂Bc` and the ping-pong banks linearly with the largest resident
//!    tile.
//!
//! Losses are averaged across layers; cycles and energy are summed. The
//! workloads and dense references are pinned at construction; the stage-1
//! predictions live only as long as one session — one `evaluate`, one
//! `evaluate_batch` or one `hardware_aware_search` — so no evaluator state
//! carries over between calls. Evaluation is a pure function of the
//! candidate, which is what lets [`EvalSession::evaluate_batch`] fan out over
//! `sofa-par` with bit-identical results at any `SOFA_THREADS`.

use crate::space::{DseCandidate, DseSpace};
use sofa_core::accuracy::proxy_loss;
use sofa_core::pipeline::{PipelineConfig, Prediction, RunScratch, SofaPipeline};
use sofa_hw::accel::AttentionTask;
use sofa_hw::area::{AreaModel, Module};
use sofa_hw::config::HwConfig;
use sofa_hw::energy::{compute_energy_j, DRAM_ACTIVATION_PJ};
use sofa_model::{AttentionWorkload, OperatingPoint, ScoreDistribution};
use sofa_sim::CycleSim;
use sofa_tensor::Matrix;

/// Control overhead a stage pays per tile (descriptor decode, bank swap,
/// scoreboard update) in the DSE evaluation. This is the cost the paper's
/// `L_exp = Σ S/Bc` tile-synchronisation penalty approximates analytically;
/// the default simulator floor of 1 cycle would make 128 two-element tiles
/// look free, hiding exactly the trade-off Algorithm 1 exists to balance.
pub const TILE_CONTROL_CYCLES: u64 = 32;

/// The tile size the published Table III breakdown was sized for.
const AREA_REFERENCE_BC: f64 = 16.0;

/// Relative-error band within which a cycle simulation counts as agreeing
/// with the analytic model — the evaluator's fidelity-hit criterion, kept on
/// one definition with the CI cycle-fidelity gate's tolerance.
pub const FIDELITY_TOLERANCE: f64 = 0.25;

/// The multi-objective score of one candidate. All four components are
/// minimised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricVector {
    /// Mean per-layer proxy loss (`1 − mean row cosine` vs the dense output).
    pub loss: f64,
    /// Summed end-to-end cycles of the per-layer cycle simulations.
    pub cycles: u64,
    /// Summed energy in picojoules (measured compute ops + analytic
    /// SRAM/interface/DRAM + per-request DRAM activation).
    pub energy_pj: f64,
    /// Required accelerator area in mm² at 28 nm for the candidate's largest
    /// tile size.
    pub area_mm2: f64,
}

impl MetricVector {
    /// The pure-win predicate shared by the tuned-recommendation pick, the
    /// `dse_pareto` table and the CI regression gate: strictly better than
    /// `other` on both cycles and energy at equal-or-better loss (area is
    /// deliberately ignored — a deployment can spend silicon for a win).
    pub fn beats_on_cycles_energy(&self, other: &MetricVector) -> bool {
        self.loss <= other.loss && self.cycles < other.cycles && self.energy_pj < other.energy_pj
    }

    /// Pareto dominance: no component worse, at least one strictly better.
    pub fn dominates(&self, other: &MetricVector) -> bool {
        let le = self.loss <= other.loss
            && self.cycles <= other.cycles
            && self.energy_pj <= other.energy_pj
            && self.area_mm2 <= other.area_mm2;
        let lt = self.loss < other.loss
            || self.cycles < other.cycles
            || self.energy_pj < other.energy_pj
            || self.area_mm2 < other.area_mm2;
        le && lt
    }

    /// A total-order sort key (IEEE total ordering per component) used for
    /// deterministic Pareto-front ordering and tie-breaking.
    pub(crate) fn order_key(&self) -> (u64, u64, u64, u64) {
        // All metrics are non-negative, so the sign-preserving bit pattern
        // of an f64 sorts in value order.
        (
            self.loss.to_bits(),
            self.cycles,
            self.energy_pj.to_bits(),
            self.area_mm2.to_bits(),
        )
    }
}

/// One evaluated design point: the candidate and its measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEval {
    /// The design point.
    pub candidate: DseCandidate,
    /// Its hardware-in-the-loop score.
    pub metrics: MetricVector,
}

/// The pinned evaluation setup: workload shape, hardware configuration and
/// the base seed the per-layer workloads are derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Token parallelism of each layer's workload.
    pub queries: usize,
    /// Context length (also the `DseSpace` sequence length).
    pub seq_len: usize,
    /// Embedding width of the workload generator.
    pub input_dim: usize,
    /// Head dimension of the workload generator.
    pub head_dim: usize,
    /// Heads the lowered `AttentionTask` models (`hidden = heads·head_dim`).
    pub heads: usize,
    /// Hardware configuration of the simulated accelerator.
    pub hw: HwConfig,
    /// Score distribution the per-layer workloads are drawn from.
    pub distribution: ScoreDistribution,
    /// Base seed; layer `i` uses workload seed `seed + i`.
    pub seed: u64,
}

impl EvalConfig {
    /// The default experiment setup: a Llama-like distribution at `S = 512`,
    /// 16 queries, simulated on the paper-default hardware.
    pub fn quick(seed: u64) -> Self {
        EvalConfig {
            queries: 16,
            seq_len: 512,
            input_dim: 64,
            head_dim: 32,
            heads: 4,
            hw: HwConfig::paper_default(),
            distribution: ScoreDistribution::llama_like(),
            seed,
        }
    }

    /// A minimal setup for unit and property tests (tiny shapes, small
    /// hardware model).
    pub fn tiny(seed: u64) -> Self {
        EvalConfig {
            queries: 4,
            seq_len: 64,
            input_dim: 32,
            head_dim: 16,
            heads: 2,
            hw: HwConfig::small(),
            distribution: ScoreDistribution::bert_like(),
            seed,
        }
    }
}

/// The hardware-in-the-loop evaluator. Construction generates (and pins) one
/// workload + dense reference per layer; evaluation is then a pure function
/// of the candidate. Candidates are scored through an [`EvalSession`]
/// ([`HwAwareEvaluator::session`]), which predicts each layer once.
#[derive(Debug)]
pub struct HwAwareEvaluator {
    cfg: EvalConfig,
    layers: Vec<(AttentionWorkload, Matrix)>,
    /// Per-layer cycle simulations run so far. Atomic adds are commutative,
    /// so the totals are identical at any `SOFA_THREADS` even though the
    /// evaluations fan out.
    layer_evals: std::sync::atomic::AtomicU64,
    /// Per-layer stage-1 predictions run so far (one per layer per session).
    predictions: std::sync::atomic::AtomicU64,
    /// Evaluations whose cycle simulation agreed with the analytic model
    /// within [`FIDELITY_TOLERANCE`] — the surrogate-vs-sim fidelity signal.
    fidelity_hits: std::sync::atomic::AtomicU64,
}

impl HwAwareEvaluator {
    /// Builds the evaluator for a model of `layers` layers. The per-layer
    /// workloads (planted sparsity drawn from the configured distribution)
    /// and their dense reference outputs are generated here, fanned out
    /// across cores.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn new(cfg: EvalConfig, layers: usize) -> Self {
        assert!(layers > 0, "at least one layer is required");
        let layers = sofa_par::par_map_index(layers, |i| {
            let w = AttentionWorkload::generate(
                &cfg.distribution,
                cfg.queries,
                cfg.seq_len,
                cfg.input_dim,
                cfg.head_dim,
                cfg.seed + i as u64,
            );
            let dense = w.dense_output();
            (w, dense)
        });
        HwAwareEvaluator {
            cfg,
            layers,
            layer_evals: std::sync::atomic::AtomicU64::new(0),
            predictions: std::sync::atomic::AtomicU64::new(0),
            fidelity_hits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The evaluation setup.
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    /// Per-layer cycle simulations this evaluator has run.
    pub fn layer_evals(&self) -> u64 {
        self.layer_evals.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Per-layer stage-1 predictions this evaluator has run: `layers()` per
    /// session, independent of how many candidates the session scores.
    pub fn predictions(&self) -> u64 {
        self.predictions.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many of those agreed with the analytic model within
    /// [`FIDELITY_TOLERANCE`].
    pub fn fidelity_hits(&self) -> u64 {
        self.fidelity_hits
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Snapshots the evaluation counters into `reg` as
    /// `dse.evaluator.layer_evals` / `dse.evaluator.fidelity_hits` counters
    /// plus a `dse.evaluator.fidelity_rate` gauge.
    pub fn record_metrics(&self, reg: &mut sofa_obs::MetricsRegistry) {
        let evals = self.layer_evals();
        let hits = self.fidelity_hits();
        reg.inc("dse.evaluator.layer_evals", evals);
        reg.inc("dse.evaluator.fidelity_hits", hits);
        reg.set_gauge(
            "dse.evaluator.fidelity_rate",
            if evals == 0 {
                0.0
            } else {
                hits as f64 / evals as f64
            },
        );
    }

    /// Number of layers candidates must provide tile sizes for.
    pub fn layers(&self) -> usize {
        self.layers.len()
    }

    /// The paper search space matched to this evaluator's layer count and
    /// sequence length.
    pub fn space(&self) -> DseSpace {
        DseSpace::paper_space(self.layers.len(), self.cfg.seq_len)
    }

    /// Opens an evaluation session: runs each layer's stage-1 prediction
    /// once (fanned out over layers) for every candidate the session scores.
    pub fn session(&self) -> EvalSession<'_> {
        // Stage 1 reads only the prediction scheme, which
        // `PipelineConfig::for_layer` fixes to DLZS for every candidate, so
        // the paper default's pipeline predicts what any candidate's would.
        let op = OperatingPoint::paper_default(self.layers.len());
        let predictions = sofa_par::par_map_index(self.layers.len(), |i| {
            self.predictions
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            SofaPipeline::new(PipelineConfig::for_layer(&op, i)).predict(&self.layers[i].0)
        });
        EvalSession {
            evaluator: self,
            predictions,
        }
    }

    /// Scores one candidate (see the module docs for the lowering chain) in a
    /// session of its own.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's layer count differs from the evaluator's.
    pub fn evaluate(&self, c: &DseCandidate) -> CandidateEval {
        self.session().evaluate(c)
    }

    /// Scores a batch of candidates in one session (see
    /// [`EvalSession::evaluate_batch`]).
    pub fn evaluate_batch(&self, candidates: &[DseCandidate]) -> Vec<CandidateEval> {
        self.session().evaluate_batch(candidates)
    }

    /// One layer's `(loss, cycles, energy_pj)` at the candidate's operating
    /// point, from that layer's stage-1 `prediction`.
    fn evaluate_layer(
        &self,
        layer: usize,
        c: &DseCandidate,
        prediction: &Prediction,
    ) -> (f64, u64, f64) {
        let (workload, dense) = &self.layers[layer];
        let op = c.operating_point();
        let bc = op.tile(layer);
        let result = SofaPipeline::new(PipelineConfig::for_layer(&op, layer)).run_predicted(
            workload,
            prediction,
            &mut RunScratch::new(),
        );
        let loss = proxy_loss(&result.output, dense);

        // Lower the measured selection into the hardware models: the task
        // carries the *measured* key-union fraction (not the analytic
        // expectation), and the cycle simulator replays the run's real
        // per-tile selection counts.
        let stats = result.tile_selection_stats(bc);
        let mut task = AttentionTask::at_layer(
            self.cfg.queries,
            self.cfg.seq_len,
            self.cfg.heads * self.cfg.head_dim,
            self.cfg.heads,
            &op,
            layer,
        );
        task.key_union_fraction =
            (result.keys_generated as f64 / self.cfg.seq_len as f64).clamp(1e-6, 1.0);

        let mut sim = CycleSim::new(self.cfg.hw);
        sim.params.min_tile_cycles = TILE_CONTROL_CYCLES;
        // Calibrated against the burst-latency model (not hardwired): fine
        // tilings issue more, smaller requests for the same bytes, and with
        // a bandwidth-only channel that overhead would be invisible to the
        // cycles objective.
        sim.params = sim.params.with_dram_command_calibration(&self.cfg.hw);
        // One lowering serves both the DRAM-request count and the replay.
        let job = sim.job(&task, Some(&stats));
        let requests = job.dram_requests();
        let report = sim.run_job(&job);
        let analytic = sim.accel.simulate(&task);
        self.layer_evals
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if report
            .compare(&analytic, self.cfg.hw.freq_hz)
            .agrees_within(FIDELITY_TOLERANCE)
        {
            self.fidelity_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        let compute_j = compute_energy_j(&result.total_ops());
        let memory_j =
            analytic.energy.sram_j + analytic.energy.interface_j + analytic.energy.dram_j;
        let energy_pj = (compute_j + memory_j) * 1e12 + requests as f64 * DRAM_ACTIVATION_PJ;
        (loss, report.total_cycles, energy_pj)
    }
}

/// One search's view of an [`HwAwareEvaluator`]: the per-layer stage-1
/// predictions, computed once when the session opens and shared by every
/// candidate it scores. Dropping the session drops them.
#[derive(Debug)]
pub struct EvalSession<'a> {
    evaluator: &'a HwAwareEvaluator,
    predictions: Vec<Prediction>,
}

impl EvalSession<'_> {
    /// Scores one candidate (see the module docs for the lowering chain).
    ///
    /// # Panics
    ///
    /// Panics if the candidate's layer count differs from the evaluator's.
    pub fn evaluate(&self, c: &DseCandidate) -> CandidateEval {
        assert_eq!(
            c.tile_sizes.len(),
            self.predictions.len(),
            "candidate layer count mismatch"
        );
        // Layers are independent; nested invocations (e.g. from
        // `evaluate_batch`) degrade to sequential without changing results.
        let per_layer = sofa_par::par_map_index(self.predictions.len(), |i| {
            self.evaluator.evaluate_layer(i, c, &self.predictions[i])
        });
        let loss = per_layer.iter().map(|l| l.0).sum::<f64>() / per_layer.len() as f64;
        let cycles = per_layer.iter().map(|l| l.1).sum::<u64>();
        let energy_pj = per_layer.iter().map(|l| l.2).sum::<f64>();
        CandidateEval {
            candidate: c.clone(),
            metrics: MetricVector {
                loss,
                cycles,
                energy_pj,
                area_mm2: candidate_area_mm2(c),
            },
        }
    }

    /// Scores a batch of candidates, fanning out across cores
    /// (`sofa_par::par_map`). Bit-identical to calling
    /// [`EvalSession::evaluate`] (or [`HwAwareEvaluator::evaluate`]) per
    /// candidate, at any `SOFA_THREADS` — the differential property test in
    /// `tests/property_tests.rs` enforces this.
    pub fn evaluate_batch(&self, candidates: &[DseCandidate]) -> Vec<CandidateEval> {
        sofa_par::par_map(candidates, |c| self.evaluate(c))
    }
}

/// Area in mm² (28 nm) of an accelerator sized for the candidate's largest
/// tile. At the paper's `Bc = 16` this reproduces the Table III total
/// exactly; the SADS sorting network scales with `Bc·log₂Bc` (bitonic
/// width × depth) and the tile-resident ping-pong banks — modelled as 40 %
/// of the Memory module — scale linearly with `Bc`.
pub fn candidate_area_mm2(c: &DseCandidate) -> f64 {
    let area = AreaModel::paper_28nm();
    let bc = c.tile_sizes.iter().copied().max().unwrap_or(16).max(2) as f64;
    let sort_scale = (bc * bc.log2()) / (AREA_REFERENCE_BC * AREA_REFERENCE_BC.log2());
    let mem_scale = 0.6 + 0.4 * bc / AREA_REFERENCE_BC;
    Module::ALL
        .iter()
        .map(|&m| {
            let a = area.module_area_mm2(m);
            match m {
                Module::SadsSort => a * sort_scale,
                Module::Memory => a * mem_scale,
                _ => a,
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(keep: f64, bc: usize, layers: usize) -> DseCandidate {
        DseCandidate::uniform(keep, bc, layers)
    }

    #[test]
    fn dominance_is_strict_and_irreflexive() {
        let a = MetricVector {
            loss: 0.1,
            cycles: 100,
            energy_pj: 50.0,
            area_mm2: 5.0,
        };
        let better = MetricVector { cycles: 90, ..a };
        let mixed = MetricVector {
            loss: 0.05,
            cycles: 120,
            ..a
        };
        assert!(better.dominates(&a));
        assert!(!a.dominates(&better));
        assert!(!a.dominates(&a), "dominance is irreflexive");
        assert!(!mixed.dominates(&a) && !a.dominates(&mixed));
    }

    #[test]
    fn evaluator_produces_finite_positive_metrics() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(3), 2);
        let e = eval.evaluate(&uniform(0.25, 16, 2));
        assert!(e.metrics.loss.is_finite() && e.metrics.loss >= 0.0);
        assert!(e.metrics.cycles > 0);
        assert!(e.metrics.energy_pj > 0.0);
        assert!(e.metrics.area_mm2 > 0.0);
    }

    #[test]
    fn keeping_more_pairs_costs_cycles_and_energy() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(5), 2);
        let sparse = eval.evaluate(&uniform(0.10, 16, 2));
        let dense = eval.evaluate(&uniform(0.50, 16, 2));
        assert!(dense.metrics.cycles > sparse.metrics.cycles);
        assert!(dense.metrics.energy_pj > sparse.metrics.energy_pj);
        assert!(dense.metrics.loss <= sparse.metrics.loss + 1e-6);
    }

    #[test]
    fn per_layer_tile_sizes_are_not_averaged() {
        // A mixed-tile candidate must not score like the uniform candidate at
        // the mean tile size — the regression the old example's loss closure
        // had (it collapsed per-layer tiles into one mean `bc`).
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(7), 2);
        let mixed = eval.evaluate(&DseCandidate {
            keep_ratios: vec![0.25, 0.25],
            tile_sizes: vec![4, 28],
        });
        let mean = eval.evaluate(&uniform(0.25, 16, 2));
        assert_ne!(
            mixed.metrics, mean.metrics,
            "distinct tilings must be distinguishable"
        );
        // The mixed candidate pays the larger tile's area.
        assert!(mixed.metrics.area_mm2 > mean.metrics.area_mm2);
    }

    #[test]
    fn area_model_reproduces_table_iii_at_the_reference_tile() {
        let at_16 = candidate_area_mm2(&uniform(0.25, 16, 4));
        assert!(
            (at_16 - AreaModel::paper_28nm().total_area_mm2()).abs() < 1e-9,
            "reference tile must reproduce Table III: {at_16}"
        );
        let at_2 = candidate_area_mm2(&uniform(0.25, 2, 4));
        let at_32 = candidate_area_mm2(&uniform(0.25, 32, 4));
        assert!(at_2 < at_16 && at_16 < at_32);
        // Area follows the *largest* tile across layers.
        let mixed = candidate_area_mm2(&DseCandidate {
            keep_ratios: vec![0.25, 0.25],
            tile_sizes: vec![2, 32],
        });
        assert!((mixed - at_32).abs() < 1e-9);
    }

    #[test]
    fn evaluation_counters_track_layer_sims() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(11), 2);
        assert_eq!(eval.layer_evals(), 0);
        eval.evaluate(&uniform(0.25, 16, 2));
        eval.evaluate(&uniform(0.50, 8, 2));
        assert_eq!(eval.layer_evals(), 4, "two candidates x two layers");
        assert!(eval.fidelity_hits() <= eval.layer_evals());
        let mut reg = sofa_obs::MetricsRegistry::new();
        eval.record_metrics(&mut reg);
        assert_eq!(reg.counter("dse.evaluator.layer_evals"), 4);
        let rate = reg.gauge("dse.evaluator.fidelity_rate").unwrap();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn wrong_layer_count_panics() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(1), 2);
        let _ = eval.evaluate(&uniform(0.25, 16, 3));
    }
}
