//! Hardware-in-the-loop candidate evaluation.
//!
//! [`HwAwareEvaluator`] scores one [`DseCandidate`] as a [`MetricVector`]
//! by lowering it through the real stack, per layer:
//!
//! 1. `SofaPipeline::run_predicted` at `(keep_ratio, tile_sizes[layer])` on
//!    that layer's pinned workload and its prediction (stage-1 DLZS scores
//!    plus the projected K/V rows) — measured proxy loss and measured op
//!    counts. The prediction reads neither the keep ratio nor the tile size,
//!    so an [`EvalSession`] computes it once per layer
//!    (`SofaPipeline::predict`) and every candidate the session scores
//!    reuses it;
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
//! Losses are averaged across layers; cycles and energy are summed. Steps
//! 1–4 are a pure function of one layer point — the layer, its keep ratio
//! and its tile size — so a session scores each distinct layer point once
//! and answers every later candidate that shares it from a memo.
//!
//! The workloads and dense references are pinned at construction; the
//! predictions and the layer memo live only as long as one session — one
//! `evaluate`, one `evaluate_batch` or one `hardware_aware_search` — so no
//! evaluator state carries over between calls. Evaluation is a pure
//! function of the candidate, which is what lets
//! [`EvalSession::evaluate_batch`] fan out over `sofa-par` with
//! bit-identical results at any `SOFA_THREADS`.

use crate::space::{DseCandidate, DseSpace};
use sofa_core::accuracy::proxy_loss;
use sofa_core::pipeline::{PipelineConfig, Prediction, SofaPipeline};
use sofa_hw::accel::AttentionTask;
use sofa_hw::area::{AreaModel, Module};
use sofa_hw::config::HwConfig;
use sofa_hw::energy::{compute_energy_j, DRAM_ACTIVATION_PJ};
use sofa_model::{AttentionWorkload, OperatingPoint, ScoreDistribution};
use sofa_sim::CycleSim;
use sofa_tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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
pub(crate) const FIDELITY_TOLERANCE: f64 = 0.25;

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
    pub(crate) fn beats_on_cycles_energy(&self, other: &MetricVector) -> bool {
        self.loss <= other.loss && self.cycles < other.cycles && self.energy_pj < other.energy_pj
    }

    /// Pareto dominance: no component worse, at least one strictly better.
    pub(crate) fn dominates(&self, other: &MetricVector) -> bool {
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

    /// Checks that every workload dimension is positive and that the
    /// hardware configuration is consistent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("queries", self.queries),
            ("seq_len", self.seq_len),
            ("input_dim", self.input_dim),
            ("head_dim", self.head_dim),
            ("heads", self.heads),
        ] {
            if value == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        self.hw.validate()
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
    /// Per-layer evaluations scored so far, memo hits included. Atomic adds
    /// are commutative, so the totals are identical at any `SOFA_THREADS`
    /// even though the evaluations fan out.
    layer_evals: AtomicU64,
    /// Per-layer cycle simulations actually run: one per distinct layer
    /// point per session.
    layer_sims: AtomicU64,
    /// Per-layer predictions run so far (one per layer per session).
    predictions: AtomicU64,
    /// Scored evaluations whose cycle simulation agreed with the analytic
    /// model within [`FIDELITY_TOLERANCE`] — the surrogate-vs-sim fidelity
    /// signal.
    fidelity_hits: AtomicU64,
}

impl HwAwareEvaluator {
    /// Builds the evaluator for a model of `layers` layers. The per-layer
    /// workloads (planted sparsity drawn from the configured distribution)
    /// and their dense reference outputs are generated here, fanned out
    /// across cores.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not validate (`EvalConfig::validate`) or
    /// `layers == 0`, before any workload is generated.
    pub fn new(cfg: EvalConfig, layers: usize) -> Self {
        cfg.validate().expect("invalid eval config");
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
            layer_evals: AtomicU64::new(0),
            layer_sims: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            fidelity_hits: AtomicU64::new(0),
        }
    }

    /// Per-layer evaluations this evaluator has scored: one per layer of
    /// every candidate scored, whether its layer point was simulated or
    /// answered from the session's memo.
    pub fn layer_evals(&self) -> u64 {
        self.layer_evals.load(Ordering::Relaxed)
    }

    /// Per-layer cycle simulations this evaluator has run: one per distinct
    /// `(layer, keep, Bc)` point per session.
    pub fn layer_sims(&self) -> u64 {
        self.layer_sims.load(Ordering::Relaxed)
    }

    /// Per-layer predictions (stage 1 plus the K/V projections) this
    /// evaluator has run: `layers()` per session, independent of how many
    /// candidates the session scores.
    pub fn predictions(&self) -> u64 {
        self.predictions.load(Ordering::Relaxed)
    }

    /// How many scored layer evaluations agreed with the analytic model
    /// within `FIDELITY_TOLERANCE` (a memo hit counts its remembered
    /// verdict).
    pub fn fidelity_hits(&self) -> u64 {
        self.fidelity_hits.load(Ordering::Relaxed)
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

    /// Opens an evaluation session: runs each layer's prediction (stage 1
    /// and the K/V projections) once, fanned out over layers, for every
    /// candidate the session scores, and starts an empty layer memo.
    pub fn session(&self) -> EvalSession<'_> {
        // Stage 1 reads only the prediction scheme, which
        // `PipelineConfig::for_layer` fixes to DLZS for every candidate, so
        // the paper default's pipeline predicts what any candidate's would.
        let op = OperatingPoint::paper_default(self.layers.len());
        let predictions = sofa_par::par_map_index(self.layers.len(), |i| {
            self.predictions.fetch_add(1, Ordering::Relaxed);
            SofaPipeline::new(PipelineConfig::for_layer(&op, i)).predict(&self.layers[i].0)
        });
        EvalSession {
            evaluator: self,
            predictions,
            memo: Mutex::default(),
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

    /// Scores one layer point: `layer` at `(keep, bc)`, from that layer's
    /// `prediction`. Runs one cycle simulation.
    fn evaluate_layer(
        &self,
        layer: usize,
        keep: f64,
        bc: usize,
        prediction: &Prediction,
    ) -> LayerEval {
        let (workload, dense) = &self.layers[layer];
        let result = SofaPipeline::new(
            PipelineConfig::new(keep, bc).expect("space candidates are valid pipeline configs"),
        )
        .run_predicted(workload, prediction);
        let loss = proxy_loss(&result.output, dense);

        // Lower the measured selection into the hardware models: the task
        // carries the *measured* key-union fraction (not the analytic
        // expectation), and the cycle simulator replays the run's real
        // per-tile selection counts.
        let stats = result.tile_selection_stats(bc);
        let mut task = AttentionTask::new(
            self.cfg.queries,
            self.cfg.seq_len,
            self.cfg.heads * self.cfg.head_dim,
            self.cfg.heads,
            keep,
            bc,
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
        self.layer_sims.fetch_add(1, Ordering::Relaxed);

        let compute_j = compute_energy_j(&result.total_ops());
        let memory_j =
            analytic.energy.sram_j + analytic.energy.interface_j + analytic.energy.dram_j;
        LayerEval {
            loss,
            cycles: report.total_cycles,
            energy_pj: (compute_j + memory_j) * 1e12 + requests as f64 * DRAM_ACTIVATION_PJ,
            agrees_with_analytic: report
                .compare(&analytic, self.cfg.hw.freq_hz)
                .agrees_within(FIDELITY_TOLERANCE),
        }
    }
}

/// One layer point's score: what [`HwAwareEvaluator::evaluate_layer`]
/// returns, and what the session memo remembers.
#[derive(Debug, Clone, Copy)]
struct LayerEval {
    loss: f64,
    cycles: u64,
    energy_pj: f64,
    /// The cycle simulation agreed with the analytic model within
    /// [`FIDELITY_TOLERANCE`].
    agrees_with_analytic: bool,
}

/// A layer point: the layer, its keep ratio's IEEE-754 bits and its tile
/// size — everything a layer's score reads beside the session's prediction.
type LayerKey = (usize, u64, usize);

/// One search's view of an [`HwAwareEvaluator`]: the per-layer predictions
/// (stage-1 scores and projected K/V rows), computed once when the session
/// opens, and the memo of every layer point the session has scored, each
/// simulated exactly once at any `SOFA_THREADS`. Every candidate the session
/// scores shares both; dropping the session drops them.
#[derive(Debug)]
pub struct EvalSession<'a> {
    evaluator: &'a HwAwareEvaluator,
    predictions: Vec<Prediction>,
    /// One cell per layer point, filled outside the map lock by the first
    /// thread to reach it; a thread that reaches a cell being filled waits
    /// for its value.
    memo: Mutex<HashMap<LayerKey, Arc<OnceLock<LayerEval>>>>,
}

impl EvalSession<'_> {
    /// Scores one candidate (see the module docs for the lowering chain).
    ///
    /// # Panics
    ///
    /// Panics if the candidate's layer count differs from the evaluator's.
    pub fn evaluate(&self, c: &DseCandidate) -> CandidateEval {
        self.score(c, true)
    }

    /// Scores a candidate the caller has already scored in this session:
    /// the same bits as [`EvalSession::evaluate`], read from the layer memo
    /// and not counted again in `layer_evals` or `fidelity_hits`.
    pub(crate) fn recall(&self, c: &DseCandidate) -> CandidateEval {
        self.score(c, false)
    }

    /// Scores a batch of candidates, fanning out across cores
    /// (`sofa_par::par_map`). Bit-identical to calling
    /// [`EvalSession::evaluate`] (or [`HwAwareEvaluator::evaluate`]) per
    /// candidate, at any `SOFA_THREADS` — the differential property tests in
    /// `tests/property_tests.rs` enforce this.
    pub fn evaluate_batch(&self, candidates: &[DseCandidate]) -> Vec<CandidateEval> {
        sofa_par::par_map(candidates, |c| self.evaluate(c))
    }

    fn score(&self, c: &DseCandidate, counted: bool) -> CandidateEval {
        let layers = self.predictions.len();
        assert!(
            c.tile_sizes.len() == layers && c.keep_ratios.len() == layers,
            "candidate layer count mismatch"
        );
        // Layers are independent; nested invocations (e.g. from
        // `evaluate_batch`) degrade to sequential without changing results.
        let per_layer = sofa_par::par_map_index(layers, |i| {
            self.layer_point(i, c.keep_ratios[i], c.tile_sizes[i])
        });
        if counted {
            let e = self.evaluator;
            let hits = per_layer.iter().filter(|l| l.agrees_with_analytic).count();
            e.layer_evals
                .fetch_add(per_layer.len() as u64, Ordering::Relaxed);
            e.fidelity_hits.fetch_add(hits as u64, Ordering::Relaxed);
        }
        let loss = per_layer.iter().map(|l| l.loss).sum::<f64>() / per_layer.len() as f64;
        let cycles = per_layer.iter().map(|l| l.cycles).sum::<u64>();
        let energy_pj = per_layer.iter().map(|l| l.energy_pj).sum::<f64>();
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

    /// The score of `layer` at `(keep, bc)`: simulated by the first caller,
    /// remembered for the rest of the session.
    fn layer_point(&self, layer: usize, keep: f64, bc: usize) -> LayerEval {
        let cell = Arc::clone(
            self.memo
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry((layer, keep.to_bits(), bc))
                .or_default(),
        );
        *cell.get_or_init(|| {
            self.evaluator
                .evaluate_layer(layer, keep, bc, &self.predictions[layer])
        })
    }
}

/// Area in mm² (28 nm) of an accelerator sized for the candidate's largest
/// tile. At the paper's `Bc = 16` this reproduces the Table III total
/// exactly; the SADS sorting network scales with `Bc·log₂Bc` (bitonic
/// width × depth) and the tile-resident ping-pong banks — modelled as 40 %
/// of the Memory module — scale linearly with `Bc`.
pub(crate) fn candidate_area_mm2(c: &DseCandidate) -> f64 {
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
    use sofa_core::OpCounts;

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
        assert_eq!(eval.layer_sims(), 4, "two sessions share no memo");
        assert!(eval.fidelity_hits() <= eval.layer_evals());
        let mut reg = sofa_obs::MetricsRegistry::new();
        eval.record_metrics(&mut reg);
        assert_eq!(reg.counter("dse.evaluator.layer_evals"), 4);
        let rate = reg.gauge("dse.evaluator.fidelity_rate").unwrap();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn a_session_simulates_each_layer_point_once() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(13), 2);
        let session = eval.session();
        let a = DseCandidate {
            keep_ratios: vec![0.25, 0.5],
            tile_sizes: vec![16, 8],
        };
        // Shares layer 0's point with `a`; its layer 1 runs `a`'s layer-0
        // pair, a different point because the layer differs.
        let b = DseCandidate {
            keep_ratios: vec![0.25, 0.25],
            tile_sizes: vec![16, 16],
        };
        let first = session.evaluate(&a);
        let hits = eval.fidelity_hits();
        assert_eq!(
            session.evaluate(&a),
            first,
            "a memo hit returns the same bits"
        );
        assert_eq!(eval.fidelity_hits(), 2 * hits, "a hit counts its verdict");
        session.evaluate(&b);
        assert_eq!(
            eval.layer_evals(),
            6,
            "three candidates x two layers scored"
        );
        assert_eq!(
            eval.layer_sims(),
            3,
            "three distinct layer points simulated"
        );
        drop(session);
        // The memo dies with its session.
        eval.evaluate(&a);
        assert_eq!(eval.layer_sims(), 5);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn wrong_layer_count_panics() {
        let eval = HwAwareEvaluator::new(EvalConfig::tiny(1), 2);
        let _ = eval.evaluate(&uniform(0.25, 16, 3));
    }

    #[test]
    fn pinned_layer_work_counters_are_exact() {
        // Layer 0 of the pinned DSE workload at the paper default — the
        // layer the benchmark's kernel probe runs. Work counters do not
        // depend on the host, so any change to what a kernel counts fails
        // here on every machine.
        let cfg = EvalConfig::quick(0xD5E);
        let w = AttentionWorkload::generate(
            &cfg.distribution,
            cfg.queries,
            cfg.seq_len,
            cfg.input_dim,
            cfg.head_dim,
            cfg.seed,
        );
        let op = OperatingPoint::paper_default(1);
        let r = SofaPipeline::new(PipelineConfig::for_layer(&op, 0)).run(&w);
        let ops = |mul, add, exp, cmp, shift, div, lz_encode| OpCounts {
            mul,
            add,
            exp,
            cmp,
            shift,
            div,
            lz_encode,
        };
        assert_eq!(r.prediction.ops, ops(0, 1_301_156, 0, 0, 1_301_156, 0, 512));
        assert_eq!(r.sorting_ops, ops(0, 0, 0, 55_170, 0, 0, 0));
        assert_eq!(
            r.kv_generation_ops,
            ops(2_064_384, 2_064_384, 0, 0, 0, 0, 0)
        );
        assert_eq!(r.formal_ops, ops(131_534, 133_104, 2_062, 2_032, 0, 512, 0));
        assert_eq!(r.keys_generated, 504);
        assert_eq!(r.total_ops().total_ops(), 7_056_006);
    }

    #[test]
    fn quick_and_tiny_configs_validate() {
        assert_eq!(EvalConfig::quick(1).validate(), Ok(()));
        assert_eq!(EvalConfig::tiny(1).validate(), Ok(()));
    }

    #[test]
    fn invalid_hardware_fails_validation() {
        let mut cfg = EvalConfig::tiny(1);
        cfg.hw.freq_hz = 0.0;
        assert_eq!(
            cfg.validate(),
            Err("frequency must be positive".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "queries must be positive")]
    fn zero_queries_are_rejected_before_generation() {
        let _ = HwAwareEvaluator::new(
            EvalConfig {
                queries: 0,
                ..EvalConfig::tiny(1)
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "seq_len must be positive")]
    fn zero_seq_len_is_rejected_before_generation() {
        let _ = HwAwareEvaluator::new(
            EvalConfig {
                seq_len: 0,
                ..EvalConfig::tiny(1)
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "input_dim must be positive")]
    fn zero_input_dim_is_rejected_before_generation() {
        let _ = HwAwareEvaluator::new(
            EvalConfig {
                input_dim: 0,
                ..EvalConfig::tiny(1)
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "head_dim must be positive")]
    fn zero_head_dim_is_rejected_before_generation() {
        let _ = HwAwareEvaluator::new(
            EvalConfig {
                head_dim: 0,
                ..EvalConfig::tiny(1)
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "heads must be positive")]
    fn zero_heads_are_rejected_before_generation() {
        // Generation accepts this config; only the first evaluation's
        // lowering used to trip over it.
        let _ = HwAwareEvaluator::new(
            EvalConfig {
                heads: 0,
                ..EvalConfig::tiny(1)
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_are_rejected() {
        let _ = HwAwareEvaluator::new(EvalConfig::tiny(1), 0);
    }
}
