//! The end-to-end SOFA dynamic-sparsity pipeline and its ablatable variants.
//!
//! The cross-stage tiled workflow of the paper (Fig. 6) is:
//!
//! 1. **Pre-compute** — DLZS predicts the attention matrix `Â` from the raw
//!    tokens and the pre-converted `W_k` (no multiplications).
//! 2. **Top-k** — SADS picks the vital Q-K pairs per tile.
//! 3. **On-demand KV generation** — only the keys/values some query actually
//!    selected are generated (`K_i = x_i·W_k`, `V_i = x_i·W_v`) and counted.
//! 4. **Formal compute** — SU-FA consumes the sorted mask and produces the
//!    attention output without re-deriving the softmax maximum.
//!
//! Each stage can be swapped for its baseline (4-bit multiply prediction,
//! whole-row sorting, FlashAttention-2) so the ablation of paper Fig. 17 falls
//! out of a single configurable pipeline.
//!
//! Stage 1 and the K/V projections of stage 3 read only the workload and the
//! prediction scheme — never the keep ratio or tile size — so they are
//! exposed on their own: [`SofaPipeline::predict`] returns a [`Prediction`]
//! holding `Â` and every projected K/V row, and
//! [`SofaPipeline::run_predicted`] runs stages 2–4 on it. Stage 3 still
//! counts only the rows the mask needs, because the modelled hardware
//! generates them on demand; stage 4 reads only those rows.
//! [`SofaPipeline::run`] is exactly the two in sequence; a caller that scores
//! many `(keep, Bc)` points on one workload (the hardware-aware DSE) predicts
//! once and reuses the prediction, with bit-identical results.

use crate::dlzs::{predict_scores_int4, predict_scores_vanilla_lz, DlzsPredictor, PredictionStats};
use crate::flash::{FlashConfig, FlashVersion};
use crate::ops::{OpCounts, OpKind};
use crate::sads::{sads_topk, SadsConfig};
use crate::sufa::{sorted_updating_attention, SuFaOrder, SuFaStats};
use crate::topk::{resolve_k, topk_exact, TopKMask};
use crate::SofaError;
use sofa_model::{AttentionWorkload, OperatingPoint};
use sofa_tensor::Matrix;

/// Which prediction scheme the pre-compute stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionScheme {
    /// SOFA's differential leading-zero summation.
    Dlzs,
    /// 4-bit integer multiplication (prior-work baseline).
    Int4Multiply,
    /// Vanilla leading-zero scheme converting both operands.
    VanillaLz,
}

/// Which sorting scheme the top-k stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortingScheme {
    /// SOFA's sphere-search aided distributed sorting.
    Sads,
    /// Whole-row exact sorting (prior-work baseline).
    FullSort,
}

/// Which formal-compute scheme processes the selected pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormalScheme {
    /// SOFA's sorted-updating FlashAttention with the given order.
    SuFa(SuFaOrder),
    /// FlashAttention over the gathered selected keys (prior-work baseline).
    Flash(FlashVersion),
}

/// Configuration of the SOFA pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Fraction of keys kept per query row (top-k / S).
    pub keep_ratio: f64,
    /// Cross-stage tile size `Bc` (drives both SADS segmentation and the
    /// formal-compute tiling).
    pub tile_size: usize,
    /// SADS sphere-search radius as a fraction of the segment range.
    pub radius_frac: f64,
    /// SADS adjustive-exchange iterations.
    pub refine_iters: usize,
    /// Pre-compute scheme.
    pub(crate) prediction: PredictionScheme,
    /// Top-k scheme.
    pub(crate) sorting: SortingScheme,
    /// Formal-compute scheme.
    pub(crate) formal: FormalScheme,
}

impl PipelineConfig {
    /// Creates the default SOFA configuration (DLZS + SADS + descending SU-FA)
    /// with the given keep ratio and tile size. This is the validated scalar
    /// base constructor `OperatingPoint` lowering builds on — lowering call
    /// sites go through [`PipelineConfig::for_layer`] instead of passing
    /// scalar pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SofaError::InvalidConfig`] if `keep_ratio` is outside `(0, 1]`
    /// or `tile_size == 0`.
    pub fn new(keep_ratio: f64, tile_size: usize) -> Result<Self, SofaError> {
        if !(keep_ratio > 0.0 && keep_ratio <= 1.0) {
            return Err(SofaError::InvalidConfig {
                param: "keep_ratio",
                reason: format!("must be in (0, 1], got {keep_ratio}"),
            });
        }
        if tile_size == 0 {
            return Err(SofaError::InvalidConfig {
                param: "tile_size",
                reason: "must be positive".to_string(),
            });
        }
        Ok(PipelineConfig {
            keep_ratio,
            tile_size,
            radius_frac: 0.5,
            refine_iters: 2,
            prediction: PredictionScheme::Dlzs,
            sorting: SortingScheme::Sads,
            formal: FormalScheme::SuFa(SuFaOrder::Descending),
        })
    }

    /// The default SOFA configuration at one layer of an operating point —
    /// the lowering entry point consumers use instead of passing scalar
    /// `(keep, Bc)` pairs (`OperatingPoint` invariants guarantee validity,
    /// so this cannot fail).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of the point's range.
    pub fn for_layer(op: &OperatingPoint, layer: usize) -> Self {
        Self::new(op.keep(layer), op.tile(layer))
            .expect("operating points are valid pipeline configs")
    }

    /// The prior-work baseline: 4-bit multiply prediction, whole-row sorting
    /// and FlashAttention-2 over the selected keys.
    ///
    /// # Errors
    ///
    /// Same as [`PipelineConfig::new`].
    pub fn baseline(keep_ratio: f64, tile_size: usize) -> Result<Self, SofaError> {
        let mut cfg = Self::new(keep_ratio, tile_size)?;
        cfg.prediction = PredictionScheme::Int4Multiply;
        cfg.sorting = SortingScheme::FullSort;
        cfg.formal = FormalScheme::Flash(FlashVersion::V2);
        Ok(cfg)
    }

    /// Replaces the prediction scheme (builder style).
    pub fn with_prediction(mut self, scheme: PredictionScheme) -> Self {
        self.prediction = scheme;
        self
    }

    /// Replaces the sorting scheme (builder style).
    pub fn with_sorting(mut self, scheme: SortingScheme) -> Self {
        self.sorting = scheme;
        self
    }

    /// Replaces the formal-compute scheme (builder style).
    pub fn with_formal(mut self, scheme: FormalScheme) -> Self {
        self.formal = scheme;
        self
    }
}

/// Result of running the pipeline on one attention workload.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The sparse attention output, shape `(queries, head_dim)`.
    pub output: Matrix,
    /// The top-k mask the formal stage consumed.
    pub mask: TopKMask,
    /// Operation/traffic statistics of the prediction stage.
    pub prediction: PredictionStats,
    /// Operation counts of the top-k sorting stage.
    pub sorting_ops: OpCounts,
    /// Operation counts of on-demand K/V generation.
    pub kv_generation_ops: OpCounts,
    /// Operation counts of the formal compute stage.
    pub formal_ops: OpCounts,
    /// SU-FA statistics (zero if the formal stage was FlashAttention).
    pub sufa_stats: SuFaStats,
    /// Number of distinct keys that had to be generated on demand.
    pub keys_generated: usize,
}

impl PipelineResult {
    /// Total operation counts across all stages.
    pub fn total_ops(&self) -> OpCounts {
        self.prediction.ops + self.sorting_ops + self.kv_generation_ops + self.formal_ops
    }

    /// Per-tile selection statistics of the mask this run produced — the
    /// real-workload load profile a cycle-level simulator consumes instead of
    /// expected values.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero.
    pub fn tile_selection_stats(&self, tile_size: usize) -> crate::tiling::TileSelectionStats {
        crate::tiling::TileSelectionStats::from_mask(&self.mask, tile_size)
    }

    /// Total normalised complexity across all stages.
    pub fn normalized_complexity(&self) -> f64 {
        self.total_ops().normalized_complexity()
    }
}

/// The candidate-independent half of a run: stage 1's predicted score
/// matrix `Â`, shape `(queries, seq_len)`, with the cost of predicting it,
/// and the K/V projection of every token row. It depends only on the
/// workload and the [`PredictionScheme`], so one prediction serves every
/// keep ratio and tile size ([`SofaPipeline::run_predicted`]).
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted attention scores.
    pub(crate) scores: Matrix,
    /// Operation/traffic statistics of the prediction.
    pub(crate) stats: PredictionStats,
    /// `K = X·W_k` for every token row, shape `(seq_len, head_dim)`.
    pub(crate) keys: Matrix,
    /// `V = X·W_v` for every token row, shape `(seq_len, head_dim)`.
    pub(crate) values: Matrix,
}

/// The configurable SOFA pipeline.
#[derive(Debug, Clone, Copy)]
pub struct SofaPipeline {
    cfg: PipelineConfig,
}

impl SofaPipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(cfg: PipelineConfig) -> Self {
        SofaPipeline { cfg }
    }

    /// This pipeline's schemes (prediction/sorting/formal, SADS tuning) at
    /// one layer of an operating point: the keep ratio and tile size are
    /// swapped for `op`'s, everything else is inherited. This is how a
    /// multi-layer lowering switches tile size and keep ratio between layer
    /// invocations.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of the point's range.
    pub(crate) fn at_layer(&self, op: &OperatingPoint, layer: usize) -> SofaPipeline {
        let mut cfg = self.cfg;
        cfg.keep_ratio = op.keep(layer);
        cfg.tile_size = op.tile(layer);
        SofaPipeline::new(cfg)
    }

    /// Runs the pipeline on a batch of independent workloads — one serving
    /// request each — at a **single-layer** operating point, returning one
    /// result per workload in input order. For multi-layer points use
    /// [`SofaPipeline::run_layers`]; keeping the two entry points separate
    /// means a layer count that happens to match the batch length can never
    /// silently change what a call computes. Schemes come from this
    /// pipeline (`SofaPipeline::at_layer`).
    ///
    /// From the results, [`PipelineResult::tile_selection_stats`] and
    /// `sofa_hw::SofaAccelerator::request_descriptors` produce per-request
    /// tile descriptor streams for multi-instance cycle simulation. (The
    /// `sofa-serve` experiments lower requests from expected-value
    /// statistics instead, trading mask fidelity for sweep speed.)
    ///
    /// Workloads are independent, so the batch fans out across CPU cores
    /// (`sofa_par::par_map_index`, worker count from `SOFA_THREADS`).
    /// Results are bit-identical to calling [`SofaPipeline::run`] per
    /// workload, at any thread count — the differential property test in
    /// `tests/property_tests.rs` enforces this.
    ///
    /// # Panics
    ///
    /// Panics if `op` has more than one layer.
    pub fn run_batch(
        &self,
        op: &OperatingPoint,
        workloads: &[AttentionWorkload],
    ) -> Vec<PipelineResult> {
        assert_eq!(
            op.layers(),
            1,
            "run_batch broadcasts a single-layer point; use run_layers for \
             per-layer lowering"
        );
        self.run_mapped(op, workloads, |_| 0)
    }

    /// Runs one workload per layer of `op`, workload `i` at layer `i`'s
    /// keep ratio and tile size — the per-layer lowering path of a
    /// multi-layer request, switching the operating point between layer
    /// invocations. Same parallelism and determinism guarantees as
    /// [`SofaPipeline::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the workload count differs from `op`'s layer count.
    pub fn run_layers(
        &self,
        op: &OperatingPoint,
        layer_workloads: &[AttentionWorkload],
    ) -> Vec<PipelineResult> {
        assert_eq!(
            layer_workloads.len(),
            op.layers(),
            "run_layers needs exactly one workload per layer"
        );
        self.run_mapped(op, layer_workloads, |i| i)
    }

    /// Shared fan-out of `run_batch`/`run_layers`: workload `i` runs at
    /// layer `layer_of(i)` of `op`.
    fn run_mapped(
        &self,
        op: &OperatingPoint,
        workloads: &[AttentionWorkload],
        layer_of: impl Fn(usize) -> usize + Sync,
    ) -> Vec<PipelineResult> {
        sofa_par::par_map_index(workloads.len(), |i| {
            self.at_layer(op, layer_of(i)).run(&workloads[i])
        })
    }

    /// Runs the full pipeline on one workload.
    pub fn run(&self, w: &AttentionWorkload) -> PipelineResult {
        self.run_predicted(w, &self.predict(w))
    }

    /// The candidate-independent half: predicts `w`'s attention scores with
    /// this pipeline's [`PredictionScheme`] (stage 1) and projects every K/V
    /// row. The keep ratio and tile size play no part.
    pub fn predict(&self, w: &AttentionWorkload) -> Prediction {
        let mut stats = PredictionStats::default();
        let scores = match self.cfg.prediction {
            PredictionScheme::Dlzs => {
                let (scores, dlzs) = DlzsPredictor::prepare(&w.wk).predict(&w.x, &w.q);
                stats = dlzs;
                scores
            }
            PredictionScheme::Int4Multiply => predict_scores_int4(&w.x, &w.wk, &w.q, &mut stats),
            PredictionScheme::VanillaLz => predict_scores_vanilla_lz(&w.x, &w.wk, &w.q, &mut stats),
        };
        let (keys, values) = project_kv(w);
        Prediction {
            scores,
            stats,
            keys,
            values,
        }
    }

    /// Stages 2–4 on an existing `prediction` of `w` (from
    /// [`SofaPipeline::predict`] under the same prediction scheme). Together
    /// the two calls are [`SofaPipeline::run`], bit for bit.
    pub fn run_predicted(&self, w: &AttentionWorkload, prediction: &Prediction) -> PipelineResult {
        let s = w.seq_len();
        let k = resolve_k(s, self.cfg.keep_ratio);
        let predicted_scores = &prediction.scores;

        // Stage 2: top-k sorting.
        let (mask, sorting_ops) = match self.cfg.sorting {
            SortingScheme::Sads => {
                let sads = SadsConfig::from_tile_size(
                    s,
                    self.cfg.tile_size,
                    self.cfg.radius_frac,
                    self.cfg.refine_iters,
                );
                sads_topk(predicted_scores, k, &sads)
            }
            SortingScheme::FullSort => {
                let mut ops = OpCounts::new();
                let mask = topk_exact(predicted_scores, k, &mut ops);
                (mask, ops)
            }
        };

        // Stage 3: on-demand KV generation — only the keys any query needs.
        // The rows were projected with the prediction; the hardware would
        // generate exactly the needed ones, and stage 4 reads only those.
        let keys_generated = mask.union_of_keys().len();
        let kv_generation_ops = kv_generation_ops(w, keys_generated);
        let (keys, values) = (&prediction.keys, &prediction.values);

        // Stage 4: formal compute.
        let mut formal_ops = OpCounts::new();
        let (output, sufa_stats) = match self.cfg.formal {
            FormalScheme::SuFa(order) => {
                sorted_updating_attention(&w.q, keys, values, &mask, order, &mut formal_ops)
            }
            FormalScheme::Flash(version) => (
                flash_over_mask(
                    &w.q,
                    keys,
                    values,
                    &mask,
                    &FlashConfig::new(self.cfg.tile_size, version),
                    &mut formal_ops,
                ),
                SuFaStats::default(),
            ),
        };

        PipelineResult {
            output,
            mask,
            prediction: prediction.stats,
            sorting_ops,
            kv_generation_ops,
            formal_ops,
            sufa_stats,
            keys_generated,
        }
    }
}

/// Projects every token row into `K = X·W_k` and `V = X·W_v`.
///
/// Each output row accumulates `x_i · W[i]` over the weight rows `i` in
/// ascending order into a zeroed row, streaming `W_k`/`W_v` row-major. Every
/// element is the sum `0.0 + x_0·w_0j + x_1·w_1j + …` in that order, so the
/// bits equal a column-at-a-time dot product.
fn project_kv(w: &AttentionWorkload) -> (Matrix, Matrix) {
    let d = w.wk.cols();
    let mut keys = Matrix::zeros(w.seq_len(), d);
    let mut values = Matrix::zeros(w.seq_len(), d);
    for row in 0..w.seq_len() {
        let (k_row, v_row) = (keys.row_mut(row), values.row_mut(row));
        for (i, &x) in w.x.row(row).iter().enumerate() {
            for ((k, v), (&wk, &wv)) in k_row
                .iter_mut()
                .zip(v_row.iter_mut())
                .zip(w.wk.row(i).iter().zip(w.wv.row(i)))
            {
                *k += x * wk;
                *v += x * wv;
            }
        }
    }
    (keys, values)
}

/// Operation counts of generating `rows` K/V rows on demand: one multiply
/// and one add per MAC of both projections.
fn kv_generation_ops(w: &AttentionWorkload, rows: usize) -> OpCounts {
    let macs = 2 * (rows * w.x.cols() * w.wk.cols()) as u64;
    let mut ops = OpCounts::new();
    ops.record(OpKind::Mul, macs);
    ops.record(OpKind::Add, macs);
    ops
}

/// Baseline formal compute: per query row, gather the selected keys/values and
/// run FlashAttention over them (order-agnostic — it re-derives the maximum).
fn flash_over_mask(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &TopKMask,
    cfg: &FlashConfig,
    ops: &mut OpCounts,
) -> Matrix {
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for i in 0..q.rows() {
        let selected = mask.row(i);
        if selected.is_empty() {
            continue;
        }
        let qi = q.select_rows(&[i]);
        // Gather in ascending key order (the baseline has no rank information).
        let mut idx = selected.to_vec();
        idx.sort_unstable();
        let ki = k.select_rows(&idx);
        let vi = v.select_rows(&idx);
        let oi = crate::flash::flash_attention(&qi, &ki, &vi, cfg, ops);
        out.row_mut(i).copy_from_slice(oi.row(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::ScoreDistribution;
    use sofa_tensor::stats::mean_row_cosine;

    fn workload() -> AttentionWorkload {
        AttentionWorkload::generate(&ScoreDistribution::bert_like(), 8, 128, 48, 32, 321)
    }

    #[test]
    fn config_validation() {
        assert!(PipelineConfig::new(0.0, 16).is_err());
        assert!(PipelineConfig::new(1.1, 16).is_err());
        assert!(PipelineConfig::new(0.5, 0).is_err());
        assert!(PipelineConfig::new(0.25, 16).is_ok());
        assert!(PipelineConfig::baseline(0.25, 16).is_ok());
    }

    #[test]
    fn sofa_pipeline_output_approximates_dense() {
        let w = workload();
        let cfg = PipelineConfig::new(0.3, 16).unwrap();
        let result = SofaPipeline::new(cfg).run(&w);
        assert_eq!(result.output.shape(), (8, 32));
        let dense = w.dense_output();
        let cos = mean_row_cosine(&result.output, &dense);
        assert!(cos > 0.9, "sparse output should track dense output: {cos}");
    }

    #[test]
    fn run_batch_matches_individual_runs() {
        let workloads = [
            workload(),
            AttentionWorkload::generate(&ScoreDistribution::gpt_like(), 4, 64, 32, 16, 99),
        ];
        let pipeline = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap());
        let batch = pipeline.run_batch(&OperatingPoint::single(0.25, 16), &workloads);
        assert_eq!(batch.len(), 2);
        for (r, w) in batch.iter().zip(workloads.iter()) {
            let solo = pipeline.run(w);
            assert_eq!(r.output, solo.output, "batch entry must equal solo run");
            assert_eq!(r.mask, solo.mask);
        }
        // Each entry exports its own per-tile selection stats.
        let stats = batch[1].tile_selection_stats(16);
        assert_eq!(stats.num_tiles(), 64 / 16);
    }

    #[test]
    fn multi_layer_points_switch_keep_and_tile_between_layers() {
        // A two-layer point must run workload i at layer i's configuration —
        // identical to building that layer's pipeline by hand.
        let workloads = [workload(), workload()];
        let op = OperatingPoint::new(vec![0.1, 0.4], vec![8, 32]).unwrap();
        let pipeline = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap());
        let batch = pipeline.run_layers(&op, &workloads);
        for (layer, r) in batch.iter().enumerate() {
            let solo =
                SofaPipeline::new(PipelineConfig::for_layer(&op, layer)).run(&workloads[layer]);
            assert_eq!(r.output, solo.output, "layer {layer}");
            assert_eq!(r.mask, solo.mask, "layer {layer}");
        }
        // Distinct layers really saw distinct operating points.
        assert_ne!(batch[0].mask, batch[1].mask);
    }

    #[test]
    #[should_panic(expected = "one workload per layer")]
    fn run_layers_rejects_mismatched_batches() {
        let pipeline = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap());
        let _ = pipeline.run_layers(&OperatingPoint::paper_default(3), &[workload()]);
    }

    #[test]
    #[should_panic(expected = "broadcasts a single-layer point")]
    fn run_batch_rejects_multi_layer_points() {
        // A layer count that happens to equal the batch length must not
        // silently turn a request batch into per-layer lowering.
        let pipeline = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap());
        let _ = pipeline.run_batch(&OperatingPoint::paper_default(2), &[workload(), workload()]);
    }

    #[test]
    fn run_batch_is_bit_identical_at_any_thread_count() {
        let workloads = [
            workload(),
            AttentionWorkload::generate(&ScoreDistribution::gpt_like(), 4, 64, 32, 16, 99),
            AttentionWorkload::generate(&ScoreDistribution::vit_like(), 8, 96, 48, 32, 7),
        ];
        let pipeline = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap());
        let op = OperatingPoint::single(0.25, 16);
        let solo: Vec<PipelineResult> = workloads.iter().map(|w| pipeline.run(w)).collect();
        for threads in [1usize, 2, 8] {
            let batch = sofa_par::with_threads(threads, || pipeline.run_batch(&op, &workloads));
            assert_eq!(batch.len(), solo.len());
            for (b, s) in batch.iter().zip(solo.iter()) {
                assert_eq!(b.output, s.output, "threads={threads}");
                assert_eq!(b.mask, s.mask, "threads={threads}");
                assert_eq!(b.total_ops(), s.total_ops(), "threads={threads}");
            }
        }
    }

    #[test]
    fn pipeline_respects_keep_ratio() {
        let w = workload();
        let cfg = PipelineConfig::new(0.25, 16).unwrap();
        let result = SofaPipeline::new(cfg).run(&w);
        assert!((result.mask.keep_ratio() - 0.25).abs() < 0.02);
        assert!(result.keys_generated <= w.seq_len());
        assert!(
            result.keys_generated >= 32,
            "several keys must be generated"
        );
    }

    #[test]
    fn on_demand_kv_generates_fewer_keys_than_full() {
        let w = workload();
        let cfg = PipelineConfig::new(0.1, 16).unwrap();
        let result = SofaPipeline::new(cfg).run(&w);
        assert!(
            result.keys_generated < w.seq_len(),
            "only {} of {} keys should be generated",
            result.keys_generated,
            w.seq_len()
        );
    }

    #[test]
    fn sofa_is_cheaper_than_baseline_pipeline() {
        // Fig. 17: the full SOFA stack reduces normalized complexity versus
        // 4-bit-multiply prediction + whole-row sort + FA-2.
        let w = workload();
        let sofa = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap()).run(&w);
        let base = SofaPipeline::new(PipelineConfig::baseline(0.25, 16).unwrap()).run(&w);
        assert!(
            sofa.normalized_complexity() < base.normalized_complexity(),
            "SOFA {} should be cheaper than baseline {}",
            sofa.normalized_complexity(),
            base.normalized_complexity()
        );
    }

    #[test]
    fn ablation_is_monotonic() {
        // Each SOFA component should reduce (or at least not increase) the
        // total complexity: baseline → +DLZS → +SADS → +SU-FA. Averaged over
        // seeds because the SADS adjustive-exchange cost is data-dependent
        // (single workloads can sit within a percent of the full sort).
        let keep = 0.25;
        let bc = 16;
        let run = |cfg: PipelineConfig| -> f64 {
            [321u64, 322, 323]
                .iter()
                .map(|&seed| {
                    let w = AttentionWorkload::generate(
                        &ScoreDistribution::bert_like(),
                        8,
                        128,
                        48,
                        32,
                        seed,
                    );
                    SofaPipeline::new(cfg).run(&w).normalized_complexity()
                })
                .sum::<f64>()
                / 3.0
        };
        let c0 = run(PipelineConfig::baseline(keep, bc).unwrap());
        let c1 = run(PipelineConfig::baseline(keep, bc)
            .unwrap()
            .with_prediction(PredictionScheme::Dlzs));
        let c2 = run(PipelineConfig::baseline(keep, bc)
            .unwrap()
            .with_prediction(PredictionScheme::Dlzs)
            .with_sorting(SortingScheme::Sads));
        let c3 = run(PipelineConfig::new(keep, bc).unwrap());
        assert!(c1 < c0, "DLZS should reduce complexity ({c1} vs {c0})");
        assert!(
            c2 <= c1,
            "SADS should not increase complexity ({c2} vs {c1})"
        );
        assert!(
            c3 <= c2,
            "SU-FA should not increase complexity ({c3} vs {c2})"
        );
    }

    #[test]
    fn flash_formal_stage_matches_sufa_output() {
        let w = workload();
        let sufa_cfg = PipelineConfig::new(0.3, 16).unwrap();
        let flash_cfg = sufa_cfg.with_formal(FormalScheme::Flash(FlashVersion::V2));
        let a = SofaPipeline::new(sufa_cfg).run(&w);
        let b = SofaPipeline::new(flash_cfg).run(&w);
        // Same prediction + sorting configuration ⇒ same mask ⇒ same output.
        let cos = mean_row_cosine(&a.output, &b.output);
        assert!(cos > 0.999, "formal stages disagree: {cos}");
    }

    /// The column-at-a-time on-demand K/V loop: one dot product per output
    /// element through `Matrix::get`, for the `needed` rows only, into zeroed
    /// matrices.
    fn reference_kv(
        w: &AttentionWorkload,
        needed: &[usize],
        ops: &mut OpCounts,
    ) -> (Matrix, Matrix) {
        let d = w.wk.cols();
        let n = w.x.cols();
        let mut keys = Matrix::zeros(w.seq_len(), d);
        let mut values = Matrix::zeros(w.seq_len(), d);
        for &row in needed {
            let xrow = w.x.row(row);
            for j in 0..d {
                let mut ka = 0.0f32;
                let mut va = 0.0f32;
                for (i, &x) in xrow.iter().enumerate() {
                    ka += x * w.wk.get(i, j);
                    va += x * w.wv.get(i, j);
                }
                keys.set(row, j, ka);
                values.set(row, j, va);
            }
            ops.record(OpKind::Mul, 2 * (n * d) as u64);
            ops.record(OpKind::Add, 2 * (n * d) as u64);
        }
        (keys, values)
    }

    /// Stages 2–4 as an on-demand run computes them: top-k on the predicted
    /// scores, then only the needed K/V rows generated by the column loop
    /// (every other row left zero), then the formal stage on those buffers.
    fn reference_on_demand_run(
        cfg: &PipelineConfig,
        w: &AttentionWorkload,
        scores: &Matrix,
    ) -> (
        Matrix,
        TopKMask,
        OpCounts,
        OpCounts,
        OpCounts,
        SuFaStats,
        usize,
    ) {
        let s = w.seq_len();
        let k = resolve_k(s, cfg.keep_ratio);
        let (mask, sorting_ops) = match cfg.sorting {
            SortingScheme::Sads => sads_topk(
                scores,
                k,
                &SadsConfig::from_tile_size(s, cfg.tile_size, cfg.radius_frac, cfg.refine_iters),
            ),
            SortingScheme::FullSort => {
                let mut ops = OpCounts::new();
                (topk_exact(scores, k, &mut ops), ops)
            }
        };
        let needed = mask.union_of_keys();
        let mut kv_ops = OpCounts::new();
        let (keys, values) = reference_kv(w, &needed, &mut kv_ops);
        let mut formal_ops = OpCounts::new();
        let (output, sufa) = match cfg.formal {
            FormalScheme::SuFa(order) => {
                sorted_updating_attention(&w.q, &keys, &values, &mask, order, &mut formal_ops)
            }
            FormalScheme::Flash(version) => (
                flash_over_mask(
                    &w.q,
                    &keys,
                    &values,
                    &mask,
                    &FlashConfig::new(cfg.tile_size, version),
                    &mut formal_ops,
                ),
                SuFaStats::default(),
            ),
        };
        (
            output,
            mask,
            sorting_ops,
            kv_ops,
            formal_ops,
            sufa,
            needed.len(),
        )
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The projected K/V rows carry the column loop's exact bits, and
        /// `run_predicted` counts stage 3 exactly as generating the mask's
        /// key union on demand would, on random shapes (widths of 1 and odd
        /// sizes included) and keep ratios from a single key to every key.
        #[test]
        fn row_major_kv_matches_the_column_loop_bit_for_bit(
            shape in (1usize..40, 1usize..20, 1usize..20, 0u64..1000),
            keep in 0.01f64..1.0,
            bc in 1usize..48,
        ) {
            let (seq_len, input_dim, head_dim, seed) = shape;
            let w = AttentionWorkload::generate(
                &ScoreDistribution::bert_like(),
                2,
                seq_len,
                input_dim,
                head_dim,
                seed,
            );
            let pipeline = SofaPipeline::new(PipelineConfig::new(keep, bc).unwrap());
            let prediction = pipeline.predict(&w);
            let all: Vec<usize> = (0..seq_len).collect();
            let (keys, values) = reference_kv(&w, &all, &mut OpCounts::new());
            proptest::prop_assert_eq!(bits(&prediction.keys), bits(&keys));
            proptest::prop_assert_eq!(bits(&prediction.values), bits(&values));

            let result = pipeline.run_predicted(&w, &prediction);
            let needed = result.mask.union_of_keys();
            let mut ref_ops = OpCounts::new();
            let _ = reference_kv(&w, &needed, &mut ref_ops);
            proptest::prop_assert_eq!(result.kv_generation_ops, ref_ops);
            proptest::prop_assert_eq!(result.keys_generated, needed.len());
        }

        /// One prediction, reused across a keep × Bc grid, reproduces an
        /// on-demand run bit for bit: the rows outside each mask are
        /// projected too, and no formal stage may read them.
        #[test]
        fn a_shared_prediction_matches_on_demand_runs_bit_for_bit(
            shape in (1usize..6, 1usize..96, 1usize..24, 1usize..20),
            seed in 0u64..1000,
            flash in proptest::bool::ANY,
        ) {
            let (queries, seq_len, input_dim, head_dim) = shape;
            let w = AttentionWorkload::generate(
                &ScoreDistribution::gpt_like(),
                queries,
                seq_len,
                input_dim,
                head_dim,
                seed,
            );
            let shared = SofaPipeline::new(PipelineConfig::new(0.5, 16).unwrap()).predict(&w);
            for keep in [0.01, 0.05, 0.25, 0.6, 1.0] {
                for bc in [1, 2, 5, 16, 28, 64] {
                    let mut cfg = PipelineConfig::new(keep, bc).unwrap();
                    if flash {
                        cfg = cfg.with_formal(FormalScheme::Flash(FlashVersion::V2));
                    }
                    let got = SofaPipeline::new(cfg).run_predicted(&w, &shared);
                    let (output, mask, sorting, kv, formal, sufa, keys) =
                        reference_on_demand_run(&cfg, &w, &shared.scores);
                    proptest::prop_assert_eq!(bits(&got.output), bits(&output));
                    proptest::prop_assert_eq!(&got.mask, &mask);
                    proptest::prop_assert_eq!(got.prediction, shared.stats);
                    proptest::prop_assert_eq!(got.sorting_ops, sorting);
                    proptest::prop_assert_eq!(got.kv_generation_ops, kv);
                    proptest::prop_assert_eq!(got.formal_ops, formal);
                    proptest::prop_assert_eq!(got.sufa_stats, sufa);
                    proptest::prop_assert_eq!(got.keys_generated, keys);
                }
            }
        }
    }

    #[test]
    fn run_is_predict_then_run_predicted_for_every_scheme() {
        let w = workload();
        for prediction in [
            PredictionScheme::Dlzs,
            PredictionScheme::Int4Multiply,
            PredictionScheme::VanillaLz,
        ] {
            for sorting in [SortingScheme::Sads, SortingScheme::FullSort] {
                for formal in [
                    FormalScheme::SuFa(SuFaOrder::Descending),
                    FormalScheme::Flash(FlashVersion::V2),
                ] {
                    let pipeline = SofaPipeline::new(
                        PipelineConfig::new(0.25, 16)
                            .unwrap()
                            .with_prediction(prediction)
                            .with_sorting(sorting)
                            .with_formal(formal),
                    );
                    let whole = pipeline.run(&w);
                    let split = pipeline.run_predicted(&w, &pipeline.predict(&w));
                    let case = format!("{prediction:?} {sorting:?} {formal:?}");
                    assert_eq!(bits(&split.output), bits(&whole.output), "{case}");
                    assert_eq!(split.mask, whole.mask, "{case}");
                    assert_eq!(split.prediction, whole.prediction, "{case}");
                    assert_eq!(split.sorting_ops, whole.sorting_ops, "{case}");
                    assert_eq!(split.kv_generation_ops, whole.kv_generation_ops, "{case}");
                    assert_eq!(split.formal_ops, whole.formal_ops, "{case}");
                    assert_eq!(split.sufa_stats, whole.sufa_stats, "{case}");
                    assert_eq!(split.keys_generated, whole.keys_generated, "{case}");
                }
            }
        }
    }

    #[test]
    fn one_prediction_serves_every_keep_ratio_and_tile() {
        // Stage 1 ignores (keep, Bc): a prediction made at one point reproduces
        // full runs at others.
        let w = workload();
        let shared = SofaPipeline::new(PipelineConfig::new(0.5, 32).unwrap()).predict(&w);
        for (keep, bc) in [(0.1, 4), (0.25, 16), (0.9, 64)] {
            let pipeline = SofaPipeline::new(PipelineConfig::new(keep, bc).unwrap());
            let whole = pipeline.run(&w);
            let split = pipeline.run_predicted(&w, &shared);
            assert_eq!(bits(&split.output), bits(&whole.output), "({keep}, {bc})");
            assert_eq!(split.mask, whole.mask, "({keep}, {bc})");
            assert_eq!(split.total_ops(), whole.total_ops(), "({keep}, {bc})");
        }
    }

    #[test]
    fn total_ops_sums_stages() {
        let w = workload();
        let r = SofaPipeline::new(PipelineConfig::new(0.25, 16).unwrap()).run(&w);
        let total = r.total_ops();
        assert_eq!(
            total.shift,
            r.prediction.ops.shift
                + r.sorting_ops.shift
                + r.kv_generation_ops.shift
                + r.formal_ops.shift
        );
        assert!(total.total_ops() > 0);
        assert!(!format!("{:?}", r.sufa_stats).is_empty());
    }
}
