//! Accuracy-proxy evaluation.
//!
//! The paper's evaluation reports computation savings "with 0 %/1 %/2 %
//! accuracy loss". Without the original checkpoints and datasets we use a
//! proxy (documented in `DESIGN.md`): the loss of a sparse configuration is
//! `1 − mean row-wise cosine similarity` between the sparse attention output
//! and the dense reference. The proxy is monotone in the same direction as
//! task accuracy — keeping fewer Q-K pairs can only move the output further
//! from the dense result — so the "smallest k under a loss budget" search
//! behaves like the paper's per-dataset top-k tuning.

use crate::pipeline::{PipelineConfig, SofaPipeline};
use sofa_model::AttentionWorkload;
use sofa_tensor::stats::mean_row_cosine;
use sofa_tensor::Matrix;

/// Accuracy proxy: `1 − mean row cosine similarity` between a sparse output
/// and the dense reference. 0 means identical, larger means worse.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn proxy_loss(sparse_output: &Matrix, dense_output: &Matrix) -> f64 {
    (1.0 - mean_row_cosine(sparse_output, dense_output) as f64).max(0.0)
}

/// The outcome of evaluating one keep-ratio on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    /// The keep ratio that was evaluated.
    pub keep_ratio: f64,
    /// The measured proxy loss.
    pub loss: f64,
    /// Fraction of attention-stage computation removed relative to dense
    /// (1 − keep_ratio, since the formal stage scales with kept pairs).
    pub(crate) attention_compute_saving: f64,
}

/// Evaluates the proxy loss of the SOFA pipeline at a specific keep ratio.
pub fn evaluate_keep_ratio(
    workload: &AttentionWorkload,
    dense_output: &Matrix,
    keep_ratio: f64,
    tile_size: usize,
) -> AccuracyPoint {
    let cfg = PipelineConfig::new(keep_ratio, tile_size).expect("keep_ratio validated by caller");
    let result = SofaPipeline::new(cfg).run(workload);
    AccuracyPoint {
        keep_ratio,
        loss: proxy_loss(&result.output, dense_output),
        attention_compute_saving: 1.0 - keep_ratio,
    }
}

/// Finds the smallest keep ratio (from the provided candidate grid, which must
/// be sorted ascending) whose proxy loss stays within `loss_budget`.
/// Falls back to the largest candidate if none satisfies the budget.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn smallest_keep_ratio_within_budget(
    workload: &AttentionWorkload,
    loss_budget: f64,
    candidates: &[f64],
    tile_size: usize,
) -> AccuracyPoint {
    assert!(!candidates.is_empty(), "candidate grid must not be empty");
    let dense = workload.dense_output();
    let mut last = None;
    for &keep in candidates {
        let point = evaluate_keep_ratio(workload, &dense, keep, tile_size);
        last = Some(point);
        if point.loss <= loss_budget {
            return point;
        }
    }
    last.expect("candidates is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::ScoreDistribution;

    /// Keep ratios from 5 % to 50 % in 5 % steps, then dense.
    const GRID: [f64; 11] = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 1.0];

    fn workload() -> AttentionWorkload {
        AttentionWorkload::generate(&ScoreDistribution::bert_like(), 8, 128, 48, 32, 77)
    }

    #[test]
    fn proxy_loss_zero_for_identical() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f32 + 1.0);
        assert_eq!(proxy_loss(&m, &m), 0.0);
    }

    #[test]
    fn proxy_loss_decreases_with_keep_ratio() {
        let w = workload();
        let dense = w.dense_output();
        let low = evaluate_keep_ratio(&w, &dense, 0.05, 16);
        let high = evaluate_keep_ratio(&w, &dense, 0.5, 16);
        assert!(
            high.loss <= low.loss + 1e-6,
            "keeping more pairs must not hurt: {} vs {}",
            high.loss,
            low.loss
        );
        assert!(high.attention_compute_saving < low.attention_compute_saving);
    }

    #[test]
    fn full_keep_ratio_has_negligible_loss() {
        let w = workload();
        let dense = w.dense_output();
        let p = evaluate_keep_ratio(&w, &dense, 1.0, 16);
        assert!(
            p.loss < 1e-3,
            "keeping everything should match dense: {}",
            p.loss
        );
    }

    #[test]
    fn budget_search_returns_feasible_point_when_possible() {
        let w = workload();
        let point = smallest_keep_ratio_within_budget(&w, 0.02, &GRID, 16);
        assert!(point.loss <= 0.02 || (point.keep_ratio - 1.0).abs() < 1e-9);
        assert!(point.keep_ratio > 0.0 && point.keep_ratio <= 1.0);
    }

    #[test]
    fn tighter_budget_keeps_more() {
        let w = workload();
        let strict = smallest_keep_ratio_within_budget(&w, 0.0005, &GRID, 16);
        let loose = smallest_keep_ratio_within_budget(&w, 0.05, &GRID, 16);
        assert!(strict.keep_ratio >= loose.keep_ratio);
    }

    #[test]
    #[should_panic(expected = "candidate grid")]
    fn empty_grid_panics() {
        let w = workload();
        let _ = smallest_keep_ratio_within_budget(&w, 0.01, &[], 16);
    }
}
