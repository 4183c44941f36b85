//! Exact top-k selection (the vanilla sorting baseline) and the top-k mask
//! representation shared by all stages.
//!
//! The vanilla dynamic-sparsity flow sorts each *whole row* of the predicted
//! attention matrix to pick its k largest entries — which both serialises the
//! pipeline (the row must be complete before sorting starts) and costs
//! `O(S log S)` comparisons per row. SOFA's SADS (see [`crate::sads`])
//! replaces it; this module provides the exact reference and the mask type.

use crate::ops::{OpCounts, OpKind};
use sofa_tensor::Matrix;
use std::cell::Cell;

/// The per-query selection of vital keys produced by the top-k stage.
///
/// Indices in each row are ordered by decreasing predicted score, so
/// `rows[i][0]` is the predicted argmax — exactly the information SU-FA's
/// descending update order consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKMask {
    /// Context length `S` the mask refers to.
    seq_len: usize,
    /// Selected key indices per query row, sorted by descending score.
    rows: Vec<Vec<usize>>,
}

impl TopKMask {
    /// Builds a mask from per-row index lists (already sorted by descending
    /// predicted score).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `seq_len`.
    pub fn new(seq_len: usize, rows: Vec<Vec<usize>>) -> Self {
        for r in &rows {
            for &i in r {
                assert!(i < seq_len, "index {i} out of bounds for S={seq_len}");
            }
        }
        TopKMask { seq_len, rows }
    }

    /// Number of query rows.
    pub fn queries(&self) -> usize {
        self.rows.len()
    }

    /// Context length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The selected indices of query `i`, ordered by descending score.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.rows[i]
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Total number of kept Q-K pairs.
    pub(crate) fn total_kept(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Average keep ratio across rows.
    pub fn keep_ratio(&self) -> f64 {
        if self.rows.is_empty() || self.seq_len == 0 {
            return 0.0;
        }
        self.total_kept() as f64 / (self.rows.len() * self.seq_len) as f64
    }

    /// Converts to per-row boolean masks of length `seq_len` (the layout
    /// consumed by [`sofa_tensor::attention::masked_attention`]).
    pub fn to_bool_rows(&self) -> Vec<Vec<bool>> {
        self.rows
            .iter()
            .map(|r| {
                let mut m = vec![false; self.seq_len];
                for &i in r {
                    m[i] = true;
                }
                m
            })
            .collect()
    }

    /// The set of key indices needed by *any* query (deduplicated, ascending).
    /// This is what the on-demand KV generation stage materialises.
    pub fn union_of_keys(&self) -> Vec<usize> {
        let mut needed = vec![false; self.seq_len];
        for r in &self.rows {
            for &i in r {
                needed[i] = true;
            }
        }
        needed
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| if n { Some(i) } else { None })
            .collect()
    }
}

/// Resolves a keep-ratio into an integer `k ≥ 1` for rows of length `seq_len`.
///
/// # Panics
///
/// Panics if `keep_ratio` is not within `(0, 1]`.
pub fn resolve_k(seq_len: usize, keep_ratio: f64) -> usize {
    assert!(
        keep_ratio > 0.0 && keep_ratio <= 1.0,
        "keep ratio must be in (0, 1], got {keep_ratio}"
    );
    ((seq_len as f64 * keep_ratio).round() as usize).clamp(1, seq_len)
}

/// Exact top-k of one row by full sorting, counting every comparison the sort
/// performs (the "vanilla sorting" baseline of the paper's ablation).
/// Returns indices sorted by descending value.
pub fn topk_row_exact(row: &[f32], k: usize, ops: &mut OpCounts) -> Vec<usize> {
    let k = k.min(row.len());
    let mut idx: Vec<usize> = (0..row.len()).collect();
    let comparisons = Cell::new(0u64);
    idx.sort_by(|&a, &b| {
        comparisons.set(comparisons.get() + 1);
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ops.record(OpKind::Cmp, comparisons.get());
    idx.truncate(k);
    idx
}

/// Exact top-k over every row of a score matrix (whole-row processing).
pub fn topk_exact(scores: &Matrix, k: usize, ops: &mut OpCounts) -> TopKMask {
    let rows = (0..scores.rows())
        .map(|i| topk_row_exact(scores.row(i), k, ops))
        .collect();
    TopKMask::new(scores.cols(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_row_returns_largest_indices_in_order() {
        let row = [0.1f32, 5.0, -1.0, 3.0, 4.0];
        let mut ops = OpCounts::new();
        let top = topk_row_exact(&row, 3, &mut ops);
        assert_eq!(top, vec![1, 4, 3]);
        assert!(ops.cmp > 0, "comparisons must be counted");
    }

    #[test]
    fn topk_row_k_larger_than_row() {
        let row = [1.0f32, 2.0];
        let mut ops = OpCounts::new();
        assert_eq!(topk_row_exact(&row, 10, &mut ops).len(), 2);
    }

    #[test]
    fn topk_exact_masks_each_row() {
        let m = Matrix::from_rows(&[vec![1.0, 9.0, 2.0, 8.0], vec![4.0, 3.0, 2.0, 1.0]]).unwrap();
        let mut ops = OpCounts::new();
        let mask = topk_exact(&m, 2, &mut ops);
        assert_eq!(mask.queries(), 2);
        assert_eq!(mask.row(0), &[1, 3]);
        assert_eq!(mask.row(1), &[0, 1]);
        assert_eq!(mask.total_kept(), 4);
        assert!((mask.keep_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mask_bool_rows_and_union() {
        let mask = TopKMask::new(5, vec![vec![4, 0], vec![4, 2]]);
        let rows = mask.to_bool_rows();
        assert_eq!(rows[0], vec![true, false, false, false, true]);
        assert_eq!(rows[1], vec![false, false, true, false, true]);
        assert_eq!(mask.union_of_keys(), vec![0, 2, 4]);
        assert_eq!(mask.iter().count(), 2);
        assert_eq!(mask.seq_len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn mask_rejects_out_of_range_indices() {
        let _ = TopKMask::new(3, vec![vec![3]]);
    }

    #[test]
    fn resolve_k_bounds() {
        assert_eq!(resolve_k(100, 0.25), 25);
        assert_eq!(resolve_k(100, 1.0), 100);
        assert_eq!(resolve_k(3, 0.01), 1, "never below 1");
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn resolve_k_rejects_zero() {
        let _ = resolve_k(10, 0.0);
    }

    #[test]
    fn empty_mask_keep_ratio_is_zero() {
        let mask = TopKMask::new(0, vec![]);
        assert_eq!(mask.keep_ratio(), 0.0);
    }
}
