//! Numerically stable softmax.
//!
//! The dense reference implementation used throughout the workspace. Sparse
//! and tiled variants (FlashAttention, SU-FA) in `sofa-core` are validated
//! against this module.

use crate::matrix::Matrix;

/// Computes the softmax of a single row in a numerically stable way
/// (subtracting the row maximum before exponentiation).
///
/// Returns a vector of the same length. An empty input yields an empty output.
///
/// # Example
///
/// ```
/// let p = sofa_tensor::softmax::softmax_row(&[1.0, 2.0, 3.0]);
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax_row(row: &[f32]) -> Vec<f32> {
    if row.is_empty() {
        return Vec::new();
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // All inputs were -inf; fall back to a uniform distribution.
        return vec![1.0 / row.len() as f32; row.len()];
    }
    let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum == 0.0 {
        return vec![1.0 / row.len() as f32; row.len()];
    }
    exps.into_iter().map(|e| e / sum).collect()
}

/// Applies [`softmax_row`] to every row of `m`.
pub(crate) fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for i in 0..m.rows() {
        let p = softmax_row(m.row(i));
        out.row_mut(i).copy_from_slice(&p);
    }
    out
}

/// Computes a masked softmax of a row: positions where `mask[j]` is `false`
/// receive probability zero and are excluded from the normalisation.
///
/// This is the semantics of top-k sparse attention — pruned Q-K pairs simply
/// do not participate.
///
/// # Panics
///
/// Panics if `row.len() != mask.len()`.
pub(crate) fn masked_softmax_row(row: &[f32], mask: &[bool]) -> Vec<f32> {
    assert_eq!(row.len(), mask.len(), "mask length must match row length");
    let max = row
        .iter()
        .zip(mask.iter())
        .filter(|(_, &m)| m)
        .map(|(&x, _)| x)
        .fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return vec![0.0; row.len()];
    }
    let exps: Vec<f32> = row
        .iter()
        .zip(mask.iter())
        .map(|(&x, &m)| if m { (x - max).exp() } else { 0.0 })
        .collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_row_sums_to_one_and_is_monotone() {
        let p = softmax_row(&[0.0, 1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        for w in p.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn softmax_row_is_shift_invariant() {
        let a = softmax_row(&[1.0, 2.0, 3.0]);
        let b = softmax_row(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_row_handles_extreme_values() {
        let p = softmax_row(&[-1e30, 0.0, 1e30]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_and_all_neg_inf() {
        assert!(softmax_row(&[]).is_empty());
        let p = softmax_row(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!((p[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_applies_per_row() {
        let m = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 10.0]]).unwrap();
        let s = softmax_rows(&m);
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(s.get(1, 1) > 0.99);
    }

    #[test]
    fn masked_softmax_excludes_masked_entries() {
        let p = masked_softmax_row(&[5.0, 100.0, 5.0], &[true, false, true]);
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn masked_softmax_all_false_is_zero() {
        let p = masked_softmax_row(&[1.0, 2.0], &[false, false]);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn masked_softmax_length_mismatch_panics() {
        let _ = masked_softmax_row(&[1.0], &[true, false]);
    }
}
