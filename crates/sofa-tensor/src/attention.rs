//! Dense reference attention.
//!
//! `dense_attention` is the ground truth every approximate scheme in the
//! workspace (DLZS prediction, SADS top-k, SU-FA) is validated against.

use crate::matrix::Matrix;
use crate::softmax::{masked_softmax_row, softmax_rows};

/// Computes the raw attention scores `Q · Kᵀ / √d`.
///
/// `q` is `(T, d)` (queries/tokens processed in parallel), `k` is `(S, d)`
/// (context keys). The result is `(T, S)`.
///
/// # Panics
///
/// Panics if the head dimensions of `q` and `k` differ.
pub fn attention_scores(q: &Matrix, k: &Matrix) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "Q and K head dimensions must match");
    let scale = 1.0 / (q.cols() as f32).sqrt();
    q.matmul_transposed(k)
        .expect("dimension checked above")
        .scaled(scale)
}

/// Computes full dense attention `softmax(Q·Kᵀ/√d)·V`.
///
/// Shapes: `q: (T, d)`, `k: (S, d)`, `v: (S, d)` → output `(T, d)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn dense_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
    assert_eq!(
        k.rows(),
        v.rows(),
        "K and V must have the same context length"
    );
    let scores = attention_scores(q, k);
    let probs = softmax_rows(&scores);
    probs.matmul(v).expect("probabilities and V are conformant")
}

/// Computes attention with a per-row boolean mask over the keys: masked-out
/// Q-K pairs contribute nothing (top-k sparse attention semantics).
///
/// `mask` is `(T, S)` where entry `(i, j)` selects whether key `j` attends to
/// query `i`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn masked_attention(q: &Matrix, k: &Matrix, v: &Matrix, mask: &[Vec<bool>]) -> Matrix {
    assert_eq!(
        k.rows(),
        v.rows(),
        "K and V must have the same context length"
    );
    assert_eq!(mask.len(), q.rows(), "mask must have one row per query");
    let scores = attention_scores(q, k);
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for (i, mask_row) in mask.iter().enumerate() {
        assert_eq!(mask_row.len(), k.rows(), "mask row length must equal S");
        let probs = masked_softmax_row(scores.row(i), mask_row);
        for (j, &p) in probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let vrow = v.row(j);
            for (c, acc) in out.row_mut(i).iter_mut().enumerate() {
                *acc += p * vrow[c];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn scores_scale_by_sqrt_d() {
        let q = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0]]).unwrap();
        let k = Matrix::from_rows(&[vec![2.0, 0.0, 0.0, 0.0]]).unwrap();
        let s = attention_scores(&q, &k);
        assert!((s.get(0, 0) - 1.0).abs() < 1e-6, "2 / sqrt(4) = 1");
    }

    #[test]
    fn dense_attention_output_shape() {
        let q = random_matrix(5, 8, 1);
        let k = random_matrix(12, 8, 2);
        let v = random_matrix(12, 8, 3);
        let o = dense_attention(&q, &k, &v);
        assert_eq!(o.shape(), (5, 8));
    }

    #[test]
    fn attention_with_identical_keys_averages_values() {
        // If all scores are equal the output is the mean of V rows.
        let q = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        let k = Matrix::from_rows(&[vec![1.0, 1.0], vec![-1.0, 2.0], vec![0.5, 0.5]]).unwrap();
        let v = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 3.0], vec![3.0, 3.0]]).unwrap();
        let o = dense_attention(&q, &k, &v);
        assert!((o.get(0, 0) - 2.0).abs() < 1e-6);
        assert!((o.get(0, 1) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn full_mask_equals_dense() {
        let q = random_matrix(4, 16, 10);
        let k = random_matrix(32, 16, 11);
        let v = random_matrix(32, 16, 12);
        let mask = vec![vec![true; 32]; 4];
        let dense = dense_attention(&q, &k, &v);
        let masked = masked_attention(&q, &k, &v, &mask);
        for i in 0..4 {
            for j in 0..16 {
                assert!((dense.get(i, j) - masked.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn single_key_mask_returns_that_value_row() {
        let q = random_matrix(1, 4, 20);
        let k = random_matrix(6, 4, 21);
        let v = random_matrix(6, 4, 22);
        let mut mask = vec![vec![false; 6]];
        mask[0][3] = true;
        let o = masked_attention(&q, &k, &v, &mask);
        for j in 0..4 {
            assert!((o.get(0, j) - v.get(3, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_mask_row_yields_zero_output() {
        let q = random_matrix(1, 4, 30);
        let k = random_matrix(6, 4, 31);
        let v = random_matrix(6, 4, 32);
        let mask = vec![vec![false; 6]];
        let o = masked_attention(&q, &k, &v, &mask);
        assert!(o.as_slice().iter().all(|&x| x == 0.0));
    }
}
