//! Error metrics and small statistics helpers.
//!
//! The accuracy-proxy evaluation in `sofa-core` compares sparse attention
//! outputs with the dense reference using these metrics; the DSE objective
//! consumes them as its `L_en` term.

use crate::matrix::Matrix;

/// Cosine similarity between two vectors. Returns 1.0 for two zero vectors
/// and 0.0 if exactly one is zero.
pub(crate) fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vectors must have the same length");
    let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 && nb == 0.0 {
        1.0
    } else if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Mean over rows of the cosine similarity between corresponding rows of two
/// matrices.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mean_row_cosine(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "matrices must have the same shape");
    if a.rows() == 0 {
        return 1.0;
    }
    let mut acc = 0.0;
    for i in 0..a.rows() {
        acc += cosine_similarity(a.row(i), b.row(i));
    }
    acc / a.rows() as f32
}

/// Maximum absolute element-wise difference.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "matrices must have the same shape");
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Recall of `predicted` against `reference`: `|P ∩ R| / |R|`.
/// Returns 1.0 when the reference set is empty.
pub fn recall(predicted: &[usize], reference: &[usize]) -> f64 {
    use std::collections::HashSet;
    if reference.is_empty() {
        return 1.0;
    }
    let p: HashSet<usize> = predicted.iter().copied().collect();
    let hit = reference.iter().filter(|x| p.contains(x)).count();
    hit as f64 / reference.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basic_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[0.0, 0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_row_cosine_identical_matrices_is_one() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + 2 * j) as f32 + 1.0);
        assert!((mean_row_cosine(&m, &m) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_abs_diff_finds_largest() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.0, 2.5], vec![0.0, 4.0]]).unwrap();
        assert!((max_abs_diff(&a, &b) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn set_metrics() {
        assert_eq!(recall(&[1, 2], &[]), 1.0);
        assert!((recall(&[1, 2, 5], &[1, 2, 3, 4]) - 0.5).abs() < 1e-12);
    }
}
