//! Numeric substrate for the SOFA reproduction.
//!
//! This crate provides the low-level building blocks every other crate in the
//! workspace relies on:
//!
//! * [`Matrix`] — a small, dense, row-major `f32` matrix with the handful of
//!   linear-algebra operations attention needs (matmul, transpose, row views).
//! * [`fixed`] — INT8/INT16 fixed-point quantisation used by the SOFA
//!   pre-compute stage (the paper predicts attention with 4/8-bit operands and
//!   computes formally in 16-bit).
//! * [`softmax`] — numerically stable reference softmax.
//! * [`attention`] — dense reference attention (`softmax(QKᵀ/√d)·V`) used as
//!   the ground truth for every sparse/approximate scheme in the workspace.
//! * [`stats`] — error metrics (cosine similarity, recall, …) used by
//!   the accuracy-proxy evaluation.
//! * [`rng`] — deterministic RNG construction so experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use sofa_tensor::{Matrix, attention::dense_attention};
//!
//! let q = Matrix::from_fn(4, 8, |i, j| (i + j) as f32 * 0.01);
//! let k = Matrix::from_fn(16, 8, |i, j| (i * j) as f32 * 0.01);
//! let v = Matrix::from_fn(16, 8, |i, j| (i as f32 - j as f32) * 0.01);
//! let out = dense_attention(&q, &k, &v);
//! assert_eq!(out.rows(), 4);
//! assert_eq!(out.cols(), 8);
//! ```

pub mod attention;
pub mod fixed;
pub mod matrix;
pub mod rng;
pub mod softmax;
pub mod stats;

pub use matrix::Matrix;
pub use rng::seeded_rng;

/// Errors produced by the numeric substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand (rows, cols).
        lhs: (usize, usize),
        /// Shape of the right-hand operand (rows, cols).
        rhs: (usize, usize),
    },
    /// A dimension argument was zero or otherwise invalid.
    InvalidDimension {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// The offending value.
        value: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { op, value } => {
                write!(f, "invalid dimension {value} in {op}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));

        let e = TensorError::InvalidDimension {
            op: "from_fn",
            value: 0,
        };
        assert!(e.to_string().contains("from_fn"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
