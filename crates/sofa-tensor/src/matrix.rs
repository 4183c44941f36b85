//! A small dense row-major `f32` matrix.
//!
//! The SOFA workloads only need a handful of operations: construction,
//! element access, matrix multiplication (optionally against a transposed
//! right-hand side), row slicing and a few reductions. Keeping the type tiny
//! and predictable makes the algorithm crates easy to audit against the paper.

use crate::TensorError;

/// Dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use sofa_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Reshapes this matrix in place to `rows × cols` with every entry reset
    /// to zero, reusing the existing allocation when it is large enough.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        self.data.clear();
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_vec",
                value: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the rows are empty or have
    /// differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, TensorError> {
        if rows.is_empty() {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_rows",
                value: 0,
            });
        }
        let cols = rows[0].len();
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_rows",
                value: cols,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix that is the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Computes `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Computes `self * rhsᵀ` without materialising the transpose.
    ///
    /// This is the natural layout for attention scores `Q · Kᵀ` where `Q` and
    /// `K` are both stored token-major.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..rhs.rows {
                let brow = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in arow.iter().zip(brow.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        Ok(out)
    }

    /// Multiplies every element by `scale`, returning a new matrix.
    pub(crate) fn scaled(&self, scale: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * scale).collect(),
        }
    }

    /// Returns a sub-matrix made of the given rows (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (oi, &ri) in indices.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(ri));
        }
        out
    }

    /// Returns the maximum element, or `f32::NEG_INFINITY` for an empty matrix.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Returns the minimum element, or `f32::INFINITY` for an empty matrix.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Returns the mean of all elements (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Returns the Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeros_matches_fresh_allocation_across_reshapes() {
        let mut m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 + 1.0);
        m.reset_zeros(2, 5);
        assert_eq!(m, Matrix::zeros(2, 5), "shrink must zero every entry");
        m.set(1, 4, 7.0);
        m.reset_zeros(4, 6);
        assert_eq!(m, Matrix::zeros(4, 6), "grow must zero every entry");
        m.reset_zeros(0, 0);
        assert!(m.as_slice().is_empty());
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_validates() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f32);
        let i = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 6, |i, j| (i as f32 * 0.3) - (j as f32 * 0.7));
        let b = Matrix::from_fn(5, 6, |i, j| (i as f32 * 0.1) + (j as f32 * 0.2));
        let via_t = a.matmul(&b.transpose()).unwrap();
        let direct = a.matmul_transposed(&b).unwrap();
        assert_eq!(via_t.shape(), direct.shape());
        for i in 0..4 {
            for j in 0..5 {
                assert!((via_t.get(i, j) - direct.get(i, j)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 7, |i, j| (i * 13 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (7, 3));
    }

    #[test]
    fn row_access_and_mutation() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        m.set(0, 2, 9.0);
        assert_eq!(m.get(0, 2), 9.0);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 0.0]]).unwrap();
        assert_eq!(m.max(), 3.0);
        assert_eq!(m.min(), -2.0);
        assert!((m.mean() - 0.5).abs() < 1e-6);
        assert!((m.frobenius_norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn add_sub_scaled() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(a.scaled(2.0).row(0), &[2.0, 4.0]);
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_fn(5, 3, |i, j| (i + j) as f32);
        assert_eq!(m.iter_rows().count(), 5);
        for (i, r) in m.iter_rows().enumerate() {
            assert_eq!(r, m.row(i));
        }
    }
}
