//! Fixed-point quantisation used by SOFA's mixed-precision pipeline.
//!
//! The paper's pre-compute stage operates on low-precision operands (4/8-bit
//! tokens, leading-zero-encoded weights) while the formal computing stage uses
//! 16-bit values. This module provides symmetric linear quantisation of whole
//! matrices to an arbitrary bit-width, so that the algorithm crates can reason
//! about prediction error in exactly the same way the hardware would.

use crate::matrix::Matrix;

/// Parameters of a symmetric linear quantiser: `q = clamp(round(x / scale))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Bit-width of the signed integer representation (2..=16).
    pub(crate) bits: u32,
    /// Scale factor mapping reals to integers.
    pub scale: f32,
}

impl QuantParams {
    /// Derives parameters so that `max_abs` maps onto the largest representable
    /// magnitude for the given `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=16`.
    pub(crate) fn from_max_abs(bits: u32, max_abs: f32) -> Self {
        assert!((2..=16).contains(&bits), "bits must be within 2..=16");
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let max_abs = if max_abs <= f32::EPSILON {
            1.0
        } else {
            max_abs
        };
        QuantParams {
            bits,
            scale: max_abs / qmax,
        }
    }

    /// Derives parameters from the observed dynamic range of a matrix.
    pub(crate) fn fit(bits: u32, m: &Matrix) -> Self {
        let max_abs = m.as_slice().iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
        Self::from_max_abs(bits, max_abs)
    }

    /// Largest representable positive integer value.
    pub(crate) fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Smallest representable (negative) integer value.
    pub(crate) fn qmin(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Quantises a single value to the integer grid.
    pub(crate) fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round() as i32;
        q.clamp(self.qmin(), self.qmax())
    }
}

/// A quantised matrix: integer codes plus the parameters to decode them.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Quantisation parameters used to produce the codes.
    pub params: QuantParams,
    rows: usize,
    cols: usize,
    codes: Vec<i32>,
}

impl Quantized {
    /// Quantises `m` with the given bit-width, fitting the scale to its range.
    pub fn from_matrix(bits: u32, m: &Matrix) -> Self {
        let params = QuantParams::fit(bits, m);
        Self::from_matrix_with(params, m)
    }

    /// Quantises `m` with explicit parameters.
    pub(crate) fn from_matrix_with(params: QuantParams, m: &Matrix) -> Self {
        let codes = m.as_slice().iter().map(|&x| params.quantize(x)).collect();
        Quantized {
            params,
            rows: m.rows(),
            cols: m.cols(),
            codes,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Integer code at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn code(&self, i: usize, j: usize) -> i32 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.codes[i * self.cols + j]
    }

    /// All integer codes in row-major order.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Integer codes of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[i32] {
        assert!(i < self.rows, "row index out of bounds");
        &self.codes[i * self.cols..(i + 1) * self.cols]
    }
}

/// Number of bytes needed to store `elements` values at `bits` precision,
/// rounding up to whole bytes per element group (hardware-style packing).
pub fn packed_bytes(elements: usize, bits: u32) -> usize {
    (elements * bits as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean absolute error of the dequantised codes against `original`.
    fn mean_abs_error(q: &Quantized, original: &Matrix) -> f32 {
        let n = original.as_slice().len() as f32;
        original
            .as_slice()
            .iter()
            .zip(q.codes())
            .map(|(a, &c)| (a - c as f32 * q.params.scale).abs())
            .sum::<f32>()
            / n
    }

    #[test]
    fn quant_params_round_trip_extremes() {
        let p = QuantParams::from_max_abs(8, 2.0);
        assert_eq!(p.qmax(), 127);
        assert_eq!(p.qmin(), -128);
        assert_eq!(p.quantize(2.0), 127);
        assert_eq!(p.quantize(-2.0), -127);
        assert_eq!(p.quantize(100.0), 127, "saturates above range");
        assert_eq!(p.quantize(-100.0), -128, "saturates below range");
    }

    #[test]
    fn quantize_zero_is_zero() {
        for bits in [4, 8, 16] {
            let p = QuantParams::from_max_abs(bits, 3.7);
            assert_eq!(p.quantize(0.0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bits must be within")]
    fn invalid_bits_panics() {
        let _ = QuantParams::from_max_abs(1, 1.0);
    }

    #[test]
    fn fit_handles_zero_matrix() {
        let m = Matrix::zeros(2, 2);
        let p = QuantParams::fit(8, &m);
        assert!(p.scale > 0.0, "scale must stay positive for a zero matrix");
    }

    #[test]
    fn round_trip_error_shrinks_with_bits() {
        let m = Matrix::from_fn(16, 16, |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5);
        let e4 = mean_abs_error(&Quantized::from_matrix(4, &m), &m);
        let e8 = mean_abs_error(&Quantized::from_matrix(8, &m), &m);
        let e16 = mean_abs_error(&Quantized::from_matrix(16, &m), &m);
        assert!(e4 > e8, "4-bit error {e4} should exceed 8-bit error {e8}");
        assert!(
            e8 > e16,
            "8-bit error {e8} should exceed 16-bit error {e16}"
        );
        assert!(e16 < 1e-3);
    }

    #[test]
    fn codes_and_rows_accessible() {
        let m = Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 0.25]]).unwrap();
        let q = Quantized::from_matrix(8, &m);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.codes().len(), 4);
        assert_eq!(q.row(0).len(), 2);
        assert_eq!(q.code(0, 0), 127);
        assert_eq!(q.code(0, 1), -127);
    }

    #[test]
    fn packed_bytes_examples() {
        assert_eq!(packed_bytes(8, 8), 8);
        assert_eq!(packed_bytes(8, 4), 4);
        assert_eq!(packed_bytes(3, 4), 2, "12 bits round up to 2 bytes");
        assert_eq!(packed_bytes(0, 16), 0);
    }
}
