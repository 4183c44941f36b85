//! Leading-zero encoding (LZE) — the log-domain representation behind DLZS.
//!
//! An integer `x` is approximated by its sign and the position of its most
//! significant set bit: `|x| ≈ 2^(e-1)` where `e = W − LZ(x)` (`W` = bit
//! width, `LZ` = leading-zero count). The paper calls `e` the leading-zero
//! code; weights are pre-converted to this 4-bit code offline so the
//! pre-compute stage never multiplies — it only shifts the full-precision
//! operand by `e − 1`.
//!
//! Two multiplication approximations are provided:
//!
//! * [`approx_mul_dlzs`] — *differential*: one operand keeps full precision,
//!   the other contributes only its exponent (one shift). This is SOFA's
//!   scheme: `24 × 6 ≈ 24 << 2 = 96` (exact 144).
//! * [`approx_mul_vanilla`] — both operands are reduced to powers of two:
//!   `24 × 6 ≈ 16 × 4 = 64`. Twice the converters and roughly twice the error
//!   (paper Fig. 7(b)/(c)).

/// A leading-zero code: sign plus MSB position (`0` encodes the value zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LzCode {
    /// `true` if the encoded value was negative.
    pub(crate) negative: bool,
    /// MSB position `e = W − LZ(|x|)`; `0` means the value was zero.
    /// For 8-bit inputs `e ∈ 0..=8` (4-bit code), for 16-bit inputs
    /// `e ∈ 0..=16` (5-bit code).
    pub(crate) exponent: u8,
}

impl LzCode {
    /// The code for zero.
    pub(crate) const ZERO: LzCode = LzCode {
        negative: false,
        exponent: 0,
    };

    /// Returns `true` if this code represents zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.exponent == 0
    }

    /// Number of storage bits of this code for a `width`-bit source operand:
    /// `ceil(log2(width+1))` exponent bits plus one sign bit.
    pub(crate) fn storage_bits(width: u32) -> u32 {
        let mut bits = 0;
        while (1u32 << bits) < width + 1 {
            bits += 1;
        }
        bits + 1
    }
}

/// Encodes an integer that is known to fit in `width` bits (signed).
///
/// # Panics
///
/// Panics if `width` is not 8 or 16, or if `value` does not fit in `width`
/// signed bits.
pub fn encode(value: i32, width: u32) -> LzCode {
    assert!(width == 8 || width == 16, "only 8- and 16-bit modes exist");
    let limit = 1i32 << (width - 1);
    assert!(
        value >= -limit && value < limit || value == limit - 1 || value == -limit,
        "value {value} does not fit in {width} signed bits"
    );
    let mag = value.unsigned_abs();
    if mag == 0 {
        return LzCode::ZERO;
    }
    let e = 32 - mag.leading_zeros();
    LzCode {
        negative: value < 0,
        exponent: e as u8,
    }
}

/// DLZS multiplication: the full-precision operand is shifted by the code's
/// exponent. `x · y ≈ sign · |x| << (e(y) − 1)`.
pub fn approx_mul_dlzs(full: i32, code: LzCode) -> i64 {
    if code.is_zero() || full == 0 {
        return 0;
    }
    let mag = (full.unsigned_abs() as i64) << (code.exponent - 1);
    let negative = (full < 0) ^ code.negative;
    if negative {
        -mag
    } else {
        mag
    }
}

/// Vanilla leading-zero multiplication: both operands reduced to their leading
/// one. `x · y ≈ sign · 2^(e(x)−1+e(y)−1)`.
pub fn approx_mul_vanilla(a: LzCode, b: LzCode) -> i64 {
    if a.is_zero() || b.is_zero() {
        return 0;
    }
    let mag = 1i64 << ((a.exponent - 1) + (b.exponent - 1));
    if a.negative ^ b.negative {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean absolute relative error of an approximate-product function over
    /// all pairs of the operand sets (exact zero products are skipped).
    fn mean_relative_error(lhs: &[i32], rhs: &[i32], approx: impl Fn(i32, i32) -> i64) -> f64 {
        let mut total = 0.0;
        let mut n = 0u64;
        for &a in lhs {
            for &b in rhs {
                let exact = a as i64 * b as i64;
                if exact != 0 {
                    total += ((exact - approx(a, b)).abs() as f64) / (exact.abs() as f64);
                    n += 1;
                }
            }
        }
        total / n as f64
    }

    #[test]
    fn encode_zero_and_powers() {
        assert_eq!(encode(0, 8), LzCode::ZERO);
        assert!(encode(0, 8).is_zero());
        assert_eq!(encode(1, 8).exponent, 1);
        assert_eq!(encode(2, 8).exponent, 2);
        assert_eq!(encode(64, 8).exponent, 7);
        assert_eq!(encode(127, 8).exponent, 7);
        assert_eq!(encode(-128, 8).exponent, 8);
        assert!(encode(-3, 8).negative);
    }

    #[test]
    fn encode_i16_wide_values() {
        assert_eq!(encode(255, 16).exponent, 8);
        assert_eq!(encode(256, 16).exponent, 9);
        assert_eq!(encode(i16::MAX.into(), 16).exponent, 15);
        assert_eq!(encode(i16::MIN.into(), 16).exponent, 16);
    }

    #[test]
    fn code_magnitude_and_value() {
        // -24 keeps its sign and its leading one: -16 = -(1 << (5 - 1)).
        let c = encode(-24, 8);
        assert_eq!(c.exponent, 5);
        assert!(c.negative);
        assert_eq!(LzCode::ZERO.exponent, 0);
    }

    #[test]
    fn storage_bits_are_compact() {
        // 8-bit operands need a 4-bit exponent (0..=8) + sign.
        assert_eq!(LzCode::storage_bits(8), 5);
        // 16-bit operands need a 5-bit exponent (0..=16) + sign.
        assert_eq!(LzCode::storage_bits(16), 6);
    }

    #[test]
    fn paper_worked_example() {
        // 24 × 6 = 144. DLZS: 24 << (e(6)-1) = 24 << 2 = 96.
        // Vanilla: 16 × 4 = 64.
        let six = encode(6, 8);
        assert_eq!(approx_mul_dlzs(24, six), 96);
        assert_eq!(approx_mul_vanilla(encode(24, 8), six), 64);
        let exact = 144i64;
        assert!((exact - 96).abs() < (exact - 64).abs(), "DLZS is closer");
    }

    #[test]
    fn dlzs_sign_handling() {
        let c = encode(-6, 8);
        assert_eq!(approx_mul_dlzs(24, c), -96);
        assert_eq!(approx_mul_dlzs(-24, c), 96);
        assert_eq!(approx_mul_dlzs(0, c), 0);
        assert_eq!(approx_mul_dlzs(24, LzCode::ZERO), 0);
    }

    #[test]
    fn vanilla_sign_and_zero() {
        assert_eq!(approx_mul_vanilla(encode(-8, 8), encode(8, 8)), -64);
        assert_eq!(approx_mul_vanilla(LzCode::ZERO, encode(5, 8)), 0);
    }

    #[test]
    fn dlzs_error_is_lower_than_vanilla() {
        let xs: Vec<i32> = (-127..=127).step_by(3).collect();
        let ys: Vec<i32> = (-127..=127).step_by(7).collect();
        let dlzs_err = mean_relative_error(&xs, &ys, |a, b| approx_mul_dlzs(a, encode(b, 8)));
        let vanilla_err = mean_relative_error(&xs, &ys, |a, b| {
            approx_mul_vanilla(encode(a, 8), encode(b, 8))
        });
        assert!(
            dlzs_err < vanilla_err,
            "DLZS error {dlzs_err} must beat vanilla {vanilla_err}"
        );
        // The paper claims roughly half the error.
        assert!(dlzs_err < 0.75 * vanilla_err);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_of_range_value_panics() {
        let _ = encode(300, 8);
    }

    #[test]
    fn dlzs_never_overestimates_by_more_than_2x() {
        // |x|·2^(e(y)-1) ≤ |x·y| < |x|·2^(e(y)), so the approximation is
        // within [0.5, 1] of the exact magnitude.
        for a in [-113i32, -5, 3, 77, 127] {
            for b in [-128i32, -9, 1, 6, 100] {
                let exact = (a as i64 * b as i64).abs();
                let approx = approx_mul_dlzs(a, encode(b, 8)).abs();
                assert!(approx <= exact, "{a}*{b}: {approx} > {exact}");
                assert!(2 * approx >= exact, "{a}*{b}: {approx} < half of {exact}");
            }
        }
    }
}
