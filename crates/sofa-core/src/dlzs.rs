//! Cross-phase DLZS sparsity prediction (paper §III-A, Fig. 7).
//!
//! The pre-compute stage of dynamic sparsity has to estimate the attention
//! matrix  just to decide which Q-K pairs matter, and at LTPP scale a naïve
//! low-precision matrix multiply already costs more power than the formal
//! computation it is trying to save. SOFA replaces every multiplication in
//! the prediction path with a shift:
//!
//! 1. **Offline** — the key projection weights `W_k` are quantised to 8 bits
//!    and converted once into 4-bit leading-zero codes ([`LzCode`]).
//! 2. **Key-prediction phase** — `K̂ = X ⊙ W_k` where `⊙` shifts the 8-bit
//!    token value by the weight's exponent and accumulates (no multiplier, no
//!    on-line converter).
//! 3. **Attention-prediction phase** — `Q` is converted to 5-bit codes by the
//!    configurable LZE (to avoid compounding the error, the *other* operand
//!    `K̂` keeps its 16-bit value) and `Â = K̂ ⊙ Q` is again a shift-add.
//!
//! Two baselines are provided for the ablation experiments: a 4-bit
//! multiplication predictor (what prior accelerators do) and the vanilla
//! leading-one scheme that converts *both* operands.

use crate::lze::{approx_mul_dlzs, approx_mul_vanilla, encode, LzCode};
use crate::ops::{OpCounts, OpKind};
use sofa_tensor::fixed::{packed_bytes, Quantized};
use sofa_tensor::Matrix;

/// Operation and traffic statistics of one prediction pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictionStats {
    /// Primitive operations executed.
    pub ops: OpCounts,
    /// Bytes of weight data that must be streamed from DRAM.
    pub(crate) weight_bytes: u64,
    /// Bytes of token/query activations streamed from DRAM.
    pub(crate) activation_bytes: u64,
}

/// The DLZS predictor with pre-converted `W_k` codes.
#[derive(Debug, Clone)]
pub struct DlzsPredictor {
    /// Each leading-zero code of the quantised `W_k` as the signed shift it
    /// applies, `approx_mul_dlzs(1, code) = ±2^(e−1)` (0 for a zero code),
    /// row-major with shape `(input_dim, head_dim)`.
    wk_shifts: Vec<i64>,
    /// Nonzero codes per `W_k` row: the shift-add lanes a nonzero token
    /// value drives through that row.
    row_lanes: Vec<u64>,
    input_dim: usize,
    head_dim: usize,
    /// Scale of the quantised weights (kept to report a consistently scaled K̂).
    wk_scale: f32,
}

impl DlzsPredictor {
    /// Pre-deployment preparation: quantises `wk` to 8 bits and converts it to
    /// leading-zero codes (paper Fig. 16, "Preprocess: Convert Wk in LZ
    /// format and store").
    pub fn prepare(wk: &Matrix) -> Self {
        let q = Quantized::from_matrix(8, wk);
        let wk_shifts: Vec<i64> = q
            .codes()
            .iter()
            .map(|&c| approx_mul_dlzs(1, encode(c, 8)))
            .collect();
        let row_lanes = (0..wk.rows())
            .map(|n| {
                let shifts = &wk_shifts[n * wk.cols()..(n + 1) * wk.cols()];
                shifts.iter().filter(|&&m| m != 0).count() as u64
            })
            .collect();
        DlzsPredictor {
            wk_shifts,
            row_lanes,
            input_dim: wk.rows(),
            head_dim: wk.cols(),
            wk_scale: q.params.scale,
        }
    }

    /// Bytes of DRAM the pre-converted weights occupy (4-bit exponent + sign
    /// packed into 5 bits per weight, as in the paper's storage analysis).
    pub(crate) fn weight_storage_bytes(&self) -> u64 {
        packed_bytes(self.input_dim * self.head_dim, LzCode::storage_bits(8)) as u64
    }

    /// Phase 1.1 — predicts `K̂ = X · W_k` with shift-add only.
    ///
    /// `x` has shape `(seq_len, input_dim)`; the result has shape
    /// `(seq_len, head_dim)` and is returned on the same scale as an exact
    /// `X·W_k` product (so it can be compared against the true keys).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub(crate) fn predict_keys(&self, x: &Matrix, stats: &mut PredictionStats) -> Matrix {
        assert_eq!(x.cols(), self.input_dim, "token width mismatch");
        let xq = Quantized::from_matrix(8, x);
        let out_scale = xq.params.scale * self.wk_scale;
        // Each nonzero token value shifts one whole `W_k` row into the
        // accumulators (the zero-eliminator drops zero tokens and zero codes,
        // which shift to 0). Integer sums do not depend on order, so K̂ equals
        // the per-element dot product. Token rows are independent: fan out
        // across cores and merge in row order (bit-identical at any thread
        // count).
        let rows = sofa_par::par_map_index(x.rows(), |i| {
            let mut acc = vec![0i64; self.head_dim];
            let mut lanes = 0;
            for (n, &xv) in xq.row(i).iter().enumerate() {
                if xv == 0 {
                    continue;
                }
                lanes += self.row_lanes[n];
                let xv = i64::from(xv);
                let shifts = &self.wk_shifts[n * self.head_dim..(n + 1) * self.head_dim];
                for (a, &m) in acc.iter_mut().zip(shifts) {
                    *a += xv * m;
                }
            }
            // Truncated to 16 bits in hardware before the next phase.
            let vals: Vec<f32> = acc
                .iter()
                .map(|&a| a.clamp(i16::MIN as i64, i16::MAX as i64) as f32 * out_scale)
                .collect();
            (vals, lanes)
        });
        let mut out = Matrix::zeros(x.rows(), self.head_dim);
        for (i, (vals, lanes)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            record_shift_adds(&mut stats.ops, lanes);
        }
        stats.weight_bytes += self.weight_storage_bytes();
        stats.activation_bytes += (x.rows() * x.cols()) as u64; // 8-bit tokens
        out
    }

    /// Phase 1.2 — predicts `Â = Q · K̂ᵀ` with `Q` converted to the log domain.
    ///
    /// `q` has shape `(queries, head_dim)`, `k_hat` has shape
    /// `(seq_len, head_dim)`; the result is `(queries, seq_len)`.
    ///
    /// # Panics
    ///
    /// Panics if the head dimensions disagree.
    pub(crate) fn predict_scores(
        &self,
        q: &Matrix,
        k_hat: &Matrix,
        stats: &mut PredictionStats,
    ) -> Matrix {
        assert_eq!(q.cols(), k_hat.cols(), "head dimension mismatch");
        let qq = Quantized::from_matrix(16, q);
        let kq = Quantized::from_matrix(16, k_hat);
        let out_scale = qq.params.scale * kq.params.scale;
        // Convert Q once per element (configurable 16-bit LZE), kept as the
        // signed shift each code applies.
        let q_shifts: Vec<i64> = qq
            .codes()
            .iter()
            .map(|&c| approx_mul_dlzs(1, encode(c, 16)))
            .collect();
        stats.ops.record(OpKind::LzEncode, q_shifts.len() as u64);
        // Nonzero K̂ values per head-dimension column: a nonzero query code
        // in column `d` drives that many shift-add lanes.
        let mut col_lanes = vec![0u64; q.cols()];
        for j in 0..kq.rows() {
            for (lanes, &kv) in col_lanes.iter_mut().zip(kq.row(j)) {
                *lanes += u64::from(kv != 0);
            }
        }

        // Query rows are independent — same fan-out/ordered-merge scheme as
        // the key-prediction phase (bit-identical at any thread count).
        let rows = sofa_par::par_map_index(q.rows(), |i| {
            let shifts = &q_shifts[i * q.cols()..(i + 1) * q.cols()];
            let lanes = shifts
                .iter()
                .zip(&col_lanes)
                .filter(|&(&m, _)| m != 0)
                .map(|(_, &n)| n)
                .sum();
            let vals: Vec<f32> = (0..kq.rows())
                .map(|j| {
                    let acc: i64 = kq
                        .row(j)
                        .iter()
                        .zip(shifts)
                        .map(|(&kv, &m)| i64::from(kv) * m)
                        .sum();
                    acc as f32 * out_scale
                })
                .collect();
            (vals, lanes)
        });
        let mut out = Matrix::zeros(q.rows(), k_hat.rows());
        for (i, (vals, lanes)) in rows.into_iter().enumerate() {
            out.row_mut(i).copy_from_slice(&vals);
            record_shift_adds(&mut stats.ops, lanes);
        }
        stats.activation_bytes += (q.rows() * q.cols() * 2) as u64; // 16-bit Q
        out
    }

    /// Runs both phases: predicts `K̂` from the tokens, then `Â` from `Q` and
    /// `K̂`. Returns the predicted score matrix together with the statistics.
    pub fn predict(&self, x: &Matrix, q: &Matrix) -> (Matrix, PredictionStats) {
        let mut stats = PredictionStats::default();
        let k_hat = self.predict_keys(x, &mut stats);
        let scores = self.predict_scores(q, &k_hat, &mut stats);
        (scores, stats)
    }
}

/// Counts one shift and one add per active lane.
fn record_shift_adds(ops: &mut OpCounts, lanes: u64) {
    ops.record(OpKind::Shift, lanes);
    ops.record(OpKind::Add, lanes);
}

/// Baseline: 4-bit integer multiplication prediction of `Q·Kᵀ` (what prior
/// dynamic-sparsity accelerators use in their pre-compute stage). The keys are
/// assumed to have been produced by an exact 8-bit `X·W_k`, whose cost is also
/// counted.
pub(crate) fn predict_scores_int4(
    x: &Matrix,
    wk: &Matrix,
    q: &Matrix,
    stats: &mut PredictionStats,
) -> Matrix {
    assert_eq!(x.cols(), wk.rows(), "token width mismatch");
    assert_eq!(q.cols(), wk.cols(), "head dimension mismatch");
    // K generation with 8-bit multiplications.
    let k = x.matmul(wk).expect("shapes checked");
    let macs_k = (x.rows() * x.cols() * wk.cols()) as u64;
    stats.ops.record(OpKind::Mul, macs_k);
    stats.ops.record(OpKind::Add, macs_k);

    // Score prediction with 4-bit multiplications.
    let q4 = Quantized::from_matrix(4, q);
    let k4 = Quantized::from_matrix(4, &k);
    let out_scale = q4.params.scale * k4.params.scale;
    let mut out = Matrix::zeros(q.rows(), k.rows());
    for i in 0..q.rows() {
        let qrow = q4.row(i);
        for j in 0..k.rows() {
            let krow = k4.row(j);
            let mut acc: i64 = 0;
            for (d, &qv) in qrow.iter().enumerate() {
                acc += qv as i64 * krow[d] as i64;
            }
            stats.ops.record(OpKind::Mul, qrow.len() as u64);
            stats.ops.record(OpKind::Add, qrow.len() as u64);
            out.set(i, j, acc as f32 * out_scale);
        }
    }
    stats.weight_bytes += (wk.rows() * wk.cols()) as u64; // 8-bit weights
    stats.activation_bytes += (x.rows() * x.cols()) as u64 + (q.rows() * q.cols()) as u64 / 2;
    out
}

/// Baseline: the vanilla leading-one/zero scheme that converts *both*
/// operands of every multiplication on the fly (paper Fig. 7(b) top).
pub(crate) fn predict_scores_vanilla_lz(
    x: &Matrix,
    wk: &Matrix,
    q: &Matrix,
    stats: &mut PredictionStats,
) -> Matrix {
    assert_eq!(x.cols(), wk.rows(), "token width mismatch");
    assert_eq!(q.cols(), wk.cols(), "head dimension mismatch");
    let xq = Quantized::from_matrix(8, x);
    let wq = Quantized::from_matrix(8, wk);
    let k_scale = xq.params.scale * wq.params.scale;

    // K prediction: both operands converted (2 LZEs per MAC operand pair).
    let mut k_hat = Matrix::zeros(x.rows(), wk.cols());
    for i in 0..x.rows() {
        for j in 0..wk.cols() {
            let mut acc: i64 = 0;
            for n in 0..x.cols() {
                let a = xq.code(i, n);
                let b = wq.code(n, j);
                if a == 0 || b == 0 {
                    continue;
                }
                acc += approx_mul_vanilla(encode(a, 8), encode(b, 8));
                stats.ops.record(OpKind::LzEncode, 2);
                stats.ops.record(OpKind::Shift, 1);
                stats.ops.record(OpKind::Add, 1);
            }
            let acc = acc.clamp(i16::MIN as i64, i16::MAX as i64);
            k_hat.set(i, j, acc as f32 * k_scale);
        }
    }

    // Â prediction, again converting both operands.
    let qq = Quantized::from_matrix(16, q);
    let kq = Quantized::from_matrix(16, &k_hat);
    let out_scale = qq.params.scale * kq.params.scale;
    let mut out = Matrix::zeros(q.rows(), k_hat.rows());
    for i in 0..q.rows() {
        for j in 0..k_hat.rows() {
            let mut acc: i64 = 0;
            for d in 0..q.cols() {
                let a = qq.code(i, d);
                let b = kq.code(j, d);
                if a == 0 || b == 0 {
                    continue;
                }
                acc += approx_mul_vanilla(encode(a, 16), encode(b, 16));
                stats.ops.record(OpKind::LzEncode, 2);
                stats.ops.record(OpKind::Shift, 1);
                stats.ops.record(OpKind::Add, 1);
            }
            out.set(i, j, acc as f32 * out_scale);
        }
    }
    // The vanilla scheme keeps full 8-bit weights/tokens in DRAM.
    stats.weight_bytes += (wk.rows() * wk.cols()) as u64;
    stats.activation_bytes += (x.rows() * x.cols()) as u64 + (q.rows() * q.cols() * 2) as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::{AttentionWorkload, ScoreDistribution};
    use sofa_tensor::stats::recall;

    fn top_indices(row: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
        idx.truncate(k);
        idx
    }

    fn mean_topk_recall(pred: &Matrix, exact: &Matrix, k: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..pred.rows() {
            let p = top_indices(pred.row(i), k);
            let e = top_indices(exact.row(i), k);
            acc += recall(&p, &e);
        }
        acc / pred.rows() as f64
    }

    fn workload() -> AttentionWorkload {
        AttentionWorkload::generate(&ScoreDistribution::bert_like(), 8, 96, 48, 32, 99)
    }

    #[test]
    fn dlzs_prediction_finds_vital_pairs() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (scores, stats) = pred.predict(&w.x, &w.q);
        assert_eq!(scores.shape(), (8, 96));
        let exact = w.exact_scores();
        let r = mean_topk_recall(&scores, &exact, 96 / 4);
        assert!(r > 0.7, "top-25% recall of DLZS prediction too low: {r}");
        assert_eq!(stats.ops.mul, 0, "DLZS must be multiplier-free");
        assert!(stats.ops.shift > 0);
    }

    #[test]
    fn dlzs_key_prediction_tracks_exact_keys() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let mut stats = PredictionStats::default();
        let k_hat = pred.predict_keys(&w.x, &mut stats);
        let k = w.keys();
        // The log-domain approximation underestimates magnitudes by at most
        // 2x, so the correlation with the exact keys should still be strong.
        let cos = sofa_tensor::stats::mean_row_cosine(&k_hat, &k);
        assert!(cos > 0.8, "K̂ should correlate with K, cosine = {cos}");
    }

    #[test]
    fn dlzs_is_cheaper_than_int4_baseline() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (_, dlzs_stats) = pred.predict(&w.x, &w.q);
        let mut int4_stats = PredictionStats::default();
        let _ = predict_scores_int4(&w.x, &w.wk, &w.q, &mut int4_stats);
        assert!(
            dlzs_stats.ops.normalized_complexity() < int4_stats.ops.normalized_complexity(),
            "DLZS {} should beat 4-bit mul {}",
            dlzs_stats.ops.normalized_complexity(),
            int4_stats.ops.normalized_complexity()
        );
    }

    #[test]
    fn dlzs_uses_fewer_converters_and_bytes_than_vanilla() {
        let w = workload();
        let pred = DlzsPredictor::prepare(&w.wk);
        let (_, dlzs_stats) = pred.predict(&w.x, &w.q);
        let mut vanilla_stats = PredictionStats::default();
        let _ = predict_scores_vanilla_lz(&w.x, &w.wk, &w.q, &mut vanilla_stats);
        assert!(dlzs_stats.ops.lz_encode < vanilla_stats.ops.lz_encode / 2);
        assert!(dlzs_stats.weight_bytes < vanilla_stats.weight_bytes);
    }

    #[test]
    fn dlzs_is_more_accurate_than_vanilla() {
        let w = workload();
        let exact = w.exact_scores();
        let k = 96 / 5;

        let pred = DlzsPredictor::prepare(&w.wk);
        let (dlzs_scores, _) = pred.predict(&w.x, &w.q);
        let mut s = PredictionStats::default();
        let vanilla_scores = predict_scores_vanilla_lz(&w.x, &w.wk, &w.q, &mut s);

        let r_dlzs = mean_topk_recall(&dlzs_scores, &exact, k);
        let r_vanilla = mean_topk_recall(&vanilla_scores, &exact, k);
        assert!(
            r_dlzs >= r_vanilla,
            "DLZS recall {r_dlzs} should be at least vanilla {r_vanilla}"
        );
    }

    #[test]
    fn weight_storage_is_roughly_5_bits_per_weight() {
        let wk = Matrix::from_fn(64, 32, |i, j| ((i * j) % 13) as f32 / 13.0 - 0.4);
        let p = DlzsPredictor::prepare(&wk);
        let bytes = p.weight_storage_bytes();
        assert_eq!(bytes, (64 * 32 * 5u64).div_ceil(8));
    }

    #[test]
    #[should_panic(expected = "token width")]
    fn mismatched_tokens_panic() {
        let wk = Matrix::zeros(8, 4);
        let p = DlzsPredictor::prepare(&wk);
        let mut s = PredictionStats::default();
        let _ = p.predict_keys(&Matrix::zeros(3, 9), &mut s);
    }

    /// The per-element DLZS loops the row-major kernels replaced: one
    /// `approx_mul_dlzs` and one shift/add tally per nonzero lane, K̂
    /// column-strided over the codes.
    fn reference_predict(wk: &Matrix, x: &Matrix, q: &Matrix) -> (Matrix, Matrix, PredictionStats) {
        let mut stats = PredictionStats::default();
        let wq = Quantized::from_matrix(8, wk);
        let wk_codes: Vec<LzCode> = wq.codes().iter().map(|&c| encode(c, 8)).collect();
        let (input_dim, head_dim) = (wk.rows(), wk.cols());
        let xq = Quantized::from_matrix(8, x);
        let out_scale = xq.params.scale * wq.params.scale;
        let mut k_hat = Matrix::zeros(x.rows(), head_dim);
        for i in 0..x.rows() {
            for j in 0..head_dim {
                let mut acc: i64 = 0;
                for n in 0..input_dim {
                    let (xv, code) = (xq.code(i, n), wk_codes[n * head_dim + j]);
                    if xv == 0 || code.is_zero() {
                        continue;
                    }
                    acc += approx_mul_dlzs(xv, code);
                    stats.ops.record(OpKind::Shift, 1);
                    stats.ops.record(OpKind::Add, 1);
                }
                let acc = acc.clamp(i16::MIN as i64, i16::MAX as i64);
                k_hat.set(i, j, acc as f32 * out_scale);
            }
        }
        stats.weight_bytes += packed_bytes(wk_codes.len(), LzCode::storage_bits(8)) as u64;
        stats.activation_bytes += (x.rows() * x.cols()) as u64;

        let qq = Quantized::from_matrix(16, q);
        let kq = Quantized::from_matrix(16, &k_hat);
        let out_scale = qq.params.scale * kq.params.scale;
        let q_codes: Vec<LzCode> = qq.codes().iter().map(|&c| encode(c, 16)).collect();
        stats.ops.record(OpKind::LzEncode, q_codes.len() as u64);
        let mut scores = Matrix::zeros(q.rows(), k_hat.rows());
        for i in 0..q.rows() {
            for j in 0..k_hat.rows() {
                let mut acc: i64 = 0;
                for d in 0..q.cols() {
                    let (kv, code) = (kq.code(j, d), q_codes[i * q.cols() + d]);
                    if kv == 0 || code.is_zero() {
                        continue;
                    }
                    acc += approx_mul_dlzs(kv, code);
                    stats.ops.record(OpKind::Shift, 1);
                    stats.ops.record(OpKind::Add, 1);
                }
                scores.set(i, j, acc as f32 * out_scale);
            }
        }
        stats.activation_bytes += (q.rows() * q.cols() * 2) as u64;
        (k_hat, scores, stats)
    }

    /// A `rows × cols` matrix in `[-1, 1)` where each entry is zero with
    /// probability `zero_frac`, drawn from a splitmix64 stream.
    fn sparse_matrix(rows: usize, cols: usize, zero_frac: f64, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        Matrix::from_fn(rows, cols, |_, _| {
            let (keep, v) = (next() >= zero_frac, next());
            if keep {
                (2.0 * v - 1.0) as f32
            } else {
                0.0
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The row-major kernels reproduce the per-element loops' K̂ and Â
        /// bits and every `PredictionStats` field, on random shapes with
        /// dense to all-zero tokens, weights and queries.
        #[test]
        fn row_major_dlzs_matches_the_element_loops(
            shape in (1usize..6, 1usize..48, 1usize..40, 1usize..24),
            zeros in (0usize..5, 0usize..5, 0usize..5),
            seed in 0u64..1_000_000,
        ) {
            let (queries, seq_len, input_dim, head_dim) = shape;
            // Zero fractions 0, 0.5, 0.9, 0.99 and 1 per operand.
            let frac = |z: usize| [0.0, 0.5, 0.9, 0.99, 1.0][z];
            let x = sparse_matrix(seq_len, input_dim, frac(zeros.0), seed);
            let wk = sparse_matrix(input_dim, head_dim, frac(zeros.1), seed ^ 0xA5);
            let q = sparse_matrix(queries, head_dim, frac(zeros.2), seed ^ 0x5A);
            let (ref_k, ref_scores, ref_stats) = reference_predict(&wk, &x, &q);
            let predictor = DlzsPredictor::prepare(&wk);
            let mut stats = PredictionStats::default();
            let k_hat = predictor.predict_keys(&x, &mut stats);
            let scores = predictor.predict_scores(&q, &k_hat, &mut stats);
            proptest::prop_assert_eq!(bits(&k_hat), bits(&ref_k));
            proptest::prop_assert_eq!(bits(&scores), bits(&ref_scores));
            proptest::prop_assert_eq!(stats, ref_stats);
            proptest::prop_assert_eq!(predictor.predict(&x, &q), (scores, stats));
        }
    }

    #[test]
    fn int4_baseline_shapes_and_ops() {
        let w = workload();
        let mut stats = PredictionStats::default();
        let scores = predict_scores_int4(&w.x, &w.wk, &w.q, &mut stats);
        assert_eq!(scores.shape(), (8, 96));
        assert!(stats.ops.mul > 0);
    }
}
