//! Sorted-Updating FlashAttention — SU-FA (paper §III-C, Fig. 10).
//!
//! The top-k stage already knows the (predicted) rank order of the selected
//! Q-K pairs. SU-FA exploits that: if the selected keys are processed in
//! *descending* predicted-score order, the running maximum of the online
//! softmax is simply the first score processed, so the per-tile maximum
//! refresh, the correction exponentiation and the accumulator rescaling of
//! FlashAttention all disappear from the steady state. The update for the
//! denominator collapses to `l ← l + exp(x − m)` — one exponentiation and one
//! addition (Eq. (2) of Fig. 10) instead of the exp + multiply + add of the
//! ascending order (Eq. (1)).
//!
//! Because the prediction is approximate (DLZS is a log-domain estimate), the
//! true maximum may show up later. The *max-ensuring* path of the hardware
//! (and of this implementation) detects that with a single comparison and
//! rescales the accumulated state — a rare event whose cost is also counted.

use crate::ops::{OpCounts, OpKind};
use crate::topk::TopKMask;
use sofa_tensor::Matrix;

/// Processing order of the selected keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuFaOrder {
    /// Highest predicted score first (the paper's default; cheapest updates).
    Descending,
    /// Lowest predicted score first (kept for the ablation of Fig. 10(a)).
    Ascending,
}

/// Statistics of one SU-FA execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuFaStats {
    /// Number of times the max-ensuring circuit had to correct the running
    /// maximum (i.e. the prediction order was violated).
    pub max_corrections: u64,
    /// Number of selected Q-K pairs processed.
    pub pairs_processed: u64,
}

/// Computes sparse attention over the keys selected by `mask`, processing them
/// in the order dictated by `order`, and counts every primitive operation.
///
/// The result is numerically identical (up to floating-point rounding) to
/// [`sofa_tensor::attention::masked_attention`] with the same mask: the
/// max-ensuring path keeps the computation exact even when the predicted
/// order is wrong.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the mask.
pub fn sorted_updating_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &TopKMask,
    order: SuFaOrder,
    ops: &mut OpCounts,
) -> (Matrix, SuFaStats) {
    assert_eq!(q.cols(), k.cols(), "Q and K head dims must match");
    assert_eq!(k.rows(), v.rows(), "K and V lengths must match");
    assert_eq!(mask.queries(), q.rows(), "mask must cover every query");
    assert_eq!(mask.seq_len(), k.rows(), "mask must cover every key");

    let d = q.cols();
    let dv = v.cols();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), dv);
    let mut stats = SuFaStats::default();
    // One row's scores in walk order, reused by every row.
    let mut scores: Vec<f32> = Vec::new();

    for i in 0..q.rows() {
        let qrow = q.row(i);
        let selected = mask.row(i);
        let n = selected.len();
        if n == 0 {
            continue;
        }
        // The mask is stored in descending predicted order; ascending simply
        // reverses the walk.
        let key_at = |t: usize| match order {
            SuFaOrder::Descending => selected[t],
            SuFaOrder::Ascending => selected[n - 1 - t],
        };

        // Scores of the selected pairs, each its own sequential dot product;
        // four keys' chains run side by side.
        scores.clear();
        let mut t = 0;
        while t + 4 <= n {
            let (k0, k1, k2, k3) = (
                k.row(key_at(t)),
                k.row(key_at(t + 1)),
                k.row(key_at(t + 2)),
                k.row(key_at(t + 3)),
            );
            let mut x = [0.0f32; 4];
            for ((((&a, &b0), &b1), &b2), &b3) in qrow.iter().zip(k0).zip(k1).zip(k2).zip(k3) {
                x[0] += a * b0;
                x[1] += a * b1;
                x[2] += a * b2;
                x[3] += a * b3;
            }
            scores.extend(x.map(|x| x * scale));
            t += 4;
        }
        scores.extend((t..n).map(|t| {
            let krow = k.row(key_at(t));
            let mut x = 0.0f32;
            for (a, b) in qrow.iter().zip(krow.iter()) {
                x += a * b;
            }
            x * scale
        }));

        // The output row starts zeroed and serves as the accumulator. The
        // scheduler guarantees the first processed score is the predicted
        // maximum; it becomes the reference for free (exp(0) is still
        // evaluated by the unit).
        let acc = out.row_mut(i);
        let mut m = scores[0];
        let mut l = 1.0f32;
        for (a, &vv) in acc.iter_mut().zip(v.row(key_at(0))) {
            *a += vv;
        }
        let mut corrections = 0u64;

        for (t, &x) in scores.iter().enumerate().skip(1) {
            // Max-ensuring comparison (AP module, mode 1 at tile switch /
            // mode 0 otherwise — one comparison either way).
            if x > m {
                // Prediction order violated: rescale accumulated state.
                corrections += 1;
                let corr = (m - x).exp();
                l *= corr;
                for a in acc.iter_mut() {
                    *a *= corr;
                }
                m = x;
            }

            let vrow = v.row(key_at(t));
            match order {
                SuFaOrder::Descending => {
                    // Eq. (2): l ← l + exp(x − m). One exp, one add.
                    let p = (x - m).exp();
                    l += p;
                    for (a, &vv) in acc.iter_mut().zip(vrow) {
                        *a += p * vv;
                    }
                }
                SuFaOrder::Ascending => {
                    // Eq. (1): the new score is (predictedly) the new maximum,
                    // so the previous denominator and accumulator must be
                    // rescaled every step: one extra exp-multiply pair.
                    let p = (x - m).exp();
                    let corr = if x >= m { (m - x).exp() } else { 1.0 };
                    l = l * corr + p;
                    for a in acc.iter_mut() {
                        *a *= corr;
                    }
                    for (a, &vv) in acc.iter_mut().zip(vrow) {
                        *a += p * vv;
                    }
                }
            }
        }

        // Final normalisation.
        for o in acc.iter_mut() {
            *o /= l;
        }

        stats.pairs_processed += n as u64;
        stats.max_corrections += corrections;
        record_row_ops(ops, order, n as u64, corrections, d as u64, dv as u64);
    }
    (out, stats)
}

/// Records one row's operations: `n` selected pairs, `corrections` of them
/// through the max-ensuring path, head dims `d` (Q·K) and `dv` (V).
fn record_row_ops(ops: &mut OpCounts, order: SuFaOrder, n: u64, corrections: u64, d: u64, dv: u64) {
    let later = n - 1;
    // Every pair's score: d multiplies and d adds.
    ops.record(OpKind::Mul, n * d);
    ops.record(OpKind::Add, n * d);
    // The first pair: exp(0) and one V row into the accumulator.
    ops.record(OpKind::Exp, 1);
    ops.record(OpKind::Mul, dv);
    ops.record(OpKind::Add, dv);
    // Every later pair: one max-ensuring comparison, one exp, the
    // denominator add and one weighted V row.
    ops.record(OpKind::Cmp, later);
    ops.record(OpKind::Exp, later);
    ops.record(OpKind::Add, later * (1 + dv));
    ops.record(OpKind::Mul, later * dv);
    if order == SuFaOrder::Ascending {
        // Eq. (1)'s extra exp and multiply, and the rescaled accumulator.
        ops.record(OpKind::Exp, later);
        ops.record(OpKind::Mul, later * (1 + dv));
    }
    // A correction: one exp, the denominator and the accumulator rescaled.
    ops.record(OpKind::Exp, corrections);
    ops.record(OpKind::Mul, corrections * (1 + dv));
    // Final normalisation.
    ops.record(OpKind::Div, dv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::{flash_attention, FlashConfig, FlashVersion};
    use crate::topk::{topk_exact, TopKMask};
    use sofa_model::{AttentionWorkload, ScoreDistribution};
    use sofa_tensor::attention::{attention_scores, masked_attention};
    use sofa_tensor::stats::max_abs_diff;

    fn workload(queries: usize, s: usize) -> (Matrix, Matrix, Matrix) {
        let w =
            AttentionWorkload::generate(&ScoreDistribution::llama_like(), queries, s, 32, 16, 17);
        (w.q.clone(), w.keys(), w.values())
    }

    fn exact_mask(q: &Matrix, k: &Matrix, keep: usize) -> TopKMask {
        let scores = attention_scores(q, k);
        let mut ops = OpCounts::new();
        topk_exact(&scores, keep, &mut ops)
    }

    #[test]
    fn sufa_matches_masked_dense_attention() {
        let (q, k, v) = workload(6, 96);
        let mask = exact_mask(&q, &k, 24);
        let want = masked_attention(&q, &k, &v, &mask.to_bool_rows());
        for order in [SuFaOrder::Descending, SuFaOrder::Ascending] {
            let mut ops = OpCounts::new();
            let (got, _) = sorted_updating_attention(&q, &k, &v, &mask, order, &mut ops);
            assert!(
                max_abs_diff(&got, &want) < 1e-3,
                "{order:?} output diverges from masked dense"
            );
        }
    }

    #[test]
    fn full_mask_sufa_matches_flash_attention() {
        let (q, k, v) = workload(4, 64);
        let mask = exact_mask(&q, &k, 64);
        let mut ops = OpCounts::new();
        let (got, _) =
            sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut ops);
        let mut fops = OpCounts::new();
        let want = flash_attention(
            &q,
            &k,
            &v,
            &FlashConfig::new(16, FlashVersion::V2),
            &mut fops,
        );
        assert!(max_abs_diff(&got, &want) < 1e-3);
    }

    #[test]
    fn descending_needs_no_corrections_with_exact_order() {
        let (q, k, v) = workload(8, 128);
        let mask = exact_mask(&q, &k, 32);
        let mut ops = OpCounts::new();
        let (_, stats) =
            sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut ops);
        assert_eq!(
            stats.max_corrections, 0,
            "exactly ordered masks never trigger the max-ensuring path"
        );
        assert_eq!(stats.pairs_processed, 8 * 32);
    }

    #[test]
    fn descending_is_cheaper_than_ascending() {
        // Fig. 10(a): the descending update needs one exp + one add, the
        // ascending update needs an extra exp and multiplication.
        let (q, k, v) = workload(8, 128);
        let mask = exact_mask(&q, &k, 32);
        let mut desc = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut desc);
        let mut asc = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Ascending, &mut asc);
        assert!(desc.exp < asc.exp);
        assert!(desc.normalized_complexity() < asc.normalized_complexity());
    }

    #[test]
    fn sufa_is_cheaper_than_fa2_on_the_same_sparse_budget() {
        // SU-FA over the selected 25% of keys must cost less than FA-2 over
        // the full row, and also less than FA-2 restricted to the same number
        // of keys (because it avoids per-tile max refresh work).
        let (q, k, v) = workload(8, 256);
        let keep = 64;
        let mask = exact_mask(&q, &k, keep);
        let mut sufa = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut sufa);

        let mut fa2_full = OpCounts::new();
        let _ = flash_attention(
            &q,
            &k,
            &v,
            &FlashConfig::new(16, FlashVersion::V2),
            &mut fa2_full,
        );
        assert!(sufa.normalized_complexity() < fa2_full.normalized_complexity());

        // FA-2 on a context truncated to `keep` keys (same MAC count).
        let kk = k.select_rows(&(0..keep).collect::<Vec<_>>());
        let vv = v.select_rows(&(0..keep).collect::<Vec<_>>());
        let mut fa2_small = OpCounts::new();
        let _ = flash_attention(
            &q,
            &kk,
            &vv,
            &FlashConfig::new(16, FlashVersion::V2),
            &mut fa2_small,
        );
        assert!(
            sufa.exp <= fa2_small.exp,
            "SU-FA exp count {} should not exceed FA-2-over-k {}",
            sufa.exp,
            fa2_small.exp
        );
    }

    #[test]
    fn noisy_prediction_order_triggers_corrections_but_stays_exact() {
        let (q, k, v) = workload(5, 80);
        // Build a deliberately mis-ordered mask: correct set, wrong order.
        let exact = exact_mask(&q, &k, 20);
        let shuffled: Vec<Vec<usize>> = exact
            .iter()
            .map(|r| {
                let mut v = r.to_vec();
                v.reverse(); // worst case: ascending true order
                v
            })
            .collect();
        let bad_mask = TopKMask::new(exact.seq_len(), shuffled);
        let want = masked_attention(&q, &k, &v, &bad_mask.to_bool_rows());
        let mut ops = OpCounts::new();
        let (got, stats) =
            sorted_updating_attention(&q, &k, &v, &bad_mask, SuFaOrder::Descending, &mut ops);
        assert!(stats.max_corrections > 0);
        assert!(
            max_abs_diff(&got, &want) < 1e-3,
            "max-ensure keeps it exact"
        );
    }

    /// The per-row `indices` copy and `acc` vector kernel the
    /// scores-first one replaced: one score per pair inside the online
    /// softmax walk and one `ops.record` per operation group.
    fn reference_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        mask: &TopKMask,
        order: SuFaOrder,
        ops: &mut OpCounts,
    ) -> (Matrix, SuFaStats) {
        assert_eq!(q.cols(), k.cols(), "Q and K head dims must match");
        assert_eq!(k.rows(), v.rows(), "K and V lengths must match");
        assert_eq!(mask.queries(), q.rows(), "mask must cover every query");
        assert_eq!(mask.seq_len(), k.rows(), "mask must cover every key");

        let d = q.cols();
        let dv = v.cols();
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = Matrix::zeros(q.rows(), dv);
        let mut stats = SuFaStats::default();

        for i in 0..q.rows() {
            let qrow = q.row(i);
            let selected = mask.row(i);
            if selected.is_empty() {
                continue;
            }
            // The mask is stored in descending predicted order; ascending simply
            // reverses the walk.
            let indices: Vec<usize> = match order {
                SuFaOrder::Descending => selected.to_vec(),
                SuFaOrder::Ascending => selected.iter().rev().copied().collect(),
            };

            let mut m = f32::NEG_INFINITY;
            let mut l = 0.0f32;
            let mut acc = vec![0.0f32; dv];
            let mut first = true;

            for &j in &indices {
                stats.pairs_processed += 1;
                // Score of the selected pair.
                let krow = k.row(j);
                let mut x = 0.0f32;
                for (a, b) in qrow.iter().zip(krow.iter()) {
                    x += a * b;
                }
                x *= scale;
                ops.record(OpKind::Mul, d as u64);
                ops.record(OpKind::Add, d as u64);

                if first {
                    // The scheduler guarantees the first processed score is the
                    // predicted maximum; it becomes the reference for free.
                    m = x;
                    first = false;
                    l = 1.0;
                    ops.record(OpKind::Exp, 1); // exp(0) evaluated by the unit
                    let vrow = v.row(j);
                    for (a, &vv) in acc.iter_mut().zip(vrow.iter()) {
                        *a += vv;
                    }
                    ops.record(OpKind::Mul, dv as u64);
                    ops.record(OpKind::Add, dv as u64);
                    continue;
                }

                // Max-ensuring comparison (AP module, mode 1 at tile switch /
                // mode 0 otherwise — one comparison either way).
                ops.record(OpKind::Cmp, 1);
                if x > m {
                    // Prediction order violated: rescale accumulated state.
                    stats.max_corrections += 1;
                    let corr = (m - x).exp();
                    ops.record(OpKind::Exp, 1);
                    l *= corr;
                    ops.record(OpKind::Mul, 1);
                    for a in acc.iter_mut() {
                        *a *= corr;
                    }
                    ops.record(OpKind::Mul, dv as u64);
                    m = x;
                }

                match order {
                    SuFaOrder::Descending => {
                        // Eq. (2): l ← l + exp(x − m). One exp, one add.
                        let p = (x - m).exp();
                        ops.record(OpKind::Exp, 1);
                        l += p;
                        ops.record(OpKind::Add, 1);
                        let vrow = v.row(j);
                        for (a, &vv) in acc.iter_mut().zip(vrow.iter()) {
                            *a += p * vv;
                        }
                        ops.record(OpKind::Mul, dv as u64);
                        ops.record(OpKind::Add, dv as u64);
                    }
                    SuFaOrder::Ascending => {
                        // Eq. (1): the new score is (predictedly) the new maximum,
                        // so the previous denominator and accumulator must be
                        // rescaled every step: one extra exp-multiply pair.
                        let p = (x - m).exp();
                        ops.record(OpKind::Exp, 1);
                        let corr = if x >= m { (m - x).exp() } else { 1.0 };
                        ops.record(OpKind::Exp, 1);
                        ops.record(OpKind::Mul, 1);
                        l = l * corr + p;
                        ops.record(OpKind::Add, 1);
                        let vrow = v.row(j);
                        for a in acc.iter_mut() {
                            *a *= corr;
                        }
                        ops.record(OpKind::Mul, dv as u64);
                        for (a, &vv) in acc.iter_mut().zip(vrow.iter()) {
                            *a += p * vv;
                        }
                        ops.record(OpKind::Mul, dv as u64);
                        ops.record(OpKind::Add, dv as u64);
                    }
                }
            }

            // Final normalisation.
            let orow = out.row_mut(i);
            for (o, a) in orow.iter_mut().zip(acc.iter()) {
                *o = a / l;
            }
            ops.record(OpKind::Div, dv as u64);
        }
        (out, stats)
    }

    /// Bound (exclusive) on the SU-FA proptest's context length `S`.
    const MAX_S: usize = 41;
    /// Bound (exclusive) on its head dims `d` and `dv`.
    const MAX_D: usize = 23;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The scores-first kernel returns the reference kernel's output
        /// bits, `SuFaStats` and `OpCounts` in both walk orders, for head
        /// dims and selection lengths that are not multiples of 4, empty
        /// mask rows and selections in random order (so the max-ensuring
        /// path fires), with repeated keys.
        #[test]
        fn scores_first_sufa_matches_the_reference_kernel(
            shape in (1usize..6, 1usize..MAX_S, 1usize..MAX_D, 1usize..MAX_D),
            lens in proptest::collection::vec(0usize..MAX_S + 4, 6),
            picks in proptest::collection::vec(0u32..1_000_000, 6 * (MAX_S + 4)),
            values in proptest::collection::vec(-3.0f32..3.0, 2 * MAX_D * (6 + 2 * MAX_S)),
        ) {
            let (queries, s, d, dv) = shape;
            let mut vals = values.into_iter();
            let mut matrix = |rows: usize, cols: usize| {
                Matrix::from_vec(rows, cols, vals.by_ref().take(rows * cols).collect()).unwrap()
            };
            let (q, k, v) = (matrix(queries, d), matrix(s, d), matrix(s, dv));
            // Row i selects `lens[i]` keys (empty rows included): a random
            // subset in shuffled order when that many exist, else keys
            // drawn with repeats.
            let rows: Vec<Vec<usize>> = (0..queries)
                .map(|i| {
                    let picks = &picks[i * (MAX_S + 4)..][..MAX_S + 4];
                    if lens[i] <= s {
                        let mut keys: Vec<usize> = (0..s).collect();
                        keys.sort_by_key(|&j| picks[j]);
                        keys.truncate(lens[i]);
                        keys
                    } else {
                        picks[..lens[i]].iter().map(|&p| p as usize % s).collect()
                    }
                })
                .collect();
            let mask = TopKMask::new(s, rows);
            for order in [SuFaOrder::Descending, SuFaOrder::Ascending] {
                let (mut ops, mut ref_ops) = (OpCounts::new(), OpCounts::new());
                let (got, stats) = sorted_updating_attention(&q, &k, &v, &mask, order, &mut ops);
                let (want, ref_stats) = reference_attention(&q, &k, &v, &mask, order, &mut ref_ops);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?}", order);
                proptest::prop_assert_eq!(stats, ref_stats, "{:?}", order);
                proptest::prop_assert_eq!(ops, ref_ops, "{:?}", order);
            }
        }
    }

    #[test]
    fn empty_mask_rows_produce_zero_output() {
        let (q, k, v) = workload(2, 16);
        let mask = TopKMask::new(16, vec![vec![], vec![3, 1]]);
        let mut ops = OpCounts::new();
        let (out, _) =
            sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut ops);
        assert!(out.row(0).iter().all(|&x| x == 0.0));
        assert!(out.row(1).iter().any(|&x| x != 0.0));
    }
}
