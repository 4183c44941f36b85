//! FlashAttention-1/2 references and the un-tiled vanilla attention, all with
//! operation accounting (paper §II-B, Fig. 5).
//!
//! FlashAttention removes the off-chip round trip of the S×S score matrix by
//! tiling the keys/values and maintaining an *online* softmax (running maximum
//! `m`, running denominator `l`, running output `O`). The price is extra
//! non-linear work: every tile refreshes the running maximum, adds a
//! correction exponentiation and rescales the accumulator. SOFA's SU-FA (see
//! [`crate::sufa`]) removes exactly this overhead by consuming the sorting
//! information from the top-k stage.

use crate::ops::{OpCounts, OpKind};
use sofa_tensor::Matrix;

/// Which FlashAttention formulation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashVersion {
    /// FlashAttention-1: the accumulator is renormalised by `l` on every tile.
    V1,
    /// FlashAttention-2: the division by `l` is deferred to the very end.
    V2,
}

/// Tiling configuration for the FlashAttention references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashConfig {
    /// Key/value tile size `Bc`.
    pub(crate) tile_size: usize,
    /// Formulation to model.
    pub(crate) version: FlashVersion,
}

impl FlashConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size == 0`.
    pub fn new(tile_size: usize, version: FlashVersion) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        FlashConfig { tile_size, version }
    }
}

/// Un-tiled ("vanilla") exact attention with operation accounting: the whole
/// score row is materialised, soft-maxed once and multiplied with V.
pub fn vanilla_attention_counted(q: &Matrix, k: &Matrix, v: &Matrix, ops: &mut OpCounts) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "Q and K head dims must match");
    assert_eq!(k.rows(), v.rows(), "K and V lengths must match");
    let d = q.cols();
    let s = k.rows();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), v.cols());

    for i in 0..q.rows() {
        let qrow = q.row(i);
        // Scores.
        let mut scores = vec![0.0f32; s];
        for (j, sc) in scores.iter_mut().enumerate() {
            let krow = k.row(j);
            let mut acc = 0.0;
            for (a, b) in qrow.iter().zip(krow.iter()) {
                acc += a * b;
            }
            *sc = acc * scale;
        }
        ops.record(OpKind::Mul, (s * d) as u64);
        ops.record(OpKind::Add, (s * d) as u64);

        // Row max.
        let mut m = f32::NEG_INFINITY;
        for &sc in &scores {
            if sc > m {
                m = sc;
            }
        }
        ops.record(OpKind::Cmp, s as u64);

        // Softmax.
        let mut l = 0.0f32;
        let mut probs = vec![0.0f32; s];
        for (p, &sc) in probs.iter_mut().zip(scores.iter()) {
            *p = (sc - m).exp();
            l += *p;
        }
        ops.record(OpKind::Exp, s as u64);
        ops.record(OpKind::Add, s as u64);
        for p in probs.iter_mut() {
            *p /= l;
        }
        ops.record(OpKind::Div, s as u64);

        // Probabilities × V.
        let orow = out.row_mut(i);
        for (j, &p) in probs.iter().enumerate() {
            let vrow = v.row(j);
            for (o, &vv) in orow.iter_mut().zip(vrow.iter()) {
                *o += p * vv;
            }
        }
        ops.record(OpKind::Mul, (s * d) as u64);
        ops.record(OpKind::Add, (s * d) as u64);
    }
    out
}

/// Tiled FlashAttention (v1 or v2) with operation accounting. Numerically
/// equivalent to dense attention.
pub fn flash_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &FlashConfig,
    ops: &mut OpCounts,
) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "Q and K head dims must match");
    assert_eq!(k.rows(), v.rows(), "K and V lengths must match");
    let d = q.cols();
    let s = k.rows();
    let dv = v.cols();
    let bc = cfg.tile_size.min(s.max(1));
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), dv);

    for i in 0..q.rows() {
        let qrow = q.row(i);
        let mut m = f32::NEG_INFINITY;
        let mut l = 0.0f32;
        let mut acc = vec![0.0f32; dv];

        let mut start = 0;
        while start < s {
            let end = (start + bc).min(s);
            let tile = end - start;

            // Tile scores.
            let mut scores = vec![0.0f32; tile];
            for (t, sc) in scores.iter_mut().enumerate() {
                let krow = k.row(start + t);
                let mut a = 0.0;
                for (x, y) in qrow.iter().zip(krow.iter()) {
                    a += x * y;
                }
                *sc = a * scale;
            }
            ops.record(OpKind::Mul, (tile * d) as u64);
            ops.record(OpKind::Add, (tile * d) as u64);

            // Tile row max and running-max refresh.
            let mut tile_max = f32::NEG_INFINITY;
            for &sc in &scores {
                if sc > tile_max {
                    tile_max = sc;
                }
            }
            ops.record(OpKind::Cmp, tile as u64);
            let new_m = if tile_max > m { tile_max } else { m };
            ops.record(OpKind::Cmp, 1);

            // Correction factor for the previous accumulator.
            let corr = if m == f32::NEG_INFINITY {
                0.0
            } else {
                (m - new_m).exp()
            };
            ops.record(OpKind::Exp, 1);

            // Probabilities of the tile.
            let mut tile_sum = 0.0f32;
            let mut probs = vec![0.0f32; tile];
            for (p, &sc) in probs.iter_mut().zip(scores.iter()) {
                *p = (sc - new_m).exp();
                tile_sum += *p;
            }
            ops.record(OpKind::Exp, tile as u64);
            ops.record(OpKind::Add, tile as u64);

            // l and O updates.
            l = l * corr + tile_sum;
            ops.record(OpKind::Mul, 1);
            ops.record(OpKind::Add, 1);
            for a in acc.iter_mut() {
                *a *= corr;
            }
            ops.record(OpKind::Mul, dv as u64);
            for (t, &p) in probs.iter().enumerate() {
                let vrow = v.row(start + t);
                for (a, &vv) in acc.iter_mut().zip(vrow.iter()) {
                    *a += p * vv;
                }
            }
            ops.record(OpKind::Mul, (tile * dv) as u64);
            ops.record(OpKind::Add, (tile * dv) as u64);

            if cfg.version == FlashVersion::V1 {
                // FA-1 renormalises the accumulator by l on every tile (and
                // undoes it on the next), costing an extra divide + multiply
                // per output element per tile.
                ops.record(OpKind::Div, dv as u64);
                ops.record(OpKind::Mul, dv as u64);
            }

            m = new_m;
            start = end;
        }

        // Final normalisation by l.
        let orow = out.row_mut(i);
        for (o, a) in orow.iter_mut().zip(acc.iter()) {
            *o = a / l;
        }
        ops.record(OpKind::Div, dv as u64);
    }
    out
}

/// Analytical extra-operation model of FA-2 relative to vanilla attention for
/// `t` query rows, sequence length `s` and tile size `bc`: returns
/// `(extra_exp, extra_cmp)`. Used to regenerate Fig. 5(b) at sequence lengths
/// too large to execute.
pub fn fa2_extra_ops(t: usize, s: usize, bc: usize) -> (u64, u64) {
    let tiles = s.div_ceil(bc.max(1)) as u64;
    let t = t as u64;
    // One correction exponentiation and one running-max comparison per tile
    // per row beyond what the single-pass softmax needs.
    (t * tiles, t * tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_model::{AttentionWorkload, ScoreDistribution};
    use sofa_tensor::attention::dense_attention;
    use sofa_tensor::stats::max_abs_diff;

    fn workload(queries: usize, s: usize) -> (Matrix, Matrix, Matrix) {
        let w = AttentionWorkload::generate(&ScoreDistribution::bert_like(), queries, s, 32, 16, 5);
        (w.q.clone(), w.keys(), w.values())
    }

    #[test]
    fn vanilla_counted_matches_dense() {
        let (q, k, v) = workload(6, 64);
        let mut ops = OpCounts::new();
        let got = vanilla_attention_counted(&q, &k, &v, &mut ops);
        let want = dense_attention(&q, &k, &v);
        assert!(max_abs_diff(&got, &want) < 1e-4);
        assert!(ops.exp > 0 && ops.div > 0);
    }

    #[test]
    fn flash_v2_matches_dense_for_various_tiles() {
        let (q, k, v) = workload(4, 100);
        let want = dense_attention(&q, &k, &v);
        for bc in [1usize, 4, 16, 33, 100, 128] {
            let mut ops = OpCounts::new();
            let cfg = FlashConfig::new(bc, FlashVersion::V2);
            let got = flash_attention(&q, &k, &v, &cfg, &mut ops);
            assert!(
                max_abs_diff(&got, &want) < 1e-3,
                "tile size {bc} diverges from dense"
            );
        }
    }

    #[test]
    fn flash_v1_matches_dense() {
        let (q, k, v) = workload(3, 48);
        let want = dense_attention(&q, &k, &v);
        let mut ops = OpCounts::new();
        let got = flash_attention(&q, &k, &v, &FlashConfig::new(8, FlashVersion::V1), &mut ops);
        assert!(max_abs_diff(&got, &want) < 1e-3);
    }

    #[test]
    fn fa2_costs_more_exp_and_cmp_than_vanilla() {
        // Fig. 5(b): tiling increases exponential and comparison counts.
        let (q, k, v) = workload(8, 256);
        let mut vanilla = OpCounts::new();
        let _ = vanilla_attention_counted(&q, &k, &v, &mut vanilla);
        let mut fa2 = OpCounts::new();
        let _ = flash_attention(
            &q,
            &k,
            &v,
            &FlashConfig::new(16, FlashVersion::V2),
            &mut fa2,
        );
        assert!(fa2.exp > vanilla.exp);
        assert!(fa2.cmp > vanilla.cmp);
    }

    #[test]
    fn smaller_tiles_increase_fa2_overhead() {
        // Fig. 5(c): the overhead scales with the number of tiles Tc.
        let (q, k, v) = workload(4, 256);
        let mut small = OpCounts::new();
        let _ = flash_attention(
            &q,
            &k,
            &v,
            &FlashConfig::new(4, FlashVersion::V2),
            &mut small,
        );
        let mut large = OpCounts::new();
        let _ = flash_attention(
            &q,
            &k,
            &v,
            &FlashConfig::new(64, FlashVersion::V2),
            &mut large,
        );
        assert!(small.exp > large.exp);
        assert!(small.normalized_complexity() > large.normalized_complexity());
    }

    #[test]
    fn fa1_costs_more_than_fa2() {
        let (q, k, v) = workload(4, 128);
        let mut v1 = OpCounts::new();
        let _ = flash_attention(&q, &k, &v, &FlashConfig::new(16, FlashVersion::V1), &mut v1);
        let mut v2 = OpCounts::new();
        let _ = flash_attention(&q, &k, &v, &FlashConfig::new(16, FlashVersion::V2), &mut v2);
        assert!(v1.normalized_complexity() > v2.normalized_complexity());
    }

    #[test]
    fn analytical_extra_ops_scale_with_tiles_and_rows() {
        let (e1, c1) = fa2_extra_ops(128, 2048, 16);
        let (e2, c2) = fa2_extra_ops(128, 2048, 4);
        assert_eq!(e1, 128 * 128);
        assert_eq!(c1, e1);
        assert!(e2 > e1 && c2 > c1);
        let (e3, _) = fa2_extra_ops(256, 2048, 16);
        assert_eq!(e3, 2 * e1);
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_size_panics() {
        let _ = FlashConfig::new(0, FlashVersion::V2);
    }
}
