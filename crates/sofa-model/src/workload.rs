//! Concrete synthetic attention workloads.
//!
//! Two granularities are provided:
//!
//! * [`ScoreWorkload`] — just a `(T, S)` matrix of attention scores whose rows
//!   follow a configured [`ScoreDistribution`]. Cheap to generate; used by the
//!   sorting / SU-FA / scheduling experiments that only consume scores.
//! * [`AttentionWorkload`] — full token embeddings `X`, weights `W_k`/`W_v`
//!   and queries `Q` with *planted* dominant Q-K pairs, so that the true score
//!   matrix `Q·Kᵀ` reproduces the requested distribution. Used by the
//!   end-to-end pipeline (DLZS prediction needs `X` and `W_k`, on-demand KV
//!   generation needs `W_v`).

use crate::distribution::{DistributionType, ScoreDistribution};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sofa_tensor::{seeded_rng, Matrix};

/// A `(queries, seq_len)` matrix of synthetic attention scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreWorkload {
    /// Raw (pre-softmax) scores, one row per query.
    pub scores: Matrix,
    /// The row type sampled for each query row.
    pub(crate) row_types: Vec<DistributionType>,
}

impl ScoreWorkload {
    /// Generates `queries` rows of length `seq_len` from `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `queries == 0` or `seq_len == 0`.
    pub fn generate(dist: &ScoreDistribution, queries: usize, seq_len: usize, seed: u64) -> Self {
        assert!(queries > 0 && seq_len > 0, "dimensions must be positive");
        let mut rng = seeded_rng(seed);
        let mut scores = Matrix::zeros(queries, seq_len);
        let mut row_types = Vec::with_capacity(queries);
        for i in 0..queries {
            let (row, ty) = dist.generate_row(seq_len, &mut rng);
            scores.row_mut(i).copy_from_slice(&row);
            row_types.push(ty);
        }
        ScoreWorkload { scores, row_types }
    }

    /// Number of query rows.
    pub fn queries(&self) -> usize {
        self.scores.rows()
    }
}

/// A full single-head attention workload with planted sparsity structure.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionWorkload {
    /// Token embeddings `X`, shape `(seq_len, input_dim)`.
    pub x: Matrix,
    /// Key projection weights, shape `(input_dim, head_dim)`.
    pub wk: Matrix,
    /// Value projection weights, shape `(input_dim, head_dim)`.
    pub wv: Matrix,
    /// Query vectors, shape `(queries, head_dim)`.
    pub q: Matrix,
    /// Indices of the keys planted to dominate each query row.
    pub(crate) planted: Vec<Vec<usize>>,
}

impl AttentionWorkload {
    /// Generates a workload with `queries` query rows, a context of `seq_len`
    /// tokens, embedding width `input_dim` and head dimension `head_dim`.
    ///
    /// Each query is constructed as a noisy combination of the key vectors of
    /// its planted dominant tokens, so that `Q·Kᵀ` exhibits the row types
    /// drawn from `dist`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn generate(
        dist: &ScoreDistribution,
        queries: usize,
        seq_len: usize,
        input_dim: usize,
        head_dim: usize,
        seed: u64,
    ) -> Self {
        assert!(
            queries > 0 && seq_len > 0 && input_dim > 0 && head_dim > 0,
            "dimensions must be positive"
        );
        let mut rng = seeded_rng(seed);
        let scale_x = 1.0 / (input_dim as f32).sqrt();
        let x = Matrix::from_fn(seq_len, input_dim, |_, _| rng.gen_range(-1.0..1.0f32));
        let wk = Matrix::from_fn(input_dim, head_dim, |_, _| {
            rng.gen_range(-1.0..1.0f32) * scale_x
        });
        let wv = Matrix::from_fn(input_dim, head_dim, |_, _| {
            rng.gen_range(-1.0..1.0f32) * scale_x
        });
        let k = x.matmul(&wk).expect("shapes consistent");

        let mut q = Matrix::zeros(queries, head_dim);
        let mut planted = Vec::with_capacity(queries);
        for qi in 0..queries {
            let ty = dist.sample_type(&mut rng);
            let dom = Self::plant_indices(ty, seq_len, &mut rng);
            // Query = sum of dominant key directions (normalised) + noise.
            let mut qrow = vec![0.0f32; head_dim];
            for &ki in &dom {
                let krow = k.row(ki);
                let norm = krow.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                for (dst, &kv) in qrow.iter_mut().zip(krow.iter()) {
                    *dst += kv / norm * dist.dominance;
                }
            }
            for v in qrow.iter_mut() {
                *v += rng.gen_range(-0.3..0.3);
            }
            q.row_mut(qi).copy_from_slice(&qrow);
            planted.push(dom);
        }
        AttentionWorkload {
            x,
            wk,
            wv,
            q,
            planted,
        }
    }

    fn plant_indices(ty: DistributionType, s: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        match ty {
            DistributionType::TypeI => {
                let n = rng.gen_range(1..=3.min(s));
                (0..n).map(|_| rng.gen_range(0..s)).collect()
            }
            DistributionType::TypeII => {
                let n = ((s as f64 * 0.04).round() as usize).max(4).min(s);
                let stripe = (s / n).max(1);
                (0..n)
                    .filter_map(|d| {
                        let lo = d * stripe;
                        if lo >= s {
                            return None;
                        }
                        let hi = ((d + 1) * stripe).min(s);
                        Some(rng.gen_range(lo..hi))
                    })
                    .collect()
            }
            DistributionType::TypeIII => {
                let region = (s / 8).max(1);
                let start = rng.gen_range(0..s.saturating_sub(region).max(1));
                let n = (region / 3).max(2).min(region);
                (0..n)
                    .map(|_| (start + rng.gen_range(0..region)).min(s - 1))
                    .collect()
            }
        }
    }

    /// Context length `S`.
    pub fn seq_len(&self) -> usize {
        self.x.rows()
    }

    /// Number of parallel queries `T`.
    pub fn queries(&self) -> usize {
        self.q.rows()
    }

    /// Computes the full key matrix `K = X · W_k`.
    pub fn keys(&self) -> Matrix {
        self.x.matmul(&self.wk).expect("shapes consistent")
    }

    /// Computes the full value matrix `V = X · W_v`.
    pub fn values(&self) -> Matrix {
        self.x.matmul(&self.wv).expect("shapes consistent")
    }

    /// Computes the exact (pre-softmax, scaled) attention scores `Q·Kᵀ/√d`.
    pub fn exact_scores(&self) -> Matrix {
        sofa_tensor::attention::attention_scores(&self.q, &self.keys())
    }

    /// Computes the dense reference attention output.
    pub fn dense_output(&self) -> Matrix {
        sofa_tensor::attention::dense_attention(&self.q, &self.keys(), &self.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_tensor::softmax::softmax_row;

    #[test]
    fn score_workload_shapes_and_determinism() {
        let d = ScoreDistribution::bert_like();
        let a = ScoreWorkload::generate(&d, 8, 128, 42);
        let b = ScoreWorkload::generate(&d, 8, 128, 42);
        assert_eq!(a, b, "same seed must give identical workloads");
        assert_eq!(a.queries(), 8);
        assert_eq!(a.row_types.len(), 8);
        let c = ScoreWorkload::generate(&d, 8, 128, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn attention_workload_shapes() {
        let d = ScoreDistribution::gpt_like();
        let w = AttentionWorkload::generate(&d, 4, 64, 32, 16, 7);
        assert_eq!(w.queries(), 4);
        assert_eq!(w.keys().shape(), (64, 16));
        assert_eq!(w.values().shape(), (64, 16));
        assert_eq!(w.exact_scores().shape(), (4, 64));
        assert_eq!(w.dense_output().shape(), (4, 16));
        assert_eq!(w.planted.len(), 4);
    }

    #[test]
    fn planted_keys_receive_high_attention_mass() {
        let d = ScoreDistribution::llama_like();
        let w = AttentionWorkload::generate(&d, 16, 256, 64, 32, 11);
        let scores = w.exact_scores();
        let mut covered = 0usize;
        let mut total = 0usize;
        for (qi, dom) in w.planted.iter().enumerate() {
            let probs = softmax_row(scores.row(qi));
            // Rank of each planted index should be within the top 20%.
            let mut idx: Vec<usize> = (0..probs.len()).collect();
            idx.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap());
            let cutoff = probs.len() / 4;
            let top: std::collections::HashSet<usize> =
                idx.into_iter().take(cutoff.max(dom.len())).collect();
            for &d in dom {
                total += 1;
                if top.contains(&d) {
                    covered += 1;
                }
            }
        }
        let frac = covered as f64 / total.max(1) as f64;
        assert!(frac > 0.65, "planted keys should rank highly, got {frac}");
    }

    #[test]
    fn workload_is_deterministic() {
        let d = ScoreDistribution::vit_like();
        let a = AttentionWorkload::generate(&d, 2, 32, 16, 8, 3);
        let b = AttentionWorkload::generate(&d, 2, 32, 16, 8, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let d = ScoreDistribution::bert_like();
        let _ = ScoreWorkload::generate(&d, 0, 8, 1);
    }
}
