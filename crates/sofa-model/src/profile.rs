//! Analytical FLOPs / bytes / operational-intensity profiler.
//!
//! The paper motivates SOFA with three profiling observations:
//!
//! * Fig. 1 — for long sequences the attention module dominates both memory
//!   footprint and computation.
//! * Fig. 4(b) — MHA has a much lower operational intensity (OI) than the FFN.
//! * Fig. 4(c) — OI of MHA grows with token-processing parallelism.
//!
//! This module reproduces those numbers from first principles: every FLOP and
//! byte is derived from the model shape in [`ModelConfig`].

use crate::config::ModelConfig;

/// FLOPs and traffic of one Transformer component for a given execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentProfile {
    /// Floating point operations (multiply-accumulate counted as 2 FLOPs).
    pub flops: u64,
    /// Bytes of parameters that must be streamed from memory.
    pub(crate) weight_bytes: u64,
    /// Bytes of activations read and written (including intermediates that
    /// spill when they exceed on-chip capacity).
    pub(crate) activation_bytes: u64,
}

impl ComponentProfile {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.activation_bytes
    }

    /// Operational intensity in FLOPs per byte (0 if no bytes are moved).
    pub fn operational_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Sums two component profiles.
    pub fn combine(&self, other: &ComponentProfile) -> ComponentProfile {
        ComponentProfile {
            flops: self.flops + other.flops,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            activation_bytes: self.activation_bytes + other.activation_bytes,
        }
    }
}

/// Profile of one Transformer layer processing `token_parallelism` query
/// tokens against a context of `seq_len` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerProfile {
    /// Query/token parallelism `T` used for this profile.
    pub(crate) token_parallelism: usize,
    /// Context length `S`.
    pub(crate) seq_len: usize,
    /// QKV (and output) projections.
    pub qkv: ComponentProfile,
    /// Multi-head attention (scores, softmax, score × V).
    pub attention: ComponentProfile,
    /// Feed-forward network.
    pub ffn: ComponentProfile,
}

impl LayerProfile {
    /// Analyzes one layer of `cfg` processing `token_parallelism` queries.
    ///
    /// The attention component assumes the full context of `cfg.seq_len` keys
    /// participates (prefill-style), which matches the paper's LTPP setting.
    ///
    /// # Panics
    ///
    /// Panics if `token_parallelism` is zero.
    pub fn analyze(cfg: &ModelConfig, token_parallelism: usize) -> Self {
        assert!(token_parallelism > 0, "token parallelism must be positive");
        let t = token_parallelism as u64;
        let s = cfg.seq_len as u64;
        let h = cfg.hidden as u64;
        let f = cfg.ffn_dim as u64;
        let b = cfg.act_bytes as u64;

        // Q, K, V and output projections: four H×H matmuls over T tokens.
        let qkv = ComponentProfile {
            flops: 2 * t * h * h * 4,
            weight_bytes: 4 * h * h * b,
            activation_bytes: (t * h + 4 * t * h) * b,
        };

        // Attention: scores QKᵀ (2*T*S*H summed across heads), per-head
        // softmax (~5 ops/score), scores×V (2*T*S*H). The per-head T×S score
        // and probability matrices are intermediates; in the un-fused baseline
        // each is written to and read back from memory once.
        let a = cfg.heads as u64;
        let attention = ComponentProfile {
            flops: 2 * t * s * h + 5 * a * t * s + 2 * t * s * h,
            weight_bytes: 0,
            activation_bytes: (t * h + 2 * s * h + t * h) * b + 4 * a * t * s * b,
        };

        // FFN: two linear layers H→F and F→H.
        let ffn = ComponentProfile {
            flops: 2 * t * h * f * 2,
            weight_bytes: 2 * h * f * b,
            activation_bytes: (t * h + t * f + t * f + t * h) * b,
        };

        LayerProfile {
            token_parallelism,
            seq_len: cfg.seq_len,
            qkv,
            attention,
            ffn,
        }
    }
}

/// Memory footprint (bytes) of the dominant persistent/intermediate tensors of
/// a whole model at a given sequence length: used for the Fig. 1 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// QKV & output projection weights across all layers plus projected QKV
    /// activations for the whole sequence.
    pub(crate) qkv_bytes: u64,
    /// Attention score/probability matrices across heads (the S×S
    /// intermediates that dominate at long sequence length) plus KV cache.
    pub(crate) attention_bytes: u64,
    /// FFN weights plus FFN activations.
    pub(crate) ffn_bytes: u64,
}

impl MemoryFootprint {
    /// Computes the footprint of `cfg` when the full sequence is processed
    /// (prefill over `cfg.seq_len` tokens).
    pub fn analyze(cfg: &ModelConfig) -> Self {
        let s = cfg.seq_len as u64;
        let h = cfg.hidden as u64;
        let f = cfg.ffn_dim as u64;
        let a = cfg.heads as u64;
        let l = cfg.layers as u64;
        let b = cfg.act_bytes as u64;

        let qkv_bytes = l * (4 * h * h * b) + 3 * s * h * b;
        // One S×S score matrix per head (only live layer counted — it is the
        // working-set that must exist at once) plus the per-layer KV cache.
        let attention_bytes = a * s * s * b + l * 2 * s * h * b;
        let ffn_bytes = l * (2 * h * f * b) + 2 * s * f.max(h) * b;
        MemoryFootprint {
            qkv_bytes,
            attention_bytes,
            ffn_bytes,
        }
    }

    /// Total footprint in bytes.
    pub(crate) fn total(&self) -> u64 {
        self.qkv_bytes + self.attention_bytes + self.ffn_bytes
    }

    /// Fractions of the total footprint: `(qkv, attention, ffn)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total() as f64;
        (
            self.qkv_bytes as f64 / t,
            self.attention_bytes as f64 / t,
            self.ffn_bytes as f64 / t,
        )
    }
}

/// Whole-model computation breakdown at a sequence length: FLOPs per
/// component summed over layers (prefill over the full sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeBreakdown {
    /// Total QKV projection FLOPs.
    pub(crate) qkv_flops: u64,
    /// Total attention FLOPs.
    pub(crate) attention_flops: u64,
    /// Total FFN FLOPs.
    pub(crate) ffn_flops: u64,
}

impl ComputeBreakdown {
    /// Computes the breakdown for prefilling the full sequence of `cfg`.
    pub fn analyze(cfg: &ModelConfig) -> Self {
        let per_layer = LayerProfile::analyze(cfg, cfg.seq_len);
        let l = cfg.layers as u64;
        ComputeBreakdown {
            qkv_flops: per_layer.qkv.flops * l,
            attention_flops: per_layer.attention.flops * l,
            ffn_flops: per_layer.ffn.flops * l,
        }
    }

    /// Total FLOPs.
    pub(crate) fn total(&self) -> u64 {
        self.qkv_flops + self.attention_flops + self.ffn_flops
    }

    /// Fractions `(qkv, attention, ffn)` of the total FLOPs.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total() as f64;
        (
            self.qkv_flops as f64 / t,
            self.attention_flops as f64 / t,
            self.ffn_flops as f64 / t,
        )
    }
}

/// Normalised (to the FFN) operational intensity of the three components,
/// reproducing the shape of paper Fig. 4(b).
pub fn normalized_oi(cfg: &ModelConfig, token_parallelism: usize) -> (f64, f64, f64) {
    let p = LayerProfile::analyze(cfg, token_parallelism);
    let ffn = p.ffn.operational_intensity();
    (
        p.qkv.operational_intensity() / ffn,
        p.attention.operational_intensity() / ffn,
        1.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_dominates_long_sequences() {
        // Fig. 1: beyond ~32k tokens attention dominates computation.
        let short = ComputeBreakdown::analyze(&ModelConfig::llama_7b(4 * 1024));
        let long = ComputeBreakdown::analyze(&ModelConfig::llama_7b(128 * 1024));
        let (_, att_short, _) = short.fractions();
        let (_, att_long, _) = long.fractions();
        assert!(att_long > att_short);
        assert!(
            att_long > 0.5,
            "attention should dominate at 128k: {att_long}"
        );
        assert!(
            att_short < 0.5,
            "attention should not dominate at 4k: {att_short}"
        );
    }

    #[test]
    fn attention_memory_dominates_long_sequences() {
        let long = MemoryFootprint::analyze(&ModelConfig::llama_7b(64 * 1024));
        let (_, att, _) = long.fractions();
        assert!(att > 0.6, "attention footprint fraction at 64k = {att}");
        let short = MemoryFootprint::analyze(&ModelConfig::llama_7b(1024));
        let (_, att_s, _) = short.fractions();
        assert!(att_s < att);
    }

    #[test]
    fn mha_oi_is_much_lower_than_ffn() {
        // Fig. 4(b): MHA OI averages ~15% of the FFN when the whole sequence
        // is processed (prefill).
        let cfg = ModelConfig::bert_base(512);
        let (_, mha, ffn) = normalized_oi(&cfg, cfg.seq_len);
        assert!(mha < 0.35 * ffn, "MHA OI {mha} should be well below FFN");
    }

    #[test]
    fn oi_grows_with_token_parallelism() {
        // Fig. 4(c): increasing parallelism boosts OI.
        let cfg = ModelConfig::bloom_1b7(2048);
        let oi1 = LayerProfile::analyze(&cfg, 1)
            .attention
            .operational_intensity();
        let oi128 = LayerProfile::analyze(&cfg, 128)
            .attention
            .operational_intensity();
        assert!(oi128 > 2.0 * oi1, "OI at T=128 ({oi128}) vs T=1 ({oi1})");
    }

    #[test]
    fn flops_scale_linearly_with_parallelism() {
        let cfg = ModelConfig::gpt2(1024);
        let p1 = LayerProfile::analyze(&cfg, 1);
        let p4 = LayerProfile::analyze(&cfg, 4);
        assert_eq!(p4.qkv.flops, 4 * p1.qkv.flops);
        assert_eq!(p4.attention.flops, 4 * p1.attention.flops);
        assert_eq!(p4.ffn.flops, 4 * p1.ffn.flops);
    }

    #[test]
    fn attention_flops_scale_quadratically_with_seq_len() {
        let cfg = ModelConfig::gpt2(1024);
        let a1 = ComputeBreakdown::analyze(&cfg).attention_flops;
        let a2 = ComputeBreakdown::analyze(&cfg.with_seq_len(2048)).attention_flops;
        let ratio = a2 as f64 / a1 as f64;
        assert!(
            (ratio - 4.0).abs() < 0.1,
            "doubling S should ~4x attention FLOPs (got {ratio})"
        );
    }

    #[test]
    fn combine_adds_fields() {
        let a = ComponentProfile {
            flops: 1,
            weight_bytes: 2,
            activation_bytes: 3,
        };
        let b = ComponentProfile {
            flops: 10,
            weight_bytes: 20,
            activation_bytes: 30,
        };
        let c = a.combine(&b);
        assert_eq!(c.flops, 11);
        assert_eq!(c.total_bytes(), 55);
    }

    #[test]
    fn zero_bytes_gives_zero_oi() {
        let p = ComponentProfile::default();
        assert_eq!(p.operational_intensity(), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let cfg = ModelConfig::llama_7b(4096);
        let (a, b, c) = ComputeBreakdown::analyze(&cfg).fractions();
        assert!((a + b + c - 1.0).abs() < 1e-9);
        let (a, b, c) = MemoryFootprint::analyze(&cfg).fractions();
        assert!((a + b + c - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "token parallelism")]
    fn zero_parallelism_panics() {
        let _ = LayerProfile::analyze(&ModelConfig::gpt2(128), 0);
    }
}
