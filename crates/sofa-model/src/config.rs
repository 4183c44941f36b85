//! Model shape configurations.
//!
//! Only the shapes matter for the SOFA evaluation: number of layers, heads,
//! hidden width, FFN width and sequence length determine every FLOP and byte
//! count in the paper's figures. The presets below follow the published
//! architecture descriptions of the models the paper evaluates.

/// Families of models used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ModelFamily {
    /// Encoder-only NLP models (BERT-Base / BERT-Large).
    Bert,
    /// Decoder-only language models (GPT-2, Bloom, Llama).
    Decoder,
    /// Vision transformers (ViT-B, PVT).
    Vision,
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelFamily::Bert => write!(f, "BERT"),
            ModelFamily::Decoder => write!(f, "decoder"),
            ModelFamily::Vision => write!(f, "vision"),
        }
    }
}

/// Shape configuration of one Transformer model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Human readable name, e.g. `"Llama-7B"`.
    pub name: String,
    /// Model family.
    pub(crate) family: ModelFamily,
    /// Number of Transformer layers.
    pub(crate) layers: usize,
    /// Hidden dimension `H`.
    pub hidden: usize,
    /// Number of attention heads `A`.
    pub heads: usize,
    /// FFN intermediate dimension.
    pub(crate) ffn_dim: usize,
    /// Sequence length `S` this configuration is evaluated at.
    pub seq_len: usize,
    /// Byte width of activations in the formal computing stage (2 = FP16/INT16).
    pub(crate) act_bytes: usize,
}

impl ModelConfig {
    /// Constructs an arbitrary configuration.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads` or any dimension is zero.
    pub(crate) fn new(
        name: &str,
        family: ModelFamily,
        layers: usize,
        hidden: usize,
        heads: usize,
        ffn_dim: usize,
        seq_len: usize,
    ) -> Self {
        assert!(layers > 0 && hidden > 0 && heads > 0 && ffn_dim > 0 && seq_len > 0);
        assert!(
            hidden.is_multiple_of(heads),
            "hidden ({hidden}) must be divisible by heads ({heads})"
        );
        ModelConfig {
            name: name.to_string(),
            family,
            layers,
            hidden,
            heads,
            ffn_dim,
            seq_len,
            act_bytes: 2,
        }
    }

    /// Returns a copy of this configuration with a different sequence length.
    pub fn with_seq_len(&self, seq_len: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        ModelConfig {
            seq_len,
            ..self.clone()
        }
    }

    /// BERT-Base: 12 layers, 768 hidden, 12 heads.
    pub fn bert_base(seq_len: usize) -> Self {
        Self::new("BERT-Base", ModelFamily::Bert, 12, 768, 12, 3072, seq_len)
    }

    /// BERT-Large: 24 layers, 1024 hidden, 16 heads.
    pub fn bert_large(seq_len: usize) -> Self {
        Self::new("BERT-Large", ModelFamily::Bert, 24, 1024, 16, 4096, seq_len)
    }

    /// GPT-2 (small): 12 layers, 768 hidden, 12 heads.
    pub fn gpt2(seq_len: usize) -> Self {
        Self::new("GPT-2", ModelFamily::Decoder, 12, 768, 12, 3072, seq_len)
    }

    /// GPT-2 Large: 36 layers, 1280 hidden, 20 heads.
    pub fn gpt2_large(seq_len: usize) -> Self {
        Self::new("GPT2-L", ModelFamily::Decoder, 36, 1280, 20, 5120, seq_len)
    }

    /// Bloom-1.7B: 24 layers, 2048 hidden, 16 heads.
    pub fn bloom_1b7(seq_len: usize) -> Self {
        Self::new(
            "Bloom-1.7B",
            ModelFamily::Decoder,
            24,
            2048,
            16,
            8192,
            seq_len,
        )
    }

    /// Bloom-3B: 30 layers, 2560 hidden, 32 heads.
    pub fn bloom_3b(seq_len: usize) -> Self {
        Self::new(
            "Bloom-3B",
            ModelFamily::Decoder,
            30,
            2560,
            32,
            10240,
            seq_len,
        )
    }

    /// Llama-7B: 32 layers, 4096 hidden, 32 heads, 11008 FFN.
    pub fn llama_7b(seq_len: usize) -> Self {
        Self::new(
            "Llama-7B",
            ModelFamily::Decoder,
            32,
            4096,
            32,
            11008,
            seq_len,
        )
    }

    /// Llama-13B: 40 layers, 5120 hidden, 40 heads, 13824 FFN.
    pub fn llama_13b(seq_len: usize) -> Self {
        Self::new(
            "Llama-13B",
            ModelFamily::Decoder,
            40,
            5120,
            40,
            13824,
            seq_len,
        )
    }

    /// ViT-Base: 12 layers, 768 hidden, 12 heads, 196(+1) patch tokens by
    /// default but callers override `seq_len` for the long-sequence studies.
    pub fn vit_base(seq_len: usize) -> Self {
        Self::new("ViT-B", ModelFamily::Vision, 12, 768, 12, 3072, seq_len)
    }

    /// PVT (Pyramid Vision Transformer) with the 3192-token stage the paper
    /// evaluates for ImageNet classification.
    pub(crate) fn pvt(seq_len: usize) -> Self {
        Self::new("PVT", ModelFamily::Vision, 16, 512, 8, 2048, seq_len)
    }

    /// All the model presets used across the paper's figures, at their
    /// headline sequence lengths.
    pub fn paper_presets() -> Vec<ModelConfig> {
        vec![
            Self::bert_base(512),
            Self::bert_large(512),
            Self::gpt2(1024),
            Self::bloom_1b7(2048),
            Self::llama_7b(4096),
            Self::llama_13b(8192),
            Self::vit_base(3192),
            Self::pvt(3192),
        ]
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (L={}, H={}, A={}, FFN={}, S={})",
            self.name, self.layers, self.hidden, self.heads, self.ffn_dim, self.seq_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_consistent_head_dims() {
        for cfg in ModelConfig::paper_presets() {
            assert_eq!(cfg.hidden % cfg.heads, 0, "{}", cfg.name);
            assert!(cfg.hidden / cfg.heads >= 32, "{}", cfg.name);
        }
    }

    #[test]
    fn llama_shapes_match_published_architecture() {
        let l7 = ModelConfig::llama_7b(4096);
        assert_eq!(l7.layers, 32);
        assert_eq!(l7.hidden, 4096);
        assert_eq!(l7.hidden / l7.heads, 128);
        let l13 = ModelConfig::llama_13b(4096);
        assert_eq!(l13.layers, 40);
        assert_eq!(l13.hidden, 5120);
    }

    #[test]
    fn with_seq_len_only_changes_seq_len() {
        let base = ModelConfig::bert_base(256);
        let longer = base.with_seq_len(4096);
        assert_eq!(longer.seq_len, 4096);
        assert_eq!(longer.layers, base.layers);
        assert_eq!(longer.name, base.name);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn new_rejects_inconsistent_heads() {
        let _ = ModelConfig::new("bad", ModelFamily::Bert, 1, 100, 3, 128, 16);
    }

    #[test]
    fn display_contains_name_and_dims() {
        let s = ModelConfig::gpt2(1024).to_string();
        assert!(s.contains("GPT-2"));
        assert!(s.contains("S=1024"));
    }
}
