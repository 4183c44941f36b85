//! The 20-benchmark evaluation suite (paper §V-A).
//!
//! The paper evaluates SOFA on 20 (model, task) pairs: BERT-Base and
//! BERT-Large on five GLUE/SQuAD tasks each, GPT-2 / Bloom-1.7B /
//! Llama-7B / Llama-13B on language-modelling datasets, and PVT/ViT on
//! ImageNet. Each benchmark carries the sequence length the paper uses and a
//! task-dependent *sparsity affinity* — how aggressively top-k pruning can be
//! applied at a given accuracy-loss budget (the paper notes e.g. SST-2/STS-B
//! tolerate ~90 % reduction while image tasks only ~73 %).

use crate::config::ModelConfig;
use crate::distribution::ScoreDistribution;

/// Task category, which determines the sparsity affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TaskKind {
    /// Sentence-level classification (high sparsity: a few keywords decide).
    Classification,
    /// Span extraction / QA (moderate sparsity).
    Extraction,
    /// Semantic similarity / NLI (high sparsity).
    Similarity,
    /// Autoregressive language modelling (moderate sparsity).
    LanguageModeling,
    /// Image classification (lower sparsity: dense visual information).
    ImageClassification,
}

/// One (model, task) benchmark of the evaluation suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Short identifier, e.g. `"BERT-B/MRPC"`.
    pub name: String,
    /// Model configuration at the paper's sequence length for this task.
    pub model: ModelConfig,
    /// Task category.
    pub(crate) task: TaskKind,
    /// Attention score distribution mixture for this model family.
    pub(crate) distribution: ScoreDistribution,
    /// Fraction of Q-K pairs that can be pruned at ~1 % accuracy loss
    /// (task-dependent sparsity affinity).
    pub(crate) prunable_fraction: f64,
}

impl Benchmark {
    fn new(
        name: &str,
        model: ModelConfig,
        task: TaskKind,
        distribution: ScoreDistribution,
        prunable_fraction: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&prunable_fraction));
        Benchmark {
            name: name.to_string(),
            model,
            task,
            distribution,
            prunable_fraction,
        }
    }

    /// The top-k keep ratio (fraction of keys kept) that meets the given
    /// accuracy-loss budget for this benchmark.
    ///
    /// The mapping follows the paper's observation that looser loss budgets
    /// allow smaller k: 0 % keeps `1 - prunable`, 1 % keeps ~85 % of that and
    /// 2 % keeps ~70 % of that.
    ///
    /// # Panics
    ///
    /// Panics if `loss_budget` is negative.
    pub fn keep_ratio(&self, loss_budget: f64) -> f64 {
        assert!(loss_budget >= 0.0, "loss budget must be non-negative");
        let base = 1.0 - self.prunable_fraction;
        let factor = if loss_budget >= 0.02 {
            0.70
        } else if loss_budget >= 0.01 {
            0.85
        } else {
            1.0
        };
        (base * factor).clamp(0.02, 1.0)
    }
}

/// Builds the full 20-benchmark suite used throughout the evaluation.
#[allow(clippy::vec_init_then_push)] // 20 annotated entries read better as a push list
pub fn benchmark_suite() -> Vec<Benchmark> {
    use TaskKind::*;
    let bert_b = |s| ModelConfig::bert_base(s);
    let bert_l = |s| ModelConfig::bert_large(s);
    let mut v = Vec::new();

    // BERT-Base on five GLUE/SQuAD tasks (max sequence lengths from §V-A).
    v.push(Benchmark::new(
        "BERT-B/MRPC",
        bert_b(256),
        Similarity,
        ScoreDistribution::bert_like(),
        0.80,
    ));
    v.push(Benchmark::new(
        "BERT-B/RTE",
        bert_b(256),
        Classification,
        ScoreDistribution::bert_like(),
        0.82,
    ));
    v.push(Benchmark::new(
        "BERT-B/SQuAD",
        bert_b(384),
        Extraction,
        ScoreDistribution::bert_like(),
        0.72,
    ));
    v.push(Benchmark::new(
        "BERT-B/STS-B",
        bert_b(512),
        Similarity,
        ScoreDistribution::bert_like(),
        0.88,
    ));
    v.push(Benchmark::new(
        "BERT-B/QNLI",
        bert_b(512),
        Classification,
        ScoreDistribution::bert_like(),
        0.84,
    ));

    // BERT-Large on the same five tasks.
    v.push(Benchmark::new(
        "BERT-L/MRPC",
        bert_l(256),
        Similarity,
        ScoreDistribution::bert_like(),
        0.80,
    ));
    v.push(Benchmark::new(
        "BERT-L/RTE",
        bert_l(256),
        Classification,
        ScoreDistribution::bert_like(),
        0.82,
    ));
    v.push(Benchmark::new(
        "BERT-L/SQuAD",
        bert_l(384),
        Extraction,
        ScoreDistribution::bert_like(),
        0.73,
    ));
    v.push(Benchmark::new(
        "BERT-L/STS-B",
        bert_l(512),
        Similarity,
        ScoreDistribution::bert_like(),
        0.88,
    ));
    v.push(Benchmark::new(
        "BERT-L/QNLI",
        bert_l(512),
        Classification,
        ScoreDistribution::bert_like(),
        0.85,
    ));

    // Decoder language models on LM / summarisation / commonsense datasets.
    v.push(Benchmark::new(
        "GPT-2/WikiText-2",
        ModelConfig::gpt2(1024),
        LanguageModeling,
        ScoreDistribution::gpt_like(),
        0.78,
    ));
    v.push(Benchmark::new(
        "GPT-2/Wiki-raw",
        ModelConfig::gpt2(1024),
        LanguageModeling,
        ScoreDistribution::gpt_like(),
        0.76,
    ));
    v.push(Benchmark::new(
        "Bloom-1.7B/WikiLingua",
        ModelConfig::bloom_1b7(2048),
        LanguageModeling,
        ScoreDistribution::gpt_like(),
        0.77,
    ));
    v.push(Benchmark::new(
        "Bloom-1.7B/WikiText-2",
        ModelConfig::bloom_1b7(2048),
        LanguageModeling,
        ScoreDistribution::gpt_like(),
        0.78,
    ));
    v.push(Benchmark::new(
        "Llama-7B/WikiText-2",
        ModelConfig::llama_7b(4096),
        LanguageModeling,
        ScoreDistribution::llama_like(),
        0.80,
    ));
    v.push(Benchmark::new(
        "Llama-7B/Winogrande",
        ModelConfig::llama_7b(4096),
        LanguageModeling,
        ScoreDistribution::llama_like(),
        0.81,
    ));
    v.push(Benchmark::new(
        "Llama-13B/WikiText-2",
        ModelConfig::llama_13b(4096),
        LanguageModeling,
        ScoreDistribution::llama_like(),
        0.80,
    ));
    v.push(Benchmark::new(
        "Llama-13B/Winogrande",
        ModelConfig::llama_13b(4096),
        LanguageModeling,
        ScoreDistribution::llama_like(),
        0.82,
    ));

    // Vision benchmarks.
    v.push(Benchmark::new(
        "ViT-B/ImageNet",
        ModelConfig::vit_base(3192),
        ImageClassification,
        ScoreDistribution::vit_like(),
        0.70,
    ));
    v.push(Benchmark::new(
        "PVT/ImageNet",
        ModelConfig::pvt(3192),
        ImageClassification,
        ScoreDistribution::vit_like(),
        0.73,
    ));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_benchmarks() {
        assert_eq!(benchmark_suite().len(), 20);
    }

    #[test]
    fn benchmark_names_are_unique() {
        let suite = benchmark_suite();
        let mut names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn keep_ratio_decreases_with_loss_budget() {
        for b in benchmark_suite() {
            let k0 = b.keep_ratio(0.0);
            let k1 = b.keep_ratio(0.01);
            let k2 = b.keep_ratio(0.02);
            assert!(k0 >= k1 && k1 >= k2, "{}", b.name);
            assert!(k2 >= 0.02 && k0 <= 1.0);
        }
    }

    #[test]
    fn text_classification_is_sparser_than_vision() {
        let suite = benchmark_suite();
        let stsb = suite.iter().find(|b| b.name.contains("STS-B")).unwrap();
        let vit = suite.iter().find(|b| b.name.contains("ViT")).unwrap();
        assert!(stsb.prunable_fraction > vit.prunable_fraction);
    }

    #[test]
    fn sequence_lengths_match_paper_settings() {
        let suite = benchmark_suite();
        let sq = suite.iter().find(|b| b.name == "BERT-B/SQuAD").unwrap();
        assert_eq!(sq.model.seq_len, 384);
        let llama = suite
            .iter()
            .find(|b| b.name == "Llama-7B/WikiText-2")
            .unwrap();
        assert_eq!(llama.model.seq_len, 4096);
        let bloom = suite.iter().find(|b| b.name.contains("Bloom")).unwrap();
        assert_eq!(bloom.model.seq_len, 2048);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_loss_budget_panics() {
        let b = &benchmark_suite()[0];
        let _ = b.keep_ratio(-0.1);
    }
}
