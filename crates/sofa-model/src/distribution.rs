//! Attention score distributions (paper §III-B, Fig. 8).
//!
//! The SADS sorting scheme rests on the *Distributed Cluster Effect* (DCE):
//! attention rows fall into three empirical types —
//!
//! * **Type-I** — dominated by a handful of very large scores,
//! * **Type-II** — dominated by several moderately large scores spread evenly
//!   across the row,
//! * **Type-III** — dominant scores concentrated in one contiguous region.
//!
//! The paper measures that Type-I + Type-II cover > 95 % of real rows, which
//! is why segment-local top-(k/n) selection preserves accuracy. This module
//! provides a generator for rows of each type, per-model mixtures matching the
//! paper's measurements, and a classifier used to regenerate Fig. 8.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sofa_tensor::softmax::softmax_row;

/// One of the three empirical attention-score row shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionType {
    /// A few tokens dominate the whole row.
    TypeI,
    /// Several dominant tokens, spread evenly across the row.
    TypeII,
    /// Several dominant tokens, concentrated in one region.
    TypeIII,
}

impl std::fmt::Display for DistributionType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributionType::TypeI => write!(f, "Type-I"),
            DistributionType::TypeII => write!(f, "Type-II"),
            DistributionType::TypeIII => write!(f, "Type-III"),
        }
    }
}

/// Mixture of row types used when synthesising a model's attention behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDistribution {
    /// Probability of generating a Type-I row.
    pub(crate) p_type1: f64,
    /// Probability of generating a Type-II row.
    pub(crate) p_type2: f64,
    /// Probability of generating a Type-III row.
    pub(crate) p_type3: f64,
    /// Magnitude gap between dominant and background scores (in score units,
    /// pre-softmax). Larger values mean sparser post-softmax mass.
    pub(crate) dominance: f32,
}

impl ScoreDistribution {
    /// Builds a mixture; probabilities are normalised to sum to one.
    ///
    /// # Panics
    ///
    /// Panics if all probabilities are zero or any is negative.
    pub(crate) fn new(p_type1: f64, p_type2: f64, p_type3: f64, dominance: f32) -> Self {
        assert!(
            p_type1 >= 0.0 && p_type2 >= 0.0 && p_type3 >= 0.0,
            "probabilities must be non-negative"
        );
        let total = p_type1 + p_type2 + p_type3;
        assert!(total > 0.0, "at least one probability must be positive");
        ScoreDistribution {
            p_type1: p_type1 / total,
            p_type2: p_type2 / total,
            p_type3: p_type3 / total,
            dominance,
        }
    }

    /// Mixture measured for BERT-style encoder models (Fig. 8(b)):
    /// predominantly Type-II with a modest Type-I share.
    pub fn bert_like() -> Self {
        Self::new(0.15, 0.80, 0.05, 4.0)
    }

    /// Mixture for ViT-style vision models: more Type-I rows due to image
    /// local similarity.
    pub fn vit_like() -> Self {
        Self::new(0.27, 0.70, 0.03, 5.0)
    }

    /// Mixture for GPT-2 / autoregressive decoders.
    pub fn gpt_like() -> Self {
        Self::new(0.25, 0.75, 0.0, 5.0)
    }

    /// Mixture for long-context Llama-style decoders.
    pub fn llama_like() -> Self {
        Self::new(0.23, 0.77, 0.0, 5.5)
    }

    /// Samples the row type for one generated row.
    pub(crate) fn sample_type(&self, rng: &mut ChaCha8Rng) -> DistributionType {
        let x: f64 = rng.gen();
        if x < self.p_type1 {
            DistributionType::TypeI
        } else if x < self.p_type1 + self.p_type2 {
            DistributionType::TypeII
        } else {
            DistributionType::TypeIII
        }
    }

    /// Generates one attention-score row of length `s` following the mixture.
    /// Returns the raw (pre-softmax) scores and the type that was sampled.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub(crate) fn generate_row(
        &self,
        s: usize,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<f32>, DistributionType) {
        assert!(s > 0, "row length must be positive");
        let ty = self.sample_type(rng);
        (self.generate_row_of_type(s, ty, rng), ty)
    }

    /// Generates one row of the requested type.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn generate_row_of_type(
        &self,
        s: usize,
        ty: DistributionType,
        rng: &mut ChaCha8Rng,
    ) -> Vec<f32> {
        assert!(s > 0, "row length must be positive");
        // Background scores: small Gaussian-ish noise around zero.
        let mut row: Vec<f32> = (0..s).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Dominant scores need to outrun the aggregate background mass of the
        // whole row after softmax, so the boost scales with ln(S): softmax of a
        // score `ln(S) + d` against S background scores near zero keeps a
        // constant share of the probability mass regardless of S.
        let boost = (s as f32).ln().max(1.0);
        let dom = self.dominance;
        match ty {
            DistributionType::TypeI => {
                // 1–3 dominant tokens anywhere in the row.
                let n_dom = rng.gen_range(1..=3.min(s));
                for _ in 0..n_dom {
                    let idx = rng.gen_range(0..s);
                    row[idx] += dom + boost + rng.gen_range(0.0..1.0);
                }
            }
            DistributionType::TypeII => {
                // Roughly 3–8 % of tokens moderately dominant, evenly spread:
                // choose one per equally sized stripe.
                let n_dom = ((s as f64 * 0.05).round() as usize).max(4).min(s);
                let stripe = (s / n_dom).max(1);
                for d in 0..n_dom {
                    let lo = d * stripe;
                    if lo >= s {
                        break;
                    }
                    let hi = ((d + 1) * stripe).min(s);
                    let idx = rng.gen_range(lo..hi);
                    row[idx] += dom * 0.6 + boost + rng.gen_range(0.0..0.8);
                }
            }
            DistributionType::TypeIII => {
                // Dominant tokens concentrated in one region covering ~1/8 of
                // the row.
                let region = (s / 8).max(1);
                let start = rng.gen_range(0..s.saturating_sub(region).max(1));
                let n_dom = ((region as f64 * 0.3).round() as usize).max(2).min(region);
                for _ in 0..n_dom {
                    let idx = start + rng.gen_range(0..region);
                    row[idx.min(s - 1)] += dom * 0.6 + boost + rng.gen_range(0.0..0.8);
                }
            }
        }
        row
    }
}

/// Classifies a score row into one of the three types, mirroring the paper's
/// token analysis. `regions` controls the granularity (the paper uses a small
/// number of equal sub-segments, e.g. 2–8).
///
/// Heuristic: look at the tokens holding the top 5 % of post-softmax mass.
/// If fewer than `few_threshold` tokens carry more than half the mass the row
/// is Type-I. Otherwise, if the dominant tokens occupy at least half of the
/// regions the row is Type-II, else Type-III.
///
/// # Panics
///
/// Panics if `row` is empty or `regions == 0`.
pub(crate) fn classify_row(row: &[f32], regions: usize) -> DistributionType {
    assert!(!row.is_empty(), "row must not be empty");
    assert!(regions > 0, "regions must be positive");
    let probs = softmax_row(row);
    let mut idx: Vec<usize> = (0..probs.len()).collect();
    idx.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap());

    // How many tokens does it take to accumulate half of the probability mass?
    let mut cum = 0.0;
    let mut n_half = 0;
    for &i in &idx {
        cum += probs[i];
        n_half += 1;
        if cum >= 0.5 {
            break;
        }
    }
    let few_threshold = (row.len() / 100).clamp(3, 16);
    if n_half <= few_threshold {
        return DistributionType::TypeI;
    }

    // Otherwise look at where the dominant tokens (top 5% of tokens) live.
    let n_dom = (row.len() / 20).max(regions);
    let region_len = row.len().div_ceil(regions);
    let mut occupied = vec![false; regions];
    for &i in idx.iter().take(n_dom) {
        occupied[(i / region_len).min(regions - 1)] = true;
    }
    let n_occ = occupied.iter().filter(|&&o| o).count();
    if n_occ * 2 >= regions {
        DistributionType::TypeII
    } else {
        DistributionType::TypeIII
    }
}

/// Empirically measures the type mixture of many generated rows; used to
/// regenerate Fig. 8(b). Returns fractions `(type1, type2, type3)`.
pub fn measure_mixture(
    dist: &ScoreDistribution,
    s: usize,
    rows: usize,
    regions: usize,
    rng: &mut ChaCha8Rng,
) -> (f64, f64, f64) {
    let mut counts = [0usize; 3];
    for _ in 0..rows {
        let (row, _) = dist.generate_row(s, rng);
        match classify_row(&row, regions) {
            DistributionType::TypeI => counts[0] += 1,
            DistributionType::TypeII => counts[1] += 1,
            DistributionType::TypeIII => counts[2] += 1,
        }
    }
    let total = rows.max(1) as f64;
    (
        counts[0] as f64 / total,
        counts[1] as f64 / total,
        counts[2] as f64 / total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_tensor::seeded_rng;

    #[test]
    fn mixture_normalises() {
        let d = ScoreDistribution::new(2.0, 6.0, 2.0, 4.0);
        assert!((d.p_type1 - 0.2).abs() < 1e-12);
        assert!((d.p_type2 - 0.6).abs() < 1e-12);
        assert!((d.p_type3 - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_mixture_panics() {
        let _ = ScoreDistribution::new(0.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn type1_rows_classify_as_type1() {
        let mut rng = seeded_rng(1);
        let d = ScoreDistribution::bert_like();
        let mut hits = 0;
        for _ in 0..50 {
            let row = d.generate_row_of_type(512, DistributionType::TypeI, &mut rng);
            if classify_row(&row, 4) == DistributionType::TypeI {
                hits += 1;
            }
        }
        assert!(hits >= 40, "Type-I recall too low: {hits}/50");
    }

    #[test]
    fn type2_rows_classify_as_type2() {
        let mut rng = seeded_rng(2);
        let d = ScoreDistribution::bert_like();
        let mut hits = 0;
        for _ in 0..50 {
            let row = d.generate_row_of_type(512, DistributionType::TypeII, &mut rng);
            if classify_row(&row, 4) == DistributionType::TypeII {
                hits += 1;
            }
        }
        assert!(hits >= 40, "Type-II recall too low: {hits}/50");
    }

    #[test]
    fn type3_rows_rarely_classify_as_type2() {
        let mut rng = seeded_rng(3);
        let d = ScoreDistribution::bert_like();
        let mut type3_or_type1 = 0;
        for _ in 0..50 {
            let row = d.generate_row_of_type(1024, DistributionType::TypeIII, &mut rng);
            let c = classify_row(&row, 8);
            if c != DistributionType::TypeII {
                type3_or_type1 += 1;
            }
        }
        assert!(
            type3_or_type1 >= 35,
            "Type-III leakage: {type3_or_type1}/50"
        );
    }

    #[test]
    fn paper_mixtures_are_type2_dominant() {
        // Fig. 8(b): Type-II predominates (>76% on average), Type-III is rare.
        for d in [
            ScoreDistribution::bert_like(),
            ScoreDistribution::vit_like(),
            ScoreDistribution::gpt_like(),
            ScoreDistribution::llama_like(),
        ] {
            assert!(d.p_type2 >= 0.65);
            assert!(d.p_type3 <= 0.06);
        }
    }

    #[test]
    fn measured_mixture_roughly_matches_configured() {
        let mut rng = seeded_rng(7);
        let d = ScoreDistribution::gpt_like();
        let (t1, t2, t3) = measure_mixture(&d, 512, 200, 4, &mut rng);
        assert!(t1 + t2 + t3 > 0.999);
        assert!(t2 > 0.5, "type-II fraction {t2}");
        assert!(t3 < 0.15, "type-III fraction {t3}");
    }

    #[test]
    fn generate_row_respects_length_and_type_sampling() {
        let mut rng = seeded_rng(11);
        let d = ScoreDistribution::llama_like();
        let (row, ty) = d.generate_row(257, &mut rng);
        assert_eq!(row.len(), 257);
        assert_ne!(ty, DistributionType::TypeIII, "llama mixture has p3 = 0");
    }

    #[test]
    fn display_names() {
        assert_eq!(DistributionType::TypeI.to_string(), "Type-I");
        assert_eq!(DistributionType::TypeII.to_string(), "Type-II");
        assert_eq!(DistributionType::TypeIII.to_string(), "Type-III");
    }

    #[test]
    fn small_rows_do_not_panic() {
        let mut rng = seeded_rng(13);
        let d = ScoreDistribution::bert_like();
        for s in [1usize, 2, 3, 7] {
            for ty in [
                DistributionType::TypeI,
                DistributionType::TypeII,
                DistributionType::TypeIII,
            ] {
                let row = d.generate_row_of_type(s, ty, &mut rng);
                assert_eq!(row.len(), s);
                let _ = classify_row(&row, 2);
            }
        }
    }
}
