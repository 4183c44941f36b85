//! The discrete design space of per-layer tile sizes and per-layer keep
//! ratios (paper §III-D, widened beyond the paper's layer-shared keep), plus
//! the analytic penalty terms the proxy-mode search combines with a measured
//! loss.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sofa_model::OperatingPoint;

/// The discrete search space.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSpace {
    /// Candidate tile sizes `Bc` (paper: 2..=32, step 2).
    pub tile_options: Vec<usize>,
    /// Candidate keep ratios (paper: 5 %..=50 %, step 5 %).
    pub keep_options: Vec<f64>,
    /// Number of Transformer layers (one tile size and one keep ratio chosen
    /// per layer).
    pub(crate) layers: usize,
    /// Sequence length the penalties are computed against.
    pub(crate) seq_len: usize,
}

impl DseSpace {
    /// The paper's search space for a model with `layers` layers at
    /// `seq_len`, widened to non-uniform keeps: the paper ties one keep ratio
    /// to all layers, this space picks one per layer so the tuner can trade
    /// early-layer recall against late-layer pruning.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0` or `seq_len == 0`.
    pub fn paper_space(layers: usize, seq_len: usize) -> Self {
        assert!(
            layers > 0 && seq_len > 0,
            "layers and seq_len must be positive"
        );
        DseSpace {
            tile_options: (1..=16).map(|i| i * 2).collect(),
            keep_options: (1..=10).map(|i| i as f64 * 0.05).collect(),
            layers,
            seq_len,
        }
    }

    /// The paper's default operating point inside this space: keep ratio 25 %
    /// and tile size 16 on every layer — the configuration the rest of the
    /// workspace (pipeline defaults, hardware experiments) runs at, and the
    /// baseline a hardware-aware search must beat.
    pub fn paper_default_candidate(&self) -> DseCandidate {
        DseCandidate::uniform(0.25, 16, self.layers)
    }

    /// Total number of configurations in the space.
    pub fn cardinality(&self) -> f64 {
        ((self.keep_options.len() * self.tile_options.len()) as f64).powi(self.layers as i32)
    }

    /// Samples one random candidate (independent per-layer keeps and tiles).
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> DseCandidate {
        DseCandidate {
            keep_ratios: (0..self.layers)
                .map(|_| self.keep_options[rng.gen_range(0..self.keep_options.len())])
                .collect(),
            tile_sizes: (0..self.layers)
                .map(|_| self.tile_options[rng.gen_range(0..self.tile_options.len())])
                .collect(),
        }
    }

    /// Encodes a candidate as a normalised feature vector for the surrogate:
    /// per-layer keeps first, then per-layer tiles.
    pub(crate) fn encode(&self, c: &DseCandidate) -> Vec<f64> {
        let kmax = *self
            .keep_options
            .last()
            .expect("keep options must not be empty");
        let bmax = *self
            .tile_options
            .last()
            .expect("tile options must not be empty") as f64;
        let mut v = Vec::with_capacity(c.keep_ratios.len() + c.tile_sizes.len());
        for &k in &c.keep_ratios {
            v.push(k / kmax);
        }
        for &b in &c.tile_sizes {
            v.push(b as f64 / bmax);
        }
        v
    }
}

/// One point of the design space: per-layer keep ratios plus per-layer tile
/// sizes — the search-side twin of [`OperatingPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct DseCandidate {
    /// Top-k keep ratio per layer.
    pub keep_ratios: Vec<f64>,
    /// Tile size `Bc` per layer.
    pub tile_sizes: Vec<usize>,
}

impl DseCandidate {
    /// A candidate with the same `(keep, Bc)` pair on every layer — the shape
    /// of the paper's layer-shared space, used for probe grids and tests.
    pub(crate) fn uniform(keep_ratio: f64, tile_size: usize, layers: usize) -> Self {
        DseCandidate {
            keep_ratios: vec![keep_ratio; layers],
            tile_sizes: vec![tile_size; layers],
        }
    }

    /// The candidate as a deployable [`OperatingPoint`].
    ///
    /// # Panics
    ///
    /// Panics if the candidate violates the operating-point invariants
    /// (cannot happen for candidates drawn from a [`DseSpace`]).
    pub fn operating_point(&self) -> OperatingPoint {
        OperatingPoint::new(self.keep_ratios.clone(), self.tile_sizes.clone())
            .expect("space candidates are valid operating points")
    }

    /// Mean keep ratio across layers (for reporting).
    pub fn mean_keep(&self) -> f64 {
        self.keep_ratios.iter().sum::<f64>() / self.keep_ratios.len().max(1) as f64
    }

    /// Sorting-cost penalty `L_cmp = Σ (Bcᵢ·kᵢ·S) / Σ (S·kᵢ·S)` — the kept
    /// pairs each layer sorts, weighted by that layer's keep.
    pub(crate) fn penalty_cmp(&self, seq_len: usize) -> f64 {
        if self.tile_sizes.is_empty() {
            return 0.0;
        }
        let num: f64 = self
            .tile_sizes
            .iter()
            .zip(&self.keep_ratios)
            .map(|(&b, &k)| b as f64 * k)
            .sum();
        let den: f64 = self.keep_ratios.iter().map(|&k| seq_len as f64 * k).sum();
        num / den.max(f64::MIN_POSITIVE)
    }

    /// Tile-synchronisation penalty `L_exp = Σ (S / Bcᵢ)`, normalised by the
    /// worst case (`layers · S / min_bc = layers · S / 2`) so it is
    /// commensurable with the loss term.
    pub(crate) fn penalty_exp(&self, seq_len: usize) -> f64 {
        if self.tile_sizes.is_empty() {
            return 0.0;
        }
        let raw: f64 = self
            .tile_sizes
            .iter()
            .map(|&b| seq_len as f64 / b.max(1) as f64)
            .sum();
        let worst = self.tile_sizes.len() as f64 * seq_len as f64 / 2.0;
        raw / worst
    }

    /// Total-order comparison with another candidate — the shared
    /// `(keep bits, tiles)` rule of
    /// [`sofa_model::operating_point::cmp_point_key`] — used for
    /// deterministic tie-breaking. Allocation-free (it runs inside sort and
    /// `min_by` comparators).
    pub(crate) fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        sofa_model::operating_point::cmp_point_key(
            &self.keep_ratios,
            &self.tile_sizes,
            &other.keep_ratios,
            &other.tile_sizes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_tensor::seeded_rng;

    #[test]
    fn space_cardinality_is_huge_for_deep_models() {
        let space = DseSpace::paper_space(12, 512);
        assert!(space.cardinality() > 1e14, "got {}", space.cardinality());
        // Per-layer keeps widen the space beyond the layer-shared variant.
        let shared = 10.0 * 16f64.powi(12);
        assert!(space.cardinality() > shared);
    }

    #[test]
    fn penalties_behave_monotonically() {
        let small = DseCandidate::uniform(0.2, 2, 2);
        let large = DseCandidate::uniform(0.2, 32, 2);
        // Larger tiles → more sorting cost, fewer synchronisations.
        assert!(large.penalty_cmp(512) > small.penalty_cmp(512));
        assert!(large.penalty_exp(512) < small.penalty_exp(512));
        assert!(small.penalty_exp(512) <= 1.0 + 1e-12);
        // Uniform keeps reproduce the layer-shared formula mean(Bc)/S.
        let mixed = DseCandidate::uniform(0.25, 16, 4);
        assert!((mixed.penalty_cmp(512) - 16.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn cmp_penalty_weights_layers_by_their_keep() {
        // A big tile on a barely-kept layer should cost less than the same
        // big tile on a heavily-kept layer.
        let heavy_on_big = DseCandidate {
            keep_ratios: vec![0.05, 0.50],
            tile_sizes: vec![2, 32],
        };
        let light_on_big = DseCandidate {
            keep_ratios: vec![0.50, 0.05],
            tile_sizes: vec![2, 32],
        };
        assert!(heavy_on_big.penalty_cmp(512) > light_on_big.penalty_cmp(512));
    }

    #[test]
    fn paper_default_sits_inside_the_space() {
        let space = DseSpace::paper_space(6, 1024);
        let d = space.paper_default_candidate();
        assert_eq!(d.tile_sizes, vec![16; 6]);
        assert_eq!(d.keep_ratios.len(), 6);
        assert!(space.tile_options.contains(&16));
        for &k in &d.keep_ratios {
            assert!(space.keep_options.iter().any(|&o| (o - k).abs() < 1e-12));
        }
    }

    #[test]
    fn samples_stay_inside_the_space() {
        let space = DseSpace::paper_space(4, 512);
        let mut rng = seeded_rng(1);
        let mut saw_non_uniform_keeps = false;
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            assert_eq!(c.tile_sizes.len(), 4);
            assert_eq!(c.keep_ratios.len(), 4);
            assert!(c.tile_sizes.iter().all(|b| space.tile_options.contains(b)));
            for &k in &c.keep_ratios {
                assert!(space.keep_options.iter().any(|&o| (o - k).abs() < 1e-12));
            }
            saw_non_uniform_keeps |= c.keep_ratios.windows(2).any(|w| w[0] != w[1]);
        }
        assert!(
            saw_non_uniform_keeps,
            "the widened space must sample non-uniform keeps"
        );
    }

    #[test]
    fn candidates_convert_to_operating_points() {
        let c = DseCandidate {
            keep_ratios: vec![0.1, 0.3],
            tile_sizes: vec![8, 32],
        };
        let op = c.operating_point();
        assert_eq!(op.layers(), 2);
        assert_eq!(op.keeps(), c.keep_ratios.as_slice());
        assert_eq!(op.tiles(), c.tile_sizes.as_slice());
        assert!((c.mean_keep() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn encode_normalises_into_unit_range() {
        let space = DseSpace::paper_space(3, 256);
        let v = space.encode(&space.paper_default_candidate());
        assert_eq!(v.len(), 6, "per-layer keeps and tiles each get a feature");
        assert!(v.iter().all(|&x| x > 0.0 && x <= 1.0));
    }
}
