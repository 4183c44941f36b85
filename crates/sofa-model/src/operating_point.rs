//! The cross-stage operating point: per-layer tile sizes and keep ratios.
//!
//! SOFA's central claim is that the tiling and pruning parameters of the four
//! pipeline stages must be chosen *together*; this module makes that joint
//! choice a first-class value. An [`OperatingPoint`] carries one `(keep
//! ratio, tile size)` pair per Transformer layer and is the only currency the
//! rest of the workspace accepts for lowering work onto the pipeline:
//!
//! * `sofa-core` builds per-layer `PipelineConfig`s from it
//!   (`PipelineConfig::for_layer`) and batches over it
//!   (`SofaPipeline::run_batch`);
//! * `sofa-hw` lowers one layer of a request into an `AttentionTask`
//!   (`AttentionTask::at_layer`);
//! * `sofa-dse` candidates convert into operating points
//!   (`DseCandidate::operating_point`) and the Pareto front routes request
//!   classes to points (`ParetoFront::route`);
//! * `sofa-serve` admits every request at a routed point and switches tile
//!   size and keep ratio between the layer invocations of its lowering.
//!
//! Scalar `(keep, Bc)` pairs only appear inside the constructors here —
//! everything downstream consumes the validated vector form.

/// One cross-stage operating point: a keep ratio and a tile size per layer.
///
/// Invariants (enforced at construction): at least one layer, every keep
/// ratio in `(0, 1]`, every tile size positive, and both vectors the same
/// length.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    keep_ratios: Vec<f64>,
    tile_sizes: Vec<usize>,
}

impl OperatingPoint {
    /// Creates a point from per-layer keep ratios and tile sizes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated invariant.
    pub fn new(keep_ratios: Vec<f64>, tile_sizes: Vec<usize>) -> Result<Self, String> {
        if keep_ratios.is_empty() {
            return Err("operating point needs at least one layer".into());
        }
        if keep_ratios.len() != tile_sizes.len() {
            return Err(format!(
                "layer count mismatch: {} keep ratios vs {} tile sizes",
                keep_ratios.len(),
                tile_sizes.len()
            ));
        }
        if let Some(&k) = keep_ratios.iter().find(|&&k| !(k > 0.0 && k <= 1.0)) {
            return Err(format!("keep ratio {k} outside (0, 1]"));
        }
        if tile_sizes.contains(&0) {
            return Err("tile sizes must be positive".into());
        }
        Ok(OperatingPoint {
            keep_ratios,
            tile_sizes,
        })
    }

    /// The same `(keep, tile)` pair on every one of `layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if the pair or the layer count is invalid.
    pub fn uniform(keep_ratio: f64, tile_size: usize, layers: usize) -> Self {
        Self::new(vec![keep_ratio; layers], vec![tile_size; layers])
            .expect("invalid uniform operating point")
    }

    /// A one-layer point — the operating point of a single attention slice.
    ///
    /// # Panics
    ///
    /// Panics if the pair is invalid.
    pub fn single(keep_ratio: f64, tile_size: usize) -> Self {
        Self::uniform(keep_ratio, tile_size, 1)
    }

    /// The paper's operating point (keep 25 %, `Bc = 16`) on `layers` layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn paper_default(layers: usize) -> Self {
        Self::uniform(0.25, 16, layers)
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.keep_ratios.len()
    }

    /// Keep ratio of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn keep(&self, layer: usize) -> f64 {
        self.keep_ratios[layer]
    }

    /// Tile size of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn tile(&self, layer: usize) -> usize {
        self.tile_sizes[layer]
    }

    /// All per-layer keep ratios.
    pub fn keeps(&self) -> &[f64] {
        &self.keep_ratios
    }

    /// All per-layer tile sizes.
    pub fn tiles(&self) -> &[usize] {
        &self.tile_sizes
    }

    /// Mean keep ratio across layers.
    pub fn mean_keep(&self) -> f64 {
        self.keep_ratios.iter().sum::<f64>() / self.keep_ratios.len() as f64
    }

    /// The same tiling with every layer's keep ratio replaced by `keep` —
    /// how the serving layer honours a trace's native keep ratio while
    /// keeping the deployment's tiling.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is outside `(0, 1]`.
    pub fn with_uniform_keep(&self, keep: f64) -> Self {
        Self::new(vec![keep; self.layers()], self.tile_sizes.clone())
            .expect("invalid keep override")
    }
}

/// Lexicographic total-order comparison of two `(keep ratios, tile sizes)`
/// pairs: keep ratios by IEEE bit pattern (all keeps are positive, so the
/// bit pattern sorts in value order), then the tile-size vectors.
/// Allocation-free; the DSE candidate type breaks its ties with it.
pub fn cmp_point_key(
    a_keeps: &[f64],
    a_tiles: &[usize],
    b_keeps: &[f64],
    b_tiles: &[usize],
) -> std::cmp::Ordering {
    a_keeps
        .iter()
        .map(|k| k.to_bits())
        .cmp(b_keeps.iter().map(|k| k.to_bits()))
        .then_with(|| a_tiles.cmp(b_tiles))
}

impl std::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keeps: Vec<String> = self
            .keep_ratios
            .iter()
            .map(|k| format!("{:.0}%", k * 100.0))
            .collect();
        write!(f, "keep [{}] Bc {:?}", keeps.join(" "), self.tile_sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_enforces_the_invariants() {
        assert!(OperatingPoint::new(vec![], vec![]).is_err());
        assert!(OperatingPoint::new(vec![0.2], vec![16, 8]).is_err());
        assert!(OperatingPoint::new(vec![0.0], vec![16]).is_err());
        assert!(OperatingPoint::new(vec![1.1], vec![16]).is_err());
        assert!(OperatingPoint::new(vec![0.2], vec![0]).is_err());
        assert!(OperatingPoint::new(vec![0.2, 1.0], vec![16, 2]).is_ok());
    }

    #[test]
    fn uniform_and_paper_default_shapes() {
        let p = OperatingPoint::paper_default(3);
        assert_eq!(p.layers(), 3);
        assert_eq!(p.tiles(), &[16, 16, 16]);
        assert!((p.mean_keep() - 0.25).abs() < 1e-12);
        let s = OperatingPoint::single(0.1, 32);
        assert_eq!(s.layers(), 1);
        assert_eq!((s.keep(0), s.tile(0)), (0.1, 32));
    }

    #[test]
    fn accessors_and_max_tile() {
        let p = OperatingPoint::new(vec![0.1, 0.3], vec![8, 32]).unwrap();
        assert!((p.mean_keep() - 0.2).abs() < 1e-12);
        assert_eq!(p.keep(1), 0.3);
        assert_eq!(p.tile(0), 8);
    }

    #[test]
    fn keep_override_preserves_the_tiling() {
        let p = OperatingPoint::new(vec![0.1, 0.3], vec![8, 32]).unwrap();
        let q = p.with_uniform_keep(0.5);
        assert_eq!(q.tiles(), p.tiles());
        assert_eq!(q.keeps(), &[0.5, 0.5]);
    }

    #[test]
    fn display_is_compact() {
        let p = OperatingPoint::new(vec![0.1, 0.25], vec![8, 16]).unwrap();
        assert_eq!(format!("{p}"), "keep [10% 25%] Bc [8, 16]");
    }
}
