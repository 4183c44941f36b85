//! Per-tile selection statistics of a top-k mask.
//!
//! The cross-stage tiled pipeline partitions the context dimension `S` into
//! tiles of `Bc` keys. How the selected Q-K pairs distribute over those tiles
//! decides the per-tile load of the sorting / KV-generation / formal stages:
//! the Distributed Cluster Effect (paper §III-B) makes the distribution fairly
//! even, but real masks still show imbalance that a cycle-level simulator must
//! see. [`TileSelectionStats`] extracts exactly that — per-tile kept-pair
//! counts and per-tile distinct-key counts — from a real [`TopKMask`], and
//! offers an expected-value construction for when no mask is available.

use crate::topk::TopKMask;

/// Per-tile counts of selected Q-K pairs and distinct selected keys.
#[derive(Debug, Clone, PartialEq)]
pub struct TileSelectionStats {
    /// Cross-stage tile size `Bc` used to bucket the keys.
    pub tile_size: usize,
    /// Context length `S` the tiles partition.
    pub seq_len: usize,
    /// Number of query rows the mask covered.
    pub(crate) queries: usize,
    /// Selected Q-K pairs whose key falls in each tile (summed over queries).
    pub kept_per_tile: Vec<u64>,
    /// Distinct keys in each tile selected by at least one query — the keys
    /// the on-demand KV-generation stage must materialise for the tile.
    pub distinct_per_tile: Vec<u64>,
}

impl TileSelectionStats {
    /// Measures the per-tile selection counts of a real mask.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero.
    pub fn from_mask(mask: &TopKMask, tile_size: usize) -> Self {
        assert!(tile_size > 0, "tile_size must be positive");
        let s = mask.seq_len();
        let n = s.div_ceil(tile_size).max(1);
        let mut kept = vec![0u64; n];
        let mut distinct_seen = vec![false; s];
        for row in mask.iter() {
            for &key in row {
                kept[key / tile_size] += 1;
                distinct_seen[key] = true;
            }
        }
        let mut distinct = vec![0u64; n];
        for (key, &seen) in distinct_seen.iter().enumerate() {
            if seen {
                distinct[key / tile_size] += 1;
            }
        }
        TileSelectionStats {
            tile_size,
            seq_len: s,
            queries: mask.queries(),
            kept_per_tile: kept,
            distinct_per_tile: distinct,
        }
    }

    /// Expected-value statistics for a uniform selection: `k` keys kept per
    /// query and a fraction `union_fraction` of all keys selected by at least
    /// one query, both spread proportionally to each tile's width. This is the
    /// fallback the hardware models use when no real mask is available.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` or `seq_len` is zero, or `union_fraction` is
    /// outside `[0, 1]`.
    pub fn uniform(
        queries: usize,
        seq_len: usize,
        tile_size: usize,
        k_per_query: usize,
        union_fraction: f64,
    ) -> Self {
        assert!(tile_size > 0 && seq_len > 0, "dimensions must be positive");
        assert!(
            (0.0..=1.0).contains(&union_fraction),
            "union_fraction out of range"
        );
        let n = seq_len.div_ceil(tile_size).max(1);
        let total_kept = (queries * k_per_query) as u64;
        // Ceil matches the analytic accelerator model's union-key count.
        let total_distinct = (union_fraction * seq_len as f64).ceil() as u64;
        let widths: Vec<f64> = (0..n)
            .map(|i| (seq_len - i * tile_size).min(tile_size) as f64)
            .collect();
        TileSelectionStats {
            tile_size,
            seq_len,
            queries,
            kept_per_tile: split_proportional(total_kept, &widths),
            distinct_per_tile: split_proportional(total_distinct, &widths),
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.kept_per_tile.len()
    }

    /// Number of keys the tile at `index` covers (the last tile may be short).
    pub fn tile_width(&self, index: usize) -> usize {
        (self.seq_len - (index * self.tile_size).min(self.seq_len)).min(self.tile_size)
    }

    /// Total selected Q-K pairs across tiles.
    pub fn total_kept(&self) -> u64 {
        self.kept_per_tile.iter().sum()
    }

    /// Total distinct selected keys across tiles.
    pub fn total_distinct(&self) -> u64 {
        self.distinct_per_tile.iter().sum()
    }

    /// Load imbalance of the kept pairs: the busiest tile's share divided by
    /// the mean share (1.0 = perfectly balanced). The formal stage of a tiled
    /// pipeline runs at the pace of the busiest tile, so this is the factor a
    /// mean-value model underestimates the critical path by.
    pub fn imbalance(&self) -> f64 {
        let n = self.num_tiles() as f64;
        let total = self.total_kept() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let max = *self.kept_per_tile.iter().max().expect("non-empty") as f64;
        max / (total / n)
    }

    /// Records this selection into `reg`: gauges `{prefix}.tiles`,
    /// `{prefix}.imbalance`, counters `{prefix}.kept` / `{prefix}.distinct`,
    /// and a `{prefix}.kept_per_tile` histogram (power-of-four buckets) —
    /// the Distributed Cluster Effect evidence, registry-facing.
    pub fn record_metrics(&self, reg: &mut sofa_obs::MetricsRegistry, prefix: &str) {
        reg.set_gauge(&format!("{prefix}.tiles"), self.num_tiles() as f64);
        reg.set_gauge(&format!("{prefix}.imbalance"), self.imbalance());
        reg.inc(&format!("{prefix}.kept"), self.total_kept());
        reg.inc(&format!("{prefix}.distinct"), self.total_distinct());
        const BOUNDS: [f64; 6] = [16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0];
        for &kept in &self.kept_per_tile {
            reg.observe(&format!("{prefix}.kept_per_tile"), &BOUNDS, kept as f64);
        }
    }
}

/// Splits an integer `total` into one part per weight, proportionally, with
/// cumulative rounding so the parts always sum to exactly `total`.
pub fn split_proportional(total: u64, weights: &[f64]) -> Vec<u64> {
    let sum: f64 = weights.iter().sum();
    if weights.is_empty() || sum <= 0.0 {
        return vec![0; weights.len()];
    }
    let mut out = Vec::with_capacity(weights.len());
    let mut cum_weight = 0.0;
    let mut assigned = 0u64;
    for &w in weights {
        cum_weight += w;
        let cum_target = ((total as f64) * cum_weight / sum).round() as u64;
        let cum_target = cum_target.min(total);
        out.push(cum_target - assigned);
        assigned = cum_target;
    }
    // Guard against floating-point shortfall on the last tile.
    if assigned < total {
        *out.last_mut().expect("non-empty") += total - assigned;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask() -> TopKMask {
        // S = 10, tiles of 4 → tiles [0..4), [4..8), [8..10).
        TopKMask::new(10, vec![vec![0, 1, 9], vec![1, 4, 9], vec![0, 1, 2, 3]])
    }

    #[test]
    fn record_metrics_exports_selection_evidence() {
        let s = TileSelectionStats::from_mask(&mask(), 4);
        let mut reg = sofa_obs::MetricsRegistry::new();
        s.record_metrics(&mut reg, "core.selection");
        assert_eq!(reg.gauge("core.selection.tiles"), Some(3.0));
        assert_eq!(reg.counter("core.selection.kept"), 10);
        assert_eq!(reg.counter("core.selection.distinct"), 6);
        assert!((reg.gauge("core.selection.imbalance").unwrap() - s.imbalance()).abs() < 1e-12);
        let h = reg.histogram("core.selection.kept_per_tile").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 10.0);
    }

    #[test]
    fn from_mask_counts_kept_and_distinct() {
        let s = TileSelectionStats::from_mask(&mask(), 4);
        assert_eq!(s.num_tiles(), 3);
        assert_eq!(s.kept_per_tile, vec![7, 1, 2]);
        // Distinct: {0,1,2,3} | {4} | {9}.
        assert_eq!(s.distinct_per_tile, vec![4, 1, 1]);
        assert_eq!(s.total_kept(), 10);
        assert_eq!(s.total_distinct(), 6);
        assert_eq!(s.queries, 3);
    }

    #[test]
    fn tile_widths_handle_partial_last_tile() {
        let s = TileSelectionStats::from_mask(&mask(), 4);
        assert_eq!(s.tile_width(0), 4);
        assert_eq!(s.tile_width(1), 4);
        assert_eq!(s.tile_width(2), 2);
    }

    #[test]
    fn tile_larger_than_sequence_collapses_to_one_tile() {
        let s = TileSelectionStats::from_mask(&mask(), 64);
        assert_eq!(s.num_tiles(), 1);
        assert_eq!(s.kept_per_tile, vec![10]);
        assert_eq!(s.tile_width(0), 10);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mask_has_zero_counts_and_unit_imbalance() {
        let m = TopKMask::new(8, vec![vec![], vec![]]);
        let s = TileSelectionStats::from_mask(&m, 4);
        assert_eq!(s.total_kept(), 0);
        assert_eq!(s.total_distinct(), 0);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_of_clustered_mask_exceeds_one() {
        let s = TileSelectionStats::from_mask(&mask(), 4);
        // Tile 0 holds 7 of 10 pairs over 3 tiles → 7 / (10/3) = 2.1.
        assert!((s.imbalance() - 2.1).abs() < 1e-9);
    }

    #[test]
    fn uniform_preserves_totals() {
        let s = TileSelectionStats::uniform(16, 100, 16, 25, 0.8);
        assert_eq!(s.num_tiles(), 7);
        assert_eq!(s.total_kept(), 400);
        assert_eq!(s.total_distinct(), 80);
        // The short last tile (4 keys wide) gets proportionally less.
        assert!(s.kept_per_tile[6] < s.kept_per_tile[0]);
    }

    #[test]
    fn split_proportional_is_exact() {
        assert_eq!(split_proportional(10, &[1.0, 1.0, 1.0]), vec![3, 4, 3]);
        assert_eq!(split_proportional(0, &[1.0, 2.0]), vec![0, 0]);
        assert_eq!(split_proportional(7, &[]), Vec::<u64>::new());
        assert_eq!(split_proportional(5, &[0.0, 0.0]), vec![0, 0]);
        let parts = split_proportional(1_000_003, &[0.1, 3.0, 2.5, 0.01]);
        assert_eq!(parts.iter().sum::<u64>(), 1_000_003);
    }

    #[test]
    #[should_panic(expected = "tile_size")]
    fn zero_tile_size_panics() {
        let _ = TileSelectionStats::from_mask(&mask(), 0);
    }
}
