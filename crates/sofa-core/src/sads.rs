//! Sphere-search Aided Distributed Sorting — SADS (paper §III-B, Fig. 9/13).
//!
//! SADS exploits the *Distributed Cluster Effect*: because attention rows are
//! almost always Type-I or Type-II (see [`sofa_model::distribution`]), the
//! large values of each sub-segment collectively represent the large values of
//! the whole row. Each row is therefore split into `n` sub-segments that are
//! sorted *independently* — which is what unlocks tiled, pipelined execution
//! across the pre-compute and top-k stages — and each contributes its local
//! top-(k/n) to the final selection.
//!
//! Two refinements keep the comparison count and the accuracy loss low:
//!
//! * **Sphere search / clipping** — inside a segment, only values within a
//!   radius `r` of the running maximum (or above the current minimum of the
//!   output buffer) are candidates; everything else is blocked without being
//!   sorted (the hardware zeroes them to save switching power).
//! * **Adjustive exchange** — a bounded number of exchange iterations swap the
//!   smallest selected value with the largest excluded candidate when they are
//!   out of order, recovering most of the exact top-k set.

use crate::ops::{OpCounts, OpKind};
use crate::topk::TopKMask;
use sofa_tensor::Matrix;

/// Configuration of the SADS top-k stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SadsConfig {
    /// Number of sub-segments `n` a row is divided into (the cross-stage tile
    /// count; `S / n` is the tile width `Bc`).
    pub segments: usize,
    /// Sphere-search radius as a fraction of the segment's value range:
    /// candidates must lie within `radius_frac · range` of the segment max.
    pub radius_frac: f64,
    /// Number of adjustive exchange iterations (`DSn` in the paper's Fig. 9).
    pub refine_iters: usize,
}

impl SadsConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error message if `segments == 0` or `radius_frac` is not in
    /// `(0, 1]`.
    pub fn new(segments: usize, radius_frac: f64, refine_iters: usize) -> Result<Self, String> {
        if segments == 0 {
            return Err("segments must be at least 1".to_string());
        }
        if !(radius_frac > 0.0 && radius_frac <= 1.0) {
            return Err(format!("radius_frac must be in (0, 1], got {radius_frac}"));
        }
        Ok(SadsConfig {
            segments,
            radius_frac,
            refine_iters,
        })
    }

    /// The default configuration used by the paper's examples: 4 segments,
    /// half-range radius, 2 exchange iterations.
    pub fn paper_default() -> Self {
        SadsConfig {
            segments: 4,
            radius_frac: 0.5,
            refine_iters: 2,
        }
    }

    /// Derives the per-layer configuration from a tile size `bc`
    /// (`segments = ceil(S / Bc)`).
    pub fn from_tile_size(
        seq_len: usize,
        bc: usize,
        radius_frac: f64,
        refine_iters: usize,
    ) -> Self {
        let segments = seq_len.div_ceil(bc.max(1)).max(1);
        SadsConfig {
            segments,
            radius_frac,
            refine_iters,
        }
    }
}

impl Default for SadsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A row value with its column index, so every comparison reads the value
/// directly instead of through `row[i]`. std's stable sort chooses each
/// comparison from the outcomes of the earlier ones and the slice length
/// alone (its scratch holds the whole selection at these lengths), so
/// sorting these pairs by value orders the selection and counts its
/// comparisons exactly as sorting the bare indices by `row[i]` did. The
/// pair stays eight bytes, the size of the `usize` index it replaces.
type Keyed = (f32, u32);

/// Row scratch reused by every [`sads_topk_row`] call on a thread. The
/// buffers only grow, so a row allocates nothing but its result once they
/// fit.
#[derive(Default)]
struct RowScratch {
    selected: Vec<Keyed>,
    /// The excluded pool, at least as long as the row. Only a prefix, whose
    /// length the kernel tracks, is live; the rest is stale and written
    /// before it is read.
    excluded: Vec<Keyed>,
    /// One segment's candidates, at least a segment long; live like
    /// `excluded`.
    candidates: Vec<Keyed>,
    heap: Vec<Keyed>,
}

thread_local! {
    static ROW_SCRATCH: std::cell::RefCell<RowScratch> =
        std::cell::RefCell::new(RowScratch::default());
}

/// Grows `buf` to at least `len` entries; what it holds stays stale.
fn ensure_len(buf: &mut Vec<Keyed>, len: usize) {
    if buf.len() < len {
        buf.resize(len, (0.0, 0));
    }
}

/// Selects the top-k indices of one row with distributed sub-segment sorting.
/// The returned indices are ordered by descending value (so index 0 is the
/// predicted maximum — the hint SU-FA consumes).
pub fn sads_topk_row(row: &[f32], k: usize, cfg: &SadsConfig, ops: &mut OpCounts) -> Vec<usize> {
    let s = row.len();
    if s == 0 || k == 0 {
        return Vec::new();
    }
    assert!(u32::try_from(s).is_ok(), "SADS rows are indexed by u32");
    ROW_SCRATCH.with_borrow_mut(|scratch| topk_row_with(row, k, cfg, ops, scratch))
}

fn topk_row_with(
    row: &[f32],
    k: usize,
    cfg: &SadsConfig,
    ops: &mut OpCounts,
    scratch: &mut RowScratch,
) -> Vec<usize> {
    let s = row.len();
    let k = k.min(s);
    let n = cfg.segments.min(s);
    let seg_len = s.div_ceil(n);

    // Per-segment quota: distribute k as evenly as possible.
    let base = k / n;
    let extra = k % n;

    // Comparisons are tallied locally and recorded once.
    let mut cmp = 0u64;
    let RowScratch {
        selected,
        excluded,
        candidates,
        heap,
    } = scratch;
    selected.clear();
    // Every index of the row is selected, excluded or (within one segment)
    // a candidate, so the pool never outgrows the row and the candidates
    // never outgrow a segment.
    ensure_len(excluded, s);
    ensure_len(candidates, seg_len);
    let mut excluded_len = 0;

    for seg in 0..n {
        let lo = seg * seg_len;
        if lo >= s {
            break;
        }
        let hi = ((seg + 1) * seg_len).min(s);
        let quota = base + usize::from(seg < extra);
        let values = &row[lo..hi];

        // Segment max / min with one comparison per element.
        let mut seg_max = f32::NEG_INFINITY;
        let mut seg_min = f32::INFINITY;
        for &v in values {
            if v > seg_max {
                seg_max = v;
            }
            if v < seg_min {
                seg_min = v;
            }
        }
        cmp += (hi - lo) as u64;
        let range = (seg_max - seg_min).max(f32::EPSILON);
        let threshold = seg_max - range * cfg.radius_frac as f32;

        // Clipping: in-radius values become candidates, the rest go straight
        // to the excluded pool (one comparison each). Each value is written
        // to both buffers and only the matching length advances.
        let clipped_from = excluded_len;
        let mut candidates_len = 0;
        for (off, &v) in values.iter().enumerate() {
            let entry = (v, (lo + off) as u32);
            let in_radius = v >= threshold;
            candidates[candidates_len] = entry;
            excluded[excluded_len] = entry;
            candidates_len += usize::from(in_radius);
            excluded_len += usize::from(!in_radius);
        }
        cmp += (hi - lo) as u64;
        // Adaptive clipping (Threshold-Updating unit): if the radius would
        // starve the quota, the threshold falls back to the low bound and the
        // clipped values re-enter the candidate pool.
        if candidates_len < quota {
            let clipped = excluded_len - clipped_from;
            candidates[candidates_len..candidates_len + clipped]
                .copy_from_slice(&excluded[clipped_from..excluded_len]);
            candidates_len += clipped;
            excluded_len = clipped_from;
        }

        // Local selection of the quota largest candidates. The streaming
        // bitonic cores keep a small sorted working set and merge 12 new
        // values per round; a bounded min-heap has the same comparison
        // profile (one compare per streamed value plus log(quota) on the rare
        // replacements). Candidates beyond the quota remain available for
        // the exchange step.
        cmp += select_top_q(
            &candidates[..candidates_len],
            quota,
            heap,
            excluded,
            &mut excluded_len,
        );
        selected.extend_from_slice(heap);
    }

    // If short trailing segments could not meet their quota, top the selection
    // up from the best excluded candidates so exactly k entries are returned.
    while selected.len() < k && excluded_len > 0 {
        let best = argbest(&excluded[..excluded_len], |a, b| a > b);
        cmp += excluded_len as u64 - 1;
        selected.push(excluded[best]);
        // `swap_remove` on the live prefix.
        excluded_len -= 1;
        excluded[best] = excluded[excluded_len];
    }

    // Adjustive exchange: recover misplaced values across segment borders.
    for _ in 0..cfg.refine_iters {
        if selected.is_empty() || excluded_len == 0 {
            break;
        }
        // Find min of selected and max of excluded.
        let min_sel = argbest(selected, |a, b| a < b);
        let max_exc = argbest(&excluded[..excluded_len], |a, b| a > b);
        // Two linear scans plus the exchange test below.
        cmp += (selected.len() + excluded_len - 1) as u64;
        if excluded[max_exc].0 > selected[min_sel].0 {
            std::mem::swap(&mut selected[min_sel], &mut excluded[max_exc]);
        } else {
            break;
        }
    }

    // Order the final selection by descending value. Only the top-1/top-2
    // order actually matters downstream, but keeping the list sorted makes the
    // mask easier to consume; the comparisons are counted.
    selected.sort_by(|a, b| {
        cmp += 1;
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
    });
    ops.record(OpKind::Cmp, cmp);
    selected
        .iter()
        .take(k)
        .map(|&(_, idx)| idx as usize)
        .collect()
}

/// Position in `entries` of the one whose value `beats` every other (the
/// first one on ties): a linear scan of `entries.len() − 1` comparisons.
fn argbest(entries: &[Keyed], beats: impl Fn(f32, f32) -> bool) -> usize {
    let mut best = 0;
    for (i, e) in entries.iter().enumerate().skip(1) {
        if beats(e.0, entries[best].0) {
            best = i;
        }
    }
    best
}

/// Streaming selection of the `quota` largest candidates using a bounded
/// min-heap: leaves the kept entries in `heap` (in heap order), writes the
/// spilled ones to `spill[*spill_len..]` in stream order, advancing
/// `spill_len`, and returns the comparisons made.
fn select_top_q(
    candidates: &[Keyed],
    quota: usize,
    heap: &mut Vec<Keyed>,
    spill: &mut [Keyed],
    spill_len: &mut usize,
) -> u64 {
    heap.clear();
    if quota == 0 {
        spill[*spill_len..*spill_len + candidates.len()].copy_from_slice(candidates);
        *spill_len += candidates.len();
        return 0;
    }
    if candidates.len() <= quota {
        heap.extend_from_slice(candidates);
        return 0;
    }
    let mut spill_one = |e: Keyed| {
        spill[*spill_len] = e;
        *spill_len += 1;
    };
    // `heap` is a min-heap over the kept entries (by value).
    let mut cmp = 0u64;
    for &c in candidates {
        if heap.len() < quota {
            heap.push(c);
            // Sift up.
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                cmp += 1;
                if heap[i].0 < heap[parent].0 {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else {
            cmp += 1;
            if c.0 > heap[0].0 {
                spill_one(std::mem::replace(&mut heap[0], c));
                // Sift down.
                let mut i = 0;
                loop {
                    let (l, r) = (2 * i + 1, 2 * i + 2);
                    let mut smallest = i;
                    if l < quota {
                        cmp += 1;
                        if heap[l].0 < heap[smallest].0 {
                            smallest = l;
                        }
                    }
                    if r < quota {
                        cmp += 1;
                        if heap[r].0 < heap[smallest].0 {
                            smallest = r;
                        }
                    }
                    if smallest == i {
                        break;
                    }
                    heap.swap(i, smallest);
                    i = smallest;
                }
            } else {
                spill_one(c);
            }
        }
    }
    cmp
}

/// Runs SADS over every row of a predicted score matrix.
///
/// Rows are independent (the Distributed Cluster Effect is a per-row
/// property), so they fan out across CPU cores via `sofa_par::par_map_index`.
/// Each row tallies its own [`OpCounts`]; the tallies are summed in row
/// order afterwards, so both the mask and the operation counts are
/// bit-identical to the sequential loop at any `SOFA_THREADS` setting.
pub fn sads_topk(scores: &Matrix, k: usize, cfg: &SadsConfig) -> (TopKMask, OpCounts) {
    let per_row = sofa_par::par_map_index(scores.rows(), |i| {
        let mut ops = OpCounts::new();
        let selected = sads_topk_row(scores.row(i), k, cfg, &mut ops);
        (selected, ops)
    });
    let mut ops = OpCounts::new();
    let rows = per_row
        .into_iter()
        .map(|(selected, row_ops)| {
            ops += row_ops;
            selected
        })
        .collect();
    (TopKMask::new(scores.cols(), rows), ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{topk_exact, topk_row_exact};
    use sofa_model::{DistributionType, ScoreDistribution, ScoreWorkload};
    use sofa_tensor::seeded_rng;
    use sofa_tensor::stats::recall;

    #[test]
    fn config_validation() {
        assert!(SadsConfig::new(0, 0.5, 1).is_err());
        assert!(SadsConfig::new(4, 0.0, 1).is_err());
        assert!(SadsConfig::new(4, 1.5, 1).is_err());
        assert!(SadsConfig::new(4, 1.0, 0).is_ok());
        let d = SadsConfig::default();
        assert_eq!(d.segments, 4);
    }

    #[test]
    fn from_tile_size_computes_segment_count() {
        let c = SadsConfig::from_tile_size(1024, 16, 0.5, 2);
        assert_eq!(c.segments, 64);
        let c = SadsConfig::from_tile_size(100, 0, 0.5, 2);
        assert_eq!(c.segments, 100, "tile size clamps to 1");
    }

    #[test]
    fn sads_row_handles_edge_cases() {
        let cfg = SadsConfig::paper_default();
        let mut ops = OpCounts::new();
        assert!(sads_topk_row(&[], 4, &cfg, &mut ops).is_empty());
        assert!(sads_topk_row(&[1.0, 2.0], 0, &cfg, &mut ops).is_empty());
        let got = sads_topk_row(&[1.0, 2.0], 10, &cfg, &mut ops);
        assert_eq!(got.len(), 2);
        // Constant rows must not panic (range == 0).
        let got = sads_topk_row(&[3.0; 16], 4, &cfg, &mut ops);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn sads_returns_descending_order_and_exact_count() {
        let cfg = SadsConfig::paper_default();
        let mut ops = OpCounts::new();
        let row: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32).collect();
        let got = sads_topk_row(&row, 16, &cfg, &mut ops);
        assert_eq!(got.len(), 16);
        for w in got.windows(2) {
            assert!(row[w[0]] >= row[w[1]], "must be sorted descending");
        }
    }

    #[test]
    fn sads_recall_is_high_on_realistic_distributions() {
        // Fig. 9: for Type-I and Type-II rows SADS captures the dominant values.
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 64, 512, 21);
        let k = 512 / 5;
        let cfg = SadsConfig::paper_default();
        let mut total = 0.0;
        for i in 0..w.queries() {
            let mut ops = OpCounts::new();
            let got = sads_topk_row(w.scores.row(i), k, &cfg, &mut ops);
            let mut ops2 = OpCounts::new();
            let exact = topk_row_exact(w.scores.row(i), k, &mut ops2);
            total += recall(&got, &exact);
        }
        let avg = total / w.queries() as f64;
        assert!(avg > 0.80, "SADS recall vs exact top-k too low: {avg}");
    }

    #[test]
    fn sads_captures_type1_dominant_values_regardless_of_segment() {
        // Scenario 1 of Fig. 9: Type-I rows — the few dominant values must
        // always be selected.
        let mut rng = seeded_rng(5);
        let dist = ScoreDistribution::gpt_like();
        let cfg = SadsConfig::paper_default();
        for _ in 0..20 {
            let row = dist.generate_row_of_type(256, DistributionType::TypeI, &mut rng);
            let mut ops = OpCounts::new();
            let got = sads_topk_row(&row, 32, &cfg, &mut ops);
            let mut ops2 = OpCounts::new();
            let exact_top4 = topk_row_exact(&row, 4, &mut ops2);
            let got_set: std::collections::HashSet<usize> = got.into_iter().collect();
            // The single strongest value must always be captured.
            assert!(got_set.contains(&exact_top4[0]), "argmax must be selected");
        }
    }

    #[test]
    fn sads_uses_fewer_comparisons_than_full_sort() {
        let w = ScoreWorkload::generate(&ScoreDistribution::llama_like(), 16, 2048, 31);
        let k = 2048 / 5;
        let cfg = SadsConfig::new(16, 0.5, 2).unwrap();
        let (_, sads_ops) = sads_topk(&w.scores, k, &cfg);
        let mut exact_ops = OpCounts::new();
        let _ = topk_exact(&w.scores, k, &mut exact_ops);
        assert!(
            sads_ops.cmp < exact_ops.cmp,
            "SADS comparisons {} should be below full sort {}",
            sads_ops.cmp,
            exact_ops.cmp
        );
    }

    #[test]
    fn more_segments_cost_fewer_comparisons() {
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 8, 1024, 77);
        let k = 128;
        let few = SadsConfig::new(2, 0.5, 2).unwrap();
        let many = SadsConfig::new(32, 0.5, 2).unwrap();
        let (_, ops_few) = sads_topk(&w.scores, k, &few);
        let (_, ops_many) = sads_topk(&w.scores, k, &many);
        assert!(
            ops_many.cmp < ops_few.cmp,
            "32 segments ({}) should compare less than 2 segments ({})",
            ops_many.cmp,
            ops_few.cmp
        );
    }

    #[test]
    fn refinement_improves_recall() {
        let w = ScoreWorkload::generate(&ScoreDistribution::vit_like(), 32, 512, 13);
        let k = 64;
        let no_refine = SadsConfig::new(8, 0.4, 0).unwrap();
        let refine = SadsConfig::new(8, 0.4, 4).unwrap();
        let mut r0 = 0.0;
        let mut r4 = 0.0;
        for i in 0..w.queries() {
            let mut ops = OpCounts::new();
            let exact = topk_row_exact(w.scores.row(i), k, &mut ops);
            let g0 = sads_topk_row(w.scores.row(i), k, &no_refine, &mut OpCounts::new());
            let g4 = sads_topk_row(w.scores.row(i), k, &refine, &mut OpCounts::new());
            r0 += recall(&g0, &exact);
            r4 += recall(&g4, &exact);
        }
        assert!(
            r4 >= r0,
            "refinement should not reduce recall ({r4} vs {r0})"
        );
    }

    /// The allocating SADS row kernel the buffer-reusing one replaced: fresh
    /// candidate/clipped/kept/spilled vectors per segment and one
    /// `ops.record` per comparison.
    fn reference_topk_row(
        row: &[f32],
        k: usize,
        cfg: &SadsConfig,
        ops: &mut OpCounts,
    ) -> Vec<usize> {
        let s = row.len();
        if s == 0 || k == 0 {
            return Vec::new();
        }
        let k = k.min(s);
        let n = cfg.segments.min(s);
        let seg_len = s.div_ceil(n);
        let (base, extra) = (k / n, k % n);
        let mut selected: Vec<usize> = Vec::new();
        let mut excluded_candidates: Vec<usize> = Vec::new();
        for seg in 0..n {
            let lo = seg * seg_len;
            if lo >= s {
                break;
            }
            let hi = ((seg + 1) * seg_len).min(s);
            let quota = base + usize::from(seg < extra);
            let mut seg_max = f32::NEG_INFINITY;
            let mut seg_min = f32::INFINITY;
            for &v in &row[lo..hi] {
                ops.record(OpKind::Cmp, 1);
                if v > seg_max {
                    seg_max = v;
                }
                if v < seg_min {
                    seg_min = v;
                }
            }
            let range = (seg_max - seg_min).max(f32::EPSILON);
            let threshold = seg_max - range * cfg.radius_frac as f32;
            let mut candidates: Vec<usize> = Vec::new();
            let mut clipped: Vec<usize> = Vec::new();
            for (off, &v) in row[lo..hi].iter().enumerate() {
                ops.record(OpKind::Cmp, 1);
                if v >= threshold {
                    candidates.push(lo + off);
                } else {
                    clipped.push(lo + off);
                }
            }
            if candidates.len() < quota {
                candidates.append(&mut clipped);
            }
            excluded_candidates.extend_from_slice(&clipped);
            let (kept, spilled) = reference_select_top_q(row, &candidates, quota, ops);
            excluded_candidates.extend_from_slice(&spilled);
            selected.extend_from_slice(&kept);
        }
        while selected.len() < k && !excluded_candidates.is_empty() {
            let mut best = 0;
            for i in 1..excluded_candidates.len() {
                ops.record(OpKind::Cmp, 1);
                if row[excluded_candidates[i]] > row[excluded_candidates[best]] {
                    best = i;
                }
            }
            selected.push(excluded_candidates.swap_remove(best));
        }
        for _ in 0..cfg.refine_iters {
            if selected.is_empty() || excluded_candidates.is_empty() {
                break;
            }
            let mut min_sel = 0;
            for i in 1..selected.len() {
                ops.record(OpKind::Cmp, 1);
                if row[selected[i]] < row[selected[min_sel]] {
                    min_sel = i;
                }
            }
            let mut max_exc = 0;
            for i in 1..excluded_candidates.len() {
                ops.record(OpKind::Cmp, 1);
                if row[excluded_candidates[i]] > row[excluded_candidates[max_exc]] {
                    max_exc = i;
                }
            }
            ops.record(OpKind::Cmp, 1);
            if row[excluded_candidates[max_exc]] > row[selected[min_sel]] {
                std::mem::swap(&mut selected[min_sel], &mut excluded_candidates[max_exc]);
            } else {
                break;
            }
        }
        selected.sort_by(|&a, &b| {
            ops.record(OpKind::Cmp, 1);
            row[b]
                .partial_cmp(&row[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        selected.truncate(k);
        selected
    }

    fn reference_select_top_q(
        row: &[f32],
        candidates: &[usize],
        quota: usize,
        ops: &mut OpCounts,
    ) -> (Vec<usize>, Vec<usize>) {
        if quota == 0 {
            return (Vec::new(), candidates.to_vec());
        }
        if candidates.len() <= quota {
            return (candidates.to_vec(), Vec::new());
        }
        let mut heap: Vec<usize> = Vec::new();
        let mut spilled: Vec<usize> = Vec::new();
        for &c in candidates {
            if heap.len() < quota {
                heap.push(c);
                let mut i = heap.len() - 1;
                while i > 0 {
                    let parent = (i - 1) / 2;
                    ops.record(OpKind::Cmp, 1);
                    if row[heap[i]] < row[heap[parent]] {
                        heap.swap(i, parent);
                        i = parent;
                    } else {
                        break;
                    }
                }
            } else {
                ops.record(OpKind::Cmp, 1);
                if row[c] > row[heap[0]] {
                    spilled.push(std::mem::replace(&mut heap[0], c));
                    let mut i = 0;
                    loop {
                        let (l, r) = (2 * i + 1, 2 * i + 2);
                        let mut smallest = i;
                        if l < heap.len() {
                            ops.record(OpKind::Cmp, 1);
                            if row[heap[l]] < row[heap[smallest]] {
                                smallest = l;
                            }
                        }
                        if r < heap.len() {
                            ops.record(OpKind::Cmp, 1);
                            if row[heap[r]] < row[heap[smallest]] {
                                smallest = r;
                            }
                        }
                        if smallest == i {
                            break;
                        }
                        heap.swap(i, smallest);
                        i = smallest;
                    }
                } else {
                    spilled.push(c);
                }
            }
        }
        (heap, spilled)
    }

    /// Longest row the reuse proptest draws.
    const MAX_ROW: usize = 600;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The buffer-reusing kernel returns the allocating kernel's exact
        /// selection and comparison count for every segment count `1..=S`,
        /// radius, 0–4 exchange iterations, `k` below and above the segment
        /// count, and rows of distinct values, heavy ties, two levels or one
        /// constant. Each case runs 2–5 rows of unrelated shape in sequence
        /// on one thread after a full-length row, so every row starts from
        /// the row scratch another row left dirty; rows up to 599 long reach
        /// every path of std's final sort (insertion sort up to 20 entries,
        /// run merging beyond).
        #[test]
        fn buffer_reusing_sads_matches_the_allocating_kernel(
            rows in proptest::collection::vec(
                ((1usize..MAX_ROW, 1usize..MAX_ROW, 0usize..MAX_ROW + 1, 0usize..5),
                 0.01f64..1.0,
                 0usize..4),
                2..6,
            ),
            values in proptest::collection::vec(-4.0f32..4.0, MAX_ROW + 64),
        ) {
            let dirty = &values[..MAX_ROW];
            let paper = SadsConfig::paper_default();
            let _ = sads_topk_row(dirty, MAX_ROW / 3, &paper, &mut OpCounts::new());
            for (r, (shape, radius, kind)) in rows.into_iter().enumerate() {
                let (s, segments, k, refine_iters) = shape;
                // Every other row keeps to small shapes (S below 97), so
                // single segments, tiny quotas and k above S stay common.
                let (s, segments, k) = if r % 2 == 0 {
                    (s % 96 + 1, segments % 96 + 1, k % 97)
                } else {
                    (s, segments, k)
                };
                let segments = segments.min(s);
                let base = &values[r * 13..r * 13 + s];
                let row: Vec<f32> = match kind {
                    0 => base.to_vec(),
                    1 => base.iter().map(|v| v.round()).collect(),
                    2 => base.iter().map(|&v| f32::from(v > 0.0)).collect(),
                    _ => vec![base[0]; s],
                };
                let cfg = SadsConfig::new(segments, radius, refine_iters).unwrap();
                let (mut ops, mut ref_ops) = (OpCounts::new(), OpCounts::new());
                let got = sads_topk_row(&row, k, &cfg, &mut ops);
                let want = reference_topk_row(&row, k, &cfg, &mut ref_ops);
                let at = format!("row {r} (S {s}, k {k}, {segments} segments)");
                proptest::prop_assert_eq!(got, want, "{}", at);
                proptest::prop_assert_eq!(ops, ref_ops, "{}", at);
            }
        }
    }

    #[test]
    fn mask_from_sads_has_requested_k() {
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 4, 256, 3);
        let (mask, _) = sads_topk(&w.scores, 32, &SadsConfig::paper_default());
        assert_eq!(mask.queries(), 4);
        for r in mask.iter() {
            assert_eq!(r.len(), 32);
        }
    }
}
