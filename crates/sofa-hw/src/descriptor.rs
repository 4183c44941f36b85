//! Per-tile work descriptors of the cross-stage tiled pipeline.
//!
//! [`SofaAccelerator::simulate`] folds the whole task into four aggregate
//! work amounts; a cycle-level simulator instead needs the task *per tile*:
//! how much each engine computes for tile `i` and how many DRAM bytes each
//! stage moves on behalf of tile `i`. [`SofaAccelerator::tile_descriptors`]
//! exports exactly that, either from expected values or from the real
//! per-tile selection counts of a [`TileSelectionStats`], and is constructed
//! so the per-tile amounts sum to the aggregates the analytic model uses —
//! the invariant that lets the cycle simulator be validated against the
//! closed-form [`super::accel::SimReport`].

use crate::accel::{AttentionTask, SofaAccelerator};
use crate::engines::{DlzsWork, KvGenWork, SortWork, SuFaWork};
use sofa_core::tiling::{split_proportional, TileSelectionStats};

/// The work one context tile contributes to each pipeline stage, plus the
/// DRAM traffic each stage moves for the tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileWork {
    /// Tile index along the context dimension.
    pub(crate) index: usize,
    /// Keys this tile covers (the last tile may be short).
    pub(crate) keys: usize,
    /// DLZS prediction work for this tile's keys.
    pub dlzs: DlzsWork,
    /// SADS sorting work (scores streamed for this tile).
    pub sort: SortWork,
    /// On-demand KV-generation work (distinct selected keys in the tile).
    pub kvgen: KvGenWork,
    /// SU-FA formal-compute work (kept pairs in the tile).
    pub sufa: SuFaWork,
    /// Bytes the prediction stage reads from DRAM for this tile
    /// (low-precision keys; queries and weights ride on the first tile).
    pub pred_read_bytes: u64,
    /// Bytes of selected K/V vectors fetched for this tile (RASS-deduplicated
    /// when the accelerator has RASS enabled).
    pub kv_read_bytes: u64,
    /// Extra formal-stage refetch bytes when RASS is disabled (shared vectors
    /// fetched once per needing query instead of once per distinct key).
    pub extra_formal_read_bytes: u64,
    /// Output bytes written back (the last tile carries the writeback).
    pub write_bytes: u64,
}

impl TileWork {
    /// Total DRAM bytes this tile moves across all stages.
    pub fn total_dram_bytes(&self) -> u64 {
        self.pred_read_bytes + self.kv_read_bytes + self.extra_formal_read_bytes + self.write_bytes
    }
}

impl SofaAccelerator {
    /// Splits `task` into per-tile work descriptors.
    ///
    /// With `stats == None` the selected pairs and distinct keys are spread
    /// proportionally to tile width (the analytic model's expected values).
    /// With real [`TileSelectionStats`] — produced by
    /// `sofa_core::pipeline::PipelineResult::tile_selection_stats` — each
    /// tile carries its measured selection counts, exposing the per-tile load
    /// imbalance of the Distributed Cluster Effect to a cycle simulator.
    ///
    /// The descriptors honour this accelerator's ablation flags (`rass`,
    /// `sufa`, `include_kv_generation`) and sum to the aggregate work and
    /// traffic amounts of [`SofaAccelerator::simulate`].
    ///
    /// # Panics
    ///
    /// Panics if `stats` is given but disagrees with the task's sequence
    /// length or tile size.
    pub fn tile_descriptors(
        &self,
        task: &AttentionTask,
        stats: Option<&TileSelectionStats>,
    ) -> Vec<TileWork> {
        let t = task.queries as u64;
        let h = task.hidden as u64;
        let a = task.heads as u64;

        let owned;
        let stats = match stats {
            Some(st) => {
                assert_eq!(st.seq_len, task.seq_len, "stats sequence length mismatch");
                assert_eq!(st.tile_size, task.tile_size, "stats tile size mismatch");
                st
            }
            None => {
                owned = TileSelectionStats::uniform(
                    task.queries,
                    task.seq_len,
                    task.tile_size,
                    task.k(),
                    task.key_union_fraction,
                );
                &owned
            }
        };
        let n = stats.num_tiles();
        let widths: Vec<f64> = (0..n).map(|i| stats.tile_width(i) as f64).collect();
        // Fall back to tile widths when nothing was kept, so fixed per-task
        // costs (softmax divisions, refetches) are still distributed and the
        // per-tile amounts keep summing to the aggregate model's.
        let kept_weights: Vec<f64> = if stats.total_kept() > 0 {
            stats.kept_per_tile.iter().map(|&k| k as f64).collect()
        } else {
            widths.clone()
        };

        // Quantities charged once per task, spread across tiles so the sums
        // match the aggregate model exactly.
        let lz_encodes = split_proportional(t * h, &widths);
        let divs = split_proportional(t * h, &kept_weights);
        let extra_exps = if self.sufa {
            vec![0; n]
        } else {
            // FA-2-style per-tile maximum refresh the ablation pays.
            let tiles = (task.k() as u64).div_ceil(task.tile_size as u64).max(1);
            split_proportional(a * t * tiles, &kept_weights)
        };
        // Without RASS the formal stage refetches shared vectors per query.
        let per_query_fetch = 2 * stats.total_kept() * h * 2;
        let deduped_fetch = 2 * stats.total_distinct() * h * 2;
        let extra_fetch = if self.rass {
            vec![0; n]
        } else {
            split_proportional(per_query_fetch.saturating_sub(deduped_fetch), &kept_weights)
        };

        (0..n)
            .map(|i| {
                let keys = stats.tile_width(i) as u64;
                let kept = stats.kept_per_tile[i];
                let distinct = stats.distinct_per_tile[i];
                let first = i == 0;
                let last = i + 1 == n;

                let mut pred_read = keys * h / 2; // 4-bit keys for prediction
                if first {
                    pred_read += t * h * 2; // 16-bit queries
                }
                if self.include_kv_generation {
                    pred_read += keys * h; // 8-bit tokens of the tile
                    if first {
                        pred_read += 5 * h * h / 8 + 2 * h * h * 2; // LZ + W_k/W_v
                    }
                }
                // Each distinct selected key is fetched once (K and V, 16-bit).
                let kv_read = 2 * distinct * h * 2;

                TileWork {
                    index: i,
                    keys: stats.tile_width(i),
                    dlzs: DlzsWork {
                        shift_ops: t * keys * h
                            + if self.include_kv_generation {
                                keys * h * h
                            } else {
                                0
                            },
                        lz_encodes: lz_encodes[i],
                    },
                    sort: SortWork { elements: t * keys },
                    kvgen: KvGenWork {
                        macs: if self.include_kv_generation {
                            2 * distinct * h * h
                        } else {
                            0
                        },
                    },
                    sufa: SuFaWork {
                        macs: 2 * kept * h,
                        exps: a * kept + extra_exps[i],
                        divs: divs[i],
                    },
                    pred_read_bytes: pred_read,
                    kv_read_bytes: kv_read,
                    extra_formal_read_bytes: extra_fetch[i],
                    write_bytes: if last { t * h * 2 } else { 0 },
                }
            })
            .collect()
    }
}

impl SofaAccelerator {
    /// Lowers a batch of serving requests into per-request tile-descriptor
    /// streams: one `Vec<TileWork>` per task, in input order, each optionally
    /// driven by that request's real selection statistics. Keeping requests
    /// separate (instead of fusing them into one task) is what lets a
    /// serving layer attribute DRAM traffic and latency back to individual
    /// requests — `tests/integration_serve.rs` uses this export as the
    /// independent reference for the shared-channel conservation check.
    ///
    /// # Panics
    ///
    /// Panics if `stats` is non-empty and its length differs from `tasks`,
    /// or if any stats entry disagrees with its task (see
    /// [`SofaAccelerator::tile_descriptors`]).
    pub fn request_descriptors(
        &self,
        tasks: &[AttentionTask],
        stats: &[Option<&TileSelectionStats>],
    ) -> Vec<Vec<TileWork>> {
        assert!(
            stats.is_empty() || stats.len() == tasks.len(),
            "one stats entry per task (or none at all)"
        );
        tasks
            .iter()
            .enumerate()
            .map(|(i, task)| self.tile_descriptors(task, stats.get(i).copied().flatten()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;

    fn task() -> AttentionTask {
        AttentionTask::new(16, 512, 256, 4, 0.25, 32)
    }

    #[test]
    fn descriptor_count_matches_tiling() {
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&task(), None);
        assert_eq!(d.len(), 512 / 32);
        assert!(d.iter().enumerate().all(|(i, w)| w.index == i));
    }

    #[test]
    fn per_tile_work_sums_to_aggregate_model() {
        let t = task();
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&t, None);
        let tq = t.queries as u64;
        let s = t.seq_len as u64;
        let h = t.hidden as u64;
        let a = t.heads as u64;
        let k = t.k() as u64;
        // Mirrors the aggregate amounts in SofaAccelerator::simulate.
        assert_eq!(d.iter().map(|w| w.dlzs.shift_ops).sum::<u64>(), tq * s * h);
        assert_eq!(d.iter().map(|w| w.dlzs.lz_encodes).sum::<u64>(), tq * h);
        assert_eq!(d.iter().map(|w| w.sort.elements).sum::<u64>(), tq * s);
        assert_eq!(d.iter().map(|w| w.sufa.macs).sum::<u64>(), 2 * tq * k * h);
        assert_eq!(d.iter().map(|w| w.sufa.exps).sum::<u64>(), a * tq * k);
        assert_eq!(d.iter().map(|w| w.sufa.divs).sum::<u64>(), tq * h);
    }

    #[test]
    fn per_tile_dram_bytes_match_analytic_traffic() {
        let t = task();
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&t, None);
        let report = accel.simulate(&t);
        let total: u64 = d.iter().map(|w| w.total_dram_bytes()).sum();
        let rel = (total as f64 - report.dram_bytes as f64).abs() / report.dram_bytes as f64;
        assert!(
            rel < 0.01,
            "descriptor traffic {total} vs analytic {} ({rel:.4})",
            report.dram_bytes
        );
    }

    #[test]
    fn disabling_rass_adds_refetch_traffic() {
        let t = task();
        let mut accel = SofaAccelerator::new(HwConfig::small());
        let with = accel.tile_descriptors(&t, None);
        accel.rass = false;
        let without = accel.tile_descriptors(&t, None);
        let extra_with: u64 = with.iter().map(|w| w.extra_formal_read_bytes).sum();
        let extra_without: u64 = without.iter().map(|w| w.extra_formal_read_bytes).sum();
        assert_eq!(extra_with, 0);
        assert!(extra_without > 0);
    }

    #[test]
    fn kv_generation_flag_adds_tile_work() {
        let t = task();
        let mut accel = SofaAccelerator::new(HwConfig::small());
        assert!(accel
            .tile_descriptors(&t, None)
            .iter()
            .all(|w| w.kvgen.macs == 0));
        accel.include_kv_generation = true;
        let d = accel.tile_descriptors(&t, None);
        assert!(d.iter().all(|w| w.kvgen.macs > 0));
        assert!(
            d[0].pred_read_bytes > d[1].pred_read_bytes,
            "weights on tile 0"
        );
    }

    #[test]
    fn real_stats_shift_work_toward_hot_tiles() {
        use sofa_core::topk::TopKMask;
        // All selections land in tile 0.
        let mask = TopKMask::new(64, vec![vec![0, 1, 2, 3]; 8]);
        let stats = TileSelectionStats::from_mask(&mask, 16);
        let t = AttentionTask::new(8, 64, 32, 2, 0.0625, 16);
        let accel = SofaAccelerator::new(HwConfig::small());
        let d = accel.tile_descriptors(&t, Some(&stats));
        assert!(d[0].sufa.macs > 0);
        assert!(d[1..].iter().all(|w| w.sufa.macs == 0));
        assert!(d[1..].iter().all(|w| w.kv_read_bytes == 0));
    }

    #[test]
    fn request_descriptors_keep_requests_separate() {
        let accel = SofaAccelerator::new(HwConfig::small());
        let tasks = [
            task(),
            AttentionTask::new(2, 64, 128, 2, 0.5, 32), // decode-sized request
        ];
        let streams = accel.request_descriptors(&tasks, &[]);
        assert_eq!(streams.len(), 2);
        for (stream, t) in streams.iter().zip(tasks.iter()) {
            assert_eq!(stream.len(), t.seq_len.div_ceil(t.tile_size));
            let solo = accel.tile_descriptors(t, None);
            assert_eq!(*stream, solo, "batch export must equal solo export");
        }
        // Real stats steer only the request they belong to.
        use sofa_core::topk::TopKMask;
        let mask = TopKMask::new(64, vec![vec![0, 1]; 2]);
        let stats = TileSelectionStats::from_mask(&mask, 32);
        let steered = accel.request_descriptors(&tasks, &[None, Some(&stats)]);
        assert_eq!(steered[0], streams[0]);
        assert_ne!(steered[1], streams[1]);
    }

    #[test]
    #[should_panic(expected = "one stats entry per task")]
    fn mismatched_stats_arity_panics() {
        let accel = SofaAccelerator::new(HwConfig::small());
        let tasks = [task(), task()];
        let _ = accel.request_descriptors(&tasks, &[None]);
    }

    #[test]
    #[should_panic(expected = "tile size mismatch")]
    fn mismatched_stats_panic() {
        let t = task();
        let stats = TileSelectionStats::uniform(4, 512, 16, 8, 0.5);
        let _ = SofaAccelerator::new(HwConfig::small()).tile_descriptors(&t, Some(&stats));
    }
}
