//! End-to-end accelerator models.
//!
//! [`SofaAccelerator`] models the paper's design: the four stages execute as a
//! fine-grained tiled pipeline, intermediate matrices never leave the chip,
//! on-demand KV generation skips unneeded keys and RASS de-duplicates KV
//! fetches. [`WholeRowAccelerator`] models the prior-work dynamic-sparsity
//! accelerators (FACT / Energon style): whole-row processing serialises the
//! stages and spills the Pre-Atten / Atten matrices to DRAM once they exceed
//! the on-chip SRAM, which is what makes memory access time dominate at high
//! token parallelism (Fig. 3).

use crate::config::HwConfig;
use crate::energy::{compute_energy_j, EnergyBreakdown};
use crate::engines::{
    dlzs_cycles, kvgen_cycles, sads_cycles, sufa_cycles, DlzsWork, KvGenWork, SortWork, SuFaWork,
};
use crate::mem::{DramModel, SramModel};
use sofa_core::ops::{OpCounts, OpKind};
use sofa_model::config::ModelConfig;

/// One attention workload slice submitted to an accelerator model: `T` queries
/// attending to a context of `S` keys with total hidden width `H` split over
/// `heads` heads, pruned to `keep_ratio` by the top-k stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionTask {
    /// Token parallelism `T` (queries processed together).
    pub queries: usize,
    /// Context length `S`.
    pub seq_len: usize,
    /// Total hidden width `H` (all heads).
    pub hidden: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Fraction of keys kept per query by the top-k stage.
    pub keep_ratio: f64,
    /// Cross-stage tile size `Bc`.
    pub tile_size: usize,
    /// Fraction of all keys that at least one query selected (drives on-demand
    /// KV generation). Defaults to `1 − (1 − keep)^min(T,32)`, reflecting the
    /// overlap of selections caused by the Distributed Cluster Effect.
    pub key_union_fraction: f64,
}

impl AttentionTask {
    /// Creates a task, deriving the default key-union fraction.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `keep_ratio` is outside `(0, 1]`.
    pub fn new(
        queries: usize,
        seq_len: usize,
        hidden: usize,
        heads: usize,
        keep_ratio: f64,
        tile_size: usize,
    ) -> Self {
        assert!(queries > 0 && seq_len > 0 && hidden > 0 && heads > 0 && tile_size > 0);
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio out of range"
        );
        let union = 1.0 - (1.0 - keep_ratio).powi(queries.min(32) as i32);
        AttentionTask {
            queries,
            seq_len,
            hidden,
            heads,
            keep_ratio,
            tile_size,
            key_union_fraction: union.clamp(keep_ratio, 1.0),
        }
    }

    /// Lowers one layer of a request shape at an operating point: the task
    /// runs at `op`'s keep ratio and tile size for `layer`. This is the
    /// lowering entry point the serving and DSE layers use — scalar
    /// `(keep, Bc)` pairs only exist inside `OperatingPoint` constructors.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or any dimension is zero.
    pub fn at_layer(
        queries: usize,
        seq_len: usize,
        hidden: usize,
        heads: usize,
        op: &sofa_model::OperatingPoint,
        layer: usize,
    ) -> Self {
        Self::new(
            queries,
            seq_len,
            hidden,
            heads,
            op.keep(layer),
            op.tile(layer),
        )
    }

    /// Builds a task from a model configuration (one layer, all heads).
    pub fn from_model(
        cfg: &ModelConfig,
        queries: usize,
        keep_ratio: f64,
        tile_size: usize,
    ) -> Self {
        Self::new(
            queries,
            cfg.seq_len,
            cfg.hidden,
            cfg.heads,
            keep_ratio,
            tile_size,
        )
    }

    /// Selected keys per query row.
    pub fn k(&self) -> usize {
        ((self.seq_len as f64 * self.keep_ratio).round() as usize).clamp(1, self.seq_len)
    }

    /// Dense-equivalent operation count of the attention part (the work a
    /// dense accelerator would perform): `4·T·S·H` (Q·Kᵀ plus P·V, two ops per
    /// MAC). Effective throughput is reported against this number, so
    /// sparsity shows up as higher effective GOPS — the same accounting the
    /// paper uses for its GOPS/W comparisons.
    pub fn dense_equivalent_ops(&self) -> f64 {
        let t = self.queries as f64;
        let s = self.seq_len as f64;
        let h = self.hidden as f64;
        4.0 * t * s * h
    }

    /// Fraction of the accelerator's query lines this task keeps busy.
    pub fn line_utilization(&self, query_parallelism: usize) -> f64 {
        (self.queries.min(query_parallelism) as f64) / query_parallelism as f64
    }
}

/// Per-stage cycle counts of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageCycles {
    /// DLZS (or baseline) prediction.
    pub prediction: f64,
    /// Top-k sorting.
    pub sorting: f64,
    /// K/V generation.
    pub kv_generation: f64,
    /// Formal attention computation.
    pub formal: f64,
}

impl StageCycles {
    /// Stage cycles for the given per-engine work amounts: query-parallel
    /// stages (prediction, sorting, formal) only keep `util` of the PE lines
    /// busy. The single source of the cycle formulas shared by the analytic
    /// model and the cycle-level simulator (`sofa-sim`).
    pub fn from_work(
        cfg: &HwConfig,
        dlzs: &DlzsWork,
        sort: &SortWork,
        kvgen: &KvGenWork,
        sufa: &SuFaWork,
        util: f64,
    ) -> Self {
        StageCycles {
            prediction: dlzs_cycles(cfg, dlzs) / util,
            sorting: sads_cycles(cfg, sort) / util,
            kv_generation: kvgen_cycles(cfg, kvgen),
            formal: sufa_cycles(cfg, sufa) / util,
        }
    }

    /// Sum of all stages (serial execution).
    pub(crate) fn sum(&self) -> f64 {
        self.prediction + self.sorting + self.kv_generation + self.formal
    }

    /// The slowest stage (pipelined steady state).
    pub(crate) fn max(&self) -> f64 {
        self.prediction
            .max(self.sorting)
            .max(self.kv_generation)
            .max(self.formal)
    }
}

/// The outcome of simulating one [`AttentionTask`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Per-stage compute cycles.
    pub(crate) cycles: StageCycles,
    /// Total compute cycles after applying (or not) the tiled pipeline.
    pub(crate) total_cycles: f64,
    /// Whether the tiled pipeline was applied.
    pub(crate) pipelined: bool,
    /// Off-chip traffic in bytes.
    pub dram_bytes: u64,
    /// Compute-limited time in seconds.
    pub compute_time_s: f64,
    /// Memory-limited time in seconds.
    pub memory_time_s: f64,
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Dense-equivalent operations of the task.
    pub(crate) effective_ops: f64,
}

impl SimReport {
    /// Effective energy efficiency in GOPS per watt.
    pub fn energy_efficiency_gops_w(&self) -> f64 {
        self.effective_ops / 1e9 / self.energy.total_j()
    }

    /// Fraction of the end-to-end latency attributable to memory access
    /// (the MAT ratio of Fig. 3). For overlapped execution this is the share
    /// of the critical path owned by memory.
    pub fn memory_time_fraction(&self) -> f64 {
        self.memory_time_s / (self.memory_time_s + self.compute_time_s)
    }
}

fn sram_energy(cfg: &HwConfig, bytes: u64) -> f64 {
    let mut sram = SramModel::new(cfg.total_sram_bytes(), cfg.sram_pj_per_bit);
    sram.read(bytes);
    sram.energy_j()
}

/// The SOFA accelerator model.
#[derive(Debug, Clone, Copy)]
pub struct SofaAccelerator {
    cfg: HwConfig,
    /// Enables the cross-stage tiled pipeline (disable for ablation).
    pub tiled_pipeline: bool,
    /// Enables RASS KV fetch de-duplication (disable for ablation).
    pub rass: bool,
    /// Enables SU-FA (when disabled the formal stage pays FA-2-style extra
    /// exponentiation/comparison work).
    pub sufa: bool,
    /// When `true`, the on-demand K/V generation stage (and the K̂ prediction
    /// it requires) is simulated too; by default the task models the
    /// attention part only, matching the paper's Table II workload definition.
    pub include_kv_generation: bool,
}

impl SofaAccelerator {
    /// Creates the full-featured SOFA accelerator.
    pub fn new(cfg: HwConfig) -> Self {
        SofaAccelerator {
            cfg,
            tiled_pipeline: true,
            rass: true,
            sufa: true,
            include_kv_generation: false,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Simulates one attention task.
    pub fn simulate(&self, task: &AttentionTask) -> SimReport {
        let cfg = &self.cfg;
        let t = task.queries as u64;
        let s = task.seq_len as u64;
        let h = task.hidden as u64;
        let a = task.heads as u64;
        let k = task.k() as u64;
        let union_keys = (task.key_union_fraction * task.seq_len as f64).ceil() as u64;
        let util = task.line_utilization(cfg.query_parallelism);

        // ---- Work amounts -----------------------------------------------
        let dlzs = DlzsWork {
            // Â prediction (T·S·H) is always needed; K̂ prediction (S·H·H)
            // only when K/V are generated on demand rather than pre-existing.
            shift_ops: t * s * h
                + if self.include_kv_generation {
                    s * h * h
                } else {
                    0
                },
            lz_encodes: t * h,
        };
        let sort = SortWork { elements: t * s };
        let kvgen = KvGenWork {
            macs: if self.include_kv_generation {
                2 * union_keys * h * h
            } else {
                0
            },
        };
        let mut sufa_exps = a * t * k;
        if !self.sufa {
            // Without the sorted-update trick the formal stage pays the FA-2
            // per-tile maximum refresh: one extra exp per tile per row per
            // head and the accumulator rescaling multiplies.
            let tiles = (task.k() as u64).div_ceil(task.tile_size as u64).max(1);
            sufa_exps += a * t * tiles;
        }
        let sufa = SuFaWork {
            macs: 2 * t * k * h,
            exps: sufa_exps,
            divs: t * h,
        };

        let cycles = StageCycles::from_work(cfg, &dlzs, &sort, &kvgen, &sufa, util);

        // ---- Pipelining ---------------------------------------------------
        let tiles = (task.seq_len.div_ceil(task.tile_size)).max(1) as f64;
        let total_cycles = if self.tiled_pipeline {
            // Steady state: the slowest stage limits throughput; the other
            // stages contribute one tile's worth of fill/drain latency.
            cycles.max() + (cycles.sum() - cycles.max()) / tiles
        } else {
            cycles.sum()
        };
        let compute_time_s = total_cycles / cfg.freq_hz;

        // ---- DRAM traffic ---------------------------------------------------
        let mut dram = DramModel::new(
            cfg.dram_bandwidth_bps,
            cfg.dram_pj_per_bit,
            cfg.interface_pj_per_bit,
        );
        // Low-precision keys (4-bit) for the prediction stage, 16-bit queries,
        // the selected K/V vectors (each fetched once thanks to RASS) and the
        // 16-bit output. Intermediate score/probability matrices never leave
        // the chip.
        dram.read(s * h / 2);
        dram.read(t * h * 2);
        dram.read(2 * union_keys * h * 2);
        dram.write(t * h * 2);
        if self.include_kv_generation {
            // 8-bit tokens, 5-bit LZ weights and 16-bit W_k/W_v for the
            // on-demand projection of the selected keys.
            dram.read(s * h);
            dram.read(5 * h * h / 8);
            dram.read(2 * h * h * 2);
        }
        if !self.rass {
            // Without RASS the formal stage re-fetches shared KV vectors per
            // query instead of once per distinct key.
            let per_query = 2 * t * k * h * 2;
            let deduped = 2 * union_keys * h * 2;
            dram.read(per_query.saturating_sub(deduped));
        }
        let memory_time_s = dram.transfer_time_s();

        // ---- Latency: tiled execution overlaps compute and memory ----------
        let latency_s = if self.tiled_pipeline {
            compute_time_s.max(memory_time_s)
        } else {
            compute_time_s + memory_time_s
        };

        // ---- Energy ---------------------------------------------------------
        let mut ops = OpCounts::new();
        ops.record(OpKind::Shift, dlzs.shift_ops);
        ops.record(OpKind::Add, dlzs.shift_ops);
        ops.record(OpKind::LzEncode, dlzs.lz_encodes);
        ops.record(OpKind::Cmp, 3 * sort.elements);
        ops.record(OpKind::Mul, kvgen.macs + sufa.macs);
        ops.record(OpKind::Add, kvgen.macs + sufa.macs);
        ops.record(OpKind::Exp, sufa.exps);
        ops.record(OpKind::Div, sufa.divs);

        // On-chip traffic: every DRAM byte passes the SRAM once, operands are
        // re-read from SRAM roughly twice, and the predicted scores live
        // entirely on chip.
        let sram_bytes = 3 * dram.total_bytes() + t * s * 2;
        let energy = EnergyBreakdown {
            compute_j: compute_energy_j(&ops),
            sram_j: sram_energy(cfg, sram_bytes),
            interface_j: dram.interface_energy_j(),
            dram_j: dram.device_energy_j(),
        };

        SimReport {
            cycles,
            total_cycles,
            pipelined: self.tiled_pipeline,
            dram_bytes: dram.total_bytes(),
            compute_time_s,
            memory_time_s,
            latency_s,
            energy,
            effective_ops: task.dense_equivalent_ops(),
        }
    }
}

/// A prior-work whole-row dynamic sparsity accelerator (FACT / Energon style):
/// 4-bit multiply prediction, whole-row sorting, serialised stages, and
/// DRAM spills of the Pre-Atten / Atten intermediates once they exceed the
/// on-chip SRAM.
#[derive(Debug, Clone, Copy)]
pub struct WholeRowAccelerator {
    cfg: HwConfig,
}

impl WholeRowAccelerator {
    /// Creates the baseline accelerator with the same raw resources as SOFA.
    pub fn new(cfg: HwConfig) -> Self {
        WholeRowAccelerator { cfg }
    }

    /// Simulates one attention task under whole-row processing.
    pub fn simulate(&self, task: &AttentionTask) -> SimReport {
        let cfg = &self.cfg;
        let t = task.queries as u64;
        let s = task.seq_len as u64;
        let h = task.hidden as u64;
        let a = task.heads as u64;
        let k = task.k() as u64;

        let util = task.line_utilization(cfg.query_parallelism);

        // Prediction with 4-bit multipliers over the existing low-precision
        // keys: the shift-array lanes act as narrow multipliers at half the
        // lane count.
        let pred_macs = t * s * h;
        let prediction = pred_macs as f64 / (cfg.dlzs_ops_per_cycle() / 2.0) / util + 64.0;

        // Whole-row sorting: S·log2(S) comparisons per row, one sorting core
        // active per query row.
        let cmp_per_row = (s as f64) * (s as f64).log2().max(1.0);
        let sorting = t as f64 * cmp_per_row / cfg.sort_elems_per_cycle_total() / util + 64.0;

        // Formal compute: FA-2 over the selected keys (no sorted-update
        // shortcut — the running maximum is refreshed per tile).
        let tiles = (task.k() as u64).div_ceil(task.tile_size as u64).max(1);
        let formal_work = SuFaWork {
            macs: 2 * t * k * h,
            exps: a * t * k + a * t * tiles,
            divs: t * h,
        };
        let formal = sufa_cycles(cfg, &formal_work) / util;

        let cycles = StageCycles {
            prediction,
            sorting,
            kv_generation: 0.0,
            formal,
        };
        // Whole-row processing serialises the stages.
        let total_cycles = cycles.sum();
        let compute_time_s = total_cycles / cfg.freq_hz;

        // DRAM traffic: base streams plus intermediate spills.
        let mut dram = DramModel::new(
            cfg.dram_bandwidth_bps,
            cfg.dram_pj_per_bit,
            cfg.interface_pj_per_bit,
        );
        dram.read(s * h / 2); // low-precision keys for prediction
        dram.read(t * h / 2); // low-precision queries for prediction
        dram.read(t * h * 2); // 16-bit queries
        dram.read(2 * s * h * 2); // full 16-bit K and V (first pass)
        dram.write(t * h * 2); // outputs

        let temp_sram = SramModel::new(cfg.temp_sram_bytes, cfg.sram_pj_per_bit);
        // Pre-Atten matrix (4-bit) spills when it exceeds the temp SRAM.
        let pre_atten_bytes = t * s / 2;
        if !temp_sram.fits(pre_atten_bytes) {
            dram.write(pre_atten_bytes);
            dram.read(pre_atten_bytes);
        }
        // Row-wise formal computation: the selected K/V working set of a batch
        // of query rows must fit the token SRAM; every additional pass
        // re-streams K and V from DRAM.
        let token_sram = SramModel::new(cfg.token_sram_bytes, cfg.sram_pj_per_bit);
        let per_query_ws = k * (h / a) * 2 * 2; // selected K+V of one query, one head resident at a time
        let queries_per_pass = (token_sram.capacity_bytes as u64 / per_query_ws.max(1)).max(1);
        let passes = t.div_ceil(queries_per_pass);
        if passes > 1 {
            dram.read((passes - 1) * 2 * s * h * 2);
        }
        // Attention probability matrix (16-bit) spills likewise.
        let atten_bytes = a * t * k * 2;
        if !temp_sram.fits(atten_bytes) {
            dram.write(atten_bytes);
            dram.read(atten_bytes);
        }
        let memory_time_s = dram.transfer_time_s();

        // Serial stages and un-overlapped memory access.
        let latency_s = compute_time_s + memory_time_s;

        let mut ops = OpCounts::new();
        ops.record(OpKind::Mul, pred_macs + formal_work.macs);
        ops.record(OpKind::Add, pred_macs + formal_work.macs);
        ops.record(OpKind::Cmp, (t as f64 * cmp_per_row) as u64);
        ops.record(OpKind::Exp, formal_work.exps);
        ops.record(OpKind::Div, formal_work.divs);
        let sram_bytes = 3 * dram.total_bytes();
        let energy = EnergyBreakdown {
            compute_j: compute_energy_j(&ops),
            sram_j: sram_energy(cfg, sram_bytes),
            interface_j: dram.interface_energy_j(),
            dram_j: dram.device_energy_j(),
        };

        SimReport {
            cycles,
            total_cycles,
            pipelined: false,
            dram_bytes: dram.total_bytes(),
            compute_time_s,
            memory_time_s,
            latency_s,
            energy,
            effective_ops: task.dense_equivalent_ops(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama_task(queries: usize) -> AttentionTask {
        AttentionTask::new(queries, 4096, 4096, 32, 0.2, 16)
    }

    #[test]
    fn task_construction_and_k() {
        let t = llama_task(128);
        assert_eq!(t.k(), 819);
        assert!(t.key_union_fraction > 0.9, "128 queries cover most keys");
        let single = AttentionTask::new(1, 4096, 4096, 32, 0.2, 16);
        assert!((single.key_union_fraction - 0.2).abs() < 1e-9);
        let m = ModelConfig::llama_7b(4096);
        let from_model = AttentionTask::from_model(&m, 128, 0.2, 16);
        assert_eq!(from_model.hidden, 4096);
    }

    #[test]
    #[should_panic(expected = "keep_ratio")]
    fn invalid_keep_ratio_panics() {
        let _ = AttentionTask::new(1, 16, 16, 1, 0.0, 4);
    }

    #[test]
    fn sofa_report_is_self_consistent() {
        let accel = SofaAccelerator::new(HwConfig::paper_default());
        let r = accel.simulate(&llama_task(128));
        assert!(r.latency_s > 0.0);
        assert!(r.energy.total_j() > 0.0);
        assert!(r.energy_efficiency_gops_w() > 0.0);
        assert!(r.memory_time_fraction() >= 0.0 && r.memory_time_fraction() <= 1.0);
        assert!(r.pipelined);
        assert!(r.latency_s >= r.compute_time_s.max(r.memory_time_s) - 1e-12);
    }

    #[test]
    fn sofa_beats_whole_row_accelerator() {
        // The headline claim: cross-stage tiling + SU-FA + RASS beat the
        // whole-row baselines on latency, traffic and energy efficiency.
        let cfg = HwConfig::paper_default();
        let task = llama_task(128);
        let sofa = SofaAccelerator::new(cfg).simulate(&task);
        let base = WholeRowAccelerator::new(cfg).simulate(&task);
        assert!(sofa.latency_s < base.latency_s);
        assert!(sofa.dram_bytes < base.dram_bytes);
        assert!(sofa.energy_efficiency_gops_w() > base.energy_efficiency_gops_w());
    }

    #[test]
    fn whole_row_memory_fraction_grows_with_parallelism() {
        // Fig. 3: scaling token parallelism pushes the baseline's memory
        // access time toward dominance.
        let cfg = HwConfig::paper_default();
        let base = WholeRowAccelerator::new(cfg);
        let small = base.simulate(&AttentionTask::new(1, 2048, 2048, 16, 0.25, 16));
        let large = base.simulate(&AttentionTask::new(256, 2048, 2048, 16, 0.25, 16));
        assert!(
            large.memory_time_fraction() > small.memory_time_fraction(),
            "MAT fraction should grow: {} vs {}",
            large.memory_time_fraction(),
            small.memory_time_fraction()
        );
        assert!(large.memory_time_fraction() > 0.4);
    }

    #[test]
    fn tiled_pipeline_reduces_latency() {
        let cfg = HwConfig::paper_default();
        let task = llama_task(128);
        let mut accel = SofaAccelerator::new(cfg);
        let with = accel.simulate(&task);
        accel.tiled_pipeline = false;
        let without = accel.simulate(&task);
        assert!(with.latency_s < without.latency_s);
    }

    #[test]
    fn rass_reduces_dram_traffic() {
        let cfg = HwConfig::paper_default();
        let task = llama_task(128);
        let mut accel = SofaAccelerator::new(cfg);
        let with = accel.simulate(&task);
        accel.rass = false;
        let without = accel.simulate(&task);
        assert!(with.dram_bytes < without.dram_bytes);
    }

    #[test]
    fn sufa_reduces_energy() {
        let cfg = HwConfig::paper_default();
        let task = llama_task(128);
        let mut accel = SofaAccelerator::new(cfg);
        let with = accel.simulate(&task);
        accel.sufa = false;
        let without = accel.simulate(&task);
        assert!(with.energy.compute_j <= without.energy.compute_j);
    }

    #[test]
    fn sparser_tasks_run_faster() {
        let cfg = HwConfig::paper_default();
        let accel = SofaAccelerator::new(cfg);
        let sparse = accel.simulate(&AttentionTask::new(128, 4096, 4096, 32, 0.1, 16));
        let dense = accel.simulate(&AttentionTask::new(128, 4096, 4096, 32, 1.0, 16));
        assert!(sparse.latency_s < dense.latency_s);
        assert!(sparse.energy.total_j() < dense.energy.total_j());
    }

    #[test]
    fn stage_cycles_helpers() {
        let c = StageCycles {
            prediction: 1.0,
            sorting: 2.0,
            kv_generation: 3.0,
            formal: 4.0,
        };
        assert_eq!(c.sum(), 10.0);
        assert_eq!(c.max(), 4.0);
    }
}
