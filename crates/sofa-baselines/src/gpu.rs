//! Roofline-style models of the NVIDIA A100 GPU and a cloud TPU, plus the
//! breakdown of how much of SOFA's mechanism each platform can exploit
//! (paper Figs. 19 and 21).
//!
//! The commodity platforms can run SOFA's *software* (LP prediction, the tiled
//! SU-FA schedule) but lack the dedicated datapaths, so each mechanism only
//! yields a fraction of its ASIC benefit. The per-mechanism gain factors below
//! are the calibration constants reported in the paper's ablation (Fig. 21);
//! multiplying them reproduces the headline 9.5×/11.1× speed-ups.

use sofa_hw::accel::AttentionTask;

/// Which commodity platform is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevicePlatform {
    /// NVIDIA A100 (FP16 tensor cores).
    GpuA100,
    /// Cloud TPU (bf16 systolic array).
    Tpu,
}

/// How much of the SOFA stack is deployed on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoftwareStack {
    /// Low-complexity prediction + SADS software (token pruning the platform
    /// can partially exploit).
    pub(crate) software: bool,
    /// A DLZS engine attached to the platform (hardware ablation of Fig. 21).
    pub(crate) dlzs_engine: bool,
    /// A SADS engine attached.
    pub(crate) sads_engine: bool,
    /// An SU-FA engine attached.
    pub(crate) sufa_engine: bool,
    /// A RASS scheduling unit attached.
    pub(crate) rass_unit: bool,
}

impl SoftwareStack {
    /// Dense execution: nothing from SOFA.
    pub fn dense() -> Self {
        SoftwareStack::default()
    }

    /// The full stack (software plus every engine) — this is the SOFA ASIC.
    pub fn full() -> Self {
        SoftwareStack {
            software: true,
            dlzs_engine: true,
            sads_engine: true,
            sufa_engine: true,
            rass_unit: true,
        }
    }
}

/// Roofline model of a commodity accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Platform identity.
    pub platform: DevicePlatform,
    /// Peak half-precision throughput in FLOP/s.
    pub peak_flops: f64,
    /// Sustained HBM bandwidth in bytes/s.
    pub mem_bandwidth_bps: f64,
    /// Fraction of peak the platform reaches on attention kernels (launch
    /// overheads, softmax, reshapes).
    pub attention_utilization: f64,
    /// Dynamic power draw under the attention workload, in watts.
    pub(crate) dynamic_power_w: f64,
}

impl GpuModel {
    /// NVIDIA A100-80GB.
    pub fn a100() -> Self {
        GpuModel {
            platform: DevicePlatform::GpuA100,
            peak_flops: 312e12,
            mem_bandwidth_bps: 2.0e12,
            attention_utilization: 0.28,
            dynamic_power_w: 300.0,
        }
    }

    /// Cloud TPU (v3-class).
    pub fn tpu() -> Self {
        GpuModel {
            platform: DevicePlatform::Tpu,
            peak_flops: 123e12,
            mem_bandwidth_bps: 0.9e12,
            attention_utilization: 0.22,
            dynamic_power_w: 220.0,
        }
    }

    /// Per-mechanism speed-up factors the platform extracts from SOFA
    /// (Fig. 21(a)): `(software, dlzs, sads, sufa, rass)`.
    fn gain_factors(&self) -> (f64, f64, f64, f64, f64) {
        match self.platform {
            DevicePlatform::GpuA100 => (3.16, 1.65, 1.28, 1.26, 1.14),
            DevicePlatform::Tpu => (2.95, 1.60, 1.56, 1.13, 1.33),
        }
    }

    /// Speed-up over dense execution on this platform for a given stack.
    pub fn speedup(&self, stack: &SoftwareStack) -> f64 {
        let (sw, dlzs, sads, sufa, rass) = self.gain_factors();
        let mut s = 1.0;
        if stack.software {
            s *= sw;
        }
        if stack.dlzs_engine {
            s *= dlzs;
        }
        if stack.sads_engine {
            s *= sads;
        }
        if stack.sufa_engine {
            s *= sufa;
        }
        if stack.rass_unit {
            s *= rass;
        }
        s
    }

    /// Cumulative speed-up after each step of the Fig. 21 breakdown, in order:
    /// dense, +software, +DLZS, +SADS, +SU-FA, +RASS.
    pub fn cumulative_speedups(&self) -> Vec<(&'static str, f64)> {
        let (sw, dlzs, sads, sufa, rass) = self.gain_factors();
        let mut acc = 1.0;
        let mut out = vec![("dense", 1.0)];
        for (name, f) in [
            ("+SOFA software", sw),
            ("+DLZS engine", dlzs),
            ("+SADS engine", sads),
            ("+SU-FA engine", sufa),
            ("+RASS unit", rass),
        ] {
            acc *= f;
            out.push((name, acc));
        }
        out
    }

    /// Roofline execution time of a dense attention task on this platform.
    pub fn dense_attention_time_s(&self, task: &AttentionTask) -> f64 {
        let flops = task.dense_equivalent_ops();
        // Dense attention streams Q, K, V, the score matrix and the output.
        let t = task.queries as f64;
        let s = task.seq_len as f64;
        let h = task.hidden as f64;
        let a = task.heads as f64;
        let bytes = (t * h + 2.0 * s * h + t * h) * 2.0 + 4.0 * a * t * s * 2.0;
        let compute = flops / (self.peak_flops * self.attention_utilization);
        let memory = bytes / self.mem_bandwidth_bps;
        compute.max(memory)
    }

    /// Execution time with a given SOFA stack deployed.
    pub(crate) fn attention_time_s(&self, task: &AttentionTask, stack: &SoftwareStack) -> f64 {
        self.dense_attention_time_s(task) / self.speedup(stack)
    }

    /// Effective throughput in GOPS (dense-equivalent ops per second).
    pub(crate) fn effective_gops(&self, task: &AttentionTask, stack: &SoftwareStack) -> f64 {
        task.dense_equivalent_ops() / self.attention_time_s(task, stack) / 1e9
    }

    /// Effective energy efficiency in GOPS/W.
    pub fn energy_efficiency_gops_w(&self, task: &AttentionTask, stack: &SoftwareStack) -> f64 {
        self.effective_gops(task, stack) / self.dynamic_power_w
    }

    /// Speed-up the platform obtains from LP token pruning alone at a given
    /// accuracy-loss budget (paper: 1.08–1.78× — the GPU cannot exploit
    /// fine-grained sparsity, so the gain saturates well below `1/keep`).
    pub fn lp_only_speedup(&self, loss_budget: f64) -> f64 {
        if loss_budget >= 0.02 {
            1.76
        } else if loss_budget >= 0.01 {
            1.45
        } else {
            1.08
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Software-only SOFA: what a GPU/TPU can run today.
    fn software_only() -> SoftwareStack {
        SoftwareStack {
            software: true,
            ..SoftwareStack::default()
        }
    }

    fn task() -> AttentionTask {
        AttentionTask::new(128, 4096, 4096, 32, 0.2, 16)
    }

    #[test]
    fn a100_and_tpu_models_differ() {
        let gpu = GpuModel::a100();
        let tpu = GpuModel::tpu();
        assert!(gpu.peak_flops > tpu.peak_flops);
        assert!(gpu.dense_attention_time_s(&task()) < tpu.dense_attention_time_s(&task()));
    }

    #[test]
    fn full_stack_speedups_match_paper_headlines() {
        // Fig. 21: GPU reaches ~9.5×, TPU ~11.1× with the full SOFA stack.
        let gpu = GpuModel::a100().speedup(&SoftwareStack::full());
        let tpu = GpuModel::tpu().speedup(&SoftwareStack::full());
        assert!((gpu - 9.5).abs() < 0.5, "GPU full-stack speedup {gpu}");
        assert!((tpu - 11.1).abs() < 0.8, "TPU full-stack speedup {tpu}");
    }

    #[test]
    fn software_only_speedups_match_paper() {
        let gpu = GpuModel::a100().speedup(&software_only());
        let tpu = GpuModel::tpu().speedup(&software_only());
        assert!((gpu - 3.16).abs() < 0.01);
        assert!((tpu - 2.95).abs() < 0.01);
        assert_eq!(GpuModel::a100().speedup(&SoftwareStack::dense()), 1.0);
    }

    #[test]
    fn cumulative_breakdown_is_increasing() {
        for model in [GpuModel::a100(), GpuModel::tpu()] {
            let steps = model.cumulative_speedups();
            assert_eq!(steps.len(), 6);
            assert!(steps.windows(2).all(|w| w[1].1 > w[0].1));
            assert_eq!(steps[0], ("dense", 1.0));
        }
    }

    #[test]
    fn speedup_reduces_time_and_raises_efficiency() {
        let gpu = GpuModel::a100();
        let t = task();
        let dense = gpu.attention_time_s(&t, &SoftwareStack::dense());
        let sw = gpu.attention_time_s(&t, &software_only());
        assert!(sw < dense);
        assert!(
            gpu.energy_efficiency_gops_w(&t, &software_only())
                > gpu.energy_efficiency_gops_w(&t, &SoftwareStack::dense())
        );
    }

    #[test]
    fn lp_only_speedup_is_modest_and_monotone() {
        let gpu = GpuModel::a100();
        assert!(gpu.lp_only_speedup(0.0) < gpu.lp_only_speedup(0.01));
        assert!(gpu.lp_only_speedup(0.01) < gpu.lp_only_speedup(0.02));
        assert!(gpu.lp_only_speedup(0.02) <= 1.78);
    }

    #[test]
    fn dense_time_is_positive_and_memory_or_compute_bound() {
        let gpu = GpuModel::a100();
        let t = task();
        let time = gpu.dense_attention_time_s(&t);
        assert!(time > 0.0);
        // Doubling both the sequence length and the query count (full prefill)
        // should more than triple the time — the score matrix grows
        // quadratically.
        let t2 = AttentionTask::new(256, 8192, 4096, 32, 0.2, 16);
        assert!(gpu.dense_attention_time_s(&t2) > 3.0 * time);
    }
}
