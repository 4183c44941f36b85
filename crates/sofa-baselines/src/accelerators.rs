//! Published characteristics of the SOTA dynamic-sparsity Transformer
//! accelerators SOFA is compared against (paper Tables I & II), plus the
//! technology-normalised comparison metrics.

use sofa_hw::area::{scale_area_to_28nm, scale_freq_to_28nm, scale_power_to_28nm};

/// Whether an accelerator exploits structured or unstructured sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sparsity {
    /// Unstructured (per Q-K pair) sparsity.
    Unstructured,
    /// Structured (block / head / token level) sparsity.
    Structured,
}

/// One row of Table II: the published hardware/software characteristics of an
/// accelerator, at its native technology node.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorRecord {
    /// Accelerator name.
    pub name: &'static str,
    /// Sparsity granularity.
    pub sparsity: Sparsity,
    /// Reported accuracy loss (fraction, e.g. 0.02 = 2 %).
    pub accuracy_loss: f64,
    /// Reported saved computation (fraction of attention work removed, net of
    /// prediction overhead).
    pub saved_computation: f64,
    /// Technology node in nm.
    pub(crate) tech_nm: f64,
    /// Clock frequency in Hz.
    pub(crate) freq_hz: f64,
    /// Core area in mm² at the native node.
    pub(crate) area_mm2: f64,
    /// Core power in watts at the native node.
    pub(crate) core_power_w: f64,
    /// IO/DRAM power in watts (0 when not reported).
    pub(crate) io_power_w: f64,
    /// Effective throughput in GOPS at the native node.
    pub throughput_gops: f64,
    /// Whether the accelerator coordinates optimisation across stages
    /// (Table I "Cross Stage" column) — only SOFA does.
    pub cross_stage: bool,
    /// Whether it optimises attention memory access (Table I).
    pub optimizes_memory: bool,
}

impl AcceleratorRecord {
    /// Device (core + IO) energy efficiency at the native node (GOPS/W);
    /// falls back to the core-only number when IO power is not reported.
    pub fn device_energy_efficiency(&self) -> f64 {
        let total = self.core_power_w + self.io_power_w;
        self.throughput_gops / total
    }

    /// Throughput scaled to 28 nm (frequency scales with 1/s).
    pub(crate) fn throughput_gops_28nm(&self) -> f64 {
        let scale = scale_freq_to_28nm(self.freq_hz, self.tech_nm) / self.freq_hz;
        self.throughput_gops * scale
    }

    /// Area efficiency at 28 nm in GOPS/mm².
    pub fn area_efficiency_28nm(&self) -> f64 {
        self.throughput_gops_28nm() / scale_area_to_28nm(self.area_mm2, self.tech_nm)
    }

    /// Core energy efficiency scaled to 28 nm / 1.0 V in GOPS/W.
    pub fn core_energy_efficiency_28nm(&self, vdd: f64) -> f64 {
        self.throughput_gops_28nm() / scale_power_to_28nm(self.core_power_w, self.tech_nm, vdd)
    }

    /// Latency in seconds to execute an attention workload of `gops` GOPs when
    /// the accelerator is normalised to `multipliers` MAC units at `freq_hz`
    /// (the Table II latency methodology: effective ops per multiplier-cycle
    /// is preserved).
    pub fn normalized_latency_s(&self, gops: f64, multipliers: usize, freq_hz: f64) -> f64 {
        // Effective operations per cycle per multiplier at the native design.
        let native_mults = self.native_multipliers();
        let ops_per_cycle = self.throughput_gops * 1e9 / self.freq_hz / native_mults as f64;
        let scaled_ops_per_s = ops_per_cycle * multipliers as f64 * freq_hz;
        gops * 1e9 / scaled_ops_per_s
    }

    /// Approximate number of multipliers in the native design, used by the
    /// latency normalisation (FACT: 512, others estimated from area).
    pub(crate) fn native_multipliers(&self) -> usize {
        match self.name {
            "FACT" => 512,
            "Sanger" => 1024,
            "DOTA" => 512,
            "SOFA" => 128 * 8,
            _ => 256,
        }
    }
}

/// The eight SOTA accelerators of Table II plus SOFA itself (last entry).
pub fn sota_accelerators() -> Vec<AcceleratorRecord> {
    vec![
        AcceleratorRecord {
            name: "A3",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.053,
            saved_computation: 0.40,
            tech_nm: 40.0,
            freq_hz: 1.0e9,
            area_mm2: 2.08,
            core_power_w: 0.205,
            io_power_w: 0.617,
            throughput_gops: 221.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "ELSA",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.02,
            saved_computation: 0.73,
            tech_nm: 40.0,
            freq_hz: 1.0e9,
            area_mm2: 1.26,
            core_power_w: 0.969,
            io_power_w: 0.525,
            throughput_gops: 1090.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "Sanger",
            sparsity: Sparsity::Structured,
            accuracy_loss: 0.0,
            saved_computation: 0.76,
            tech_nm: 55.0,
            freq_hz: 500.0e6,
            area_mm2: 16.9,
            core_power_w: 2.76,
            io_power_w: 0.0,
            throughput_gops: 2285.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "DOTA",
            sparsity: Sparsity::Structured,
            accuracy_loss: 0.008,
            saved_computation: 0.80,
            tech_nm: 22.0,
            freq_hz: 1.0e9,
            area_mm2: 4.44,
            core_power_w: 3.02,
            io_power_w: 0.0,
            throughput_gops: 4905.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "Energon",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.009,
            saved_computation: 0.77,
            tech_nm: 45.0,
            freq_hz: 1.0e9,
            area_mm2: 4.2,
            core_power_w: 0.32,
            io_power_w: 2.4,
            throughput_gops: 1153.0,
            cross_stage: false,
            optimizes_memory: true,
        },
        AcceleratorRecord {
            name: "DTATrans",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.0074,
            saved_computation: 0.74,
            tech_nm: 40.0,
            freq_hz: 1.0e9,
            area_mm2: 1.49,
            core_power_w: 0.734,
            io_power_w: 0.0,
            throughput_gops: 1304.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "SpAtten",
            sparsity: Sparsity::Structured,
            accuracy_loss: 0.009,
            saved_computation: 0.67,
            tech_nm: 40.0,
            freq_hz: 1.0e9,
            area_mm2: 1.55,
            core_power_w: 0.325,
            io_power_w: 0.617,
            throughput_gops: 360.0,
            cross_stage: false,
            optimizes_memory: true,
        },
        AcceleratorRecord {
            name: "FACT",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.0,
            saved_computation: 0.79,
            tech_nm: 28.0,
            freq_hz: 500.0e6,
            area_mm2: 6.03,
            core_power_w: 0.337,
            io_power_w: 0.0,
            throughput_gops: 928.0,
            cross_stage: false,
            optimizes_memory: false,
        },
        AcceleratorRecord {
            name: "SOFA",
            sparsity: Sparsity::Unstructured,
            accuracy_loss: 0.0,
            saved_computation: 0.82,
            tech_nm: 28.0,
            freq_hz: 1.0e9,
            area_mm2: 5.69,
            core_power_w: 0.95,
            io_power_w: 2.45,
            throughput_gops: 24423.0,
            cross_stage: true,
            optimizes_memory: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(name: &str) -> Option<AcceleratorRecord> {
        sota_accelerators().into_iter().find(|a| a.name == name)
    }

    #[test]
    fn table_has_nine_rows_including_sofa() {
        let all = sota_accelerators();
        assert_eq!(all.len(), 9);
        assert!(all.iter().any(|a| a.name == "SOFA"));
        assert!(find("FACT").is_some());
        assert!(find("NotAnAccelerator").is_none());
    }

    #[test]
    fn only_sofa_is_cross_stage() {
        // Table I: every prior accelerator optimises stages in isolation.
        for a in sota_accelerators() {
            assert_eq!(a.cross_stage, a.name == "SOFA", "{}", a.name);
        }
    }

    #[test]
    fn sofa_has_the_highest_saved_computation_at_zero_loss() {
        let sofa = find("SOFA").unwrap();
        for a in sota_accelerators() {
            if a.accuracy_loss <= sofa.accuracy_loss && a.name != "SOFA" {
                assert!(sofa.saved_computation > a.saved_computation, "{}", a.name);
            }
        }
        assert!((sofa.saved_computation - 0.82).abs() < 1e-9);
    }

    #[test]
    fn sofa_device_energy_efficiency_matches_paper() {
        // Table II: SOFA device (core+IO) efficiency is 7183 GOPS/W.
        let sofa = find("SOFA").unwrap();
        let eff = sofa.device_energy_efficiency();
        assert!((eff - 7183.0).abs() / 7183.0 < 0.01, "got {eff}");
        // Core-only: 25708 GOPS/W.
        assert!((sofa.throughput_gops / sofa.core_power_w - 25708.0).abs() / 25708.0 < 0.01);
    }

    #[test]
    fn sofa_beats_every_sota_on_efficiency_after_scaling() {
        let sofa = find("SOFA").unwrap();
        let sofa_area_eff = sofa.area_efficiency_28nm();
        let sofa_core_eff = sofa.core_energy_efficiency_28nm(1.0);
        for a in sota_accelerators() {
            if a.name == "SOFA" {
                continue;
            }
            assert!(
                sofa_core_eff > a.core_energy_efficiency_28nm(1.0),
                "core efficiency vs {}",
                a.name
            );
            assert!(
                sofa_area_eff > a.area_efficiency_28nm(),
                "area eff vs {}",
                a.name
            );
        }
    }

    #[test]
    fn sofa_area_efficiency_is_about_4300_gops_per_mm2() {
        let sofa = find("SOFA").unwrap();
        let eff = sofa.area_efficiency_28nm();
        assert!((eff - 4292.0).abs() / 4292.0 < 0.02, "got {eff}");
    }

    #[test]
    fn fact_normalized_latency_matches_paper_method() {
        // The paper: FACT at 928 GOPS / 500 MHz / 512 multipliers executing a
        // 137-GOP attention slice, normalised to 128 multipliers at 1 GHz,
        // takes 2·137/928 ≈ 0.296 s.
        let fact = find("FACT").unwrap();
        let lat = fact.normalized_latency_s(137.0, 128, 1.0e9);
        assert!((lat - 0.296).abs() < 0.01, "got {lat}");
    }

    #[test]
    fn sofa_normalized_latency_is_lowest() {
        let gops = 137.0;
        let sofa = find("SOFA").unwrap().normalized_latency_s(gops, 128, 1.0e9);
        for a in sota_accelerators() {
            if a.name == "SOFA" {
                continue;
            }
            let lat = a.normalized_latency_s(gops, 128, 1.0e9);
            assert!(sofa < lat, "SOFA {sofa} vs {} {lat}", a.name);
        }
        // Paper Table II reports 45 ms.
        assert!((sofa - 0.045).abs() < 0.015, "SOFA latency {sofa}");
    }

    #[test]
    fn technology_scaling_raises_older_node_throughput() {
        let a3 = find("A3").unwrap();
        assert!(a3.throughput_gops_28nm() > a3.throughput_gops);
        let fact = find("FACT").unwrap();
        assert!((fact.throughput_gops_28nm() - fact.throughput_gops).abs() < 1e-9);
    }
}
