//! Power and energy model (paper Table III core breakdown, Table IV system
//! breakdown).
//!
//! Two granularities coexist:
//!
//! * a **module power model** seeded with the synthesised per-module power of
//!   Table III, scaled by the module's utilisation during a simulated run, and
//! * an **event energy model** (pJ per primitive operation / per bit moved)
//!   used to attribute energy to computation, SRAM and DRAM traffic, following
//!   the Horowitz energy numbers the paper's motivation cites.

use crate::area::Module;
use sofa_core::ops::{OpCounts, OpKind};

/// Per-module power at full utilisation (mW), TSMC 28 nm @ 1 GHz (Table III).
pub fn module_power_mw(module: Module) -> f64 {
    match module {
        Module::DlzsPrediction => 29.05,
        Module::SadsSort => 112.79,
        Module::KvGeneration => 146.21,
        Module::SuFa => 485.12,
        Module::Memory => 170.23,
        Module::SchedulerOther => 6.45,
    }
}

/// Total core power at full utilisation in watts (Table III: ~0.95 W).
pub(crate) fn total_core_power_w() -> f64 {
    Module::ALL.iter().map(|&m| module_power_mw(m)).sum::<f64>() / 1000.0
}

/// Energy charged per DRAM request issued by the cycle simulator (row
/// activation + command overhead, ~1 nJ for an HBM2-class burst). Fine
/// tilings issue more, smaller requests for the same traffic; this term is
/// what makes that overhead visible to the energy objective of the DSE
/// evaluator and to the serving layer's per-request energy projections.
pub const DRAM_ACTIVATION_PJ: f64 = 1000.0;

/// Energy cost in picojoules of one primitive operation at 16-bit precision,
/// 28 nm (Horowitz-style numbers; shifts and compares are cheap, exp/div are
/// modelled as multi-cycle LUT+multiply units).
pub(crate) fn op_energy_pj(kind: OpKind) -> f64 {
    match kind {
        OpKind::Mul => 1.1,
        OpKind::Add => 0.1,
        OpKind::Exp => 4.0,
        OpKind::Cmp => 0.08,
        OpKind::Shift => 0.05,
        OpKind::Div => 3.0,
        OpKind::LzEncode => 0.07,
    }
}

/// Computes the compute energy (in joules) of a tally of operations.
pub fn compute_energy_j(ops: &OpCounts) -> f64 {
    let pj: f64 = OpKind::ALL
        .iter()
        .map(|&k| ops.count(k) as f64 * op_energy_pj(k))
        .sum();
    pj * 1e-12
}

/// An energy ledger accumulated over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Datapath (compute) energy in joules.
    pub(crate) compute_j: f64,
    /// On-chip SRAM access energy in joules.
    pub sram_j: f64,
    /// Memory-interface (PHY/IO) energy in joules.
    pub interface_j: f64,
    /// Off-chip DRAM energy in joules.
    pub dram_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.sram_j + self.interface_j + self.dram_j
    }
}

/// System power breakdown in watts at a sustained DRAM bandwidth, reproducing
/// Table IV (core 0.95 W, interface 0.53 W, DRAM 1.92 W at 59.8 GB/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Core (datapath + SRAM) power in watts.
    pub core_w: f64,
    /// Memory interface power in watts.
    pub interface_w: f64,
    /// DRAM device power in watts.
    pub dram_w: f64,
}

impl PowerBreakdown {
    /// Estimates the system power when the accelerator sustains the given
    /// DRAM bandwidth (bytes/s), using the per-bit energies of the config.
    pub fn at_bandwidth(
        core_utilization: f64,
        bandwidth_bps: f64,
        interface_pj_per_bit: f64,
        dram_pj_per_bit: f64,
    ) -> Self {
        let bits_per_s = bandwidth_bps * 8.0;
        PowerBreakdown {
            core_w: total_core_power_w() * core_utilization.clamp(0.0, 1.0),
            interface_w: bits_per_s * interface_pj_per_bit * 1e-12,
            dram_w: bits_per_s * dram_pj_per_bit * 1e-12,
        }
    }

    /// Total system power in watts.
    pub fn total_w(&self) -> f64 {
        self.core_w + self.interface_w + self.dram_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_power_matches_table_iii() {
        let p = total_core_power_w();
        assert!(
            (p - 0.95).abs() < 0.01,
            "core power should be ~0.95 W, got {p}"
        );
    }

    #[test]
    fn sufa_dominates_module_power() {
        for m in Module::ALL {
            assert!(module_power_mw(Module::SuFa) >= module_power_mw(m));
        }
        // LP (DLZS + SADS) is ~15% of core power.
        let lp = module_power_mw(Module::DlzsPrediction) + module_power_mw(Module::SadsSort);
        let frac = lp / (total_core_power_w() * 1000.0);
        assert!(frac < 0.2 && frac > 0.1, "LP power fraction {frac}");
    }

    #[test]
    fn op_energy_ordering_matches_hardware_intuition() {
        assert!(op_energy_pj(OpKind::Shift) < op_energy_pj(OpKind::Mul));
        assert!(op_energy_pj(OpKind::Add) < op_energy_pj(OpKind::Mul));
        assert!(op_energy_pj(OpKind::Exp) > op_energy_pj(OpKind::Mul));
    }

    #[test]
    fn compute_energy_scales_with_ops() {
        let mut a = OpCounts::new();
        a.record(OpKind::Mul, 1000);
        let mut b = OpCounts::new();
        b.record(OpKind::Mul, 2000);
        assert!(compute_energy_j(&b) > compute_energy_j(&a));
        assert!((compute_energy_j(&a) - 1000.0 * 1.1e-12).abs() < 1e-15);
    }

    #[test]
    fn table_iv_power_breakdown_shape() {
        // At 59.8 GB/s the paper reports interface 0.53 W and DRAM 1.92 W.
        let p = PowerBreakdown::at_bandwidth(1.0, 59.8e9, 1.1, 4.0);
        assert!((p.core_w - 0.95).abs() < 0.02);
        assert!(
            (p.interface_w - 0.53).abs() < 0.06,
            "interface {}",
            p.interface_w
        );
        assert!((p.dram_w - 1.92).abs() < 0.15, "dram {}", p.dram_w);
        assert!((p.total_w() - 3.40).abs() < 0.2, "total {}", p.total_w());
    }
}
