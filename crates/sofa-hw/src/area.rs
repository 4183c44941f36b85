//! Area model of the SOFA accelerator (paper Table III) and technology
//! scaling helpers used for the cross-accelerator comparison (Table II).

/// The accelerator's hardware modules, as broken down in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Module {
    /// Cross-stage DLZS prediction engine (128×32 shift PEs + 128 LZEs).
    DlzsPrediction,
    /// Iterative SADS engine (128 16→4 sort cores + 128 clipping units).
    SadsSort,
    /// On-demand KV generation array (128×4 16-bit PEs).
    KvGeneration,
    /// SU-FA module (two systolic arrays, 128 EXP units, 128 DIV units).
    SuFa,
    /// On-chip SRAM (token + weight + temp).
    Memory,
    /// Tiled & out-of-order controller, RASS scheduler and miscellaneous.
    SchedulerOther,
}

impl Module {
    /// All modules in Table III order.
    pub const ALL: [Module; 6] = [
        Module::DlzsPrediction,
        Module::SadsSort,
        Module::KvGeneration,
        Module::SuFa,
        Module::Memory,
        Module::SchedulerOther,
    ];
}

impl std::fmt::Display for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Module::DlzsPrediction => "DLZS prediction",
            Module::SadsSort => "Iterative SADS",
            Module::KvGeneration => "KV generation",
            Module::SuFa => "SU-FA module",
            Module::Memory => "Memory",
            Module::SchedulerOther => "Scheduler & others",
        };
        write!(f, "{s}")
    }
}

/// Per-module area model in mm² at TSMC 28 nm / 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Technology node in nm the numbers refer to.
    pub(crate) tech_nm: f64,
}

impl AreaModel {
    /// The paper's 28 nm design.
    pub fn paper_28nm() -> Self {
        AreaModel { tech_nm: 28.0 }
    }

    /// Area of one module in mm² (Table III).
    pub fn module_area_mm2(&self, module: Module) -> f64 {
        let base = match module {
            Module::DlzsPrediction => 0.351,
            Module::SadsSort => 0.679,
            Module::KvGeneration => 0.875,
            Module::SuFa => 3.012,
            Module::Memory => 0.497,
            Module::SchedulerOther => 0.280,
        };
        // Areas scale with (s)² relative to the published 28 nm node.
        let s = self.tech_nm / 28.0;
        base * s * s
    }

    /// Total core area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        Module::ALL.iter().map(|&m| self.module_area_mm2(m)).sum()
    }

    /// Fraction of the total area occupied by the low-complexity prediction
    /// logic (DLZS + SADS), reported as ~18 % in the paper.
    pub fn prediction_area_fraction(&self) -> f64 {
        (self.module_area_mm2(Module::DlzsPrediction) + self.module_area_mm2(Module::SadsSort))
            / self.total_area_mm2()
    }
}

/// Scales a competitor accelerator's area from its native technology node to
/// 28 nm (area ∝ s², s = tech/28).
pub fn scale_area_to_28nm(area_mm2: f64, tech_nm: f64) -> f64 {
    let s = tech_nm / 28.0;
    area_mm2 / (s * s)
}

/// Scales a competitor's core power from its native node and supply voltage to
/// 28 nm / 1.0 V following the paper's rule
/// `power ∝ (1/s)·(1.0/Vdd)²` with `s = tech/28`.
pub fn scale_power_to_28nm(power_w: f64, tech_nm: f64, vdd: f64) -> f64 {
    let s = tech_nm / 28.0;
    power_w * (1.0 / s) * (1.0 / vdd).powi(2)
}

/// Scales a clock frequency with `f ∝ 1/s` toward 28 nm.
pub fn scale_freq_to_28nm(freq_hz: f64, tech_nm: f64) -> f64 {
    let s = tech_nm / 28.0;
    freq_hz * s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_area_matches_table_iii() {
        let a = AreaModel::paper_28nm();
        let total = a.total_area_mm2();
        assert!(
            (total - 5.69).abs() < 0.02,
            "total area should be ~5.69 mm², got {total}"
        );
    }

    #[test]
    fn sufa_is_the_largest_module() {
        let a = AreaModel::paper_28nm();
        for m in Module::ALL {
            assert!(a.module_area_mm2(Module::SuFa) >= a.module_area_mm2(m));
        }
    }

    #[test]
    fn prediction_logic_is_under_a_fifth_of_area() {
        let a = AreaModel::paper_28nm();
        let frac = a.prediction_area_fraction();
        assert!(frac < 0.20, "LP area fraction {frac} should be ~18 %");
        assert!(frac > 0.10);
    }

    #[test]
    fn area_scaling_shrinks_with_smaller_node() {
        // A 40 nm design re-targeted at 28 nm shrinks by (40/28)².
        let scaled = scale_area_to_28nm(2.0, 40.0);
        assert!(scaled < 2.0);
        assert!((scaled - 2.0 / (40.0f64 / 28.0).powi(2)).abs() < 1e-9);
        // Scaling from 28 nm is a no-op.
        assert!((scale_area_to_28nm(3.0, 28.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn power_and_freq_scaling() {
        let p = scale_power_to_28nm(1.0, 55.0, 1.1);
        assert!(p < 1.0, "older node at higher Vdd scales power down: {p}");
        let f = scale_freq_to_28nm(500e6, 55.0);
        assert!(f > 500e6);
        assert!((scale_freq_to_28nm(1e9, 28.0) - 1e9).abs() < 1.0);
    }

    #[test]
    fn module_display_names() {
        assert_eq!(Module::SuFa.to_string(), "SU-FA module");
        assert_eq!(Module::ALL.len(), 6);
    }

    #[test]
    fn larger_node_projection_grows_area() {
        let a28 = AreaModel::paper_28nm();
        let a40 = AreaModel { tech_nm: 40.0 };
        assert!(a40.total_area_mm2() > a28.total_area_mm2());
    }
}
