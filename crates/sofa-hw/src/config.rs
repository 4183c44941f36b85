//! Hardware configuration of the SOFA accelerator.
//!
//! The defaults follow the design point evaluated in the paper (Fig. 11 and
//! Table III): a 128-query-parallel accelerator at 1 GHz on TSMC 28 nm with a
//! 128×32 shift-adder array for DLZS, 128 iterative 16→4 sorting cores, a
//! 128×4 16-bit PE array for on-demand KV generation, a 128×(2×2×4)-PE SU-FA
//! engine and 316 KB of on-chip SRAM, attached to HBM2.

/// Static configuration of the accelerator instance being simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// Clock frequency in Hz (paper: 1 GHz).
    pub freq_hz: f64,
    /// Number of queries processed in parallel (PE "lines").
    pub query_parallelism: usize,
    /// DLZS shift-adder array shape: lanes per line.
    pub(crate) dlzs_lanes_per_line: usize,
    /// Number of SADS sorting cores (one per PE line).
    pub(crate) sort_cores: usize,
    /// New elements each 16→4 bitonic core absorbs per cycle.
    pub(crate) sort_elems_per_cycle: usize,
    /// KV-generation MAC lanes per line (16-bit PEs).
    pub(crate) kvgen_lanes_per_line: usize,
    /// SU-FA MAC lanes per line across both systolic arrays.
    pub(crate) sufa_lanes_per_line: usize,
    /// Number of EXP units (one per PE line).
    pub exp_units: usize,
    /// Token SRAM capacity in bytes.
    pub token_sram_bytes: usize,
    /// Weight SRAM capacity in bytes.
    pub(crate) weight_sram_bytes: usize,
    /// Temporary SRAM capacity in bytes.
    pub(crate) temp_sram_bytes: usize,
    /// Sustained DRAM bandwidth in bytes/second.
    pub dram_bandwidth_bps: f64,
    /// DRAM access energy in pJ per bit. The paper's Table IV implies
    /// ~4 pJ/bit for HBM2 (1.92 W at 59.8 GB/s); DDR4-class memories sit at
    /// 5–20 pJ/bit.
    pub dram_pj_per_bit: f64,
    /// Memory-interface (PHY/IO) energy in pJ per bit.
    pub interface_pj_per_bit: f64,
    /// SRAM access energy in pJ per bit.
    pub(crate) sram_pj_per_bit: f64,
}

impl HwConfig {
    /// The design point evaluated in the paper.
    pub fn paper_default() -> Self {
        HwConfig {
            freq_hz: 1.0e9,
            query_parallelism: 128,
            dlzs_lanes_per_line: 32,
            sort_cores: 128,
            sort_elems_per_cycle: 12,
            kvgen_lanes_per_line: 4,
            sufa_lanes_per_line: 8,
            exp_units: 128,
            token_sram_bytes: 192 * 1024,
            weight_sram_bytes: 96 * 1024,
            temp_sram_bytes: 28 * 1024,
            // Table IV estimates the interface/DRAM power at 59.8 GB/s.
            dram_bandwidth_bps: 59.8e9,
            dram_pj_per_bit: 4.0,
            interface_pj_per_bit: 1.1,
            sram_pj_per_bit: 0.1,
        }
    }

    /// A down-scaled configuration useful for fast unit tests.
    pub fn small() -> Self {
        HwConfig {
            query_parallelism: 16,
            dlzs_lanes_per_line: 8,
            sort_cores: 16,
            kvgen_lanes_per_line: 2,
            sufa_lanes_per_line: 4,
            exp_units: 16,
            token_sram_bytes: 16 * 1024,
            weight_sram_bytes: 16 * 1024,
            temp_sram_bytes: 8 * 1024,
            ..Self::paper_default()
        }
    }

    /// Total on-chip SRAM in bytes.
    pub(crate) fn total_sram_bytes(&self) -> usize {
        self.token_sram_bytes + self.weight_sram_bytes + self.temp_sram_bytes
    }

    /// Peak shift-add throughput of the DLZS engine (operations per cycle).
    pub fn dlzs_ops_per_cycle(&self) -> f64 {
        (self.query_parallelism * self.dlzs_lanes_per_line) as f64
    }

    /// Peak MAC throughput of the KV-generation array (MACs per cycle).
    pub(crate) fn kvgen_macs_per_cycle(&self) -> f64 {
        (self.query_parallelism * self.kvgen_lanes_per_line) as f64
    }

    /// Peak MAC throughput of the SU-FA engine (MACs per cycle).
    pub fn sufa_macs_per_cycle(&self) -> f64 {
        (self.query_parallelism * self.sufa_lanes_per_line) as f64
    }

    /// Peak sorting throughput (elements absorbed per cycle).
    pub(crate) fn sort_elems_per_cycle_total(&self) -> f64 {
        (self.sort_cores * self.sort_elems_per_cycle) as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.freq_hz <= 0.0 {
            return Err("frequency must be positive".to_string());
        }
        if self.query_parallelism == 0 {
            return Err("query parallelism must be positive".to_string());
        }
        if self.dram_bandwidth_bps <= 0.0 {
            return Err("DRAM bandwidth must be positive".to_string());
        }
        if self.total_sram_bytes() == 0 {
            return Err("SRAM capacity must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_published_design_point() {
        let c = HwConfig::paper_default();
        assert_eq!(c.query_parallelism, 128);
        assert_eq!(c.total_sram_bytes(), (192 + 96 + 28) * 1024);
        assert_eq!(c.dlzs_ops_per_cycle(), 128.0 * 32.0);
        assert!((c.freq_hz - 1e9).abs() < 1.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_config_is_valid_and_smaller() {
        let s = HwConfig::small();
        assert!(s.validate().is_ok());
        assert!(s.total_sram_bytes() < HwConfig::paper_default().total_sram_bytes());
        assert!(s.dlzs_ops_per_cycle() < HwConfig::paper_default().dlzs_ops_per_cycle());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = HwConfig::paper_default();
        c.freq_hz = 0.0;
        assert!(c.validate().is_err());
        let mut c = HwConfig::paper_default();
        c.query_parallelism = 0;
        assert!(c.validate().is_err());
        let mut c = HwConfig::paper_default();
        c.dram_bandwidth_bps = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(HwConfig::default(), HwConfig::paper_default());
    }
}
