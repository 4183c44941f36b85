//! SRAM and DRAM traffic accounting.
//!
//! The memory system is the crux of the paper: a whole-row dynamic-sparsity
//! accelerator has to spill the Pre-Atten and Atten matrices to DRAM whenever
//! they exceed the on-chip SRAM, and at LTPP scale that traffic dominates the
//! end-to-end time (Fig. 3). These small models track bytes moved, convert
//! them to time (bandwidth-limited) and to energy (pJ/bit).

/// Tracks traffic into/out of an SRAM of fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SramModel {
    /// Capacity in bytes.
    pub(crate) capacity_bytes: usize,
    /// Access energy in pJ/bit.
    pub(crate) pj_per_bit: f64,
    bytes_read: u64,
}

impl SramModel {
    /// Creates an SRAM model.
    pub(crate) fn new(capacity_bytes: usize, pj_per_bit: f64) -> Self {
        SramModel {
            capacity_bytes,
            pj_per_bit,
            bytes_read: 0,
        }
    }

    /// Records a read of `bytes`.
    pub(crate) fn read(&mut self, bytes: u64) {
        self.bytes_read += bytes;
    }

    /// Returns `true` if a working set of `bytes` fits on chip.
    pub(crate) fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity_bytes as u64
    }

    /// Total bytes accessed.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bytes_read
    }

    /// Total access energy in joules.
    pub(crate) fn energy_j(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 * self.pj_per_bit * 1e-12
    }
}

/// Tracks off-chip DRAM traffic and converts it to time and energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DramModel {
    /// Sustained bandwidth in bytes per second.
    pub(crate) bandwidth_bps: f64,
    /// Device energy in pJ/bit.
    pub(crate) pj_per_bit: f64,
    /// Memory interface (PHY/IO) energy in pJ/bit.
    pub(crate) interface_pj_per_bit: f64,
    bytes_read: u64,
    bytes_written: u64,
}

impl DramModel {
    /// Creates a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive.
    pub(crate) fn new(bandwidth_bps: f64, pj_per_bit: f64, interface_pj_per_bit: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        DramModel {
            bandwidth_bps,
            pj_per_bit,
            interface_pj_per_bit,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Records a read of `bytes` from DRAM.
    pub(crate) fn read(&mut self, bytes: u64) {
        self.bytes_read += bytes;
    }

    /// Records a write of `bytes` to DRAM.
    pub(crate) fn write(&mut self, bytes: u64) {
        self.bytes_written += bytes;
    }

    /// Total bytes moved.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Time (seconds) the accumulated traffic occupies the memory channel.
    pub(crate) fn transfer_time_s(&self) -> f64 {
        self.total_bytes() as f64 / self.bandwidth_bps
    }

    /// DRAM device energy in joules.
    pub(crate) fn device_energy_j(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 * self.pj_per_bit * 1e-12
    }

    /// Interface energy in joules.
    pub(crate) fn interface_energy_j(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 * self.interface_pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_tracks_traffic_and_capacity() {
        let mut s = SramModel::new(1024, 0.1);
        assert!(s.fits(1024));
        assert!(!s.fits(1025));
        s.read(100);
        s.read(50);
        assert_eq!(s.total_bytes(), 150);
        assert!((s.energy_j() - 150.0 * 8.0 * 0.1e-12).abs() < 1e-18);
    }

    #[test]
    fn dram_time_and_energy() {
        let mut d = DramModel::new(100e9, 4.0, 1.0);
        d.read(50_000_000_000); // 50 GB
        d.write(50_000_000_000);
        assert_eq!(d.total_bytes(), 100_000_000_000);
        assert!((d.transfer_time_s() - 1.0).abs() < 1e-9);
        assert!(d.device_energy_j() > d.interface_energy_j());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = DramModel::new(0.0, 4.0, 1.0);
    }

    #[test]
    fn dram_energy_is_orders_of_magnitude_above_sram() {
        // The paper's motivation: DRAM ~ two orders of magnitude costlier per
        // bit than on-chip SRAM.
        let mut s = SramModel::new(1 << 20, 0.1);
        let mut d = DramModel::new(25.6e9, 10.0, 1.0);
        s.read(1000);
        d.read(1000);
        assert!(d.device_energy_j() > 50.0 * s.energy_j());
    }
}
