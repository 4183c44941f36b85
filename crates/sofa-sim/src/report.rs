//! Cycle-level simulation results and the cross-check against the analytic
//! model.

use sofa_hw::accel::SimReport;

/// The four pipeline stages, in dataflow order.
pub const STAGE_NAMES: [&str; 4] = ["predict", "sort", "kv", "formal"];

/// Busy/stall breakdown of one stage over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageActivity {
    /// Cycles spent processing tiles.
    pub busy: u64,
    /// Cycles stalled waiting for the upstream ping-pong bank (starvation).
    pub stall_input: u64,
    /// Cycles stalled waiting for a free downstream bank (back-pressure).
    pub stall_output: u64,
    /// Cycles stalled waiting for DRAM data.
    pub stall_dram: u64,
    /// Tiles processed.
    pub tiles: usize,
}

impl StageActivity {
    /// All stall cycles of the stage.
    pub fn total_stall(&self) -> u64 {
        self.stall_input + self.stall_output + self.stall_dram
    }

    /// Busy fraction of the run (`busy / total`).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.busy as f64 / total_cycles as f64
    }
}

/// DRAM channel statistics of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramActivity {
    /// Bytes read over the run.
    pub bytes_read: u64,
    /// Bytes written over the run.
    pub bytes_written: u64,
    /// Cycles the channel spent transferring.
    pub busy_cycles: u64,
}

impl DramActivity {
    /// Total traffic.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Channel utilization over the run.
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / total_cycles as f64
    }
}

/// One processed tile in the stage-by-stage timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Stage index (see [`STAGE_NAMES`]).
    pub stage: usize,
    /// Tile index.
    pub tile: usize,
    /// Cycle the stage started the tile.
    pub start: u64,
    /// Cycle the stage finished the tile.
    pub end: u64,
}

/// Average ping-pong bank occupancy at each stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BufferActivity {
    /// Mean occupied banks over the run.
    pub average_occupancy: f64,
    /// Bank count of the boundary.
    pub capacity: usize,
}

/// The outcome of one cycle-level simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// End-to-end cycles from first fetch to last writeback.
    pub total_cycles: u64,
    /// Per-stage busy/stall accounting.
    pub stages: [StageActivity; 4],
    /// DRAM channel accounting.
    pub dram: DramActivity,
    /// Ping-pong occupancy at the three stage boundaries.
    pub buffers: [BufferActivity; 3],
    /// Stage-by-stage tile timeline, in start order.
    pub timeline: Vec<TimelineEntry>,
    /// Number of context tiles the task was split into.
    pub num_tiles: usize,
}

impl CycleReport {
    /// Fraction of the run during which the DRAM channel — not any engine —
    /// was the limiting resource: the channel-busy cycles in excess of the
    /// busiest stage's compute, over the whole run. Zero on compute-bound
    /// configurations (where fetch latency hides behind the pipeline) and
    /// grows toward the analytic memory-time share on memory-bound ones. For
    /// per-stage wait diagnosis use [`StageActivity::stall_dram`] instead.
    pub(crate) fn dram_stall_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let busiest = self.stages.iter().map(|s| s.busy).max().unwrap_or(0);
        self.dram.busy_cycles.saturating_sub(busiest) as f64 / self.total_cycles as f64
    }

    /// The stage with the highest busy cycle count (the pipeline bottleneck).
    pub fn bottleneck_stage(&self) -> usize {
        self.stages
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.busy)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Compares this run against the analytic model's report.
    pub fn compare(&self, analytic: &SimReport, freq_hz: f64) -> CycleComparison {
        let analytic_cycles = analytic.latency_s * freq_hz;
        let simulated = self.total_cycles as f64;
        CycleComparison {
            analytic_cycles,
            simulated_cycles: simulated,
            relative_error: (simulated - analytic_cycles) / analytic_cycles,
            analytic_memory_bound: analytic.memory_time_s > analytic.compute_time_s,
            dram_stall_fraction: self.dram_stall_fraction(),
        }
    }

    /// Renders a compact per-stage summary (one line per stage).
    pub fn stage_summary(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "{:<8} busy {:>10}  in-stall {:>8}  out-stall {:>8}  dram-stall {:>8}  util {:>5.1}%\n",
                STAGE_NAMES[i],
                s.busy,
                s.stall_input,
                s.stall_output,
                s.stall_dram,
                100.0 * s.utilization(self.total_cycles),
            ));
        }
        out
    }
}

/// Agreement between the cycle simulator and the analytic model on one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleComparison {
    /// Cycles the analytic model predicts (latency × clock).
    pub analytic_cycles: f64,
    /// Cycles the event-driven simulation took.
    pub simulated_cycles: f64,
    /// Signed relative error of the simulation versus the analytic model.
    pub relative_error: f64,
    /// Whether the analytic model classified the task memory-bound.
    pub analytic_memory_bound: bool,
    /// The run's `CycleReport::dram_stall_fraction`: the fraction of the
    /// run during which the DRAM channel, not any engine, was the limiting
    /// resource (channel-busy cycles in excess of the busiest stage).
    pub dram_stall_fraction: f64,
}

impl CycleComparison {
    /// Whether the two models agree within `tolerance` (e.g. `0.15`).
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.relative_error.abs() <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CycleReport {
        let mut stages = [StageActivity::default(); 4];
        stages[0].busy = 500;
        stages[3].busy = 800;
        stages[3].stall_dram = 200;
        CycleReport {
            total_cycles: 1000,
            stages,
            dram: DramActivity {
                bytes_read: 4000,
                bytes_written: 1000,
                busy_cycles: 1000,
            },
            buffers: [BufferActivity::default(); 3],
            timeline: vec![],
            num_tiles: 8,
        }
    }

    #[test]
    fn fractions_and_bottleneck() {
        let r = report();
        assert_eq!(r.bottleneck_stage(), 3);
        // Channel busy 1000 vs busiest stage 800 → 200 excess over 1000 cycles.
        assert!((r.dram_stall_fraction() - 0.2).abs() < 1e-12);
        assert!((r.dram.utilization(r.total_cycles) - 1.0).abs() < 1e-12);
        assert!((r.stages[3].utilization(r.total_cycles) - 0.8).abs() < 1e-12);
        assert_eq!(r.dram.total_bytes(), 5000);
        assert_eq!(r.stages[3].total_stall(), 200);
    }

    #[test]
    fn summary_mentions_every_stage() {
        let s = report().stage_summary();
        for name in STAGE_NAMES {
            assert!(s.contains(name), "{name} missing from summary");
        }
    }

    #[test]
    fn comparison_tolerance() {
        let c = CycleComparison {
            analytic_cycles: 1000.0,
            simulated_cycles: 1100.0,
            relative_error: 0.1,
            analytic_memory_bound: false,
            dram_stall_fraction: 0.0,
        };
        assert!(c.agrees_within(0.15));
        assert!(!c.agrees_within(0.05));
    }

    #[test]
    fn zero_cycle_report_has_zero_fractions() {
        let mut r = report();
        r.total_cycles = 0;
        assert_eq!(r.dram_stall_fraction(), 0.0);
        assert_eq!(r.dram.utilization(0), 0.0);
        assert_eq!(r.stages[0].utilization(0), 0.0);
    }
}
