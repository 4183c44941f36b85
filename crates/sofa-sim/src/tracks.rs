//! Trace track layout of the cycle simulators.
//!
//! Chrome trace events address tracks by `(pid, tid)`. The simulators map
//! simulated entities onto that space deterministically:
//!
//! * **pid** — one per pipeline instance: the instance index of a
//!   [`crate::MultiPipelineSim`] (a [`crate::CycleSim`] run is instance 0).
//!   The shared DRAM channel is its own process, [`PID_SHARED_DRAM`], so a
//!   traced node holds at most 99 instances
//!   ([`crate::MultiPipelineSim::enable_tracing`] checks it); higher layers
//!   (the serving scheduler) start at [`PID_SERVE_BASE`]. Fleet runs are
//!   not traced.
//! * **tid** — within a pipeline process: tids `0..=3` carry the per-stage
//!   busy/stall spans (in [`crate::report::STAGE_NAMES`] order) and
//!   [`TID_BANK_BASE`]`+b` the ping-pong occupancy counter of stage
//!   boundary `b` (0–2).

use crate::report::STAGE_NAMES;
use crate::sim::STAGES;
use sofa_obs::TraceRecorder;

/// Process id of the shared DRAM channel in a multi-instance trace.
pub const PID_SHARED_DRAM: u64 = 99;
/// First process id available to layers above the simulator (serving).
pub const PID_SERVE_BASE: u64 = 100;
/// First track id of the three ping-pong bank-occupancy counters.
pub const TID_BANK_BASE: u64 = 5;

/// Names the stage and counter tracks of pipeline process `pid` in the
/// trace viewer. A disabled recorder drops everything.
pub fn announce_pipeline(obs: &mut TraceRecorder, pid: u64, process: &str) {
    if !obs.is_enabled() {
        return;
    }
    obs.process_name(pid, process);
    for (s, name) in STAGE_NAMES.iter().enumerate() {
        obs.thread_name(pid, s as u64, name);
    }
    for b in 0..STAGES - 1 {
        obs.thread_name(pid, TID_BANK_BASE + b as u64, &bank_track(b));
    }
}

/// Counter-track name of ping-pong stage boundary `b` (0–2).
pub fn bank_track(b: usize) -> String {
    format!("banks.{}-{}", STAGE_NAMES[b], STAGE_NAMES[b + 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_tracks_follow_stage_names() {
        assert_eq!(bank_track(0), "banks.predict-sort");
        assert_eq!(bank_track(2), "banks.kv-formal");
    }

    #[test]
    fn announce_emits_metadata_only_when_enabled() {
        let mut off = TraceRecorder::disabled();
        announce_pipeline(&mut off, 0, "pipeline");
        assert!(off.is_empty());
        let mut on = TraceRecorder::enabled();
        announce_pipeline(&mut on, 0, "pipeline");
        // 1 process name + 4 stages + 3 bank tracks.
        assert_eq!(on.len(), 8);
    }
}
