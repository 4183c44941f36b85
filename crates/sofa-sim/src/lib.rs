//! Event-driven cycle-level simulator of the SOFA cross-stage tiled pipeline.
//!
//! The analytic models in `sofa-hw` reduce a task to closed-form stage cycle
//! counts and a `max(compute, memory)` latency. That cannot show *why* a
//! configuration is slow: ping-pong buffer back-pressure, DRAM channel
//! contention between on-demand KV fetches and output writeback, or per-tile
//! load imbalance from the Distributed Cluster Effect. This crate simulates
//! the four-stage pipeline tile by tile instead:
//!
//! * [`event`] — the deterministic time-ordered event queue (a sorted
//!   pending window with FIFO ties), the crate's one event core.
//! * [`pingpong`] — double-buffered SRAM banks with fill/drain occupancy.
//! * [`dram`] — shared DRAM channel: per-port queues, round-robin
//!   arbitration, bandwidth-limited transfers, per-burst latency.
//! * [`multi`] — [`MultiPipelineSim`]: the pipeline engine. Several
//!   instances, each with its own ping-pong buffer pool, share one DRAM
//!   channel; request streams are submitted reactively so a serving
//!   scheduler (`sofa-serve`) can feed admission decisions back into
//!   simulated time.
//! * [`sim`] — [`CycleSim`]: lowers one task into per-tile work descriptors
//!   (from `sofa_hw::descriptor`) and replays them on a one-instance
//!   [`MultiPipelineSim`].
//! * [`report`] — [`CycleReport`]: per-stage busy/stall accounting, DRAM and
//!   buffer statistics, a stage-by-stage timeline, and the
//!   [`CycleComparison`] cross-check against the analytic `SimReport`.
//! * [`tracks`] — the trace track layout the simulators use when recording
//!   into a `sofa_obs::TraceRecorder` (per-stage busy/stall spans, DRAM
//!   queue-depth and ping-pong occupancy counters, in simulated cycles).
//!
//! The simulator is validated against the analytic model: on compute-bound
//! configurations the two agree within a tolerance band (same engine
//! throughput models, same traffic volumes), while at high token parallelism
//! the simulation correctly diverges memory-bound and reports a nonzero DRAM
//! stall fraction — see `tests/integration_sim.rs` at the workspace root.
//!
//! # Example
//!
//! ```
//! use sofa_hw::accel::AttentionTask;
//! use sofa_hw::config::HwConfig;
//! use sofa_sim::CycleSim;
//!
//! let sim = CycleSim::new(HwConfig::small());
//! let task = AttentionTask::new(16, 512, 256, 4, 0.25, 32);
//! let (report, cmp) = sim.validate(&task);
//! assert_eq!(report.num_tiles, 16);
//! assert!(report.total_cycles > 0);
//! assert!(cmp.analytic_cycles > 0.0);
//! ```

pub mod dram;
pub mod event;
pub mod fleet;
pub mod multi;
pub mod pingpong;
pub mod report;
pub mod sim;
pub mod tracks;

pub use fleet::{Fabric, FabricParams, FabricReport, FleetCompletion, FleetSim, FleetSimReport};
pub use multi::{Completion, CoreWork, InstanceActivity, MultiPipelineSim, MultiReport, Step};
pub use report::{CycleComparison, CycleReport, DramActivity, StageActivity, TimelineEntry};
pub use sim::{CycleSim, PipelineJob, SimParams};
