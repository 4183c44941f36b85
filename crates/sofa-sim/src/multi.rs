//! Multi-instance cycle-level simulation: several SOFA pipelines sharing one
//! DRAM channel.
//!
//! [`MultiPipelineSim`] steps `N` independent four-stage pipeline instances —
//! each with its own per-instance [`PingPongBuffer`] pool — whose tile
//! streams all contend for a single [`DramChannel`]. Each instance carries a
//! *stream* of [`PipelineJob`]s (one per serving request): tiles of
//! consecutive requests flow back-to-back through the stages without
//! draining the pipeline in between, which is what makes request-level
//! continuous batching profitable at the tile level.
//!
//! The simulator is *reactive*: a scheduler (see the `sofa-serve` crate)
//! submits jobs with [`MultiPipelineSim::submit`] at simulated arrival or
//! admission times and advances the clock one event at a time with
//! [`MultiPipelineSim::step`], which reports request completions so
//! admission decisions can feed back into the simulation. DRAM arbitration
//! is round-robin across all `N × 4` ports with optional priority aging
//! (see [`SimParams::dram_age_threshold`]), so no instance's fetch stream
//! can starve indefinitely behind another's bulk transfers.
//!
//! Determinism: the event queue breaks timestamp ties FIFO, instances are
//! scanned in index order, and the channel arbitrates deterministically —
//! two runs over the same submissions are bit-identical.

use crate::dram::{DramChannel, DramRequest};
use crate::event::EventQueue;
use crate::pingpong::PingPongBuffer;
use crate::report::{DramActivity, StageActivity, TimelineEntry};
use crate::sim::{PipelineJob, SimParams, STAGES};
use crate::tracks::{announce_pipeline, bank_track, PID_SHARED_DRAM, TID_BANK_BASE};
use sofa_hw::config::HwConfig;
use sofa_hw::descriptor::TileWork;
use sofa_obs::{ArgValue, TraceRecorder};
use std::collections::VecDeque;

/// Events of the multi-instance simulation. Instance and stage indices are
/// narrowed (the instance count is checked to fit `u32` in
/// [`MultiPipelineSim::new`]) so an event is 16 bytes and a queue entry 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MultiEvent {
    /// `stage` of `instance` finished its tile at local index `tile`.
    StageDone {
        instance: u32,
        stage: u8,
        tile: usize,
    },
    /// The shared channel can issue the next request.
    DramFree,
    /// An operand read's data arrived at its stage. (Nothing waits on a
    /// writeback's arrival, so writes schedule no event.)
    DramDone {
        instance: u32,
        stage: u8,
        tile: usize,
    },
}

/// One tile of one request in an instance's stream: only the fields the
/// event core reads, not the whole [`TileWork`] descriptor.
#[derive(Debug, Clone, Copy)]
struct TileSlot {
    /// Request the tile belongs to.
    request: u64,
    /// Whether this is the request's final tile (its completion marker).
    last: bool,
    /// DRAM bytes each stage reads for the tile (the sorting stage reads
    /// none).
    read_bytes: [u64; STAGES],
    /// Output bytes the formal stage writes back.
    write_bytes: u64,
    cycles: [u64; STAGES],
}

impl TileSlot {
    fn new(request: u64, last: bool, work: &TileWork, cycles: [u64; STAGES]) -> Self {
        TileSlot {
            request,
            last,
            read_bytes: [
                work.pred_read_bytes,
                0,
                work.kv_read_bytes,
                work.extra_formal_read_bytes,
            ],
            write_bytes: work.write_bytes,
            cycles,
        }
    }
}

/// An entry of an instance's tile ring: one in-flight tile and its operand
/// stamps, in one row so `try_start` reads both from the same cache lines.
#[derive(Debug)]
struct Row {
    slot: TileSlot,
    /// `read_done[stage]`: when the stage's operand fetch for the tile
    /// arrived, [`NOT_ARRIVED`] until then. The sorting stage never reads
    /// DRAM, so its stamp is the submission time.
    read_done: [u64; STAGES],
}

/// `read_done` stamp of an operand fetch that has not arrived yet (a flat
/// sentinel keeps the stamps at 32 bytes; `Option<u64>` would double them).
const NOT_ARRIVED: u64 = u64::MAX;

/// Per-instance pipeline state: stream of tiles, buffer pool, stage status.
///
/// Tile indices are *stream positions* — monotonically increasing over the
/// instance's lifetime and used as identifiers in events and ping-pong
/// bookkeeping. Storage is a ring of the in-flight tiles: a submission
/// pushes its tiles at the back, the formal stage's `StageDone` pops the
/// tile from the front ([`Instance::retire`]) and `base` counts the popped,
/// so a stream holds only its admitted-but-unretired window however many
/// requests pass through it (the fleet simulator feeds millions through one
/// instance). Retiring never changes timing — it frees only a tile no
/// pending event or bank can reference any more.
#[derive(Debug)]
struct Instance {
    /// Stream positions `base..base + tiles.len()`; index with
    /// [`Instance::row`].
    tiles: VecDeque<Row>,
    /// Stream position of `tiles[0]`: the tiles retired so far.
    base: usize,
    buffers: Vec<PingPongBuffer>,
    busy: [bool; STAGES],
    next_tile: [usize; STAGES],
    idle_since: [u64; STAGES],
    /// Tiles whose stage-0 key-stream read has been issued (prefetch window).
    pred_issued: usize,
    acts: [StageActivity; STAGES],
}

impl Instance {
    fn new() -> Self {
        Instance {
            tiles: VecDeque::new(),
            base: 0,
            buffers: (0..STAGES - 1)
                .map(|_| PingPongBuffer::new(SimParams::BUFFER_DEPTH))
                .collect(),
            busy: [false; STAGES],
            next_tile: [0; STAGES],
            idle_since: [0; STAGES],
            pred_issued: 0,
            acts: [StageActivity::default(); STAGES],
        }
    }

    /// Total tiles ever appended to the stream (accepted, in flight or
    /// retired).
    fn stream_len(&self) -> usize {
        self.base + self.tiles.len()
    }

    /// The tile at stream position `tile` (must not be retired).
    fn row(&mut self, tile: usize) -> &mut Row {
        &mut self.tiles[tile - self.base]
    }

    /// Pops tile `tile`, the oldest in flight, once the formal stage has
    /// finished it: its earlier stages and operand fetches have all fired,
    /// and its writeback schedules no event.
    fn retire(&mut self, tile: usize) -> TileSlot {
        debug_assert_eq!(tile, self.base, "tiles retire in stream order");
        self.base += 1;
        self.tiles
            .pop_front()
            .expect("a finished tile is in flight")
            .slot
    }
}

/// A request that finished its formal-compute stage (output produced; the
/// writeback drains asynchronously but is still accounted in the DRAM stats
/// and the end-to-end cycle count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Instance the request ran on.
    pub instance: usize,
    /// Request identifier given at [`MultiPipelineSim::submit`].
    pub request: u64,
}

/// Outcome of processing one simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Simulated time of the event.
    pub time: u64,
    /// The request that completed at this event, if any.
    pub completed: Option<Completion>,
}

/// Activity of one instance over a multi-instance run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceActivity {
    /// Per-stage busy/stall accounting.
    pub stages: [StageActivity; STAGES],
    /// Tiles the instance processed (through the formal stage).
    pub tiles: usize,
    /// Requests the instance completed.
    pub requests: usize,
    /// Mean ping-pong occupancy at the three stage boundaries.
    pub buffer_occupancy: [f64; STAGES - 1],
}

impl InstanceActivity {
    /// Busy fraction of the instance's bottleneck stage over `total` cycles —
    /// the serving-level notion of instance utilization.
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        let busiest = self.stages.iter().map(|s| s.busy).max().unwrap_or(0);
        busiest as f64 / total_cycles as f64
    }
}

/// Aggregate outcome of a multi-instance run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiReport {
    /// End-to-end cycles from the first fetch to the last event or the
    /// arrival of the last writeback, whichever is later (a writeback's
    /// arrival is folded in when the channel issues it, not scheduled).
    pub total_cycles: u64,
    /// Per-instance activity.
    pub instances: Vec<InstanceActivity>,
    /// Shared-channel accounting across all instances.
    pub dram: DramActivity,
    /// Issues decided by priority aging rather than round-robin.
    pub dram_aged_issues: u64,
    /// Mean cycles a DRAM request queued before issue.
    pub dram_mean_queue_wait: f64,
}

/// `N` pipeline instances over one shared DRAM channel.
#[derive(Debug)]
pub struct MultiPipelineSim {
    instances: Vec<Instance>,
    queue: EventQueue<MultiEvent>,
    dram: DramChannel,
    end_time: u64,
    requests_completed: Vec<usize>,
    obs: TraceRecorder,
    /// Trace pid of instance 0 (instance `i` records at `pid_base + i`).
    pid_base: u64,
    /// Trace pid of the shared DRAM channel.
    dram_pid: u64,
    /// Every stage start in start order, when recording is on (`None` by
    /// default). `CycleSim` turns it on to build `CycleReport::timeline`.
    pub(crate) timeline: Option<Vec<TimelineEntry>>,
}

impl MultiPipelineSim {
    /// Creates `instances` pipelines at `cfg`, all sharing one DRAM channel
    /// with `instances × 4` arbitration ports.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero or does not fit in `u32`.
    pub fn new(cfg: &HwConfig, instances: usize, params: SimParams) -> Self {
        assert!(instances > 0, "need at least one instance");
        u32::try_from(instances).expect("instance count must fit in u32");
        let bytes_per_cycle = cfg.dram_bandwidth_bps / cfg.freq_hz;
        MultiPipelineSim {
            instances: (0..instances).map(|_| Instance::new()).collect(),
            queue: EventQueue::new(),
            dram: DramChannel::with_timing(
                instances * STAGES,
                bytes_per_cycle,
                params.burst_latency,
                params.dram_age_threshold,
                params.dram_command_cycles,
            ),
            end_time: 0,
            requests_completed: vec![0; instances],
            obs: TraceRecorder::disabled(),
            pid_base: 0,
            dram_pid: PID_SHARED_DRAM,
            timeline: None,
        }
    }

    /// Switches the simulation's trace sink on: per-instance stage
    /// busy/stall spans and bank-occupancy counters (process id = instance
    /// index) plus the shared channel's queue-depth counter (process
    /// [`PID_SHARED_DRAM`]), all in simulated cycles. Call before the first
    /// submission; collect with [`MultiPipelineSim::take_trace`].
    pub fn enable_tracing(&mut self) {
        self.enable_tracing_with_pids(0, PID_SHARED_DRAM, "");
    }

    /// [`MultiPipelineSim::enable_tracing`] with an explicit track layout:
    /// instance `i` records at pid `pid_base + i`, the shared channel at
    /// `dram_pid`, and `label` prefixes the process names. The fleet
    /// simulator gives each node a disjoint pid window
    /// ([`crate::tracks::node_pid_base`]) so node traces merge without
    /// collisions.
    pub fn enable_tracing_with_pids(&mut self, pid_base: u64, dram_pid: u64, label: &str) {
        self.pid_base = pid_base;
        self.dram_pid = dram_pid;
        self.obs = TraceRecorder::enabled();
        self.obs
            .process_name(dram_pid, &format!("{label}dram-channel"));
        self.obs.thread_name(dram_pid, 0, "dram.queue_depth");
        for i in 0..self.instances.len() {
            announce_pipeline(
                &mut self.obs,
                pid_base + i as u64,
                &format!("{label}inst{i}"),
            );
        }
    }

    /// Takes the recorded trace, leaving a disabled recorder behind.
    pub fn take_trace(&mut self) -> TraceRecorder {
        std::mem::replace(&mut self.obs, TraceRecorder::disabled())
    }

    /// Samples the shared-channel queue-depth counter track. Callers check
    /// that tracing is on, so an untraced run makes no call per event.
    #[cold]
    fn sample_dram(&mut self, now: u64) {
        self.obs.counter(
            self.dram_pid,
            0,
            "dram.queue_depth",
            now,
            &[("requests", self.dram.queued_requests() as f64)],
        );
    }

    /// Samples instance `inst`'s ping-pong occupancy counter at boundary
    /// `b`. Callers check that tracing is on, like [`Self::sample_dram`].
    #[cold]
    fn sample_bank(&mut self, inst: usize, b: usize, now: u64) {
        self.obs.counter(
            self.pid_base + inst as u64,
            TID_BANK_BASE + b as u64,
            &bank_track(b),
            now,
            &[(
                "occupied",
                self.instances[inst].buffers[b].occupancy() as f64,
            )],
        );
    }

    /// Number of pipeline instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Tiles instance `inst` has accepted but not yet pushed through the
    /// formal stage — the scheduler's backlog signal.
    pub fn pending_tiles(&self, inst: usize) -> usize {
        self.instances[inst].stream_len() - self.instances[inst].next_tile[STAGES - 1]
    }

    /// Appends `job`'s tiles to instance `inst`'s stream at time `now` on
    /// behalf of request `request`. Tiles of earlier submissions still in
    /// flight keep the pipeline full; the new tiles enter right behind them.
    ///
    /// # Panics
    ///
    /// Panics if `inst` does not exist or `job` has no tiles.
    pub fn submit(&mut self, inst: usize, request: u64, job: &PipelineJob, now: u64) {
        assert!(inst < self.instances.len(), "no such instance");
        assert!(!job.work.is_empty(), "cannot submit an empty job");
        let stage_was_drained: [bool; STAGES] = {
            let ins = &self.instances[inst];
            std::array::from_fn(|s| !ins.busy[s] && ins.next_tile[s] == ins.stream_len())
        };
        let n = job.work.len();
        let ins = &mut self.instances[inst];
        let rows = job.work.iter().zip(&job.cycles).enumerate();
        ins.tiles.extend(rows.map(|(i, (work, &cycles))| Row {
            slot: TileSlot::new(request, i + 1 == n, work, cycles),
            read_done: std::array::from_fn(|s| if s == 1 { now } else { NOT_ARRIVED }),
        }));
        // A stage that had drained its stream was idle for lack of work, not
        // stalled on a resource — restart its idle clock at the submission.
        for (s, drained) in stage_was_drained.iter().enumerate() {
            if *drained {
                ins.idle_since[s] = now;
            }
        }
        self.pump_prefetch(inst, now);
        self.try_start_all(inst, now);
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Processes the earliest pending event. Returns `None` when the
    /// simulation is drained (no events left).
    pub fn step(&mut self) -> Option<Step> {
        let (now, ev) = self.queue.pop()?;
        self.end_time = self.end_time.max(now);
        let completed = match ev {
            MultiEvent::StageDone {
                instance,
                stage,
                tile,
            } => self.on_stage_done(instance as usize, usize::from(stage), tile, now),
            MultiEvent::DramFree => {
                self.dram.release();
                self.pump_dram(now);
                None
            }
            MultiEvent::DramDone {
                instance,
                stage,
                tile,
            } => {
                let (instance, stage) = (instance as usize, usize::from(stage));
                self.instances[instance].row(tile).read_done[stage] = now;
                // Operand arrival only relaxes the receiving stage's read
                // constraint — the other stages cannot newly start.
                self.try_start(instance, stage, now);
                None
            }
        };
        Some(Step {
            time: now,
            completed,
        })
    }

    /// Drains all pending events, returning every completion in time order.
    pub fn run_to_idle(&mut self) -> Vec<(u64, Completion)> {
        let mut done = Vec::new();
        while let Some(step) = self.step() {
            if let Some(c) = step.completed {
                done.push((step.time, c));
            }
        }
        done
    }

    /// Snapshot of the run's accounting.
    pub fn report(&self) -> MultiReport {
        MultiReport {
            total_cycles: self.end_time,
            instances: self
                .instances
                .iter()
                .zip(self.requests_completed.iter())
                .map(|(ins, &reqs)| InstanceActivity {
                    stages: ins.acts,
                    tiles: ins.acts[STAGES - 1].tiles,
                    requests: reqs,
                    buffer_occupancy: std::array::from_fn(|i| {
                        ins.buffers[i].average_occupancy(self.end_time)
                    }),
                })
                .collect(),
            dram: DramActivity {
                bytes_read: self.dram.bytes_read(),
                bytes_written: self.dram.bytes_written(),
                busy_cycles: self.dram.busy_cycles(),
            },
            dram_aged_issues: self.dram.aged_issues(),
            dram_mean_queue_wait: self.dram.mean_queue_wait(),
        }
    }

    /// Keeps instance `inst`'s key-stream prefetcher
    /// [`SimParams::PREFETCH_DEPTH`] tiles ahead of its prediction stage.
    fn pump_prefetch(&mut self, inst: usize, now: u64) {
        let window = self.instances[inst].next_tile[0] + SimParams::PREFETCH_DEPTH;
        while self.instances[inst].pred_issued < self.instances[inst].stream_len().min(window) {
            let tile = self.instances[inst].pred_issued;
            self.instances[inst].pred_issued += 1;
            self.issue_read(inst, 0, tile, now);
        }
    }

    fn issue_read(&mut self, inst: usize, stage: usize, tile: usize, now: u64) {
        let row = self.instances[inst].row(tile);
        let bytes = row.slot.read_bytes[stage];
        if bytes == 0 {
            row.read_done[stage] = now;
            return;
        }
        self.dram.enqueue(
            DramRequest {
                port: inst * STAGES + stage,
                stage,
                tile,
                bytes,
                write: false,
            },
            now,
        );
        self.pump_dram(now);
    }

    fn pump_dram(&mut self, now: u64) {
        if let Some(issued) = self.dram.try_issue(now) {
            self.queue.push(issued.free_at, MultiEvent::DramFree);
            let req = issued.request;
            if req.write {
                // Nothing waits on a writeback's arrival: it only bounds
                // the run's end.
                self.end_time = self.end_time.max(issued.done_at);
            } else {
                self.queue.push(
                    issued.done_at,
                    MultiEvent::DramDone {
                        instance: (req.port / STAGES) as u32,
                        stage: req.stage as u8,
                        tile: req.tile,
                    },
                );
            }
        }
        if self.obs.is_enabled() {
            self.sample_dram(now);
        }
    }

    fn on_stage_done(
        &mut self,
        inst: usize,
        stage: usize,
        tile: usize,
        now: u64,
    ) -> Option<Completion> {
        let mut completed = None;
        {
            let ins = &mut self.instances[inst];
            ins.busy[stage] = false;
            ins.idle_since[stage] = now;
            if stage > 0 {
                ins.buffers[stage - 1].release(tile, now);
            }
            if stage < STAGES - 1 {
                ins.buffers[stage].mark_ready(tile, now);
            }
        }
        if stage > 0 && self.obs.is_enabled() {
            self.sample_bank(inst, stage - 1, now);
        }
        match stage {
            0 => self.pump_prefetch(inst, now),
            // The sorted selection exists: the tile's KV fetch can go out.
            1 => self.issue_read(inst, 2, tile, now),
            // Without RASS, the formal stage refetches shared vectors.
            2 => self.issue_read(inst, 3, tile, now),
            3 => {
                let slot = self.instances[inst].retire(tile);
                if slot.write_bytes > 0 {
                    self.dram.enqueue(
                        DramRequest {
                            port: inst * STAGES + 3,
                            stage: 3,
                            tile,
                            bytes: slot.write_bytes,
                            write: true,
                        },
                        now,
                    );
                    self.pump_dram(now);
                }
                if slot.last {
                    self.requests_completed[inst] += 1;
                    completed = Some(Completion {
                        instance: inst,
                        request: slot.request,
                    });
                }
            }
            _ => unreachable!(),
        }
        // A StageDone only relaxes constraints of its neighbourhood: the
        // stage itself went idle, the upstream stage's output bank gained a
        // free slot, the downstream stage's input bank gained a ready tile
        // (and a zero-byte operand fetch issued above resolves downstream
        // immediately). Stages further away cannot newly start, and the
        // starts are mutually independent, so skipping them is
        // behaviour-identical to the full scan.
        for s in stage.saturating_sub(1)..=(stage + 1).min(STAGES - 1) {
            self.try_start(inst, s, now);
        }
        completed
    }

    fn try_start_all(&mut self, inst: usize, now: u64) {
        for s in 0..STAGES {
            self.try_start(inst, s, now);
        }
    }

    fn try_start(&mut self, inst: usize, stage: usize, now: u64) {
        let ins = &mut self.instances[inst];
        if ins.busy[stage] {
            return;
        }
        let tile = ins.next_tile[stage];
        if tile >= ins.stream_len() {
            return;
        }
        // Input bank ready? (The prediction stage reads the raw key stream.)
        let input_at = if stage == 0 {
            0
        } else {
            match ins.buffers[stage - 1].ready_time(tile) {
                Some(t) => t,
                None => return,
            }
        };
        // Operand data arrived from DRAM?
        let row = ins.row(tile);
        let (read_at, dur, request) = (
            row.read_done[stage],
            row.slot.cycles[stage],
            row.slot.request,
        );
        if read_at == NOT_ARRIVED {
            return;
        }
        // Downstream bank free to fill?
        let out_at = if stage == STAGES - 1 {
            0
        } else {
            if !ins.buffers[stage].has_free_slot() {
                return;
            }
            ins.buffers[stage].last_release_time()
        };

        // Attribute the idle gap to the constraint that resolved last.
        let idle_since = ins.idle_since[stage];
        let waited = now - idle_since;
        let mut stall_name = "";
        if waited > 0 {
            if read_at >= input_at && read_at >= out_at {
                ins.acts[stage].stall_dram += waited;
                stall_name = "stall:dram";
            } else if input_at >= out_at {
                ins.acts[stage].stall_input += waited;
                stall_name = "stall:input";
            } else {
                ins.acts[stage].stall_output += waited;
                stall_name = "stall:output";
            }
        }

        let end = now + dur;
        ins.busy[stage] = true;
        ins.next_tile[stage] = tile + 1;
        ins.acts[stage].busy += dur;
        ins.acts[stage].tiles += 1;
        if stage < STAGES - 1 {
            ins.buffers[stage].reserve(tile, now);
            if self.obs.is_enabled() {
                self.sample_bank(inst, stage, now);
            }
        }
        if self.obs.is_enabled() {
            if waited > 0 {
                self.obs.complete(
                    self.pid_base + inst as u64,
                    stage as u64,
                    stall_name,
                    idle_since,
                    waited,
                    &[],
                );
            }
            self.obs.complete(
                self.pid_base + inst as u64,
                stage as u64,
                &format!("req{request}:tile{tile}"),
                now,
                dur,
                &[
                    ("request", ArgValue::U64(request)),
                    ("tile", ArgValue::U64(tile as u64)),
                ],
            );
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.push(TimelineEntry {
                stage,
                tile,
                start: now,
                end,
            });
        }
        self.queue.push(
            end,
            MultiEvent::StageDone {
                instance: inst as u32,
                stage: stage as u8,
                tile,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CycleSim;
    use sofa_hw::accel::AttentionTask;

    fn small_task() -> AttentionTask {
        AttentionTask::new(16, 512, 256, 4, 0.25, 32)
    }

    fn small_job(sim: &CycleSim) -> PipelineJob {
        sim.job(&small_task(), None)
    }

    #[test]
    fn one_instance_matches_the_single_pipeline_engine() {
        // CycleSim is one instance with one job submitted at time zero; its
        // report must carry the multi simulator's accounting unchanged.
        let sim = CycleSim::new(HwConfig::small());
        let single = sim.run(&small_task());
        let mut multi = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        multi.submit(0, 7, &small_job(&sim), 0);
        let done = multi.run_to_idle();
        let report = multi.report();
        assert_eq!(report.total_cycles, single.total_cycles);
        assert_eq!(report.instances[0].stages, single.stages);
        assert_eq!(report.dram.bytes_read, single.dram.bytes_read);
        assert_eq!(report.dram.bytes_written, single.dram.bytes_written);
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1,
            Completion {
                instance: 0,
                request: 7
            }
        );
    }

    #[test]
    fn back_to_back_jobs_pipeline_on_one_instance() {
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let single_cycles = sim.run(&small_task()).total_cycles;

        let mut multi = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        multi.submit(0, 0, &job, 0);
        multi.submit(0, 1, &job, 0);
        let done = multi.run_to_idle();
        assert_eq!(done.len(), 2);
        assert!(done[0].0 <= done[1].0);
        let report = multi.report();
        assert!(
            report.total_cycles < 2 * single_cycles,
            "consecutive requests must overlap in the pipeline: {} vs 2x{}",
            report.total_cycles,
            single_cycles
        );
        assert_eq!(report.instances[0].requests, 2);
        assert_eq!(
            report.dram.bytes_read,
            2 * {
                let j = &job;
                j.total_dram_bytes() - j.work.iter().map(|w| w.write_bytes).sum::<u64>()
            }
        );
    }

    #[test]
    fn shared_channel_slows_concurrent_instances() {
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let mut one = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        one.submit(0, 0, &job, 0);
        one.run_to_idle();
        let alone = one.report().total_cycles;

        let mut two = MultiPipelineSim::new(sim.accel.config(), 2, sim.params);
        two.submit(0, 0, &job, 0);
        two.submit(1, 1, &job, 0);
        let done = two.run_to_idle();
        let report = two.report();
        assert_eq!(done.len(), 2);
        assert!(
            report.total_cycles >= alone,
            "sharing one channel cannot beat running alone"
        );
        // Conservation: the shared channel moved both requests' bytes.
        assert_eq!(report.dram.total_bytes(), 2 * job.total_dram_bytes());
        assert_eq!(report.instances[0].requests, 1);
        assert_eq!(report.instances[1].requests, 1);
    }

    #[test]
    fn late_submission_does_not_count_arrival_gap_as_stall() {
        // Running the same job a second time after a long idle gap must add
        // the same stalls the first run had (pipeline fill etc.) — the gap
        // itself is idle-for-lack-of-work, not a stall.
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let mut multi = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        multi.submit(0, 0, &job, 0);
        multi.run_to_idle();
        let first: u64 = multi.report().instances[0]
            .stages
            .iter()
            .map(|s| s.total_stall())
            .sum();
        let first_end = multi.report().total_cycles;
        let gap = 1_000_000;
        multi.submit(0, 1, &job, first_end + gap);
        multi.run_to_idle();
        let total: u64 = multi.report().instances[0]
            .stages
            .iter()
            .map(|s| s.total_stall())
            .sum();
        let second = total - first;
        assert!(
            second <= first + 8,
            "second run booked {second} stall cycles vs {first} for an \
             identical first run — the {gap}-cycle arrival gap leaked in"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let run = || {
            let mut m = MultiPipelineSim::new(sim.accel.config(), 3, sim.params);
            for i in 0..6u64 {
                m.submit((i % 3) as usize, i, &job, i * 100);
            }
            let done = m.run_to_idle();
            (done, m.report())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aging_kicks_in_under_contention() {
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let mut params = sim.params;
        params.dram_age_threshold = 1;
        let mut m = MultiPipelineSim::new(sim.accel.config(), 4, params);
        for i in 0..4u64 {
            m.submit(i as usize, i, &job, 0);
        }
        m.run_to_idle();
        let report = m.report();
        assert!(
            report.dram_aged_issues > 0,
            "four instances over one channel must age requests at threshold 1"
        );
        assert!(report.dram_mean_queue_wait > 0.0);
    }

    #[test]
    fn tracing_does_not_perturb_the_run_and_validates() {
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let run = |traced: bool| {
            let mut m = MultiPipelineSim::new(sim.accel.config(), 2, sim.params);
            if traced {
                m.enable_tracing();
            }
            m.submit(0, 0, &job, 0);
            m.submit(1, 1, &job, 50);
            let done = m.run_to_idle();
            let trace = m.take_trace();
            (done, m.report(), trace)
        };
        let (done_off, report_off, trace_off) = run(false);
        let (done_on, report_on, trace_on) = run(true);
        assert_eq!(done_off, done_on);
        assert_eq!(report_off, report_on);
        assert!(trace_off.is_empty());
        let stats =
            sofa_obs::validate_chrome_trace(&trace_on.to_chrome_json()).expect("valid trace");
        assert!(stats.spans > 0);
        assert!(stats.tracks >= 2, "both instances must own tracks");
        // Repeat runs export byte-identical traces.
        let again = run(true).2;
        assert_eq!(trace_on.to_chrome_json(), again.to_chrome_json());
    }

    #[test]
    fn event_core_records_stay_slim() {
        use crate::event::Scheduled;
        use std::mem::size_of;
        fn row_size<T>(_: &VecDeque<T>) -> usize {
            size_of::<T>()
        }
        assert_eq!(size_of::<MultiEvent>(), 16);
        assert_eq!(size_of::<Scheduled<MultiEvent>>(), 24);
        assert_eq!(size_of::<TileSlot>(), 88);
        assert!(size_of::<TileSlot>() < size_of::<TileWork>());
        // A ring row: the 88-byte slot plus 32 bytes of operand stamps.
        assert_eq!(row_size(&Instance::new().tiles), 120);
    }

    #[test]
    fn tile_ring_holds_only_the_in_flight_window() {
        // Ten thousand requests stream through one instance, each submitted
        // while fewer than `window` tiles wait for the formal stage: the
        // ring never holds more than the admitted-but-unretired tiles.
        let sim = CycleSim::new(HwConfig::small());
        let job = sim.job(&AttentionTask::new(16, 64, 256, 4, 0.25, 32), None);
        let window = 4 * job.work.len();
        let mut m = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        let (requests, mut submitted, mut done, mut now) = (10_000u64, 0, 0, 0);
        let mut peak = 0;
        while done < requests {
            while submitted < requests && m.pending_tiles(0) < window {
                m.submit(0, submitted, &job, now);
                submitted += 1;
            }
            peak = peak.max(m.instances[0].tiles.capacity());
            let step = m.step().expect("submitted work is pending");
            now = step.time;
            done += u64::from(step.completed.is_some());
        }
        assert_eq!(m.instances[0].base, 10_000 * job.work.len());
        assert!(m.instances[0].tiles.is_empty());
        assert!(
            peak <= 4 * window,
            "ring grew to {peak} tiles for a {window}-tile window"
        );
    }

    #[test]
    fn event_count_and_report_are_pinned() {
        // A fixed 8-instance node at the serving timing (calibrated command
        // cycles, aging at 4× the burst latency), two staggered requests per
        // instance. Events and accounting are deterministic, so any change
        // to the events per request or to the timing fails here on any host.
        let sim = CycleSim::new(HwConfig::small());
        let job = small_job(&sim);
        let mut params = sim.params;
        params.dram_age_threshold = 4 * params.burst_latency;
        let params = params.with_dram_command_calibration(sim.accel.config());
        let mut m = MultiPipelineSim::new(sim.accel.config(), 8, params);
        let mut steps = 0u64;
        for r in 0..16u64 {
            let arrival = r * 500;
            while m.next_event_time().is_some_and(|t| t <= arrival) {
                m.step();
                steps += 1;
            }
            m.submit((r % 8) as usize, r, &job, arrival);
        }
        while m.step().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 2064, "events for 16 requests");
        let report = m.report();
        assert_eq!(report.total_cycles, 179_126);
        assert_eq!(
            report.dram,
            DramActivity {
                bytes_read: 9_486_336,
                bytes_written: 131_072,
                busy_cycles: 177_872,
            }
        );
        assert_eq!(report.dram_aged_issues, 519);
        assert_eq!(report.dram_mean_queue_wait, 8998.515151515152);
        let stalls: Vec<u64> = report
            .instances
            .iter()
            .map(|i| i.stages.iter().map(|s| s.total_stall()).sum())
            .collect();
        assert_eq!(
            stalls,
            [576_105, 582_041, 590_465, 603_831, 606_977, 612_848, 617_119, 621_703]
        );
        for ins in &report.instances {
            let busy: u64 = ins.stages.iter().map(|s| s.busy).sum();
            assert_eq!((ins.requests, busy), (2, 66_144));
        }
        assert_eq!(
            report.instances[0].buffer_occupancy,
            [0.1848977814499291, 1.7200629724328127, 0.18436184585152351]
        );
    }

    #[test]
    #[should_panic(expected = "empty job")]
    fn empty_job_panics() {
        let sim = CycleSim::new(HwConfig::small());
        let mut m = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        m.submit(
            0,
            0,
            &PipelineJob {
                work: vec![],
                cycles: vec![],
            },
            0,
        );
    }
}
