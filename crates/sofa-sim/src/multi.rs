//! Multi-instance cycle-level simulation: several SOFA pipelines sharing one
//! DRAM channel.
//!
//! [`MultiPipelineSim`] steps `N` independent four-stage pipeline instances —
//! each with its own double-buffered stage boundaries — whose tile streams
//! all contend for a single `DramChannel`. Each instance carries a
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
//! Stage starts are **readiness-driven**. A stage starts its next tile once
//! five constraints hold: the stage is idle, the tile has been submitted,
//! its input bank is ready, its DRAM operand has arrived and its output
//! bank has a free slot. Each instance keeps, per stage, the set of those
//! constraints still open for the stage's next tile (`Instance::open`).
//! An event clears exactly the constraints it resolves, and a stage is
//! woken — its start path entered — only when an event empties its set:
//!
//! * `DramDone(s, t)` resolves stage `s`'s operand if `t` is its next tile;
//! * `StageDone(s, t)` frees stage `s`, frees a slot in stage `s − 1`'s
//!   output bank, readies stage `s + 1`'s input if `t` is its next tile,
//!   and, through a zero-byte operand fetch, may resolve stage `s + 1`'s
//!   operand;
//! * a submission gives work to the stages that had run out of it.
//!
//! A start opens the constraints of the stage's following tile. The bank
//! state is the stage counters: a boundary's banks hold the tiles its
//! producer started and its consumer has not finished, so an instance keeps
//! per boundary only what the counters cannot give — the ready stamps of
//! the banked tiles, the last release and the occupancy integral. The
//! stages an event wakes are woken in ascending stage order. Every start
//! pushes a `StageDone`, and equal-time events pop in push order, so this
//! order is part of the output.
//!
//! Every stage start is therefore a wake-up, and no stage is polled in
//! vain; [`MultiPipelineSim::work`] counts both beside the report
//! ([`CoreWork`]). A test-only polling core — the sweep this design
//! replaced, which tried every stage an event might have freed — is the
//! differential reference, with its own ping-pong bank model.
//!
//! Determinism: the event queue breaks timestamp ties FIFO, instances are
//! scanned in index order, and the channel arbitrates deterministically —
//! two runs over the same submissions are bit-identical.

use crate::dram::{DramChannel, DramRequest};
use crate::event::EventQueue;
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
/// stamps, in one row so a start reads both from the same cache lines.
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

/// The constraints a stage's next tile must clear before the stage can
/// start it, one bit each in [`Instance::open`]: the stage is still on its
/// previous tile,
const BUSY: u8 = 1 << 0;
/// the tile has not been submitted,
const NO_WORK: u8 = 1 << 1;
/// its input bank is not ready (never set on the prediction stage),
const INPUT: u8 = 1 << 2;
/// its DRAM operand has not arrived,
const OPERAND: u8 = 1 << 3;
/// or the stage's output bank is full (never set on the formal stage).
const OUTPUT: u8 = 1 << 4;

/// Per-instance pipeline state: stream of tiles, bank stamps, stage status.
///
/// Tile indices are *stream positions* — monotonically increasing over the
/// instance's lifetime and used as identifiers in events and bank slots.
/// Storage is a ring of the in-flight tiles: a submission pushes its tiles
/// at the back, the formal stage's `StageDone` pops the tile from the front
/// ([`Instance::retire`]) and `base` counts the popped, so a stream holds
/// only its admitted-but-unretired window however many requests pass
/// through it (the fleet simulator feeds millions through one instance).
/// Retiring never changes timing — it frees only a tile no pending event or
/// bank can reference any more.
#[derive(Debug)]
struct Instance {
    /// Stream positions `base..base + tiles.len()`; index with
    /// [`Instance::row`].
    tiles: VecDeque<Row>,
    /// Stream position of `tiles[0]`: the tiles retired so far.
    base: usize,
    busy: [bool; STAGES],
    next_tile: [usize; STAGES],
    /// Per boundary `b` (stage `b` to `b + 1`), when the producer finished
    /// each banked tile, in slot `tile % BUFFER_DEPTH`: a boundary holds at
    /// most that many consecutive tiles, so no slot is overwritten unread.
    ready_at: [[u64; SimParams::BUFFER_DEPTH]; STAGES - 1],
    /// Per boundary, when the consumer last finished a tile (freeing a bank).
    released_at: [u64; STAGES - 1],
    /// Per boundary, Σ occupancy · dt less the resident tiles' share: each
    /// consumer finish adds its time, each producer start subtracts its.
    occupancy_integral: [i64; STAGES - 1],
    /// Per stage, the constraints of `next_tile` still open (see [`BUSY`]).
    /// Kept exact: every event that resolves one clears its bit, and a
    /// start recomputes the set for the stage's following tile.
    open: [u8; STAGES],
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
            busy: [false; STAGES],
            next_tile: [0; STAGES],
            ready_at: [[0; SimParams::BUFFER_DEPTH]; STAGES - 1],
            released_at: [0; STAGES - 1],
            occupancy_integral: [0; STAGES - 1],
            open: [NO_WORK; STAGES],
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

    /// Tiles `stage` has finished: started, and not still running.
    fn finished(&self, stage: usize) -> usize {
        self.next_tile[stage] - usize::from(self.busy[stage])
    }

    /// Banks occupied at boundary `b`: the tiles its producer started and
    /// its consumer has not finished.
    fn occupancy(&self, b: usize) -> usize {
        self.next_tile[b] - self.finished(b + 1)
    }

    /// Mean occupancy in banks of boundary `b` over `[0, now]`.
    fn average_occupancy(&self, b: usize, now: u64) -> f64 {
        let occupied = self.occupancy(b) as u64;
        if now == 0 {
            return occupied as f64;
        }
        (self.occupancy_integral[b] + (occupied * now) as i64) as f64 / now as f64
    }

    /// The constraints of `stage`'s next tile that are still open. The
    /// next tile's input bank is ready once the producer finished the tile
    /// (while the stage still drains the tile ahead, that bank is the second
    /// oldest; the stage's own `StageDone` makes it the oldest).
    fn open_constraints(&self, stage: usize) -> u8 {
        let tile = self.next_tile[stage];
        let mut open = 0;
        if self.busy[stage] {
            open |= BUSY;
        }
        if stage < STAGES - 1 && self.occupancy(stage) >= SimParams::BUFFER_DEPTH {
            open |= OUTPUT;
        }
        if tile >= self.stream_len() {
            return open | NO_WORK;
        }
        if stage > 0 && self.finished(stage - 1) <= tile {
            open |= INPUT;
        }
        if self.tiles[tile - self.base].read_done[stage] == NOT_ARRIVED {
            open |= OPERAND;
        }
        open
    }

    /// Clears `bit` from `stage`'s open set when `tile` is the stage's next
    /// tile (a constraint of a later tile is not open yet).
    #[inline]
    fn resolve(&mut self, stage: usize, tile: usize, bit: u8) {
        if self.next_tile[stage] == tile {
            self.open[stage] &= !bit;
        }
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

/// Host-side work of the event core, counted beside [`MultiReport`] rather
/// than in it, so the report's `Debug` rendering (and every digest built on
/// it) does not change. The counts are deterministic: equal submissions and
/// steps give equal counts on any host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreWork {
    /// Stage wake-ups: calls into the start path. A stage is woken only
    /// when an event resolved the last open constraint of its next tile.
    pub wakeups: u64,
    /// Stage starts (one `StageDone` event each).
    pub starts: u64,
    /// Attempts to issue the next DRAM request.
    pub dram_pumps: u64,
    /// DRAM requests issued.
    pub dram_issues: u64,
    /// DRAM issues decided by priority aging rather than round-robin.
    pub aged_issues: u64,
}

/// `N` pipeline instances over one shared DRAM channel.
#[derive(Debug)]
pub struct MultiPipelineSim {
    instances: Vec<Instance>,
    queue: EventQueue<MultiEvent>,
    dram: DramChannel,
    end_time: u64,
    requests_completed: Vec<usize>,
    /// DRAM bytes the appended tiles read and write: what a drained run
    /// must have moved (checked by [`Self::report`]).
    appended_bytes: (u64, u64),
    obs: TraceRecorder,
    /// Every stage start in start order, when recording is on (`None` by
    /// default). `CycleSim` turns it on to build `CycleReport::timeline`.
    pub(crate) timeline: Option<Vec<TimelineEntry>>,
    wakeups: u64,
    starts: u64,
    dram_pumps: u64,
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
            appended_bytes: (0, 0),
            obs: TraceRecorder::disabled(),
            timeline: None,
            wakeups: 0,
            starts: 0,
            dram_pumps: 0,
        }
    }

    /// Switches the simulation's trace sink on: per-instance stage
    /// busy/stall spans and bank-occupancy counters (process id = instance
    /// index) plus the shared channel's queue-depth counter (process
    /// [`PID_SHARED_DRAM`]), all in simulated cycles. Call before the first
    /// submission; collect with [`MultiPipelineSim::take_trace`].
    ///
    /// # Panics
    ///
    /// Panics if the node has more than 99 instances: instance 99 would
    /// record on the channel's pid, and later ones on the serving layer's.
    pub fn enable_tracing(&mut self) {
        let n = self.instances.len();
        assert!(
            n as u64 <= PID_SHARED_DRAM,
            "cannot trace {n} instances: instance pids must stay below the DRAM channel's {PID_SHARED_DRAM}"
        );
        self.obs = TraceRecorder::enabled();
        self.obs.process_name(PID_SHARED_DRAM, "dram-channel");
        self.obs.thread_name(PID_SHARED_DRAM, 0, "dram.queue_depth");
        for i in 0..n {
            announce_pipeline(&mut self.obs, i as u64, &format!("inst{i}"));
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
            PID_SHARED_DRAM,
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
            inst as u64,
            TID_BANK_BASE + b as u64,
            &bank_track(b),
            now,
            &[("occupied", self.instances[inst].occupancy(b) as f64)],
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
        self.append(inst, request, job, now);
        // The new tiles are the next tiles of the stages that had run out of
        // work: open their constraints, then wake every stage in order.
        let ins = &mut self.instances[inst];
        for s in 0..STAGES {
            if ins.open[s] & NO_WORK != 0 {
                ins.open[s] = ins.open_constraints(s);
            }
        }
        for s in 0..STAGES {
            self.wake(inst, s, now);
        }
    }

    /// The part of [`Self::submit`] before any stage is woken: appends the
    /// tiles, restarts the idle clocks of drained stages and issues the
    /// key-stream prefetch.
    fn append(&mut self, inst: usize, request: u64, job: &PipelineJob, now: u64) {
        assert!(inst < self.instances.len(), "no such instance");
        assert!(!job.work.is_empty(), "cannot submit an empty job");
        let ins = &mut self.instances[inst];
        // A stage that had drained its stream was idle for lack of work, not
        // stalled on a resource — restart its idle clock at the submission.
        for s in 0..STAGES {
            if !ins.busy[s] && ins.next_tile[s] == ins.stream_len() {
                ins.idle_since[s] = now;
            }
        }
        let n = job.work.len();
        let rows = job.work.iter().zip(&job.cycles).enumerate();
        ins.tiles.extend(rows.map(|(i, (work, &cycles))| Row {
            slot: TileSlot::new(request, i + 1 == n, work, cycles),
            read_done: std::array::from_fn(|s| if s == 1 { now } else { NOT_ARRIVED }),
        }));
        for row in ins.tiles.range(ins.tiles.len() - n..) {
            self.appended_bytes.0 += row.slot.read_bytes.iter().sum::<u64>();
            self.appended_bytes.1 += row.slot.write_bytes;
        }
        self.pump_prefetch(inst, now);
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
                let ins = &mut self.instances[instance];
                ins.row(tile).read_done[stage] = now;
                // Operand arrival resolves only the receiving stage's
                // constraint, and only if the tile is that stage's next.
                ins.resolve(stage, tile, OPERAND);
                self.wake(instance, stage, now);
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

    /// The event core's host-side work so far (see [`CoreWork`]).
    pub fn work(&self) -> CoreWork {
        CoreWork {
            wakeups: self.wakeups,
            starts: self.starts,
            dram_pumps: self.dram_pumps,
            dram_issues: self.dram.issues(),
            aged_issues: self.dram.aged_issues(),
        }
    }

    /// Snapshot of the run's accounting. Panics if the run is drained but
    /// the channel moved other DRAM bytes than its tiles read and write.
    pub fn report(&self) -> MultiReport {
        let dram = DramActivity {
            bytes_read: self.dram.bytes_read(),
            bytes_written: self.dram.bytes_written(),
            busy_cycles: self.dram.busy_cycles(),
        };
        if self.queue.peek_time().is_none() {
            let moved = (dram.bytes_read, dram.bytes_written);
            assert_eq!(moved, self.appended_bytes, "drained run lost DRAM bytes");
        }
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
                    buffer_occupancy: std::array::from_fn(|b| {
                        ins.average_occupancy(b, self.end_time)
                    }),
                })
                .collect(),
            dram,
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
        let ins = &mut self.instances[inst];
        let row = ins.row(tile);
        let bytes = row.slot.read_bytes[stage];
        if bytes == 0 {
            row.read_done[stage] = now;
            ins.resolve(stage, tile, OPERAND);
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

    /// Issues the next DRAM request if the channel is free and schedules
    /// its events. Always inlined: about half the pumps find the channel
    /// busy, and inlined they cost a branch rather than a call.
    #[inline(always)]
    fn pump_dram(&mut self, now: u64) {
        self.dram_pumps += 1;
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
            ins.open[stage] &= !BUSY;
            ins.idle_since[stage] = now;
            if stage > 0 {
                // The tile's input bank is freed: the upstream stage's
                // output bank has a free slot again.
                ins.released_at[stage - 1] = now;
                ins.occupancy_integral[stage - 1] += now as i64;
                ins.open[stage - 1] &= !OUTPUT;
            }
            if stage < STAGES - 1 {
                ins.ready_at[stage][tile % SimParams::BUFFER_DEPTH] = now;
                ins.resolve(stage + 1, tile, INPUT);
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
        // A StageDone resolves constraints only in its neighbourhood: the
        // upstream stage's full output bank, the stage's own busy bit, the
        // downstream stage's input bank and, through a zero-byte fetch
        // issued above, its operand. Wake them in stage order: each start
        // pushes a `StageDone`, and equal-time events pop in push order.
        if stage > 0 {
            self.wake(inst, stage - 1, now);
        }
        self.wake(inst, stage, now);
        if stage < STAGES - 1 {
            self.wake(inst, stage + 1, now);
        }
        completed
    }

    /// Starts `stage` of `inst` if its open set is empty: the event just
    /// handled resolved the last constraint of the stage's next tile. The
    /// open sets are exact, so an empty set means the tile can start and a
    /// non-empty one that it cannot.
    #[inline]
    fn wake(&mut self, inst: usize, stage: usize, now: u64) {
        if self.instances[inst].open[stage] == 0 {
            self.wakeups += 1;
            self.start(inst, stage, now);
        }
    }

    /// Starts `stage` of `inst` on its next tile, whose constraints have all
    /// resolved, and opens the constraints of the tile after it.
    #[inline(never)]
    fn start(&mut self, inst: usize, stage: usize, now: u64) {
        let ins = &mut self.instances[inst];
        let tile = ins.next_tile[stage];
        // Stall stamps: the input bank's ready time (0 at the prediction stage,
        // which reads the raw key stream), the operand's arrival and the output
        // bank's last release (0 at the formal stage, which has no output bank).
        let input_at = stage
            .checked_sub(1)
            .map_or(0, |b| ins.ready_at[b][tile % SimParams::BUFFER_DEPTH]);
        let row = ins.row(tile);
        let (read_at, dur, request) = (
            row.read_done[stage],
            row.slot.cycles[stage],
            row.slot.request,
        );
        let out_at = ins.released_at.get(stage).copied().unwrap_or(0);

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
            ins.occupancy_integral[stage] -= now as i64;
        }
        ins.open[stage] = ins.open_constraints(stage);
        self.starts += 1;
        if stage < STAGES - 1 && self.obs.is_enabled() {
            self.sample_bank(inst, stage, now);
        }
        if self.obs.is_enabled() {
            if waited > 0 {
                self.obs.complete(
                    inst as u64,
                    stage as u64,
                    stall_name,
                    idle_since,
                    waited,
                    &[],
                );
            }
            self.obs.complete(
                inst as u64,
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
    use pingpong::PingPongBuffer;
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
    #[should_panic(expected = "cannot trace 100 instances")]
    fn tracing_more_instances_than_pids_below_the_channel_panics() {
        // Instance 99 would record on the DRAM channel's pid, and 100 and
        // 101 on the serving layer's request and scheduler pids.
        MultiPipelineSim::new(&HwConfig::small(), 100, SimParams::default()).enable_tracing();
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

    impl MultiPipelineSim {
        /// Asserts the readiness invariant between events: every stage's
        /// open set equals the one read afresh from the pipeline state, and
        /// no stage is left startable (an empty set would have started it).
        fn assert_settled(&self) {
            for (i, ins) in self.instances.iter().enumerate() {
                for s in 0..STAGES {
                    assert_eq!(
                        ins.open[s],
                        ins.open_constraints(s),
                        "instance {i} stage {s}"
                    );
                    assert_ne!(ins.open[s], 0, "instance {i} stage {s} left startable");
                }
            }
        }

        /// Asserts that every boundary's counter-derived bank state equals
        /// the polling core's bank model: the occupancy, the ready stamp of
        /// the consumer's next tile (and whether it is ready at all) and
        /// the last release.
        fn assert_banks_match(&self, polling: &PollingCore) {
            for (i, (ins, banks)) in self.instances.iter().zip(&polling.banks).enumerate() {
                for (b, bank) in banks.iter().enumerate() {
                    let tile = ins.next_tile[b + 1];
                    let ready = (ins.finished(b) > tile)
                        .then(|| ins.ready_at[b][tile % SimParams::BUFFER_DEPTH]);
                    let counters = (ins.occupancy(b), ready, ins.released_at[b]);
                    let model = (
                        bank.occupancy(),
                        bank.ready_at(tile),
                        bank.last_release_time(),
                    );
                    assert_eq!(counters, model, "instance {i} boundary {b}");
                }
            }
        }
    }

    /// The event core before readiness-driven starts, kept as the
    /// differential reference: every event polls the stages it might have
    /// freed (`try_start` on `s − 1`, `s` and `s + 1` after a `StageDone`,
    /// on the receiving stage after a `DramDone`, on all four after a
    /// submission) and `try_start` checks every constraint itself, the
    /// bank constraints and stall stamps on its own [`PingPongBuffer`]
    /// banks. It drives the state of an inner [`MultiPipelineSim`] (whose
    /// open sets and bank stamps it never reads), shares its tile appends,
    /// DRAM pumping and operand fetches, and always records the timeline.
    /// Untraced.
    struct PollingCore {
        sim: MultiPipelineSim,
        /// Per instance, the banks of the three stage boundaries.
        banks: Vec<[PingPongBuffer; STAGES - 1]>,
    }

    impl PollingCore {
        fn new(cfg: &HwConfig, instances: usize, params: SimParams) -> Self {
            let mut sim = MultiPipelineSim::new(cfg, instances, params);
            sim.timeline = Some(Vec::new());
            let banks = (0..instances)
                .map(|_| std::array::from_fn(|_| PingPongBuffer::new(SimParams::BUFFER_DEPTH)))
                .collect();
            PollingCore { sim, banks }
        }

        /// The inner sim's report with the bank occupancies of the model.
        fn report(&self) -> MultiReport {
            let mut report = self.sim.report();
            for (activity, banks) in report.instances.iter_mut().zip(&self.banks) {
                activity.buffer_occupancy =
                    std::array::from_fn(|b| banks[b].average_occupancy(report.total_cycles));
            }
            report
        }

        fn submit(&mut self, inst: usize, request: u64, job: &PipelineJob, now: u64) {
            self.sim.append(inst, request, job, now);
            for s in 0..STAGES {
                self.try_start(inst, s, now);
            }
        }

        fn step(&mut self) -> Option<Step> {
            let (now, ev) = self.sim.queue.pop()?;
            self.sim.end_time = self.sim.end_time.max(now);
            let mut completed = None;
            match ev {
                MultiEvent::StageDone {
                    instance,
                    stage,
                    tile,
                } => {
                    completed = self.on_stage_done(instance as usize, usize::from(stage), tile, now)
                }
                MultiEvent::DramFree => {
                    self.sim.dram.release();
                    self.sim.pump_dram(now);
                }
                MultiEvent::DramDone {
                    instance,
                    stage,
                    tile,
                } => {
                    let (instance, stage) = (instance as usize, usize::from(stage));
                    self.sim.instances[instance].row(tile).read_done[stage] = now;
                    self.try_start(instance, stage, now);
                }
            }
            Some(Step {
                time: now,
                completed,
            })
        }

        fn on_stage_done(
            &mut self,
            inst: usize,
            stage: usize,
            tile: usize,
            now: u64,
        ) -> Option<Completion> {
            let ins = &mut self.sim.instances[inst];
            ins.busy[stage] = false;
            ins.idle_since[stage] = now;
            let banks = &mut self.banks[inst];
            if stage > 0 {
                banks[stage - 1].release(tile, now);
            }
            if stage < STAGES - 1 {
                banks[stage].mark_ready(tile, now);
            }
            let mut completed = None;
            match stage {
                0 => self.sim.pump_prefetch(inst, now),
                1 | 2 => self.sim.issue_read(inst, stage + 1, tile, now),
                _ => {
                    let slot = self.sim.instances[inst].retire(tile);
                    if slot.write_bytes > 0 {
                        let write = DramRequest {
                            port: inst * STAGES + 3,
                            stage: 3,
                            tile,
                            bytes: slot.write_bytes,
                            write: true,
                        };
                        self.sim.dram.enqueue(write, now);
                        self.sim.pump_dram(now);
                    }
                    if slot.last {
                        self.sim.requests_completed[inst] += 1;
                        completed = Some(Completion {
                            instance: inst,
                            request: slot.request,
                        });
                    }
                }
            }
            for s in stage.saturating_sub(1)..=(stage + 1).min(STAGES - 1) {
                self.try_start(inst, s, now);
            }
            completed
        }

        fn try_start(&mut self, inst: usize, stage: usize, now: u64) {
            let ins = &mut self.sim.instances[inst];
            let banks = &mut self.banks[inst];
            if ins.busy[stage] {
                return;
            }
            let tile = ins.next_tile[stage];
            if tile >= ins.stream_len() {
                return;
            }
            let input_at = if stage == 0 {
                0
            } else {
                match banks[stage - 1].ready_time(tile) {
                    Some(t) => t,
                    None => return,
                }
            };
            let row = ins.row(tile);
            let (read_at, dur) = (row.read_done[stage], row.slot.cycles[stage]);
            if read_at == NOT_ARRIVED {
                return;
            }
            let out_at = if stage == STAGES - 1 {
                0
            } else {
                if !banks[stage].has_free_slot() {
                    return;
                }
                banks[stage].last_release_time()
            };
            let waited = now - ins.idle_since[stage];
            if waited > 0 {
                if read_at >= input_at && read_at >= out_at {
                    ins.acts[stage].stall_dram += waited;
                } else if input_at >= out_at {
                    ins.acts[stage].stall_input += waited;
                } else {
                    ins.acts[stage].stall_output += waited;
                }
            }
            ins.busy[stage] = true;
            ins.next_tile[stage] = tile + 1;
            ins.acts[stage].busy += dur;
            ins.acts[stage].tiles += 1;
            if stage < STAGES - 1 {
                banks[stage].reserve(tile, now);
            }
            self.sim.starts += 1;
            let end = now + dur;
            let timeline = self.sim.timeline.as_mut().expect("the reference records");
            timeline.push(TimelineEntry {
                stage,
                tile,
                start: now,
                end,
            });
            self.sim.queue.push(
                end,
                MultiEvent::StageDone {
                    instance: inst as u32,
                    stage: stage as u8,
                    tile,
                },
            );
        }
    }

    /// A job of `tiles` tiles cut from `base` (cycling through its tiles),
    /// with each tile's DRAM bytes and stage cycles redrawn from `bits`:
    /// zero and nonzero reads on every fetching stage, the formal-stage
    /// refetch of a job without RASS, writebacks on any tile.
    fn redrawn_job(base: &PipelineJob, tiles: usize, mut bits: u64) -> PipelineJob {
        let mut draw = |n: u64| {
            bits = bits
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (bits >> 33) % n
        };
        let (mut work, mut cycles) = (Vec::new(), Vec::new());
        for i in 0..tiles {
            let mut w = base.work[i % base.work.len()];
            w.pred_read_bytes = [0, w.pred_read_bytes, 64, 20_000][draw(4) as usize];
            w.kv_read_bytes = [0, w.kv_read_bytes, 512][draw(3) as usize];
            w.extra_formal_read_bytes = [0, 0, 4096, 100][draw(4) as usize];
            w.write_bytes = [0, 0, 0, 2048][draw(4) as usize];
            work.push(w);
            cycles.push(std::array::from_fn(|s| {
                [1, 7, 64, 300, base.cycles[i % base.cycles.len()][s]][draw(5) as usize]
            }));
        }
        PipelineJob { work, cycles }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random submission streams on 1–8 instances, with same-cycle
        /// arrivals, short and idle gaps, submissions before and after the
        /// events of their own cycle, redrawn zero and nonzero reads and
        /// stage times, aging off, on every cycle and at the serving
        /// threshold, and zero or calibrated command cycles: the
        /// readiness-driven core steps, completes, reports and starts
        /// exactly like the polling core; after every event and submission
        /// no stage is left startable, and every boundary's counter-derived
        /// bank state equals the polling core's bank model.
        #[test]
        fn readiness_core_matches_the_polling_core(
            shape in (1usize..9, 0usize..3, 0usize..3, 0usize..2),
            subs in proptest::collection::vec((0usize..8, 0usize..5, 1usize..7, 0u64..u64::MAX), 1..40),
        ) {
            let (instances, aging, latency, command) = shape;
            let sim = CycleSim::new(HwConfig::small());
            let mut params = sim.params;
            params.burst_latency = [0, 1, 64][latency];
            params.dram_age_threshold = [u64::MAX, 1, 4 * 64][aging];
            params.dram_command_cycles = [0, 32][command];
            let base = sim.job(&AttentionTask::new(16, 256, 256, 4, 0.25, 32), None);
            let mut ready = MultiPipelineSim::new(sim.accel.config(), instances, params);
            ready.timeline = Some(Vec::new());
            let mut polling = PollingCore::new(sim.accel.config(), instances, params);
            let mut at = 0u64;
            let mut steps = Vec::new();
            for (r, (inst, gap, tiles, bits)) in subs.into_iter().enumerate() {
                at += [0, 0, 50, 2_000, 200_000][gap];
                // Odd draws submit ahead of the events of their own cycle.
                let before = |t: u64| if bits & 1 == 0 { t <= at } else { t < at };
                loop {
                    let next = ready.next_event_time();
                    proptest::prop_assert_eq!(next, polling.sim.next_event_time());
                    if !next.is_some_and(before) {
                        break;
                    }
                    let step = ready.step();
                    proptest::prop_assert_eq!(step, polling.step());
                    steps.extend(step);
                    ready.assert_settled();
                    ready.assert_banks_match(&polling);
                }
                let job = redrawn_job(&base, tiles, bits);
                ready.submit(inst % instances, r as u64, &job, at);
                polling.submit(inst % instances, r as u64, &job, at);
                ready.assert_settled();
                ready.assert_banks_match(&polling);
            }
            loop {
                let step = ready.step();
                proptest::prop_assert_eq!(step, polling.step());
                let Some(step) = step else { break };
                steps.push(step);
                ready.assert_settled();
                ready.assert_banks_match(&polling);
            }
            proptest::prop_assert!(steps.windows(2).all(|w| w[0].time <= w[1].time));
            proptest::prop_assert_eq!(ready.report(), polling.report());
            proptest::prop_assert_eq!(&ready.timeline, &polling.sim.timeline);
            let work = ready.work();
            proptest::prop_assert_eq!(work.starts, polling.sim.starts);
            proptest::prop_assert_eq!(work.wakeups, work.starts);
        }
    }

    #[test]
    fn single_job_timeline_matches_the_polling_core() {
        // `CycleSim`'s path: one job at cycle zero on one instance, with and
        // without RASS (the formal stage refetching shared vectors).
        for rass in [true, false] {
            let mut sim = CycleSim::new(HwConfig::small());
            sim.accel.rass = rass;
            let job = small_job(&sim);
            let report = sim.run_job(&job);
            let mut polling = PollingCore::new(sim.accel.config(), 1, sim.params);
            polling.submit(0, 0, &job, 0);
            while polling.step().is_some() {}
            assert_eq!(Some(report.timeline), polling.sim.timeline);
            let polled = polling.report();
            assert_eq!(report.total_cycles, polled.total_cycles);
            let occupancy = report.buffers.map(|b| b.average_occupancy);
            assert_eq!(occupancy, polled.instances[0].buffer_occupancy);
        }
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

    /// Double-buffered (ping-pong) SRAM banks as explicit slots: the polling
    /// core's bank model, kept apart from the stage counters the event core
    /// derives its banks from.
    ///
    /// A bank is *reserved* when the producer starts a tile, becomes *ready*
    /// when the producer finishes it, and is *released* when the consumer
    /// finishes draining it. Producers reserve and consumers release tiles in
    /// stream order, so the resident banks always hold consecutive tiles: the
    /// oldest (next to drain) first and the one being filled last. Every
    /// operation therefore touches only one end of the window, and asserts
    /// that its tile is there.
    mod pingpong {
        /// Lifecycle of one bank.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum SlotState {
            /// Producer is writing the tile into the bank.
            Filling,
            /// Tile is complete and waiting for (or being drained by) the consumer.
            Ready,
        }

        #[derive(Debug, Clone, Copy)]
        struct Slot {
            tile: usize,
            state: SlotState,
            /// When the slot became `Ready` (for stall attribution).
            ready_at: u64,
        }

        /// Most banks a [`PingPongBuffer`] can have. The banks are an inline ring
        /// of this many slots, a power of two, so the window neither allocates nor
        /// shifts when its oldest bank is released.
        const MAX_BANKS: usize = 4;

        /// A ping-pong buffer of `capacity` banks with occupancy accounting.
        #[derive(Debug)]
        pub(super) struct PingPongBuffer {
            capacity: usize,
            /// Resident banks in stream order, oldest first: `len` slots of the
            /// ring starting at `head`.
            slots: [Slot; MAX_BANKS],
            head: usize,
            len: usize,
            /// Last time the occupancy changed, for the occupancy integral.
            last_change: u64,
            /// Σ occupancy · dt, for average-occupancy reporting.
            occupancy_integral: u64,
            /// When a bank was last freed (for back-pressure stall attribution).
            last_release: u64,
        }

        impl PingPongBuffer {
            /// Creates a buffer of `capacity` banks (the paper's design uses 2).
            ///
            /// # Panics
            ///
            /// Panics if `capacity` is zero or above [`MAX_BANKS`].
            pub(super) fn new(capacity: usize) -> Self {
                assert!(capacity > 0, "buffer capacity must be positive");
                assert!(capacity <= MAX_BANKS, "at most {MAX_BANKS} banks");
                let empty = Slot {
                    tile: 0,
                    state: SlotState::Filling,
                    ready_at: u64::MAX,
                };
                PingPongBuffer {
                    capacity,
                    slots: [empty; MAX_BANKS],
                    head: 0,
                    len: 0,
                    last_change: 0,
                    occupancy_integral: 0,
                    last_release: 0,
                }
            }

            fn advance(&mut self, now: u64) {
                self.occupancy_integral += self.len as u64 * (now - self.last_change);
                self.last_change = now;
            }

            /// The `i`-th resident bank, oldest first.
            fn resident(&self, i: usize) -> Option<&Slot> {
                (i < self.len).then(|| &self.slots[(self.head + i) % MAX_BANKS])
            }

            /// Whether the producer can start filling a new bank.
            pub(super) fn has_free_slot(&self) -> bool {
                self.len < self.capacity
            }

            /// Time the most recent bank was freed — the moment a producer blocked on
            /// back-pressure became unblocked.
            pub(super) fn last_release_time(&self) -> u64 {
                self.last_release
            }

            /// Producer starts filling a bank with `tile`.
            ///
            /// # Panics
            ///
            /// Panics if no bank is free.
            pub(super) fn reserve(&mut self, tile: usize, now: u64) {
                assert!(self.has_free_slot(), "reserve on a full ping-pong buffer");
                self.advance(now);
                self.slots[(self.head + self.len) % MAX_BANKS] = Slot {
                    tile,
                    state: SlotState::Filling,
                    ready_at: u64::MAX,
                };
                self.len += 1;
            }

            /// Producer finished `tile`; the bank becomes consumable.
            ///
            /// # Panics
            ///
            /// Panics if `tile` is not the bank being filled (the newest resident).
            pub(super) fn mark_ready(&mut self, tile: usize, now: u64) {
                let newest = (self.head + self.len.wrapping_sub(1)) % MAX_BANKS;
                let slot = Some(&mut self.slots[newest])
                    .filter(|s| self.len > 0 && s.tile == tile && s.state == SlotState::Filling)
                    .expect("mark_ready on unreserved tile");
                slot.state = SlotState::Ready;
                slot.ready_at = now;
            }

            /// When `tile` became ready for the consumer (`None` unless it is the
            /// oldest resident and ready).
            pub(super) fn ready_time(&self, tile: usize) -> Option<u64> {
                self.resident(0)
                    .filter(|s| s.tile == tile && s.state == SlotState::Ready)
                    .map(|s| s.ready_at)
            }

            /// When `tile` became ready, wherever it sits in the window (unlike
            /// [`Self::ready_time`], not only as the oldest bank): `None` unless it
            /// is resident and ready. A consumer still draining the tile ahead
            /// finds its next tile here.
            pub(super) fn ready_at(&self, tile: usize) -> Option<u64> {
                self.resident(0)
                    .and_then(|oldest| self.resident(tile.wrapping_sub(oldest.tile)))
                    .filter(|s| s.state == SlotState::Ready)
                    .map(|s| s.ready_at)
            }

            /// Consumer finished draining `tile`; the bank is freed.
            ///
            /// # Panics
            ///
            /// Panics if `tile` is not the oldest resident or not ready.
            pub(super) fn release(&mut self, tile: usize, now: u64) {
                assert!(
                    self.resident(0)
                        .is_some_and(|s| s.tile == tile && s.state == SlotState::Ready),
                    "release of a tile that is not resident"
                );
                self.advance(now);
                self.head = (self.head + 1) % MAX_BANKS;
                self.len -= 1;
                self.last_release = now;
            }

            /// Current number of occupied banks (filling or ready).
            pub(super) fn occupancy(&self) -> usize {
                self.len
            }

            /// Mean occupancy in banks over `[0, now]`.
            pub(super) fn average_occupancy(&self, now: u64) -> f64 {
                if now == 0 {
                    return self.len as f64;
                }
                let integral = self.occupancy_integral + self.len as u64 * (now - self.last_change);
                integral as f64 / now as f64
            }
        }

        /// The buffer before the FIFO window: every operation searched the
        /// resident banks for its tile. Kept as the reference.
        struct SearchBuffer {
            capacity: usize,
            slots: Vec<Slot>,
            last_change: u64,
            occupancy_integral: u64,
            last_release: u64,
        }

        impl SearchBuffer {
            fn new(capacity: usize) -> Self {
                SearchBuffer {
                    capacity,
                    slots: Vec::new(),
                    last_change: 0,
                    occupancy_integral: 0,
                    last_release: 0,
                }
            }

            fn advance(&mut self, now: u64) {
                self.occupancy_integral += self.slots.len() as u64 * (now - self.last_change);
                self.last_change = now;
            }

            fn has_free_slot(&self) -> bool {
                self.slots.len() < self.capacity
            }

            fn reserve(&mut self, tile: usize, now: u64) {
                assert!(self.has_free_slot());
                self.advance(now);
                self.slots.push(Slot {
                    tile,
                    state: SlotState::Filling,
                    ready_at: u64::MAX,
                });
            }

            fn mark_ready(&mut self, tile: usize, now: u64) {
                let slot = self
                    .slots
                    .iter_mut()
                    .find(|s| s.tile == tile && s.state == SlotState::Filling)
                    .expect("reserved");
                slot.state = SlotState::Ready;
                slot.ready_at = now;
            }

            fn ready_time(&self, tile: usize) -> Option<u64> {
                self.slots
                    .iter()
                    .find(|s| s.tile == tile && s.state == SlotState::Ready)
                    .map(|s| s.ready_at)
            }

            fn release(&mut self, tile: usize, now: u64) {
                let idx = self
                    .slots
                    .iter()
                    .position(|s| s.tile == tile && s.state == SlotState::Ready)
                    .expect("resident");
                self.advance(now);
                self.slots.remove(idx);
                self.last_release = now;
            }

            fn average_occupancy(&self, now: u64) -> f64 {
                if now == 0 {
                    return self.slots.len() as f64;
                }
                let integral =
                    self.occupancy_integral + self.slots.len() as u64 * (now - self.last_change);
                integral as f64 / now as f64
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(64))]

            /// Random producer/consumer lifecycles in stream order (the only
            /// order the pipeline uses): the window answers every query exactly
            /// as the search-based buffer does, at depths 1 to 4, including
            /// the ready stamps of the banks behind the oldest.
            #[test]
            fn fifo_window_matches_the_search(
                depth in 1usize..5,
                ops in proptest::collection::vec((0u8..4, 0u64..4), 1..300),
            ) {
                let mut window = PingPongBuffer::new(depth);
                let mut reference = SearchBuffer::new(depth);
                // Next tile to reserve, the tile being filled, next to release.
                let (mut now, mut next, mut filling, mut oldest) = (0u64, 0usize, None, 0usize);
                for (op, dt) in ops {
                    now += [0, 1, 7, 300][dt as usize];
                    match op {
                        0 if filling.is_none() && window.has_free_slot() => {
                            window.reserve(next, now);
                            reference.reserve(next, now);
                            filling = Some(next);
                            next += 1;
                        }
                        1 => {
                            if let Some(tile) = filling.take() {
                                window.mark_ready(tile, now);
                                reference.mark_ready(tile, now);
                            }
                        }
                        2 if window.ready_time(oldest).is_some() => {
                            window.release(oldest, now);
                            reference.release(oldest, now);
                            oldest += 1;
                        }
                        _ => {}
                    }
                    proptest::prop_assert_eq!(
                        window.ready_time(oldest),
                        reference.ready_time(oldest)
                    );
                    for tile in oldest..oldest + 5 {
                        let reference_at = reference.ready_time(tile);
                        proptest::prop_assert_eq!(window.ready_at(tile), reference_at);
                    }
                    proptest::prop_assert_eq!(window.has_free_slot(), reference.has_free_slot());
                    proptest::prop_assert_eq!(window.last_release_time(), reference.last_release);
                    proptest::prop_assert_eq!(
                        window.average_occupancy(now).to_bits(),
                        reference.average_occupancy(now).to_bits()
                    );
                }
            }
        }

        #[test]
        fn fill_drain_lifecycle() {
            let mut b = PingPongBuffer::new(2);
            assert!(b.has_free_slot());
            b.reserve(0, 0);
            assert_eq!(b.ready_time(0), None, "filling bank is not consumable");
            b.mark_ready(0, 10);
            assert_eq!(b.ready_time(0), Some(10));
            b.reserve(1, 10);
            assert!(!b.has_free_slot(), "both banks occupied");
            b.release(0, 25);
            assert!(b.has_free_slot());
            assert_eq!(b.last_release_time(), 25);
        }

        #[test]
        fn producer_blocks_when_both_banks_held() {
            let mut b = PingPongBuffer::new(2);
            b.reserve(0, 0);
            b.mark_ready(0, 5);
            b.reserve(1, 5);
            b.mark_ready(1, 9);
            // Tiles 0 and 1 both ready, none drained: a third reserve must wait.
            assert!(!b.has_free_slot());
            b.release(0, 12);
            b.reserve(2, 12);
            assert_eq!(b.occupancy(), 2);
        }

        #[test]
        fn average_occupancy_integrates_over_time() {
            let mut b = PingPongBuffer::new(2);
            b.reserve(0, 0); // occupancy 1 over [0, 10)
            b.mark_ready(0, 4);
            b.reserve(1, 10); // occupancy 2 over [10, 20)
            b.mark_ready(1, 15);
            b.release(0, 20); // occupancy 1 over [20, 40)
                              // Integral = 1·10 + 2·10 + 1·20 = 50 over 40 cycles.
            assert!((b.average_occupancy(40) - 1.25).abs() < 1e-12);
        }

        #[test]
        #[should_panic(expected = "full ping-pong buffer")]
        fn overfull_reserve_panics() {
            let mut b = PingPongBuffer::new(1);
            b.reserve(0, 0);
            b.reserve(1, 0);
        }

        #[test]
        #[should_panic(expected = "not resident")]
        fn releasing_a_tile_behind_the_oldest_panics() {
            let mut b = PingPongBuffer::new(2);
            b.reserve(0, 0);
            b.mark_ready(0, 1);
            b.reserve(1, 1);
            b.mark_ready(1, 2);
            b.release(1, 3);
        }

        #[test]
        #[should_panic(expected = "unreserved tile")]
        fn marking_a_tile_other_than_the_filling_one_panics() {
            // Tile 0 is resident and still filling, but the producer has moved
            // on to tile 1: only the newest bank can complete.
            let mut b = PingPongBuffer::new(2);
            b.reserve(0, 0);
            b.reserve(1, 1);
            b.mark_ready(0, 2);
        }

        #[test]
        #[should_panic(expected = "not resident")]
        fn releasing_unknown_tile_panics() {
            let mut b = PingPongBuffer::new(2);
            b.reserve(0, 0);
            b.release(3, 1);
        }
    }
}
