//! The admission core shared by [`ServeSim`](crate::ServeSim) and
//! [`FleetServeSim`](crate::FleetServeSim). [`Admission`] makes every
//! admission decision of one run: the deduplicated lowering pass
//! ([`lower_trace`]) into the [`RequestTable`], the [`Intake`] of original
//! arrivals and retry re-arrivals, the [`WaitQueue`], the aged
//! smallest-first [`pick`], the per-slot [`Bookings`] and the adaptive
//! controller (decay, feedback pressure and retries). Admission books the
//! sparsity-reduced `T×k` footprint; overbooking it Tailors-style is a
//! larger [`ServeConfig::admit_buffer_bytes`].
//!
//! A driver keeps its clock and what it does with an admitted request. The
//! single node is event-exact: it takes one external event strictly before
//! its next simulation event, and admits from the whole wait queue after
//! each external event and each step that completes a request. The fleet
//! steps in epochs: it completes a boundary's requests node by node, takes
//! every external event below the boundary, then admits from a window at
//! the queue head. Each driver's place and submit closures choose the slot
//! and run the request there, and each driver keeps its own energy sum.
//! Only the single node traces; the core buffers its adaptive instants for
//! it.

use crate::scheduler::{FeedbackConfig, OpRouter, ServeConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, Range};
use std::sync::Arc;

use sofa_core::cache::{CacheStats, LoweringCache, ShapeKey};
use sofa_hw::accel::AttentionTask;
use sofa_hw::energy::DRAM_ACTIVATION_PJ;
use sofa_model::trace::{RequestClass, RequestSpec, RequestTrace};
use sofa_model::OperatingPoint;
use sofa_sim::{CycleSim, PipelineJob};

/// Waiting request ids in effective-arrival order, plus the decay
/// frontier.
///
/// Both drivers push in that order: [`Intake`] hands out external events in
/// time order, and a queued request's effective arrival is the cycle it was
/// handed out at (a retry's is its re-arrival). [`WaitQueue::push`] asserts
/// it. So the oldest waiting request is in the head's equal-arrival run
/// ([`pick`]), and the requests that have waited past any threshold are a
/// prefix of the queue ([`WaitQueue::next_overdue`]).
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    reqs: VecDeque<usize>,
    /// Effective arrival of the last push; no push may arrive earlier.
    last_arrival: u64,
    /// Requests ahead of this position were already handed out by
    /// [`WaitQueue::next_overdue`].
    frontier: usize,
}

impl WaitQueue {
    /// Appends `req`, whose effective arrival is `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is earlier than the last push's.
    pub(crate) fn push(&mut self, req: usize, arrival: u64) {
        assert!(
            arrival >= self.last_arrival,
            "wait queue push out of arrival order: request {req} arrives at {arrival}, \
             after a push at {}",
            self.last_arrival
        );
        self.last_arrival = arrival;
        self.reqs.push_back(req);
    }

    /// Number of waiting requests.
    pub(crate) fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether no request is waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Removes and returns the request at `pos`. A removal ahead of the
    /// decay frontier moves it back by one.
    pub(crate) fn remove(&mut self, pos: usize) -> usize {
        if pos < self.frontier {
            self.frontier -= 1;
        }
        self.reqs.remove(pos).expect("position is in the queue")
    }

    /// The next request behind the decay frontier if it has waited at least
    /// `threshold` cycles at `now`, moving the frontier past it. Each
    /// request is handed out once. In arrival order the first request
    /// younger than `threshold` ends the walk: every request behind it is
    /// younger still.
    pub(crate) fn next_overdue(
        &mut self,
        now: u64,
        threshold: u64,
        arrival: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let &req = self.reqs.get(self.frontier)?;
        if now.saturating_sub(arrival(req)) < threshold {
            return None;
        }
        self.frontier += 1;
        Some(req)
    }
}

impl Index<usize> for WaitQueue {
    type Output = usize;

    /// The request at position `pos`, counting from the head.
    fn index(&self, pos: usize) -> &usize {
        &self.reqs[pos]
    }
}

/// One lowering as admission books it, shared by every request whose
/// current lowering it is.
#[derive(Debug)]
pub(crate) struct Lowered {
    /// The operating point of this lowering.
    pub(crate) op: OperatingPoint,
    /// The lowered tile stream, shared with every other lowering of the
    /// same `(shape, operating point)` key.
    pub(crate) job: Arc<PipelineJob>,
    /// Bytes admission control books for the request (the worst layer).
    pub(crate) footprint: u64,
    /// Projected energy of the whole request (all layers) in picojoules.
    pub(crate) energy_pj: f64,
    /// Whether any mechanism (energy budget, decay, feedback, retry)
    /// re-routed the request away from its first-pick point.
    pub(crate) rerouted: bool,
    /// `false` when the request exceeded the energy budget even at the
    /// leanest point and is shed (or retried) instead of admitted.
    pub(crate) admit: bool,
}

impl Lowered {
    /// The lowering itself, as the cache stores it.
    fn point(&self) -> PointLowering {
        PointLowering {
            job: Arc::clone(&self.job),
            footprint: self.footprint,
            energy_pj: self.energy_pj,
        }
    }
}

/// Every request of one run with its current lowering and effective
/// arrival. Lowerings are stored once: [`lower_trace`]'s representatives
/// first, then one entry per retry, decay or feedback re-lowering. A
/// request costs a `u32` index and a `u64` arrival, 12 B.
#[derive(Debug)]
pub(crate) struct RequestTable<'t> {
    /// The trace's requests, in arrival order.
    pub(crate) specs: &'t [RequestSpec],
    lowerings: Vec<Lowered>,
    /// Per request, the position of its current lowering in `lowerings`
    /// (`u32` keeps a million-request fleet run 4 MB smaller).
    index: Vec<u32>,
    /// Effective arrival per request: the spec's arrival cycle, or the
    /// re-arrival time once a shed request's retry is admitted (latency is
    /// measured from the client's live submission).
    pub(crate) arrival: Vec<u64>,
}

impl RequestTable<'_> {
    /// Moves `req` to `lowering` at `op`, marked re-routed. Callers
    /// re-lower only within the energy budget, so the request is admitted.
    pub(crate) fn reroute(&mut self, req: usize, op: OperatingPoint, lowering: PointLowering) {
        self.lowerings.push(Lowered {
            op,
            job: lowering.job,
            footprint: lowering.footprint,
            energy_pj: lowering.energy_pj,
            rerouted: true,
            admit: true,
        });
        self.index[req] = lowering_index(self.lowerings.len() - 1);
    }
}

/// `i` as a [`RequestTable`] index: no trace that fits in memory reaches
/// 2^32 lowerings.
fn lowering_index(i: usize) -> u32 {
    u32::try_from(i).expect("a run holds fewer than 2^32 lowerings")
}

impl Index<usize> for RequestTable<'_> {
    type Output = Lowered;

    /// Request `req`'s current lowering.
    fn index(&self, req: usize) -> &Lowered {
        &self.lowerings[self.index[req] as usize]
    }
}

/// One request lowered at one operating point (pre-budget). Cloning shares
/// the lowered job, so this is the value type of the lowering cache.
#[derive(Clone)]
pub(crate) struct PointLowering {
    pub(crate) job: Arc<PipelineJob>,
    pub(crate) footprint: u64,
    pub(crate) energy_pj: f64,
}

/// The `(request shape, operating point)`-keyed memo for [`lower_at`]
/// results, shared by batch lowering and every adaptive re-lowering path
/// (decay, feedback, retry). Accessed serially only, so hit/miss statistics
/// are deterministic at any `SOFA_THREADS`.
pub(crate) type LowerCache = LoweringCache<ShapeKey, PointLowering>;

/// Lowers one request at `op`: one pipeline job per layer, concatenated
/// into a single tile stream, plus the admission footprint and the
/// projected energy.
///
/// The footprint is the state an instance pins for the life of an
/// in-flight layer (tiles merely stream through the ping-pong banks):
/// the query block and the output accumulator (`T×H` 16-bit values
/// each) plus per-selected-key metadata — index and predicted score,
/// 4 B per kept Q-K pair. Layers run back to back, so admission books
/// the worst layer. Worst-case sizing would budget for a dense selection
/// (every key kept); admission books only the `T×k` pairs the prediction
/// stage actually keeps.
///
/// The energy projection follows the DSE evaluator's model: the
/// analytic compute/SRAM/interface/DRAM energy of each layer's task
/// plus [`DRAM_ACTIVATION_PJ`] per DRAM request the lowered job issues.
pub(crate) fn lower_at(csim: &CycleSim, spec: &RequestSpec, op: &OperatingPoint) -> PointLowering {
    let t = spec.queries as u64;
    let h = spec.hidden as u64;
    let mut combined = PipelineJob {
        work: Vec::new(),
        cycles: Vec::new(),
    };
    let mut footprint = 0u64;
    let mut energy_pj = 0.0f64;
    for layer in 0..op.layers() {
        let task = AttentionTask::at_layer(
            spec.queries,
            spec.seq_len,
            spec.hidden,
            spec.heads,
            op,
            layer,
        );
        let job = csim.job(&task, None);
        let requests = job.dram_requests();
        let analytic = csim.accel.simulate(&task);
        energy_pj += analytic.energy.total_j() * 1e12 + requests as f64 * DRAM_ACTIVATION_PJ;
        footprint = footprint.max(t * h * 2 + t * h * 2 + t * task.k() as u64 * 4);
        combined.work.extend(job.work);
        combined.cycles.extend(job.cycles);
    }
    PointLowering {
        job: Arc::new(combined),
        footprint,
        energy_pj,
    }
}

/// [`lower_at`] through the lowering cache. Serial-path entry point for
/// the adaptive re-lowering mechanisms; [`lower_trace`] seeds the same
/// cache via its dedup pass instead.
pub(crate) fn lower_at_cached(
    cache: &mut LowerCache,
    csim: &CycleSim,
    spec: &RequestSpec,
    op: &OperatingPoint,
) -> PointLowering {
    cache
        .get_or_insert_with(ShapeKey::new(spec, op), || lower_at(csim, spec, op))
        .clone()
}

/// Lowers one request through `router`, applying the energy budget:
/// over-budget requests are re-routed to the router's leanest point, and
/// shed when they exceed the budget even there.
pub(crate) fn lower_routed(
    cfg: &ServeConfig,
    csim: &CycleSim,
    spec: &RequestSpec,
    router: &OpRouter,
) -> Lowered {
    let mut op = router.pick(&cfg.op, spec);
    let mut lowering = lower_at(csim, spec, &op);
    let mut rerouted = false;
    if cfg.over_energy_budget(lowering.energy_pj) {
        if let Some(lean) = router.leaner().filter(|lean| *lean != op) {
            lowering = lower_at(csim, spec, &lean);
            op = lean;
            rerouted = true;
        }
    }
    Lowered {
        op,
        job: lowering.job,
        footprint: lowering.footprint,
        energy_pj: lowering.energy_pj,
        rerouted,
        admit: !cfg.over_energy_budget(lowering.energy_pj),
    }
}

/// A multiplicative word hasher (the rotate-xor-multiply step of FxHash)
/// for maps that are only looked up, never iterated: `lower_trace` hashes
/// every request's key, and SipHash's resistance to crafted keys buys
/// nothing on keys a trace generator made. `finish` rotates the
/// well-mixed high bits into the low bits the table indexes by.
#[derive(Default)]
struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Lowers every request of `trace` through `router`, once per distinct
/// `(request shape, routed operating point)` key.
///
/// Lowering a request (routing, descriptor generation, per-tile cycle
/// apportioning, energy projection) is a pure function of that key. A
/// serial dedup pass elects one representative per distinct key; only the
/// representatives fan out across cores (in index order, so the result is
/// oblivious to the thread count), and every other request shares its
/// representative's lowering. The representatives' final-point lowerings
/// seed `cache`, which accounts one miss per representative and one hit per
/// request that shared one.
///
/// Returns the table of the whole trace: the representatives' lowerings,
/// each request pointing at its representative's, at its spec's arrival.
pub(crate) fn lower_trace<'t>(
    cfg: &ServeConfig,
    csim: &CycleSim,
    trace: &'t RequestTrace,
    router: &OpRouter,
    cache: &mut LowerCache,
) -> RequestTable<'t> {
    let specs = &trace.requests;
    let mut seen: HashMap<ShapeKey, usize, BuildHasherDefault<MulHasher>> = HashMap::default();
    let mut index = Vec::with_capacity(specs.len());
    let mut reps: Vec<usize> = Vec::new();
    // One key, refilled per request: a request that shares a
    // representative allocates nothing; only a new key is cloned.
    let (mut key, mut routed) = (ShapeKey::default(), [None, None]);
    for (i, spec) in specs.iter().enumerate() {
        router.refill_key(&cfg.op, spec, &mut key, &mut routed);
        let rep = match seen.get(&key) {
            Some(&rep) => rep,
            None => {
                reps.push(i);
                seen.insert(key.clone(), reps.len() - 1);
                reps.len() - 1
            }
        };
        index.push(lowering_index(rep));
    }
    let lowerings: Vec<Lowered> = sofa_par::par_map_index(reps.len(), |k| {
        lower_routed(cfg, csim, &specs[reps[k]], router)
    });
    for (low, &rep) in lowerings.iter().zip(&reps) {
        cache.insert_computed(ShapeKey::new(&specs[rep], &low.op), low.point());
    }
    cache.record_shared_hits((specs.len() - reps.len()) as u64);
    RequestTable {
        specs,
        lowerings,
        index,
        arrival: specs.iter().map(|r| r.arrival_cycle).collect(),
    }
}

/// What one external event — an original arrival or a retry re-arrival —
/// did to its request.
#[derive(Debug, PartialEq)]
pub(crate) enum Arrival {
    /// The request joins the wait queue.
    Queued,
    /// Over the energy budget: the client re-submits after its backoff.
    BackedOff,
    /// Over the energy budget with no retry left: shed at `energy_pj` after
    /// `attempt` re-submissions.
    Shed { attempt: u32, energy_pj: f64 },
}

/// The arrival side of admission: the cursor over the trace's original
/// arrivals, the retry heap of shed requests awaiting their client backoff
/// ([`ServeConfig::retry`]) and each retried request's attempt count.
#[derive(Debug, Default)]
pub(crate) struct Intake {
    /// The next original arrival.
    next: usize,
    /// Shed requests awaiting their client backoff: (re-arrival, id).
    retries: BinaryHeap<Reverse<(u64, usize)>>,
    /// Attempts so far of every request that re-arrived at least once.
    attempts: HashMap<usize, u32>,
}

impl Intake {
    /// Client re-submissions of `req` so far.
    fn attempts(&self, req: usize) -> u32 {
        self.attempts.get(&req).copied().unwrap_or(0)
    }

    /// The next external event's cycle and whether it is a retry
    /// re-arrival. Original arrivals go first on ties: the retried client
    /// re-submits just behind the fresh traffic.
    #[inline]
    fn peek(&self, specs: &[RequestSpec]) -> Option<(u64, bool)> {
        let arrival = specs.get(self.next).map(|r| r.arrival_cycle);
        let retry = self.retries.peek().map(|&Reverse((t, _))| t);
        match (arrival, retry) {
            (Some(a), Some(r)) if r < a => Some((r, true)),
            (Some(a), _) => Some((a, false)),
            (None, r) => r.map(|r| (r, true)),
        }
    }

    /// Takes the next retry re-arrival: its request and attempt number.
    fn pop_retry(&mut self) -> (usize, u32) {
        let Reverse((_, req)) = self.retries.pop().expect("a retry was peeked");
        let attempt = self.attempts(req) + 1;
        self.attempts.insert(req, attempt);
        (req, attempt)
    }
}

/// Waiting cycles beyond which the oldest request is picked ahead of the
/// smallest: the starvation bound of smallest-first admission.
pub(crate) const AGING_THRESHOLD: u64 = 100_000;

/// Position in `waiting` of the next request to try, among its first
/// `window` entries: the oldest request if it has waited at least
/// `aged_after` cycles at `now` (the drivers pass [`AGING_THRESHOLD`]),
/// else the one with the smallest footprint. `arrival` and `footprint`
/// read a request's effective arrival and booked bytes.
///
/// The oldest is the least `(arrival, id)`. [`WaitQueue::push`] asserts
/// arrival order, so it is in the head's equal-arrival run, and only that
/// run is read: an aged pick reads the head, its run and the entry behind
/// it, not the window. The smallest-first pick scans the window; the
/// window bounds its cost on deep backlogs.
///
/// # Panics
///
/// Panics if `waiting` is empty or `window` is 0.
pub(crate) fn pick(
    aged_after: u64,
    now: u64,
    waiting: &WaitQueue,
    window: usize,
    arrival: impl Fn(usize) -> u64,
    footprint: impl Fn(usize) -> u64,
) -> usize {
    let (oldest, arrived) = oldest(waiting, window, arrival);
    if now.saturating_sub(arrived) >= aged_after {
        return oldest;
    }
    first_min(waiting, window, footprint)
}

/// Position and arrival of the least `(arrival, id)` among the first
/// `window` entries of `waiting`: the least id of the head's equal-arrival
/// run.
fn oldest(waiting: &WaitQueue, window: usize, arrival: impl Fn(usize) -> u64) -> (usize, u64) {
    let arrived = arrival(waiting[0]);
    let run = waiting.reqs.iter().take(window);
    let (pos, _) = run
        .take_while(|&&req| arrival(req) == arrived)
        .enumerate()
        .min_by_key(|&(_, &req)| req)
        .expect("a non-empty queue and window");
    (pos, arrived)
}

/// Position of the first request with the least `(key, id)` among the
/// first `window` entries of `waiting`.
fn first_min(waiting: &WaitQueue, window: usize, key: impl Fn(usize) -> u64) -> usize {
    waiting
        .reqs
        .iter()
        .take(window)
        .enumerate()
        .min_by_key(|&(_, &req)| (key(req), req))
        .map(|(pos, _)| pos)
        .expect("a non-empty queue and window")
}

/// In-flight bookings per instance slot: the footprint bytes and request
/// count of the admitted-but-uncompleted requests, and the peak booked
/// bytes.
#[derive(Debug)]
pub(crate) struct Bookings {
    pub(crate) bytes: Vec<u64>,
    pub(crate) reqs: Vec<usize>,
    pub(crate) peak: Vec<u64>,
}

impl Bookings {
    /// `slots` idle instance slots.
    pub(crate) fn new(slots: usize) -> Self {
        Bookings {
            bytes: vec![0; slots],
            reqs: vec![0; slots],
            peak: vec![0; slots],
        }
    }

    /// Books one admitted request of `bytes` on `slot`.
    pub(crate) fn book(&mut self, slot: usize, bytes: u64) {
        self.bytes[slot] += bytes;
        self.reqs[slot] += 1;
        self.peak[slot] = self.peak[slot].max(self.bytes[slot]);
    }

    /// Releases one completed request of `bytes` from `slot`.
    pub(crate) fn release(&mut self, slot: usize, bytes: u64) {
        self.bytes[slot] -= bytes;
        self.reqs[slot] -= 1;
    }

    /// Checks that every booking was released: each slot is back to 0
    /// bytes and 0 requests.
    ///
    /// # Panics
    ///
    /// Panics naming the first slot with bytes or requests still booked.
    pub(crate) fn assert_drained(&self) {
        for (slot, (&bytes, &reqs)) in self.bytes.iter().zip(&self.reqs).enumerate() {
            assert!(
                bytes == 0 && reqs == 0,
                "slot {slot} still books {bytes} B in {reqs} requests after the run"
            );
        }
    }

    /// The slot in `slots` the next request lands on: among slots that fit
    /// `fp` more bytes within `budget` (or are idle, so one oversized
    /// request always makes progress), the least-booked one, first in slot
    /// order on ties.
    pub(crate) fn place(&self, slots: Range<usize>, fp: u64, budget: u64) -> Option<usize> {
        // A strict `<` keeps the first minimum, and nothing books fewer
        // than 0 bytes.
        let mut best: Option<(usize, u64)> = None;
        for slot in slots {
            let booked = self.bytes[slot];
            let fits = self.reqs[slot] == 0 || booked + fp <= budget;
            if fits && best.is_none_or(|(_, b)| booked < b) {
                best = Some((slot, booked));
                if booked == 0 {
                    break;
                }
            }
        }
        best.map(|(slot, _)| slot)
    }
}

/// One adaptive-controller action, buffered during a traced run and
/// emitted as a trace instant after it: mid-loop emission would break
/// per-track timestamp monotonicity against the post-run lifecycle spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum AdaptiveKind {
    /// The decay threshold re-lowered a waiting request to the lean end.
    Decay,
    /// Feedback pressure re-lowered the picked request at this level.
    Feedback(u8),
    /// An over-budget attempt went to the retry queue (attempt number; 0 is
    /// the initial submission).
    RetryShed(u32),
    /// A retry re-arrival fit the budget and joined the wait queue.
    Retry(u32),
    /// Retries exhausted: finally shed, at this last-attempt energy.
    Shed(f64),
}

/// [`AdaptiveKind`] tagged with the request and cycle it happened at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptiveEvent {
    pub(crate) req: usize,
    pub(crate) ts: u64,
    pub(crate) kind: AdaptiveKind,
}

/// The measured state of [`OpRouter::Feedback`]: EWMAs (`ewma ← α·sample +
/// (1−α)·ewma`; the first sample of a series seeds it) of each slot's
/// completion latency and per-request energy and of the wait-queue depth,
/// sampled at every completion.
#[derive(Debug, Default)]
struct Pressure {
    latency: Vec<f64>,
    energy: Vec<f64>,
    queue: f64,
    samples: u64,
}

impl Pressure {
    /// Folds one completion on `slot` into the EWMAs.
    fn observe(&mut self, fb: &FeedbackConfig, slot: usize, latency: f64, energy: f64, depth: f64) {
        let mix = |prev: f64, x: f64| {
            if prev == 0.0 {
                x
            } else {
                fb.alpha * x + (1.0 - fb.alpha) * prev
            }
        };
        self.latency[slot] = mix(self.latency[slot], latency);
        self.energy[slot] = mix(self.energy[slot], energy);
        self.queue = if self.samples == 0 {
            depth
        } else {
            fb.alpha * depth + (1.0 - fb.alpha) * self.queue
        };
        self.samples += 1;
    }

    /// The discrete pressure level measured state maps to — 0 calm, 1 over
    /// target, 2 badly over — per [`FeedbackConfig`]. Zero until the first
    /// completion lands (no measurement, no pressure).
    fn level(&self, fb: &FeedbackConfig) -> u8 {
        if self.samples == 0 {
            return 0;
        }
        let hottest = self.latency.iter().copied().fold(0.0f64, f64::max);
        let target = fb.target_latency_cycles as f64;
        let queue_bar = fb.queue_depth_bar as f64;
        let mut level = 0u8;
        if hottest > target || self.queue > queue_bar {
            level = 1;
        }
        if hottest > 2.0 * target || self.queue > 2.0 * queue_bar {
            level = 2;
        }
        if let Some(bar) = fb.energy_bar_pj {
            let hottest_energy = self.energy.iter().copied().fold(0.0f64, f64::max);
            if hottest_energy > bar {
                level = (level + 1).min(2);
            }
        }
        level
    }
}

/// One admitted request, as [`Admission::admit`] hands it to the driver.
pub(crate) struct Admitted<'l> {
    /// The instance slot it is booked on.
    pub(crate) slot: usize,
    pub(crate) req: usize,
    /// Its lowering at admission.
    pub(crate) low: &'l Lowered,
    /// Its effective arrival.
    pub(crate) arrival: u64,
    /// Requests still waiting after it left the queue.
    pub(crate) waiting: usize,
    /// Bytes booked on `slot` with it.
    pub(crate) booked: u64,
}

/// All admission state and policy of one run (see the module docs).
pub(crate) struct Admission<'a> {
    cfg: &'a ServeConfig,
    router: OpRouter<'a>,
    csim: CycleSim,
    cache: LowerCache,
    /// Every request's current lowering and effective arrival.
    pub(crate) table: RequestTable<'a>,
    intake: Intake,
    waiting: WaitQueue,
    bookings: Bookings,
    /// Retry re-arrivals admitted back into the wait queue.
    pub(crate) retried: u64,
    pressure: Pressure,
    /// Per request, the pressure level of its current lowering; empty
    /// unless the router is [`OpRouter::Feedback`].
    level: Vec<u8>,
    /// Per request, whether decay re-lowered it while it waited; empty
    /// unless [`ServeConfig::decay_threshold`] is set.
    decayed: Vec<bool>,
    /// Adaptive instants in the order they happened; `None` unless traced.
    pub(crate) events: Option<Vec<AdaptiveEvent>>,
}

impl<'a> Admission<'a> {
    /// Lowers `trace` through `router` ([`lower_trace`]) for admission onto
    /// `slots` instance slots; `traced` buffers the adaptive instants.
    ///
    /// # Panics
    ///
    /// Panics if a [`OpRouter::Feedback`] configuration fails
    /// [`FeedbackConfig::validate`].
    pub(crate) fn new(
        cfg: &'a ServeConfig,
        router: OpRouter<'a>,
        trace: &'a RequestTrace,
        slots: usize,
        traced: bool,
    ) -> Self {
        if let OpRouter::Feedback(_, fb) = router {
            fb.validate().expect("invalid feedback config");
        }
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        let mut cache = LowerCache::default();
        let table = lower_trace(cfg, &csim, trace, &router, &mut cache);
        let requests = |on: bool| if on { trace.len() } else { 0 };
        Admission {
            cfg,
            router,
            csim,
            cache,
            table,
            intake: Intake::default(),
            waiting: WaitQueue::default(),
            bookings: Bookings::new(slots),
            retried: 0,
            pressure: Pressure {
                latency: vec![0.0; slots],
                energy: vec![0.0; slots],
                ..Pressure::default()
            },
            level: vec![0; requests(matches!(router, OpRouter::Feedback(..)))],
            decayed: vec![false; requests(cfg.decay_threshold.is_some())],
            events: traced.then(Vec::new),
        }
    }

    /// Cycle of the next external event, if any is left.
    #[inline]
    pub(crate) fn next_arrival(&self) -> Option<u64> {
        self.intake.peek(self.table.specs).map(|(t, _)| t)
    }

    /// Requests waiting for admission.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Client re-submissions of `req` so far.
    pub(crate) fn attempts(&self, req: usize) -> u32 {
        self.intake.attempts(req)
    }

    /// Bytes booked on `slot`.
    pub(crate) fn booked(&self, slot: usize) -> u64 {
        self.bookings.bytes[slot]
    }

    /// Whether decay re-lowered `req` while it waited.
    pub(crate) fn decayed(&self, req: usize) -> bool {
        self.decayed.get(req).copied().unwrap_or(false)
    }

    /// Takes the next external event strictly before `bound` (any event
    /// when `bound` is `None`) and returns its cycle, request and outcome.
    /// An original arrival queues if its lowering is admitted. A retry
    /// re-arrival is re-lowered through the cache at its attempt's leaner
    /// keep; if that fits the energy budget, the request switches to it and
    /// queues at the re-arrival cycle. A request that does not fit backs off
    /// while [`ServeConfig::retry`] leaves it an attempt, and is shed
    /// otherwise. Inlined: the single node asks once per simulation event,
    /// and almost always gets `None`.
    #[inline]
    pub(crate) fn next_external(&mut self, bound: Option<u64>) -> Option<(u64, usize, Arrival)> {
        let (now, is_retry) = self.intake.peek(self.table.specs)?;
        if bound.is_some_and(|b| now >= b) {
            return None;
        }
        Some(self.take(now, is_retry))
    }

    fn take(&mut self, now: u64, is_retry: bool) -> (u64, usize, Arrival) {
        let (req, attempt, energy_pj) = if is_retry {
            let (req, attempt) = self.intake.pop_retry();
            let policy = self.cfg.retry.expect("retries require a policy");
            // The fixed point, the front's leanest point or the deployment
            // point, with its keep shrunk by `keep_factorᵃᵗᵗᵉᵐᵖᵗ`, floored at
            // 1%. The shrunk keep is part of the cache key, so repeat
            // attempts at the same level hit.
            let base = match self.router {
                OpRouter::Fixed(op) => op.clone(),
                router => router.leaner().unwrap_or_else(|| self.cfg.op.clone()),
            };
            let keep = (base.mean_keep() * policy.keep_factor.powi(attempt as i32)).max(0.01);
            let op = base.with_uniform_keep(keep);
            let spec = &self.table.specs[req];
            let lowering = lower_at_cached(&mut self.cache, &self.csim, spec, &op);
            if !self.cfg.over_energy_budget(lowering.energy_pj) {
                self.table.reroute(req, op, lowering);
                self.table.arrival[req] = now;
                self.retried += 1;
                self.note(req, now, AdaptiveKind::Retry(attempt));
                self.waiting.push(req, now);
                return (now, req, Arrival::Queued);
            }
            (req, attempt, lowering.energy_pj)
        } else {
            let req = self.intake.next;
            self.intake.next += 1;
            if self.table[req].admit {
                self.waiting.push(req, now);
                return (now, req, Arrival::Queued);
            }
            (req, 0, self.table[req].energy_pj)
        };
        let arrival = match self.cfg.retry {
            Some(policy) if attempt < policy.max_retries => {
                let retry = Reverse((now + policy.backoff_cycles, req));
                self.intake.retries.push(retry);
                self.note(req, now, AdaptiveKind::RetryShed(attempt));
                Arrival::BackedOff
            }
            _ => {
                if attempt > 0 {
                    self.note(req, now, AdaptiveKind::Shed(energy_pj));
                }
                Arrival::Shed { attempt, energy_pj }
            }
        };
        (now, req, arrival)
    }

    /// Completes `req` on `slot` at `now`: releases its booking and, under
    /// [`OpRouter::Feedback`], folds its latency and energy into the
    /// pressure EWMAs and returns the new pressure level.
    pub(crate) fn complete(&mut self, slot: usize, req: usize, now: u64) -> Option<u8> {
        let low = &self.table[req];
        self.bookings.release(slot, low.footprint);
        let OpRouter::Feedback(_, fb) = self.router else {
            return None;
        };
        let latency = (now - self.table.arrival[req]) as f64;
        let depth = self.waiting.len() as f64;
        self.pressure
            .observe(fb, slot, latency, low.energy_pj, depth);
        Some(self.pressure.level(fb))
    }

    /// Admits waiting requests at `now` until the picked one fits nowhere.
    /// Decay first re-lowers the requests that waited past the threshold;
    /// each pick (among the first `window` waiting requests) is re-lowered
    /// for the current feedback pressure, `place` chooses its slot from the
    /// bookings, its class and its footprint, and `submit` runs it there.
    /// Stopping at a request that fits nowhere, rather than skipping to a
    /// smaller one, keeps the aged head from being overtaken forever.
    pub(crate) fn admit(
        &mut self,
        now: u64,
        window: usize,
        place: impl Fn(&Bookings, RequestClass, u64) -> Option<usize>,
        mut submit: impl FnMut(Admitted),
    ) {
        self.decay(now);
        while !self.waiting.is_empty() {
            let table = &self.table;
            let arrival = |r: usize| table.arrival[r];
            let pos = pick(AGING_THRESHOLD, now, &self.waiting, window, arrival, |r| {
                table[r].footprint
            });
            let req = self.waiting[pos];
            self.relower_for_pressure(now, req);
            let (low, class) = (&self.table[req], self.table.specs[req].class);
            let Some(slot) = place(&self.bookings, class, low.footprint) else {
                return;
            };
            self.waiting.remove(pos);
            self.bookings.book(slot, low.footprint);
            submit(Admitted {
                slot,
                req,
                low,
                arrival: self.table.arrival[req],
                waiting: self.waiting.len(),
                booked: self.bookings.bytes[slot],
            });
        }
    }

    /// Re-lowers every waiting request that has waited past the decay
    /// threshold to the router's decay target, at most once per request:
    /// the wait queue's decay frontier passes each request once.
    fn decay(&mut self, now: u64) {
        let Some(threshold) = self.cfg.decay_threshold else {
            return;
        };
        while let Some(req) = self
            .waiting
            .next_overdue(now, threshold, |r| self.table.arrival[r])
        {
            let class = self.table.specs[req].class;
            let Some(target) = self.router.decay_target(class) else {
                continue;
            };
            if self.reroute_within_budget(req, target) {
                self.decayed[req] = true;
                self.note(req, now, AdaptiveKind::Decay);
            }
        }
    }

    /// Re-lowers the picked `req` when the feedback pressure level moved
    /// since it was last lowered. Decayed requests are already at the lean
    /// end and are left alone.
    fn relower_for_pressure(&mut self, now: u64, req: usize) {
        let OpRouter::Feedback(front, fb) = self.router else {
            return;
        };
        let level = self.pressure.level(fb);
        if self.decayed(req) || level == self.level[req] {
            return;
        }
        self.level[req] = level;
        let target = front.route_pressure(&self.table.specs[req].class, level);
        if self.reroute_within_budget(req, target) {
            self.note(req, now, AdaptiveKind::Feedback(level));
        }
    }

    /// Moves `req` to `target` unless it is there already or its lowering
    /// at `target` breaks the energy budget; returns whether it moved.
    fn reroute_within_budget(&mut self, req: usize, target: OperatingPoint) -> bool {
        if target == self.table[req].op {
            return false;
        }
        let spec = &self.table.specs[req];
        let lowering = lower_at_cached(&mut self.cache, &self.csim, spec, &target);
        if self.cfg.over_energy_budget(lowering.energy_pj) {
            return false;
        }
        self.table.reroute(req, target, lowering);
        true
    }

    /// Buffers one adaptive action when the run is traced.
    fn note(&mut self, req: usize, ts: u64, kind: AdaptiveKind) {
        if let Some(events) = &mut self.events {
            events.push(AdaptiveEvent { req, ts, kind });
        }
    }

    /// Ends the run: checks that no request still waits and every booking
    /// was released, and returns each slot's peak booked bytes and the
    /// lowering-cache statistics.
    ///
    /// # Panics
    ///
    /// Panics if a request still waits or a slot still books bytes.
    pub(crate) fn finish(self) -> (Vec<u64>, CacheStats) {
        assert!(self.waiting.is_empty(), "all eligible requests admitted");
        self.bookings.assert_drained();
        (self.bookings.peak, self.cache.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RetryPolicy;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::TraceConfig;

    /// The placement as one iterator chain over the whole range: among
    /// idle slots and slots with byte headroom, the least-booked, then the
    /// first slot.
    fn place_by_scan(b: &Bookings, slots: Range<usize>, fp: u64, budget: u64) -> Option<usize> {
        slots
            .filter(|&s| b.reqs[s] == 0 || b.bytes[s] + fp <= budget)
            .min_by_key(|&s| (b.bytes[s], s))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The shared placement picks exactly what the full scan picks, over
        /// random bookings that mix idle slots, booked slots at zero bytes,
        /// slots at and past the byte budget edge, and slot ranges from
        /// empty node pools to the single node's whole `0..instances`.
        #[test]
        fn early_exit_place_matches_the_full_scan(
            shape in (1usize..5, 1usize..5, 0usize..5),
            range in (0usize..6, 0usize..5),
            slots in proptest::collection::vec((0usize..6, 0usize..3), 16),
        ) {
            let (nodes, ipn) = (shape.0, shape.1);
            let instances = nodes * ipn;
            let budget = ServeConfig::new(HwConfig::small(), ipn).admit_buffer_bytes;
            let fp = [0, 1, budget / 2, budget, budget + 1][shape.2];
            let sizes = [0, 1, budget / 2, budget - fp.min(budget), budget, 3 * budget];
            let mut b = Bookings::new(instances);
            for (s, &(bytes, reqs)) in slots[..instances].iter().enumerate() {
                b.bytes[s] = sizes[bytes];
                b.reqs[s] = reqs;
            }
            let slots = if range.0 == 5 {
                0..instances
            } else {
                let (x, y) = (range.0.min(nodes), range.1.min(nodes));
                x.min(y) * ipn..x.max(y) * ipn
            };
            proptest::prop_assert_eq!(
                b.place(slots.clone(), fp, budget),
                place_by_scan(&b, slots, fp, budget)
            );
        }
    }

    #[test]
    fn bookings_drain_when_every_request_is_released() {
        let mut b = Bookings::new(3);
        b.book(0, 100);
        b.book(0, 50);
        b.book(2, 7);
        assert_eq!(b.peak, [150, 0, 7]);
        b.release(0, 100);
        b.book(2, 0);
        b.release(2, 7);
        b.release(0, 50);
        b.release(2, 0);
        assert_eq!(b.peak, [150, 0, 7]);
        b.assert_drained();
    }

    #[test]
    #[should_panic(expected = "slot 1 still books 0 B in 1 requests")]
    fn bookings_drain_check_catches_a_missing_release() {
        let mut b = Bookings::new(2);
        b.book(0, 100);
        b.book(1, 0);
        b.release(0, 100);
        b.assert_drained();
    }

    #[test]
    fn intake_takes_originals_first_on_ties_and_stops_before_the_bound() {
        let mut tc = TraceConfig::new(2, 100.0, 7);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        let trace = RequestTrace::generate(&tc);
        let [a0, a1] = [0, 1].map(|i| trace.requests[i].arrival_cycle);
        assert!(a0 < a1);
        // No lowering fits this budget, and request 0's retry re-arrives on
        // the cycle request 1 arrives.
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        cfg.energy_budget_pj_per_req = Some(1.0);
        cfg.retry = Some(RetryPolicy {
            backoff_cycles: a1 - a0,
            max_retries: 1,
            keep_factor: 0.5,
        });
        let mut adm = Admission::new(&cfg, OpRouter::TraceNative, &trace, 1, true);
        assert_eq!(adm.next_external(Some(a0)), None, "the bound is strict");
        let backed_off = |req| Some((a0.max(a1 * req as u64), req, Arrival::BackedOff));
        assert_eq!(adm.next_external(Some(a0 + 1)), backed_off(0));
        assert_eq!(adm.next_external(None), backed_off(1), "originals first");
        let shed = |popped| match popped {
            Some((t, req, Arrival::Shed { attempt, .. })) => (t, req, attempt),
            other => panic!("expected a final shed, got {other:?}"),
        };
        assert_eq!(shed(adm.next_external(None)), (a1, 0, 1));
        assert_eq!(shed(adm.next_external(None)), (2 * a1 - a0, 1, 1));
        assert_eq!(adm.next_external(None), None);
        assert_eq!((adm.attempts(0), adm.attempts(1)), (1, 1));
        let kinds: Vec<_> = adm
            .events
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(matches!(
            kinds[..],
            [
                AdaptiveKind::RetryShed(0),
                AdaptiveKind::RetryShed(0),
                AdaptiveKind::Shed(_),
                AdaptiveKind::Shed(_)
            ]
        ));
        assert_eq!(adm.waiting(), 0);
        assert_eq!(adm.retried, 0);
    }

    #[test]
    fn a_retry_under_a_fixed_point_keeps_its_layers_and_tiles() {
        // The budget admits every retry at the fixed point's shrunk keep
        // but no prefill at the fixed point itself. A retry at the
        // deployment point (one layer, `Bc = 32`) would fit too, so only the
        // re-lowered point tells the two apart.
        let mut tc = TraceConfig::new(24, 100.0, 3);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 16;
        let trace = RequestTrace::generate(&tc);
        let fixed = OperatingPoint::new(vec![0.4, 0.3], vec![16, 8]).unwrap();
        let retry = RetryPolicy {
            backoff_cycles: 10_000,
            max_retries: 2,
            keep_factor: 0.5,
        };
        let shrunk = fixed.with_uniform_keep(fixed.mean_keep() * retry.keep_factor);
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        let csim = CycleSim::new(cfg.hw);
        let prefills = trace
            .requests
            .iter()
            .filter(|r| r.class == RequestClass::Prefill);
        let energy = |op| {
            prefills
                .clone()
                .map(move |r| lower_at(&csim, r, op).energy_pj)
        };
        let budget = energy(&shrunk).fold(0.0, f64::max);
        assert!(energy(&fixed).all(|e| e > budget));
        cfg.energy_budget_pj_per_req = Some(budget);
        cfg.retry = Some(retry);
        let mut adm = Admission::new(&cfg, OpRouter::Fixed(&fixed), &trace, 1, false);
        let mut retried = 0;
        while let Some((_, req, arrival)) = adm.next_external(None) {
            if arrival == Arrival::Queued && adm.attempts(req) > 0 {
                assert_eq!(adm.table[req].op, shrunk, "request {req}");
                retried += 1;
            }
        }
        assert!(retried > 0, "the prefills retry");
        assert_eq!(retried, adm.retried);
    }

    /// A two-layer front whose routed, cycle-leanest and energy-leanest
    /// points differ.
    fn small_front() -> sofa_dse::ParetoFront {
        use sofa_dse::{CandidateEval, DseCandidate, MetricVector};
        let entry = |keep: f64, bc: usize, loss: f64, cycles: u64, energy: f64| CandidateEval {
            candidate: DseCandidate {
                keep_ratios: vec![keep, keep * 0.5],
                tile_sizes: vec![bc, bc / 2],
            },
            metrics: MetricVector {
                loss,
                cycles,
                energy_pj: energy,
                area_mm2: 5.0,
            },
        };
        let points = [
            entry(0.25, 16, 0.10, 120, 6.0e7),
            entry(0.4, 32, 0.11, 80, 9.0e7),
            entry(0.05, 8, 0.30, 40, 2.0e7),
        ];
        sofa_dse::ParetoFront::new(&points, &entry(0.25, 16, 0.12, 130, 7.0e7))
    }

    fn random_trace(seed: u64) -> RequestTrace {
        let mut tc = TraceConfig::new(12, 150.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        RequestTrace::generate(&tc)
    }

    /// Whether two lowerings are the same bits.
    fn same_point(a: &PointLowering, b: &PointLowering) -> bool {
        a.job == b.job
            && a.footprint == b.footprint
            && a.energy_pj.to_bits() == b.energy_pj.to_bits()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The deduplicated pass gives each request exactly what lowering it
        /// alone through the router gives, at any thread count: sharing a
        /// representative's lowering changes no bit.
        #[test]
        fn table_lowerings_equal_lower_routed_alone(
            seed in 0u64..1_000,
            router in 0usize..3,
            budgeted in proptest::bool::ANY,
        ) {
            let trace = random_trace(seed);
            let (front, fixed) = (small_front(), OperatingPoint::uniform(0.3, 8, 2));
            let router = [
                OpRouter::TraceNative,
                OpRouter::Fixed(&fixed),
                OpRouter::Pareto(&front),
            ][router];
            let mut cfg = ServeConfig::new(HwConfig::small(), 1);
            cfg.energy_budget_pj_per_req = budgeted.then_some(3.0e6);
            let csim = CycleSim::new(cfg.hw);
            for threads in [1, 2, 8] {
                let mut cache = LowerCache::default();
                let table = sofa_par::with_threads(threads, || {
                    lower_trace(&cfg, &csim, &trace, &router, &mut cache)
                });
                for (i, spec) in trace.requests.iter().enumerate() {
                    let alone = lower_routed(&cfg, &csim, spec, &router);
                    let low = &table[i];
                    let same = same_point(&low.point(), &alone.point());
                    proptest::prop_assert!(same, "request {}", i);
                    proptest::prop_assert_eq!(&low.op, &alone.op);
                    let flags = (low.rerouted, low.admit);
                    proptest::prop_assert_eq!(flags, (alone.rerouted, alone.admit));
                }
                let stats = cache.stats();
                proptest::prop_assert_eq!(stats.hits + stats.misses, trace.len() as u64);
            }
        }

        /// `lower_at_cached` answers every lookup with exactly what a fresh
        /// `lower_at` computes, on caches warmed by random lookups of
        /// multi-layer points and of retry keeps shrunk by the attempt count.
        #[test]
        fn cached_lowerings_equal_fresh_lowerings(
            seed in 0u64..1_000,
            lookups in proptest::collection::vec((0usize..12, 0usize..4, 0i32..4), 1..24),
        ) {
            let trace = random_trace(seed);
            let cfg = ServeConfig::new(HwConfig::small(), 1);
            let csim = CycleSim::new(cfg.hw);
            let bases = [
                cfg.op.clone(),
                OperatingPoint::new(vec![0.3, 0.2], vec![32, 16]).unwrap(),
                OperatingPoint::uniform(0.25, 8, 3),
                small_front().leanest_energy(),
            ];
            for threads in [1, 2, 8] {
                let mut cache = LowerCache::default();
                let mut keys = std::collections::HashSet::new();
                for &(req, base, attempt) in &lookups {
                    let (spec, base) = (&trace.requests[req], &bases[base]);
                    let keep = (base.mean_keep() * 0.5f64.powi(attempt)).max(0.01);
                    let op = if attempt == 0 { base.clone() } else { base.with_uniform_keep(keep) };
                    let cached = sofa_par::with_threads(threads, || {
                        lower_at_cached(&mut cache, &csim, spec, &op)
                    });
                    proptest::prop_assert!(same_point(&cached, &lower_at(&csim, spec, &op)));
                    keys.insert(ShapeKey::new(spec, &op));
                }
                let stats = cache.stats();
                proptest::prop_assert_eq!(stats.misses, keys.len() as u64);
                proptest::prop_assert_eq!(stats.hits + stats.misses, lookups.len() as u64);
            }
        }
    }

    /// A wait queue of `(id, arrival)` pushes, in order.
    fn queue(pushes: &[(usize, u64)]) -> WaitQueue {
        let mut waiting = WaitQueue::default();
        for &(req, at) in pushes {
            waiting.push(req, at);
        }
        waiting
    }

    #[test]
    fn pick_scans_only_the_window() {
        // (arrival, footprint) of requests 0..3; the smallest is last.
        let reqs = [(10, 300), (20, 200), (30, 100)];
        let waiting = queue(&[(0, 10), (1, 20), (2, 30)]);
        let (arrival, footprint) = (|r: usize| reqs[r].0, |r: usize| reqs[r].1);
        let pick_in = |window| pick(AGING_THRESHOLD, 50, &waiting, window, arrival, footprint);
        assert_eq!(pick_in(3), 2);
        assert_eq!(pick_in(2), 1);
        assert_eq!(pick_in(1), 0);
    }

    #[test]
    #[should_panic(expected = "wait queue push out of arrival order")]
    fn wait_queue_rejects_a_push_that_arrives_before_the_last() {
        // No driver can queue a request ahead of one that arrived later:
        // the oldest-first pick and the decay frontier rely on it.
        queue(&[(0, 500_000), (1, 0)]);
    }

    #[test]
    fn aging_picks_the_least_id_of_the_heads_equal_arrival_run() {
        // Requests 0..3 as (arrival, footprint). The head is request 2, a
        // small request smallest-first picking loves; behind it at the same
        // arrival waits request 0, the true oldest by `(arrival, id)`, large
        // enough to lose every footprint comparison.
        let reqs = [(0, 1_000), (50, 4), (0, 8)];
        let waiting = queue(&[(2, 0), (0, 0), (1, 50)]);
        let (arrival, footprint) = (|r: usize| reqs[r].0, |r: usize| reqs[r].1);
        let pick_at = |now| pick(AGING_THRESHOLD, now, &waiting, 3, arrival, footprint);
        assert_eq!(
            pick_at(550_000),
            1,
            "the aged pick takes the least id of the head's run, not the head"
        );
    }

    #[test]
    fn below_the_aging_threshold_the_smallest_request_wins() {
        let reqs = [(0, 1_000), (40_000, 8)];
        let waiting = queue(&[(0, 0), (1, 40_000)]);
        let (arrival, footprint) = (|r: usize| reqs[r].0, |r: usize| reqs[r].1);
        assert_eq!(
            pick(AGING_THRESHOLD, 50_000, &waiting, 2, arrival, footprint),
            1
        );
    }

    /// The pick as it was before the arrival order was asserted: the oldest
    /// `(arrival, id)` and the smallest `(footprint, id)` by full scans of
    /// the window.
    fn pick_by_scan(
        aged_after: u64,
        now: u64,
        waiting: &[usize],
        window: usize,
        arrival: impl Fn(usize) -> u64,
        footprint: impl Fn(usize) -> u64,
    ) -> usize {
        let first_min = |key: &dyn Fn(usize) -> u64| {
            waiting
                .iter()
                .take(window)
                .enumerate()
                .min_by_key(|&(_, &req)| (key(req), req))
                .map(|(pos, _)| pos)
                .expect("waiting is non-empty")
        };
        let oldest = first_min(&arrival);
        if now.saturating_sub(arrival(waiting[oldest])) >= aged_after {
            return oldest;
        }
        first_min(&footprint)
    }

    /// The decay walk as it was before the frontier: every unchecked
    /// waiting request that has waited `threshold` cycles, in queue order,
    /// marked in the per-request `checked` flags.
    fn overdue_by_scan(
        waiting: &[usize],
        checked: &mut [bool],
        now: u64,
        threshold: u64,
        arrival: impl Fn(usize) -> u64,
    ) -> Vec<usize> {
        let mut overdue = Vec::new();
        for &req in waiting {
            if checked[req] || now.saturating_sub(arrival(req)) < threshold {
                continue;
            }
            checked[req] = true;
            overdue.push(req);
        }
        overdue
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The head-run pick and the decay frontier choose exactly what the
        /// full scans choose, over random arrival-ordered queues: pushes
        /// that often share an arrival and take ids out of order, time
        /// steps, picks over windows from 1 entry to the whole queue (each
        /// picked request removed or left), removals at any position ahead
        /// of and behind the frontier, footprint changes between picks and
        /// decay walks.
        #[test]
        fn head_run_pick_and_decay_frontier_match_the_full_scans(
            thresholds in (0usize..5, 0usize..4),
            ops in proptest::collection::vec((0u8..7, 0usize..5, 0usize..5), 1..300),
        ) {
            const IDS: usize = 256;
            let aging = [0, 5, 50, 500, u64::MAX][thresholds.0];
            let decay = [0, 10, 100, 1_000][thresholds.1];
            let mut arrival = [0u64; IDS];
            let mut footprint = [0u64; IDS];
            let mut checked = [false; IDS];
            let mut reference: Vec<usize> = Vec::new();
            let mut waiting = WaitQueue::default();
            let (mut now, mut pushed) = (0u64, 0usize);
            for (op, a, b) in ops {
                match op {
                    // Push at the current time or just after it; ids step
                    // by 97 mod 256, so an equal-arrival run holds them out
                    // of order.
                    0 | 1 if pushed < IDS => {
                        now += [0, 0, 0, 1, 7][a];
                        let req = pushed * 97 % IDS;
                        pushed += 1;
                        (arrival[req], footprint[req]) = (now, [1, 2, 3, 1_000, 0][b]);
                        waiting.push(req, now);
                        reference.push(req);
                    }
                    2 => now += [1, 4, 30, 300, 3_000][a],
                    3 if !reference.is_empty() => {
                        let window = [1, 2, 3, 8, reference.len()][a];
                        let pos = pick(aging, now, &waiting, window, |r| arrival[r], |r| footprint[r]);
                        let expect = pick_by_scan(
                            aging, now, &reference, window, |r| arrival[r], |r| footprint[r],
                        );
                        proptest::prop_assert_eq!(pos, expect);
                        if b < 3 {
                            proptest::prop_assert_eq!(waiting.remove(pos), reference.remove(pos));
                        }
                    }
                    4 if !reference.is_empty() => {
                        let pos = (a * 7 + b) % reference.len();
                        proptest::prop_assert_eq!(waiting.remove(pos), reference.remove(pos));
                    }
                    5 => {
                        let expect =
                            overdue_by_scan(&reference, &mut checked, now, decay, |r| arrival[r]);
                        let mut overdue = Vec::new();
                        while let Some(req) = waiting.next_overdue(now, decay, |r| arrival[r]) {
                            overdue.push(req);
                        }
                        proptest::prop_assert_eq!(overdue, expect);
                    }
                    6 if !reference.is_empty() => {
                        let req = reference[a % reference.len()];
                        footprint[req] = [1, 2, 3, 1_000, 0][b];
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(waiting.len(), reference.len());
            }
        }
    }

    #[test]
    fn aged_picks_and_the_decay_frontier_read_a_constant_per_decision() {
        // A 10,000-request backlog arriving in equal-arrival runs of 4, each
        // run pushed in descending id order. Time keeps pace with the
        // admissions, so the head has always aged and the decay frontier
        // runs a fixed distance ahead of it, with a long young tail behind.
        const N: usize = 10_000;
        const RUN: usize = 4;
        const DECISION_READS: u64 = RUN as u64 + 3;
        const AGING: u64 = 1_000;
        let decay = 500;
        let at = |req: usize| (req / RUN) as u64 * 10;
        let reads = std::cell::Cell::new(0u64);
        let arrival = |req| {
            reads.set(reads.get() + 1);
            at(req)
        };
        let footprint = |req: usize| {
            reads.set(reads.get() + 1);
            req as u64
        };
        let mut waiting = WaitQueue::default();
        for run in 0..N / RUN {
            for req in (run * RUN..(run + 1) * RUN).rev() {
                waiting.push(req, at(req));
            }
        }
        for admitted in 0..N {
            let now = at(admitted) + AGING;
            while waiting.next_overdue(now, decay, arrival).is_some() {}
            let pos = pick(AGING, now, &waiting, waiting.len(), arrival, footprint);
            assert_eq!(
                waiting.remove(pos),
                admitted,
                "the oldest request goes first"
            );
        }
        assert!(waiting.is_empty());
        // Per decision: the head, its run and the entry behind it for the
        // pick, and one read where the decay walk stops; each request
        // passes the frontier once.
        let bound = N as u64 * DECISION_READS + N as u64;
        assert!(
            reads.get() <= bound,
            "{} arrival and footprint reads for {N} decisions (bound {bound})",
            reads.get()
        );
    }
}
