//! The admission core shared by [`ServeSim`](crate::ServeSim) and
//! [`FleetServeSim`](crate::FleetServeSim). [`Admission`] makes every
//! admission decision of one run: the [`Intake`] of original arrivals, each
//! lowered on arrival through a first-sight dedup map, and of retry
//! re-arrivals; the [`Slab`] of live requests; the [`WaitQueue`]; the aged
//! smallest-first [`pick`]; the per-slot [`Bookings`] and the adaptive
//! controller (decay, feedback pressure and retries). Admission books the
//! sparsity-reduced `T×k` footprint; overbooking it Tailors-style is a
//! larger [`ServeConfig::admit_buffer_bytes`].
//!
//! **Memory.** A run holds state only for its live requests: those
//! waiting, in flight or backing off for a retry, one [`Slab`] entry each.
//! It reads its requests from a [`RequestSource`] one at a time, lowers the
//! first request of each distinct shape and operating point and shares that
//! lowering with the rest, and frees a request's entry when it completes or
//! is finally shed. Nothing the core keeps grows with the number of
//! requests offered; what does grow is a driver's choice (the single node's
//! per-request records).
//!
//! A driver keeps its clock and what it does with an admitted request. The
//! single node is event-exact: it takes one external event strictly before
//! its next simulation event, and admits from the whole wait queue after
//! each external event and each step that completes a request. The fleet
//! steps in epochs: it completes a boundary's requests node by node, takes
//! every external event below the boundary, then admits from a window at
//! the queue head. Each driver's place and submit closures choose the slot
//! and run the request there, and each driver keeps its own energy sum.
//! Only the single node traces; the core buffers its adaptive instants and
//! first lowerings for it.

use crate::scheduler::{FeedbackConfig, OpRouter, ServeConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::Chain;
use std::ops::{Index, IndexMut, Range};
use std::option;
use std::rc::Rc;
use std::sync::Arc;

use sofa_core::cache::{CacheStats, LoweringCache, ShapeKey};
use sofa_hw::accel::AttentionTask;
use sofa_hw::energy::DRAM_ACTIVATION_PJ;
use sofa_model::trace::{RequestClass, RequestSource, RequestSpec};
use sofa_model::OperatingPoint;
use sofa_sim::{CycleSim, PipelineJob};

/// The waiting requests in effective-arrival order, plus the decay
/// frontier.
///
/// Both drivers push in that order: [`Intake`] hands out external events in
/// time order, and a queued request's effective arrival is the cycle it was
/// handed out at (a retry's is its re-arrival). [`WaitQueue::push`] asserts
/// it. So the oldest waiting request is in the head's equal-arrival run
/// ([`pick`]), and the requests that have waited past any threshold are a
/// prefix of the queue ([`WaitQueue::next_overdue`]).
///
/// The queue holds [`Slab`] keys up to its first deferred original
/// arrival, and behind it, [`Behind`] runs: counts of deferred originals
/// and the keys of requests queued after them. A deferred original has no
/// entry yet; [`Admission`] makes it one when the pick window or the decay
/// frontier reaches it. A backlog the picks do not reach costs a count, not
/// an entry per request.
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    /// The keys of the requests ahead of the first deferred original.
    reqs: VecDeque<usize>,
    /// The rest of the queue, in order.
    behind: VecDeque<Behind>,
    /// Requests in `behind`, and how many of them are deferred originals.
    behind_len: usize,
    deferred: usize,
    /// Effective arrival of the last push; no push may arrive earlier.
    last_arrival: u64,
    /// Requests ahead of this position were already handed out by
    /// [`WaitQueue::next_overdue`].
    frontier: usize,
}

/// A run of the wait queue behind its first deferred original.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Behind {
    /// This many deferred original arrivals, in id order.
    Originals(usize),
    /// The [`Slab`] key of one queued request.
    Request(usize),
}

impl WaitQueue {
    /// Asserts that a push at `arrival` keeps the queue in arrival order.
    fn arrive(&mut self, arrival: u64) {
        assert!(
            arrival >= self.last_arrival,
            "wait queue push out of arrival order: a request arrives at {arrival}, \
             after a push at {}",
            self.last_arrival
        );
        self.last_arrival = arrival;
    }

    /// Appends `req`, whose effective arrival is `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is earlier than the last push's.
    pub(crate) fn push(&mut self, req: usize, arrival: u64) {
        self.arrive(arrival);
        if self.behind.is_empty() {
            self.reqs.push_back(req);
        } else {
            self.behind.push_back(Behind::Request(req));
            self.behind_len += 1;
        }
    }

    /// Appends an original arrival at `arrival` without an entry.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is earlier than the last push's.
    fn defer(&mut self, arrival: u64) {
        self.arrive(arrival);
        match self.behind.back_mut() {
            Some(Behind::Originals(n)) => *n += 1,
            _ => self.behind.push_back(Behind::Originals(1)),
        }
        self.behind_len += 1;
        self.deferred += 1;
    }

    /// Whether an original arriving now should be deferred: the queue holds
    /// `held` keyed requests already, or defers some.
    fn defers(&self, held: usize) -> bool {
        !self.behind.is_empty() || self.reqs.len() >= held
    }

    /// Takes the first request behind the keyed ones: its key, or
    /// `Originals(1)` for a deferred original, which the caller keys. The
    /// caller appends the key to the keyed ones.
    fn pop_behind(&mut self) -> Option<Behind> {
        let front = self.behind.front_mut()?;
        self.behind_len -= 1;
        match front {
            Behind::Originals(n) => {
                self.deferred -= 1;
                *n -= 1;
                if *n == 0 {
                    self.behind.pop_front();
                }
                Some(Behind::Originals(1))
            }
            Behind::Request(_) => self.behind.pop_front(),
        }
    }

    /// Number of waiting requests.
    pub(crate) fn len(&self) -> usize {
        self.reqs.len() + self.behind_len
    }

    /// Whether no request is waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns the keyed request at `pos`. A removal ahead of
    /// the decay frontier moves it back by one.
    pub(crate) fn remove(&mut self, pos: usize) -> usize {
        if pos < self.frontier {
            self.frontier -= 1;
        }
        self.reqs.remove(pos).expect("position is in the queue")
    }

    /// The next keyed request behind the decay frontier if it has waited at
    /// least `threshold` cycles at `now`, moving the frontier past it. Each
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

/// One live request: offered, and not yet completed or finally shed.
#[derive(Debug)]
pub(crate) struct Live {
    /// Position in the run's source order: the request's id, which breaks
    /// the pick's ties.
    pub(crate) seq: usize,
    pub(crate) spec: RequestSpec,
    /// Its current lowering.
    pub(crate) low: Rc<Lowered>,
    /// Effective arrival: the spec's arrival cycle, or the re-arrival time
    /// once a shed request's retry is admitted (latency is measured from
    /// the client's live submission).
    pub(crate) arrival: u64,
    /// The feedback pressure level of its current lowering (0 unless the
    /// router is [`OpRouter::Feedback`]).
    level: u8,
    /// Whether decay re-lowered it while it waited.
    pub(crate) decayed: bool,
    /// Client re-submissions so far.
    pub(crate) attempts: u32,
}

impl Live {
    /// Original arrival `seq` with its first lowering.
    fn original(seq: usize, spec: RequestSpec, low: Rc<Lowered>) -> Self {
        Live {
            seq,
            spec,
            low,
            arrival: spec.arrival_cycle,
            level: 0,
            decayed: false,
            attempts: 0,
        }
    }

    /// Moves the request to `lowering` at `op`, marked re-routed. Callers
    /// re-lower only within the energy budget, so the request is admitted.
    fn reroute(&mut self, op: OperatingPoint, lowering: PointLowering) {
        self.low = Rc::new(Lowered {
            op,
            job: lowering.job,
            footprint: lowering.footprint,
            energy_pj: lowering.energy_pj,
            rerouted: true,
            admit: true,
        });
    }
}

/// The live requests of one run — waiting, in flight, or backing off for a
/// retry — in recycled entries. [`Intake`] takes an entry for each request
/// it reads; completion or the final shed frees it, and the next request
/// reuses the most recently freed entry. So the table is as long as the
/// most requests ever live at once, whatever the run was offered.
#[derive(Debug, Default)]
pub(crate) struct Slab {
    /// The entries; their count is the table's high-water mark.
    entries: Vec<Option<Live>>,
    /// Free entries, the most recently freed last.
    free: Vec<usize>,
    /// Requests live now, and the most live at once so far.
    live: usize,
    peak_live: usize,
}

impl Slab {
    /// Stores `req` and returns its key.
    fn insert(&mut self, req: Live) -> usize {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(key) => {
                self.entries[key] = Some(req);
                key
            }
            None => {
                self.entries.push(Some(req));
                self.entries.len() - 1
            }
        }
    }

    /// Removes and returns the request at `key`, freeing its entry.
    fn remove(&mut self, key: usize) -> Live {
        let req = self.entries[key].take().expect("a live request");
        self.free.push(key);
        self.live -= 1;
        req
    }
}

impl Index<usize> for Slab {
    type Output = Live;

    fn index(&self, key: usize) -> &Live {
        self.entries[key].as_ref().expect("a live request")
    }
}

impl IndexMut<usize> for Slab {
    fn index_mut(&mut self, key: usize) -> &mut Live {
        self.entries[key].as_mut().expect("a live request")
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
/// the adaptive re-lowering mechanisms; the intake's first-sight dedup
/// ([`Admission`]) stores its representatives in the same cache.
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
/// for maps that are only looked up, never iterated: the intake's
/// first-sight dedup hashes every request's key, and SipHash's resistance
/// to crafted keys buys nothing on keys a trace generator made. `finish`
/// rotates the well-mixed high bits into the low bits the table indexes
/// by.
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

/// The arrival side of admission: the run's request source read one
/// request ahead, and the retry heap of shed requests awaiting their client
/// backoff ([`ServeConfig::retry`]).
#[derive(Debug)]
pub(crate) struct Intake<'a> {
    source: RequestSource<'a>,
    /// The next original arrival, read ahead from `source`.
    next: Option<RequestSpec>,
    /// Original arrivals taken so far: the id of the next one.
    taken: usize,
    /// Shed requests awaiting their client backoff: (re-arrival, id, slab
    /// key).
    retries: BinaryHeap<Reverse<(u64, usize, usize)>>,
}

impl<'a> Intake<'a> {
    fn new(mut source: RequestSource<'a>) -> Self {
        Intake {
            next: source.next(),
            source,
            taken: 0,
            retries: BinaryHeap::new(),
        }
    }

    /// The next external event's cycle and whether it is a retry
    /// re-arrival. Original arrivals go first on ties: the retried client
    /// re-submits just behind the fresh traffic.
    #[inline]
    fn peek(&self) -> Option<(u64, bool)> {
        let arrival = self.next.as_ref().map(|r| r.arrival_cycle);
        let retry = self.retries.peek().map(|&Reverse((t, ..))| t);
        match (arrival, retry) {
            (Some(a), Some(r)) if r < a => Some((r, true)),
            (Some(a), _) => Some((a, false)),
            (None, r) => r.map(|r| (r, true)),
        }
    }

    /// Takes the next original arrival and its id.
    fn pop_original(&mut self) -> (usize, RequestSpec) {
        let spec = self.next.take().expect("an arrival was peeked");
        self.next = self.source.next();
        self.taken += 1;
        (self.taken - 1, spec)
    }
}

/// The original arrivals from the first deferred one on, read again: the
/// run's source a second time, behind its intake.
struct Replay<'a> {
    /// The id of the next request `specs` yields.
    seq: usize,
    specs: Chain<
        Chain<option::IntoIter<RequestSpec>, option::IntoIter<RequestSpec>>,
        RequestSource<'a>,
    >,
}

/// Waiting cycles beyond which the oldest request is picked ahead of the
/// smallest: the starvation bound of smallest-first admission.
pub(crate) const AGING_THRESHOLD: u64 = 100_000;

/// Position in `waiting` of the next request to try, among its first
/// `window` entries: the oldest request if it has waited at least
/// `aged_after` cycles at `now` (the drivers pass [`AGING_THRESHOLD`]),
/// else the one with the smallest footprint. `arrival` and `footprint` read
/// a waiting request's effective arrival and booked bytes, each paired
/// with the request's id, which breaks ties.
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
    arrival: impl Fn(usize) -> (u64, usize),
    footprint: impl Fn(usize) -> (u64, usize),
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
fn oldest(
    waiting: &WaitQueue,
    window: usize,
    arrival: impl Fn(usize) -> (u64, usize),
) -> (usize, u64) {
    let (arrived, _) = arrival(waiting[0]);
    let run = waiting.reqs.iter().take(window).map(|&req| arrival(req));
    let (pos, _) = run
        .take_while(|&(at, _)| at == arrived)
        .enumerate()
        .min_by_key(|&(_, oldest)| oldest)
        .expect("a non-empty queue and window");
    (pos, arrived)
}

/// Position of the first request with the least `key` among the first
/// `window` entries of `waiting`.
fn first_min(waiting: &WaitQueue, window: usize, key: impl Fn(usize) -> (u64, usize)) -> usize {
    waiting
        .reqs
        .iter()
        .take(window)
        .enumerate()
        .min_by_key(|&(_, &req)| key(req))
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
    /// Its [`Slab`] key, which [`Admission::complete`] takes back.
    pub(crate) key: usize,
    /// The request, with its lowering at admission.
    pub(crate) req: &'l Live,
    /// Requests still waiting after it left the queue.
    pub(crate) waiting: usize,
    /// Bytes booked on `slot` with it.
    pub(crate) booked: u64,
}

/// What [`Admission::complete`] tells the driver about a completed request.
pub(crate) struct Completed {
    pub(crate) class: RequestClass,
    /// Its effective arrival.
    pub(crate) arrival: u64,
    /// Whether any mechanism re-routed it away from its first-pick point.
    pub(crate) rerouted: bool,
    /// The new feedback pressure level, under [`OpRouter::Feedback`].
    pub(crate) level: Option<u8>,
}

/// What a run leaves behind once [`Admission::finish`] has checked it.
pub(crate) struct Finished {
    /// Each slot's peak booked bytes.
    pub(crate) peaks: Vec<u64>,
    pub(crate) stats: CacheStats,
    /// Original arrivals the run took.
    pub(crate) offered: u64,
    /// The most requests live at once.
    #[cfg(test)]
    pub(crate) peak_live: usize,
    /// The [`Slab`]'s high-water mark.
    #[cfg(test)]
    pub(crate) high_water: usize,
}

/// All admission state and policy of one run (see the module docs).
pub(crate) struct Admission<'a> {
    cfg: &'a ServeConfig,
    router: OpRouter<'a>,
    csim: CycleSim,
    cache: LowerCache,
    /// Each distinct `(request shape, routed operating point)` key's
    /// lowering, made by the key's first request and shared by the rest.
    seen: HashMap<ShapeKey, Rc<Lowered>, BuildHasherDefault<MulHasher>>,
    /// One key, refilled per request: a request that shares a lowering
    /// allocates nothing; only a new key is cloned.
    shape: ShapeKey,
    /// The router's pick per request class, computed on first use.
    routed: [Option<OperatingPoint>; 2],
    /// The live requests.
    pub(crate) live: Slab,
    intake: Intake<'a>,
    /// The deferred originals' specs, while any wait; `None` otherwise.
    replay: Option<Replay<'a>>,
    waiting: WaitQueue,
    /// How many waiting requests (oldest first) each pick reads.
    window: usize,
    /// How many keyed requests may wait before an arriving original is
    /// deferred: `window` unless a test turns deferral off.
    pub(crate) defer_after: usize,
    bookings: Bookings,
    /// Retry re-arrivals admitted back into the wait queue.
    pub(crate) retried: u64,
    pressure: Pressure,
    /// Adaptive instants in the order they happened; `None` unless traced.
    pub(crate) events: Option<Vec<AdaptiveEvent>>,
    /// Each original arrival's first lowering, in id order; `None` unless
    /// traced.
    pub(crate) first: Option<Vec<Rc<Lowered>>>,
}

impl<'a> Admission<'a> {
    /// Admission of the requests of `source`, each lowered through `router`
    /// as it arrives, onto `slots` instance slots, picking among the first
    /// `window` waiting requests; `traced` buffers the adaptive instants
    /// and the first lowerings. An original that arrives while `window`
    /// requests wait ahead of it is deferred: it holds no entry until a
    /// pick or the decay frontier reaches it.
    ///
    /// # Panics
    ///
    /// Panics if `source` is empty, `window` is 0 or a
    /// [`OpRouter::Feedback`] configuration fails
    /// [`FeedbackConfig::validate`].
    pub(crate) fn new(
        cfg: &'a ServeConfig,
        router: OpRouter<'a>,
        source: RequestSource<'a>,
        slots: usize,
        window: usize,
        traced: bool,
    ) -> Self {
        if let OpRouter::Feedback(_, fb) = router {
            fb.validate().expect("invalid feedback config");
        }
        let intake = Intake::new(source);
        assert!(intake.next.is_some(), "cannot serve an empty trace");
        assert!(window > 0, "the pick window holds at least one request");
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        Admission {
            cfg,
            router,
            csim,
            cache: LowerCache::default(),
            seen: HashMap::default(),
            shape: ShapeKey::default(),
            routed: [None, None],
            live: Slab::default(),
            intake,
            replay: None,
            waiting: WaitQueue::default(),
            window,
            defer_after: window,
            bookings: Bookings::new(slots),
            retried: 0,
            pressure: Pressure {
                latency: vec![0.0; slots],
                energy: vec![0.0; slots],
                ..Pressure::default()
            },
            events: traced.then(Vec::new),
            first: traced.then(Vec::new),
        }
    }

    /// Cycle of the next external event, if any is left.
    #[inline]
    pub(crate) fn next_arrival(&self) -> Option<u64> {
        self.intake.peek().map(|(t, _)| t)
    }

    /// Requests waiting for admission.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Bytes booked on `slot`.
    pub(crate) fn booked(&self, slot: usize) -> u64 {
        self.bookings.bytes[slot]
    }

    /// Takes the next external event strictly before `bound` (any event
    /// when `bound` is `None`) and returns its cycle, request id and
    /// outcome. An original arrival takes a [`Slab`] entry and its
    /// lowering ([`Admission::lower_first`]), and queues if that lowering
    /// is admitted. A retry re-arrival is re-lowered through the cache at
    /// its attempt's leaner keep; if that fits the energy budget, the
    /// request switches to it and queues at the re-arrival cycle. A request
    /// that does not fit backs off while [`ServeConfig::retry`] leaves it
    /// an attempt, and is shed, its entry freed, otherwise. Inlined: the
    /// single node asks once per simulation event, and almost always gets
    /// `None`.
    #[inline]
    pub(crate) fn next_external(&mut self, bound: Option<u64>) -> Option<(u64, usize, Arrival)> {
        let (now, is_retry) = self.intake.peek()?;
        if bound.is_some_and(|b| now >= b) {
            return None;
        }
        Some(self.take(now, is_retry))
    }

    fn take(&mut self, now: u64, is_retry: bool) -> (u64, usize, Arrival) {
        let (seq, key, energy_pj) = if is_retry {
            let Reverse((_, seq, key)) = self.intake.retries.pop().expect("a retry was peeked");
            let policy = self.cfg.retry.expect("retries require a policy");
            let req = &mut self.live[key];
            req.attempts += 1;
            // The fixed point, the front's leanest point or the deployment
            // point, with its keep shrunk by `keep_factorᵃᵗᵗᵉᵐᵖᵗ`, floored at
            // 1%. The shrunk keep is part of the cache key, so repeat
            // attempts at the same level hit.
            let base = match self.router {
                OpRouter::Fixed(op) => op.clone(),
                router => router.leaner().unwrap_or_else(|| self.cfg.op.clone()),
            };
            let keep = (base.mean_keep() * policy.keep_factor.powi(req.attempts as i32)).max(0.01);
            let op = base.with_uniform_keep(keep);
            let lowering = lower_at_cached(&mut self.cache, &self.csim, &req.spec, &op);
            if !self.cfg.over_energy_budget(lowering.energy_pj) {
                req.reroute(op, lowering);
                req.arrival = now;
                let attempt = req.attempts;
                self.retried += 1;
                self.note(seq, now, AdaptiveKind::Retry(attempt));
                self.waiting.push(key, now);
                return (now, seq, Arrival::Queued);
            }
            (seq, key, lowering.energy_pj)
        } else {
            let (seq, spec) = self.intake.pop_original();
            let low = self.lower_first(&spec);
            if let Some(first) = &mut self.first {
                first.push(Rc::clone(&low));
            }
            if low.admit && self.waiting.defers(self.defer_after) {
                if self.replay.is_none() {
                    let intake = &self.intake;
                    let specs = Some(spec).into_iter().chain(intake.next);
                    self.replay = Some(Replay {
                        seq,
                        specs: specs.chain(intake.source.clone()),
                    });
                }
                self.waiting.defer(now);
                return (now, seq, Arrival::Queued);
            }
            let (admit, energy_pj) = (low.admit, low.energy_pj);
            let key = self.live.insert(Live::original(seq, spec, low));
            if admit {
                self.waiting.push(key, now);
                return (now, seq, Arrival::Queued);
            }
            (seq, key, energy_pj)
        };
        let attempt = self.live[key].attempts;
        let arrival = match self.cfg.retry {
            Some(policy) if attempt < policy.max_retries => {
                let retry = Reverse((now + policy.backoff_cycles, seq, key));
                self.intake.retries.push(retry);
                self.note(seq, now, AdaptiveKind::RetryShed(attempt));
                Arrival::BackedOff
            }
            _ => {
                if attempt > 0 {
                    self.note(seq, now, AdaptiveKind::Shed(energy_pj));
                }
                self.live.remove(key);
                Arrival::Shed { attempt, energy_pj }
            }
        };
        (now, seq, arrival)
    }

    /// The lowering of an original arrival through the router, with the
    /// energy budget applied ([`lower_routed`]). The first request of each
    /// `(request shape, routed operating point)` key lowers it and stores
    /// it in the cache, as a miss; every later request of the key shares
    /// it, as a hit.
    fn lower_first(&mut self, spec: &RequestSpec) -> Rc<Lowered> {
        let (cfg, router) = (self.cfg, &self.router);
        router.refill_key(&cfg.op, spec, &mut self.shape, &mut self.routed);
        if let Some(low) = self.seen.get(&self.shape) {
            self.cache.record_shared_hits(1);
            return Rc::clone(low);
        }
        let low = Rc::new(lower_routed(cfg, &self.csim, spec, router));
        self.cache
            .insert_computed(ShapeKey::new(spec, &low.op), low.point());
        self.seen.insert(self.shape.clone(), Rc::clone(&low));
        low
    }

    /// Gives the next deferred original its entry and returns its key. The
    /// replay skips the originals the intake did not defer: deferral starts
    /// a replay only when nothing is deferred, and while anything is, every
    /// admitted original is deferred, so those skipped are the ones the
    /// energy budget did not admit.
    fn key_deferred(&mut self) -> usize {
        let mut replay = self.replay.take().expect("a deferred original waits");
        let key = loop {
            let spec = replay
                .specs
                .next()
                .expect("the replay reaches every deferred original");
            let seq = replay.seq;
            replay.seq += 1;
            let low = self.lowering_of(&spec);
            if low.admit {
                break self.live.insert(Live::original(seq, spec, low));
            }
        };
        if self.waiting.deferred > 0 {
            self.replay = Some(replay);
        }
        key
    }

    /// The lowering [`Admission::lower_first`] gave `spec` at its arrival,
    /// looked up again without counting a cache lookup.
    fn lowering_of(&mut self, spec: &RequestSpec) -> Rc<Lowered> {
        let (cfg, router) = (self.cfg, &self.router);
        router.refill_key(&cfg.op, spec, &mut self.shape, &mut self.routed);
        Rc::clone(self.seen.get(&self.shape).expect("lowered at its arrival"))
    }

    /// Keys waiting requests from behind the keyed ones until `keyed`
    /// requests are keyed or none waits behind them.
    fn key_waiting(&mut self, keyed: usize) {
        while self.waiting.reqs.len() < keyed {
            let key = match self.waiting.pop_behind() {
                None => return,
                Some(Behind::Request(key)) => key,
                Some(Behind::Originals(_)) => self.key_deferred(),
            };
            self.waiting.reqs.push_back(key);
        }
    }

    /// Completes the request at `key` on `slot` at `now`: releases its
    /// booking, frees its entry and, under [`OpRouter::Feedback`], folds
    /// its latency and energy into the pressure EWMAs.
    pub(crate) fn complete(&mut self, slot: usize, key: usize, now: u64) -> Completed {
        let req = self.live.remove(key);
        self.bookings.release(slot, req.low.footprint);
        let level = match self.router {
            OpRouter::Feedback(_, fb) => {
                let latency = (now - req.arrival) as f64;
                let depth = self.waiting.len() as f64;
                self.pressure
                    .observe(fb, slot, latency, req.low.energy_pj, depth);
                Some(self.pressure.level(fb))
            }
            _ => None,
        };
        Completed {
            class: req.spec.class,
            arrival: req.arrival,
            rerouted: req.low.rerouted,
            level,
        }
    }

    /// Admits waiting requests at `now` until the picked one fits nowhere.
    /// Decay first re-lowers the requests that waited past the threshold;
    /// each pick (among the first `window` waiting requests, keyed first)
    /// is re-lowered for the current feedback pressure, `place` chooses its
    /// slot from the bookings, its class and its footprint, and `submit`
    /// runs it there. Stopping at a request that fits nowhere, rather than
    /// skipping to a smaller one, keeps the aged head from being overtaken
    /// forever.
    pub(crate) fn admit(
        &mut self,
        now: u64,
        place: impl Fn(&Bookings, RequestClass, u64) -> Option<usize>,
        mut submit: impl FnMut(Admitted),
    ) {
        self.decay(now);
        while !self.waiting.is_empty() {
            self.key_waiting(self.window);
            let live = &self.live;
            let arrival = |k: usize| (live[k].arrival, live[k].seq);
            let footprint = |k: usize| (live[k].low.footprint, live[k].seq);
            let pos = pick(
                AGING_THRESHOLD,
                now,
                &self.waiting,
                self.window,
                arrival,
                footprint,
            );
            let key = self.waiting[pos];
            self.relower_for_pressure(now, key);
            let req = &self.live[key];
            let Some(slot) = place(&self.bookings, req.spec.class, req.low.footprint) else {
                return;
            };
            self.waiting.remove(pos);
            self.bookings.book(slot, req.low.footprint);
            submit(Admitted {
                slot,
                key,
                req,
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
        loop {
            self.key_waiting(self.waiting.frontier + 1);
            let overdue = self
                .waiting
                .next_overdue(now, threshold, |k| self.live[k].arrival);
            let Some(key) = overdue else {
                return;
            };
            let Some(target) = self.router.decay_target(self.live[key].spec.class) else {
                continue;
            };
            if self.reroute_within_budget(key, target) {
                self.live[key].decayed = true;
                self.note(self.live[key].seq, now, AdaptiveKind::Decay);
            }
        }
    }

    /// Re-lowers the picked request at `key` when the feedback pressure
    /// level moved since it was last lowered. Decayed requests are already
    /// at the lean end and are left alone.
    fn relower_for_pressure(&mut self, now: u64, key: usize) {
        let OpRouter::Feedback(front, fb) = self.router else {
            return;
        };
        let level = self.pressure.level(fb);
        let req = &mut self.live[key];
        if req.decayed || level == req.level {
            return;
        }
        req.level = level;
        let target = front.route_pressure(&req.spec.class, level);
        if self.reroute_within_budget(key, target) {
            self.note(self.live[key].seq, now, AdaptiveKind::Feedback(level));
        }
    }

    /// Moves the request at `key` to `target` unless it is there already or
    /// its lowering at `target` breaks the energy budget; returns whether
    /// it moved.
    fn reroute_within_budget(&mut self, key: usize, target: OperatingPoint) -> bool {
        let req = &mut self.live[key];
        if target == req.low.op {
            return false;
        }
        let lowering = lower_at_cached(&mut self.cache, &self.csim, &req.spec, &target);
        if self.cfg.over_energy_budget(lowering.energy_pj) {
            return false;
        }
        req.reroute(target, lowering);
        true
    }

    /// Buffers one adaptive action on request `seq` when the run is traced.
    fn note(&mut self, seq: usize, ts: u64, kind: AdaptiveKind) {
        if let Some(events) = &mut self.events {
            events.push(AdaptiveEvent { req: seq, ts, kind });
        }
    }

    /// Ends the run: checks that every offered request completed or was
    /// shed, that the slab grew only to the most requests live at once, and
    /// that every booking was released.
    ///
    /// # Panics
    ///
    /// Panics if a request is still live, the slab outgrew the peak live
    /// count or a slot still books bytes.
    pub(crate) fn finish(self) -> Finished {
        assert!(self.waiting.is_empty(), "all eligible requests admitted");
        let slab = &self.live;
        assert_eq!(slab.live, 0, "every request completed or was shed");
        assert_eq!(
            slab.entries.len(),
            slab.peak_live,
            "the slab reuses a freed entry before it grows"
        );
        self.bookings.assert_drained();
        Finished {
            peaks: self.bookings.peak,
            stats: self.cache.stats(),
            offered: self.intake.taken as u64,
            #[cfg(test)]
            peak_live: slab.peak_live,
            #[cfg(test)]
            high_water: slab.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RetryPolicy;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::{RequestTrace, TraceConfig};

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
        let mut adm = Admission::new(&cfg, OpRouter::TraceNative, (&trace).into(), 1, 1, true);
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
        let router = OpRouter::Fixed(&fixed);
        let mut adm = Admission::new(&cfg, router, (&trace).into(), 1, usize::MAX, false);
        let mut retried = 0;
        while let Some((_, req, arrival)) = adm.next_external(None) {
            let queued = adm.waiting.reqs.back().map(|&key| &adm.live[key]);
            if let (Arrival::Queued, Some(queued)) = (arrival, queued) {
                if queued.attempts > 0 {
                    assert_eq!(queued.seq, req);
                    assert_eq!(queued.low.op, shrunk, "request {req}");
                    retried += 1;
                }
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

        /// The first-sight dedup gives each request exactly what lowering it
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
                let adm = sofa_par::with_threads(threads, || {
                    let mut adm = Admission::new(&cfg, router, (&trace).into(), 1, 1, true);
                    while adm.next_external(None).is_some() {}
                    adm
                });
                let first = adm.first.as_ref().expect("a traced run logs first lowerings");
                proptest::prop_assert_eq!(first.len(), trace.len());
                for (i, (spec, low)) in trace.requests.iter().zip(first).enumerate() {
                    let alone = lower_routed(&cfg, &csim, spec, &router);
                    let same = same_point(&low.point(), &alone.point());
                    proptest::prop_assert!(same, "request {}", i);
                    proptest::prop_assert_eq!(&low.op, &alone.op);
                    let flags = (low.rerouted, low.admit);
                    proptest::prop_assert_eq!(flags, (alone.rerouted, alone.admit));
                }
                let stats = adm.cache.stats();
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
        let (arrival, footprint) = (|r: usize| (reqs[r].0, r), |r: usize| (reqs[r].1, r));
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
        let (arrival, footprint) = (|r: usize| (reqs[r].0, r), |r: usize| (reqs[r].1, r));
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
        let (arrival, footprint) = (|r: usize| (reqs[r].0, r), |r: usize| (reqs[r].1, r));
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
                        let (at, fp) = (|r: usize| (arrival[r], r), |r: usize| (footprint[r], r));
                        let pos = pick(aging, now, &waiting, window, at, fp);
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
            (at(req), req)
        };
        let footprint = |req: usize| {
            reads.set(reads.get() + 1);
            (req as u64, req)
        };
        let mut waiting = WaitQueue::default();
        for run in 0..N / RUN {
            for req in (run * RUN..(run + 1) * RUN).rev() {
                waiting.push(req, at(req));
            }
        }
        for admitted in 0..N {
            let now = at(admitted) + AGING;
            while waiting
                .next_overdue(now, decay, |req| arrival(req).0)
                .is_some()
            {}
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
