//! The admission core shared by [`ServeSim`](crate::ServeSim) and
//! [`FleetServeSim`](crate::FleetServeSim): the deduplicated lowering pass
//! ([`lower_trace`]) and the lowering functions; the [`RequestTable`] of
//! distinct lowerings with each request's current one and effective
//! arrival; the [`Intake`] of original arrivals and retry re-arrivals; the
//! per-instance [`Bookings`], the aged smallest-first [`pick`] and the
//! least-booked, energy-headroom [`Bookings::place`]. Admission books the
//! sparsity-reduced `T×k` footprint; overbooking it Tailors-style is a
//! larger [`ServeConfig::admit_buffer_bytes`].
//!
//! Each simulator keeps its own clock, loop, completions and tracing. The
//! single node is event-exact: it takes one external event strictly before
//! its next simulation event. The fleet steps in epochs: it takes every
//! external event below its next boundary.

use crate::scheduler::{OpRouter, ServeConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::ops::{Index, Range};
use std::sync::Arc;

use sofa_core::cache::{LoweringCache, ShapeKey};
use sofa_hw::accel::AttentionTask;
use sofa_hw::energy::DRAM_ACTIVATION_PJ;
use sofa_model::trace::{RequestSpec, RequestTrace};
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
    /// same `(shape, operating point)` key when the cache is on.
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

/// Lowers every request of `trace` through `router`, once per distinct
/// `(request shape, routed operating point)` key.
///
/// Lowering a request (routing, descriptor generation, per-tile cycle
/// apportioning, energy projection) is a pure function of that key. A
/// serial dedup pass elects one representative per distinct key; only the
/// representatives fan out across cores (in index order, so the result is
/// oblivious to the thread count), and every other request shares its
/// representative's lowering. With the cache off every request is its own
/// representative — the classic full fan-out. The representatives'
/// final-point lowerings seed `cache`, which accounts one miss per
/// representative and one hit per request that shared one.
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
    let mut seen: HashMap<ShapeKey, usize> = HashMap::new();
    let mut index = Vec::with_capacity(specs.len());
    let mut reps: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let rep = if cache.enabled() {
            let op = router.pick(&cfg.op, spec);
            *seen.entry(ShapeKey::new(spec, &op)).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            })
        } else {
            reps.push(i);
            reps.len() - 1
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
/// did to its request. `attempt` is 0 for the original submission.
#[derive(Debug, PartialEq)]
pub(crate) enum Arrival {
    /// The request joins the wait queue.
    Queued { req: usize, attempt: u32 },
    /// Over the energy budget: the client re-submits after its backoff.
    BackedOff { req: usize, attempt: u32 },
    /// Over the energy budget with no retry left: shed at `energy_pj`.
    Shed {
        req: usize,
        attempt: u32,
        energy_pj: f64,
    },
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
    pub(crate) fn attempts(&self, req: usize) -> u32 {
        self.attempts.get(&req).copied().unwrap_or(0)
    }

    /// Cycle of the next external event, if any is left.
    #[inline]
    pub(crate) fn next_time(&self, table: &RequestTable) -> Option<u64> {
        self.peek(table).map(|(t, _)| t)
    }

    /// The next external event's cycle and whether it is a retry
    /// re-arrival. Original arrivals go first on ties: the retried client
    /// re-submits just behind the fresh traffic.
    #[inline]
    fn peek(&self, table: &RequestTable) -> Option<(u64, bool)> {
        let arrival = table.specs.get(self.next).map(|r| r.arrival_cycle);
        let retry = self.retries.peek().map(|&Reverse((t, _))| t);
        match (arrival, retry) {
            (Some(a), Some(r)) if r < a => Some((r, true)),
            (Some(a), _) => Some((a, false)),
            (None, r) => r.map(|r| (r, true)),
        }
    }

    /// Takes the next external event strictly before `bound` (any event
    /// when `bound` is `None`) and returns its cycle and outcome. Inlined:
    /// the single node asks once per simulation event, and almost always
    /// gets `None`.
    #[inline]
    pub(crate) fn pop_before(
        &mut self,
        bound: Option<u64>,
        cfg: &ServeConfig,
        cache: &mut LowerCache,
        csim: &CycleSim,
        router: &OpRouter,
        table: &mut RequestTable,
    ) -> Option<(u64, Arrival)> {
        let now = self.next_time(table)?;
        if bound.is_some_and(|b| now >= b) {
            return None;
        }
        Some(self.take(cfg, cache, csim, router, table))
    }

    /// Takes the next external event. An original arrival queues if its
    /// lowering is admitted. A retry re-arrival is re-lowered through the
    /// cache at its attempt's leaner keep; if that fits the energy budget,
    /// `table` switches the request to it at the re-arrival cycle. A request
    /// that does not fit backs off while [`ServeConfig::retry`] leaves it an
    /// attempt, and is shed otherwise.
    fn take(
        &mut self,
        cfg: &ServeConfig,
        cache: &mut LowerCache,
        csim: &CycleSim,
        router: &OpRouter,
        table: &mut RequestTable,
    ) -> (u64, Arrival) {
        let (now, is_retry) = self.peek(table).expect("an external event is pending");
        let (req, attempt, energy_pj) = if is_retry {
            let Reverse((_, req)) = self.retries.pop().expect("a retry was peeked");
            let attempt = self.attempts(req) + 1;
            self.attempts.insert(req, attempt);
            let policy = cfg.retry.expect("retries require a policy");
            // The router's leanest point (or the deployment point when it
            // has none) with its keep shrunk by `keep_factorᵃᵗᵗᵉᵐᵖᵗ`, floored
            // at 1%. The shrunk keep is part of the cache key, so repeat
            // attempts at the same level hit.
            let base = router.leaner().unwrap_or_else(|| cfg.op.clone());
            let keep = (base.mean_keep() * policy.keep_factor.powi(attempt as i32)).max(0.01);
            let op = base.with_uniform_keep(keep);
            let lowering = lower_at_cached(cache, csim, &table.specs[req], &op);
            if !cfg.over_energy_budget(lowering.energy_pj) {
                table.reroute(req, op, lowering);
                table.arrival[req] = now;
                return (now, Arrival::Queued { req, attempt });
            }
            (req, attempt, lowering.energy_pj)
        } else {
            let req = self.next;
            self.next += 1;
            if table[req].admit {
                return (now, Arrival::Queued { req, attempt: 0 });
            }
            (req, 0, table[req].energy_pj)
        };
        let arrival = match cfg.retry {
            Some(policy) if attempt < policy.max_retries => {
                self.retries
                    .push(Reverse((now + policy.backoff_cycles, req)));
                Arrival::BackedOff { req, attempt }
            }
            _ => Arrival::Shed {
                req,
                attempt,
                energy_pj,
            },
        };
        (now, arrival)
    }
}

/// Position in `waiting` of the next request to try, among its first
/// `window` entries: the oldest request if it has waited past the aging
/// threshold, else the one with the smallest footprint. `arrival` and
/// `footprint` read a request's effective arrival and booked bytes.
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
    cfg: &ServeConfig,
    now: u64,
    waiting: &WaitQueue,
    window: usize,
    arrival: impl Fn(usize) -> u64,
    footprint: impl Fn(usize) -> u64,
) -> usize {
    let (oldest, arrived) = oldest(waiting, window, arrival);
    if now.saturating_sub(arrived) >= cfg.aging_threshold {
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

/// In-flight bookings per instance slot: the footprint bytes, request count
/// and projected energy of the admitted-but-uncompleted requests, and the
/// peak booked bytes.
#[derive(Debug)]
pub(crate) struct Bookings {
    pub(crate) bytes: Vec<u64>,
    pub(crate) reqs: Vec<usize>,
    pub(crate) energy: Vec<f64>,
    pub(crate) peak: Vec<u64>,
}

impl Bookings {
    /// `slots` idle instance slots.
    pub(crate) fn new(slots: usize) -> Self {
        Bookings {
            bytes: vec![0; slots],
            reqs: vec![0; slots],
            energy: vec![0.0; slots],
            peak: vec![0; slots],
        }
    }

    /// Books one admitted request on `slot`.
    pub(crate) fn book(&mut self, slot: usize, bytes: u64, energy_pj: f64) {
        self.bytes[slot] += bytes;
        self.reqs[slot] += 1;
        self.energy[slot] += energy_pj;
        self.peak[slot] = self.peak[slot].max(self.bytes[slot]);
    }

    /// Releases one completed request from `slot`.
    pub(crate) fn release(&mut self, slot: usize, bytes: u64, energy_pj: f64) {
        self.bytes[slot] -= bytes;
        self.reqs[slot] -= 1;
        self.energy[slot] -= energy_pj;
    }

    /// Checks that every booking was released: each slot is back to 0
    /// bytes and 0 requests. Energy is left out — it is an `f64` sum and
    /// need not return to exactly 0.
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
    /// order on ties. With a per-instance `energy_budget`, slots without
    /// headroom for `energy_pj` are skipped too (unless idle) and
    /// booked-bytes ties break toward the most energy headroom.
    pub(crate) fn place(
        &self,
        slots: Range<usize>,
        fp: u64,
        energy_pj: f64,
        budget: u64,
        energy_budget: Option<f64>,
    ) -> Option<usize> {
        let fits = |slot: usize| self.reqs[slot] == 0 || self.bytes[slot] + fp <= budget;
        match energy_budget {
            None => {
                // A strict `<` keeps the first minimum, and nothing books
                // fewer than 0 bytes.
                let mut best: Option<(usize, u64)> = None;
                for slot in slots {
                    let booked = self.bytes[slot];
                    if fits(slot) && best.is_none_or(|(_, b)| booked < b) {
                        best = Some((slot, booked));
                        if booked == 0 {
                            break;
                        }
                    }
                }
                best.map(|(slot, _)| slot)
            }
            Some(eb) => slots
                .filter(|&slot| {
                    fits(slot) && (self.reqs[slot] == 0 || self.energy[slot] + energy_pj <= eb)
                })
                .min_by(|&a, &b| {
                    self.bytes[a]
                        .cmp(&self.bytes[b])
                        .then_with(|| self.energy[a].total_cmp(&self.energy[b]))
                        .then_with(|| a.cmp(&b))
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RetryPolicy;
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::TraceConfig;
    use std::cmp::Ordering;

    /// The placement as one iterator chain over the whole range: among
    /// idle slots and slots with byte (and, when budgeted, energy) headroom,
    /// the least-booked, ties toward the least booked energy when budgeted,
    /// then the first slot.
    fn place_by_scan(
        b: &Bookings,
        slots: Range<usize>,
        fp: u64,
        energy_pj: f64,
        budget: u64,
        energy_budget: Option<f64>,
    ) -> Option<usize> {
        slots
            .filter(|&s| {
                b.reqs[s] == 0
                    || (b.bytes[s] + fp <= budget
                        && energy_budget.is_none_or(|eb| b.energy[s] + energy_pj <= eb))
            })
            .min_by(|&x, &y| {
                let energy = match energy_budget {
                    Some(_) => b.energy[x].total_cmp(&b.energy[y]),
                    None => Ordering::Equal,
                };
                b.bytes[x].cmp(&b.bytes[y]).then(energy).then(x.cmp(&y))
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The shared placement picks exactly what the full scan picks, over
        /// random bookings that mix idle slots, booked slots at zero bytes,
        /// slots at and past the byte budget edge, in-flight energy at,
        /// below and above the energy budget, and slot ranges from empty
        /// node pools to the single node's whole `0..instances`.
        #[test]
        fn early_exit_place_matches_the_full_scan(
            shape in (1usize..5, 1usize..5, 0usize..5, 0usize..5),
            range in (0usize..6, 0usize..5, 0usize..2),
            slots in proptest::collection::vec((0usize..6, 0usize..3, 0usize..5), 16),
        ) {
            let (nodes, ipn) = (shape.0, shape.1);
            let instances = nodes * ipn;
            let budget = ServeConfig::new(HwConfig::small(), ipn).admit_buffer_bytes;
            let fp = [0, 1, budget / 2, budget, budget + 1][shape.2];
            let eb: f64 = 1.0e6;
            let energy_pj = [0.0, 1.0, eb / 2.0, eb, 2.0 * eb][shape.3];
            let energy_budget = [None, Some(eb)][range.2];
            let sizes = [0, 1, budget / 2, budget - fp.min(budget), budget, 3 * budget];
            // In-flight energy that lands exactly at, below and above the
            // budget once `energy_pj` is added.
            let edge = (eb - energy_pj).max(0.0);
            let energies = [0.0, edge, edge / 2.0, edge + 1.0, 3.0 * eb];
            let mut b = Bookings::new(instances);
            for (s, &(bytes, reqs, energy)) in slots[..instances].iter().enumerate() {
                b.bytes[s] = sizes[bytes];
                b.reqs[s] = reqs;
                b.energy[s] = energies[energy];
            }
            let slots = if range.0 == 5 {
                0..instances
            } else {
                let (x, y) = (range.0.min(nodes), range.1.min(nodes));
                x.min(y) * ipn..x.max(y) * ipn
            };
            proptest::prop_assert_eq!(
                b.place(slots.clone(), fp, energy_pj, budget, energy_budget),
                place_by_scan(&b, slots, fp, energy_pj, budget, energy_budget)
            );
        }
    }

    #[test]
    fn bookings_drain_when_every_request_is_released() {
        let mut b = Bookings::new(3);
        b.book(0, 100, 0.1);
        b.book(0, 50, 0.2);
        b.book(2, 7, 3.0);
        assert_eq!(b.peak, [150, 0, 7]);
        b.release(0, 100, 0.1);
        b.book(2, 0, 0.0);
        b.release(2, 7, 3.0);
        b.release(0, 50, 0.2);
        b.release(2, 0, 0.0);
        assert_eq!(b.peak, [150, 0, 7]);
        // The energy sum need not return to exactly 0, so the check
        // leaves it out.
        assert_ne!(b.energy[0], 0.0);
        b.assert_drained();
    }

    #[test]
    #[should_panic(expected = "slot 1 still books 0 B in 1 requests")]
    fn bookings_drain_check_catches_a_missing_release() {
        let mut b = Bookings::new(2);
        b.book(0, 100, 1.0);
        b.book(1, 0, 0.0);
        b.release(0, 100, 1.0);
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
        let csim = CycleSim::new(cfg.hw);
        let mut cache = LowerCache::new(true);
        let router = OpRouter::TraceNative;
        let mut table = lower_trace(&cfg, &csim, &trace, &router, &mut cache);
        let mut intake = Intake::default();
        let mut pop =
            |bound| intake.pop_before(bound, &cfg, &mut cache, &csim, &router, &mut table);
        assert_eq!(pop(Some(a0)), None, "the bound is strict");
        let backed_off = |req| Arrival::BackedOff { req, attempt: 0 };
        assert_eq!(pop(Some(a0 + 1)), Some((a0, backed_off(0))));
        assert_eq!(pop(None), Some((a1, backed_off(1))), "originals first");
        let shed = |popped| match popped {
            Some((t, Arrival::Shed { req, attempt, .. })) => (t, req, attempt),
            other => panic!("expected a final shed, got {other:?}"),
        };
        assert_eq!(shed(pop(None)), (a1, 0, 1));
        assert_eq!(shed(pop(None)), (2 * a1 - a0, 1, 1));
        assert_eq!(pop(None), None);
        assert_eq!((intake.attempts(0), intake.attempts(1)), (1, 1));
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
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        cfg.aging_threshold = 100_000;
        // (arrival, footprint) of requests 0..3; the smallest is last.
        let reqs = [(10, 300), (20, 200), (30, 100)];
        let waiting = queue(&[(0, 10), (1, 20), (2, 30)]);
        let pick_in = |window| pick(&cfg, 50, &waiting, window, |r| reqs[r].0, |r| reqs[r].1);
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
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        cfg.aging_threshold = 100_000;
        // Requests 0..3 as (arrival, footprint). The head is request 2, a
        // small request smallest-first picking loves; behind it at the same
        // arrival waits request 0, the true oldest by `(arrival, id)`, large
        // enough to lose every footprint comparison.
        let reqs = [(0, 1_000), (50, 4), (0, 8)];
        let waiting = queue(&[(2, 0), (0, 0), (1, 50)]);
        let pick_at = |now| pick(&cfg, now, &waiting, 3, |r| reqs[r].0, |r| reqs[r].1);
        assert_eq!(
            pick_at(550_000),
            1,
            "the aged pick takes the least id of the head's run, not the head"
        );
    }

    #[test]
    fn below_the_aging_threshold_the_smallest_request_wins() {
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        cfg.aging_threshold = 100_000;
        let reqs = [(0, 1_000), (40_000, 8)];
        let waiting = queue(&[(0, 0), (1, 40_000)]);
        assert_eq!(
            pick(&cfg, 50_000, &waiting, 2, |r| reqs[r].0, |r| reqs[r].1),
            1
        );
    }

    /// The pick as it was before the arrival order was asserted: the oldest
    /// `(arrival, id)` and the smallest `(footprint, id)` by full scans of
    /// the window.
    fn pick_by_scan(
        cfg: &ServeConfig,
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
        if now.saturating_sub(arrival(waiting[oldest])) >= cfg.aging_threshold {
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
            let mut cfg = ServeConfig::new(HwConfig::small(), 1);
            cfg.aging_threshold = [0, 5, 50, 500, u64::MAX][thresholds.0];
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
                        let pos = pick(&cfg, now, &waiting, window, |r| arrival[r], |r| footprint[r]);
                        let expect = pick_by_scan(
                            &cfg, now, &reference, window, |r| arrival[r], |r| footprint[r],
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
        let mut cfg = ServeConfig::new(HwConfig::small(), 1);
        cfg.aging_threshold = 1_000;
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
            let now = at(admitted) + cfg.aging_threshold;
            while waiting.next_overdue(now, decay, arrival).is_some() {}
            let pos = pick(&cfg, now, &waiting, waiting.len(), arrival, footprint);
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
