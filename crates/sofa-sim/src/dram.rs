//! Shared DRAM channel with bandwidth arbitration and per-burst latency.
//!
//! All requesters contend for one off-chip channel: the prediction stage
//! streams low-precision keys, the KV path fetches the RASS-deduplicated
//! selected vectors, and the formal stage writes outputs back. In
//! multi-instance simulation every instance's four stages map to their own
//! ports, so one channel arbitrates across all concurrent requests. Requests
//! queue per requester port; when the channel is free the next request is
//! chosen round-robin across ports, occupies the channel for
//! `command_cycles + bytes / bytes_per_cycle` and delivers its data one
//! burst latency later (the latency of later bursts pipelines behind the
//! first). `command_cycles` models the row-activation/command serialisation
//! a request pays regardless of its size — zero by default (the classic
//! bandwidth-only channel), nonzero when a consumer wants many small
//! scattered requests to cost real channel time, as the hardware-aware DSE
//! evaluator does.
//!
//! On top of plain round-robin the channel supports **priority aging**
//! ([`DramChannel::with_aging`]): a request whose queueing delay exceeds the
//! aging threshold jumps the rotation and the oldest such request is served
//! first. Round-robin alone is fair in *turns*, not in *time* — a port behind
//! a string of large streaming transfers can starve even while being offered
//! turns, which under multi-instance sharing turns into tail-latency
//! outliers for whole requests.
//!
//! The aged pick reads an ordered index instead of the port queues:
//! `order` holds one `(stamp, port)` key per queued request, in
//! nondecreasing order. Per-port enqueue stamps never decrease (asserted in
//! [`DramChannel::enqueue`]), because requests arrive in simulated-time
//! order, so each port's oldest request is its queue head. A key is live
//! while its port's head carries its stamp. The pick drops dead keys off
//! the front; the front is then the least `(stamp, port)` of any queue
//! head: the oldest pending request, lowest port on equal stamps. That is
//! the choice a scan of every queue front makes, in O(1) amortised per
//! issue. The liveness test reads the head the issue pops anyway, so the
//! index needs no per-port counters. A port with several requests at one
//! stamp has as many equal keys, and the pick cannot tell them apart, nor
//! needs to. An aged issue drops the front key at once: it is the issued
//! head's own. Enqueues arrive in time order and almost always append; a
//! key that sorts before the back (a lower port at the same cycle, or a
//! stamp older than the back, which the per-port contract allows across
//! ports) is inserted at its place. The index is kept only while aging is
//! on — without aging it would never be read nor drained — and is cleared
//! whenever the queues drain.
//!
//! Two smaller savings on the issue path. Port queues hold a 40-byte
//! `Queued` entry, the public request without its port (the queue index),
//! instead of a 48-byte `(DramRequest, u64)`. And a 64-slot memo,
//! direct-mapped by a hash of the transfer size, remembers recent
//! `(bytes, cycles)` transfer times, so an issue of a recent size skips the
//! float division and the `ceil` call. Request sizes come from a few
//! lowered request shapes, so nearly every issue hits.
//!
//! This is the contention the analytic model's `max(compute, memory)` folds
//! away — and the reason the cycle simulator can report *which* stage was
//! starved.

use std::collections::VecDeque;

/// Calibrates the per-request command occupancy ([`DramChannel`]'s
/// `command_cycles`) against the burst-latency model instead of hardwiring a
/// value.
///
/// The model: `burst_latency` is the request→first-data-beat delay
/// (≈ tRCD + tCL at the simulator's clock), and an HBM2-class row cycle tRC
/// — the time the bank and command bus are held per activation — is about
/// 1.5× that. A request therefore occupies the channel for the part of tRC
/// the data transfer does not cover. The calibration sweeps candidate
/// occupancies (0, ⅛, ¼, ½ and 1× the burst latency) and picks the one whose
/// implied single-burst channel time `command + transfer + burst_latency`
/// lands closest to the tRC target for a reference 64-byte burst, preferring
/// the smaller candidate on ties.
///
/// At the paper-default timing (64-cycle burst latency, ~60 B/cycle) this
/// selects **32 cycles** — the value the hardware-aware DSE evaluator used
/// to hardwire, now derived and shared with the serving simulations.
pub fn calibrate_dram_command_cycles(burst_latency: u64, bytes_per_cycle: f64) -> u64 {
    assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
    let target = burst_latency + burst_latency / 2; // tRC ≈ 1.5 × first-beat latency
    let transfer = (64.0 / bytes_per_cycle).ceil() as u64; // one 64 B burst
    [
        0,
        burst_latency / 8,
        burst_latency / 4,
        burst_latency / 2,
        burst_latency,
    ]
    .into_iter()
    .min_by_key(|&c| ((c + transfer + burst_latency).abs_diff(target), c))
    .expect("candidate sweep is non-empty")
}

/// Slots of the transfer-time memo.
const MEMO_SLOTS: usize = 64;

/// The memo slot of a `bytes`-byte transfer: the top bits of a Fibonacci
/// hash, so sizes that differ only in low bits still spread.
fn memo_slot(bytes: u64) -> usize {
    (bytes.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// One queued DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Requesting port. Single-pipeline simulation uses the stage index;
    /// multi-instance simulation uses `instance * 4 + stage`.
    pub port: usize,
    /// Stage the request belongs to (0 = predict … 3 = formal).
    pub stage: usize,
    /// Tile the data belongs to.
    pub tile: usize,
    /// Transfer size.
    pub bytes: u64,
    /// Whether this is a writeback (completion is not waited on by a stage).
    pub write: bool,
}

/// Completion handed back by the channel when a request finishes issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    /// The request now occupying the channel.
    pub request: DramRequest,
    /// When the channel becomes free again.
    pub free_at: u64,
    /// When the requester has all of the data.
    pub done_at: u64,
}

/// A request waiting in its port queue: the public [`DramRequest`] without
/// its port (the queue index), plus its enqueue stamp — 40 bytes instead of
/// 48.
#[derive(Debug, Clone, Copy)]
struct Queued {
    stage: usize,
    tile: usize,
    bytes: u64,
    at: u64,
    write: bool,
}

/// The shared channel: per-port queues, round-robin pick with optional
/// priority aging, busy bookkeeping.
#[derive(Debug)]
pub struct DramChannel {
    /// Sustained bandwidth in bytes per cycle.
    bytes_per_cycle: f64,
    /// Fixed latency from issue to first data beat (cycles).
    burst_latency: u64,
    /// Channel cycles a request occupies beyond its transfer (row
    /// activation / command serialisation); zero for the classic
    /// bandwidth-only channel.
    command_cycles: u64,
    /// Queueing delay beyond which a request overrides round-robin
    /// (`u64::MAX` disables aging).
    age_threshold: u64,
    queues: Vec<VecDeque<Queued>>,
    /// Aging index: a `(stamp, port)` key per queued request, in
    /// nondecreasing order, plus dead keys not yet dropped off the front.
    /// Empty while aging is off.
    order: VecDeque<(u64, usize)>,
    /// `(bytes, channel cycles)` of recent transfers, direct-mapped by a
    /// hash of the size: a hit skips the float division and the `ceil`
    /// call of the transfer time.
    transfer_memo: [(u64, u64); MEMO_SLOTS],
    /// One bit per port, set while the port's queue is non-empty — the
    /// round-robin pick reads these words instead of touching every queue.
    nonempty: Vec<u64>,
    /// Requests waiting across all port queues (excluding the in-flight one).
    queued: usize,
    next_port: usize,
    busy: bool,
    busy_cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
    aged_issues: u64,
    queue_wait_cycles: u64,
    issued_requests: u64,
}

impl DramChannel {
    /// Creates a channel with `ports` requester ports and plain round-robin
    /// arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive or `ports` is zero.
    pub fn new(ports: usize, bytes_per_cycle: f64, burst_latency: u64) -> Self {
        Self::with_aging(ports, bytes_per_cycle, burst_latency, u64::MAX)
    }

    /// Creates a channel whose arbitration ages: a queued request that has
    /// waited at least `age_threshold` cycles is served before the round-robin
    /// rotation, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive or `ports` is zero.
    pub fn with_aging(
        ports: usize,
        bytes_per_cycle: f64,
        burst_latency: u64,
        age_threshold: u64,
    ) -> Self {
        Self::with_timing(ports, bytes_per_cycle, burst_latency, age_threshold, 0)
    }

    /// Creates a channel with full timing control: aging arbitration plus a
    /// per-request command occupancy of `command_cycles` (the channel is
    /// held for `command_cycles + transfer` per request).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive or `ports` is zero.
    pub fn with_timing(
        ports: usize,
        bytes_per_cycle: f64,
        burst_latency: u64,
        age_threshold: u64,
        command_cycles: u64,
    ) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        assert!(ports > 0, "need at least one port");
        DramChannel {
            bytes_per_cycle,
            burst_latency,
            command_cycles,
            age_threshold,
            queues: (0..ports).map(|_| VecDeque::new()).collect(),
            order: VecDeque::new(),
            // Zero bytes transfer in zero cycles, so the empty slot is exact.
            transfer_memo: [(0, command_cycles); MEMO_SLOTS],
            nonempty: vec![0; ports.div_ceil(64)],
            queued: 0,
            next_port: 0,
            busy: false,
            busy_cycles: 0,
            bytes_read: 0,
            bytes_written: 0,
            aged_issues: 0,
            queue_wait_cycles: 0,
            issued_requests: 0,
        }
    }

    fn aging(&self) -> bool {
        self.age_threshold != u64::MAX
    }

    /// Queues a request on its port, stamping the enqueue time for aging and
    /// queueing-delay accounting.
    ///
    /// # Panics
    ///
    /// Panics if the request's port does not exist, or if `now` precedes the
    /// stamp of a request already queued on the port (per-port stamps must
    /// be nondecreasing for the aged pick to find the oldest request).
    ///
    /// Always inlined, like [`crate::event::EventQueue::push`]: out of line,
    /// the caller spills the request with 8-byte stores and this reloads
    /// two of its fields with one 16-byte load, which stalls.
    #[inline(always)]
    pub fn enqueue(&mut self, req: DramRequest, now: u64) {
        assert!(req.port < self.queues.len(), "no such DRAM port");
        let queue = &mut self.queues[req.port];
        if let Some(last) = queue.back() {
            assert!(last.at <= now, "DRAM enqueue stamps went backwards");
        }
        queue.push_back(Queued {
            stage: req.stage,
            tile: req.tile,
            bytes: req.bytes,
            at: now,
            write: req.write,
        });
        if self.aging() {
            let key = (now, req.port);
            if self.order.back().is_none_or(|&back| back <= key) {
                self.order.push_back(key);
            } else {
                self.insert_order(now, req.port);
            }
        }
        self.nonempty[req.port / 64] |= 1 << (req.port % 64);
        self.queued += 1;
    }

    /// Inserts the aging-index key of `port`'s next request, stamped `now`,
    /// where it sorts before the back. Out of line and given the key's
    /// fields in registers: built in memory for this rare path, the key
    /// would be reloaded on the common append path with a 16-byte load of
    /// two 8-byte stores, which stalls.
    #[cold]
    #[inline(never)]
    fn insert_order(&mut self, now: u64, port: usize) {
        let key = (now, port);
        let at = self.order.partition_point(|&entry| entry <= key);
        self.order.insert(at, key);
    }

    /// The port an aged request would be served from: the queue head with
    /// the longest wait, if it is at or beyond the threshold, ties broken
    /// by the lowest port so arbitration stays deterministic. Drops dead
    /// keys off the front of `order` first: a key is dead when its port's
    /// head is not stamped with it. The front is then the least
    /// `(stamp, port)` of any queue head.
    fn aged_port(&mut self, now: u64) -> Option<usize> {
        if !self.aging() {
            return None;
        }
        while let Some(&(at, port)) = self.order.front() {
            if self.queues[port].front().is_some_and(|head| head.at == at) {
                return (now.saturating_sub(at) >= self.age_threshold).then_some(port);
            }
            self.order.pop_front();
        }
        None
    }

    /// First port with queued work in cyclic order starting at `start`,
    /// resolved from the non-empty bitmask.
    fn next_nonempty(&self, start: usize) -> Option<usize> {
        let nwords = self.nonempty.len();
        let (w0, b0) = (start / 64, start % 64);
        let first = self.nonempty[w0] & (!0u64 << b0);
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        for k in 1..=nwords {
            let i = if w0 + k < nwords {
                w0 + k
            } else {
                w0 + k - nwords
            };
            let word = if i == w0 {
                // Wrapped back around: only the ports below `start` remain.
                self.nonempty[i] & !(!0u64 << b0)
            } else {
                self.nonempty[i]
            };
            if word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// If the channel is idle and work is queued, issues the next request
    /// (aged request first, else round-robin over ports) and returns its
    /// timing. The caller is responsible for scheduling the returned
    /// `free_at` / `done_at` events and for calling [`DramChannel::release`]
    /// at `free_at`.
    #[inline]
    pub fn try_issue(&mut self, now: u64) -> Option<Issued> {
        if self.busy || self.queued == 0 {
            return None;
        }
        self.issue(now)
    }

    /// [`Self::try_issue`] past its check for a busy or empty channel, out
    /// of line: about half the pumps find the channel busy, and those cost
    /// a branch instead of a call.
    #[inline(never)]
    fn issue(&mut self, now: u64) -> Option<Issued> {
        let ports = self.queues.len();
        let pick = if let Some(aged) = self.aged_port(now) {
            // The front key is the issued head's own: drop it now rather
            // than as a dead key at the next pick.
            self.order.pop_front();
            self.aged_issues += 1;
            Some(aged)
        } else {
            self.next_nonempty(self.next_port)
        };
        let port = pick?;
        let queue = &mut self.queues[port];
        let q = queue.pop_front().expect("picked port has work");
        if queue.is_empty() {
            self.nonempty[port / 64] &= !(1 << (port % 64));
        }
        self.queued -= 1;
        if self.queued == 0 {
            // Every index entry is dead once nothing is queued.
            self.order.clear();
        }
        // A compare, not a `%`: the division would run on every issue.
        self.next_port = if port + 1 == ports { 0 } else { port + 1 };
        let slot = &mut self.transfer_memo[memo_slot(q.bytes)];
        if slot.0 != q.bytes {
            *slot = (
                q.bytes,
                self.command_cycles + (q.bytes as f64 / self.bytes_per_cycle).ceil() as u64,
            );
        }
        let transfer = slot.1;
        self.busy = true;
        self.busy_cycles += transfer;
        self.queue_wait_cycles += now.saturating_sub(q.at);
        self.issued_requests += 1;
        if q.write {
            self.bytes_written += q.bytes;
        } else {
            self.bytes_read += q.bytes;
        }
        Some(Issued {
            request: DramRequest {
                port,
                stage: q.stage,
                tile: q.tile,
                bytes: q.bytes,
                write: q.write,
            },
            free_at: now + transfer,
            done_at: now + transfer + self.burst_latency,
        })
    }

    /// Marks the channel free again (call at the issued request's `free_at`).
    pub fn release(&mut self) {
        self.busy = false;
    }

    /// Whether any request is queued or in flight.
    pub fn is_active(&self) -> bool {
        self.busy || self.queued > 0
    }

    /// Requests currently waiting across all port queues (excluding the one
    /// in flight) — the queue-depth signal of the trace counter track.
    pub fn queued_requests(&self) -> usize {
        self.queued
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Cycles the channel spent transferring data.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Requests issued so far.
    pub(crate) fn issues(&self) -> u64 {
        self.issued_requests
    }

    /// How many issues were decided by aging rather than round-robin.
    pub fn aged_issues(&self) -> u64 {
        self.aged_issues
    }

    /// Mean cycles a request waited in its port queue before issue.
    pub fn mean_queue_wait(&self) -> f64 {
        if self.issued_requests == 0 {
            return 0.0;
        }
        self.queue_wait_cycles as f64 / self.issued_requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(port: usize, tile: usize, bytes: u64) -> DramRequest {
        DramRequest {
            port,
            stage: port % 4,
            tile,
            bytes,
            write: false,
        }
    }

    #[test]
    fn calibration_matches_the_paper_default_timing() {
        // 64-cycle burst latency at ~60 B/cycle: the sweep must land on the
        // half-latency candidate the DSE evaluator used to hardwire.
        assert_eq!(calibrate_dram_command_cycles(64, 59.8), 32);
        // A channel so slow that the transfer alone covers the row cycle
        // needs no extra command occupancy.
        assert_eq!(calibrate_dram_command_cycles(64, 2.0), 0);
        // Calibration scales with the burst latency.
        assert_eq!(calibrate_dram_command_cycles(128, 59.8), 64);
    }

    #[test]
    fn transfer_time_is_bandwidth_limited_plus_latency() {
        let mut ch = DramChannel::new(4, 64.0, 100);
        ch.enqueue(req(0, 0, 6400), 0);
        let issued = ch.try_issue(0).unwrap();
        assert_eq!(issued.free_at, 100, "6400 B / 64 B-per-cycle");
        assert_eq!(issued.done_at, 200, "plus one burst latency");
        assert_eq!(ch.busy_cycles(), 100);
        assert_eq!(ch.bytes_read(), 6400);
    }

    #[test]
    fn command_cycles_occupy_the_channel_per_request() {
        let mut ch = DramChannel::with_timing(2, 64.0, 100, u64::MAX, 30);
        ch.enqueue(req(0, 0, 6400), 0);
        let issued = ch.try_issue(0).unwrap();
        assert_eq!(issued.free_at, 130, "30 command + 100 transfer");
        assert_eq!(issued.done_at, 230, "plus one burst latency");
        assert_eq!(ch.busy_cycles(), 130);
        // The default constructors keep the classic bandwidth-only channel.
        let mut classic = DramChannel::new(2, 64.0, 100);
        classic.enqueue(req(0, 0, 6400), 0);
        assert_eq!(classic.try_issue(0).unwrap().free_at, 100);
    }

    #[test]
    fn channel_serialises_requests() {
        let mut ch = DramChannel::new(2, 1.0, 0);
        ch.enqueue(req(0, 0, 10), 0);
        ch.enqueue(req(1, 0, 10), 0);
        let first = ch.try_issue(0).unwrap();
        assert!(ch.try_issue(0).is_none(), "channel busy");
        ch.release();
        let second = ch.try_issue(first.free_at).unwrap();
        assert_eq!(second.free_at, 20);
    }

    #[test]
    fn arbitration_is_round_robin_across_ports() {
        let mut ch = DramChannel::new(3, 1.0, 0);
        // Port 2 queues two requests, ports 0 and 1 one each.
        ch.enqueue(req(2, 0, 1), 0);
        ch.enqueue(req(2, 1, 1), 0);
        ch.enqueue(req(0, 0, 1), 0);
        ch.enqueue(req(1, 0, 1), 0);
        let mut order = Vec::new();
        let mut now = 0;
        while ch.is_active() {
            let issued = ch.try_issue(now).unwrap();
            order.push(issued.request.port);
            now = issued.free_at;
            ch.release();
        }
        // Starting at port 0: 0, 1, 2, then 2's second request.
        assert_eq!(order, vec![0, 1, 2, 2]);
    }

    #[test]
    fn aged_request_overrides_round_robin() {
        let mut ch = DramChannel::with_aging(3, 1.0, 0, 50);
        // Port 2's request has been waiting since cycle 0; ports 0 and 1 just
        // arrived. Plain round-robin would serve port 0 first.
        ch.enqueue(req(2, 0, 1), 0);
        ch.enqueue(req(0, 0, 1), 60);
        ch.enqueue(req(1, 0, 1), 60);
        let first = ch.try_issue(60).unwrap();
        assert_eq!(first.request.port, 2, "starved port must jump the queue");
        assert_eq!(ch.aged_issues(), 1);
        ch.release();
        // Below the threshold arbitration falls back to the rotation.
        let second = ch.try_issue(61).unwrap();
        assert_eq!(second.request.port, 0);
        assert_eq!(ch.aged_issues(), 1);
    }

    #[test]
    fn oldest_aged_request_wins() {
        let mut ch = DramChannel::with_aging(4, 1.0, 0, 10);
        ch.enqueue(req(3, 0, 1), 5);
        ch.enqueue(req(1, 0, 1), 0); // oldest
        ch.enqueue(req(2, 0, 1), 5);
        let first = ch.try_issue(100).unwrap();
        assert_eq!(first.request.port, 1);
        ch.release();
        // Equal waits: the lowest port index is served first.
        let second = ch.try_issue(100).unwrap();
        assert_eq!(second.request.port, 2);
    }

    #[test]
    fn queue_wait_is_accounted() {
        let mut ch = DramChannel::new(1, 1.0, 0);
        ch.enqueue(req(0, 0, 4), 10);
        let _ = ch.try_issue(30).unwrap();
        assert!((ch.mean_queue_wait() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn writes_and_reads_are_tracked_separately() {
        let mut ch = DramChannel::new(1, 8.0, 0);
        ch.enqueue(
            DramRequest {
                port: 0,
                stage: 3,
                tile: 0,
                bytes: 64,
                write: true,
            },
            0,
        );
        let issued = ch.try_issue(0).unwrap();
        assert!(issued.request.write);
        assert_eq!(ch.bytes_written(), 64);
        assert_eq!(ch.bytes_read(), 0);
    }

    #[test]
    fn zero_byte_request_frees_immediately() {
        let mut ch = DramChannel::new(1, 64.0, 5);
        ch.enqueue(req(0, 0, 0), 7);
        let issued = ch.try_issue(7).unwrap();
        assert_eq!(issued.free_at, 7);
        assert_eq!(issued.done_at, 12);
    }

    /// The arbiter as it was before the aging index and the non-empty
    /// bitmask, kept as the differential reference: the aged pick scans
    /// every port's queue front for the longest wait at or beyond the
    /// threshold, and round-robin probes ports one by one in cyclic order.
    struct ReferenceChannel {
        bytes_per_cycle: f64,
        burst_latency: u64,
        command_cycles: u64,
        age_threshold: u64,
        queues: Vec<VecDeque<(DramRequest, u64)>>,
        next_port: usize,
        busy: bool,
        aged_issues: u64,
        queue_wait_cycles: u64,
        issued_requests: u64,
    }

    impl ReferenceChannel {
        fn new(ports: usize, bytes_per_cycle: f64, burst_latency: u64, age: u64, cmd: u64) -> Self {
            ReferenceChannel {
                bytes_per_cycle,
                burst_latency,
                command_cycles: cmd,
                age_threshold: age,
                queues: (0..ports).map(|_| VecDeque::new()).collect(),
                next_port: 0,
                busy: false,
                aged_issues: 0,
                queue_wait_cycles: 0,
                issued_requests: 0,
            }
        }

        fn try_issue(&mut self, now: u64) -> Option<Issued> {
            if self.busy {
                return None;
            }
            let ports = self.queues.len();
            let aged = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(p, q)| q.front().map(|&(_, at)| (p, now.saturating_sub(at))))
                .filter(|&(_, wait)| wait >= self.age_threshold)
                .max_by_key(|&(p, wait)| (wait, std::cmp::Reverse(p)))
                .map(|(p, _)| p);
            let port = match aged {
                Some(p) => {
                    self.aged_issues += 1;
                    p
                }
                None => (0..ports)
                    .map(|k| (self.next_port + k) % ports)
                    .find(|&p| !self.queues[p].is_empty())?,
            };
            let (req, enqueued_at) = self.queues[port].pop_front().unwrap();
            self.next_port = (port + 1) % ports;
            let transfer =
                self.command_cycles + (req.bytes as f64 / self.bytes_per_cycle).ceil() as u64;
            self.busy = true;
            self.queue_wait_cycles += now - enqueued_at;
            self.issued_requests += 1;
            Some(Issued {
                request: req,
                free_at: now + transfer,
                done_at: now + transfer + self.burst_latency,
            })
        }

        fn mean_queue_wait(&self) -> f64 {
            if self.issued_requests == 0 {
                return 0.0;
            }
            self.queue_wait_cycles as f64 / self.issued_requests as f64
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random enqueue / issue / release sequences: the indexed arbiter
        /// issues exactly what the queue-front scan issues, on port counts
        /// that cross the `nonempty` word boundaries, with aging on every
        /// cycle, at the serving threshold and off. Half the enqueues are
        /// backdated, so stamps go backwards across ports (never within a
        /// port) and the index must insert them in `(stamp, port)` order.
        #[test]
        fn flat_arbitration_matches_the_queue_front_scan(
            shape in (0usize..5, 0usize..3, 1u64..48),
            ops in proptest::collection::vec((0u8..4, 0usize..1 << 20, 0u64..4096, 0usize..7), 1..600),
        ) {
            let ports = [1, 8, 32, 65, 130][shape.0];
            let age = [1, 256, u64::MAX][shape.1];
            let cmd = shape.2;
            let mut flat = DramChannel::with_timing(ports, 8.0, 40, age, cmd);
            let mut reference = ReferenceChannel::new(ports, 8.0, 40, age, cmd);
            let (mut now, mut free_at, mut tile) = (0u64, None, 0usize);
            let mut last_stamp = vec![0u64; ports];
            let (mut issued_flat, mut issued_ref) = (Vec::new(), Vec::new());
            for (kind, pick, bytes, dt) in ops {
                match kind {
                    // Enqueue on a random port (half the draws).
                    0 | 1 => {
                        let r = DramRequest {
                            port: pick % ports,
                            stage: pick % 4,
                            tile,
                            bytes,
                            write: pick & 16 != 0,
                        };
                        tile += 1;
                        let back = [0, 0, 1, 2, 64, 128, 256][dt];
                        let stamp = now.saturating_sub(back).max(last_stamp[r.port]);
                        last_stamp[r.port] = stamp;
                        flat.enqueue(r, stamp);
                        reference.queues[r.port].push_back((r, stamp));
                    }
                    2 => {
                        let (a, b) = (flat.try_issue(now), reference.try_issue(now));
                        proptest::prop_assert_eq!(a, b);
                        if let Some(i) = a {
                            free_at = Some(i.free_at);
                            issued_flat.push(i);
                        }
                        issued_ref.extend(b);
                    }
                    // Advance the clock in steps that land waits exactly on
                    // both finite thresholds; release the channel once it
                    // frees.
                    _ => {
                        now += [0, 1, 1, 2, 64, 128, 256][dt];
                        if free_at.is_some_and(|f| f <= now) {
                            free_at = None;
                            flat.release();
                            reference.busy = false;
                        }
                    }
                }
                if age == u64::MAX {
                    proptest::prop_assert!(flat.order.is_empty(), "index filled without aging");
                }
            }
            // Drain both: the tails still agree and the index empties.
            loop {
                flat.release();
                reference.busy = false;
                let (a, b) = (flat.try_issue(now), reference.try_issue(now));
                proptest::prop_assert_eq!(a, b);
                let Some(i) = a else { break };
                issued_flat.push(i);
                issued_ref.extend(b);
                now = i.free_at;
            }
            proptest::prop_assert!(!flat.is_active());
            proptest::prop_assert!(flat.order.is_empty(), "index not drained");
            proptest::prop_assert_eq!(issued_flat, issued_ref);
            proptest::prop_assert_eq!(flat.aged_issues(), reference.aged_issues);
            proptest::prop_assert_eq!(
                flat.mean_queue_wait().to_bits(),
                reference.mean_queue_wait().to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn decreasing_port_stamps_are_rejected() {
        let mut ch = DramChannel::with_aging(2, 1.0, 0, 10);
        ch.enqueue(req(0, 0, 1), 20);
        ch.enqueue(req(0, 1, 1), 19);
    }

    #[test]
    fn aging_index_drains_with_the_queues_and_stays_empty_without_aging() {
        let mut aged = DramChannel::with_aging(4, 1.0, 0, 1);
        let mut plain = DramChannel::new(4, 1.0, 0);
        for ch in [&mut aged, &mut plain] {
            for (port, at) in [(3, 5), (1, 0), (2, 5), (1, 6), (0, 2)] {
                ch.enqueue(req(port, 0, 1), at);
            }
        }
        assert_eq!(aged.order.len(), 5);
        assert!(plain.order.is_empty());
        let mut now = 10;
        // Oldest first (port 1 at 0, port 0 at 2), then equal stamps by
        // port (2 before 3 at 5), then port 1's second request.
        let mut order = Vec::new();
        while let Some(issued) = aged.try_issue(now) {
            order.push(issued.request.port);
            now = issued.free_at;
            aged.release();
            assert!(plain.try_issue(now).is_some());
            plain.release();
            assert!(plain.order.is_empty());
        }
        assert_eq!(order, vec![1, 0, 2, 3, 1]);
        assert_eq!(aged.aged_issues(), 5);
        assert!(!aged.is_active() && !plain.is_active());
        assert!(aged.order.is_empty(), "drained channel keeps index entries");
    }

    #[test]
    fn transfer_memo_is_exact() {
        let mut ch = DramChannel::with_timing(8, 3.0, 0, u64::MAX, 7);
        // Repeated, alternating and zero sizes, then four times as many
        // distinct sizes as memo slots, twice over, so sizes evict each
        // other: every issue equals the direct expression.
        let sizes = [10, 10, 11, 10, 0, 11, 9].into_iter();
        let spread = (0..4 * MEMO_SLOTS as u64).map(|k| k * 97 % 5000);
        for (k, bytes) in sizes.chain(spread.clone()).chain(spread).enumerate() {
            let port = k % 8;
            ch.enqueue(req(port, k, bytes), 0);
            let issued = ch.try_issue(0).unwrap();
            ch.release();
            let expect = 7 + (bytes as f64 / 3.0).ceil() as u64;
            assert_eq!(issued.free_at, expect, "{bytes} B");
            assert_eq!(issued.request, req(port, k, bytes));
        }
    }

    #[test]
    fn idle_channel_issues_nothing() {
        let mut ch = DramChannel::new(2, 4.0, 1);
        assert!(ch.try_issue(0).is_none());
        assert!(!ch.is_active());
        assert_eq!(ch.mean_queue_wait(), 0.0);
    }
}
