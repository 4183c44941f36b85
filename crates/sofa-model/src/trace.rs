//! Serving request traces: who asks for attention, and when.
//!
//! The paper evaluates SOFA one attention task at a time; a serving system
//! instead sees a *stream* of requests — long prefill bursts that attend over
//! the whole context with many parallel queries, and short decode steps with
//! a handful of queries each — arriving at Poisson-ish random times. This
//! module generates such streams deterministically (shim-RNG seeded, so two
//! runs of an experiment see the same trace): [`TraceConfig`] describes the
//! mix and the arrival process, [`TraceConfig::requests`] streams the
//! [`RequestSpec`]s a scheduler (the `sofa-serve` crate) admits onto
//! simulated accelerator instances, and [`RequestTrace::generate`]
//! materialises the same stream. A [`RequestSource`] is either of the two.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use sofa_tensor::seeded_rng;

/// The two request kinds of autoregressive serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Prompt processing: many queries attend over the full context at once.
    Prefill,
    /// Token generation: few queries (typically one batch entry's worth).
    Decode,
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestClass::Prefill => write!(f, "prefill"),
            RequestClass::Decode => write!(f, "decode"),
        }
    }
}

/// One attention request of a serving trace. Carries every shape parameter a
/// hardware model needs to lower it into an attention task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Trace-unique identifier (dense, in arrival order).
    pub id: u64,
    /// Arrival time in accelerator cycles.
    pub arrival_cycle: u64,
    /// Prefill or decode.
    pub class: RequestClass,
    /// Token parallelism `T` of the request.
    pub queries: usize,
    /// Context length `S` the request attends over.
    pub seq_len: usize,
    /// Total hidden width `H`.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Fraction of keys the top-k stage keeps.
    pub keep_ratio: f64,
}

/// Longest mean arrival span [`TraceConfig::validate`] accepts: 2^53
/// cycles, the range in which `f64` holds every integer cycle exactly.
const MAX_MEAN_SPAN_CYCLES: f64 = (1u64 << 53) as f64;

/// Parameters of a synthetic serving trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of requests to generate.
    pub num_requests: usize,
    /// Mean arrival rate in requests per million cycles (Poisson process:
    /// exponential inter-arrival gaps).
    pub arrivals_per_mcycle: f64,
    /// Fraction of requests that are decode steps (the rest are prefills).
    pub decode_fraction: f64,
    /// Query count of a prefill request.
    pub prefill_queries: usize,
    /// Maximum query count of a decode request (sampled in `1..=max`).
    pub max_decode_queries: usize,
    /// Context length of every request.
    pub seq_len: usize,
    /// Hidden width of the served model.
    pub hidden: usize,
    /// Attention heads of the served model.
    pub heads: usize,
    /// Top-k keep ratio applied to every request.
    pub keep_ratio: f64,
    /// RNG seed; the trace is a pure function of this configuration.
    pub(crate) seed: u64,
}

impl TraceConfig {
    /// A small default mix: a 1024-token context on an 8-head, 1024-wide
    /// model, 70 % decode traffic.
    pub fn new(num_requests: usize, arrivals_per_mcycle: f64, seed: u64) -> Self {
        TraceConfig {
            num_requests,
            arrivals_per_mcycle,
            decode_fraction: 0.7,
            prefill_queries: 64,
            max_decode_queries: 4,
            seq_len: 1024,
            hidden: 1024,
            heads: 8,
            keep_ratio: 0.25,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_requests == 0 {
            return Err("num_requests must be positive".into());
        }
        if !(self.arrivals_per_mcycle > 0.0 && self.arrivals_per_mcycle.is_finite()) {
            return Err("arrivals_per_mcycle must be finite and positive".into());
        }
        // Past 2^53 cycles arrival times lose integer precision, and the
        // slowest rates saturate them at `u64::MAX`, where the serving
        // drivers' cycle arithmetic overflows.
        let span = self.num_requests as f64 * 1.0e6 / self.arrivals_per_mcycle;
        if span > MAX_MEAN_SPAN_CYCLES {
            return Err(format!(
                "arrivals_per_mcycle {:e} spreads {} requests over a mean span of \
                 {span:.3e} cycles, past the 2^53-cycle limit",
                self.arrivals_per_mcycle, self.num_requests
            ));
        }
        if !(0.0..=1.0).contains(&self.decode_fraction) {
            return Err("decode_fraction must be in [0, 1]".into());
        }
        if self.prefill_queries == 0 || self.max_decode_queries == 0 {
            return Err("query counts must be positive".into());
        }
        if self.seq_len == 0 || self.hidden == 0 || self.heads == 0 {
            return Err("model shape must be positive".into());
        }
        if !(self.keep_ratio > 0.0 && self.keep_ratio <= 1.0) {
            return Err("keep_ratio must be in (0, 1]".into());
        }
        Ok(())
    }

    /// The requests of this trace, generated one at a time in arrival
    /// order: exactly the requests [`RequestTrace::generate`] holds, from
    /// the same random draws, without holding them. Request `i` reads only
    /// the draws before it, so the stream is prefix-stable: the first `n`
    /// requests of any longer trace of this configuration are the `n`
    /// requests of this one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TraceConfig::validate`].
    pub fn requests(&self) -> TraceRequests {
        self.validate().expect("invalid trace config");
        TraceRequests {
            rng: seeded_rng(self.seed),
            mean_gap: 1.0e6 / self.arrivals_per_mcycle,
            clock: 0.0,
            next: 0,
            cfg: self.clone(),
        }
    }
}

/// The lazy request stream of one [`TraceConfig`]
/// ([`TraceConfig::requests`]): its generator state, and nothing per
/// request.
#[derive(Debug, Clone)]
pub struct TraceRequests {
    cfg: TraceConfig,
    rng: ChaCha8Rng,
    mean_gap: f64,
    /// Arrival clock of the last request, in fractional cycles.
    clock: f64,
    /// Id of the next request.
    next: u64,
}

impl TraceRequests {
    /// Draws the next request; the caller checks that one is left.
    #[inline]
    fn draw(&mut self) -> RequestSpec {
        let cfg = &self.cfg;
        // Exponential inter-arrival gap (inverse-CDF of Exp(1/gap)).
        let u: f64 = self.rng.gen();
        self.clock += -(1.0 - u).ln() * self.mean_gap;
        let class = if self.rng.gen_bool(cfg.decode_fraction) {
            RequestClass::Decode
        } else {
            RequestClass::Prefill
        };
        let queries = match class {
            RequestClass::Prefill => cfg.prefill_queries,
            RequestClass::Decode => self.rng.gen_range(1..=cfg.max_decode_queries),
        };
        let id = self.next;
        self.next += 1;
        RequestSpec {
            id,
            arrival_cycle: self.clock.round() as u64,
            class,
            queries,
            seq_len: cfg.seq_len,
            hidden: cfg.hidden,
            heads: cfg.heads,
            keep_ratio: cfg.keep_ratio,
        }
    }
}

impl Iterator for TraceRequests {
    type Item = RequestSpec;

    fn next(&mut self) -> Option<RequestSpec> {
        (self.next < self.cfg.num_requests as u64).then(|| self.draw())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.num_requests - self.next as usize;
        (left, Some(left))
    }

    /// One counted loop over the draws left, with no per-request
    /// end-of-stream check: [`RequestTrace::generate`] collects through it.
    fn fold<B, F: FnMut(B, RequestSpec) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        for _ in self.next..self.cfg.num_requests as u64 {
            acc = f(acc, self.draw());
        }
        acc
    }
}

impl ExactSizeIterator for TraceRequests {}

/// Where a serving run takes its requests from, in arrival order: a
/// materialised [`RequestTrace`] or a [`TraceRequests`] stream. A run
/// that reads a stream holds no request it has not been offered yet.
#[derive(Debug, Clone)]
pub enum RequestSource<'t> {
    /// The requests of a materialised trace.
    Trace(std::slice::Iter<'t, RequestSpec>),
    /// A generated stream.
    Stream(TraceRequests),
}

impl Iterator for RequestSource<'_> {
    type Item = RequestSpec;

    #[inline]
    fn next(&mut self) -> Option<RequestSpec> {
        match self {
            RequestSource::Trace(specs) => specs.next().copied(),
            RequestSource::Stream(stream) => stream.next(),
        }
    }
}

impl<'t> From<&'t RequestTrace> for RequestSource<'t> {
    fn from(trace: &'t RequestTrace) -> Self {
        RequestSource::Trace(trace.requests.iter())
    }
}

impl From<TraceRequests> for RequestSource<'_> {
    fn from(stream: TraceRequests) -> Self {
        RequestSource::Stream(stream)
    }
}

/// A generated request stream, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The configuration the trace was generated from.
    pub config: TraceConfig,
    /// The requests, sorted by (and identified in) arrival order.
    pub requests: Vec<RequestSpec>,
}

impl RequestTrace {
    /// Generates the trace described by `cfg`: [`TraceConfig::requests`],
    /// collected into one allocation of exactly `cfg.num_requests`
    /// requests. Deterministic: the same configuration always yields the
    /// same trace.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`TraceConfig::validate`].
    pub fn generate(cfg: &TraceConfig) -> Self {
        let mut requests = Vec::with_capacity(cfg.num_requests);
        cfg.requests().for_each(|r| requests.push(r));
        RequestTrace {
            config: cfg.clone(),
            requests,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Arrival time of the last request (the offered-load horizon).
    pub fn span_cycles(&self) -> u64 {
        self.requests.last().map(|r| r.arrival_cycle).unwrap_or(0)
    }

    /// Fraction of requests that are decode steps.
    pub fn decode_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let decodes = self
            .requests
            .iter()
            .filter(|r| r.class == RequestClass::Decode)
            .count();
        decodes as f64 / self.requests.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::new(64, 50.0, 42);
        let a = RequestTrace::generate(&cfg);
        let b = RequestTrace::generate(&cfg);
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        assert_ne!(a, RequestTrace::generate(&cfg2));
    }

    /// A small mix whose decodes draw their query counts, so every request
    /// reads two or three random draws.
    fn mixed(n: usize, seed: u64) -> TraceConfig {
        let mut cfg = TraceConfig::new(n, 120.0, seed);
        cfg.max_decode_queries = 7;
        cfg
    }

    #[test]
    fn the_stream_yields_the_generated_trace() {
        for (n, seed) in [(1, 0), (3, 5), (257, 42), (2_000, 0xDEC0DE)] {
            let cfg = mixed(n, seed);
            let trace = RequestTrace::generate(&cfg);
            assert_eq!(trace.requests.capacity(), n, "one exact allocation");
            let stream = cfg.requests();
            assert_eq!(stream.len(), n);
            let streamed: Vec<RequestSpec> = stream.collect();
            assert_eq!(streamed, trace.requests, "{n} requests at seed {seed}");
            let source: Vec<RequestSpec> = RequestSource::from(&trace).collect();
            assert_eq!(
                source,
                RequestSource::from(cfg.requests()).collect::<Vec<_>>()
            );
        }
        // The draws of the generator as it was before it streamed: the
        // first arrivals and two sums over 2,000 requests.
        let trace: Vec<RequestSpec> = mixed(2_000, 0xDEC0DE).requests().collect();
        let head: Vec<_> = trace[..3]
            .iter()
            .map(|r| (r.arrival_cycle, r.class, r.queries))
            .collect();
        use RequestClass::Decode;
        assert_eq!(
            head,
            [(7091, Decode, 7), (10262, Decode, 7), (13166, Decode, 6)]
        );
        let arrivals: u64 = trace.iter().map(|r| r.arrival_cycle).sum();
        let queries: usize = trace.iter().map(|r| r.queries).sum();
        assert_eq!((arrivals, queries), (15_913_275_357, 43_940));
    }

    #[test]
    fn the_stream_is_prefix_stable() {
        let long: Vec<RequestSpec> = mixed(1_000, 9).requests().collect();
        for n in [1, 2, 17, 500, 999] {
            let short: Vec<RequestSpec> = mixed(n, 9).requests().collect();
            assert_eq!(short[..], long[..n], "the first {n} requests");
        }
    }

    #[test]
    fn arrivals_are_sorted_and_ids_dense() {
        let trace = RequestTrace::generate(&TraceConfig::new(100, 20.0, 7));
        assert_eq!(trace.len(), 100);
        for (i, r) in trace.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
    }

    #[test]
    fn empirical_mean_inter_arrival_converges_to_the_configured_rate() {
        // 1/rate is the configured mean gap; over a long trace the empirical
        // mean (span / number of gaps, counting the gap from t=0 to the
        // first arrival) must converge to it within sampling noise.
        for (rate, seed) in [(50.0f64, 123u64), (200.0, 9), (5.0, 77)] {
            let n = 4000;
            let trace = RequestTrace::generate(&TraceConfig::new(n, rate, seed));
            let configured_gap = 1.0e6 / rate;
            let empirical_gap = trace.span_cycles() as f64 / n as f64;
            let err = (empirical_gap - configured_gap).abs() / configured_gap;
            assert!(
                err < 0.05,
                "rate {rate}: empirical mean gap {empirical_gap:.1} deviates \
                 {:.1}% from configured {configured_gap:.1}",
                100.0 * err
            );
        }
    }

    #[test]
    fn empirical_decode_fraction_converges_to_the_configured_mix() {
        for (fraction, seed) in [(0.7f64, 3u64), (0.2, 41), (0.95, 8)] {
            let mut cfg = TraceConfig::new(4000, 50.0, seed);
            cfg.decode_fraction = fraction;
            let trace = RequestTrace::generate(&cfg);
            let empirical = trace.decode_fraction();
            assert!(
                (empirical - fraction).abs() < 0.03,
                "decode fraction {empirical} should converge to {fraction}"
            );
        }
        // Degenerate mixes are exact, not just convergent.
        let mut cfg = TraceConfig::new(200, 50.0, 1);
        cfg.decode_fraction = 0.0;
        assert_eq!(RequestTrace::generate(&cfg).decode_fraction(), 0.0);
        cfg.decode_fraction = 1.0;
        assert_eq!(RequestTrace::generate(&cfg).decode_fraction(), 1.0);
    }

    #[test]
    fn same_seed_traces_are_identical_request_by_request() {
        // Beyond whole-struct equality: every field of every request agrees,
        // and the equality survives a change of an unrelated config clone.
        let cfg = TraceConfig::new(256, 120.0, 0xDEC0DE);
        let a = RequestTrace::generate(&cfg);
        let b = RequestTrace::generate(&cfg.clone());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.requests.iter().zip(b.requests.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_cycle, y.arrival_cycle);
            assert_eq!(x.class, y.class);
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.seq_len, y.seq_len);
            assert_eq!(x.hidden, y.hidden);
            assert_eq!(x.heads, y.heads);
            assert!((x.keep_ratio - y.keep_ratio).abs() == 0.0);
        }
    }

    #[test]
    fn rate_controls_the_span() {
        let slow = RequestTrace::generate(&TraceConfig::new(200, 5.0, 1));
        let fast = RequestTrace::generate(&TraceConfig::new(200, 500.0, 1));
        assert!(
            slow.span_cycles() > 10 * fast.span_cycles(),
            "a 100x rate difference must compress arrivals: {} vs {}",
            slow.span_cycles(),
            fast.span_cycles()
        );
    }

    #[test]
    fn class_mix_tracks_the_configured_fraction() {
        let mut cfg = TraceConfig::new(400, 50.0, 11);
        cfg.decode_fraction = 0.7;
        let trace = RequestTrace::generate(&cfg);
        let f = trace.decode_fraction();
        assert!((0.6..0.8).contains(&f), "decode fraction {f}");
        for r in &trace.requests {
            match r.class {
                RequestClass::Prefill => assert_eq!(r.queries, cfg.prefill_queries),
                RequestClass::Decode => {
                    assert!((1..=cfg.max_decode_queries).contains(&r.queries))
                }
            }
        }
    }

    #[test]
    fn a_rate_too_slow_for_the_cycle_range_is_rejected() {
        // 10 requests at 1e-300 per Mcycle would saturate every arrival at
        // `u64::MAX`.
        let err = TraceConfig::new(10, 1e-300, 0)
            .validate()
            .expect_err("a 1e306-cycle span must not validate");
        assert!(err.contains("arrivals_per_mcycle"), "{err}");
        // The limit is on the mean span: num_requests × 1e6 / rate ≤ 2^53.
        let edge = 10.0 * 1.0e6 / MAX_MEAN_SPAN_CYCLES;
        assert_eq!(TraceConfig::new(10, edge * 1.001, 0).validate(), Ok(()));
        assert!(TraceConfig::new(10, edge / 2.0, 0).validate().is_err());
        assert!(TraceConfig::new(20, edge, 0).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid trace config")]
    fn zero_rate_panics() {
        let _ = RequestTrace::generate(&TraceConfig::new(4, 0.0, 0));
    }
}
