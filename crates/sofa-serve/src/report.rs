//! Per-request serving outcomes and their aggregation.

use sofa_model::trace::RequestClass;
use sofa_obs::QuantileSketch;
use sofa_sim::MultiReport;

/// The lifecycle timestamps of one served request (all in cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Trace id of the request.
    pub id: u64,
    /// Prefill or decode.
    pub class: RequestClass,
    /// Instance the request was placed on.
    pub(crate) instance: usize,
    /// When the request arrived at the scheduler.
    pub arrival: u64,
    /// When admission control placed it on its instance.
    pub admitted: u64,
    /// When its formal-compute stage produced the last output tile.
    pub completed: u64,
    /// Buffer bytes admission control accounted for the request.
    pub footprint_bytes: u64,
    /// Projected energy of the request (all layers of its operating point)
    /// in picojoules, from the DSE energy model.
    pub energy_pj: f64,
    /// Whether any mechanism (energy budget, decay, feedback, retry)
    /// re-routed the request to a leaner operating point before admission.
    pub rerouted: bool,
    /// Whether the decay threshold re-lowered the request while it waited.
    pub(crate) decayed: bool,
    /// Client re-submissions before this request was served (0 for
    /// first-attempt admissions).
    pub retries: u32,
}

/// A request the energy budget rejected: even the leanest available
/// operating point projected above the per-request ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Trace id of the request.
    pub id: u64,
    /// Prefill or decode.
    pub class: RequestClass,
    /// When the request first arrived at the scheduler (the original
    /// submission, not the last retry).
    pub(crate) arrival: u64,
    /// The (over-budget) projected energy at the leanest point tried.
    pub(crate) energy_pj: f64,
    /// Client re-submissions attempted before the request was shed for good
    /// (0 when no retry policy is configured).
    pub(crate) retries: u32,
}

impl RequestRecord {
    /// End-to-end latency: arrival to completion.
    pub(crate) fn latency(&self) -> u64 {
        self.completed - self.arrival
    }

    /// Queueing delay: arrival to admission.
    pub fn queueing_delay(&self) -> u64 {
        self.admitted - self.arrival
    }

    /// Service time: admission to completion.
    pub fn service_time(&self) -> u64 {
        self.completed - self.admitted
    }
}

/// The outcome of serving one request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request lifecycle records of the *served* requests, in trace
    /// order.
    pub records: Vec<RequestRecord>,
    /// Requests the energy budget shed instead of admitting.
    pub shed: Vec<ShedRecord>,
    /// The underlying multi-instance simulation accounting (per-instance
    /// stage activity, shared-DRAM statistics).
    pub multi: MultiReport,
    /// End-to-end makespan in cycles (first arrival to last event).
    pub total_cycles: u64,
    /// The per-instance admission budget in bytes
    /// ([`ServeConfig::admit_buffer_bytes`](crate::ServeConfig::admit_buffer_bytes)).
    pub budget_bytes: u64,
    /// Highest concurrently-admitted footprint observed per instance.
    pub peak_inflight_bytes: Vec<u64>,
    /// Projected energy admitted onto each instance in picojoules.
    pub(crate) energy_pj_per_instance: Vec<f64>,
    /// Retry re-arrivals the scheduler admitted back into the wait queue
    /// (shed requests whose backoff-and-degrade resubmission fit the
    /// budget). Zero without a retry policy.
    pub retried: u64,
    /// Streaming sketch of the end-to-end latencies, built once at report
    /// construction — percentile queries are a bucket walk, not a sort.
    pub(crate) latency: QuantileSketch,
}

impl ServeReport {
    /// The latency sketch of `records`: build it once when constructing a
    /// report instead of sorting per percentile call.
    pub(crate) fn sketch_latencies(records: &[RequestRecord]) -> QuantileSketch {
        QuantileSketch::collect(records.iter().map(|r| r.latency()))
    }

    /// Latency at percentile `p` (nearest-rank over all requests, answered
    /// by the streaming sketch: exact below 256 cycles, within 1/128
    /// relative error above).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]` or the report is empty.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        assert!(!self.records.is_empty(), "no requests were served");
        self.latency.percentile(p)
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> u64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile (tail) latency.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Mean cycles requests waited for admission.
    pub fn mean_queueing_delay(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: u64 = self.records.iter().map(|r| r.queueing_delay()).sum();
        total as f64 / self.records.len() as f64
    }

    /// Completed requests per million cycles.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.records.len() as f64 * 1.0e6 / self.total_cycles as f64
    }

    /// Bottleneck-stage busy fraction of instance `i` over the makespan.
    pub fn instance_utilization(&self, i: usize) -> f64 {
        self.multi.instances[i].utilization(self.total_cycles)
    }

    /// Mean utilization across instances.
    pub fn mean_utilization(&self) -> f64 {
        let n = self.multi.instances.len();
        (0..n).map(|i| self.instance_utilization(i)).sum::<f64>() / n as f64
    }

    /// Requests that ran on instance `i`.
    pub(crate) fn requests_on(&self, i: usize) -> usize {
        self.records.iter().filter(|r| r.instance == i).count()
    }

    /// Total projected energy of the served requests in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.records.iter().map(|r| r.energy_pj).sum()
    }

    /// Mean projected energy per served request in picojoules — the J/req
    /// axis the routing gate tracks.
    pub fn energy_pj_per_request(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.total_energy_pj() / self.records.len() as f64
    }

    /// Requests the energy budget re-routed to a leaner point.
    pub fn rerouted_requests(&self) -> usize {
        self.records.iter().filter(|r| r.rerouted).count()
    }

    /// Served requests the decay threshold re-lowered while they waited.
    pub fn decayed_requests(&self) -> usize {
        self.records.iter().filter(|r| r.decayed).count()
    }

    /// Served requests that went through at least one client retry.
    pub fn retried_served(&self) -> usize {
        self.records.iter().filter(|r| r.retries > 0).count()
    }

    /// Adds the report's summary statistics to `reg` under the `serve.`
    /// prefix: request counters (total/admitted/shed/rerouted and per
    /// class), latency and queueing-delay histograms, scheduler-level
    /// gauges, and per-instance `serve.inst{i}.*` gauges.
    pub(crate) fn record_metrics(&self, reg: &mut sofa_obs::MetricsRegistry) {
        // Decade-ish buckets spanning single-tile decodes to saturated
        // multi-layer prefills (cycles).
        const CYCLE_BOUNDS: [f64; 8] = [1e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7];
        reg.inc(
            "serve.requests.total",
            (self.records.len() + self.shed.len()) as u64,
        );
        reg.inc("serve.requests.admitted", self.records.len() as u64);
        reg.inc("serve.requests.shed", self.shed.len() as u64);
        reg.inc("serve.requests.rerouted", self.rerouted_requests() as u64);
        // Adaptive-controller counters appear only when the mechanisms are
        // active, so non-adaptive runs keep their exact metrics snapshot.
        if self.decayed_requests() > 0 {
            reg.inc("serve.requests.decayed", self.decayed_requests() as u64);
        }
        if self.retried > 0 {
            reg.inc("serve.requests.retried", self.retried);
        }
        for r in &self.records {
            let class = match r.class {
                RequestClass::Prefill => "serve.requests.prefill",
                RequestClass::Decode => "serve.requests.decode",
            };
            reg.inc(class, 1);
            reg.observe("serve.latency_cycles", &CYCLE_BOUNDS, r.latency() as f64);
            reg.observe(
                "serve.queueing_cycles",
                &CYCLE_BOUNDS,
                r.queueing_delay() as f64,
            );
        }
        reg.set_gauge("serve.total_cycles", self.total_cycles as f64);
        reg.set_gauge("serve.throughput_per_mcycle", self.throughput_per_mcycle());
        reg.set_gauge("serve.mean_queueing_delay", self.mean_queueing_delay());
        reg.set_gauge("serve.energy_pj_per_request", self.energy_pj_per_request());
        if !self.records.is_empty() {
            reg.set_gauge("serve.latency_p50", self.p50() as f64);
            reg.set_gauge("serve.latency_p95", self.p95() as f64);
            reg.set_gauge("serve.latency_p99", self.p99() as f64);
        }
        for i in 0..self.multi.instances.len() {
            reg.set_gauge(
                &format!("serve.inst{i}.requests"),
                self.requests_on(i) as f64,
            );
            reg.set_gauge(
                &format!("serve.inst{i}.utilization"),
                self.instance_utilization(i),
            );
            reg.set_gauge(
                &format!("serve.inst{i}.peak_inflight_bytes"),
                self.peak_inflight_bytes[i] as f64,
            );
            reg.set_gauge(
                &format!("serve.inst{i}.energy_pj"),
                self.energy_pj_per_instance[i],
            );
        }
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests {}  makespan {} cyc  throughput {:.2} req/Mcyc\n",
            self.records.len(),
            self.total_cycles,
            self.throughput_per_mcycle(),
        ));
        if !self.records.is_empty() {
            out.push_str(&format!(
                "latency p50 {}  p95 {}  p99 {}  mean queueing {:.0} cyc\n",
                self.p50(),
                self.p95(),
                self.p99(),
                self.mean_queueing_delay(),
            ));
        }
        out.push_str(&format!(
            "energy {:.1} nJ total, {:.1} nJ/req  rerouted {}  shed {}\n",
            self.total_energy_pj() / 1e3,
            self.energy_pj_per_request() / 1e3,
            self.rerouted_requests(),
            self.shed.len(),
        ));
        if self.decayed_requests() > 0 || self.retried > 0 {
            out.push_str(&format!(
                "adaptive: decayed {}  retried {} ({} served after retry)\n",
                self.decayed_requests(),
                self.retried,
                self.retried_served(),
            ));
        }
        for (i, act) in self.multi.instances.iter().enumerate() {
            out.push_str(&format!(
                "instance {i}: {} requests  util {:>5.1}%  peak buffer {}/{} B\n",
                act.requests,
                100.0 * self.instance_utilization(i),
                self.peak_inflight_bytes[i],
                self.budget_bytes,
            ));
        }
        out.push_str(&format!(
            "dram: {:.1} MB moved, {:.1}% busy, mean queue wait {:.0} cyc, {} aged issues\n",
            self.multi.dram.total_bytes() as f64 / 1e6,
            100.0 * self.multi.dram.utilization(self.total_cycles),
            self.multi.dram_mean_queue_wait,
            self.multi.dram_aged_issues,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_sim::{DramActivity, InstanceActivity, StageActivity};

    fn record(id: u64, arrival: u64, admitted: u64, completed: u64) -> RequestRecord {
        RequestRecord {
            id,
            class: RequestClass::Decode,
            instance: 0,
            arrival,
            admitted,
            completed,
            footprint_bytes: 100,
            energy_pj: 500.0,
            rerouted: false,
            decayed: false,
            retries: 0,
        }
    }

    fn report(records: Vec<RequestRecord>) -> ServeReport {
        let n = records.len();
        let latency = ServeReport::sketch_latencies(&records);
        ServeReport {
            records,
            shed: Vec::new(),
            multi: MultiReport {
                total_cycles: 1000,
                instances: vec![InstanceActivity {
                    stages: [StageActivity {
                        busy: 500,
                        ..Default::default()
                    }; 4],
                    tiles: 4 * n,
                    requests: n,
                    buffer_occupancy: [0.0; 3],
                }],
                dram: DramActivity {
                    bytes_read: 1_000_000,
                    bytes_written: 100_000,
                    busy_cycles: 400,
                },
                dram_aged_issues: 0,
                dram_mean_queue_wait: 0.0,
            },
            total_cycles: 1000,
            budget_bytes: 1000,
            peak_inflight_bytes: vec![300],
            energy_pj_per_instance: vec![500.0 * n as f64],
            retried: 0,
            latency,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // Latencies 10, 20, ..., 100.
        let records = (0..10).map(|i| record(i, 0, 0, (i + 1) * 10)).collect();
        let r = report(records);
        assert_eq!(r.p50(), 50);
        assert_eq!(r.p95(), 100);
        assert_eq!(r.p99(), 100);
        assert_eq!(r.latency_percentile(10.0), 10);
        assert_eq!(r.latency_percentile(100.0), 100);
    }

    #[test]
    fn delays_and_throughput() {
        let r = report(vec![record(0, 0, 40, 100), record(1, 10, 20, 60)]);
        assert!((r.mean_queueing_delay() - 25.0).abs() < 1e-12);
        assert_eq!(r.records[0].service_time(), 60);
        assert_eq!(r.records[1].latency(), 50);
        assert!((r.throughput_per_mcycle() - 2000.0).abs() < 1e-9);
        assert!((r.instance_utilization(0) - 0.5).abs() < 1e-12);
        assert!((r.mean_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.requests_on(0), 2);
        assert!((r.total_energy_pj() - 1000.0).abs() < 1e-12);
        assert!((r.energy_pj_per_request() - 500.0).abs() < 1e-12);
        assert_eq!(r.rerouted_requests(), 0);
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let r = report(vec![record(0, 0, 0, 100)]);
        let s = r.summary();
        assert!(s.contains("p50"));
        assert!(s.contains("instance 0"));
        assert!(s.contains("dram"));
        assert!(s.contains("nJ/req"));
    }

    #[test]
    fn summary_of_an_all_shed_run_skips_the_latency_line() {
        let mut r = report(Vec::new());
        r.shed.push(ShedRecord {
            id: 0,
            class: RequestClass::Prefill,
            arrival: 0,
            energy_pj: 2.0,
            retries: 0,
        });
        let s = r.summary();
        assert!(!s.contains("p50"), "{s}");
        assert!(s.contains("requests 0") && s.contains("shed 1"), "{s}");
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn zero_percentile_panics() {
        let r = report(vec![record(0, 0, 0, 1)]);
        let _ = r.latency_percentile(0.0);
    }
}
