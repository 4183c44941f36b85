//! Serving a trace under DSE-derived operating points: single tuned points,
//! per-class Pareto routing, and the three-way study the `serve_routed`
//! experiment and CI gate consume.
//!
//! `sofa-dse`'s [`DseReport`] carries both a single tuned recommendation
//! ([`DseReport::tuned_operating_point`]) and the full Pareto front as a
//! routing table ([`sofa_dse::ParetoFront::route`]). This module makes the
//! report directly consumable by the serving layer:
//!
//! * [`ServeSim::run_tuned`] serves a trace with every request lowered at
//!   one fixed [`OperatingPoint`];
//! * [`ServeSim::run_routed`] routes each request through the front at
//!   admission time — latency-lean points for decodes, energy-lean points
//!   for prefills — with the energy budget re-routing or shedding
//!   over-budget requests;
//! * [`ServeSim::run_ab`] compares the paper-default point against the
//!   tuned point on the same trace;
//! * [`ServeSim::run_routed_study`] adds the routed deployment (and a
//!   budgeted variant of it) to that comparison — the (p95, J/req) evidence
//!   the regression gate checks;
//! * [`ServeSim::run_adaptive_study`] pits the closed-loop controller
//!   (decay + measured-state feedback + shed/retry,
//!   [`AdaptiveServeConfig`]) against static budgeted Pareto
//!   routing on the same overload trace — the evidence behind the
//!   `serve_adaptive` experiment and regression gate 7.

use crate::report::ServeReport;
use crate::scheduler::{FeedbackConfig, OpRouter, RetryPolicy, ServeSim};
use sofa_dse::DseReport;
use sofa_model::trace::{RequestClass, RequestTrace};
use sofa_model::OperatingPoint;

/// The two serving outcomes of one [`ServeSim::run_ab`] call, plus the tuned
/// operating point that produced the B side.
#[derive(Debug, Clone, PartialEq)]
pub struct DseServeComparison {
    /// The trace served at the paper-default operating point (same layer
    /// count as the tuned point, so the work is comparable).
    pub baseline: ServeReport,
    /// The trace served at the tuned operating point.
    pub tuned: ServeReport,
    /// The operating point every request of the tuned side was lowered at.
    pub tuned_op: OperatingPoint,
}

impl DseServeComparison {
    /// Tail-latency gain of the tuned configuration (`baseline p95 /
    /// tuned p95`; > 1 means the tuned point is faster).
    pub fn p95_gain(&self) -> f64 {
        self.baseline.p95() as f64 / self.tuned.p95().max(1) as f64
    }

    /// Makespan gain of the tuned configuration (> 1 means faster).
    pub fn makespan_gain(&self) -> f64 {
        self.baseline.total_cycles as f64 / self.tuned.total_cycles.max(1) as f64
    }

    /// Energy-per-request gain of the tuned configuration (> 1 means the
    /// tuned point spends less energy per served request).
    pub fn energy_gain(&self) -> f64 {
        self.baseline.energy_pj_per_request() / self.tuned.energy_pj_per_request().max(1e-12)
    }
}

/// The four-way routed serving study: the same trace at the paper-default
/// point, the single tuned point, Pareto-routed, and Pareto-routed under an
/// energy budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedServeStudy {
    /// Served at [`OperatingPoint::paper_default`] (the front's layer
    /// count).
    pub paper_default: ServeReport,
    /// Served at the single tuned recommendation.
    pub tuned: ServeReport,
    /// Per-request Pareto routing, no energy budget.
    pub routed: ServeReport,
    /// Per-request Pareto routing under [`RoutedServeStudy::budget_pj`].
    pub budgeted: ServeReport,
    /// The single tuned point the `tuned` report used.
    pub tuned_op: OperatingPoint,
    /// The point decodes route to.
    pub decode_op: OperatingPoint,
    /// The point prefills route to.
    pub prefill_op: OperatingPoint,
    /// The per-request energy ceiling of the budgeted run (¾ of the
    /// paper-default J/req).
    pub budget_pj: f64,
}

impl RoutedServeStudy {
    /// Whether the routed deployment strictly dominates the paper default
    /// on (p95 latency, J/req) — the acceptance bar of the `serve_routed`
    /// regression gate.
    pub fn routed_dominates_default(&self) -> bool {
        self.routed.p95() < self.paper_default.p95()
            && self.routed.energy_pj_per_request() < self.paper_default.energy_pj_per_request()
    }
}

/// The adaptive arm's controller knobs, bundled so the experiment, the
/// regression gate and the golden snapshot agree on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveServeConfig {
    /// Waiting cycles past which a queued request decays to a leaner point
    /// ([`crate::ServeConfig::decay_threshold`]).
    pub decay_threshold: u64,
    /// Client backoff/degrade model for shed requests
    /// ([`crate::ServeConfig::retry`]).
    pub retry: RetryPolicy,
    /// Measured-state feedback parameters ([`OpRouter::Feedback`]).
    pub feedback: FeedbackConfig,
}

impl AdaptiveServeConfig {
    /// A controller targeting `target_latency_cycles`: decay at half the
    /// target, default client retries, default feedback bars.
    pub fn targeting(target_latency_cycles: u64) -> Self {
        AdaptiveServeConfig {
            decay_threshold: (target_latency_cycles / 2).max(1),
            retry: RetryPolicy::default(),
            feedback: FeedbackConfig::new(target_latency_cycles),
        }
    }
}

/// The two arms of one [`ServeSim::run_adaptive_study`] call: the same
/// overload trace under static budgeted Pareto routing and under the
/// closed-loop adaptive controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveServeStudy {
    /// Static per-class Pareto routing under [`AdaptiveServeStudy::budget_pj`]
    /// — the strongest open-loop deployment (PR 5's budgeted routed serving).
    pub static_routed: ServeReport,
    /// The closed-loop controller on the identical trace, budget and front:
    /// decay, measured-state feedback and shed/retry all active.
    pub adaptive: ServeReport,
    /// The per-request energy ceiling both arms run under (¾ of the
    /// measured paper-default J/req, as in [`RoutedServeStudy`]).
    pub budget_pj: f64,
    /// The controller configuration of the adaptive arm.
    pub controller: AdaptiveServeConfig,
}

impl AdaptiveServeStudy {
    /// Whether the adaptive arm strictly dominates static routing on
    /// (p95 latency, shed count) while staying within 5% of its J/req —
    /// the acceptance bar of regression gate 7.
    pub fn adaptive_dominates_static(&self) -> bool {
        self.adaptive.p95() < self.static_routed.p95()
            && self.adaptive.shed.len() <= self.static_routed.shed.len()
            && self.adaptive.energy_pj_per_request()
                <= 1.05 * self.static_routed.energy_pj_per_request()
    }

    /// J/req of the adaptive arm relative to the static arm (< 1 means the
    /// controller also saves energy).
    pub fn energy_ratio(&self) -> f64 {
        self.adaptive.energy_pj_per_request()
            / self.static_routed.energy_pj_per_request().max(1e-12)
    }
}

impl ServeSim {
    /// Serves `trace` with every request lowered at `op`; everything else
    /// (HW, instances, admission policy, energy budget) comes from this
    /// scheduler's config.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run_tuned(&self, trace: &RequestTrace, op: &OperatingPoint) -> ServeReport {
        self.run_with(trace, OpRouter::Fixed(op))
    }

    /// Serves `trace` with each request routed through `dse`'s Pareto front
    /// at admission time ([`sofa_dse::ParetoFront::route`]).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn run_routed(&self, trace: &RequestTrace, dse: &DseReport) -> ServeReport {
        self.run_with(trace, OpRouter::Pareto(&dse.pareto))
    }

    /// Serves `trace` twice — at the paper-default point and at `dse`'s
    /// tuned point, both with the tuned point's layer count — and returns
    /// both reports for side-by-side comparison.
    pub fn run_ab(&self, trace: &RequestTrace, dse: &DseReport) -> DseServeComparison {
        let tuned_op = dse.tuned_operating_point();
        let default_op = OperatingPoint::paper_default(tuned_op.layers());
        DseServeComparison {
            baseline: self.run_tuned(trace, &default_op),
            tuned: self.run_tuned(trace, &tuned_op),
            tuned_op,
        }
    }

    /// The full routed study: paper default vs single tuned point vs Pareto
    /// routing vs budgeted Pareto routing, all on the same trace and layer
    /// count. The budgeted run re-uses this scheduler's configuration with
    /// the per-request energy ceiling set to ¾ of the measured
    /// paper-default J/req, demonstrating budget-driven re-routing/shedding.
    pub fn run_routed_study(&self, trace: &RequestTrace, dse: &DseReport) -> RoutedServeStudy {
        let tuned_op = dse.tuned_operating_point();
        let default_op = OperatingPoint::paper_default(tuned_op.layers());
        let paper_default = self.run_tuned(trace, &default_op);
        let tuned = self.run_tuned(trace, &tuned_op);
        let routed = self.run_routed(trace, dse);
        let budget_pj = 0.75 * paper_default.energy_pj_per_request();
        let mut budget_cfg = self.config().clone();
        budget_cfg.energy_budget_pj_per_req = Some(budget_pj);
        let budgeted = ServeSim::new(budget_cfg).run_routed(trace, dse);
        RoutedServeStudy {
            paper_default,
            tuned,
            routed,
            budgeted,
            tuned_op,
            decode_op: dse.route(&RequestClass::Decode),
            prefill_op: dse.route(&RequestClass::Prefill),
            budget_pj,
        }
    }

    /// The closed-loop study: the same overload trace under static budgeted
    /// Pareto routing and under the full adaptive controller, with the
    /// per-request energy ceiling set (as in
    /// [`ServeSim::run_routed_study`]) to ¾ of the measured paper-default
    /// J/req. The static arm runs this scheduler's configuration plus the
    /// budget; the adaptive arm additionally enables `controller`'s decay
    /// threshold and retry policy, and routes
    /// through [`OpRouter::Feedback`]. Both arms are deterministic, so the
    /// study is too.
    pub fn run_adaptive_study(
        &self,
        trace: &RequestTrace,
        dse: &DseReport,
        controller: &AdaptiveServeConfig,
    ) -> AdaptiveServeStudy {
        let default_op = OperatingPoint::paper_default(dse.pareto.layers());
        let paper_default = self.run_tuned(trace, &default_op);
        let budget_pj = 0.75 * paper_default.energy_pj_per_request();

        let mut static_cfg = self.config().clone();
        static_cfg.energy_budget_pj_per_req = Some(budget_pj);
        let static_routed = ServeSim::new(static_cfg.clone()).run_routed(trace, dse);

        let mut adaptive_cfg = static_cfg;
        adaptive_cfg.decay_threshold = Some(controller.decay_threshold);
        adaptive_cfg.retry = Some(controller.retry);
        let adaptive = ServeSim::new(adaptive_cfg)
            .run_with(trace, OpRouter::Feedback(&dse.pareto, &controller.feedback));

        AdaptiveServeStudy {
            static_routed,
            adaptive,
            budget_pj,
            controller: controller.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;
    use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
    use sofa_hw::config::HwConfig;
    use sofa_model::trace::TraceConfig;

    fn trace(n: usize, seed: u64) -> RequestTrace {
        let mut tc = TraceConfig::new(n, 80.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        RequestTrace::generate(&tc)
    }

    fn smoke_dse(seed: u64) -> DseReport {
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed))
    }

    #[test]
    fn tuned_run_lowers_every_request_at_the_fixed_point() {
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 1));
        let t = trace(8, 3);
        let lean = OperatingPoint::single(0.1, 64);
        let tuned = sim.run_tuned(&t, &lean);
        assert_eq!(tuned.records.len(), 8);
        // A 10% keep ratio books smaller footprints than the trace's native
        // 25%-ish ratios under measured-footprint admission.
        let base = sim.run(&t);
        let sum = |r: &ServeReport| r.records.iter().map(|x| x.footprint_bytes).sum::<u64>();
        assert!(sum(&tuned) < sum(&base));
    }

    #[test]
    fn ab_comparison_is_deterministic_and_complete() {
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));
        let t = trace(10, 7);
        let dse = smoke_dse(7);
        let a = sim.run_ab(&t, &dse);
        let b = sim.run_ab(&t, &dse);
        assert_eq!(a, b);
        assert_eq!(a.baseline.records.len(), 10);
        assert_eq!(a.tuned.records.len(), 10);
        assert_eq!(a.tuned_op, dse.tuned_operating_point());
        assert!(a.p95_gain() > 0.0);
        assert!(a.makespan_gain() > 0.0);
        assert!(a.energy_gain() > 0.0);
    }

    #[test]
    fn routed_requests_follow_their_class_route() {
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));
        let t = trace(12, 11);
        let dse = smoke_dse(11);
        let routed = sim.run_routed(&t, &dse);
        assert_eq!(routed.records.len(), 12);
        // Same class → same operating point → same projected energy for
        // requests of identical shape.
        let decode_energy: Vec<u64> = routed
            .records
            .iter()
            .filter(|r| {
                r.class == RequestClass::Decode
                    && t.requests[r.id as usize].queries == t.requests[0].queries
            })
            .map(|r| r.energy_pj.to_bits())
            .collect();
        for w in decode_energy.windows(2) {
            assert_eq!(w[0], w[1], "same-shape decodes must project equally");
        }
    }

    #[test]
    fn routed_study_is_deterministic_and_self_consistent() {
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));
        let t = trace(10, 13);
        let dse = smoke_dse(13);
        let a = sim.run_routed_study(&t, &dse);
        let b = sim.run_routed_study(&t, &dse);
        assert_eq!(a, b);
        assert_eq!(a.tuned_op.layers(), a.decode_op.layers());
        assert!(a.budget_pj > 0.0);
        // The budgeted run serves or sheds every request.
        assert_eq!(
            a.budgeted.records.len() + a.budgeted.shed.len(),
            t.len(),
            "budgeted run must account for the whole trace"
        );
        // Routed J/req never exceeds the paper default's: both classes route
        // to points at or below the default's energy.
        assert!(
            a.routed.energy_pj_per_request()
                <= a.paper_default.energy_pj_per_request() * (1.0 + 1e-9)
        );
    }

    #[test]
    fn adaptive_study_is_deterministic_and_accounts_for_every_request() {
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 1));
        // An overload burst on one instance, so decay/feedback/retry engage.
        let mut tc = TraceConfig::new(24, 400.0, 17);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let t = RequestTrace::generate(&tc);
        let dse = smoke_dse(17);
        let ctl = AdaptiveServeConfig::targeting(200_000);
        let a = sim.run_adaptive_study(&t, &dse, &ctl);
        let b = sim.run_adaptive_study(&t, &dse, &ctl);
        assert_eq!(a, b);
        assert!(a.budget_pj > 0.0);
        assert!(a.energy_ratio() > 0.0);
        assert_eq!(
            a.static_routed.records.len() + a.static_routed.shed.len(),
            t.len()
        );
        assert_eq!(a.adaptive.records.len() + a.adaptive.shed.len(), t.len());
        assert!(
            a.adaptive.shed.len() <= a.static_routed.shed.len(),
            "client retries cannot shed more than immediate shedding"
        );
    }
}
