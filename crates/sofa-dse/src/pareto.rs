//! Pareto-front extraction over `(loss, cycles, energy, area)` metric
//! vectors, with deterministic dedup and ordering — and [`ParetoFront`], the
//! routable form the serving layer consumes: a deterministic lookup table
//! from request class to operating point.

use crate::eval::{CandidateEval, MetricVector};
use sofa_model::trace::RequestClass;
use sofa_model::OperatingPoint;

/// Extracts the non-dominated subset of `evals`.
///
/// * **Dedup** — repeated evaluations of the same candidate (the Bayesian
///   searches may revisit points, and several scalarization profiles share
///   probes) collapse to one entry.
/// * **Dominance** — an entry survives iff no other entry's metric vector
///   `MetricVector::dominates` it; incomparable ties
///   (equal vectors on distinct candidates included) all survive.
/// * **Ordering** — the front is sorted by the total order
///   `(loss, cycles, energy, area, keep ratio bits, tile sizes)`, so the
///   output is identical regardless of input order or thread count.
pub fn pareto_front(evals: &[CandidateEval]) -> Vec<CandidateEval> {
    // Dedup by candidate, keeping the first occurrence (evaluation is a pure
    // function of the candidate, so duplicates carry identical metrics).
    let mut unique: Vec<&CandidateEval> = Vec::with_capacity(evals.len());
    for e in evals {
        if !unique.iter().any(|u| u.candidate == e.candidate) {
            unique.push(e);
        }
    }
    let mut front: Vec<CandidateEval> = unique
        .iter()
        .filter(|e| {
            !unique
                .iter()
                .any(|other| other.metrics.dominates(&e.metrics))
        })
        .map(|e| (*e).clone())
        .collect();
    front.sort_by(|a, b| {
        a.metrics
            .order_key()
            .cmp(&b.metrics.order_key())
            .then_with(|| a.candidate.cmp_key(&b.candidate))
    });
    front
}

/// A non-dominated front packaged as a **routing table**: each
/// [`RequestClass`] maps to exactly one operating point on the front.
///
/// The routing rule is total and deterministic:
///
/// * a point is eligible when its loss is at or below the reference
///   (paper-default) loss **and** its mean keep ratio does not exceed the
///   reference's. The loss bar keeps routing from trading accuracy away;
///   the keep bar keeps the energy win shape-robust — the evaluation's
///   energy is measured at one pinned token parallelism, while the kept
///   pairs are the traffic knob that scales a request's energy at *any*
///   shape. When no point clears both bars the keep bar is dropped, and
///   when the loss bar alone is unsatisfiable the minimum-loss points are
///   eligible instead;
/// * **decodes** (latency-critical single tokens) get the *latency-lean*
///   eligible point: minimal cycles, energy and candidate key in that order;
/// * **prefills** (throughput/energy-bound bulk work) get the *energy-lean*
///   eligible point: minimal energy, cycles and candidate key in that order.
///
/// Two constructions over the same evaluations produce identical routes —
/// the unit tests and the serving differential proptest rely on this.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    points: Vec<CandidateEval>,
    reference: MetricVector,
    reference_mean_keep: f64,
}

impl ParetoFront {
    /// Builds the front (dedup + dominance + deterministic ordering, see
    /// [`pareto_front`]) from a pool of evaluations, with `reference` — the
    /// paper-default evaluation — anchoring the loss and keep eligibility
    /// bars.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is empty (a front must be routable).
    pub fn new(evals: &[CandidateEval], reference: &CandidateEval) -> Self {
        let points = pareto_front(evals);
        assert!(!points.is_empty(), "a routable front needs evaluations");
        ParetoFront {
            points,
            reference: reference.metrics,
            reference_mean_keep: reference.candidate.mean_keep(),
        }
    }

    /// The non-dominated points, in deterministic order.
    pub fn points(&self) -> &[CandidateEval] {
        &self.points
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty (never, by construction — kept for
    /// API symmetry).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Layer count of the operating points this front routes to.
    pub fn layers(&self) -> usize {
        self.points[0].candidate.tile_sizes.len()
    }

    /// The points clearing the loss *and* keep bars; without any, the
    /// loss bar alone; without any, the minimum-loss points.
    fn eligible(&self) -> Vec<&CandidateEval> {
        let both: Vec<&CandidateEval> = self
            .points
            .iter()
            .filter(|e| {
                e.metrics.loss <= self.reference.loss
                    && e.candidate.mean_keep() <= self.reference_mean_keep + 1e-12
            })
            .collect();
        if !both.is_empty() {
            return both;
        }
        let cleared: Vec<&CandidateEval> = self
            .points
            .iter()
            .filter(|e| e.metrics.loss <= self.reference.loss)
            .collect();
        if !cleared.is_empty() {
            return cleared;
        }
        let min_loss = self
            .points
            .iter()
            .map(|e| e.metrics.loss)
            .fold(f64::INFINITY, f64::min);
        self.points
            .iter()
            .filter(|e| e.metrics.loss == min_loss)
            .collect()
    }

    /// The latency-lean total order: `(cycles, energy, candidate key)`.
    ///
    /// Energy is compared with [`f64::total_cmp`], not `to_bits()`: the bit
    /// pattern of a negative float (including `-0.0`) has the sign bit set
    /// and therefore sorts *above* every non-negative value, inverting the
    /// order for any non-positive energy.
    fn cmp_latency_lean(a: &CandidateEval, b: &CandidateEval) -> std::cmp::Ordering {
        a.metrics
            .cycles
            .cmp(&b.metrics.cycles)
            .then_with(|| a.metrics.energy_pj.total_cmp(&b.metrics.energy_pj))
            .then_with(|| a.candidate.cmp_key(&b.candidate))
    }

    /// The energy-lean total order: `(energy, cycles, candidate key)`, with
    /// energy under [`f64::total_cmp`] (see [`Self::cmp_latency_lean`]).
    fn cmp_energy_lean(a: &CandidateEval, b: &CandidateEval) -> std::cmp::Ordering {
        a.metrics
            .energy_pj
            .total_cmp(&b.metrics.energy_pj)
            .then_with(|| a.metrics.cycles.cmp(&b.metrics.cycles))
            .then_with(|| a.candidate.cmp_key(&b.candidate))
    }

    /// The class-appropriate minimum of `set`: latency-lean for decodes,
    /// energy-lean for prefills.
    fn lean_pick<'a>(set: &[&'a CandidateEval], class: &RequestClass) -> &'a CandidateEval {
        let pick = match class {
            RequestClass::Decode => set.iter().min_by(|a, b| Self::cmp_latency_lean(a, b)),
            RequestClass::Prefill => set.iter().min_by(|a, b| Self::cmp_energy_lean(a, b)),
        };
        pick.expect("candidate set is non-empty")
    }

    /// Routes a request class to its operating point (see the type docs for
    /// the rule). Total: every class maps to exactly one point.
    pub fn route(&self, class: &RequestClass) -> OperatingPoint {
        Self::lean_pick(&self.eligible(), class)
            .candidate
            .operating_point()
    }

    /// Routes a request class under measured overload `pressure` — the
    /// feedback controller's eligibility-bar shift:
    ///
    /// * `0` — no pressure: the normal [`Self::route`] (loss and keep bars);
    /// * `1` — the keep bar is dropped (loss bar only, with the min-loss
    ///   fallback), so routing may take leaner-at-this-shape points it would
    ///   normally reject for keep-robustness;
    /// * `2+` — both bars are dropped: the class-leanest point on the whole
    ///   front ([`Self::leanest_cycles`] for decodes,
    ///   [`Self::leanest_energy`] for prefills), trading accuracy for
    ///   survival under overload.
    pub fn route_pressure(&self, class: &RequestClass, pressure: u8) -> OperatingPoint {
        match pressure {
            0 => self.route(class),
            1 => {
                let cleared: Vec<&CandidateEval> = self
                    .points
                    .iter()
                    .filter(|e| e.metrics.loss <= self.reference.loss)
                    .collect();
                let set = if cleared.is_empty() {
                    self.eligible()
                } else {
                    cleared
                };
                Self::lean_pick(&set, class).candidate.operating_point()
            }
            _ => match class {
                RequestClass::Decode => self.leanest_cycles(),
                RequestClass::Prefill => self.leanest_energy(),
            },
        }
    }

    /// The energy-leanest point on the whole front (no loss bar) — the
    /// fallback the serving layer re-routes to when a request's projected
    /// energy exceeds its budget.
    pub fn leanest_energy(&self) -> OperatingPoint {
        self.points
            .iter()
            .min_by(|a, b| Self::cmp_energy_lean(a, b))
            .expect("front is non-empty")
            .candidate
            .operating_point()
    }

    /// The cycle-leanest point on the whole front (no loss bar) — the point
    /// a decode waiting past its decay threshold is re-lowered to.
    pub fn leanest_cycles(&self) -> OperatingPoint {
        self.points
            .iter()
            .min_by(|a, b| Self::cmp_latency_lean(a, b))
            .expect("front is non-empty")
            .candidate
            .operating_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MetricVector;
    use crate::space::DseCandidate;

    fn entry(
        keep: f64,
        bc: usize,
        loss: f64,
        cycles: u64,
        energy: f64,
        area: f64,
    ) -> CandidateEval {
        CandidateEval {
            candidate: DseCandidate {
                keep_ratios: vec![keep, keep],
                tile_sizes: vec![bc, bc],
            },
            metrics: MetricVector {
                loss,
                cycles,
                energy_pj: energy,
                area_mm2: area,
            },
        }
    }

    #[test]
    fn dominated_points_are_removed() {
        let good = entry(0.2, 16, 0.1, 100, 50.0, 5.0);
        let dominated = entry(0.3, 16, 0.2, 200, 80.0, 6.0);
        let trade_off = entry(0.1, 8, 0.3, 50, 20.0, 4.0);
        let front = pareto_front(&[dominated.clone(), good.clone(), trade_off.clone()]);
        assert_eq!(front.len(), 2);
        assert!(front.contains(&good));
        assert!(front.contains(&trade_off));
        assert!(!front.contains(&dominated));
    }

    #[test]
    fn duplicate_candidates_collapse_to_one() {
        let a = entry(0.2, 16, 0.1, 100, 50.0, 5.0);
        let front = pareto_front(&[a.clone(), a.clone(), a.clone()]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn incomparable_equal_vectors_on_distinct_candidates_both_survive() {
        let a = entry(0.2, 16, 0.1, 100, 50.0, 5.0);
        let b = entry(0.2, 8, 0.1, 100, 50.0, 5.0);
        let front = pareto_front(&[a, b]);
        assert_eq!(front.len(), 2, "equal vectors do not dominate each other");
    }

    #[test]
    fn ordering_is_deterministic_and_input_order_independent() {
        let points = vec![
            entry(0.1, 8, 0.3, 50, 20.0, 4.0),
            entry(0.2, 16, 0.1, 100, 50.0, 5.0),
            entry(0.3, 4, 0.05, 300, 90.0, 3.0),
        ];
        let forward = pareto_front(&points);
        let mut reversed = points.clone();
        reversed.reverse();
        assert_eq!(forward, pareto_front(&reversed));
        // Sorted ascending by loss first.
        let losses: Vec<f64> = forward.iter().map(|e| e.metrics.loss).collect();
        let mut sorted = losses.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(losses, sorted);
    }

    #[test]
    fn single_point_and_empty_inputs() {
        assert!(pareto_front(&[]).is_empty());
        let only = entry(0.2, 16, 0.1, 100, 50.0, 5.0);
        assert_eq!(pareto_front(std::slice::from_ref(&only)), vec![only]);
    }

    #[test]
    fn route_is_total_and_deterministic() {
        // Every request class maps to exactly one point, and two independent
        // constructions over the same evaluations route identically.
        let evals = vec![
            entry(0.3, 4, 0.05, 300, 90.0, 3.0),  // accurate but slow/hot
            entry(0.2, 16, 0.10, 100, 50.0, 5.0), // latency-lean
            entry(0.1, 8, 0.10, 150, 20.0, 4.0),  // energy-lean
        ];
        let reference = entry(0.25, 16, 0.12, 200, 80.0, 5.0);
        let a = ParetoFront::new(&evals, &reference);
        let mut shuffled = evals.clone();
        shuffled.reverse();
        let b = ParetoFront::new(&shuffled, &reference);
        for class in [RequestClass::Decode, RequestClass::Prefill] {
            let pa = a.route(&class);
            let pb = b.route(&class);
            assert_eq!(pa, pb, "{class} routes differ across constructions");
            assert_eq!(pa, a.route(&class), "{class} route is unstable");
        }
        // The class split picks the right leanings: decodes minimise cycles,
        // prefills minimise energy, both under the loss bar.
        assert_eq!(a.route(&RequestClass::Decode).tiles(), &[16, 16]);
        assert_eq!(a.route(&RequestClass::Prefill).tiles(), &[8, 8]);
        assert_eq!(a.leanest_energy().tiles(), &[8, 8]);
    }

    #[test]
    fn keep_bar_excludes_heavier_keeps_even_when_their_eval_energy_is_lower() {
        // A point keeping more pairs than the reference can still show lower
        // energy at the pinned evaluation shape — but it must not be routed
        // to, because kept pairs scale a request's energy at any shape.
        let heavy_but_cheap = entry(0.4, 32, 0.08, 90, 45.0, 5.0);
        let keep_parity = entry(0.25, 32, 0.10, 85, 55.0, 5.0);
        let reference = entry(0.25, 16, 0.12, 200, 80.0, 5.0);
        let front = ParetoFront::new(&[heavy_but_cheap, keep_parity.clone()], &reference);
        for class in [RequestClass::Decode, RequestClass::Prefill] {
            assert_eq!(
                front.route(&class),
                keep_parity.candidate.operating_point(),
                "{class} must stay at keep parity with the reference"
            );
        }
    }

    #[test]
    fn route_falls_back_to_minimum_loss_when_nothing_clears_the_bar() {
        let evals = vec![
            entry(0.2, 16, 0.30, 100, 50.0, 5.0),
            entry(0.1, 8, 0.20, 150, 20.0, 4.0),
        ];
        // Nothing on the front is as accurate as this reference.
        let strict_reference = entry(0.25, 16, 0.01, 200, 80.0, 5.0);
        let front = ParetoFront::new(&evals, &strict_reference);
        // Only the loss-0.20 point is eligible; both classes land on it.
        assert_eq!(front.route(&RequestClass::Decode).tiles(), &[8, 8]);
        assert_eq!(front.route(&RequestClass::Prefill).tiles(), &[8, 8]);
        assert_eq!(front.layers(), 2);
    }

    #[test]
    fn route_orders_non_positive_energies_by_value_not_bit_pattern() {
        // Regression: energy used to be compared via `f64::to_bits()`, whose
        // sign bit puts -0.0 (and every negative value) *above* all
        // non-negative values. A -0.0-energy point must win the energy-lean
        // pick against a denormal-energy point, and the denormal against
        // 1.0.
        let negative_zero = entry(0.1, 8, 0.10, 100, -0.0, 4.0);
        let denormal = entry(0.2, 16, 0.10, 100, f64::MIN_POSITIVE / 2.0, 4.0);
        let reference = entry(0.25, 16, 0.12, 200, 80.0, 5.0);
        let front = ParetoFront::new(&[denormal.clone(), negative_zero.clone()], &reference);
        assert_eq!(
            front.route(&RequestClass::Prefill),
            negative_zero.candidate.operating_point(),
            "-0.0 pJ is the energy-lean point, not the largest"
        );
        // Equal cycles: the decode tie-break on energy must also order by
        // value, so -0.0 beats the denormal there too.
        assert_eq!(
            front.route(&RequestClass::Decode),
            negative_zero.candidate.operating_point(),
        );
        assert_eq!(
            front.leanest_energy(),
            negative_zero.candidate.operating_point(),
            "leanest_energy must treat -0.0 as the minimum"
        );
    }

    #[test]
    fn leanest_energy_handles_negative_energies() {
        // A (physically nonsensical but numerically possible) negative
        // energy must sort below zero, not above everything.
        let negative = entry(0.1, 8, 0.10, 100, -5.0, 4.0);
        let positive = entry(0.2, 16, 0.10, 90, 5.0, 4.0);
        let reference = entry(0.25, 16, 0.12, 200, 80.0, 5.0);
        let front = ParetoFront::new(&[positive.clone(), negative.clone()], &reference);
        assert_eq!(front.leanest_energy(), negative.candidate.operating_point());
        assert_eq!(
            front.leanest_cycles(),
            positive.candidate.operating_point(),
            "leanest_cycles orders on cycles first"
        );
    }

    #[test]
    fn pressure_shifts_the_eligibility_bar_monotonically() {
        // keep-parity point (clears both bars), a heavier-keep point with
        // better cycles (cleared only once the keep bar drops), and an
        // off-loss-bar point that is leanest outright.
        let keep_parity = entry(0.25, 16, 0.10, 120, 60.0, 5.0);
        let heavy_fast = entry(0.4, 32, 0.11, 80, 50.0, 5.0);
        let lossy_lean = entry(0.05, 8, 0.30, 40, 10.0, 3.0);
        let reference = entry(0.25, 16, 0.12, 200, 80.0, 5.0);
        let front = ParetoFront::new(
            &[keep_parity.clone(), heavy_fast.clone(), lossy_lean.clone()],
            &reference,
        );
        // Level 0 honours both bars.
        assert_eq!(
            front.route_pressure(&RequestClass::Decode, 0),
            front.route(&RequestClass::Decode)
        );
        assert_eq!(
            front.route_pressure(&RequestClass::Decode, 0),
            keep_parity.candidate.operating_point()
        );
        // Level 1 drops the keep bar: the heavier-keep, faster point wins.
        assert_eq!(
            front.route_pressure(&RequestClass::Decode, 1),
            heavy_fast.candidate.operating_point()
        );
        // Level 2 drops the loss bar too: the outright leanest point wins.
        assert_eq!(
            front.route_pressure(&RequestClass::Decode, 2),
            lossy_lean.candidate.operating_point()
        );
        assert_eq!(
            front.route_pressure(&RequestClass::Prefill, 2),
            front.leanest_energy()
        );
    }

    #[test]
    fn metric_tie_breaks_on_candidate_key() {
        // Same metrics, different candidates: order must follow the candidate
        // key (keep ratio bits, then tiles), not input order.
        let a = entry(0.3, 4, 0.1, 100, 50.0, 5.0);
        let b = entry(0.2, 8, 0.1, 100, 50.0, 5.0);
        let front = pareto_front(&[a.clone(), b.clone()]);
        assert_eq!(front, vec![b.clone(), a.clone()]);
        let front2 = pareto_front(&[b.clone(), a.clone()]);
        assert_eq!(front, front2);
    }
}
