//! The hardware-aware search driver and its [`DseReport`].
//!
//! [`hardware_aware_search`] explores the space in three pooled phases:
//!
//! 1. a deterministic **coarse probe grid** (uniform tilings × a spread of
//!    keep ratios) evaluated batch-parallel — the anchor that guarantees the
//!    pool always contains comparable neighbours of the paper default;
//! 2. one **scalarized Bayesian search per weight profile**
//!    ([`ScalarWeights`]), run in parallel across profiles via `sofa-par`:
//!    each profile collapses the metric vector to a weighted sum of
//!    components normalised by the paper-default evaluation, warm-starts its
//!    surrogate from the probe observations, and spends its budget where its
//!    weights point it;
//! 3. **Pareto reduction** ([`crate::pareto_front`]) over everything
//!    evaluated, plus the balanced-scalar winner as the single tuned
//!    recommendation.
//!
//! All three phases score candidates through one [`EvalSession`], so the
//! search runs each layer's DLZS prediction and K/V projection once,
//! however many candidates it lowers, and one cycle simulation per distinct
//! `(layer, keep, Bc)` point, however many candidates share it. Every phase
//! is a pure function of the evaluator's pinned inputs and the search seed,
//! so the whole report is bit-identical at any `SOFA_THREADS` — the
//! property the CI regression gate re-checks by running the search twice.

use crate::eval::{CandidateEval, EvalSession, HwAwareEvaluator, MetricVector};
use crate::pareto::ParetoFront;
use crate::space::{DseCandidate, DseSpace};
use crate::surrogate::propose_next;
use sofa_model::trace::RequestClass;
use sofa_model::OperatingPoint;
use sofa_tensor::seeded_rng;
use std::collections::HashSet;

/// One scalarization profile: weights over the normalised metric components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarWeights {
    /// Profile name (used in reports and labels).
    pub(crate) name: &'static str,
    /// Weight of `loss / reference.loss`.
    pub(crate) loss: f64,
    /// Weight of `cycles / reference.cycles`.
    pub(crate) cycles: f64,
    /// Weight of `energy / reference.energy`.
    pub(crate) energy: f64,
    /// Weight of `area / reference.area`.
    pub(crate) area: f64,
}

impl ScalarWeights {
    /// Equal pressure on loss, latency and energy; area weighted lightly
    /// (it only moves with the largest tile).
    pub fn balanced() -> Self {
        ScalarWeights {
            name: "balanced",
            loss: 1.0,
            cycles: 1.0,
            energy: 1.0,
            area: 0.25,
        }
    }

    /// The default profile set: balanced plus one profile leaning into each
    /// of accuracy, latency and energy.
    pub(crate) fn profiles() -> Vec<ScalarWeights> {
        vec![
            Self::balanced(),
            ScalarWeights {
                name: "accuracy-lean",
                loss: 4.0,
                ..Self::balanced()
            },
            ScalarWeights {
                name: "latency-lean",
                cycles: 4.0,
                ..Self::balanced()
            },
            ScalarWeights {
                name: "energy-lean",
                energy: 4.0,
                ..Self::balanced()
            },
        ]
    }

    /// Collapses `m` to a scalar, normalising each component by `reference`
    /// (the paper-default evaluation), so the weights act on comparable
    /// magnitudes. The loss reference is floored: near-zero default loss
    /// would otherwise blow the loss term up for every candidate.
    pub(crate) fn scalarize(&self, m: &MetricVector, reference: &MetricVector) -> f64 {
        let loss_ref = reference.loss.max(1e-4);
        self.loss * (m.loss / loss_ref)
            + self.cycles * (m.cycles as f64 / reference.cycles.max(1) as f64)
            + self.energy * (m.energy_pj / reference.energy_pj.max(1e-9))
            + self.area * (m.area_mm2 / reference.area_mm2.max(1e-9))
    }
}

/// Budget and seeding of one [`hardware_aware_search`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSearchConfig {
    /// Random initial samples each profile adds on top of the shared probes.
    pub init_samples: usize,
    /// Surrogate-guided evaluations per profile.
    pub guided_iters: usize,
    /// Random candidates scored by the acquisition function per iteration.
    pub acquisition_candidates: usize,
    /// Keep ratios of the coarse probe grid.
    pub probe_keeps: Vec<f64>,
    /// Uniform tile sizes of the coarse probe grid.
    pub probe_tiles: Vec<usize>,
    /// The scalarization profiles searched in parallel.
    pub profiles: Vec<ScalarWeights>,
    /// Base RNG seed (profile `i` derives its stream from `(seed, i)`).
    pub seed: u64,
}

impl DseSearchConfig {
    /// The default experiment budget: a 4×4 probe grid plus four profiles of
    /// 2 + 6 evaluations each (49 candidate proposals with the default).
    pub fn quick(seed: u64) -> Self {
        DseSearchConfig {
            init_samples: 2,
            guided_iters: 6,
            acquisition_candidates: 64,
            probe_keeps: vec![0.15, 0.20, 0.25, 0.30],
            probe_tiles: vec![4, 8, 16, 32],
            profiles: ScalarWeights::profiles(),
            seed,
        }
    }

    /// A minimal budget for unit tests: a 2×2 probe grid and one balanced
    /// profile of 1 + 2 evaluations.
    pub fn smoke(seed: u64) -> Self {
        DseSearchConfig {
            init_samples: 1,
            guided_iters: 2,
            acquisition_candidates: 16,
            probe_keeps: vec![0.20, 0.25],
            probe_tiles: vec![8, 16],
            profiles: vec![ScalarWeights::balanced()],
            seed,
        }
    }
}

/// The outcome of one hardware-aware search.
#[derive(Debug, Clone, PartialEq)]
pub struct DseReport {
    /// The space that was searched.
    pub space: DseSpace,
    /// The paper-default operating point, evaluated with the same lowering.
    pub paper_default: CandidateEval,
    /// Every evaluated point, in deterministic order (probes first, then the
    /// profile runs profile-major).
    pub evaluated: Vec<CandidateEval>,
    /// The non-dominated front over `evaluated` plus the default, packaged
    /// as the per-request-class routing table the serving layer consumes.
    pub pareto: ParetoFront,
    /// The tuned recommendation a consumer should deploy: the
    /// balanced-scalarization winner among the candidates that strictly
    /// dominate the paper default on (cycles, energy) at equal-or-better
    /// loss, falling back to the global scalarization winner when no
    /// candidate dominates. Deterministic tie-breaking.
    pub best: CandidateEval,
    /// Candidate proposals, including the default: `evaluated.len() + 1`.
    /// Of these, `evaluations − evals_saved` were scored.
    pub evaluations: usize,
    /// Proposals that repeated an already-scored candidate and were
    /// recalled instead of scored again: the probe grid and the weight
    /// profiles propose overlapping candidates, and evaluation is a pure
    /// function of the candidate's per-layer encoding. A proposal repeats
    /// the default, a probe or an earlier proposal of its own profile.
    /// Deterministic: probe dedup is serial and each profile's saves are a
    /// pure function of its own proposal stream.
    pub evals_saved: usize,
}

impl DseReport {
    /// Front members that strictly dominate the paper default on
    /// `(cycles, energy)` at equal-or-better loss — the configurations that
    /// are a pure win over the paper's operating point. The CI regression
    /// gate fails when this comes back empty.
    pub fn dominating(&self) -> Vec<&CandidateEval> {
        let d = &self.paper_default.metrics;
        self.pareto
            .points()
            .iter()
            .filter(|e| e.metrics.beats_on_cycles_energy(d))
            .collect()
    }

    /// The tuned operating point — the best candidate's full per-layer keep
    /// ratios and tile sizes. `sofa-serve` lowers a whole trace with this
    /// when it runs single-point (non-routed) deployments.
    pub fn tuned_operating_point(&self) -> OperatingPoint {
        self.best.candidate.operating_point()
    }

    /// Routes a request class through the Pareto front
    /// ([`ParetoFront::route`]): latency-lean for decodes, energy-lean for
    /// prefills, never above the paper default's loss.
    pub fn route(&self, class: &RequestClass) -> OperatingPoint {
        self.pareto.route(class)
    }
}

/// Runs the full hardware-aware search (see the module docs).
///
/// # Panics
///
/// Panics if the search config has no profiles, or no probe/init/guided
/// budget at all.
pub fn hardware_aware_search(evaluator: &HwAwareEvaluator, cfg: &DseSearchConfig) -> DseReport {
    assert!(!cfg.profiles.is_empty(), "at least one profile is required");
    let budget = cfg.probe_keeps.len() * cfg.probe_tiles.len()
        + cfg.profiles.len() * (cfg.init_samples + cfg.guided_iters);
    assert!(budget > 0, "search budget must be positive");

    let space = evaluator.space();
    let session = evaluator.session();
    let paper_default = session.evaluate(&space.paper_default_candidate());
    let reference = paper_default.metrics;

    // The candidates already scored. Evaluation is a pure function of the
    // candidate's canonical per-layer encoding, so a repeated proposal is
    // recalled from the session's layer memo instead of scored again. The
    // sets are filled serially (before the probe fan-out, and per profile in
    // the search phase), so the saved-evaluation count is deterministic at
    // any `SOFA_THREADS`.
    let mut scored: HashSet<CandidateKey> =
        HashSet::from([candidate_key(&paper_default.candidate)]);

    // Phase 1 — deterministic coarse probes, batch-parallel (the paper
    // default overlaps the grid whenever its `(keep, Bc)` is a grid point).
    let probes: Vec<DseCandidate> = cfg
        .probe_keeps
        .iter()
        .flat_map(|&keep| {
            cfg.probe_tiles
                .iter()
                .map(move |&bc| DseCandidate::uniform(keep, bc, space.layers))
        })
        .collect();
    let fresh: Vec<bool> = probes
        .iter()
        .map(|c| scored.insert(candidate_key(c)))
        .collect();
    let mut evals_saved = fresh.iter().filter(|&&f| !f).count();
    let probe_evals: Vec<CandidateEval> = sofa_par::par_map_index(probes.len(), |i| {
        if fresh[i] {
            session.evaluate(&probes[i])
        } else {
            session.recall(&probes[i])
        }
    });

    // Phase 2 — one scalarized Bayesian search per profile, profiles in
    // parallel. Each profile is a pure function of (probes, seed, profile),
    // so the fan-out cannot change results; the shared set is read-only
    // here and each profile counts its own repeats in a local set.
    let profile_indices: Vec<usize> = (0..cfg.profiles.len()).collect();
    let profile_runs: Vec<(Vec<CandidateEval>, usize)> =
        sofa_par::par_map(&profile_indices, |&p| {
            run_profile(
                &session,
                &space,
                cfg,
                &cfg.profiles[p],
                p,
                &probe_evals,
                &reference,
                &scored,
            )
        });

    // Phase 3 — pool and reduce.
    let mut evaluated = probe_evals;
    for (run, saved) in profile_runs {
        evaluated.extend(run);
        evals_saved += saved;
    }
    let evaluations = evaluated.len() + 1;
    let mut pool = evaluated.clone();
    pool.push(paper_default.clone());
    let pareto = ParetoFront::new(&pool, &paper_default);

    let balanced = ScalarWeights::balanced();
    let pick_min = |pool: &[&CandidateEval]| -> Option<CandidateEval> {
        pool.iter()
            .min_by(|a, b| {
                balanced
                    .scalarize(&a.metrics, &reference)
                    .total_cmp(&balanced.scalarize(&b.metrics, &reference))
                    .then_with(|| a.candidate.cmp_key(&b.candidate))
            })
            .map(|e| (*e).clone())
    };
    // Prefer a pure win over the default (loss ≤, cycles <, energy <); fall
    // back to the global scalarization winner when no candidate dominates.
    let d = &paper_default.metrics;
    let dominating: Vec<&CandidateEval> = pool
        .iter()
        .filter(|e| e.metrics.beats_on_cycles_energy(d))
        .collect();
    let best = pick_min(&dominating)
        .or_else(|| pick_min(&pool.iter().collect::<Vec<_>>()))
        .expect("pool contains at least the default");

    DseReport {
        space,
        paper_default,
        evaluated,
        pareto,
        best,
        evaluations,
        evals_saved,
    }
}

/// The canonical candidate encoding the dedup sets key on: per-layer keep
/// ratios as IEEE-754 bit patterns plus per-layer tile sizes. Bit-identical
/// floats collide; any per-layer difference misses.
type CandidateKey = (Vec<u64>, Vec<usize>);

fn candidate_key(c: &DseCandidate) -> CandidateKey {
    (
        c.keep_ratios.iter().map(|k| k.to_bits()).collect(),
        c.tile_sizes.clone(),
    )
}

/// One profile's scalarized Bayesian run: warm-started from the probe
/// observations, returning only the *new* evaluations it performed plus the
/// number of proposals that repeated a candidate of `base` (the default and
/// the probes, shared across profiles) or of its own proposal history, which
/// it recalls instead of scoring again.
#[allow(clippy::too_many_arguments)]
fn run_profile(
    session: &EvalSession<'_>,
    space: &DseSpace,
    cfg: &DseSearchConfig,
    weights: &ScalarWeights,
    profile_index: usize,
    probes: &[CandidateEval],
    reference: &MetricVector,
    base: &HashSet<CandidateKey>,
) -> (Vec<CandidateEval>, usize) {
    let mut rng = seeded_rng(sofa_par::item_seed(cfg.seed, profile_index as u64));
    let mut observed_x: Vec<Vec<f64>> = Vec::new();
    let mut observed_y: Vec<f64> = Vec::new();
    for e in probes {
        observed_x.push(space.encode(&e.candidate));
        observed_y.push(weights.scalarize(&e.metrics, reference));
    }

    let mut local: HashSet<CandidateKey> = HashSet::new();
    let evaluate = |c: DseCandidate, local: &mut HashSet<CandidateKey>| -> CandidateEval {
        let key = candidate_key(&c);
        if base.contains(&key) || !local.insert(key) {
            session.recall(&c)
        } else {
            session.evaluate(&c)
        }
    };

    let mut new_evals: Vec<CandidateEval> = Vec::new();
    let mut observe =
        |e: CandidateEval, observed_x: &mut Vec<Vec<f64>>, observed_y: &mut Vec<f64>| {
            observed_x.push(space.encode(&e.candidate));
            observed_y.push(weights.scalarize(&e.metrics, reference));
            new_evals.push(e);
        };

    for _ in 0..cfg.init_samples {
        let c = space.sample(&mut rng);
        let e = evaluate(c, &mut local);
        observe(e, &mut observed_x, &mut observed_y);
    }
    for _ in 0..cfg.guided_iters {
        let chosen = propose_next(
            space,
            &observed_x,
            &observed_y,
            cfg.acquisition_candidates,
            &mut rng,
        );
        let e = evaluate(chosen, &mut local);
        observe(e, &mut observed_x, &mut observed_y);
    }
    let saved = new_evals.len() - local.len();
    (new_evals, saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalConfig;

    fn smoke_report(seed: u64) -> DseReport {
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed))
    }

    #[test]
    fn search_produces_a_consistent_report() {
        let r = smoke_report(11);
        assert!(!r.pareto.is_empty());
        assert_eq!(r.evaluations, r.evaluated.len() + 1);
        // 2×2 probes + 1 profile × (1 + 2).
        assert_eq!(r.evaluated.len(), 7);
        // The front is non-dominated with respect to the default too.
        for e in r.pareto.points() {
            assert!(
                !r.paper_default.metrics.dominates(&e.metrics),
                "front member dominated by the default"
            );
        }
        // The best candidate sits in the evaluated pool or is the default.
        assert!(
            r.evaluated.iter().any(|e| e == &r.best) || r.best == r.paper_default,
            "best must come from the pool"
        );
    }

    #[test]
    fn search_is_deterministic() {
        assert_eq!(smoke_report(13), smoke_report(13));
    }

    #[test]
    fn search_is_bit_identical_at_any_thread_count() {
        let one = sofa_par::with_threads(1, || smoke_report(17));
        for threads in [2usize, 8] {
            let t = sofa_par::with_threads(threads, || smoke_report(17));
            assert_eq!(t, one, "threads={threads}");
        }
    }

    #[test]
    fn a_search_predicts_each_layer_once() {
        // Stage 1 runs once per layer per search (and per batch), however
        // many candidates are lowered.
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(29), 2);
        assert_eq!(evaluator.predictions(), 0, "construction predicts nothing");
        let r = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(29));
        assert!(r.evaluations > 1);
        assert_eq!(evaluator.predictions(), 2);
        // Every proposal but the recalled repeats is scored, each layer
        // point simulated once.
        let scored = (r.evaluations - r.evals_saved) as u64;
        assert_eq!(evaluator.layer_evals(), 2 * scored);
        assert!(evaluator.layer_sims() <= evaluator.layer_evals());

        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(29), 2);
        let candidates: Vec<DseCandidate> = [0.1, 0.2, 0.3, 0.4, 0.5]
            .iter()
            .map(|&keep| DseCandidate::uniform(keep, 8, 2))
            .collect();
        let batch = evaluator.evaluate_batch(&candidates);
        assert_eq!(batch.len(), candidates.len());
        assert_eq!(evaluator.predictions(), evaluator.layers() as u64);
        assert_eq!(evaluator.layer_evals(), 2 * candidates.len() as u64);
    }

    #[test]
    fn scalarization_normalises_against_the_reference() {
        let reference = MetricVector {
            loss: 0.1,
            cycles: 1000,
            energy_pj: 500.0,
            area_mm2: 5.0,
        };
        let w = ScalarWeights::balanced();
        // The reference scores exactly the weight sum against itself.
        let at_ref = w.scalarize(&reference, &reference);
        assert!((at_ref - (1.0 + 1.0 + 1.0 + 0.25)).abs() < 1e-12);
        let worse = MetricVector {
            cycles: 2000,
            ..reference
        };
        assert!(w.scalarize(&worse, &reference) > at_ref);
    }

    #[test]
    fn tuned_operating_point_is_well_formed() {
        let r = smoke_report(19);
        let op = r.tuned_operating_point();
        assert_eq!(op.layers(), r.space.layers);
        for l in 0..op.layers() {
            assert!(op.keep(l) > 0.0 && op.keep(l) <= 1.0);
            assert!(r.space.tile_options.contains(&op.tile(l)) || op.tile(l) == 16);
        }
    }

    #[test]
    fn report_routes_both_request_classes_through_the_front() {
        let r = smoke_report(23);
        let decode = r.route(&RequestClass::Decode);
        let prefill = r.route(&RequestClass::Prefill);
        assert_eq!(decode.layers(), r.space.layers);
        assert_eq!(prefill.layers(), r.space.layers);
        // Routed points come from the front.
        for op in [&decode, &prefill] {
            assert!(
                r.pareto
                    .points()
                    .iter()
                    .any(|e| e.candidate.operating_point() == *op),
                "routed point must sit on the front"
            );
        }
        // Neither routed point loses accuracy against the paper default.
        for op in [&decode, &prefill] {
            let eval = r
                .pareto
                .points()
                .iter()
                .find(|e| e.candidate.operating_point() == *op)
                .expect("on the front");
            assert!(eval.metrics.loss <= r.paper_default.metrics.loss + 1e-12);
        }
    }
}
