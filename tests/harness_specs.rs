//! Harness spec-suite tests.
//!
//! Three nets over the declarative gate runner:
//!
//! 1. **Lint** — every spec under `specs/` parses, names a registered
//!    experiment, and points at goldens that exist (the same check the
//!    `harness check` CI step runs).
//! 2. **Differential** — the spec-driven gates agree with the legacy
//!    regression-gate semantics they replaced: for each gate the verdict
//!    computed from the experiment's exported metrics must equal the
//!    verdict of the underlying study's own methods, on the clean tree
//!    *and* on tampered outputs.
//! 3. **Catalogue drift** — `docs/EXPERIMENTS.md` equals what
//!    `harness list --markdown` emits (regenerate with `UPDATE_GOLDEN=1
//!    cargo test --test harness_specs` or the harness command itself).

use sofa_bench::registry;
use sofa_bench::MetricValue;
use sofa_harness::predicate::{evaluate, EvalContext, Verdict};
use sofa_harness::runner::{check_specs, load_specs_dir};
use sofa_harness::spec::{Predicate, Spec};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load_specs() -> Vec<Spec> {
    load_specs_dir(&root().join("specs"))
        .expect("specs directory is readable")
        .into_iter()
        .map(|(path, parsed)| parsed.unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        .collect()
}

fn spec(name: &str) -> Spec {
    load_specs()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no spec named {name} under specs/"))
}

/// Evaluates one spec's predicates against `output`, skipping the
/// re-running kinds (determinism/thread identity — exercised by `harness
/// run` itself, too expensive to double here), and returns whether every
/// evaluated predicate passed. Panics on artifact errors: in this
/// differential the metrics must exist.
fn gates_pass(spec: &Spec, output: &sofa_bench::ExperimentOutput) -> bool {
    let rerun = |_: Option<usize>| -> Result<sofa_bench::ExperimentOutput, String> {
        panic!("differential test must not re-run experiments")
    };
    let ctx = EvalContext {
        output,
        rerun: &rerun,
        golden_root: &root(),
        update_golden: false,
    };
    let mut all_pass = true;
    for pred in &spec.predicates {
        if matches!(
            pred,
            Predicate::TwoRunDeterminism | Predicate::ThreadByteIdentity { .. }
        ) {
            continue;
        }
        match evaluate(pred, &ctx) {
            Verdict::Pass(_) => {}
            Verdict::GateFail(_) => all_pass = false,
            Verdict::ArtifactError(e) => panic!("{}: artifact error: {e}", spec.name),
        }
    }
    all_pass
}

fn tamper(
    output: &sofa_bench::ExperimentOutput,
    metric: &str,
    value: f64,
) -> sofa_bench::ExperimentOutput {
    let mut out = output.clone();
    match out.metrics.get_mut(metric).expect("metric exists") {
        MetricValue::Scalar(v) => *v = value,
        MetricValue::Series(vs) => vs.push(value),
    }
    out
}

#[test]
fn specs_directory_passes_the_harness_lint() {
    let problems = check_specs(&root().join("specs"), &root());
    assert!(problems.is_empty(), "spec lint problems: {problems:#?}");
}

#[test]
fn every_spec_runs_a_registered_experiment_and_every_gate_has_a_spec() {
    let specs = load_specs();
    assert!(
        specs.len() >= 11,
        "expected the full gate suite, got {}",
        specs.len()
    );
    for s in &specs {
        assert!(
            registry::find(&s.experiment).is_some(),
            "{}: unregistered experiment {}",
            s.name,
            s.experiment
        );
    }
    // The seven legacy gate families must all still be represented.
    let gates: std::collections::BTreeSet<&str> =
        specs.iter().filter_map(|s| s.gate.as_deref()).collect();
    for gate in [
        "cycle-sim",
        "smoke",
        "dse",
        "routing",
        "trace",
        "fleet",
        "adaptive",
    ] {
        assert!(gates.contains(gate), "no spec carries gate {gate:?}");
    }
}

#[test]
fn cycle_sim_spec_agrees_with_the_legacy_gate() {
    use sofa_hw::config::HwConfig;
    use sofa_sim::CycleSim;

    let output = registry::cycle_sim_fidelity_output();
    let spec = spec("cycle_sim_fidelity");
    // Legacy gate 1: every compute-bound config agrees within the
    // tolerance, and the grid contains at least one compute-bound config.
    let sim = CycleSim::new(HwConfig::paper_default());
    let mut compute_bound = 0usize;
    let mut legacy_pass = true;
    for task in sofa_bench::experiments::cycle_sim_tasks() {
        let cmp = sim.validate(&task).1;
        if !cmp.analytic_memory_bound {
            compute_bound += 1;
            legacy_pass &= cmp.agrees_within(registry::CYCLE_SIM_TOLERANCE);
        }
    }
    legacy_pass &= compute_bound > 0;
    assert_eq!(
        output.scalar("compute_bound_configs"),
        Some(compute_bound as f64),
        "registry output disagrees with the legacy compute-bound count"
    );
    assert_eq!(gates_pass(&spec, &output), legacy_pass);
    // A diverging simulator must trip the spec exactly as it tripped the
    // legacy gate.
    let tampered = tamper(&output, "compute_bound_rel_err", 0.40);
    assert!(!gates_pass(&spec, &tampered), "tampered rel-err must fail");
}

#[test]
fn fleet_consistency_spec_agrees_with_the_legacy_gate() {
    let (fleet, single) = sofa_bench::experiments::serve_fleet_consistency();
    let output = registry::fleet_consistency_output_from(&fleet, &single);
    let spec = spec("serve_fleet_consistency");
    let legacy_pass = fleet.served as usize == single.records.len()
        && sofa_serve::fleet::p95_drift(&fleet, &single) <= registry::FLEET_TOLERANCE;
    assert_eq!(gates_pass(&spec, &output), legacy_pass);
    assert!(
        !gates_pass(&spec, &tamper(&output, "fleet_served", -1.0)),
        "tampered served count must fail"
    );
    assert!(
        !gates_pass(&spec, &tamper(&output, "p95_drift", 0.5)),
        "tampered drift must fail"
    );
}

#[test]
fn routed_adaptive_and_dse_specs_agree_with_the_study_methods() {
    // One process-cached search feeds all three studies, exactly as it
    // feeds the real specs (dse_pareto_fresh aside).
    let report = sofa_bench::experiments::dse_pareto_report();

    let routed = sofa_bench::experiments::serve_routed_study_from(&report);
    let routed_out = registry::routed_output_from(&routed);
    let budget_ok = routed
        .budgeted
        .records
        .iter()
        .all(|r| r.energy_pj <= routed.budget_pj);
    let routed_legacy =
        routed.routed_dominates_default() && routed.routed.p95() <= routed.tuned.p95() && budget_ok;
    assert_eq!(
        gates_pass(&spec("serve_routed"), &routed_out),
        routed_legacy
    );
    assert!(
        !gates_pass(
            &spec("serve_routed"),
            &tamper(&routed_out, "routed_p95", f64::MAX)
        ),
        "tampered routed p95 must fail"
    );

    let adaptive = sofa_bench::experiments::serve_adaptive_study_from(&report);
    let decode_op = report.route(&sofa_model::trace::RequestClass::Decode);
    let adaptive_out = registry::adaptive_output_from(&adaptive, &decode_op);
    assert_eq!(
        gates_pass(&spec("serve_adaptive"), &adaptive_out),
        adaptive.adaptive_dominates_static(),
        "spec dominance conjunction must equal adaptive_dominates_static()"
    );
    assert!(
        !gates_pass(
            &spec("serve_adaptive"),
            &tamper(&adaptive_out, "adaptive_shed", f64::MAX)
        ),
        "tampered shed count must fail"
    );

    let dse_out = registry::dse_output_from(&report);
    let dse_legacy = !report.pareto.is_empty() && !report.dominating().is_empty();
    assert_eq!(gates_pass(&spec("dse_pareto"), &dse_out), dse_legacy);
    assert!(
        !gates_pass(&spec("dse_pareto"), &tamper(&dse_out, "pareto_points", 0.0)),
        "empty pareto front must fail"
    );
}

#[test]
fn experiments_md_matches_the_generated_catalogue() {
    let specs = load_specs();
    let want = sofa_harness::catalog::experiments_markdown(&specs);
    let path = root().join("docs/EXPERIMENTS.md");
    sofa_harness::golden::assert_matches(
        &path,
        &want,
        "cargo run --release -p sofa-harness --bin harness -- list --markdown > docs/EXPERIMENTS.md",
    );
}

#[test]
fn the_fleet_heap_gate_fails_on_zero_readings() {
    // In a process without the counting allocator both readings are 0; a
    // gate that passed then would gate nothing.
    let spec = spec("perf_fleet_mega");
    let heap = spec
        .predicates
        .iter()
        .find(|p| matches!(p, Predicate::Dominance { subject, .. } if subject[0] == "peak_heap_bytes_1m"))
        .expect("perf_fleet_mega gates the streamed run's peak heap");
    let verdict = |at_1m: f64, at_100k: f64| {
        let out = sofa_bench::ExperimentOutput::default()
            .with_scalar("peak_heap_bytes_1m", at_1m)
            .with_scalar("peak_heap_bytes_100k", at_100k);
        let rerun = |_: Option<usize>| -> Result<sofa_bench::ExperimentOutput, String> {
            panic!("the heap gate reads scalars only")
        };
        let ctx = EvalContext {
            output: &out,
            rerun: &rerun,
            golden_root: &root(),
            update_golden: false,
        };
        matches!(evaluate(heap, &ctx), Verdict::Pass(_))
    };
    assert!(!verdict(0.0, 0.0), "zero readings must fail");
    assert!(verdict(278_192.0, 271_408.0));
    assert!(verdict(1.09e6, 1.0e6));
    assert!(
        !verdict(1.11e6, 1.0e6),
        "a 1M run may hold at most 1.1x the 100k run"
    );
}

#[test]
fn the_allocation_pins_fail_without_the_counting_allocator() {
    // A test binary runs on the system allocator, so `perf_lowering`'s
    // allocation counts read 0 here; the pinned counts must then fail, or
    // they would gate nothing.
    let out = (registry::find("perf_lowering").expect("registered").run)();
    let spec = spec("perf_lowering");
    let pins: Vec<&Predicate> = spec
        .predicates
        .iter()
        .filter(|p| matches!(p, Predicate::CountEquality { left, .. } if left.ends_with("_allocations")))
        .collect();
    assert_eq!(pins.len(), 2, "routed and adaptive allocations are pinned");
    let rerun = |_: Option<usize>| -> Result<sofa_bench::ExperimentOutput, String> {
        panic!("the allocation pins read scalars only")
    };
    let ctx = EvalContext {
        output: &out,
        rerun: &rerun,
        golden_root: &root(),
        update_golden: false,
    };
    for pin in pins {
        assert!(
            matches!(evaluate(pin, &ctx), Verdict::GateFail(_)),
            "{pin:?} must fail on a zero reading"
        );
    }
}
