//! Tiny-size runs of every workload: each emits exactly the metrics
//! `BENCHMARK.json` names, finite and with the listed unit, passes its
//! correctness checks, and the traced run's spans nest and export a valid
//! Chrome trace.

use sofa_benchmark::{run, Options, Outcome, Size, Workload};
use sofa_obs::json::{parse, Json};

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::Smoke,
    })
}

fn assert_emits_declared(outcome: &Outcome, section: &str) {
    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        emitted,
        declared(section),
        "metrics differ from BENCHMARK.json {section}"
    );
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 3, false);
        assert!(
            outcome.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert!(
            outcome.attempted >= 5,
            "warm-up, three timed runs and the thread check"
        );
        assert_emits_declared(&outcome, "end_to_end");
        assert!(
            outcome.spans.spans().is_empty(),
            "untraced runs record no spans"
        );
        let line = outcome.result_json();
        let result = parse(&line).expect("the result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_a_valid_trace() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 5, true);
        assert!(
            outcome.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert_emits_declared(&outcome, "per_layer");
        outcome.spans.check_nesting().expect("spans nest");
        let stats = sofa_obs::validate_chrome_trace(&outcome.spans.to_chrome_json(workload.name()))
            .expect("the trace validates");
        assert_eq!(stats.spans, outcome.spans.spans().len());
        for name in [
            "bench.setup",
            "bench.run",
            "bench.probe_kernels",
            "core.sufa",
        ] {
            assert!(
                outcome.spans.spans().iter().any(|s| s.name == name),
                "{}: no {name} span",
                workload.name()
            );
        }
    }
}

#[test]
fn the_digest_is_a_function_of_the_seed() {
    let a = smoke(Workload::FleetMega, 11, false);
    let b = smoke(Workload::FleetMega, 11, false);
    let c = smoke(Workload::FleetMega, 12, false);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
}
