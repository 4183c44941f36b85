//! Golden-report tests: the machine-readable JSON of the CI smoke
//! experiments is snapshotted under `tests/golden/` and must stay
//! *byte-stable* — these tables are what the harness specs and the CI
//! artifact trajectory consume, so silent drift (a changed column, a
//! renumbered grid, a nondeterministic cell) must fail loudly instead.
//!
//! The experiments are pure functions of pinned configurations and the
//! deterministic simulators, and the parallel execution engine guarantees
//! bit-identical results at any `SOFA_THREADS`, so the snapshots hold on
//! every machine and in both legs of the CI thread matrix.
//!
//! To regenerate after an *intentional* modelling change (either form):
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! cargo run --release -p sofa-harness --bin harness -- run --all --update-golden
//! git diff tests/golden/   # review the drift before committing it
//! ```

use std::path::PathBuf;

/// The first table of registry experiment `name`, as JSON — read through
/// the registry, the path `sofa-bench` and the harness take.
fn first_table_json(name: &str) -> String {
    let entry = sofa_bench::registry::find(name)
        .unwrap_or_else(|| panic!("no registry experiment named {name}"));
    (entry.run)().tables[0].to_json()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the stored snapshot, or rewrites the snapshot
/// when `UPDATE_GOLDEN` is set in the environment. One shared
/// implementation with the harness `golden_match` predicate.
fn assert_matches_golden(name: &str, got: &str) {
    sofa_harness::golden::assert_matches(
        &golden_path(name),
        got,
        "UPDATE_GOLDEN=1 cargo test --test golden_reports",
    );
}

#[test]
fn sim_cycle_vs_analytic_json_is_byte_stable() {
    assert_matches_golden(
        "sim_cycle_vs_analytic.json",
        &first_table_json("sim_cycle_vs_analytic"),
    );
}

#[test]
fn serve_throughput_latency_json_is_byte_stable() {
    assert_matches_golden(
        "serve_throughput_latency.json",
        &first_table_json("serve_sweep"),
    );
}

#[test]
fn dse_pareto_json_is_byte_stable() {
    // The hardware-aware DSE is a pure function of pinned workloads and the
    // search seed (bit-identical at any SOFA_THREADS), so its Pareto table —
    // the input of the CI dse gate and the serving A/B — must never drift
    // silently.
    assert_matches_golden("dse_pareto.json", &first_table_json("dse_pareto"));
}

#[test]
fn serve_routed_json_is_byte_stable() {
    // The routed-serving study (paper default vs tuned vs Pareto-routed vs
    // budgeted routing) feeds CI regression gate 4; its table is a pure
    // function of the pinned DSE report and trace.
    assert_matches_golden("serve_routed.json", &first_table_json("serve_routed"));
}

#[test]
fn serve_fleet_json_is_byte_stable() {
    // The pinned fleet scaling grid (1/2/4 nodes, plus disaggregated) feeds
    // CI regression gate 6 and the bench-smoke artifact; the fleet
    // simulation is bit-identical at any SOFA_THREADS, so its table must
    // never drift silently.
    assert_matches_golden("serve_fleet.json", &first_table_json("serve_fleet"));
}

#[test]
fn serve_adaptive_json_is_byte_stable() {
    // The adaptive-serving study (static budgeted Pareto routing vs the
    // closed-loop controller on the overload trace) feeds CI regression
    // gate 7; its table is a pure function of the pinned DSE report, trace
    // and controller configuration.
    assert_matches_golden("serve_adaptive.json", &first_table_json("serve_adaptive"));
}

#[test]
fn golden_snapshots_are_valid_single_line_json_objects() {
    // A sanity net over the snapshot files themselves (they are consumed by
    // artifact tooling, not only by this test): non-empty, one line, object-
    // shaped, and carrying the expected keys. Skipped while regenerating —
    // the snapshot tests may still be writing the files in parallel.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    for name in [
        "sim_cycle_vs_analytic.json",
        "serve_throughput_latency.json",
        "dse_pareto.json",
        "serve_routed.json",
        "serve_fleet.json",
        "serve_adaptive.json",
    ] {
        let text = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden snapshot {name} ({e}); see module docs"));
        assert!(!text.is_empty(), "{name} is empty");
        assert_eq!(text.lines().count(), 1, "{name} must be a single line");
        assert!(text.starts_with('{') && text.ends_with('}'), "{name} shape");
        for key in ["\"title\":", "\"headers\":", "\"rows\":"] {
            assert!(text.contains(key), "{name} lacks {key}");
        }
    }
}
