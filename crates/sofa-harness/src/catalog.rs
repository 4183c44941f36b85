//! `docs/EXPERIMENTS.md` generation. The document is derived entirely from
//! [`sofa_bench::registry`] plus the loaded spec files, so it can never
//! drift from the code: `harness list --markdown > docs/EXPERIMENTS.md`
//! regenerates it, and a workspace test asserts the committed file equals
//! the emitted markdown.

use crate::spec::{Predicate, Spec};
use sofa_bench::registry;

fn predicate_summary(pred: &Predicate) -> String {
    match pred {
        Predicate::Tolerance { metric, max } => format!("`tolerance({metric} <= {max})`"),
        Predicate::Dominance {
            subject,
            reference,
            strict,
            reference_scale,
        } => {
            let op = if *strict { "<" } else { "<=" };
            let scale = if *reference_scale == 1.0 {
                String::new()
            } else {
                format!(" x {reference_scale}")
            };
            format!(
                "`dominance({} {op} {}{scale})`",
                subject.join(","),
                reference.join(","),
            )
        }
        Predicate::NonEmpty { metric: Some(m) } => format!("`non_empty({m})`"),
        Predicate::NonEmpty { metric: None } => "`non_empty`".to_string(),
        Predicate::TwoRunDeterminism => "`two_run_determinism`".to_string(),
        Predicate::ThreadByteIdentity { threads } => {
            let t: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
            format!("`thread_byte_identity({})`", t.join(","))
        }
        Predicate::GoldenMatch { .. } => "`golden_match`".to_string(),
        Predicate::GoldenHash { text, .. } => format!("`golden_hash({text})`"),
        Predicate::TraceValid { text, .. } => format!("`trace_valid({text})`"),
        Predicate::CountEquality { left, right } => format!("`count_equality({left} == {right})`"),
        Predicate::WallTimeBudget {
            metric,
            budget_seconds,
        } => format!("`wall_time_budget({metric} <= {budget_seconds}s)`"),
    }
}

fn golden_of(spec: &Spec) -> String {
    let goldens: Vec<&str> = spec
        .predicates
        .iter()
        .filter_map(Predicate::golden)
        .collect();
    if goldens.is_empty() {
        "-".to_string()
    } else {
        goldens
            .iter()
            .map(|g| format!("`{g}`"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Renders the full `docs/EXPERIMENTS.md` from the registry and `specs`.
pub fn experiments_markdown(specs: &[Spec]) -> String {
    let entries = registry::registry();
    let mut out = String::new();
    out.push_str("# Experiment catalog\n\n");
    out.push_str(
        "This file is generated from the typed experiment registry \
         (`sofa_bench::registry`) and the spec files under `specs/`:\n\n\
         ```\ncargo run --release -p sofa-harness --bin harness -- list --markdown > docs/EXPERIMENTS.md\n```\n\n\
         Do not edit it by hand — a workspace test compares it against the\n\
         registry and fails on drift.\n\n",
    );

    out.push_str("## Paper artefacts\n\n");
    out.push_str(
        "Every registered experiment runs as `sofa-bench <name>`\n\
         (`cargo run --release -p sofa-bench -- <name>`). Each command below\n\
         regenerates one figure or table from the paper. All of them run\n\
         inside `sofa-bench all`, accept `--json <path>` to write the table\n\
         as a JSON artifact, and are deterministic at any `SOFA_THREADS`\n\
         setting.\n\n",
    );
    out.push_str("| Command | Reproduces |\n|---|---|\n");
    for e in entries.iter().filter(|e| e.paper) {
        out.push_str(&format!("| `sofa-bench {}` | {} |\n", e.name, e.about));
    }
    let studies_in_all: Vec<String> = entries
        .iter()
        .filter(|e| !e.paper && e.in_all)
        .map(|e| format!("`{}`", e.name))
        .collect();
    out.push_str(&format!(
        "| `sofa-bench all` | every experiment above, then {}, in one run |\n",
        studies_in_all.join(", ")
    ));

    out.push_str("\n## Studies\n\n");
    out.push_str(
        "Beyond the paper's own artefacts, these experiments exercise the\n\
         simulator, the design-space explorer and the serving stack. Each\n\
         accepts `--json <path>`; `sofa-bench serve_trace` takes\n\
         `--trace <path>` and `--metrics <path>` instead, and\n\
         `sofa-bench serve_fleet` also accepts `--requests/--rate/--nodes/\
         --instances-per-node/--disaggregate` for scaled runs.\n\n",
    );
    out.push_str("| Command | What it measures |\n|---|---|\n");
    for e in entries.iter().filter(|e| !e.paper) {
        out.push_str(&format!("| `sofa-bench {}` | {} |\n", e.name, e.about));
    }

    out.push_str("\n## Gated specs\n\n");
    out.push_str(
        "`harness run --all` executes every spec below (alphabetical by\n\
         file name), writes the declared artifacts under `bench-reports/`,\n\
         and evaluates the gate predicates. Exit code `0` means every\n\
         predicate passed, `1` means a gate tripped (a genuine regression),\n\
         `2` means an artifact was missing or unparseable (an\n\
         infrastructure problem). `harness run --update-golden` (or\n\
         `UPDATE_GOLDEN=1`) rewrites golden snapshots instead of comparing.\n\
         A gate marked `(threads N)` runs its experiment, and every re-run\n\
         without a thread count of its own, under `N` worker threads.\n\n",
    );
    out.push_str("| Spec | Experiment | Gate | Artifacts | Golden | Predicates |\n|---|---|---|---|---|---|\n");
    for s in specs {
        let artifacts = if s.artifacts.is_empty() {
            "-".to_string()
        } else {
            s.artifacts
                .iter()
                .map(|a| format!("`{}`", a.path()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let preds = s
            .predicates
            .iter()
            .map(predicate_summary)
            .collect::<Vec<_>>()
            .join(", ");
        let threads = s
            .threads
            .map_or(String::new(), |t| format!(" (threads {t})"));
        out.push_str(&format!(
            "| `{}` | `{}` | {}{threads} | {artifacts} | {} | {preds} |\n",
            s.name,
            s.experiment,
            s.gate.as_deref().unwrap_or("-"),
            golden_of(s),
        ));
    }

    out.push_str(
        "\n## Benchmarks\n\n\
         The repository benchmark (`benchmark/`, workloads declared in\n\
         `BENCHMARK.json`) times each workload end to end and, with\n\
         `--trace 1`, layer by layer — the DLZS, SADS and SU-FA kernels\n\
         included. It is not gated here: the gates above track end-to-end\n\
         metrics, which is what the paper claims are about.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArtifactSpec;

    #[test]
    fn markdown_covers_registry_and_specs() {
        let spec = Spec {
            name: "demo".into(),
            about: "demo spec".into(),
            experiment: "serve_routed".into(),
            gate: Some("routing".into()),
            threads: None,
            artifacts: vec![ArtifactSpec::Tables {
                path: "bench-reports/demo.json".into(),
            }],
            predicates: vec![
                Predicate::Dominance {
                    subject: vec!["routed_p95".into()],
                    reference: vec!["default_p95".into()],
                    strict: true,
                    reference_scale: 1.0,
                },
                Predicate::TwoRunDeterminism,
            ],
        };
        let md = experiments_markdown(&[spec]);
        for e in registry::registry() {
            assert!(md.contains(e.name), "registry entry {} missing", e.name);
        }
        assert!(md.contains("| `demo` | `serve_routed` | routing |"));
        assert!(md.contains("`dominance(routed_p95 < default_p95)`"));
        assert!(md.contains("`two_run_determinism`"));
    }
}
