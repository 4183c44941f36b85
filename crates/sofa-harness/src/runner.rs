//! Spec execution: look the experiment up in the registry, run it once,
//! write the declared artifacts, evaluate the predicates, and fold
//! everything into the regression gate's exit-code contract (0 pass /
//! 1 gate tripped / 2 artifact problem — artifact problems dominate,
//! because gates cannot be trusted when their inputs never materialised).

use crate::predicate::{evaluate, EvalContext, Verdict};
use crate::spec::{ArtifactSpec, Spec};
use sofa_bench::report::tables_to_json;
use sofa_bench::{registry, ExperimentOutput};
use sofa_obs::metrics::json_string;
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};

/// How a spec run is configured.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Spec-relative paths (artifacts, goldens) resolve against this
    /// directory — the workspace root.
    pub root: PathBuf,
    /// Rewrite golden snapshots instead of comparing (`--update-golden`;
    /// `UPDATE_GOLDEN=1` in the environment has the same effect).
    pub update_golden: bool,
}

/// One spec's aggregated verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecStatus {
    /// Every predicate passed and every artifact was written.
    Pass,
    /// At least one gate predicate tripped.
    GateFailed,
    /// An input or output never materialised (dominates `GateFailed`).
    ArtifactError,
}

/// The full result of running one spec.
#[derive(Debug, Clone)]
pub struct SpecResult {
    /// Spec name.
    pub name: String,
    /// Registry key of the experiment it ran.
    pub experiment: String,
    /// Gate label for failure lines.
    pub gate: Option<String>,
    /// Evidence lines from passing predicates.
    pub ok: Vec<String>,
    /// Gate failures (exit 1).
    pub failures: Vec<String>,
    /// Artifact problems (exit 2).
    pub artifact_errors: Vec<String>,
    /// Artifacts written, workspace-relative as declared in the spec.
    pub artifacts: Vec<String>,
}

impl SpecResult {
    fn new(spec: &Spec) -> Self {
        SpecResult {
            name: spec.name.clone(),
            experiment: spec.experiment.clone(),
            gate: spec.gate.clone(),
            ok: Vec::new(),
            failures: Vec::new(),
            artifact_errors: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// The aggregated verdict.
    pub fn status(&self) -> SpecStatus {
        if !self.artifact_errors.is_empty() {
            SpecStatus::ArtifactError
        } else if !self.failures.is_empty() {
            SpecStatus::GateFailed
        } else {
            SpecStatus::Pass
        }
    }
}

/// The results of one `harness run` invocation.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-spec results, in run order.
    pub results: Vec<SpecResult>,
}

impl RunSummary {
    /// The process exit code under the regression-gate contract.
    pub fn exit_code(&self) -> u8 {
        let statuses: Vec<SpecStatus> = self.results.iter().map(SpecResult::status).collect();
        if statuses.contains(&SpecStatus::ArtifactError) {
            2
        } else if statuses.contains(&SpecStatus::GateFailed) {
            1
        } else {
            0
        }
    }

    /// Machine-readable results (`harness run --json <path>` writes this):
    /// one object per spec with its status and every evidence/failure line.
    pub fn to_json(&self) -> String {
        let list = |items: &[String]| {
            format!(
                "[{}]",
                items
                    .iter()
                    .map(|s| json_string(s))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let specs = self
            .results
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":{},\"experiment\":{},\"gate\":{},\"status\":{},\
                     \"artifacts\":{},\"ok\":{},\"failures\":{},\"artifact_errors\":{}}}",
                    json_string(&r.name),
                    json_string(&r.experiment),
                    r.gate.as_deref().map_or("null".to_string(), json_string),
                    json_string(match r.status() {
                        SpecStatus::Pass => "pass",
                        SpecStatus::GateFailed => "gate-failed",
                        SpecStatus::ArtifactError => "artifact-error",
                    }),
                    list(&r.artifacts),
                    list(&r.ok),
                    list(&r.failures),
                    list(&r.artifact_errors),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let passed = self
            .results
            .iter()
            .filter(|r| r.status() == SpecStatus::Pass)
            .count();
        format!(
            "{{\"specs\":[{specs}],\"passed\":{passed},\"total\":{},\"exit\":{}}}",
            self.results.len(),
            self.exit_code()
        )
    }
}

/// Runs the experiment behind `spec` once, converting a panic into an
/// error message (a panicking experiment is a gate failure, exactly as in
/// the legacy gate binary).
fn run_experiment(
    run: fn() -> ExperimentOutput,
    threads: Option<usize>,
) -> Result<ExperimentOutput, String> {
    let result = match threads {
        None => catch_unwind(run),
        Some(t) => catch_unwind(move || sofa_par::with_threads(t, run)),
    };
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "experiment panicked".to_string())
    })
}

/// Runs one spec.
pub(crate) fn run_spec(spec: &Spec, opts: &RunOptions) -> SpecResult {
    let mut result = SpecResult::new(spec);
    let Some(entry) = registry::find(&spec.experiment) else {
        result.artifact_errors.push(format!(
            "experiment {:?} is not registered (see `harness list`)",
            spec.experiment
        ));
        return result;
    };
    let output = match run_experiment(entry.run, spec.threads) {
        Ok(out) => out,
        Err(e) => {
            result.failures.push(format!("experiment panicked: {e}"));
            return result;
        }
    };

    // Artifacts first: a gate verdict without its artifact is as useless
    // in CI as the reverse, and `trace_valid` wants the same bytes the
    // artifact carries.
    for artifact in &spec.artifacts {
        let path = opts.root.join(artifact.path());
        let body = match artifact {
            ArtifactSpec::Tables { .. } => tables_to_json(&output.tables),
            ArtifactSpec::Text { text, .. } => match output.texts.get(text) {
                Some(body) => body.clone(),
                None => {
                    result.artifact_errors.push(format!(
                        "artifact {} references text {text:?}, which the experiment \
                         did not export",
                        artifact.path()
                    ));
                    continue;
                }
            },
        };
        if let Err(e) = write_artifact(&path, &body) {
            result
                .artifact_errors
                .push(format!("artifact {}: {e}", artifact.path()));
        } else {
            result.artifacts.push(artifact.path().to_string());
        }
    }

    // A re-run without its own thread count repeats the first run's.
    let rerun = |threads: Option<usize>| run_experiment(entry.run, threads.or(spec.threads));
    let ctx = EvalContext {
        output: &output,
        rerun: &rerun,
        golden_root: &opts.root,
        update_golden: opts.update_golden,
    };
    for pred in &spec.predicates {
        match evaluate(pred, &ctx) {
            Verdict::Pass(msg) => result.ok.push(format!("{}: {msg}", pred.kind())),
            Verdict::GateFail(msg) => result.failures.push(format!("{}: {msg}", pred.kind())),
            Verdict::ArtifactError(msg) => result.artifact_errors.push(msg),
        }
    }
    result
}

fn write_artifact(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs a list of specs in order.
pub fn run_specs(specs: &[Spec], opts: &RunOptions) -> RunSummary {
    RunSummary {
        results: specs.iter().map(|s| run_spec(s, opts)).collect(),
    }
}

/// One spec file as loaded from disk: its path and the parse outcome.
pub(crate) type LoadedSpec = (PathBuf, Result<Spec, String>);

/// Loads every `*.json` spec in `dir`, sorted by file name (the run
/// order). Parse failures are returned per file so the caller can report
/// them all at once.
pub fn load_specs_dir(dir: &Path) -> Result<Vec<LoadedSpec>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read specs directory {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|p| {
            let parsed = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))
                .and_then(|text| crate::spec::parse_spec(&text));
            (p, parsed)
        })
        .collect())
}

/// Lints every spec in `dir` without running experiments: files must
/// parse, reference a registered experiment, use unique names, and point
/// at existing golden snapshots. Returns the problems found.
pub fn check_specs(dir: &Path, root: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let loaded = match load_specs_dir(dir) {
        Ok(l) => l,
        Err(e) => return vec![e],
    };
    if loaded.is_empty() {
        problems.push(format!("no spec files found in {}", dir.display()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (path, parsed) in &loaded {
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let spec = match parsed {
            Ok(s) => s,
            Err(e) => {
                problems.push(format!("{file}: {e}"));
                continue;
            }
        };
        if !seen.insert(spec.name.clone()) {
            problems.push(format!("{file}: duplicate spec name {:?}", spec.name));
        }
        if registry::find(&spec.experiment).is_none() {
            problems.push(format!(
                "{file}: experiment {:?} is not registered",
                spec.experiment
            ));
        }
        for pred in &spec.predicates {
            if let Some(golden) = pred.golden() {
                if !root.join(golden).is_file() {
                    problems.push(format!(
                        "{file}: golden snapshot {golden:?} does not exist \
                         (generate it with `harness run --update-golden`)"
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Predicate;

    fn opts() -> RunOptions {
        let root = std::env::temp_dir().join("sofa-harness-runner-tests");
        std::fs::create_dir_all(&root).unwrap();
        RunOptions {
            root,
            update_golden: false,
        }
    }

    fn spec(experiment: &str, predicates: Vec<Predicate>) -> Spec {
        Spec {
            name: "unit".into(),
            about: "unit-test spec".into(),
            experiment: experiment.into(),
            gate: Some("unit".into()),
            threads: None,
            artifacts: Vec::new(),
            predicates,
        }
    }

    #[test]
    fn a_declared_thread_count_applies_to_the_run() {
        fn threads() -> ExperimentOutput {
            ExperimentOutput::of_tables(Vec::new())
                .with_scalar("threads", sofa_par::configured_threads() as f64)
        }
        let run = run_experiment(threads, Some(3)).unwrap();
        assert_eq!(run.scalar("threads"), Some(3.0));
    }

    #[test]
    fn unknown_experiment_is_an_artifact_error() {
        let r = run_spec(&spec("does_not_exist", vec![]), &opts());
        assert_eq!(r.status(), SpecStatus::ArtifactError);
        let summary = RunSummary { results: vec![r] };
        assert_eq!(summary.exit_code(), 2);
    }

    #[test]
    fn cheap_experiment_passes_non_empty_and_writes_artifacts() {
        let o = opts();
        let mut s = spec(
            "cycle_sim_fidelity",
            vec![
                Predicate::NonEmpty { metric: None },
                Predicate::NonEmpty {
                    metric: Some("compute_bound_configs".into()),
                },
            ],
        );
        s.artifacts.push(ArtifactSpec::Tables {
            path: "runner-artifacts/cycle_sim_fidelity.json".into(),
        });
        let r = run_spec(&s, &o);
        assert_eq!(r.status(), SpecStatus::Pass, "{r:?}");
        assert_eq!(r.artifacts.len(), 1);
        let written =
            std::fs::read_to_string(o.root.join("runner-artifacts/cycle_sim_fidelity.json"))
                .unwrap();
        assert!(written.starts_with("[{\"title\":"));
    }

    #[test]
    fn artifact_error_dominates_gate_failure_in_exit_code() {
        let pass = SpecResult {
            failures: vec!["gate tripped".into()],
            ..SpecResult::new(&spec("x", vec![]))
        };
        let broken = SpecResult {
            artifact_errors: vec!["missing".into()],
            ..SpecResult::new(&spec("x", vec![]))
        };
        assert_eq!(
            RunSummary {
                results: vec![pass.clone()]
            }
            .exit_code(),
            1
        );
        assert_eq!(
            RunSummary {
                results: vec![pass, broken]
            }
            .exit_code(),
            2
        );
    }

    #[test]
    fn summary_json_is_parseable_and_carries_statuses() {
        let mut ok = SpecResult::new(&spec("x", vec![]));
        ok.ok.push("non_empty: fine".into());
        let mut failed = SpecResult::new(&spec("y", vec![]));
        failed.failures.push("tolerance: worse".into());
        let summary = RunSummary {
            results: vec![ok, failed],
        };
        let doc = sofa_obs::json::parse(&summary.to_json()).expect("valid JSON");
        let specs = doc.get("specs").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(
            specs[0].get("status").and_then(|s| s.as_str()),
            Some("pass")
        );
        assert_eq!(
            specs[1].get("status").and_then(|s| s.as_str()),
            Some("gate-failed")
        );
        assert_eq!(doc.get("exit").and_then(|e| e.as_num()), Some(1.0));
    }
}
