//! The spec-file schema and its parser (built on `sofa_obs::json` — no new
//! dependencies).
//!
//! A spec is one JSON object:
//!
//! ```json
//! {
//!   "name": "serve_routed",
//!   "about": "routed serving must dominate the paper default",
//!   "experiment": "serve_routed",
//!   "gate": "routing",
//!   "artifacts": [ {"kind": "tables", "path": "bench-reports/serve_routed.json"} ],
//!   "predicates": [
//!     {"kind": "dominance",
//!      "subject": ["routed_p95", "routed_energy_pj_per_req"],
//!      "reference": ["default_p95", "default_energy_pj_per_req"],
//!      "strict": true}
//!   ]
//! }
//! ```
//!
//! An optional `"threads": N` (a positive integer) runs the experiment
//! under `N` worker threads.
//!
//! Parsing is strict: unknown top-level keys, artifact kinds, predicate
//! kinds or predicate fields are errors, so `harness check` catches typos
//! at PR time instead of silently skipping a gate.

use sofa_obs::json::{self, Json};

/// One declarative experiment + gate scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Spec name (what `harness run --spec` selects; unique across `specs/`).
    pub name: String,
    /// One-line description for the catalogue and run output.
    pub(crate) about: String,
    /// Registry key of the experiment to run (`sofa_bench::registry`).
    pub experiment: String,
    /// Gate label used on failure lines (`[gate routing] …`); specs without
    /// one are artifact/smoke scenarios.
    pub gate: Option<String>,
    /// Worker threads the experiment runs under (`sofa_par::with_threads`);
    /// without one it runs at the default `SOFA_THREADS`. Perf specs declare
    /// it so their wall times measure the same work on every host.
    pub(crate) threads: Option<usize>,
    /// Artifacts to write after the run.
    pub(crate) artifacts: Vec<ArtifactSpec>,
    /// Gate predicates, evaluated in order.
    pub predicates: Vec<Predicate>,
}

/// One artifact a spec writes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ArtifactSpec {
    /// The experiment's tables as one JSON array (the `--json <path>`
    /// convention of the experiment binaries).
    Tables { path: String },
    /// One named text from the experiment output (the Chrome trace, the
    /// metrics snapshot), written verbatim.
    Text { text: String, path: String },
}

impl ArtifactSpec {
    /// The destination path.
    pub(crate) fn path(&self) -> &str {
        match self {
            ArtifactSpec::Tables { path } | ArtifactSpec::Text { path, .. } => path,
        }
    }
}

/// Which validator `trace_valid` applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `sofa_obs::validate_chrome_trace`: schema, per-track timestamp
    /// monotonicity, balanced begin/end pairs.
    ChromeTrace,
    /// A metrics-registry snapshot: valid JSON with `counters`, `gauges`
    /// and `histograms` sections.
    MetricsSnapshot,
}

/// The gate-predicate algebra. Every predicate evaluates against one
/// experiment's [`sofa_bench::ExperimentOutput`] (re-running it where the
/// predicate demands).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Every value of `metric` satisfies `|v| <= max`.
    Tolerance { metric: String, max: f64 },
    /// Pointwise comparison: `subject[i] < reference[i] * reference_scale`
    /// for all `i` (`<=` when `strict` is false).
    Dominance {
        subject: Vec<String>,
        reference: Vec<String>,
        strict: bool,
        reference_scale: f64,
    },
    /// With a metric: the series is non-empty (a scalar must be `> 0`).
    /// Without: every table of the output has at least one row.
    NonEmpty { metric: Option<String> },
    /// Running the experiment a second time reproduces the output exactly
    /// (tables, metrics and texts).
    TwoRunDeterminism,
    /// Re-running under `sofa_par::with_threads(t)` for every listed `t`
    /// reproduces the output exactly — the `SOFA_THREADS` byte-identity
    /// guarantee as a spec.
    ThreadByteIdentity { threads: Vec<usize> },
    /// A table (by index) or text (by name) matches the golden snapshot
    /// byte for byte; `--update-golden` / `UPDATE_GOLDEN=1` rewrites it.
    GoldenMatch {
        golden: String,
        table: Option<usize>,
        text: Option<String>,
    },
    /// The 64-bit FNV-1a hash of the named text matches the one stored in
    /// `golden`, a one-line file; `--update-golden` / `UPDATE_GOLDEN=1`
    /// rewrites it. For texts too large to commit as snapshots.
    GoldenHash { golden: String, text: String },
    /// The named text parses and passes the format's validity checker.
    TraceValid { text: String, format: TraceFormat },
    /// Two scalar metrics are exactly equal (served-request counts).
    CountEquality { left: String, right: String },
    /// A wall-clock scalar stays under a budget. Budgets protect the perf
    /// trajectory from order-of-magnitude regressions, so they should be
    /// generous — wall time is host-dependent and must never be held to the
    /// byte-identity standard of the other gates.
    WallTimeBudget {
        /// Scalar metric holding the measured seconds (default
        /// `wall_seconds`, the perf experiments' convention).
        metric: String,
        /// Upper bound in seconds.
        budget_seconds: f64,
    },
}

/// Parses one spec file.
pub(crate) fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    spec_from_json(&doc)
}

fn obj<'j>(
    v: &'j Json,
    what: &str,
    allowed: &[&str],
) -> Result<&'j std::collections::BTreeMap<String, Json>, String> {
    let o = v
        .as_obj()
        .ok_or_else(|| format!("{what} must be an object"))?;
    for key in o.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{what} has unknown field {key:?}"));
        }
    }
    Ok(o)
}

fn str_field(
    o: &std::collections::BTreeMap<String, Json>,
    what: &str,
    key: &str,
) -> Result<String, String> {
    o.get(key)
        .ok_or_else(|| format!("{what} is missing field {key:?}"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what} field {key:?} must be a string"))
}

fn num_field(
    o: &std::collections::BTreeMap<String, Json>,
    what: &str,
    key: &str,
) -> Result<f64, String> {
    o.get(key)
        .ok_or_else(|| format!("{what} is missing field {key:?}"))?
        .as_num()
        .ok_or_else(|| format!("{what} field {key:?} must be a number"))
}

fn str_list(v: &Json, what: &str) -> Result<Vec<String>, String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} must be an array of strings"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what} must contain only strings"))
        })
        .collect()
}

fn spec_from_json(doc: &Json) -> Result<Spec, String> {
    let o = obj(
        doc,
        "spec",
        &[
            "name",
            "about",
            "experiment",
            "gate",
            "threads",
            "artifacts",
            "predicates",
        ],
    )?;
    let name = str_field(o, "spec", "name")?;
    let about = str_field(o, "spec", "about")?;
    let experiment = str_field(o, "spec", "experiment")?;
    let gate = match o.get("gate") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "spec field \"gate\" must be a string".to_string())?,
        ),
    };
    let threads = match o.get("threads") {
        None => None,
        Some(v) => Some(
            positive_int(v)
                .ok_or_else(|| "spec field \"threads\" must be a positive integer".to_string())?,
        ),
    };
    let mut artifacts = Vec::new();
    if let Some(v) = o.get("artifacts") {
        for (i, a) in v
            .as_arr()
            .ok_or_else(|| "spec field \"artifacts\" must be an array".to_string())?
            .iter()
            .enumerate()
        {
            artifacts.push(artifact_from_json(a, i)?);
        }
    }
    let mut predicates = Vec::new();
    if let Some(v) = o.get("predicates") {
        for (i, p) in v
            .as_arr()
            .ok_or_else(|| "spec field \"predicates\" must be an array".to_string())?
            .iter()
            .enumerate()
        {
            predicates.push(predicate_from_json(p, i)?);
        }
    }
    Ok(Spec {
        name,
        about,
        experiment,
        gate,
        threads,
        artifacts,
        predicates,
    })
}

/// A JSON number that is a whole number of at least 1.
fn positive_int(v: &Json) -> Option<usize> {
    v.as_num()
        .filter(|n| n.fract() == 0.0 && *n >= 1.0)
        .map(|n| n as usize)
}

fn artifact_from_json(v: &Json, index: usize) -> Result<ArtifactSpec, String> {
    let what = format!("artifact #{index}");
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} is missing a string \"kind\""))?
        .to_string();
    match kind.as_str() {
        "tables" => {
            let o = obj(v, &what, &["kind", "path"])?;
            Ok(ArtifactSpec::Tables {
                path: str_field(o, &what, "path")?,
            })
        }
        "text" => {
            let o = obj(v, &what, &["kind", "text", "path"])?;
            Ok(ArtifactSpec::Text {
                text: str_field(o, &what, "text")?,
                path: str_field(o, &what, "path")?,
            })
        }
        other => Err(format!("{what} has unknown kind {other:?}")),
    }
}

fn predicate_from_json(v: &Json, index: usize) -> Result<Predicate, String> {
    let what = format!("predicate #{index}");
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} is missing a string \"kind\""))?
        .to_string();
    match kind.as_str() {
        "tolerance" => {
            let o = obj(v, &what, &["kind", "metric", "max"])?;
            Ok(Predicate::Tolerance {
                metric: str_field(o, &what, "metric")?,
                max: num_field(o, &what, "max")?,
            })
        }
        "dominance" => {
            let o = obj(
                v,
                &what,
                &["kind", "subject", "reference", "strict", "reference_scale"],
            )?;
            let subject = str_list(
                o.get("subject")
                    .ok_or_else(|| format!("{what} is missing field \"subject\""))?,
                &format!("{what} field \"subject\""),
            )?;
            let reference = str_list(
                o.get("reference")
                    .ok_or_else(|| format!("{what} is missing field \"reference\""))?,
                &format!("{what} field \"reference\""),
            )?;
            if subject.is_empty() || subject.len() != reference.len() {
                return Err(format!(
                    "{what}: subject and reference must be non-empty and the same length"
                ));
            }
            let strict = match o.get("strict") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err(format!("{what} field \"strict\" must be a boolean")),
            };
            let reference_scale = match o.get("reference_scale") {
                None => 1.0,
                Some(v) => v
                    .as_num()
                    .ok_or_else(|| format!("{what} field \"reference_scale\" must be a number"))?,
            };
            Ok(Predicate::Dominance {
                subject,
                reference,
                strict,
                reference_scale,
            })
        }
        "non_empty" => {
            let o = obj(v, &what, &["kind", "metric"])?;
            let metric = match o.get("metric") {
                None => None,
                Some(m) => Some(
                    m.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} field \"metric\" must be a string"))?,
                ),
            };
            Ok(Predicate::NonEmpty { metric })
        }
        "two_run_determinism" => {
            obj(v, &what, &["kind"])?;
            Ok(Predicate::TwoRunDeterminism)
        }
        "thread_byte_identity" => {
            let o = obj(v, &what, &["kind", "threads"])?;
            let threads: Vec<usize> = o
                .get("threads")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{what} is missing an array field \"threads\""))?
                .iter()
                .map(|t| {
                    positive_int(t)
                        .ok_or_else(|| format!("{what} threads must be positive integers"))
                })
                .collect::<Result<_, _>>()?;
            if threads.is_empty() {
                return Err(format!("{what}: threads must be non-empty"));
            }
            Ok(Predicate::ThreadByteIdentity { threads })
        }
        "golden_match" => {
            let o = obj(v, &what, &["kind", "golden", "table", "text"])?;
            let golden = str_field(o, &what, "golden")?;
            let table = match o.get("table") {
                None => None,
                Some(t) => Some(
                    t.as_num()
                        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("{what} field \"table\" must be an integer"))?,
                ),
            };
            let text = match o.get("text") {
                None => None,
                Some(t) => Some(
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} field \"text\" must be a string"))?,
                ),
            };
            if table.is_some() == text.is_some() {
                return Err(format!(
                    "{what}: exactly one of \"table\" and \"text\" must be given"
                ));
            }
            Ok(Predicate::GoldenMatch {
                golden,
                table,
                text,
            })
        }
        "golden_hash" => {
            let o = obj(v, &what, &["kind", "golden", "text"])?;
            Ok(Predicate::GoldenHash {
                golden: str_field(o, &what, "golden")?,
                text: str_field(o, &what, "text")?,
            })
        }
        "trace_valid" => {
            let o = obj(v, &what, &["kind", "text", "format"])?;
            let format = match str_field(o, &what, "format")?.as_str() {
                "chrome_trace" => TraceFormat::ChromeTrace,
                "metrics_snapshot" => TraceFormat::MetricsSnapshot,
                other => {
                    return Err(format!(
                        "{what} has unknown format {other:?} \
                         (expected \"chrome_trace\" or \"metrics_snapshot\")"
                    ))
                }
            };
            Ok(Predicate::TraceValid {
                text: str_field(o, &what, "text")?,
                format,
            })
        }
        "count_equality" => {
            let o = obj(v, &what, &["kind", "left", "right"])?;
            Ok(Predicate::CountEquality {
                left: str_field(o, &what, "left")?,
                right: str_field(o, &what, "right")?,
            })
        }
        "wall_time_budget" => {
            let o = obj(v, &what, &["kind", "metric", "budget_seconds"])?;
            let metric = match o.get("metric") {
                None => "wall_seconds".to_string(),
                Some(m) => m
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{what} field \"metric\" must be a string"))?,
            };
            let budget_seconds = num_field(o, &what, "budget_seconds")?;
            if budget_seconds <= 0.0 || budget_seconds.is_nan() {
                return Err(format!("{what}: budget_seconds must be positive"));
            }
            Ok(Predicate::WallTimeBudget {
                metric,
                budget_seconds,
            })
        }
        other => Err(format!("{what} has unknown kind {other:?}")),
    }
}

impl Predicate {
    /// The spec-file kind string (for run output and the catalogue).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Predicate::Tolerance { .. } => "tolerance",
            Predicate::Dominance { .. } => "dominance",
            Predicate::NonEmpty { .. } => "non_empty",
            Predicate::TwoRunDeterminism => "two_run_determinism",
            Predicate::ThreadByteIdentity { .. } => "thread_byte_identity",
            Predicate::GoldenMatch { .. } => "golden_match",
            Predicate::GoldenHash { .. } => "golden_hash",
            Predicate::TraceValid { .. } => "trace_valid",
            Predicate::CountEquality { .. } => "count_equality",
            Predicate::WallTimeBudget { .. } => "wall_time_budget",
        }
    }

    /// The golden file a `golden_match` or `golden_hash` compares against.
    pub(crate) fn golden(&self) -> Option<&str> {
        match self {
            Predicate::GoldenMatch { golden, .. } | Predicate::GoldenHash { golden, .. } => {
                Some(golden)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let spec = parse_spec(
            r#"{
              "name": "demo", "about": "d", "experiment": "serve_routed",
              "gate": "routing",
              "artifacts": [{"kind": "tables", "path": "out/demo.json"},
                            {"kind": "text", "text": "trace", "path": "out/t.json"}],
              "predicates": [
                {"kind": "tolerance", "metric": "err", "max": 0.25},
                {"kind": "dominance", "subject": ["a"], "reference": ["b"],
                 "strict": true, "reference_scale": 1.05},
                {"kind": "non_empty"},
                {"kind": "non_empty", "metric": "pareto_points"},
                {"kind": "two_run_determinism"},
                {"kind": "thread_byte_identity", "threads": [1, 2, 8]},
                {"kind": "golden_match", "golden": "tests/golden/demo.json", "table": 0},
                {"kind": "trace_valid", "text": "trace", "format": "chrome_trace"},
                {"kind": "count_equality", "left": "x", "right": "y"},
                {"kind": "golden_hash", "golden": "tests/golden/t.fnv1a64", "text": "trace"}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.gate.as_deref(), Some("routing"));
        assert_eq!(spec.threads, None);
        assert_eq!(spec.artifacts.len(), 2);
        assert_eq!(spec.predicates.len(), 10);
        assert_eq!(
            spec.predicates[1],
            Predicate::Dominance {
                subject: vec!["a".into()],
                reference: vec!["b".into()],
                strict: true,
                reference_scale: 1.05,
            }
        );
        assert_eq!(
            spec.predicates[5],
            Predicate::ThreadByteIdentity {
                threads: vec![1, 2, 8]
            }
        );
        assert_eq!(
            spec.predicates[9],
            Predicate::GoldenHash {
                golden: "tests/golden/t.fnv1a64".into(),
                text: "trace".into(),
            }
        );
    }

    #[test]
    fn defaults_strict_false_and_scale_one() {
        let spec = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "dominance", "subject": ["a"], "reference": ["b"]}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.predicates[0],
            Predicate::Dominance {
                subject: vec!["a".into()],
                reference: vec!["b".into()],
                strict: false,
                reference_scale: 1.0,
            }
        );
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_spec("{\"name\": ").is_err());
    }

    #[test]
    fn rejects_missing_required_fields() {
        let err = parse_spec(r#"{"name": "d", "about": "d"}"#).unwrap_err();
        assert!(err.contains("experiment"), "{err}");
    }

    #[test]
    fn rejects_unknown_predicate_kind() {
        let err = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "fancier_than_thou"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
    }

    #[test]
    fn rejects_unknown_fields() {
        let err = parse_spec(r#"{"name": "d", "about": "d", "experiment": "e", "surprise": 1}"#)
            .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        let err = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "tolerance", "metric": "m", "max": 1, "mox": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
    }

    #[test]
    fn rejects_a_repeated_predicates_key() {
        // A second "predicates" list must not silently replace the first
        // and drop its gates.
        let err = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "tolerance", "metric": "m", "max": 1}],
                "predicates": []}"#,
        )
        .unwrap_err();
        assert!(err.contains("duplicate key \"predicates\""), "{err}");
    }

    #[test]
    fn rejects_mismatched_dominance_axes() {
        let err = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "dominance", "subject": ["a"], "reference": []}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("same length"), "{err}");
    }

    #[test]
    fn rejects_golden_match_with_both_selectors() {
        let err = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [{"kind": "golden_match", "golden": "g",
                                "table": 0, "text": "trace"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
    }

    #[test]
    fn wall_time_budget_defaults_and_bounds() {
        let spec = parse_spec(
            r#"{"name": "d", "about": "d", "experiment": "e",
                "predicates": [
                  {"kind": "wall_time_budget", "budget_seconds": 60},
                  {"kind": "wall_time_budget", "metric": "fleet_wall",
                   "budget_seconds": 300}
                ]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.predicates[0],
            Predicate::WallTimeBudget {
                metric: "wall_seconds".into(),
                budget_seconds: 60.0,
            }
        );
        assert_eq!(
            spec.predicates[1],
            Predicate::WallTimeBudget {
                metric: "fleet_wall".into(),
                budget_seconds: 300.0,
            }
        );
        for bad in [
            r#"{"kind": "wall_time_budget"}"#,
            r#"{"kind": "wall_time_budget", "budget_seconds": 0}"#,
            r#"{"kind": "wall_time_budget", "budget_seconds": -5}"#,
            r#"{"kind": "wall_time_budget", "budget_seconds": 60, "advisory": "yes"}"#,
            r#"{"kind": "wall_time_budget", "budget_seconds": 60, "advisory": true}"#,
        ] {
            let err = parse_spec(&format!(
                r#"{{"name": "d", "about": "d", "experiment": "e", "predicates": [{bad}]}}"#
            ))
            .unwrap_err();
            assert!(
                err.contains("budget_seconds") || err.contains("advisory"),
                "predicate {bad} gave unrelated error {err}"
            );
        }
    }

    #[test]
    fn parses_a_declared_thread_count() {
        let spec =
            parse_spec(r#"{"name": "d", "about": "d", "experiment": "e", "threads": 1}"#).unwrap();
        assert_eq!(spec.threads, Some(1));
    }

    #[test]
    fn rejects_a_thread_count_that_is_not_a_positive_integer() {
        for threads in ["0", "-1", "1.5", "\"1\"", "[1]", "null"] {
            let err = parse_spec(&format!(
                r#"{{"name": "d", "about": "d", "experiment": "e", "threads": {threads}}}"#
            ))
            .unwrap_err();
            assert!(
                err.contains("\"threads\" must be a positive integer"),
                "threads={threads} gave unrelated error {err}"
            );
        }
    }

    #[test]
    fn rejects_bad_threads() {
        for threads in ["[]", "[0]", "[1.5]"] {
            let err = parse_spec(&format!(
                r#"{{"name": "d", "about": "d", "experiment": "e",
                    "predicates": [{{"kind": "thread_byte_identity", "threads": {threads}}}]}}"#
            ))
            .unwrap_err();
            assert!(
                err.contains("threads"),
                "threads={threads} gave unrelated error {err}"
            );
        }
    }
}
