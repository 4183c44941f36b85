//! Evaluation of the gate-predicate algebra against one experiment's
//! output.
//!
//! Every predicate yields a [`Verdict`] that preserves the regression
//! gate's exit-code contract: `Pass` and `GateFail` are the gate verdicts
//! (exit 0 / 1), `ArtifactError` marks infrastructure problems — a metric
//! the experiment never exported, a missing golden snapshot, unparseable
//! trace JSON — that map to exit 2, because a gate cannot be trusted when
//! its inputs never materialised.

use crate::golden::{self, GoldenStatus};
use crate::spec::{Predicate, TraceFormat};
use sofa_bench::ExperimentOutput;
use std::path::Path;

/// The outcome of one predicate evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Predicate held; the string is the evidence line (`ok: …`).
    Pass(String),
    /// Predicate tripped — a genuine regression (exit 1).
    GateFail(String),
    /// The predicate's inputs are missing or unparseable (exit 2).
    ArtifactError(String),
}

/// Everything a predicate may need: the first run's output, a way to
/// re-run the experiment (optionally under a pinned worker-thread count),
/// the root golden paths resolve against, and whether golden mismatches
/// should regenerate instead of failing.
pub struct EvalContext<'a> {
    /// The experiment's (first-run) output.
    pub output: &'a ExperimentOutput,
    /// Re-runs the experiment; `Some(t)` pins `sofa_par` to `t` worker
    /// threads (the in-process analogue of `SOFA_THREADS=t`). Returns
    /// `Err` when the run panicked.
    pub rerun: &'a dyn Fn(Option<usize>) -> Result<ExperimentOutput, String>,
    /// Golden snapshot paths in specs are relative to this directory
    /// (the workspace root).
    pub golden_root: &'a Path,
    /// Rewrite golden snapshots instead of comparing.
    pub update_golden: bool,
}

/// Evaluates one predicate.
pub fn evaluate(pred: &Predicate, ctx: &EvalContext) -> Verdict {
    match pred {
        Predicate::Tolerance { metric, max } => tolerance(ctx.output, metric, *max),
        Predicate::Dominance {
            subject,
            reference,
            strict,
            reference_scale,
        } => dominance(ctx.output, subject, reference, *strict, *reference_scale),
        Predicate::NonEmpty { metric } => non_empty(ctx.output, metric.as_deref()),
        Predicate::TwoRunDeterminism => match (ctx.rerun)(None) {
            Err(e) => Verdict::GateFail(format!("second run panicked: {e}")),
            Ok(second) if &second != ctx.output => {
                Verdict::GateFail("non-deterministic across two runs".to_string())
            }
            Ok(_) => Verdict::Pass("two runs identical".to_string()),
        },
        Predicate::ThreadByteIdentity { threads } => {
            for &t in threads {
                match (ctx.rerun)(Some(t)) {
                    Err(e) => {
                        return Verdict::GateFail(format!("run at {t} threads panicked: {e}"))
                    }
                    Ok(out) if &out != ctx.output => {
                        return Verdict::GateFail(format!(
                            "output at {t} worker threads differs from the base run"
                        ))
                    }
                    Ok(_) => {}
                }
            }
            Verdict::Pass(format!("bit-identical at {threads:?} worker threads"))
        }
        Predicate::GoldenMatch {
            golden,
            table,
            text,
        } => golden_match(ctx, golden, *table, text.as_deref()),
        Predicate::GoldenHash { golden, text } => match ctx.output.texts.get(text) {
            Some(t) => compare_golden(ctx, golden, golden::fnv1a64_line(t)),
            None => Verdict::ArtifactError(format!(
                "golden_hash references text {text:?}, which the experiment did not export"
            )),
        },
        Predicate::TraceValid { text, format } => trace_valid(ctx.output, text, *format),
        Predicate::WallTimeBudget {
            metric,
            budget_seconds,
        } => wall_time_budget(ctx.output, metric, *budget_seconds),
        Predicate::CountEquality { left, right } => {
            let (l, r) = match (ctx.output.scalar(left), ctx.output.scalar(right)) {
                (Some(l), Some(r)) => (l, r),
                _ => {
                    return Verdict::ArtifactError(format!(
                        "count_equality needs scalar metrics {left:?} and {right:?}"
                    ))
                }
            };
            if l == r {
                Verdict::Pass(format!("{left} == {right} ({l})"))
            } else {
                Verdict::GateFail(format!("{left} ({l}) != {right} ({r})"))
            }
        }
    }
}

fn tolerance(out: &ExperimentOutput, metric: &str, max: f64) -> Verdict {
    let Some(values) = out.series(metric) else {
        return Verdict::ArtifactError(format!(
            "tolerance references metric {metric:?}, which the experiment did not export"
        ));
    };
    let mut worst: Option<(usize, f64)> = None;
    let mut over = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v.abs() > max {
            over += 1;
        }
        if worst.map(|(_, w)| v.abs() > w.abs()).unwrap_or(true) {
            worst = Some((i, v));
        }
    }
    if over > 0 {
        let (i, v) = worst.expect("over > 0 implies a worst value");
        Verdict::GateFail(format!(
            "{over} of {} values of {metric} exceed |{max}| (worst {v:+.4} at index {i})",
            values.len()
        ))
    } else {
        Verdict::Pass(match worst {
            Some((_, v)) => format!(
                "all {} values of {metric} within |{max}| (worst {v:+.4})",
                values.len()
            ),
            None => format!("{metric} is empty — nothing exceeds |{max}|"),
        })
    }
}

fn dominance(
    out: &ExperimentOutput,
    subject: &[String],
    reference: &[String],
    strict: bool,
    scale: f64,
) -> Verdict {
    let mut shown = Vec::new();
    for (s, r) in subject.iter().zip(reference.iter()) {
        let (sv, rv) = match (out.scalar(s), out.scalar(r)) {
            (Some(sv), Some(rv)) => (sv, rv),
            _ => {
                return Verdict::ArtifactError(format!(
                    "dominance needs scalar metrics {s:?} and {r:?}"
                ))
            }
        };
        let bound = rv * scale;
        let holds = if strict { sv < bound } else { sv <= bound };
        if !holds {
            return Verdict::GateFail(format!(
                "{s} ({sv}) is not {} {r}{} ({bound})",
                if strict { "<" } else { "<=" },
                if scale == 1.0 {
                    String::new()
                } else {
                    format!(" * {scale}")
                },
            ));
        }
        shown.push(format!("{s} {sv} vs {bound}"));
    }
    Verdict::Pass(format!(
        "{} on every axis ({})",
        if strict {
            "strictly dominates"
        } else {
            "dominates"
        },
        shown.join(", ")
    ))
}

fn non_empty(out: &ExperimentOutput, metric: Option<&str>) -> Verdict {
    match metric {
        Some(name) => match out.metrics.get(name) {
            None => Verdict::ArtifactError(format!(
                "non_empty references metric {name:?}, which the experiment did not export"
            )),
            Some(sofa_bench::MetricValue::Scalar(v)) if *v > 0.0 => {
                Verdict::Pass(format!("{name} = {v}"))
            }
            Some(sofa_bench::MetricValue::Scalar(v)) => {
                Verdict::GateFail(format!("{name} = {v} (must be > 0)"))
            }
            Some(sofa_bench::MetricValue::Series(vs)) if !vs.is_empty() => {
                Verdict::Pass(format!("{name} has {} values", vs.len()))
            }
            Some(sofa_bench::MetricValue::Series(_)) => {
                Verdict::GateFail(format!("{name} is empty"))
            }
        },
        None => {
            if out.tables.is_empty() {
                return Verdict::GateFail("experiment produced no tables".to_string());
            }
            for t in &out.tables {
                if t.rows.is_empty() {
                    return Verdict::GateFail(format!("table {:?} is empty", t.title));
                }
            }
            Verdict::Pass(format!("{} tables, all with rows", out.tables.len()))
        }
    }
}

/// Wall-clock budgets exist to catch order-of-magnitude perf regressions,
/// not to snapshot host-dependent timings — budgets in specs should be a
/// small multiple of the measured value.
fn wall_time_budget(out: &ExperimentOutput, metric: &str, budget: f64) -> Verdict {
    let Some(v) = out.scalar(metric) else {
        return Verdict::ArtifactError(format!(
            "wall_time_budget references scalar metric {metric:?}, \
             which the experiment did not export"
        ));
    };
    if v <= budget {
        Verdict::Pass(format!("{metric} {v:.2}s within {budget}s budget"))
    } else {
        Verdict::GateFail(format!("{metric} {v:.2}s exceeds {budget}s budget"))
    }
}

fn golden_match(
    ctx: &EvalContext,
    golden: &str,
    table: Option<usize>,
    text: Option<&str>,
) -> Verdict {
    let got = match (table, text) {
        (Some(i), None) => match ctx.output.tables.get(i) {
            Some(t) => t.to_json(),
            None => {
                return Verdict::ArtifactError(format!(
                    "golden_match table index {i} out of range ({} tables)",
                    ctx.output.tables.len()
                ))
            }
        },
        (None, Some(name)) => match ctx.output.texts.get(name) {
            Some(t) => t.clone(),
            None => {
                return Verdict::ArtifactError(format!(
                    "golden_match references text {name:?}, which the experiment did not export"
                ))
            }
        },
        _ => unreachable!("the parser enforces exactly one selector"),
    };
    compare_golden(ctx, golden, got)
}

/// Compares `got` against the golden file `golden` (or rewrites it), the
/// shared tail of `golden_match` and `golden_hash`.
fn compare_golden(ctx: &EvalContext, golden: &str, got: String) -> Verdict {
    let path = ctx.golden_root.join(golden);
    let update = ctx.update_golden || golden::update_requested();
    match golden::compare_or_update(&path, &got, update) {
        GoldenStatus::Matches => Verdict::Pass(format!("matches {golden}")),
        GoldenStatus::Updated => Verdict::Pass(format!("updated {golden}")),
        GoldenStatus::Missing(e) => Verdict::ArtifactError(format!(
            "golden snapshot {e}; regenerate with `harness run --update-golden`"
        )),
        GoldenStatus::Differs => Verdict::GateFail(format!(
            "drifted from {golden}; if intentional, regenerate with \
             `harness run --update-golden` and review the diff"
        )),
    }
}

fn trace_valid(out: &ExperimentOutput, text: &str, format: TraceFormat) -> Verdict {
    let Some(body) = out.texts.get(text) else {
        return Verdict::ArtifactError(format!(
            "trace_valid references text {text:?}, which the experiment did not export"
        ));
    };
    match format {
        TraceFormat::ChromeTrace => match sofa_obs::json::parse(body) {
            Err(e) => Verdict::ArtifactError(format!("text {text:?} is not valid JSON: {e}")),
            Ok(_) => match sofa_obs::validate_chrome_trace(body) {
                Ok(stats) => Verdict::Pass(format!(
                    "valid chrome trace ({} events, {} tracks, {} spans, max ts {})",
                    stats.events, stats.tracks, stats.spans, stats.max_ts
                )),
                Err(e) => Verdict::GateFail(format!("text {text:?}: {e}")),
            },
        },
        TraceFormat::MetricsSnapshot => match sofa_obs::json::parse(body.trim_end()) {
            Err(e) => Verdict::ArtifactError(format!("text {text:?} is not valid JSON: {e}")),
            Ok(doc) => {
                let complete = ["counters", "gauges", "histograms"]
                    .iter()
                    .all(|k| doc.get(k).is_some());
                if complete {
                    Verdict::Pass("valid metrics snapshot".to_string())
                } else {
                    Verdict::GateFail(format!(
                        "text {text:?} is missing a counters/gauges/histograms section"
                    ))
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_bench::Table;
    use std::cell::Cell;

    fn out_with(metrics: &[(&str, sofa_bench::MetricValue)]) -> ExperimentOutput {
        let mut out = ExperimentOutput::default();
        for (k, v) in metrics {
            out.metrics.insert(k.to_string(), v.clone());
        }
        out
    }

    fn ctx<'a>(
        output: &'a ExperimentOutput,
        rerun: &'a dyn Fn(Option<usize>) -> Result<ExperimentOutput, String>,
    ) -> EvalContext<'a> {
        EvalContext {
            output,
            rerun,
            golden_root: Path::new("/nonexistent"),
            update_golden: false,
        }
    }

    fn no_rerun(_: Option<usize>) -> Result<ExperimentOutput, String> {
        panic!("predicate should not re-run the experiment")
    }

    fn eval(pred: &Predicate, output: &ExperimentOutput) -> Verdict {
        evaluate(pred, &ctx(output, &no_rerun))
    }

    #[test]
    fn tolerance_boundary_is_inclusive() {
        let pred = Predicate::Tolerance {
            metric: "err".into(),
            max: 0.25,
        };
        // Exactly at the boundary passes (the legacy gate used `<=`)…
        let at = out_with(&[(
            "err",
            sofa_bench::MetricValue::Series(vec![0.25, -0.25, 0.0]),
        )]);
        assert!(matches!(eval(&pred, &at), Verdict::Pass(_)));
        // …the next representable value above fails, on either sign.
        let over = out_with(&[(
            "err",
            sofa_bench::MetricValue::Series(vec![0.25f64.next_up()]),
        )]);
        assert!(matches!(eval(&pred, &over), Verdict::GateFail(_)));
        let under = out_with(&[(
            "err",
            sofa_bench::MetricValue::Series(vec![-(0.25f64.next_up())]),
        )]);
        assert!(matches!(eval(&pred, &under), Verdict::GateFail(_)));
    }

    #[test]
    fn tolerance_missing_metric_is_artifact_error() {
        let pred = Predicate::Tolerance {
            metric: "ghost".into(),
            max: 1.0,
        };
        assert!(matches!(
            eval(&pred, &ExperimentOutput::default()),
            Verdict::ArtifactError(_)
        ));
    }

    #[test]
    fn dominance_strict_vs_relaxed_and_scale() {
        let out = out_with(&[
            ("a", sofa_bench::MetricValue::Scalar(10.0)),
            ("b", sofa_bench::MetricValue::Scalar(10.0)),
            ("c", sofa_bench::MetricValue::Scalar(10.4)),
        ]);
        let strict = |s: &str, r: &str, strict, scale| Predicate::Dominance {
            subject: vec![s.into()],
            reference: vec![r.into()],
            strict,
            reference_scale: scale,
        };
        // a == b: strict fails, relaxed passes.
        assert!(matches!(
            eval(&strict("a", "b", true, 1.0), &out),
            Verdict::GateFail(_)
        ));
        assert!(matches!(
            eval(&strict("a", "b", false, 1.0), &out),
            Verdict::Pass(_)
        ));
        // c <= 1.05 * b: passes with the scale, fails without.
        assert!(matches!(
            eval(&strict("c", "b", false, 1.05), &out),
            Verdict::Pass(_)
        ));
        assert!(matches!(
            eval(&strict("c", "b", false, 1.0), &out),
            Verdict::GateFail(_)
        ));
    }

    #[test]
    fn non_empty_variants() {
        let mut tables = ExperimentOutput::of_tables(vec![Table::new("t", &["a"])]);
        assert!(matches!(
            eval(&Predicate::NonEmpty { metric: None }, &tables),
            Verdict::GateFail(_)
        ));
        tables.tables[0].push(["1"]);
        assert!(matches!(
            eval(&Predicate::NonEmpty { metric: None }, &tables),
            Verdict::Pass(_)
        ));
        let m = out_with(&[
            ("zero", sofa_bench::MetricValue::Scalar(0.0)),
            ("one", sofa_bench::MetricValue::Scalar(1.0)),
            ("empty", sofa_bench::MetricValue::Series(vec![])),
        ]);
        let pred = |name: &str| Predicate::NonEmpty {
            metric: Some(name.into()),
        };
        assert!(matches!(eval(&pred("zero"), &m), Verdict::GateFail(_)));
        assert!(matches!(eval(&pred("one"), &m), Verdict::Pass(_)));
        assert!(matches!(eval(&pred("empty"), &m), Verdict::GateFail(_)));
        assert!(matches!(
            eval(&pred("ghost"), &m),
            Verdict::ArtifactError(_)
        ));
    }

    #[test]
    fn determinism_passes_and_fails_via_rerun() {
        let base = out_with(&[("x", sofa_bench::MetricValue::Scalar(1.0))]);
        let same = base.clone();
        let stable = move |_: Option<usize>| Ok(same.clone());
        assert!(matches!(
            evaluate(&Predicate::TwoRunDeterminism, &ctx(&base, &stable)),
            Verdict::Pass(_)
        ));
        // Each rerun returns a fresh value (2.0, 3.0, …), never matching
        // the base output's 1.0.
        let calls = Cell::new(1.0f64);
        let drifting = move |_: Option<usize>| {
            calls.set(calls.get() + 1.0);
            Ok(out_with(&[(
                "x",
                sofa_bench::MetricValue::Scalar(calls.get()),
            )]))
        };
        assert!(matches!(
            evaluate(&Predicate::TwoRunDeterminism, &ctx(&base, &drifting)),
            Verdict::GateFail(_)
        ));
    }

    #[test]
    fn thread_identity_reports_the_offending_thread_count() {
        let base = out_with(&[("x", sofa_bench::MetricValue::Scalar(1.0))]);
        let thread_sensitive = move |t: Option<usize>| {
            Ok(out_with(&[(
                "x",
                sofa_bench::MetricValue::Scalar(if t == Some(8) { 2.0 } else { 1.0 }),
            )]))
        };
        let pred = Predicate::ThreadByteIdentity {
            threads: vec![1, 2, 8],
        };
        match evaluate(&pred, &ctx(&base, &thread_sensitive)) {
            Verdict::GateFail(msg) => assert!(msg.contains("8 worker threads"), "{msg}"),
            other => panic!("expected GateFail, got {other:?}"),
        }
    }

    #[test]
    fn wall_time_budget_gates_overruns() {
        let out = out_with(&[("wall_seconds", sofa_bench::MetricValue::Scalar(12.5))]);
        let pred = |budget: f64| Predicate::WallTimeBudget {
            metric: "wall_seconds".into(),
            budget_seconds: budget,
        };
        assert!(matches!(eval(&pred(60.0), &out), Verdict::Pass(_)));
        assert!(matches!(eval(&pred(10.0), &out), Verdict::GateFail(_)));
        // A missing or non-scalar metric is an artifact problem.
        assert!(matches!(
            eval(&pred(60.0), &ExperimentOutput::default()),
            Verdict::ArtifactError(_)
        ));
        let series = out_with(&[(
            "wall_seconds",
            sofa_bench::MetricValue::Series(vec![1.0, 2.0]),
        )]);
        assert!(matches!(
            eval(&pred(60.0), &series),
            Verdict::ArtifactError(_)
        ));
    }

    #[test]
    fn count_equality() {
        let out = out_with(&[
            ("l", sofa_bench::MetricValue::Scalar(32.0)),
            ("r", sofa_bench::MetricValue::Scalar(32.0)),
            ("off", sofa_bench::MetricValue::Scalar(31.0)),
        ]);
        let pred = |l: &str, r: &str| Predicate::CountEquality {
            left: l.into(),
            right: r.into(),
        };
        assert!(matches!(eval(&pred("l", "r"), &out), Verdict::Pass(_)));
        assert!(matches!(
            eval(&pred("l", "off"), &out),
            Verdict::GateFail(_)
        ));
        assert!(matches!(
            eval(&pred("l", "ghost"), &out),
            Verdict::ArtifactError(_)
        ));
    }

    #[test]
    fn golden_match_distinguishes_missing_from_drift() {
        let dir = std::env::temp_dir().join("sofa-harness-predicate-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mut table = Table::new("t", &["a"]);
        table.push(["1"]);
        let out = ExperimentOutput::of_tables(vec![table]);
        let rerun = no_rerun;
        let mut c = ctx(&out, &rerun);
        c.golden_root = &dir;
        let pred = Predicate::GoldenMatch {
            golden: "pred_golden.json".into(),
            table: Some(0),
            text: None,
        };
        let _ = std::fs::remove_file(dir.join("pred_golden.json"));
        assert!(matches!(evaluate(&pred, &c), Verdict::ArtifactError(_)));
        c.update_golden = true;
        assert!(matches!(evaluate(&pred, &c), Verdict::Pass(_)));
        c.update_golden = false;
        assert!(matches!(evaluate(&pred, &c), Verdict::Pass(_)));
        std::fs::write(dir.join("pred_golden.json"), "something else").unwrap();
        assert!(matches!(evaluate(&pred, &c), Verdict::GateFail(_)));
        // Out-of-range table index is a spec bug, not a regression.
        let oob = Predicate::GoldenMatch {
            golden: "pred_golden.json".into(),
            table: Some(9),
            text: None,
        };
        assert!(matches!(evaluate(&oob, &c), Verdict::ArtifactError(_)));
    }

    #[test]
    fn golden_hash_pins_a_text_by_its_hash() {
        let dir = std::env::temp_dir().join("sofa-harness-predicate-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = ExperimentOutput::default().with_text("trace", "abc".to_string());
        let rerun = no_rerun;
        let mut c = ctx(&out, &rerun);
        c.golden_root = &dir;
        let pred = |text: &str| Predicate::GoldenHash {
            golden: "pred_golden.fnv1a64".into(),
            text: text.into(),
        };
        let _ = std::fs::remove_file(dir.join("pred_golden.fnv1a64"));
        assert!(matches!(
            evaluate(&pred("trace"), &c),
            Verdict::ArtifactError(_)
        ));
        c.update_golden = true;
        assert!(matches!(evaluate(&pred("trace"), &c), Verdict::Pass(_)));
        let stored = std::fs::read_to_string(dir.join("pred_golden.fnv1a64")).unwrap();
        assert_eq!(stored, "fnv1a64 e71fa2190541574b\n");
        c.update_golden = false;
        assert!(matches!(evaluate(&pred("trace"), &c), Verdict::Pass(_)));
        // One changed byte of the text trips the gate.
        let drifted = ExperimentOutput::default().with_text("trace", "abd".to_string());
        c.output = &drifted;
        assert!(matches!(evaluate(&pred("trace"), &c), Verdict::GateFail(_)));
        // A text the experiment never exported is an artifact problem.
        assert!(matches!(
            evaluate(&pred("ghost"), &c),
            Verdict::ArtifactError(_)
        ));
    }

    #[test]
    fn trace_valid_metrics_snapshot() {
        let pred = Predicate::TraceValid {
            text: "metrics".into(),
            format: TraceFormat::MetricsSnapshot,
        };
        let good = ExperimentOutput::default().with_text(
            "metrics",
            format!("{}\n", sofa_obs::MetricsRegistry::new().to_json()),
        );
        assert!(matches!(eval(&pred, &good), Verdict::Pass(_)));
        let incomplete =
            ExperimentOutput::default().with_text("metrics", "{\"counters\":{}}".to_string());
        assert!(matches!(eval(&pred, &incomplete), Verdict::GateFail(_)));
        let garbage = ExperimentOutput::default().with_text("metrics", "not json".to_string());
        assert!(matches!(eval(&pred, &garbage), Verdict::ArtifactError(_)));
        let missing = ExperimentOutput::default();
        assert!(matches!(eval(&pred, &missing), Verdict::ArtifactError(_)));
    }

    #[test]
    fn trace_valid_chrome_trace() {
        let pred = Predicate::TraceValid {
            text: "trace".into(),
            format: TraceFormat::ChromeTrace,
        };
        let mut obs = sofa_obs::TraceRecorder::enabled();
        obs.complete(0, 0, "demo", 0, 10, &[]);
        let good = ExperimentOutput::default().with_text("trace", obs.to_chrome_json());
        assert!(matches!(eval(&pred, &good), Verdict::Pass(_)));
        let garbage = ExperimentOutput::default().with_text("trace", "][".to_string());
        assert!(matches!(eval(&pred, &garbage), Verdict::ArtifactError(_)));
    }
}
