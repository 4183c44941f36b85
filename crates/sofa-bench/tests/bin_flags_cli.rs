//! The command-line contract of `sofa-bench <experiment>`: a missing or
//! unknown experiment exits with code 2 and one `sofa-bench: …` line; an
//! unknown, repeated or valueless flag exits with code 2 and one
//! `<experiment>: …` line. Either way nothing runs, prints or is written.
//! An artifact path that cannot be written exits with code 1 and one
//! `<experiment>: …` line instead of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn sofa_bench(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofa-bench"))
        .args(args)
        .current_dir(cwd)
        .env("SOFA_THREADS", "1")
        .output()
        .expect("sofa-bench runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

/// Runs `args` in the empty `dir` and asserts the usage-error contract:
/// exit 2, one stderr line starting `prefix: ` and containing `needle`,
/// empty stdout, and `dir` still empty.
fn assert_usage_error(dir: &Path, args: &[&str], prefix: &str, needle: &str) {
    let out = sofa_bench(args, dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("{prefix}: ")), "{stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    assert!(
        std::fs::read_dir(dir).unwrap().next().is_none(),
        "{args:?} must not write anything"
    );
}

#[test]
fn bad_flags_exit_2_with_one_line_and_write_nothing() {
    let dir = scratch_dir("bin_flags_bad");
    let out_json = dir.join("x.json");
    let out_json = out_json.to_str().unwrap();
    for (args, needle) in [
        (
            &["table3_area_power", "--jsn", out_json][..],
            "unknown argument \"--jsn\"",
        ),
        (
            &["table3_area_power", "--json"],
            "--json requires an output path",
        ),
        (
            &["table3_area_power", "--json", out_json, "--json", out_json],
            "--json given twice",
        ),
        (&["serve_trace", "--bogus"], "unknown argument \"--bogus\""),
        (
            &["serve_trace", "--metrics"],
            "--metrics requires an output path",
        ),
        (
            &["serve_trace", "--trace", out_json, "--json", out_json],
            "unknown argument \"--json\"",
        ),
    ] {
        assert_usage_error(&dir, args, args[0], needle);
    }
}

#[test]
fn every_experiment_rejects_a_bogus_flag_before_running() {
    let dir = scratch_dir("bin_flags_every");
    for e in sofa_bench::registry::registry() {
        assert_usage_error(
            &dir,
            &[e.name, "--bogus"],
            e.name,
            "unknown argument \"--bogus\"",
        );
    }
}

#[test]
fn missing_or_unknown_experiment_and_flags_on_all_exit_2() {
    let dir = scratch_dir("bin_flags_names");
    assert_usage_error(&dir, &[], "sofa-bench", "harness list");
    assert_usage_error(&dir, &["fig99_nothing"], "sofa-bench", "harness list");
    assert_usage_error(
        &dir,
        &["all", "--json", "x"],
        "all",
        "unknown argument \"--json\"",
    );
}

#[test]
fn json_flag_writes_the_tables() {
    let dir = scratch_dir("bin_flags_json");
    let path = dir.join("nested/table3.json");
    let out = sofa_bench(
        &["table3_area_power", "--json", path.to_str().unwrap()],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "the table is printed");
    let json = std::fs::read_to_string(&path).expect("artifact written");
    assert!(json.starts_with("[{\"title\":"), "{json}");
}

#[test]
fn unwritable_artifact_paths_exit_1_with_one_line() {
    let dir = scratch_dir("bin_flags_unwritable");
    let file = dir.join("file");
    std::fs::write(&file, "a regular file").expect("create the blocking file");
    let under_file = file.join("out.json");
    let under_file = under_file.to_str().unwrap();
    for args in [
        &["table3_area_power", "--json", under_file][..],
        &["serve_trace", "--trace", under_file],
    ] {
        let out = sofa_bench(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{}: cannot write {under_file}: ", args[0])),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
