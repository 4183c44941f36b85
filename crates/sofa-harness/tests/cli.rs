//! The flag contract of the `harness` binary: a flag the command does not
//! take, a repeated single-value flag, an unknown flag or `--all` next to
//! `--spec` exits with code 2 and one `harness: …` line before any spec is
//! loaded or run.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_flags_exit_2_with_one_line_and_run_nothing() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("harness_cli");
    let _ = std::fs::remove_dir_all(&dir);
    let json = dir.join("x.json");
    let json = json.to_str().expect("UTF-8 path");
    for (args, needle) in [
        (
            &["check", "--update-golden"][..],
            "harness check does not take \"--update-golden\"",
        ),
        (
            &["check", "--markdown"],
            "harness check does not take \"--markdown\"",
        ),
        (
            &["list", "--json", json],
            "harness list does not take \"--json\"",
        ),
        (&["list", "--all"], "harness list does not take \"--all\""),
        (&["run", "--bogus"], "harness run does not take \"--bogus\""),
        (
            &["run", "--all", "--json", json, "--json", json],
            "--json given twice",
        ),
        (
            &["list", "--specs", "specs", "--specs", "specs"],
            "--specs given twice",
        ),
        (&["run", "--spec"], "--spec requires a value"),
        (
            &["run", "--all", "--spec", "serve_trace"],
            "--all and --spec exclude each other",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .output()
            .expect("harness runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("harness: {needle}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert!(!dir.exists(), "{args:?} must write nothing");
    }
}
