//! The flag contract of the registry binaries (`registry::run_bin`) and of
//! `serve_trace`: an unknown, repeated or valueless flag exits with code 2
//! and one `<bin>: …` line before the experiment runs, printing and writing
//! nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("SOFA_THREADS", "1")
        .output()
        .expect("binary runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

#[test]
fn bad_flags_exit_2_with_one_line_and_write_nothing() {
    let dir = scratch_dir("bin_flags_bad");
    let out_json = dir.join("x.json");
    let out_json = out_json.to_str().unwrap();
    let table3 = env!("CARGO_BIN_EXE_table3_area_power");
    let trace = env!("CARGO_BIN_EXE_serve_trace");
    for (bin, name, args, needle) in [
        (
            table3,
            "table3_area_power",
            &["--jsn", out_json][..],
            "unknown argument \"--jsn\"",
        ),
        (
            table3,
            "table3_area_power",
            &["--json"],
            "--json requires an output path",
        ),
        (
            table3,
            "table3_area_power",
            &["--json", out_json, "--json", out_json],
            "--json given twice",
        ),
        (
            trace,
            "serve_trace",
            &["--bogus"],
            "unknown argument \"--bogus\"",
        ),
        (
            trace,
            "serve_trace",
            &["--metrics"],
            "--metrics requires an output path",
        ),
        (
            trace,
            "serve_trace",
            &["--trace", out_json, "--json", out_json],
            "unknown argument \"--json\"",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("{name}: ")), "{stderr}");
        assert!(stderr.contains(needle), "{name} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name} {args:?} must not run anything"
        );
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{name} {args:?} must not write anything"
        );
    }
}

#[test]
fn json_flag_writes_the_tables() {
    let dir = scratch_dir("bin_flags_json");
    let path = dir.join("nested/table3.json");
    let out = run(
        env!("CARGO_BIN_EXE_table3_area_power"),
        &["--json", path.to_str().unwrap()],
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
