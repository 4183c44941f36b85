//! The flag contract of `sofa-bench serve_fleet`: malformed, unknown and
//! ignored flags and invalid scales exit with code 2 and a one-line message,
//! never a panic and never a silent fall-back to the pinned grid.

use std::process::{Command, Output};

fn serve_fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sofa-bench"))
        .arg("serve_fleet")
        .args(args)
        .env("SOFA_THREADS", "1")
        .output()
        .expect("serve_fleet runs")
}

#[test]
fn bad_flags_exit_2_with_one_line() {
    for (args, needle) in [
        (&["--requests", "abc"][..], "--requests \"abc\""),
        (
            &["--nodes", "0", "--requests", "10"],
            "nodes must be positive",
        ),
        (
            &["--disaggregate", "--nodes", "1", "--requests", "10"],
            "at least two nodes",
        ),
        (
            &["--requests", "10", "--rate", "nan"],
            "arrivals_per_mcycle",
        ),
        (&["--requests", "10", "--rate", "-1"], "arrivals_per_mcycle"),
        (&["--requests", "5", "--rate", "inf"], "arrivals_per_mcycle"),
        (
            &[
                "--requests",
                "10",
                "--nodes",
                "1",
                "--instances-per-node",
                "1",
                "--rate",
                "1e-300",
            ],
            "arrivals_per_mcycle",
        ),
        (&["--requests", "0"], "num_requests"),
        (
            &["--requests", "10", "--instances-per-node", "0"],
            "instances",
        ),
        (
            &["--nodes", "0"],
            "--nodes only applies together with --requests",
        ),
        (
            &["--rate", "nan"],
            "--rate only applies together with --requests",
        ),
        (&["--disaggregate"], "--disaggregate only applies"),
        (&["--requests"], "--requests requires a value"),
        (&["--bogus"], "unknown argument \"--bogus\""),
    ] {
        let out = serve_fleet(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("serve_fleet: "), "{stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn a_repeated_flag_exits_2_with_one_line() {
    // Regression: the last value of a repeated scale flag won and the
    // first was dropped without a word.
    for (args, flag) in [
        (&["--requests", "5", "--requests", "6"][..], "--requests"),
        (
            &["--requests", "5", "--nodes", "2", "--nodes", "3"],
            "--nodes",
        ),
        (
            &[
                "--instances-per-node",
                "1",
                "--requests",
                "5",
                "--instances-per-node",
                "2",
            ],
            "--instances-per-node",
        ),
        (
            &["--rate", "100", "--requests", "5", "--rate", "200"],
            "--rate",
        ),
        (
            &["--disaggregate", "--requests", "5", "--disaggregate"],
            "--disaggregate",
        ),
        (&["--json", "a.json", "--json", "b.json"], "--json"),
    ] {
        let out = serve_fleet(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("serve_fleet: {flag} given twice")
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn a_valid_scale_runs() {
    let out = serve_fleet(&[
        "--requests",
        "8",
        "--nodes",
        "2",
        "--instances-per-node",
        "1",
        "--disaggregate",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("8req 2x1 disagg"));
}
