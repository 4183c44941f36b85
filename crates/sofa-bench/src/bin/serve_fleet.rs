//! Prints the fleet-scale sharded-serving experiment and optionally writes
//! it as a JSON artifact (`--json <path>`).
//!
//! Two modes:
//!
//! * no scale flags — the pinned multi-node scenario behind the
//!   `serve_fleet` golden snapshot and CI regression gate 6;
//! * `--requests N [--nodes N] [--instances-per-node N] [--rate F]
//!   [--disaggregate]` — one run at explicit scale. The CI bench-smoke job
//!   uses this to push a million requests through 64 simulated instances
//!   and byte-compares the artifact across `SOFA_THREADS` settings (the
//!   fleet simulation is bit-identical at any thread count).
//!
//! A malformed, unknown or ignored flag (a scale flag without `--requests`)
//! and a scale that fails validation exit with code 2 and a one-line
//! message, before anything runs.

use sofa_bench::experiments::{serve_fleet_scaled, validate_fleet_scale};
use sofa_bench::report::print_and_write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One run at explicit scale.
struct Scale {
    json: Option<PathBuf>,
    requests: usize,
    rate: f64,
    nodes: usize,
    instances_per_node: usize,
    disaggregate: bool,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// Parses the command line: `None` runs the pinned grid, `Some` one
/// validated run at explicit scale.
fn parse(args: &[String]) -> Result<Option<Scale>, String> {
    let mut requests = None;
    let mut scale = Scale {
        json: None,
        requests: 0,
        rate: 1500.0,
        nodes: 8,
        instances_per_node: 8,
        disaggregate: false,
    };
    let mut scale_flag = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--requests" => requests = Some(number(flag, value()?)?),
            "--nodes" => scale.nodes = number(flag, value()?)?,
            "--instances-per-node" => scale.instances_per_node = number(flag, value()?)?,
            "--rate" => scale.rate = number(flag, value()?)?,
            "--disaggregate" => scale.disaggregate = true,
            "--json" => {
                if scale.json.replace(PathBuf::from(value()?)).is_some() {
                    return Err("--json given twice".to_string());
                }
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        if flag != "--requests" {
            scale_flag = Some(flag);
        }
    }
    let Some(requests) = requests else {
        return match scale_flag {
            Some(flag) => Err(format!("{flag} only applies together with --requests")),
            None => Ok(None),
        };
    };
    scale.requests = requests;
    validate_fleet_scale(
        scale.requests,
        scale.rate,
        scale.nodes,
        scale.instances_per_node,
        scale.disaggregate,
    )?;
    Ok(Some(scale))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Some(s)) => print_and_write(
            &[serve_fleet_scaled(
                s.requests,
                s.rate,
                s.nodes,
                s.instances_per_node,
                s.disaggregate,
            )],
            s.json.as_deref(),
        ),
        // The pinned grid parses its `--json` again in `run_bin`.
        Ok(None) => sofa_bench::registry::run_bin("serve_fleet"),
        Err(e) => {
            eprintln!("serve_fleet: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
