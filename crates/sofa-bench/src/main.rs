//! `sofa-bench <experiment> [flags]` — runs one experiment of the typed
//! registry (`harness list` names them all), prints its tables, and writes
//! its artifacts.
//!
//! * `sofa-bench <experiment> [--json <path>]` — any registry entry; `--json`
//!   writes the printed tables as one JSON array.
//! * `sofa-bench all` — every `in_all` entry, the independent ones fanned out
//!   across cores (`sofa_par::par_map`, worker count from `SOFA_THREADS`) and
//!   printed in registry order, then the `main_thread` ones (the wall-time
//!   studies) serially: inside a parallel region `sofa-par` degrades to
//!   sequential execution, which would flatten their speedup columns.
//! * `sofa-bench serve_fleet [--json <path>] [--requests N [--nodes N]
//!   [--instances-per-node N] [--rate F] [--disaggregate]]` — without
//!   `--requests`, the pinned grid behind the `serve_fleet` golden; with it,
//!   one run at explicit scale (bit-identical at any `SOFA_THREADS`).
//! * `sofa-bench serve_trace [--trace <path>] [--metrics <path>]` — the
//!   pinned observability scenario: prints the serving summary and writes
//!   the Chrome trace-event JSON (open it in Perfetto,
//!   <https://ui.perfetto.dev>) and the metrics-registry snapshot.
//!
//! A missing or unknown experiment exits 2 with one `sofa-bench: …` line. A
//! malformed, unknown, repeated or ignored flag (a scale flag without
//! `--requests`) and a scale that fails validation exit 2 with one
//! `<experiment>: …` line, before anything runs or is written. An artifact
//! path that cannot be written exits 1 with one `<experiment>: …` line.

use sofa_bench::experiments::{serve_fleet_scaled, validate_fleet_scale};
use sofa_bench::registry;
use sofa_bench::report::{tables_to_json, Table};
use std::path::{Path, PathBuf};

/// Counts heap bytes, so experiments that gate their memory read it.
#[global_allocator]
static ALLOC: sofa_obs::alloc::CountingAlloc = sofa_obs::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = args.split_first() else {
        usage_error(
            "sofa-bench",
            "missing experiment name (`harness list` names them)",
        );
    };
    if name == "all" {
        return run_all(flags);
    }
    let Some(entry) = registry::find(name) else {
        usage_error(
            "sofa-bench",
            &format!("unknown experiment {name:?} (`harness list` names them)"),
        );
    };
    match entry.name {
        "serve_fleet" => {
            let (scale, json) =
                parse_fleet_flags(flags).unwrap_or_else(|e| usage_error(entry.name, &e));
            let tables = match scale {
                Some(s) => vec![serve_fleet_scaled(
                    s.requests,
                    s.rate,
                    s.nodes,
                    s.instances_per_node,
                    s.disaggregate,
                )],
                None => (entry.run)().tables,
            };
            print_and_write(entry.name, &tables, json.as_deref());
        }
        "serve_trace" => {
            let paths = parse_path_flags(flags, ["--trace", "--metrics"])
                .unwrap_or_else(|e| usage_error(entry.name, &e));
            let out = (entry.run)();
            print!("{}", out.texts["summary"]);
            for (path, text) in paths.iter().zip(["trace", "metrics"]) {
                if let Some(path) = path {
                    write_text_artifact(entry.name, path, &out.texts[text]);
                }
            }
        }
        _ => {
            let [json] =
                parse_path_flags(flags, ["--json"]).unwrap_or_else(|e| usage_error(entry.name, &e));
            print_and_write(entry.name, &(entry.run)().tables, json.as_deref());
        }
    }
}

/// The scale of one explicit `serve_fleet` run.
struct Scale {
    requests: usize,
    rate: f64,
    nodes: usize,
    instances_per_node: usize,
    disaggregate: bool,
}

fn run_all(flags: &[String]) {
    if let Some(arg) = flags.first() {
        usage_error("all", &format!("unknown argument {arg:?} (takes no flags)"));
    }
    let (serial, fanout): (Vec<_>, Vec<_>) = registry::registry()
        .into_iter()
        .filter(|e| e.in_all)
        .partition(|e| e.main_thread);
    let outputs = sofa_par::par_map(&fanout, |e| (e.run)());
    let serial = serial.iter().map(|e| (e.run)());
    for out in outputs.into_iter().chain(serial) {
        for table in &out.tables {
            table.print();
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// Parses `serve_fleet`'s flags, each at most once, into the `--json` path
/// and, given `--requests`, one validated explicit scale (`None` runs the
/// pinned grid).
fn parse_fleet_flags(args: &[String]) -> Result<(Option<Scale>, Option<PathBuf>), String> {
    let mut requests = None;
    let mut json = None;
    let mut scale = Scale {
        requests: 0,
        rate: 1500.0,
        nodes: 8,
        instances_per_node: 8,
        disaggregate: false,
    };
    let mut scale_flag = None;
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if seen.contains(&flag.as_str()) {
            return Err(format!("{flag} given twice"));
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--requests" => requests = Some(number(flag, value()?)?),
            "--nodes" => scale.nodes = number(flag, value()?)?,
            "--instances-per-node" => scale.instances_per_node = number(flag, value()?)?,
            "--rate" => scale.rate = number(flag, value()?)?,
            "--disaggregate" => scale.disaggregate = true,
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        seen.push(flag);
        if flag != "--requests" && flag != "--json" {
            scale_flag = Some(flag);
        }
    }
    let Some(requests) = requests else {
        return match scale_flag {
            Some(flag) => Err(format!("{flag} only applies together with --requests")),
            None => Ok((None, json)),
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
    Ok((Some(scale), json))
}

/// Parses a command line that may hold only `--flag <path>` pairs for the
/// flags in `flags`, each at most once. Returns one optional path per flag,
/// in `flags`' order.
fn parse_path_flags<const N: usize>(
    args: &[String],
    flags: [&str; N],
) -> Result<[Option<PathBuf>; N], String> {
    let mut paths = std::array::from_fn(|_| None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(slot) = flags.iter().position(|f| f == arg) else {
            return Err(format!(
                "unknown argument {arg:?} (expected {})",
                flags.join(" / ")
            ));
        };
        let path = it
            .next()
            .ok_or_else(|| format!("{arg} requires an output path"))?;
        if paths[slot].replace(path.into()).is_some() {
            return Err(format!("{arg} given twice"));
        }
    }
    Ok(paths)
}

/// Reports a bad command line as one `<prefix>: <message>` line on stderr
/// and exits with code 2, the usage-error code of the harness exit contract.
fn usage_error(prefix: &str, message: &str) -> ! {
    eprintln!("{prefix}: {message}");
    std::process::exit(2)
}

/// Writes `text` to `path`, creating parent directories, and echoes the
/// path on stderr. A path that cannot be written (its parent is a regular
/// file, a directory is read-only, …) is reported as one `<prefix>: …` line
/// on stderr and exits with code 1.
fn write_text_artifact(prefix: &str, path: &Path, text: &str) {
    let written = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("{prefix}: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Prints `tables` to stdout (blank-line separated) and, given a `--json`
/// path, also writes them there as one JSON array ([`tables_to_json`]).
fn print_and_write(prefix: &str, tables: &[Table], json: Option<&Path>) {
    for t in tables {
        t.print();
        println!();
    }
    if let Some(path) = json {
        write_text_artifact(prefix, path, &tables_to_json(tables));
    }
}
