//! Command line of the repository benchmark:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet_mega|dse_search|serve_overload --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the host descriptor, the simulated-report digest and every metric
//! by name and unit, then, as the last line, the JSON result. A traced run
//! also writes its spans to `benchmark/out/<workload>-seed<N>.trace.json`.

use sofa_benchmark::{run, Options, Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: sofa-benchmark --workload <fleet_mega|dse_search|serve_overload> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);

    println!("host {}", outcome.host.to_json());
    println!(
        "digest {} seed {} {:016x}",
        opts.workload.name(),
        opts.seed,
        outcome.digest
    );
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        println!("failed {f}");
    }
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        ));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, outcome.spans.to_chrome_json(opts.workload.name()))
        });
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
