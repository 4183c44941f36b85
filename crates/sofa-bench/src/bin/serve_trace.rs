//! Runs the pinned observability serving scenario (Pareto-routed requests
//! under a ¾-of-default energy budget, traced end to end in simulated
//! cycles) and writes its artifacts: `--trace <path>` the Chrome
//! trace-event JSON — open it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` — and `--metrics <path>` the metrics-registry
//! snapshot. Prints the serving summary. The output is byte-identical at
//! any `SOFA_THREADS`; CI's bench-smoke step uploads the trace and the
//! `trace` gate spec validates it. An unknown, repeated or valueless flag
//! exits with code 2 and a one-line message, before anything runs.

use sofa_bench::report::{parse_path_flags, usage_error, write_text_artifact};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths = parse_path_flags(&args, ["--trace", "--metrics"])
        .unwrap_or_else(|e| usage_error("serve_trace", &e));
    let entry = sofa_bench::registry::find("serve_trace").expect("serve_trace is registered");
    let out = (entry.run)();
    print!("{}", out.texts["summary"]);
    for (path, text) in paths.iter().zip(["trace", "metrics"]) {
        if let Some(path) = path {
            write_text_artifact(path, &out.texts[text]);
        }
    }
}
