//! Continuous-batching serving of a mixed prefill/decode request stream on
//! multiple simulated SOFA instances.
//!
//! ```bash
//! cargo run --example serving
//! ```
//!
//! A Poisson-ish trace of attention requests (`sofa-model`) is admitted by
//! the continuous-batching scheduler (`sofa-serve`) onto simulated
//! accelerator instances that share one DRAM channel (`sofa-sim`). The
//! example contrasts one instance against two, and the default admission
//! budget (the token SRAM) against a 1.5x overbooked one.

use sofa_hw::config::HwConfig;
use sofa_model::trace::{RequestTrace, TraceConfig};
use sofa_serve::{ServeConfig, ServeSim};

fn main() {
    // A stream of 48 requests (~70 % decode) at 200 requests per Mcycle.
    let mut tc = TraceConfig::new(48, 200.0, 42);
    tc.seq_len = 1024;
    tc.hidden = 1024;
    tc.heads = 8;
    tc.prefill_queries = 32;
    let trace = RequestTrace::generate(&tc);
    println!(
        "trace: {} requests ({:.0}% decode) over {} kcyc of arrivals\n",
        trace.len(),
        100.0 * trace.decode_fraction(),
        trace.span_cycles() / 1000
    );

    for instances in [1usize, 2] {
        let cfg = ServeConfig::new(HwConfig::paper_default(), instances);
        let report = ServeSim::new(cfg).run(&trace);
        println!("-- {instances} instance(s), sparsity-aware admission --");
        print!("{}", report.summary());
        println!();
    }

    // Admission books each request's top-k footprint; overbooking is a
    // larger budget than the token SRAM, banking on sparsity keeping real
    // occupancy below the booked bytes.
    println!("-- admission budget, 2 instances --");
    for factor in [1.0, 1.5] {
        let mut cfg = ServeConfig::new(HwConfig::paper_default(), 2);
        cfg.admit_buffer_bytes = (cfg.admit_buffer_bytes as f64 * factor) as u64;
        let report = ServeSim::new(cfg).run(&trace);
        println!(
            "{factor:.1}x token SRAM ({} KiB): p95 {} kcyc, mean queueing {:.1} kcyc",
            report.budget_bytes / 1024,
            report.p95() / 1000,
            report.mean_queueing_delay() / 1e3
        );
    }
}
