//! Cross-crate integration tests of the fleet-scale serving stack: request
//! traces (`sofa-model`) sharded across nodes by the fleet router
//! (`sofa-serve::fleet`) onto the hierarchical node/fabric simulation
//! (`sofa-sim::fleet`), with differentials against the single-node
//! scheduler and the per-request descriptors (`sofa-hw`).

use sofa_hw::accel::AttentionTask;
use sofa_hw::config::HwConfig;
use sofa_model::trace::{RequestTrace, TraceConfig};
use sofa_serve::{FleetConfig, FleetServeSim, OpRouter, ServeSim};
use sofa_sim::CycleSim;

fn trace(n: usize, rate: f64, seed: u64) -> RequestTrace {
    let mut tc = TraceConfig::new(n, rate, seed);
    tc.seq_len = 512;
    tc.hidden = 512;
    tc.heads = 4;
    tc.prefill_queries = 16;
    RequestTrace::generate(&tc)
}

fn fleet_config(nodes: usize, instances_per_node: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(HwConfig::paper_default(), nodes, instances_per_node);
    cfg.epoch_cycles = 4096;
    cfg
}

/// At 1 node × 1 instance the fleet path serves exactly what the
/// single-node scheduler serves, with latency percentiles that track it
/// closely (only the epoch quantization of admission and the fabric
/// serialization may differ — both bounded and both pushed toward zero
/// here).
#[test]
fn single_instance_fleet_tracks_the_single_node_scheduler() {
    let trace = trace(48, 120.0, 7);
    let mut cfg = fleet_config(1, 1);
    cfg.fabric.latency_cycles = 0;
    let single = ServeSim::new(cfg.serve.clone()).run(&trace);
    let fleet = FleetServeSim::new(cfg).run(&trace, OpRouter::TraceNative);
    assert_eq!(fleet.served as usize, single.records.len());
    assert_eq!(fleet.shed as usize, single.shed.len());
    let drift = sofa_serve::fleet::p95_drift(&fleet, &single);
    assert!(
        drift < 0.15,
        "fleet p95 {} vs single-node {} (drift {:.1}%)",
        fleet.p95(),
        single.p95(),
        100.0 * drift,
    );
}

/// Fleet-wide DRAM conservation: with trace-native lowering and nothing
/// shed, the summed private-channel traffic across all nodes equals the
/// summed per-request descriptor traffic — placement and epoch scheduling
/// move work between channels but never create or destroy it.
#[test]
fn fleet_dram_traffic_is_conserved_across_nodes() {
    let trace = trace(24, 150.0, 19);
    let cfg = fleet_config(3, 2);
    let serve = cfg.serve.clone();
    let report = FleetServeSim::new(cfg).run(&trace, OpRouter::TraceNative);
    assert_eq!(report.served as usize, trace.len());
    assert_eq!(report.shed, 0);

    let mut csim = CycleSim::new(serve.hw);
    csim.params = serve.sim;
    let want: u64 = trace
        .requests
        .iter()
        .map(|spec| {
            let op = serve.op.with_uniform_keep(spec.keep_ratio);
            let task = AttentionTask::at_layer(
                spec.queries,
                spec.seq_len,
                spec.hidden,
                spec.heads,
                &op,
                0,
            );
            csim.job(&task, None).total_dram_bytes()
        })
        .sum();
    let got: u64 = report.nodes.iter().map(|n| n.dram.total_bytes()).sum();
    assert_eq!(got, want);
    // And the fabric moved every admitted footprint exactly once.
    assert_eq!(report.fabric.total_transfers(), trace.len() as u64);
}

/// Adding nodes to an overloaded fleet strictly improves tail latency and
/// never loses requests.
#[test]
fn fleet_scaling_improves_tail_latency() {
    let trace = trace(96, 400.0, 23);
    let run = |nodes: usize| {
        FleetServeSim::new(fleet_config(nodes, 2)).run(&trace, OpRouter::TraceNative)
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.served as usize, trace.len());
    assert_eq!(four.served as usize, trace.len());
    assert!(
        four.p95() < one.p95(),
        "4 nodes p95 {} should beat 1 node p95 {}",
        four.p95(),
        one.p95(),
    );
    assert!(four.mean_queueing_delay() <= one.mean_queueing_delay());
}

/// The streaming sketch behind `ServeReport` percentiles stays within its
/// 1/128 relative-error bound of the exact order statistics it replaced.
#[test]
fn serve_report_sketch_percentiles_match_exact_order_statistics() {
    let trace = trace(64, 250.0, 29);
    let report =
        ServeSim::new(sofa_serve::ServeConfig::new(HwConfig::paper_default(), 2)).run(&trace);
    let mut exact: Vec<u64> = report
        .records
        .iter()
        .map(|r| r.completed - r.arrival)
        .collect();
    exact.sort_unstable();
    for p in [50.0, 90.0, 95.0, 99.0, 100.0] {
        let rank = ((p / 100.0 * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
        let want = exact[rank - 1];
        let got = report.latency_percentile(p);
        let err = (got as f64 - want as f64).abs() / want as f64;
        assert!(
            err <= 1.0 / 128.0 + 1e-9,
            "p{p}: sketch {got} vs exact {want} (err {err:.4})",
        );
    }
}
