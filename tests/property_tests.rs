//! Property-based tests (proptest) on the core data structures and invariants
//! of the SOFA reproduction.

use proptest::prelude::*;
use sofa_core::lze::{approx_mul_dlzs, approx_mul_vanilla, encode};
use sofa_core::ops::OpCounts;
use sofa_core::sads::{sads_topk_row, SadsConfig};
use sofa_core::sufa::{sorted_updating_attention, SuFaOrder};
use sofa_core::topk::{topk_exact, topk_row_exact, TopKMask};
use sofa_tensor::attention::{attention_scores, masked_attention};
use sofa_tensor::softmax::softmax_row;
use sofa_tensor::stats::{max_abs_diff, recall};
use sofa_tensor::Matrix;

fn finite_row(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-50.0f32..50.0, 1..max_len)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("length matches"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- softmax / numeric substrate ----------------

    #[test]
    fn softmax_is_a_probability_distribution(row in finite_row(64)) {
        let p = softmax_row(&row);
        prop_assert_eq!(p.len(), row.len());
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn softmax_is_shift_invariant(row in finite_row(32), shift in -100.0f32..100.0) {
        let a = softmax_row(&row);
        let shifted: Vec<f32> = row.iter().map(|x| x + shift).collect();
        let b = softmax_row(&shifted);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_transposed_is_consistent_with_transpose(
        a in small_matrix(4, 6),
        b in small_matrix(5, 6),
    ) {
        let direct = a.matmul_transposed(&b).unwrap();
        let via = a.matmul(&b.transpose()).unwrap();
        prop_assert!(max_abs_diff(&direct, &via) < 1e-4);
    }

    // ---------------- leading-zero encoding ----------------

    #[test]
    fn dlzs_magnitude_is_within_factor_two(x in -127i32..=127, y in -127i32..=127) {
        prop_assume!(x != 0 && y != 0);
        let exact = (x as i64 * y as i64).abs();
        let approx = approx_mul_dlzs(x, encode(y, 8)).abs();
        prop_assert!(approx <= exact);
        prop_assert!(2 * approx >= exact);
    }

    #[test]
    fn dlzs_is_at_least_as_accurate_as_vanilla(x in -127i32..=127, y in -127i32..=127) {
        let exact = x as i64 * y as i64;
        let d = (exact - approx_mul_dlzs(x, encode(y, 8))).abs();
        let v = (exact - approx_mul_vanilla(encode(x, 8), encode(y, 8))).abs();
        prop_assert!(d <= v);
    }

    #[test]
    fn lz_sign_follows_operand_signs(x in -127i32..=127, y in -127i32..=127) {
        let got = approx_mul_dlzs(x, encode(y, 8));
        let exact = x as i64 * y as i64;
        prop_assert!(got.signum() == exact.signum() || got == 0 || exact == 0);
    }

    // ---------------- top-k and SADS ----------------

    #[test]
    fn exact_topk_returns_true_maxima(row in finite_row(128), k in 1usize..16) {
        let mut ops = OpCounts::new();
        let top = topk_row_exact(&row, k, &mut ops);
        prop_assert_eq!(top.len(), k.min(row.len()));
        // Every returned value must be >= every excluded value.
        let selected: std::collections::HashSet<usize> = top.iter().copied().collect();
        let min_sel = top.iter().map(|&i| row[i]).fold(f32::INFINITY, f32::min);
        for (i, &v) in row.iter().enumerate() {
            if !selected.contains(&i) {
                prop_assert!(v <= min_sel + 1e-6);
            }
        }
    }

    #[test]
    fn sads_selection_is_valid_and_sized(row in finite_row(256), k in 1usize..32, segs in 1usize..8) {
        let cfg = SadsConfig::new(segs, 0.5, 2).unwrap();
        let mut ops = OpCounts::new();
        let got = sads_topk_row(&row, k, &cfg, &mut ops);
        prop_assert_eq!(got.len(), k.min(row.len()));
        // No duplicates, all in range, sorted descending by value.
        let set: std::collections::HashSet<usize> = got.iter().copied().collect();
        prop_assert_eq!(set.len(), got.len());
        prop_assert!(got.iter().all(|&i| i < row.len()));
        for w in got.windows(2) {
            prop_assert!(row[w[0]] >= row[w[1]]);
        }
        // The global argmax is always captured.
        let argmax = (0..row.len()).max_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap()).unwrap();
        prop_assert!(set.contains(&argmax) || row.iter().filter(|&&v| v == row[argmax]).count() > 1);
    }

    #[test]
    fn sads_recall_of_exact_topk_is_never_terrible(seed in 0u64..500) {
        use sofa_model::{ScoreDistribution, ScoreWorkload};
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 2, 128, seed);
        let k = 32;
        let (mask, _) = sofa_core::sads::sads_topk(&w.scores, k, &SadsConfig::paper_default());
        let mut ops = OpCounts::new();
        let exact = topk_exact(&w.scores, k, &mut ops);
        for i in 0..2 {
            prop_assert!(recall(mask.row(i), exact.row(i)) >= 0.5);
        }
    }

    // ---------------- SU-FA exactness ----------------

    #[test]
    fn sufa_matches_masked_attention_for_random_masks(
        q in small_matrix(3, 8),
        k in small_matrix(24, 8),
        v in small_matrix(24, 8),
        keep in 1usize..24,
    ) {
        let scores = attention_scores(&q, &k);
        let mut ops = OpCounts::new();
        let mask = topk_exact(&scores, keep, &mut ops);
        let want = masked_attention(&q, &k, &v, &mask.to_bool_rows());
        for order in [SuFaOrder::Descending, SuFaOrder::Ascending] {
            let mut ops = OpCounts::new();
            let (got, _) = sorted_updating_attention(&q, &k, &v, &mask, order, &mut ops);
            prop_assert!(max_abs_diff(&got, &want) < 1e-3);
        }
    }

    #[test]
    fn sufa_descending_never_uses_more_exp_than_ascending(
        q in small_matrix(2, 8),
        k in small_matrix(16, 8),
        v in small_matrix(16, 8),
    ) {
        let scores = attention_scores(&q, &k);
        let mut ops = OpCounts::new();
        let mask = topk_exact(&scores, 8, &mut ops);
        let mut d = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Descending, &mut d);
        let mut a = OpCounts::new();
        let _ = sorted_updating_attention(&q, &k, &v, &mask, SuFaOrder::Ascending, &mut a);
        prop_assert!(d.exp <= a.exp);
    }

    // ---------------- mask invariants ----------------

    #[test]
    fn mask_union_contains_every_row_index(rows in prop::collection::vec(
        prop::collection::vec(0usize..64, 0..16), 1..8)
    ) {
        let mask = TopKMask::new(64, rows.clone());
        let union: std::collections::HashSet<usize> = mask.union_of_keys().into_iter().collect();
        for r in &rows {
            for &i in r {
                prop_assert!(union.contains(&i));
            }
        }
        prop_assert!(mask.keep_ratio() <= 1.0 + 1e-9);
    }

    // ---------------- parallel-engine differentials ----------------

    #[test]
    fn parallel_run_batch_is_bit_identical_to_sequential_runs(
        num_workloads in 1usize..6,
        seed in 0u64..500,
        keep in 1usize..4,
    ) {
        use sofa_core::pipeline::{PipelineConfig, SofaPipeline};
        use sofa_model::{AttentionWorkload, ScoreDistribution};

        let dists = [
            ScoreDistribution::bert_like(),
            ScoreDistribution::gpt_like(),
            ScoreDistribution::llama_like(),
        ];
        let workloads: Vec<AttentionWorkload> = (0..num_workloads)
            .map(|i| {
                let s = 64 + 32 * (i % 3);
                AttentionWorkload::generate(
                    &dists[i % dists.len()], 4 + i, s, 32, 16, seed + i as u64,
                )
            })
            .collect();
        let pipeline =
            SofaPipeline::new(PipelineConfig::new(keep as f64 * 0.2, 16).unwrap());
        let op = sofa_model::OperatingPoint::single(keep as f64 * 0.2, 16);
        let solo: Vec<_> = workloads.iter().map(|w| pipeline.run(w)).collect();
        for threads in [1usize, 2, 8] {
            let batch =
                sofa_par::with_threads(threads, || pipeline.run_batch(&op, &workloads));
            prop_assert_eq!(batch.len(), solo.len());
            for (b, s) in batch.iter().zip(solo.iter()) {
                // Bit-for-bit: outputs, masks and every per-stage counter.
                prop_assert_eq!(&b.output, &s.output, "threads={}", threads);
                prop_assert_eq!(&b.mask, &s.mask, "threads={}", threads);
                prop_assert_eq!(b.prediction, s.prediction, "threads={}", threads);
                prop_assert_eq!(b.sorting_ops, s.sorting_ops, "threads={}", threads);
                prop_assert_eq!(
                    b.kv_generation_ops, s.kv_generation_ops, "threads={}", threads
                );
                prop_assert_eq!(b.formal_ops, s.formal_ops, "threads={}", threads);
                prop_assert_eq!(b.keys_generated, s.keys_generated, "threads={}", threads);
            }
        }
    }

    #[test]
    fn multi_sim_with_one_instance_reproduces_cyclesim_cycle_for_cycle(
        queries in 1usize..24,
        seq_tiles in 1usize..12,
        keep_pct in 5u32..100,
        tile_pow in 4u32..7,
    ) {
        use sofa_hw::accel::AttentionTask;
        use sofa_hw::config::HwConfig;
        use sofa_sim::{CycleSim, MultiPipelineSim, SimParams};

        let bc = 1usize << tile_pow;
        let task = AttentionTask::new(
            queries,
            seq_tiles * bc,
            128,
            2,
            keep_pct as f64 / 100.0,
            bc,
        );
        let sim = CycleSim::new(HwConfig::small());
        let single = sim.run(&task);
        let mut multi = MultiPipelineSim::new(sim.accel.config(), 1, sim.params);
        multi.submit(0, 0, &sim.job(&task, None), 0);
        let done = multi.run_to_idle();
        let report = multi.report();
        // Cycle-for-cycle equivalence: same end-to-end cycles, same per-stage
        // busy/stall accounting, same DRAM traffic and channel occupancy.
        prop_assert_eq!(report.total_cycles, single.total_cycles);
        prop_assert_eq!(report.instances[0].stages, single.stages);
        prop_assert_eq!(report.dram.bytes_read, single.dram.bytes_read);
        prop_assert_eq!(report.dram.bytes_written, single.dram.bytes_written);
        prop_assert_eq!(report.dram.busy_cycles, single.dram.busy_cycles);
        // The wrapper's report mapping: tiles and mean bank occupancy.
        let inst = &report.instances[0];
        prop_assert_eq!(inst.tiles, single.num_tiles);
        for (b, &occupancy) in single.buffers.iter().zip(inst.buffer_occupancy.iter()) {
            prop_assert_eq!(b.average_occupancy, occupancy);
            prop_assert_eq!(b.capacity, SimParams::BUFFER_DEPTH);
        }
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(done[0].1.request, 0);
    }

    #[test]
    fn cyclesim_timeline_covers_every_stage_tile_in_dataflow_order(
        queries in 1usize..24,
        seq_tiles in 1usize..12,
        keep_pct in 5u32..100,
        tile_pow in 4u32..7,
    ) {
        use sofa_hw::accel::AttentionTask;
        use sofa_hw::config::HwConfig;
        use sofa_sim::CycleSim;

        let bc = 1usize << tile_pow;
        let task = AttentionTask::new(
            queries,
            seq_tiles * bc,
            128,
            2,
            keep_pct as f64 / 100.0,
            bc,
        );
        let r = CycleSim::new(HwConfig::small()).run(&task);
        prop_assert_eq!(r.num_tiles, seq_tiles);
        // Exactly one entry per (stage, tile).
        let mut at = vec![[None; 4]; r.num_tiles];
        for e in &r.timeline {
            prop_assert!(e.end >= e.start && e.end <= r.total_cycles);
            prop_assert!(at[e.tile][e.stage].replace(*e).is_none(), "duplicate {:?}", e);
        }
        prop_assert_eq!(r.timeline.len(), 4 * r.num_tiles);
        let entry = |stage: usize, tile: usize| at[tile][stage].expect("every entry present");
        for tile in 0..r.num_tiles {
            for stage in 0..4 {
                // Dataflow: a tile enters a stage after leaving the previous
                // one, and each stage processes tiles in order.
                if stage > 0 {
                    prop_assert!(entry(stage, tile).start >= entry(stage - 1, tile).end);
                }
                if tile > 0 {
                    prop_assert!(entry(stage, tile).start >= entry(stage, tile - 1).end);
                }
            }
        }
        for (stage, act) in r.stages.iter().enumerate() {
            let busy: u64 = r.timeline.iter().filter(|e| e.stage == stage).map(|e| e.end - e.start).sum();
            prop_assert_eq!(busy, act.busy);
            prop_assert!(act.busy + act.total_stall() <= r.total_cycles);
        }
    }

    // ---------------- serving invariants ----------------

    #[test]
    fn serving_conserves_dram_traffic_and_respects_the_buffer_budget(
        num_requests in 4usize..20,
        rate in 20.0f64..400.0,
        instances in 1usize..4,
        seed in 0u64..1_000,
    ) {
        use sofa_hw::accel::AttentionTask;
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};
        use sofa_sim::CycleSim;

        let mut tc = TraceConfig::new(num_requests, rate, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = ServeConfig::new(HwConfig::small(), instances);
        cfg.op = sofa_model::OperatingPoint::single(0.25, 32);
        let report = ServeSim::new(cfg.clone()).run(&trace);

        // Conservation: shared-channel traffic equals the summed per-request
        // descriptor traffic, independent of arbitration and placement.
        let mut csim = CycleSim::new(cfg.hw);
        csim.params = cfg.sim;
        let want: u64 = trace.requests.iter().map(|spec| {
            let op = cfg.op.with_uniform_keep(spec.keep_ratio);
            let task = AttentionTask::at_layer(
                spec.queries, spec.seq_len, spec.hidden, spec.heads, &op, 0,
            );
            csim.job(&task, None).total_dram_bytes()
        }).sum();
        prop_assert_eq!(report.multi.dram.total_bytes(), want);

        // Capacity: booked footprints never exceed the budget while more
        // than one request shares an instance (an idle instance may accept
        // one oversized request so service can always progress).
        let largest = report.records.iter().map(|r| r.footprint_bytes).max().unwrap();
        for &peak in &report.peak_inflight_bytes {
            prop_assert!(peak <= report.budget_bytes.max(largest));
        }

        // Liveness + causality: every request completes after admission.
        prop_assert_eq!(report.records.len(), num_requests);
        for r in &report.records {
            prop_assert!(r.admitted >= r.arrival && r.completed > r.admitted);
        }
    }
}

// The hardware-aware DSE lowers every candidate through the full pipeline +
// cycle simulator, so each case is comparatively expensive — a smaller case
// budget than the block above still sweeps distinct workloads and candidate
// sets.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // ---------------- hardware-aware DSE (sofa-dse) ----------------

    #[test]
    fn parallel_dse_evaluation_matches_sequential_bit_for_bit(seed in 0u64..100) {
        use sofa_dse::{EvalConfig, HwAwareEvaluator};
        use sofa_tensor::seeded_rng;

        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let space = evaluator.space();
        let mut rng = seeded_rng(seed ^ 0xD5E);
        let candidates: Vec<_> = (0..5).map(|_| space.sample(&mut rng)).collect();

        // Sequential reference: one candidate at a time, single-threaded.
        let reference: Vec<_> = sofa_par::with_threads(1, || {
            candidates.iter().map(|c| evaluator.evaluate(c)).collect()
        });
        for threads in [1usize, 2, 8] {
            let batch = sofa_par::with_threads(threads, || {
                evaluator.evaluate_batch(&candidates)
            });
            prop_assert_eq!(&batch, &reference, "threads={}", threads);
            // One session scoring every candidate (its stage-1 predictions
            // shared), one at a time and as a batch.
            let (one_by_one, batch) = sofa_par::with_threads(threads, || {
                let session = evaluator.session();
                let one_by_one: Vec<_> = candidates.iter().map(|c| session.evaluate(c)).collect();
                (one_by_one, session.evaluate_batch(&candidates))
            });
            prop_assert_eq!(&one_by_one, &reference, "session, threads={}", threads);
            prop_assert_eq!(&batch, &reference, "session batch, threads={}", threads);
        }
    }

    // ---------------- fleet serving (sofa-serve::fleet) ----------------

    #[test]
    fn fleet_serving_is_bit_identical_across_thread_counts(
        seed in 0u64..100,
        nodes in 1usize..4,
        disaggregate in prop::bool::ANY,
    ) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_model::OperatingPoint;
        use sofa_serve::{AdaptiveServeConfig, FleetConfig, FleetServeSim, OpRouter};

        // Request lowering fans out over workers (nodes step serially
        // between synchronization epochs), so the whole fleet report —
        // sketches, fabric stats, per-node cycle reports — must be a pure
        // function of (config, trace) at any SOFA_THREADS. The controller
        // arm adds decay, feedback routing, retries and an energy budget of
        // ¾ of the paper default's J/req: every decision stays serial.
        let nodes = if disaggregate { nodes.max(2) } else { nodes };
        let mut tc = TraceConfig::new(16, 120.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = FleetConfig::new(HwConfig::small(), nodes, 2);
        cfg.epoch_cycles = 4096;
        cfg.disaggregate = disaggregate;
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
        let controller = AdaptiveServeConfig::targeting(150_000);
        let default_op = OperatingPoint::paper_default(dse.pareto.layers());
        let paper_default =
            FleetServeSim::new(cfg.clone()).run(&trace, OpRouter::Fixed(&default_op));
        prop_assert_eq!(paper_default.served, 16, "no budget sheds nothing");
        let mut adaptive = cfg.clone();
        let budget = 0.75 * paper_default.energy_pj_per_request();
        adaptive.serve.energy_budget_pj_per_req = Some(budget);
        adaptive.serve.decay_threshold = Some(controller.decay_threshold);
        adaptive.serve.retry = Some(controller.retry);
        let feedback = OpRouter::Feedback(&dse.pareto, &controller.feedback);

        for (cfg, router) in [(cfg, OpRouter::TraceNative), (adaptive, feedback)] {
            let reference =
                sofa_par::with_threads(1, || FleetServeSim::new(cfg.clone()).run(&trace, router));
            for threads in [1usize, 2, 8] {
                let got = sofa_par::with_threads(threads, || {
                    FleetServeSim::new(cfg.clone()).run(&trace, router)
                });
                prop_assert_eq!(&got, &reference, "threads={}", threads);
            }
        }
    }

    // ---------------- routed serving (sofa-serve × sofa-dse) ----------------

    #[test]
    fn routed_serving_is_bit_identical_across_thread_counts(seed in 0u64..50) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};

        // The whole chain — DSE search, Pareto-front routing, per-request
        // lowering, serving simulation — must be a pure function of its
        // inputs at any SOFA_THREADS.
        let mut tc = TraceConfig::new(8, 80.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));

        let reference = sofa_par::with_threads(1, || {
            let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
            let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
            sim.run_routed(&trace, &dse)
        });
        for threads in [1usize, 2, 8] {
            let routed = sofa_par::with_threads(threads, || {
                let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
                let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
                sim.run_routed(&trace, &dse)
            });
            prop_assert_eq!(&routed, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn adaptive_serving_is_bit_identical_across_thread_counts(seed in 0u64..30) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{AdaptiveServeConfig, ServeConfig, ServeSim};

        // Every closed-loop decision — decay of over-waited requests,
        // measured-state feedback routing, shed/retry re-arrivals,
        // energy-budgeted placement — happens in the serial event loop, so
        // both arms of the adaptive study must be a pure function of
        // (config, trace, controller) at any SOFA_THREADS.
        let mut tc = TraceConfig::new(8, 150.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut cfg = ServeConfig::new(HwConfig::small(), 2);
        cfg.admit_buffer_bytes = 16 * 1024;
        let sim = ServeSim::new(cfg);
        let controller = AdaptiveServeConfig::targeting(150_000);

        let reference = sofa_par::with_threads(1, || {
            let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
            let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
            sim.run_adaptive_study(&trace, &dse, &controller)
        });
        for threads in [1usize, 2, 8] {
            let study = sofa_par::with_threads(threads, || {
                let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
                let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
                sim.run_adaptive_study(&trace, &dse, &controller)
            });
            prop_assert_eq!(&study, &reference, "threads={}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // -------- memoised lowering and evaluation equal fresh ones --------
    //
    // Serving shares one lowering per (request shape, operating point) key,
    // the DSE search recalls repeated candidates and a DSE session scores
    // each (layer, keep, Bc) point once, from a memo. Each
    // shared or memoised value must be exactly what computing it afresh
    // gives, at any SOFA_THREADS. The admission core's unit tests compare
    // the lowering functions themselves; these compare whole runs.

    #[test]
    fn routed_serving_is_unchanged_by_the_lowering_cache(seed in 0u64..20) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{ServeConfig, ServeSim};

        // A request served alone is lowered alone: its record's footprint
        // and energy bits, its re-route and its DRAM bytes must equal those
        // it gets sharing the run's lowering pass.
        let mut tc = TraceConfig::new(8, 80.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let dse = hardware_aware_search(&evaluator, &DseSearchConfig::smoke(seed));
        let sim = ServeSim::new(ServeConfig::new(HwConfig::small(), 2));
        let alone: Vec<_> = trace
            .requests
            .iter()
            .map(|spec| {
                let one = RequestTrace { config: trace.config.clone(), requests: vec![*spec] };
                sofa_par::with_threads(1, || sim.run_routed(&one, &dse))
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let shared = sofa_par::with_threads(threads, || sim.run_routed(&trace, &dse));
            prop_assert_eq!(shared.records.len(), trace.len());
            for (r, one) in shared.records.iter().zip(&alone) {
                let a = &one.records[0];
                prop_assert_eq!(r.footprint_bytes, a.footprint_bytes, "threads={}", threads);
                prop_assert_eq!(r.energy_pj.to_bits(), a.energy_pj.to_bits());
                prop_assert_eq!(r.rerouted, a.rerouted);
            }
            let dram: u64 = alone.iter().map(|one| one.multi.dram.total_bytes()).sum();
            prop_assert_eq!(shared.multi.dram.total_bytes(), dram, "threads={}", threads);
        }
    }

    #[test]
    fn fleet_serving_is_unchanged_by_the_lowering_cache(
        seed in 0u64..20,
        nodes in 1usize..4,
    ) {
        use sofa_hw::config::HwConfig;
        use sofa_model::trace::{RequestTrace, TraceConfig};
        use sofa_serve::{FleetConfig, FleetServeSim, OpRouter, RetryPolicy, ServeSim};

        // The fleet's shared lowerings against each request served alone
        // on one node: the same requests are served, shed, retried and
        // re-routed, and the fleet's DRAM moves exactly their bytes.
        let mut tc = TraceConfig::new(16, 120.0, seed);
        tc.seq_len = 256;
        tc.hidden = 256;
        tc.heads = 4;
        tc.prefill_queries = 8;
        let trace = RequestTrace::generate(&tc);
        let mut plain = FleetConfig::new(HwConfig::small(), nodes, 2);
        plain.epoch_cycles = 4096;
        // The budget-and-retry variant: the budget sheds prefills on first
        // submission, so the retry path re-lowers through the cache.
        let mut retrying = plain.clone();
        retrying.serve.energy_budget_pj_per_req = Some(4.0e6);
        retrying.serve.retry = Some(RetryPolicy {
            backoff_cycles: 20_000,
            max_retries: 2,
            keep_factor: 0.5,
        });

        for cfg in [plain, retrying] {
            let single = ServeSim::new(cfg.serve.clone());
            let alone: Vec<_> = trace
                .requests
                .iter()
                .map(|spec| {
                    let one = RequestTrace { config: trace.config.clone(), requests: vec![*spec] };
                    sofa_par::with_threads(1, || single.run(&one))
                })
                .collect();
            let served = alone.iter().map(|r| r.records.len() as u64).sum::<u64>();
            let retried = alone.iter().map(|r| r.retried).sum::<u64>();
            let rerouted = alone.iter().map(|r| r.rerouted_requests() as u64).sum::<u64>();
            let dram = alone.iter().map(|r| r.multi.dram.total_bytes()).sum::<u64>();
            for threads in [1usize, 2, 8] {
                let fleet = sofa_par::with_threads(threads, || {
                    FleetServeSim::new(cfg.clone()).run(&trace, OpRouter::TraceNative)
                });
                let fleet_dram = fleet.nodes.iter().map(|n| n.dram.total_bytes()).sum::<u64>();
                prop_assert_eq!(
                    (fleet.served, fleet.shed, fleet.retried, fleet.rerouted, fleet_dram),
                    (served, trace.len() as u64 - served, retried, rerouted, dram),
                    "threads={}", threads
                );
            }
        }
    }

    #[test]
    fn dse_search_is_unchanged_by_candidate_dedup(seed in 0u64..12) {
        use sofa_dse::{hardware_aware_search, DseSearchConfig, EvalConfig, HwAwareEvaluator};

        // The search answers repeated proposals from its memo; every point
        // it reports must equal a fresh evaluation of its candidate, at any
        // SOFA_THREADS.
        let evaluator = HwAwareEvaluator::new(EvalConfig::tiny(seed), 2);
        let cfg = DseSearchConfig::smoke(seed);
        let reference = sofa_par::with_threads(1, || hardware_aware_search(&evaluator, &cfg));
        for e in &reference.evaluated {
            prop_assert_eq!(e, &evaluator.evaluate(&e.candidate));
        }
        for threads in [2usize, 8] {
            let report =
                sofa_par::with_threads(threads, || hardware_aware_search(&evaluator, &cfg));
            prop_assert_eq!(&report, &reference, "threads={}", threads);
        }
    }

    #[test]
    fn dse_layer_memo_equals_a_fresh_evaluator_per_candidate(
        seed in 0u64..50,
        first in prop::collection::vec((0usize..3, 0usize..3, 0usize..3, 0usize..3), 2..8),
        second in prop::collection::vec((0usize..3, 0usize..3, 0usize..3, 0usize..3), 1..6),
    ) {
        use sofa_dse::{CandidateEval, DseCandidate, EvalConfig, HwAwareEvaluator};
        use std::collections::HashSet;

        // Two layers, each drawn from three keeps and three tile sizes, so
        // candidates repeat layer points inside a batch and across batches.
        const KEEPS: [f64; 3] = [0.1, 0.25, 0.4];
        const TILES: [usize; 3] = [4, 8, 16];
        let candidate = |&(k0, t0, k1, t1): &(usize, usize, usize, usize)| DseCandidate {
            keep_ratios: vec![KEEPS[k0], KEEPS[k1]],
            tile_sizes: vec![TILES[t0], TILES[t1]],
        };
        let batches: [Vec<DseCandidate>; 2] =
            [first.iter().map(candidate).collect(), second.iter().map(candidate).collect()];
        let all: Vec<&DseCandidate> = batches.iter().flatten().collect();
        let distinct = all
            .iter()
            .flat_map(|c| (0..2).map(move |l| (l, c.keep_ratios[l].to_bits(), c.tile_sizes[l])))
            .collect::<HashSet<_>>()
            .len() as u64;
        let bits = |e: &CandidateEval| {
            let m = &e.metrics;
            let score = (m.loss.to_bits(), m.cycles, m.energy_pj.to_bits(), m.area_mm2.to_bits());
            (e.candidate.clone(), score)
        };

        // Reference: every candidate scored by an evaluator of its own.
        let cfg = EvalConfig::tiny(seed);
        let (mut evals, mut hits) = (0, 0);
        let reference: Vec<_> = all
            .iter()
            .map(|c| {
                let fresh = HwAwareEvaluator::new(cfg, 2);
                let e = sofa_par::with_threads(1, || fresh.evaluate(c));
                evals += fresh.layer_evals();
                hits += fresh.fidelity_hits();
                bits(&e)
            })
            .collect();
        for threads in [1usize, 2, 8] {
            // One session scores both batches, one call each.
            let evaluator = HwAwareEvaluator::new(cfg, 2);
            let memoised: Vec<_> = sofa_par::with_threads(threads, || {
                let session = evaluator.session();
                batches.iter().flat_map(|b| session.evaluate_batch(b)).collect()
            });
            let memoised: Vec<_> = memoised.iter().map(bits).collect();
            prop_assert_eq!(&memoised, &reference, "threads={}", threads);
            prop_assert_eq!(evaluator.layer_evals(), evals, "threads={}", threads);
            prop_assert_eq!(evaluator.fidelity_hits(), hits, "threads={}", threads);
            prop_assert_eq!(evaluator.layer_sims(), distinct, "threads={}", threads);
        }
    }
}
