//! Reuse-Aware Schedule Scheme — RASS (paper §IV-D, Fig. 15).
//!
//! Under dynamic sparsity, different queries select different (but
//! overlapping) sets of keys/values. A naive execution walks the queries one
//! by one and fetches every key/value a query needs, re-fetching shared ones.
//! RASS instead groups key/value vectors by the bitmask of queries that need
//! them (the single-port ID buffer of Fig. 15), schedules the most-shared
//! vectors first, and packs them into fetch phases of the selected-KV buffer's
//! capacity, so each needed vector is loaded from DRAM at most once per pass.

use sofa_core::topk::TopKMask;
use std::collections::HashMap;

/// One fetch phase of the schedule: the KV indices loaded into the selected-KV
/// buffer together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Key/value indices resident during this phase.
    pub kv_indices: Vec<usize>,
}

/// The result of scheduling one batch of queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Fetch phases in execution order.
    pub phases: Vec<Phase>,
    /// Total KV *vector* fetches (each index counts 2: one K and one V).
    pub vector_fetches: u64,
}

/// Naive execution: every query independently fetches the K and V vectors it
/// selected, with no cross-query reuse (Fig. 15 left).
pub fn naive_schedule(mask: &TopKMask, buffer_capacity: usize) -> Schedule {
    assert!(buffer_capacity > 0, "buffer capacity must be positive");
    let mut phases = Vec::new();
    let mut fetches = 0u64;
    for row in mask.iter() {
        for chunk in row.chunks(buffer_capacity) {
            phases.push(Phase {
                kv_indices: chunk.to_vec(),
            });
            fetches += 2 * chunk.len() as u64;
        }
    }
    Schedule {
        phases,
        vector_fetches: fetches,
    }
}

/// RASS: greedy reuse-aware scheduling with KV out-of-order execution
/// (Fig. 15 right). Keys are grouped by the bitmask of queries that need them,
/// most-shared groups are issued first, and each needed key/value pair is
/// fetched exactly once.
pub fn rass_schedule(mask: &TopKMask, buffer_capacity: usize) -> Schedule {
    assert!(buffer_capacity > 0, "buffer capacity must be positive");
    // ID buffer: bitmask of needing queries → KV indices.
    let mut groups: HashMap<Vec<bool>, Vec<usize>> = HashMap::new();
    let queries = mask.queries();
    let mut needed_by = vec![Vec::new(); mask.seq_len()];
    for (q, row) in mask.iter().enumerate() {
        for &kv in row {
            needed_by[kv].push(q);
        }
    }
    for (kv, qs) in needed_by.iter().enumerate() {
        if qs.is_empty() {
            continue;
        }
        let mut bitmask = vec![false; queries];
        for &q in qs {
            bitmask[q] = true;
        }
        groups.entry(bitmask).or_default().push(kv);
    }

    // Greedy order: groups shared by the most queries first (ties broken by
    // the smallest KV index for determinism).
    let mut ordered: Vec<(usize, Vec<usize>)> = groups
        .into_iter()
        .map(|(bm, kvs)| (bm.iter().filter(|&&b| b).count(), kvs))
        .collect();
    ordered.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1[0].cmp(&b.1[0])));

    let mut flat: Vec<usize> = Vec::new();
    for (_, mut kvs) in ordered {
        kvs.sort_unstable();
        flat.extend(kvs);
    }

    let mut phases = Vec::new();
    for chunk in flat.chunks(buffer_capacity) {
        phases.push(Phase {
            kv_indices: chunk.to_vec(),
        });
    }
    let vector_fetches = 2 * flat.len() as u64;
    Schedule {
        phases,
        vector_fetches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_core::sads::{sads_topk, SadsConfig};

    /// Fractional reduction in KV vector fetches RASS achieves over the
    /// naive schedule (0 when the naive schedule fetches nothing).
    fn rass_fetch_reduction(mask: &TopKMask, buffer_capacity: usize) -> f64 {
        let naive = naive_schedule(mask, buffer_capacity).vector_fetches;
        let rass = rass_schedule(mask, buffer_capacity).vector_fetches;
        if naive == 0 {
            return 0.0;
        }
        1.0 - rass as f64 / naive as f64
    }
    use sofa_model::{ScoreDistribution, ScoreWorkload};

    /// The worked example of Fig. 15: four queries sharing keys K0..K7.
    fn paper_example_mask() -> TopKMask {
        TopKMask::new(
            8,
            vec![
                vec![0, 1, 2, 3, 4, 5],
                vec![2, 3, 4, 5, 6, 7],
                vec![2, 3, 5, 6],
                vec![0, 1, 4, 7],
            ],
        )
    }

    #[test]
    fn paper_example_reduction_is_one_third() {
        let mask = paper_example_mask();
        let naive = naive_schedule(&mask, 6);
        let rass = rass_schedule(&mask, 6);
        assert_eq!(naive.vector_fetches, 40, "2 × (6+6+4+4)");
        assert_eq!(rass.vector_fetches, 16, "each of the 8 KV pairs once");
        // The paper's figure quotes 24 → 16 (33 %) counting only the first two
        // phases; over the full example the reduction is even larger.
        let red = rass_fetch_reduction(&mask, 6);
        assert!(red >= 0.33, "reduction {red} should be at least 33 %");
    }

    #[test]
    fn rass_never_fetches_more_than_naive() {
        let w = ScoreWorkload::generate(&ScoreDistribution::bert_like(), 32, 256, 9);
        let (mask, _) = sads_topk(&w.scores, 64, &SadsConfig::paper_default());
        for cap in [8usize, 32, 128] {
            let naive = naive_schedule(&mask, cap).vector_fetches;
            let rass = rass_schedule(&mask, cap).vector_fetches;
            assert!(rass <= naive, "cap {cap}: rass {rass} > naive {naive}");
        }
    }

    #[test]
    fn rass_fetches_each_needed_kv_exactly_once() {
        let mask = paper_example_mask();
        let s = rass_schedule(&mask, 3);
        let mut seen = std::collections::HashSet::new();
        for phase in &s.phases {
            for &kv in &phase.kv_indices {
                assert!(seen.insert(kv), "kv {kv} fetched twice");
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn phases_respect_buffer_capacity() {
        let mask = paper_example_mask();
        for cap in [1usize, 2, 3, 5, 100] {
            for phase in &rass_schedule(&mask, cap).phases {
                assert!(phase.kv_indices.len() <= cap);
            }
            for phase in &naive_schedule(&mask, cap).phases {
                assert!(phase.kv_indices.len() <= cap);
            }
        }
    }

    #[test]
    fn most_shared_keys_come_first() {
        let mask = paper_example_mask();
        let s = rass_schedule(&mask, 4);
        // K2 and K3 are needed by three queries — they must be in phase 0.
        let first = &s.phases[0].kv_indices;
        assert!(
            first.contains(&2) && first.contains(&3),
            "phase 0 = {first:?}"
        );
    }

    #[test]
    fn disjoint_selections_offer_no_reduction() {
        let mask = TopKMask::new(8, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        let red = rass_fetch_reduction(&mask, 4);
        assert!(red.abs() < 1e-12);
    }

    #[test]
    fn realistic_workload_reduction_is_significant() {
        // Fig. 20(a): RASS alone removes on the order of a fifth of the
        // accesses for realistic overlapping selections.
        let w = ScoreWorkload::generate(&ScoreDistribution::llama_like(), 64, 512, 41);
        let (mask, _) = sads_topk(&w.scores, 128, &SadsConfig::paper_default());
        let red = rass_fetch_reduction(&mask, 64);
        assert!(
            red > 0.15,
            "reduction {red} too small for overlapping top-k"
        );
    }

    #[test]
    #[should_panic(expected = "buffer capacity")]
    fn zero_capacity_panics() {
        let _ = naive_schedule(&paper_example_mask(), 0);
    }

    #[test]
    fn empty_mask_produces_empty_schedule() {
        let mask = TopKMask::new(16, vec![vec![], vec![]]);
        let s = rass_schedule(&mask, 8);
        assert_eq!(s.vector_fetches, 0);
        assert!(s.phases.is_empty());
        assert_eq!(rass_fetch_reduction(&mask, 8), 0.0);
    }
}
