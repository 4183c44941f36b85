//! Cycle models of the four SOFA engines (paper Figs. 11–14).
//!
//! Each engine is modelled by its steady-state throughput: the controller
//! keeps the arrays busy tile after tile, so the cycle count of a stage is the
//! amount of work divided by the array's per-cycle capacity (plus a small
//! fixed fill latency). The shapes default to the paper's design point via
//! [`HwConfig`].

use crate::config::HwConfig;

/// Work submitted to the DLZS prediction engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DlzsWork {
    /// Shift-accumulate operations (one per non-zero operand pair).
    pub shift_ops: u64,
    /// 16-bit leading-zero encodes of the Q operands.
    pub lz_encodes: u64,
}

/// Work submitted to the SADS sorting engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SortWork {
    /// Predicted scores streamed through the sorting cores.
    pub elements: u64,
}

/// Work submitted to the KV-generation array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvGenWork {
    /// 16-bit multiply-accumulates.
    pub macs: u64,
}

/// Work submitted to the SU-FA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuFaWork {
    /// Q·K and P·V multiply-accumulates.
    pub macs: u64,
    /// Exponentiations.
    pub exps: u64,
    /// Final divisions.
    pub divs: u64,
}

/// Fixed pipeline-fill latency charged once per engine invocation (cycles).
/// The cycle-level simulator (`sofa-sim`) inherits it implicitly by deriving
/// its per-tile budgets from these `*_cycles` functions on aggregated work.
const FILL_LATENCY: f64 = 64.0;

/// Cycles the DLZS engine needs for the given work.
pub(crate) fn dlzs_cycles(cfg: &HwConfig, work: &DlzsWork) -> f64 {
    let shift = work.shift_ops as f64 / cfg.dlzs_ops_per_cycle();
    // The LZC array encodes one value per line per cycle.
    let enc = work.lz_encodes as f64 / cfg.query_parallelism as f64;
    shift.max(enc) + FILL_LATENCY
}

/// Cycles the SADS engine needs to absorb the given stream of scores.
pub(crate) fn sads_cycles(cfg: &HwConfig, work: &SortWork) -> f64 {
    work.elements as f64 / cfg.sort_elems_per_cycle_total() + FILL_LATENCY
}

/// Cycles the KV-generation array needs.
pub(crate) fn kvgen_cycles(cfg: &HwConfig, work: &KvGenWork) -> f64 {
    work.macs as f64 / cfg.kvgen_macs_per_cycle() + FILL_LATENCY
}

/// Cycles the SU-FA engine needs: the systolic arrays and the EXP/DIV units
/// operate in parallel, so the slower of the two limits throughput.
pub(crate) fn sufa_cycles(cfg: &HwConfig, work: &SuFaWork) -> f64 {
    let mac_cycles = work.macs as f64 / cfg.sufa_macs_per_cycle();
    let exp_cycles = (work.exps + work.divs) as f64 / cfg.exp_units as f64;
    mac_cycles.max(exp_cycles) + FILL_LATENCY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_scale_linearly_with_work() {
        let cfg = HwConfig::paper_default();
        let a = dlzs_cycles(
            &cfg,
            &DlzsWork {
                shift_ops: 1 << 20,
                lz_encodes: 0,
            },
        );
        let b = dlzs_cycles(
            &cfg,
            &DlzsWork {
                shift_ops: 1 << 21,
                lz_encodes: 0,
            },
        );
        assert!((b - FILL_LATENCY) / (a - FILL_LATENCY) > 1.99);
    }

    #[test]
    fn dlzs_is_limited_by_slower_of_shift_and_encode() {
        let cfg = HwConfig::paper_default();
        let enc_heavy = DlzsWork {
            shift_ops: 0,
            lz_encodes: 1 << 20,
        };
        let shift_heavy = DlzsWork {
            shift_ops: 1 << 20,
            lz_encodes: 0,
        };
        // Encoding has 32x fewer lanes than shifting in the default config.
        assert!(dlzs_cycles(&cfg, &enc_heavy) > dlzs_cycles(&cfg, &shift_heavy));
    }

    #[test]
    fn sufa_exp_units_can_become_the_bottleneck() {
        let cfg = HwConfig::paper_default();
        let mac_bound = SuFaWork {
            macs: 1 << 24,
            exps: 0,
            divs: 0,
        };
        let exp_bound = SuFaWork {
            macs: 0,
            exps: 1 << 24,
            divs: 0,
        };
        assert!(sufa_cycles(&cfg, &exp_bound) > sufa_cycles(&cfg, &mac_bound));
    }

    #[test]
    fn empty_work_costs_only_fill_latency() {
        let cfg = HwConfig::paper_default();
        assert_eq!(sads_cycles(&cfg, &SortWork::default()), FILL_LATENCY);
        assert_eq!(kvgen_cycles(&cfg, &KvGenWork::default()), FILL_LATENCY);
    }

    #[test]
    fn smaller_config_is_slower() {
        let big = HwConfig::paper_default();
        let small = HwConfig::small();
        let w = SortWork { elements: 1 << 22 };
        assert!(sads_cycles(&small, &w) > sads_cycles(&big, &w));
    }
}
