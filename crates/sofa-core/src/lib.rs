//! The SOFA algorithms — the paper's primary contribution.
//!
//! SOFA accelerates dynamic-sparsity Transformer attention for large-scale
//! token parallel processing (LTPP) with three cross-stage-coordinated
//! mechanisms:
//!
//! * [`dlzs`] — **D**ifferential **L**eading **Z**ero **S**ummation: a
//!   multiplier-free, log-domain prediction of the attention matrix used to
//!   find the vital Q-K pairs cheaply (paper §III-A).
//! * [`sads`] — **S**phere-search **A**ided **D**istributed **S**orting: the
//!   top-k stage is split into independent sub-segment sorts exploiting the
//!   Distributed Cluster Effect, enabling tiled execution (paper §III-B).
//! * [`sufa`] — **S**orted-**U**pdating **F**lash**A**ttention: a tiled
//!   formal-compute stage that consumes the sorting information so the softmax
//!   running maximum never needs to be re-derived (paper §III-C).
//!
//! Supporting modules: [`lze`] (leading-zero encoding), [`topk`] (exact
//! baselines and masks), [`flash`] (FlashAttention-1/2 references), [`ops`]
//! (operation accounting with the arithmetic-complexity model), [`pipeline`]
//! (the end-to-end cross-stage tiled dataflow) and [`accuracy`]
//! (accuracy-proxy evaluation). The design-space exploration of tile sizes
//! and top-k (paper §III-D) lives in the `sofa-dse` crate, which closes the
//! search loop against the hardware models and the cycle simulator.
//!
//! # Example
//!
//! ```
//! use sofa_core::pipeline::{SofaPipeline, PipelineConfig};
//! use sofa_model::{ScoreDistribution, AttentionWorkload};
//!
//! let dist = ScoreDistribution::bert_like();
//! let w = AttentionWorkload::generate(&dist, 8, 128, 64, 32, 1);
//! let cfg = PipelineConfig::new(0.25, 16).unwrap();
//! let result = SofaPipeline::new(cfg).run(&w);
//! assert_eq!(result.output.shape(), (8, 32));
//! ```

pub mod accuracy;
pub mod cache;
pub mod dlzs;
pub mod flash;
pub mod lze;
pub mod ops;
pub mod pipeline;
pub mod sads;
pub mod sufa;
pub mod tiling;
pub mod topk;

pub use cache::{CacheStats, LoweringCache, ShapeKey};
pub use dlzs::DlzsPredictor;
pub use ops::{OpCounts, OpKind};
pub use sads::SadsConfig;
pub use sufa::{sorted_updating_attention, SuFaOrder};

/// Errors produced by the SOFA algorithm layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SofaError {
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Name of the parameter.
        param: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
    /// Input shapes were inconsistent with the configuration.
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
}

impl std::fmt::Display for SofaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SofaError::InvalidConfig { param, reason } => {
                write!(f, "invalid configuration for `{param}`: {reason}")
            }
            SofaError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
        }
    }
}

impl std::error::Error for SofaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SofaError::InvalidConfig {
            param: "keep_ratio",
            reason: "must be in (0, 1]".to_string(),
        };
        assert!(e.to_string().contains("keep_ratio"));
        let e = SofaError::ShapeMismatch {
            detail: "Q vs K".to_string(),
        };
        assert!(e.to_string().contains("Q vs K"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SofaError>();
    }
}
