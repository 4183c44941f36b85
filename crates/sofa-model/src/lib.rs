//! Transformer model substrate for the SOFA reproduction.
//!
//! This crate captures everything about the *workloads* the paper evaluates
//! on, without depending on any ML framework:
//!
//! * [`config`] — shape configurations (layers, heads, hidden size, sequence
//!   length) for the models the paper uses: BERT-B/L, GPT-2, Bloom-1.7B,
//!   Llama-7B/13B, ViT-B and PVT.
//! * [`profile`] — an analytical FLOPs / bytes / operational-intensity
//!   profiler for the QKV, attention and FFN components (paper Figs. 1, 4 and
//!   16).
//! * [`distribution`] — synthetic attention-score generators reproducing the
//!   paper's Type-I / Type-II / Type-III score distributions and a classifier
//!   for them (paper Fig. 8).
//! * [`workload`] — generation of concrete Q/K/V/token matrices with a
//!   controlled score distribution, used by the algorithm and hardware crates.
//! * [`suite`] — the 20-benchmark evaluation suite (model × task pairs).
//! * [`trace`] — serving request streams: mixed prefill/decode requests with
//!   Poisson-ish arrivals, deterministically generated for the scheduling
//!   experiments.
//! * [`operating_point`] — the cross-stage [`OperatingPoint`] (per-layer
//!   keep ratios + tile sizes), the shared currency every lowering entry
//!   point in the workspace consumes instead of scalar `(keep, Bc)` pairs.
//!
//! # Example
//!
//! ```
//! use sofa_model::config::ModelConfig;
//! use sofa_model::profile::LayerProfile;
//!
//! let llama = ModelConfig::llama_7b(4096);
//! let profile = LayerProfile::analyze(&llama, 1);
//! assert!(profile.attention.flops > 0);
//! ```

pub mod config;
pub mod distribution;
pub mod operating_point;
pub mod profile;
pub mod suite;
pub mod trace;
pub mod workload;

pub use config::{ModelConfig, ModelFamily};
pub use distribution::{DistributionType, ScoreDistribution};
pub use operating_point::OperatingPoint;
pub use suite::{benchmark_suite, Benchmark};
pub use trace::{
    RequestClass, RequestSource, RequestSpec, RequestTrace, TraceConfig, TraceRequests,
};
pub use workload::{AttentionWorkload, ScoreWorkload};
