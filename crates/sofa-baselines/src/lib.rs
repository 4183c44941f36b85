//! Baseline platforms SOFA is compared against (paper §V).
//!
//! * [`gpu`] — roofline-style models of the NVIDIA A100 GPU and a cloud TPU,
//!   including how much of SOFA's software optimisation (LP prediction,
//!   FlashAttention, SU-FA, RASS) each platform can exploit (Figs. 19 & 21).
//! * [`accelerators`] — the published characteristics of the eight SOTA
//!   dynamic-sparsity Transformer accelerators of Table II, plus technology
//!   scaling to a common 28 nm / 1 V node.

pub mod accelerators;
pub mod gpu;
