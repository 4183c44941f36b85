//! Cycle/energy-level simulator of the SOFA accelerator (paper §IV).
//!
//! The paper evaluates SOFA with an RTL design synthesised on TSMC 28 nm plus
//! a cycle-level simulator fed by Verilator traces, CACTI SRAM models and
//! Ramulator DRAM models. This crate substitutes that stack with analytical
//! module models whose constants come from the published breakdowns
//! (Table III/IV) — see `DESIGN.md` for the substitution rationale.
//!
//! * [`config`] — hardware configuration (PE array shapes, SRAM sizes, clock,
//!   DRAM interface) defaulting to the paper's design point.
//! * [`area`] / [`energy`] — per-module area and power models reproducing
//!   Table III and Table IV, with technology scaling helpers.
//! * [`mem`] — SRAM and DRAM traffic/energy/time accounting.
//! * [`engines`] — cycle models of the DLZS engine, the SADS sorting engine,
//!   the KV-generation PEs and the SU-FA systolic engine.
//! * [`rass`] — the Reuse-Aware Schedule Scheme (KV out-of-order execution)
//!   and its naive left-to-right baseline.
//! * [`accel`] — the end-to-end accelerator model: tiled-pipeline execution of
//!   the four stages, plus a whole-row (non-tiled) mode that models the
//!   prior-work dynamic sparsity accelerators.
//!
//! # Example
//!
//! ```
//! use sofa_hw::accel::{AttentionTask, SofaAccelerator};
//! use sofa_hw::config::HwConfig;
//!
//! let task = AttentionTask::new(128, 4096, 4096, 32, 0.2, 16);
//! let report = SofaAccelerator::new(HwConfig::paper_default()).simulate(&task);
//! assert!(report.latency_s > 0.0);
//! assert!(report.energy_efficiency_gops_w() > 0.0);
//! ```

pub mod accel;
pub mod area;
pub mod config;
pub mod descriptor;
pub mod energy;
pub mod engines;
pub mod mem;
pub mod rass;
