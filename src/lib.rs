//! Facade crate of the SOFA reproduction workspace.
//!
//! Re-exports every layer so downstream code (and the examples/tests in this
//! package) can reach the whole stack through one dependency:
//!
//! * [`par`] — deterministic scoped data-parallelism (`par_map`,
//!   `par_map_index`, `with_threads`) controlled by `SOFA_THREADS`.
//! * [`tensor`] — matrices, softmax, fixed-point and deterministic RNG.
//! * [`model`] — workload shapes, score distributions, benchmark suite.
//! * [`core`] — the SOFA algorithms (DLZS, SADS, SU-FA, pipeline).
//! * [`hw`] — analytic hardware models (engines, memory, energy, RASS).
//! * [`sim`] — the event-driven cycle-level simulator of the tiled pipeline.
//! * [`dse`] — hardware-aware multi-objective design-space exploration
//!   (candidates lowered through the pipeline and cycle simulator, Pareto
//!   front over loss/cycles/energy/area).
//! * [`serve`] — continuous-batching request scheduling over multi-instance
//!   simulation.
//! * [`baselines`] — GPU/TPU and SOTA-accelerator comparison baselines.
//! * [`mod@bench`] — the experiment registry regenerating the paper's figures.
//! * [`harness`] — the declarative spec + gate runner driving CI
//!   (`harness run --all` over `specs/*.json`).

pub use sofa_baselines as baselines;
pub use sofa_bench as bench;
pub use sofa_core as core;
pub use sofa_dse as dse;
pub use sofa_harness as harness;
pub use sofa_hw as hw;
pub use sofa_model as model;
pub use sofa_par as par;
pub use sofa_serve as serve;
pub use sofa_sim as sim;
pub use sofa_tensor as tensor;
