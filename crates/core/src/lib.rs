//! # dagon-core — the Dagon middleware facade
//!
//! Ties the substrates together the way the paper's middleware does:
//!
//! * [`system`] — named (scheduler × placement × cache) combinations, one
//!   per curve in the paper's figures: stock Spark (FIFO+LRU),
//!   Graphene+LRU, Graphene+MRD, Dagon (Alg. 1 + Alg. 2 + LRP), and the
//!   ablation variants;
//! * [`runner`] — builds the profiler estimates, wires a system to the
//!   simulator, runs it;
//! * [`tiny_exec`] — the single-executor slot-exact scheduler used to
//!   regenerate Fig. 2 and Table III precisely;
//! * [`optmodel`] — the §III-A.1 optimization problem (Eqs. 1–5) with a
//!   feasibility checker and an exact branch-and-bound solver for small
//!   instances (the optimality-gap ablation);
//! * [`experiments`] — the Fig. 3/4/8/9/10/11 harnesses;
//! * [`tenancy`] — online multi-tenant runs: job streams under dynamic
//!   admission, the fair-share policy lineup, and the load-sweep
//!   experiment.

pub mod experiments;
pub mod optmodel;
pub mod runner;
pub mod system;
pub mod tenancy;
pub mod tiny_exec;

pub use runner::{run_system, run_system_traced, RunOutcome};
pub use system::{PlaceKind, SchedKind, System};
pub use tenancy::{
    fig_tenant_sweep, run_stream_system, run_tenant_stream, TenantPolicy, TenantRunOutcome,
};
