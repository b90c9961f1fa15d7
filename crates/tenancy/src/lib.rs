//! # dagon-tenancy — multi-tenant online cluster layer
//!
//! Turns the batch simulator into an online multi-tenant cluster:
//!
//! * [`arrivals`] — seeded job-arrival generators: open-loop Poisson and
//!   closed-loop think-time clients, with heavy-tailed (bounded-Pareto)
//!   job-size mixes drawn from `dagon-workloads`. Fully deterministic per
//!   seed.
//! * [`stream`] — the one multi-job lowering: merges a job list into one
//!   simulator DAG plus the [`dagon_cluster::JobsRuntime`] specs that
//!   drive admission, the one way a job starts. Identical HDFS source
//!   RDDs are shared across jobs
//!   so one tenant's cached scan serves another tenant's identical scan
//!   through the shared `BlockManager`.
//! * [`report`] — per-tenant metrics out of a finished run: JCT p50/p99,
//!   queueing delay, makespan, per-tenant cache hits, and Jain's fairness
//!   index.
//!
//! The simulator side lives in `dagon-cluster` ([`dagon_cluster::jobs`]
//! and `Simulation::with_jobs`); the scheduling side in `dagon-sched`
//! (`TenantFairOrder`). This crate only *describes* streams and *reads*
//! results, so it stays off the hot path entirely.

pub mod arrivals;
pub mod report;
pub mod stream;

pub use arrivals::{generate_stream, BoundedPareto, ClientKind, StreamJob, TenantSpec};
pub use report::{TenantReport, TenantStats};
pub use stream::{StreamOptions, TenantMeta, TenantStream};
