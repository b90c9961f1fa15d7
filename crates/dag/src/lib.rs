//! # dagon-dag — job DAG model
//!
//! This crate is the foundation of the Dagon reproduction. It models the
//! static structure a Spark driver sees after `DAGScheduler` has split a job
//! into stages:
//!
//! * [`Rdd`]s partitioned into [`BlockId`]-addressed blocks,
//! * [`Stage`]s with per-task resource demands `d_i` and base compute times,
//! * narrow/wide dependencies between stages,
//! * graph algorithms (topological order, successor closures, critical
//!   paths) used by every scheduler, and
//! * the stage *priority value* `pv_i = w_i + Σ_{j ∈ succ*(i)} w_j` of the
//!   paper's Eq. (6), on which both Dagon's task assignment (Alg. 1) and the
//!   LRP cache policy (Def. 1) are built.
//!
//! Everything downstream (`dagon-cluster`, `dagon-sched`, `dagon-cache`,
//! `dagon-workloads`) consumes these types; nothing here depends on the
//! simulator.

pub mod dag;
pub mod dot;
pub mod estimates;
pub mod examples;
pub mod generate;
pub mod graph;
pub mod ids;
pub mod priority;
pub mod rdd;
pub mod resources;
pub mod stage;

pub use dag::{DagBuilder, DagError, JobDag, StageBuilder};
pub use estimates::StageEstimates;
pub use ids::{BlockId, RddId, StageId, TaskId};
pub use priority::{PriorityTracker, Work};
pub use rdd::{Rdd, RddSource};
pub use resources::{Resources, SimTime, MIN_MS, SEC_MS};
pub use stage::{DepKind, Stage, StageInput};
