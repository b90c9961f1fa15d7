//! # dagon-cluster — a discrete-event Spark-cluster simulator
//!
//! This crate is the testbed substitute mandated by the reproduction plan:
//! the paper evaluates Dagon inside Spark 2.2.0 + YARN on a 20-node cluster,
//! and everything the paper's mechanisms touch is modelled here:
//!
//! * a rack/node/executor **topology** with per-node disks and a two-tier
//!   network ([`topology`], [`config::CostModel`]),
//! * **HDFS block placement** with a replication factor ([`hdfs`]),
//! * per-executor **BlockManager** caches with pluggable eviction/prefetch
//!   policies ([`blockmanager`], [`CachePolicy`]),
//! * a **BlockManagerMaster** that maintains the reference profile (future
//!   uses, FIFO distances, stage priority values) every DAG-aware cache
//!   policy consumes ([`refprofile`]),
//! * pluggable **schedulers** driven through the [`Scheduler`] trait
//!   ([`scheduler`]),
//! * task **locality levels** and the I/O cost of each ([`locality`]),
//! * **speculative execution** for long-tail tasks (§IV of the paper),
//! * deterministic **fault injection** (executor crashes, task failures,
//!   cached-block loss) with Spark's recovery machinery: bounded task
//!   retry, lineage recomputation, executor blacklisting ([`fault`]), and
//! * an event-driven core with exact busy-core integration and rich
//!   per-run metrics ([`sim`], [`metrics`]).
//!
//! The simulator is deterministic: identical configuration and seed give
//! bit-identical results, which the integration suite relies on.

pub mod blockmanager;
pub mod config;
pub mod event;
pub mod fault;
pub mod hdfs;
pub mod jobs;
pub mod locality;
pub mod locality_index;
pub mod metrics;
pub mod pending;
pub mod refprofile;
pub mod scheduler;
pub mod sim;
pub mod topology;
pub mod view;

pub use blockmanager::{BlockManager, CachePolicy, DropPass, NoCache};
pub use config::{ClusterConfig, CostModel, LocalityWait, SpeculationConfig};
pub use event::{Event, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use jobs::{
    AdmissionConfig, AdmissionDecision, ArrivalSpec, JobOutcome, JobSpec, JobState, JobsRuntime,
};
pub use locality::Locality;
pub use locality_index::{IndexStats, LocalityIndex};
pub use metrics::{CacheStats, FaultStats, Metrics, SchedulerStats, SimResult, TaskRun, TimePoint};
pub use pending::PendingSet;
pub use refprofile::{RefProfile, StageRef};
pub use scheduler::{Assignment, Scheduler};
pub use sim::Simulation;
pub use topology::{ExecId, NodeId, RackId, Topology};
pub use view::{ExecView, ScheduleShadow, SimView, StageRuntime, TaskView};
