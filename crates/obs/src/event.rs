//! The structured event taxonomy.
//!
//! Events reference simulation entities by their `dagon-dag` ids
//! ([`StageId`], [`TaskId`], [`BlockId`]) and executors by their raw index
//! (`u32`) so this crate stays below `dagon-cluster` in the dependency
//! graph. Locality levels travel as the level *index* (0 = process-local …
//! 3 = any); [`locality_name`] maps them back to Spark's names.

use dagon_dag::{BlockId, SimTime, StageId, TaskId};

/// Human name of a locality-level index (0 = Process … 3 = Any).
pub fn locality_name(level: u8) -> &'static str {
    match level {
        0 => "PROCESS_LOCAL",
        1 => "NODE_LOCAL",
        2 => "RACK_LOCAL",
        _ => "ANY",
    }
}

/// Why a running attempt was killed (as opposed to failing on its own).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillReason {
    /// Another attempt of the same task finished first.
    LostRace,
    /// The executor hosting the attempt crashed.
    ExecCrash,
}

impl KillReason {
    pub fn as_str(self) -> &'static str {
        match self {
            KillReason::LostRace => "lost-race",
            KillReason::ExecCrash => "exec-crash",
        }
    }
}

/// Why a cached block left storage memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// Evicted by the policy to make room for an incoming block.
    Capacity,
    /// Dropped proactively (zero reference priority).
    Proactive,
    /// Destroyed by a fault (crash wiping the cache, injected loss).
    Fault,
}

impl EvictReason {
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::Capacity => "capacity",
            EvictReason::Proactive => "proactive",
            EvictReason::Fault => "fault",
        }
    }
}

/// One scheduler placement decision, with the rationale the placement
/// policy computed it from — the paper's "why did Dagon launch *this* task
/// *here*" audit record. Estimate fields are `-1.0` when the deciding
/// policy does not compute them (e.g. native delay scheduling has no ECT).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedDecision {
    pub stage: StageId,
    pub task_index: u32,
    pub exec: u32,
    /// Locality level the task launches at (index, 0 = process).
    pub locality: u8,
    /// Delay-wait state: the worst level the stage's wait clock currently
    /// allows. `locality > allowed` marks a sensitivity-aware override.
    pub allowed: u8,
    /// Eq. (7) earliest-completion-time estimate for the stage, ms.
    pub ect_ms: f64,
    /// Estimated duration of the task at the chosen level, ms.
    pub est_ms: f64,
    /// The threshold `est_ms` was accepted under (max of ECT and the
    /// insensitivity bound), ms.
    pub threshold_ms: f64,
    /// Did the policy predict the task's input to be cache-resident at the
    /// chosen executor (i.e. a process-local launch)?
    pub predicted_cache_hit: bool,
}

/// Everything the instrumented subsystems report. Timestamps live on the
/// enclosing [`crate::TraceRecord`]; every duration field is sim-ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A stage's tasks entered the pending set (parents complete).
    StageReady { stage: StageId, num_tasks: u32 },
    /// A stage's last task finished.
    StageComplete { stage: StageId },
    /// Lineage recovery reopened a completed stage.
    StageResubmitted { stage: StageId },
    /// A task attempt started on an executor.
    TaskLaunch {
        task: TaskId,
        attempt: u32,
        exec: u32,
        locality: u8,
        speculative: bool,
        /// Length of the input-read phase, sim-ms.
        io_ms: SimTime,
    },
    /// A task attempt completed; its result counts.
    TaskFinish {
        task: TaskId,
        attempt: u32,
        exec: u32,
        locality: u8,
    },
    /// A running attempt was torn down without finishing.
    TaskKilled {
        task: TaskId,
        attempt: u32,
        exec: u32,
        reason: KillReason,
    },
    /// An injected task failure struck the attempt.
    TaskFail {
        task: TaskId,
        attempt: u32,
        exec: u32,
    },
    /// Lineage recovery resubmitted a completed task.
    TaskResubmitted { task: TaskId },
    /// A placement decision, with rationale (see [`SchedDecision`]).
    SchedDecision(SchedDecision),
    /// A cache-eligible read was served from this executor's cache.
    CacheHit {
        block: BlockId,
        exec: u32,
        mb: f64,
        /// Remaining cross-stage references to the block (LRC count).
        refcount: u32,
    },
    /// A cache-eligible read missed this executor's cache.
    CacheMiss {
        block: BlockId,
        exec: u32,
        mb: f64,
        refcount: u32,
    },
    /// A block entered storage memory.
    CacheAdmit {
        block: BlockId,
        exec: u32,
        mb: f64,
        policy: &'static str,
        refcount: u32,
        /// Inserted by the prefetcher rather than a miss-fill/output write.
        prefetched: bool,
    },
    /// A block left storage memory.
    CacheEvict {
        block: BlockId,
        exec: u32,
        policy: &'static str,
        refcount: u32,
        reason: EvictReason,
    },
    /// Fault injection: the executor died.
    ExecCrash { exec: u32 },
    /// A crashed executor re-registered, empty.
    ExecRestart { exec: u32 },
    /// Consecutive failures blacklisted the executor.
    ExecBlacklisted { exec: u32 },
    /// A cached block was lost on one executor (injected corruption).
    BlockLost { block: BlockId, exec: u32 },
}

impl TraceEvent {
    /// Stable kind tag, used as the event `cat`/counter key in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::StageReady { .. } => "stage-ready",
            TraceEvent::StageComplete { .. } => "stage-complete",
            TraceEvent::StageResubmitted { .. } => "stage-resubmitted",
            TraceEvent::TaskLaunch { .. } => "task-launch",
            TraceEvent::TaskFinish { .. } => "task-finish",
            TraceEvent::TaskKilled { .. } => "task-killed",
            TraceEvent::TaskFail { .. } => "task-fail",
            TraceEvent::TaskResubmitted { .. } => "task-resubmitted",
            TraceEvent::SchedDecision(_) => "sched-decision",
            TraceEvent::CacheHit { .. } => "cache-hit",
            TraceEvent::CacheMiss { .. } => "cache-miss",
            TraceEvent::CacheAdmit { .. } => "cache-admit",
            TraceEvent::CacheEvict { .. } => "cache-evict",
            TraceEvent::ExecCrash { .. } => "exec-crash",
            TraceEvent::ExecRestart { .. } => "exec-restart",
            TraceEvent::ExecBlacklisted { .. } => "exec-blacklisted",
            TraceEvent::BlockLost { .. } => "block-lost",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_names_cover_all_levels() {
        assert_eq!(locality_name(0), "PROCESS_LOCAL");
        assert_eq!(locality_name(3), "ANY");
        assert_eq!(locality_name(200), "ANY");
    }

    #[test]
    fn kinds_are_distinct_for_lifecycle_events() {
        let t = TaskId::new(StageId(0), 0);
        let a = TraceEvent::TaskLaunch {
            task: t,
            attempt: 0,
            exec: 0,
            locality: 0,
            speculative: false,
            io_ms: 0,
        };
        let b = TraceEvent::TaskFinish {
            task: t,
            attempt: 0,
            exec: 0,
            locality: 0,
        };
        assert_ne!(a.kind(), b.kind());
    }
}
