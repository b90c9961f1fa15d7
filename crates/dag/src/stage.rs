//! Stages: the schedulable unit produced by Spark's `DAGScheduler`.

// Skewed task ms: `.round().max(0)` of a small nonnegative product.
#![allow(clippy::cast_possible_truncation)]

use crate::ids::{RddId, StageId};
use crate::resources::{Resources, SimTime};

/// How a stage consumes an input RDD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Narrow dependency: task `k` reads partition `k` of the input. This is
    /// the pattern that gives tasks a data-locality preference (the block's
    /// host) and the one delay scheduling acts on.
    Narrow,
    /// Wide (shuffle) dependency: every task reads a `1/num_tasks` share of
    /// every input block. Like Spark's shuffle reads, wide inputs carry no
    /// single-host locality preference.
    Wide,
}

/// One input edge of a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageInput {
    pub rdd: RddId,
    pub kind: DepKind,
}

/// A stage: `num_tasks` identical tasks, each demanding
/// `⟨demand, cpu_ms⟩` — the `⟨resource, duration⟩` label of the paper's
/// Fig. 1 — plus the stage's input edges and output RDD.
///
/// `cpu_ms` is *pure compute* time; I/O time is added by the simulator from
/// block sizes and locality at launch, so a stage's locality sensitivity
/// emerges from its compute-to-input-bytes ratio rather than being asserted.
#[derive(Clone, Debug)]
pub struct Stage {
    pub id: StageId,
    pub name: String,
    pub num_tasks: u32,
    /// Per-task resource demand `d_i`.
    pub demand: Resources,
    /// Per-task base compute time (at any locality; excludes input I/O).
    pub cpu_ms: SimTime,
    /// Multiplicative skew on the compute time of individual tasks:
    /// task `k` runs for `cpu_ms * skew[k % skew.len()]`. `[1.0]` = no skew.
    pub skew: Vec<f64>,
    pub inputs: Vec<StageInput>,
    /// The RDD this stage produces (always exists; `num_partitions ==
    /// num_tasks`).
    pub output: RddId,
    /// Parent stages (derived from `inputs` whose RDD is stage-produced).
    pub parents: Vec<StageId>,
}

impl Stage {
    /// Compute time of one specific task, with skew applied.
    pub fn task_cpu_ms(&self, task_index: u32) -> SimTime {
        if self.skew.is_empty() {
            return self.cpu_ms;
        }
        let f = self.skew[task_index as usize % self.skew.len()];
        (self.cpu_ms as f64 * f).round().max(0.0) as SimTime
    }

    /// Workload of one task in vCPU-ms: `d_i.cpus * duration`. The paper's
    /// Table III counts these in vCPU-minutes; the unit cancels everywhere.
    pub fn task_work(&self, task_index: u32) -> u64 {
        self.demand.cpus as u64 * self.task_cpu_ms(task_index)
    }

    /// Total stage workload `w_i` over all tasks (Eq. 6's `w_i` at t=0).
    pub fn total_work(&self) -> u64 {
        (0..self.num_tasks).map(|k| self.task_work(k)).sum()
    }

    /// Mean task compute time (used by Eq. 7's `t̄d_i` before any task has
    /// actually finished).
    pub fn mean_task_cpu_ms(&self) -> SimTime {
        if self.num_tasks == 0 {
            return 0;
        }
        let sum: u64 = (0..self.num_tasks).map(|k| self.task_cpu_ms(k)).sum();
        sum / self.num_tasks as u64
    }

    /// Does this stage read any input through a narrow dependency? Only such
    /// stages have per-task preferred locations.
    pub fn has_narrow_input(&self) -> bool {
        self.inputs.iter().any(|i| i.kind == DepKind::Narrow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage() -> Stage {
        Stage {
            id: StageId(1),
            name: "s".into(),
            num_tasks: 3,
            demand: Resources::cpus(4),
            cpu_ms: 4 * crate::MIN_MS,
            skew: vec![1.0],
            inputs: vec![StageInput {
                rdd: RddId(0),
                kind: DepKind::Narrow,
            }],
            output: RddId(1),
            parents: vec![],
        }
    }

    #[test]
    fn fig1_stage1_work_is_48_vcpu_minutes() {
        // Paper §III-A.1: stage 1 = 3 tasks × ⟨4 vCPUs, 4 minutes⟩ = 48.
        let s = stage();
        assert_eq!(s.total_work() / crate::MIN_MS, 48);
        assert_eq!(s.task_work(0) / crate::MIN_MS, 16);
    }

    #[test]
    fn skew_scales_individual_tasks() {
        let mut s = stage();
        s.skew = vec![1.0, 2.0];
        assert_eq!(s.task_cpu_ms(0), s.cpu_ms);
        assert_eq!(s.task_cpu_ms(1), s.cpu_ms * 2);
        assert_eq!(s.task_cpu_ms(2), s.cpu_ms); // wraps
    }

    #[test]
    fn narrow_detection() {
        let mut s = stage();
        assert!(s.has_narrow_input());
        s.inputs[0].kind = DepKind::Wide;
        assert!(!s.has_narrow_input());
    }
}
