//! Stage priority values — Eq. (6) of the paper:
//!
//! ```text
//! pv_i = w_i + Σ_{j ∈ SuccessorSet_i} w_j
//! ```
//!
//! where `w_i` is the *currently unprocessed* workload of stage `i` in
//! resource-duration units (vCPU-ms here, vCPU-minutes in the paper) and
//! `SuccessorSet_i` is the transitive successor closure. `w_i` shrinks as
//! tasks are *launched* — Table III decrements `w_2` from 36 to 24 the
//! moment the first stage-2 task is assigned — so [`PriorityTracker`]
//! mirrors exactly that bookkeeping and is shared by the Dagon scheduler
//! (Alg. 1) and the LRP cache (Def. 1).
//!
//! A launch or requeue moves `pv` only for its stage and that stage's
//! ancestors, so the tracker also records which stages it touched since
//! the last [`PriorityTracker::drain_changes`]: a consumer mirroring `pv`
//! (the reference profile) pushes only those (DESIGN.md §32).

// StageId mints from enumerate(): bounded by DAG size.
#![allow(clippy::cast_possible_truncation)]

use crate::dag::JobDag;
use crate::graph::Closure;
use crate::ids::{StageId, TaskId};

/// Work accounting for one stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Unprocessed workload `w_i` in vCPU-ms: total work of tasks not yet
    /// launched.
    pub remaining: u64,
    /// Initial `w_i` at submission.
    pub initial: u64,
}

/// Live `pv_i` tracking over one job.
///
/// Work estimates may come from ground truth or from the AppProfiler's
/// noisy estimates — the tracker doesn't care, it just maintains Eq. (6)
/// under task-launch decrements and supports O(ancestors) incremental
/// updates.
// lint: incremental(pv, mutators = [on_task_launched, on_task_requeued], init = [new], oracle = check_dirty)
// lint: incremental(dirty, mutators = [on_task_launched, on_task_requeued, drain_changes], init = [new], oracle = check_dirty)
#[derive(Clone, Debug)]
pub struct PriorityTracker {
    work: Vec<Work>,
    /// pv_i cache.
    pv: Vec<u64>,
    /// Ancestor closure: launching a task of stage j changes pv_i for every
    /// i with j ∈ succ*(i), i.e. every ancestor of j (plus j itself).
    ancestors: Closure,
    /// Bitset over stages: those whose `pv` a launch or requeue touched
    /// since the last [`drain_changes`](Self::drain_changes). Starts full,
    /// so the first drain reports every stage.
    dirty: Vec<u64>,
    /// Each stage's `pv` as of the drain that last reported it: the
    /// mirror `check_dirty` holds clean stages to.
    #[cfg(debug_assertions)]
    drained: Vec<u64>,
}

/// Mark stage `s` in the bitset `dirty`.
#[inline]
fn mark(dirty: &mut [u64], s: StageId) {
    dirty[s.index() / 64] |= 1 << (s.index() % 64);
}

impl PriorityTracker {
    /// Build from per-task work given by `task_work(stage, index)` in
    /// vCPU-ms. Pass `|s, k| dag.stage(s).task_work(k)` for ground truth.
    pub fn new(dag: &JobDag, task_work: impl Fn(StageId, u32) -> u64) -> Self {
        let n = dag.num_stages();
        let mut work = vec![Work::default(); n];
        for s in dag.stage_ids() {
            let total: u64 = (0..dag.stage(s).num_tasks).map(|k| task_work(s, k)).sum();
            work[s.index()] = Work {
                remaining: total,
                initial: total,
            };
        }
        let successors = Closure::successors(dag);
        let mut pv = vec![0u64; n];
        for s in dag.stage_ids() {
            pv[s.index()] = work[s.index()].remaining
                + successors
                    .members(s)
                    .map(|j| work[j.index()].remaining)
                    .sum::<u64>();
        }
        let ancestors = Closure::ancestors(dag);
        let mut dirty = vec![0u64; n.div_ceil(64)];
        for s in dag.stage_ids() {
            mark(&mut dirty, s);
        }
        Self {
            work,
            pv,
            ancestors,
            dirty,
            #[cfg(debug_assertions)]
            drained: vec![0; n],
        }
    }

    /// Ground-truth tracker straight from the DAG's own durations.
    pub fn from_dag(dag: &JobDag) -> Self {
        Self::new(dag, |s, k| dag.stage(s).task_work(k))
    }

    /// Current `pv_i`.
    #[inline]
    pub fn pv(&self, s: StageId) -> u64 {
        self.pv[s.index()]
    }

    /// Current unprocessed workload `w_i`.
    #[inline]
    pub fn remaining_work(&self, s: StageId) -> u64 {
        self.work[s.index()].remaining
    }

    /// All (stage, pv) pairs.
    pub fn snapshot(&self) -> Vec<(StageId, u64)> {
        self.pv
            .iter()
            .enumerate()
            .map(|(i, &p)| (StageId(i as u32), p))
            .collect()
    }

    /// Append the `(stage, pv)` pair of every stage a launch or requeue
    /// touched since the last drain to `out`, in ascending stage order,
    /// and forget them. The first drain reports every stage. A stage
    /// left out keeps the `pv` an earlier drain reported.
    pub fn drain_changes(&mut self, out: &mut Vec<(StageId, u64)>) {
        #[cfg(debug_assertions)]
        debug_assert!(self.check_dirty(), "a pv moved without a dirty mark");
        for (k, w) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(w);
            while bits != 0 {
                let i = k * 64 + bits.trailing_zeros() as usize;
                out.push((StageId(i as u32), self.pv[i]));
                #[cfg(debug_assertions)]
                {
                    self.drained[i] = self.pv[i];
                }
                bits &= bits - 1;
            }
        }
    }

    /// Oracle: every stage outside the dirty set still has the `pv` its
    /// last drain reported.
    #[cfg(debug_assertions)]
    fn check_dirty(&self) -> bool {
        (0..self.pv.len())
            .all(|i| (self.dirty[i / 64] >> (i % 64)) & 1 == 1 || self.pv[i] == self.drained[i])
    }

    /// Record that `task` was launched, consuming `work` vCPU-ms from its
    /// stage. Decrements `w_stage` and the pv of the stage and all its
    /// ancestors (Table III's per-step update).
    pub fn on_task_launched(&mut self, task: TaskId, work: u64) {
        let s = task.stage;
        let delta = work.min(self.work[s.index()].remaining);
        self.work[s.index()].remaining -= delta;
        self.pv[s.index()] = self.pv[s.index()].saturating_sub(delta);
        mark(&mut self.dirty, s);
        for a in self.ancestors.members(s) {
            self.pv[a.index()] = self.pv[a.index()].saturating_sub(delta);
            mark(&mut self.dirty, a);
        }
    }

    /// Undo a launch (speculative copy killed before contributing, or a
    /// failed task re-queued): restore `work` vCPU-ms to the stage.
    pub fn on_task_requeued(&mut self, task: TaskId, work: u64) {
        let s = task.stage;
        self.work[s.index()].remaining =
            (self.work[s.index()].remaining + work).min(self.work[s.index()].initial);
        self.pv[s.index()] += work;
        mark(&mut self.dirty, s);
        for a in self.ancestors.members(s) {
            self.pv[a.index()] += work;
            mark(&mut self.dirty, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;
    use crate::examples::fig1;
    use crate::MIN_MS;

    #[test]
    fn fig1_initial_priorities_match_table_iii() {
        // Table III header row: w1=48, pv1=52, w2=36, pv2=64 (vCPU-minutes).
        let d = fig1();
        let t = PriorityTracker::from_dag(&d);
        assert_eq!(t.remaining_work(StageId(0)) / MIN_MS, 48);
        assert_eq!(t.pv(StageId(0)) / MIN_MS, 52);
        assert_eq!(t.remaining_work(StageId(1)) / MIN_MS, 36);
        assert_eq!(t.pv(StageId(1)) / MIN_MS, 64);
        // pv3 = w3 + w4 = 24 + 4 = 28; pv4 = 4.
        assert_eq!(t.pv(StageId(2)) / MIN_MS, 28);
        assert_eq!(t.pv(StageId(3)) / MIN_MS, 4);
    }

    #[test]
    fn fig1_launch_updates_replay_table_iii() {
        // Table III steps 1-4.
        let d = fig1();
        let mut t = PriorityTracker::from_dag(&d);
        let s1 = StageId(0); // paper's "stage 1"
        let s2 = StageId(1); // paper's "stage 2"
                             // Step 1: one stage-2 task ⟨6 vCPU, 2 min⟩ = 12 vCPU-min.
        t.on_task_launched(TaskId::new(s2, 0), 12 * MIN_MS);
        assert_eq!(t.remaining_work(s2) / MIN_MS, 24);
        assert_eq!(t.pv(s2) / MIN_MS, 52);
        assert_eq!(t.pv(s1) / MIN_MS, 52); // unchanged: s2 not a successor of s1
                                           // Step 2: one stage-1 task ⟨4 vCPU, 4 min⟩ = 16 vCPU-min.
        t.on_task_launched(TaskId::new(s1, 0), 16 * MIN_MS);
        assert_eq!(t.remaining_work(s1) / MIN_MS, 32);
        assert_eq!(t.pv(s1) / MIN_MS, 36);
        // Step 3: another stage-2 task.
        t.on_task_launched(TaskId::new(s2, 1), 12 * MIN_MS);
        assert_eq!(t.pv(s2) / MIN_MS, 40);
        // Step 4: final stage-2 task.
        t.on_task_launched(TaskId::new(s2, 2), 12 * MIN_MS);
        assert_eq!(t.remaining_work(s2), 0);
        assert_eq!(t.pv(s2) / MIN_MS, 28);
    }

    #[test]
    fn launch_decrements_ancestors_priority() {
        // chain a -> b: launching b's task lowers pv_a too.
        let mut bld = DagBuilder::new("c");
        let (_, r) = bld.stage("a").tasks(1).demand_cpus(1).cpu_ms(1000).build();
        let _ = bld
            .stage("b")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(1000)
            .reads_wide(r)
            .build();
        let d = bld.build().unwrap();
        let mut t = PriorityTracker::from_dag(&d);
        assert_eq!(t.pv(StageId(0)), 3000);
        t.on_task_launched(TaskId::new(StageId(1), 0), 1000);
        assert_eq!(t.pv(StageId(0)), 2000);
        assert_eq!(t.pv(StageId(1)), 1000);
    }

    #[test]
    fn requeue_restores_work() {
        let mut bld = DagBuilder::new("c");
        let _ = bld.stage("a").tasks(2).demand_cpus(2).cpu_ms(500).build();
        let d = bld.build().unwrap();
        let mut t = PriorityTracker::from_dag(&d);
        let w0 = t.pv(StageId(0));
        t.on_task_launched(TaskId::new(StageId(0), 0), 1000);
        t.on_task_requeued(TaskId::new(StageId(0), 0), 1000);
        assert_eq!(t.pv(StageId(0)), w0);
        assert_eq!(t.remaining_work(StageId(0)), w0);
    }

    #[test]
    fn launch_work_saturates_at_zero() {
        let mut bld = DagBuilder::new("c");
        let _ = bld.stage("a").tasks(1).demand_cpus(1).cpu_ms(100).build();
        let d = bld.build().unwrap();
        let mut t = PriorityTracker::from_dag(&d);
        t.on_task_launched(TaskId::new(StageId(0), 0), 10_000);
        assert_eq!(t.remaining_work(StageId(0)), 0);
        assert_eq!(t.pv(StageId(0)), 0);
    }
}
