//! The [`Scheduler`] trait every scheduling policy implements, plus a
//! trivially greedy scheduler used by this crate's own tests.

use dagon_dag::{Resources, SimTime, StageId, TaskId};

use crate::locality::Locality;
use crate::topology::ExecId;
use crate::view::SimView;

/// One task-launch decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    pub stage: StageId,
    pub task_index: u32,
    pub exec: ExecId,
    /// The locality the scheduler believes it is launching at (recorded for
    /// its own wait-clock bookkeeping; the simulator recomputes the
    /// authoritative level at launch).
    pub locality: Locality,
}

/// A task scheduling policy. The simulator calls [`Scheduler::schedule`]
/// whenever resources free up, stages become ready, or the periodic tick
/// fires; the scheduler returns a batch of assignments computed against the
/// view (tracking the resources its own batch has claimed).
pub trait Scheduler {
    fn name(&self) -> String;

    /// Produce assignments for the current state. Called repeatedly until it
    /// returns an empty batch. Must not assign more resources than the view
    /// reports free, nor the same pending task twice in one batch.
    ///
    /// Within-batch claim tracking is the scheduler's own job (the view's
    /// pending sets only shrink when the simulator confirms a launch).
    /// The view's placement probes (`pending_with_locality[_strict]`)
    /// take the batch's [`ScheduleShadow`](crate::view::ScheduleShadow)
    /// and never return a claimed task.
    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment>;

    /// A stage's parents all completed; its tasks are now pending.
    fn on_stage_ready(&mut self, _s: StageId, _now: SimTime) {}

    /// A stage fully completed.
    fn on_stage_complete(&mut self, _s: StageId, _now: SimTime) {}

    /// The simulator confirmed a (primary) launch. `work` is the ground-
    /// truth vCPU-ms consumed from the stage's remaining workload.
    fn on_task_launched(&mut self, _t: TaskId, _work: u64, _now: SimTime) {}

    /// A previously launched (or even completed) task is back in the
    /// pending set: its attempt failed, its executor crashed, or lineage
    /// recovery resubmitted it. `work` is the vCPU-ms returned to the
    /// stage's remaining workload. Stateless schedulers (which recompute
    /// pending work from the view each call) can ignore this.
    fn on_task_requeued(&mut self, _t: TaskId, _work: u64, _now: SimTime) {}

    /// Current stage priority values, all of them, if this scheduler
    /// maintains Eq. (6) (the Dagon scheduler does; others return `None`
    /// and the master falls back to its own ground-truth tracker). The
    /// simulator reads priorities through
    /// [`drain_stage_priorities`](Self::drain_stage_priorities), whose
    /// default calls this; debug builds also check the reference profile
    /// against it.
    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        None
    }

    /// Append the `(stage, pv)` pairs that changed since the last call to
    /// `out` and return `true`, or return `false` (leaving `out` alone)
    /// when this scheduler keeps no Eq. (6) priorities. The first call
    /// reports every stage; a stage left out keeps its last reported
    /// value. The simulator calls this after every confirmed launch and
    /// requeue. The default extends `out` with the full
    /// [`stage_priorities`](Self::stage_priorities) snapshot: correct, but
    /// O(stages) per call (DESIGN.md §32).
    fn drain_stage_priorities(&mut self, out: &mut Vec<(StageId, u64)>) -> bool {
        match self.stage_priorities() {
            Some(pvs) => {
                out.extend(pvs);
                true
            }
            None => false,
        }
    }

    /// Ask the scheduler to collect (or stop collecting) decision
    /// rationales for the run's trace sink. Default: ignore — schedulers
    /// without rationale support stay zero-overhead and the simulator
    /// synthesizes bare decisions from the assignments instead.
    fn set_tracing(&mut self, _on: bool) {}

    /// Surrender the decision rationales buffered since the last drain,
    /// one per assignment of the last non-empty `schedule` batch, in batch
    /// order. Only called when tracing is on; the default (no rationale
    /// support) returns an empty vector.
    fn drain_decisions(&mut self) -> Vec<dagon_obs::SchedDecision> {
        Vec::new()
    }
}

/// Greedy locality-oblivious FIFO used in `dagon-cluster`'s unit tests:
/// walk stages in id order, pack any pending task onto the first executor
/// with room. (The real FIFO with delay scheduling lives in `dagon-sched`.)
#[derive(Default)]
pub struct GreedyFifo;

impl Scheduler for GreedyFifo {
    fn name(&self) -> String {
        "greedy-fifo".into()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut free: Vec<Resources> = view.execs.iter().map(|e| e.free).collect();
        let mut stages = view.schedulable_stages();
        stages.sort_unstable();
        for s in stages {
            let demand = view.dag.stage(s).demand;
            // Highest task index first (the historical pop-from-the-back
            // order this crate's test expectations bake in).
            let pending: Vec<u32> = view.stage(s).pending.iter().collect();
            'next_task: for &k in pending.iter().rev() {
                for e in view.execs {
                    if free[e.id.index()].fits(demand) {
                        free[e.id.index()] = free[e.id.index()].minus(demand);
                        out.push(Assignment {
                            stage: s,
                            task_index: k,
                            exec: e.id,
                            locality: view.task_locality(s, k, e.id),
                        });
                        continue 'next_task;
                    }
                }
                break; // no executor fits this stage's demand now
            }
        }
        out
    }
}
