//! The shared assignment loop of Alg. 1: *order* the ready stages, let the
//! *placement* policy pick a task for the best stage, launch, repeat.
//!
//! All five schedulers are an [`OrderPolicy`] plugged into
//! [`OrderedScheduler`]; the placement half (native vs sensitivity-aware
//! delay scheduling) is orthogonal, mirroring the paper's design where
//! Alg. 1 line 7 calls into delay scheduling and Alg. 2 later replaces it.
//!
//! ## Batched assignment
//!
//! One `schedule` call fills *every* free slot: the pick loop runs against
//! a [`ScheduleShadow`] (free resources minus claims), re-ranking the
//! ready stages between picks so Table III's per-step re-sort semantics
//! are preserved exactly. Order policies fold the batch's unconfirmed
//! claims into their keys (e.g. Dagon subtracts `claimed × est_work` from
//! a stage's priority value), and placement-state mutations are journaled
//! so a partially-discarded batch can be rolled back to its last confirmed
//! assignment — the batched loop is bit-for-bit equivalent to the old
//! one-assignment-per-call loop, minus the per-pick view rebuilds.
//!
//! The placement half walks the free executors through
//! [`scope_walk`](crate::placement::scope_walk). An executor on a node
//! that holds an unclaimed pending task of the stage asks one question
//! per level: the view's claims-aware probe
//! `pending_with_locality[_strict]`, a masked word scan over the locality
//! index that stops at its first hit (DESIGN.md §26, §29). The
//! executors on a rack's nodes that hold no such task all reach the same
//! outcome, so once the first of them takes nothing the rest are skipped
//! without a probe (§30). The shadow is an overlay: it holds only the batch's claimed
//! resources per executor, and `reset` clears just the executors the
//! last batch claimed on.

use dagon_cluster::{Assignment, Locality, ScheduleShadow, Scheduler, SimView};
use dagon_dag::{SimTime, StageId, TaskId};
use dagon_obs::SchedDecision;

use crate::placement::Placement;

/// Stage-ordering half of a scheduler.
pub trait OrderPolicy {
    fn order_name(&self) -> &'static str;

    /// Rank the schedulable stages, highest priority first. `shadow`
    /// carries the current batch's unconfirmed claims; policies whose keys
    /// depend on launches must account for them (confirmations only arrive
    /// after the batch is applied).
    fn rank(
        &mut self,
        view: &SimView<'_>,
        ready: &[StageId],
        shadow: &ScheduleShadow,
    ) -> Vec<StageId>;

    fn on_task_launched(&mut self, _t: TaskId, _work: u64) {}
    /// A launched/completed task went back to pending (failure recovery);
    /// `work` re-enters the stage's remaining workload.
    fn on_task_requeued(&mut self, _t: TaskId, _work: u64) {}
    fn on_stage_ready(&mut self, _s: StageId) {}
    fn on_stage_complete(&mut self, _s: StageId) {}

    /// Live Eq. (6) priorities if this policy maintains them.
    fn priorities(&self) -> Option<Vec<(StageId, u64)>> {
        None
    }

    /// [`Scheduler::drain_stage_priorities`] for this policy. The default
    /// extends `out` with the full [`priorities`](Self::priorities)
    /// snapshot.
    fn drain_priorities(&mut self, out: &mut Vec<(StageId, u64)>) -> bool {
        match self.priorities() {
            Some(pvs) => {
                out.extend(pvs);
                true
            }
            None => false,
        }
    }
}

/// `ordering × placement` composed into a full [`Scheduler`].
///
/// Emits a whole batch of assignments per `schedule` call; the simulator
/// applies them in order, confirming each via
/// [`Scheduler::on_task_launched`], and discards the rest of the batch if
/// block residency changed mid-application (a cache insert/evict at launch
/// time). An internal `reconcile` pass then rolls placement
/// state back to the last confirmed assignment before the next round.
// lint: incremental(emitted, mutators = [reconcile, schedule])
// lint: incremental(marks, mutators = [reconcile, schedule])
// lint: incremental(confirmed, mutators = [reconcile, on_task_launched])
// lint: incremental(cap, mutators = [schedule])
// lint: incremental(feedback, mutators = [reconcile, schedule])
// lint: hotpath(reconcile, on_task_launched)
pub struct OrderedScheduler {
    order: Box<dyn OrderPolicy>,
    placement: Box<dyn Placement>,
    shadow: Option<ScheduleShadow>,
    /// `(stage, task)` of each assignment emitted in the open batch.
    emitted: Vec<(StageId, u32)>,
    /// Placement journal length right after each emitted pick.
    marks: Vec<usize>,
    /// Prefix of `emitted` the simulator confirmed.
    confirmed: usize,
    /// Adaptive batch size limit. Any emitted prefix of length ≥ 1 yields
    /// the identical applied schedule (picks are claims-aware and the
    /// trailing journal state is reconciled either way), so the cap is
    /// free to track how much of recent batches actually survived: under
    /// cache-heavy workloads the simulator discards the batch tail after
    /// ~1 applied assignment (each launch's cache insertion moves the
    /// residency generation), and computing the other ~hundred picks per
    /// round was the dominant scheduling cost at paper scale.
    ///
    /// Adaptation is residency-generation-aware: a discard shrinks the cap
    /// to just past the applied prefix, but it only grows again once a
    /// fully-applied batch is followed by a round at an *unchanged*
    /// residency generation — while cache inserts keep moving residency,
    /// growing the cap just manufactures the next discard (the 1→2→discard
    /// oscillation that dominated `assignments_discarded` at paper scale).
    cap: usize,
    /// `(emitted, confirmed)` of the last settled batch, consumed by the
    /// next `schedule` call's cap adaptation.
    feedback: Option<(usize, usize)>,
    /// Residency generation observed by the previous `schedule` call.
    last_gen: Option<u64>,
    /// When on, one [`SchedDecision`] is buffered per emitted assignment
    /// for the simulator's trace sink to drain after the batch.
    tracing: bool,
    notes: Vec<SchedDecision>,
}

impl OrderedScheduler {
    pub fn new(order: Box<dyn OrderPolicy>, placement: Box<dyn Placement>) -> Self {
        Self {
            order,
            placement,
            shadow: None,
            emitted: Vec::new(),
            marks: Vec::new(),
            confirmed: 0,
            cap: usize::MAX,
            feedback: None,
            last_gen: None,
            tracing: false,
            notes: Vec::new(),
        }
    }

    /// Settle the previous batch: keep placement mutations up to the last
    /// confirmed pick, undo everything after it (including any trailing
    /// failed pick-round — if nothing actually changed, the next round
    /// replays it identically against the same state). Batch-survival
    /// feedback is recorded for the next `schedule` call's cap adaptation
    /// (which needs the view's residency generation, unavailable here).
    // lint: allow(panic-surface): `confirmed` is a prefix length of `emitted`, and `marks` grows in lockstep with it
    fn reconcile(&mut self) {
        let keep = if self.emitted.is_empty() {
            // No assignments were produced: the round's wait-clock
            // mutations stand, exactly as they did when the sequential
            // loop returned empty.
            self.placement.journal_len()
        } else if self.confirmed == 0 {
            0
        } else {
            self.marks[self.confirmed - 1]
        };
        if !self.emitted.is_empty() {
            self.feedback = Some((self.emitted.len(), self.confirmed));
        }
        self.placement.reconcile_journal(keep);
        self.emitted.clear();
        self.marks.clear();
        self.confirmed = 0;
    }
}

impl Scheduler for OrderedScheduler {
    fn name(&self) -> String {
        format!(
            "{}+{}",
            self.order.order_name(),
            self.placement.placement_name()
        )
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        self.reconcile();
        self.notes.clear();
        // Residency-aware cap adaptation: shrink on a discarded tail, grow
        // only when the last batch fully applied *and* block residency has
        // not moved since — otherwise hold, because a moving residency
        // generation means the very next batch's tail would be discarded
        // again. Schedule-neutral either way (see the `cap` field docs).
        let gen = view.index.generation();
        if let Some((emitted, confirmed)) = self.feedback.take() {
            if confirmed < emitted {
                // The tail was computed against residency that moved under
                // it: emit no more next round than actually survived (one
                // assignment always survives the generation check).
                self.cap = confirmed.max(1);
            } else if self.last_gen == Some(gen) {
                self.cap = self.cap.saturating_mul(2).max(2);
            }
        }
        self.last_gen = Some(gen);
        if !view.any_free_resource() {
            return Vec::new();
        }
        if self.shadow.is_none() {
            self.shadow = Some(ScheduleShadow::new(view));
        }
        let shadow = self.shadow.as_mut().unwrap();
        shadow.reset(view);
        let mut out = Vec::new();
        loop {
            let ready = view.assignable_stages(shadow);
            if ready.is_empty() {
                break;
            }
            let mut choice = None;
            for s in self.order.rank(view, &ready, shadow) {
                if let Some((k, exec, locality)) = self.placement.pick(s, view, shadow) {
                    choice = Some(Assignment {
                        stage: s,
                        task_index: k,
                        exec,
                        locality,
                    });
                    break;
                }
            }
            let Some(a) = choice else { break };
            if self.tracing {
                let n = self.placement.take_note();
                self.notes.push(SchedDecision {
                    stage: a.stage,
                    task_index: a.task_index,
                    exec: a.exec.0,
                    locality: a.locality.rank(),
                    allowed: n.map_or(a.locality.rank(), |n| n.allowed),
                    ect_ms: n.map_or(-1.0, |n| n.ect_ms),
                    est_ms: n.map_or(-1.0, |n| n.est_ms),
                    threshold_ms: n.map_or(-1.0, |n| n.threshold_ms),
                    predicted_cache_hit: a.locality == Locality::Process,
                });
            }
            self.placement.on_launch(a.stage, a.locality, view.now);
            shadow.claim(view, a.stage, a.task_index, a.exec);
            self.marks.push(self.placement.journal_len());
            self.emitted.push((a.stage, a.task_index));
            out.push(a);
            if out.len() >= self.cap || !shadow.any_free() {
                break;
            }
        }
        out
    }

    fn on_stage_ready(&mut self, s: StageId, now: SimTime) {
        self.reconcile();
        self.placement.on_stage_ready(s, now);
        self.order.on_stage_ready(s);
    }

    fn on_stage_complete(&mut self, s: StageId, _now: SimTime) {
        self.reconcile();
        self.order.on_stage_complete(s);
    }

    // lint: allow(panic-surface): the index is short-circuit-guarded by `confirmed < emitted.len()`
    fn on_task_launched(&mut self, t: TaskId, work: u64, _now: SimTime) {
        if self.confirmed < self.emitted.len() && self.emitted[self.confirmed] == (t.stage, t.index)
        {
            self.confirmed += 1;
        } else {
            debug_assert!(
                false,
                "launch confirmation out of order: {:?} at batch position {}",
                t, self.confirmed
            );
        }
        self.order.on_task_launched(t, work);
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64, _now: SimTime) {
        // Requeues arrive between batches (fault handling happens in the
        // event loop, never mid-`schedule`), so the emit journal is not
        // touched — `reconcile` at the next call sees a consistent state.
        self.order.on_task_requeued(t, work);
    }

    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        self.order.priorities()
    }

    fn drain_stage_priorities(&mut self, out: &mut Vec<(StageId, u64)>) -> bool {
        self.order.drain_priorities(out)
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.placement.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<SchedDecision> {
        std::mem::take(&mut self.notes)
    }
}
