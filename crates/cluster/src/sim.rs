//! The discrete-event simulation driver.
//!
//! One [`Simulation`] executes one job DAG on one cluster under one
//! (scheduler, cache-policy) pair and returns a [`SimResult`]. The loop is
//! strictly deterministic: events are ordered by `(time, insertion-seq)`,
//! all randomness is seeded, and schedulers see a consistent [`SimView`]
//! snapshot between event batches.

// ExecId/StageId mints from bounded enumerations and `.round()`ed
// nonnegative ms values; dagon-lint rule D5 (narrow-cast) independently
// guards tick/size narrowing in this crate.
#![allow(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, HashSet}; // lint: allow(hash-ordered): HashSet used membership-only, see field docs
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dagon_dag::{BlockId, JobDag, PriorityTracker, Resources, SimTime, StageId, TaskId};
use dagon_obs::{EvictReason, KillReason, NullSink, SchedDecision, TraceEvent, TraceSink};

use crate::blockmanager::{BlockManager, BlockManagers, CachePolicy, DropPass, InsertOutcome};
use crate::config::{ClusterConfig, ReadTier};
use crate::event::{Event, EventQueue, ViewDelta};
use crate::fault::{FaultKind, FaultRuntime};
use crate::hdfs::DataMap;
use crate::jobs::{AdmissionDecision, ArrivalSpec, JobsRuntime};
use crate::locality::Locality;
use crate::locality_index::LocalityIndex;
use crate::metrics::{Metrics, SimResult, TaskRun, TimePoint};
use crate::pending::PendingSet;
use crate::prefetch::{fitting_pick, CandidateLists};
use crate::refprofile::RefProfile;
use crate::scheduler::{Assignment, Scheduler};
use crate::topology::{ExecId, Topology};
use crate::view::{ClusterView, SimView, StageRuntime, TaskView};

/// Hard ceiling on simulated time; reaching it means the configuration can
/// never finish (e.g. a task demand exceeding every executor's capacity).
const SIM_TIME_LIMIT: SimTime = 48 * 3600 * 1000;

/// One task's `(block, MiB)` input list, shared between the static table
/// and in-flight launches so launching never clones it.
type TaskInputs = Arc<[(BlockId, f64)]>;

/// Re-derive stage `si`'s schedulability predicate and push it into the
/// view's incremental ready list and the locality index's live set — the
/// one place either changes, so the two stay equal. A free function over
/// disjoint borrows so call sites inside loops that also borrow other
/// `Simulation` fields (e.g. `self.dag.children(..)`) compile.
fn sync_ready(
    cview: &mut ClusterView,
    index: &mut LocalityIndex,
    stages: &[StageRuntime],
    si: usize,
) {
    let st = &stages[si];
    let on = st.ready && !st.completed && !st.pending.is_empty();
    cview.set_stage_schedulable(si, on);
    index.set_stage_live(si, on);
}

/// One live attempt, keyed `(task, attempt)` in `Simulation::running`.
struct RunningAttempt {
    exec: ExecId,
    start: SimTime,
    demand: Resources,
    locality: Locality,
    pinned: Vec<BlockId>,
    speculative: bool,
    /// Has the attempt passed its I/O phase (now consuming CPU)?
    cpu_phase: bool,
}

/// One task's attempt bookkeeping (DESIGN.md §31). Which attempts are
/// live is `Simulation::running`'s job, not the row's.
#[derive(Clone, Copy, Default)]
struct TaskRow {
    /// The id the next attempt gets. Ids are never reissued, so an event
    /// whose `(task, attempt)` key is gone from `running` is stale.
    /// Fault-free runs only ever issue 0 (primary) and 1 (speculative).
    next_attempt: u32,
    /// Injected failures so far (bounded retry).
    retries: u32,
    /// Has an attempt won? Cleared only by lineage resubmission.
    done: bool,
    /// Has a speculative copy launched? Set at that launch and cleared
    /// only by `requeue_task`: a resubmitted task keeps it.
    speculated: bool,
}

/// How a live attempt ended; see [`Simulation::end_attempt`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum AttemptEnd {
    /// It finished first: the task's winner.
    Won,
    /// Another attempt of its task won first.
    LostRace,
    /// An injected task failure.
    Failed,
    /// Its executor crashed.
    Killed,
}

/// One simulation run in progress.
// lint: incremental(cview, mutators = [launch, do_schedule, end_attempt, complete_stage, fail_attempt, requeue_task, exec_crash, exec_restart, resubmit_task, with_jobs, admit_job, reject_job], via = [apply, init_ready_list, set_stage_schedulable], oracle = check_consistency)
// lint: incremental(data, mutators = [with_jobs, launch, finish_task, complete_stage, cache_insert, uncache, prefetch_scan, exec_crash, block_loss, requeue_task, resubmit_task, admit_job, reject_job], via = [add_disk, add_cached, remove_cached, remove_disk], oracle = check_inv_consistency)
// lint: incremental(prefetched, mutators = [launch, cache_insert, uncache, block_loss], init = [new], oracle = check_residency)
// lint: incremental(jobs, mutators = [with_jobs, run, job_arrival, admit_job, reject_job, complete_stage, resubmit_task, launch, end_attempt], via = [on_arrival, admit_queued, on_stage_complete, on_stage_reopened, on_cores_consumed, on_cores_released], oracle = check_consistency)
// lint: incremental(tick_dirty, mutators = [handle, launch, proactive_drops, resubmit_task], init = [new], oracle = check_quiet_tick)
// lint: incremental(tasks, mutators = [launch, finish_task, fail_attempt, requeue_task, speculation_check, resubmit_task], init = [new], oracle = check_tasks)
// lint: incremental(tracker, mutators = [launch, requeue_task, resubmit_task, sync_priorities], init = [new], oracle = check_priorities)
pub struct Simulation {
    dag: JobDag,
    cfg: ClusterConfig,
    topo: Topology,
    /// Persistent scheduler-facing executor state, kept current by
    /// [`ViewDelta`]s instead of per-opportunity rebuilds.
    cview: ClusterView,
    exec_busy_cores: Vec<u32>,
    bms: BlockManagers,
    /// Block residency: the incremental locality index, built from the
    /// initial [`DataMap`] placement and the only residency record after
    /// that.
    data: LocalityIndex,
    /// Per node, the prefetch candidates on its disk (cache-eligible,
    /// live, cached nowhere), exact at every `prefetch_scan` once it has
    /// synced them; `None` when prefetching is off.
    prefetch_cands: Option<CandidateLists>,
    stages: Vec<StageRuntime>,
    /// stage → task → (block, MiB) inputs. `Arc` so a launch can hold the
    /// input list without cloning it while mutating cache state.
    task_inputs: Vec<Vec<TaskInputs>>,
    task_views: Vec<Vec<TaskView>>,
    /// Once-per-run static table: per-stage narrow-input MiB (was
    /// recomputed inside every `est_finish_ms` call).
    narrow_mb: Vec<f64>,
    /// stage → task → attempt bookkeeping, laid out like `task_inputs`.
    tasks: Vec<Vec<TaskRow>>,
    stage_durations: Vec<Vec<u64>>,
    profile: RefProfile,
    /// Ground-truth Eq. (6) tracker: the profile's `pv` source when the
    /// scheduler keeps none. Dropped at the first sync whose scheduler
    /// drains its own priorities: that answer is fixed for the run, so
    /// the tracker would never be read again.
    tracker: Option<PriorityTracker>,
    /// Reused `sync_priorities` buffer of changed `(stage, pv)` pairs,
    /// sized up front for the first sync, which reports every stage.
    pv_buf: Vec<(StageId, u64)>,
    queue: EventQueue,
    metrics: Metrics,
    now: SimTime,
    /// Live attempts, keyed `(task, attempt)`: the only liveness record.
    /// A queued `TaskFinish`/`TaskFail`/`IoDone` acts iff its key is
    /// still here. A BTreeMap so every iteration (crash kill lists,
    /// speculation candidates, loser scans) is in deterministic key
    /// order by construction.
    running: BTreeMap<(TaskId, u32), RunningAttempt>,
    prefetch_inflight: Vec<Option<BlockId>>,
    /// The event-driven proactive drop pass and its reused buffers.
    drop_pass: DropPass,
    /// Reused victim buffer for `proactive_drops`.
    drop_victims: Vec<(u32, BlockId)>,
    /// Has anything a tick's cache work reads changed since the last
    /// tick took this flag? Set by every non-`Tick` event, every launch,
    /// every drop pass that evicts and every lineage resubmission. A tick
    /// that takes it clear skips `prefetch_scan` and `proactive_drops`:
    /// nothing either reads changed since the last scan, which started
    /// nothing on the executors still eligible, and no drop change is
    /// waiting, so both would be no-ops (DESIGN.md §19, §22).
    tick_dirty: bool,
    /// Ticks that skipped the cache work on a clear `tick_dirty`.
    #[cfg_attr(not(test), allow(dead_code))] // read by the unit tests only
    quiet_ticks: u64,
    /// Per executor, the resident blocks the prefetcher brought in and no
    /// task has read yet: a hit on one counts as `prefetch_used`.
    // lint: allow(hash-ordered): membership, plus the order-free `all` of `check_residency`
    prefetched: Vec<HashSet<BlockId>>,
    completed_count: usize,
    rng: SmallRng,
    /// Fault-injection state (liveness, blacklist, dedicated fault RNG).
    faults: FaultRuntime,
    /// Dynamic multi-job state (online multi-tenant runs); `None` for the
    /// classic batch mode, where the whole DAG is live from t=0.
    jobs: Option<JobsRuntime>,
    /// Output blocks each executor wrote to its node's disk — the files an
    /// executor crash destroys. Only tracked when faults are enabled.
    outputs_by_exec: Vec<Vec<BlockId>>,
    /// rdd → producing stage (`None` for sources), for lineage recovery.
    producer_of_rdd: Vec<Option<StageId>>,
    /// Blocks evicted from some cache since the last lineage check — an
    /// eviction can drop the *last* copy of a block whose disk replica a
    /// crash destroyed. Drained between scheduler batches; only populated
    /// when faults are enabled.
    lost_pending: Vec<BlockId>,
    /// Reused `prefetch_scan` buffer: one node's size-class winners.
    prefetch_buf: Vec<BlockId>,
    /// Structured event sink ([`NullSink`] unless [`Self::with_sink`]
    /// installed a recorder). Write-only: nothing it holds feeds back
    /// into the simulation.
    sink: Box<dyn TraceSink>,
    /// Cached `sink.enabled()` — the single branch instrumented hot paths
    /// pay when tracing is off.
    trace_on: bool,
}

impl Simulation {
    /// Build a simulation. `cache` constructs one policy instance per
    /// executor.
    pub fn new(dag: JobDag, cfg: ClusterConfig, cache: impl Fn() -> Box<dyn CachePolicy>) -> Self {
        let topo = Topology::build(&cfg.racks, cfg.execs_per_node);
        let n_exec = topo.num_execs();
        let data = DataMap::place_sources(&dag, &topo, cfg.hdfs_replication, cfg.seed);
        let bms: BlockManagers = (0..n_exec)
            .map(|_| BlockManager::new(cfg.exec_cache_mb, cache()))
            .collect();
        let mut task_inputs = Vec::with_capacity(dag.num_stages());
        let mut task_views = Vec::with_capacity(dag.num_stages());
        for st in dag.stages() {
            let mut per_task = Vec::with_capacity(st.num_tasks as usize);
            let mut per_task_view = Vec::with_capacity(st.num_tasks as usize);
            for k in 0..st.num_tasks {
                let mut inputs = Vec::new();
                let mut loc_blocks = Vec::new();
                for input in &st.inputs {
                    let rdd = dag.rdd(input.rdd);
                    match input.kind {
                        dagon_dag::DepKind::Narrow => {
                            let b = BlockId::new(rdd.id, k);
                            inputs.push((b, rdd.block_mb));
                            loc_blocks.push(b);
                        }
                        dagon_dag::DepKind::Wide => {
                            let mut j = k;
                            while j < rdd.num_partitions {
                                inputs.push((BlockId::new(rdd.id, j), rdd.block_mb));
                                j += st.num_tasks;
                            }
                        }
                    }
                }
                per_task.push(Arc::from(inputs.into_boxed_slice()));
                per_task_view.push(TaskView { loc_blocks });
            }
            task_inputs.push(per_task);
            task_views.push(per_task_view);
        }
        let stages: Vec<StageRuntime> = dag
            .stages()
            .iter()
            .map(|st| StageRuntime {
                id: st.id,
                ready: st.parents.is_empty(),
                completed: false,
                pending: PendingSet::full(st.num_tasks),
                running: 0,
                finished: 0,
            })
            .collect();
        let tasks = dag
            .stages()
            .iter()
            .map(|s| vec![TaskRow::default(); s.num_tasks as usize])
            .collect();
        let stage_durations = vec![Vec::new(); dag.num_stages()];
        let tracker = PriorityTracker::from_dag(&dag);
        let pv_buf = Vec::with_capacity(dag.num_stages());
        let mut profile = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        profile.rebuild(&dag, &|_, _| false, &|_| false);
        let metrics = Metrics::new(dag.num_stages(), n_exec, cfg.trace_executors);
        let live: Vec<bool> = stages
            .iter()
            .map(|s| s.ready && !s.completed && !s.pending.is_empty())
            .collect();
        let mut data = LocalityIndex::new(&dag, &topo, &data, &task_views, &live);
        let prefetch_cands = cfg
            .prefetch_free_frac
            .map(|_| CandidateLists::new(&dag, topo.num_nodes(), &mut data, &mut profile));
        let mut producer_of_rdd: Vec<Option<StageId>> = vec![None; dag.rdds().len()];
        for st in dag.stages() {
            producer_of_rdd[st.output.index()] = Some(st.id);
        }
        let faults = FaultRuntime::new(cfg.faults.clone(), n_exec);
        let narrow_mb = crate::view::narrow_input_table(&dag);
        let mut cview = ClusterView::new(n_exec, cfg.exec_capacity);
        cview.init_ready_list(live);
        Self {
            dag,
            cview,
            exec_busy_cores: vec![0; n_exec],
            bms,
            data,
            prefetch_cands,
            stages,
            task_inputs,
            narrow_mb,
            task_views,
            tasks,
            stage_durations,
            profile,
            tracker: Some(tracker),
            pv_buf,
            queue: EventQueue::new(),
            metrics,
            now: 0,
            running: BTreeMap::new(),
            prefetch_inflight: vec![None; n_exec],
            drop_pass: DropPass::default(),
            drop_victims: Vec::new(),
            tick_dirty: true,
            quiet_ticks: 0,
            // lint: allow(hash-ordered): see the field
            prefetched: vec![HashSet::new(); n_exec],
            completed_count: 0,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xd1ce_5eed),
            faults,
            jobs: None,
            outputs_by_exec: vec![Vec::new(); n_exec],
            lost_pending: Vec::new(),
            producer_of_rdd,
            prefetch_buf: Vec::new(),
            sink: Box::new(NullSink),
            trace_on: false,
            topo,
            cfg,
        }
    }

    /// Install a trace sink (builder-style; call before [`Self::run`]).
    /// The recorded log comes back on [`SimResult::trace`].
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_on = sink.enabled();
        self.sink = sink;
        self
    }

    /// Switch to online multi-tenant mode (builder-style; call before
    /// [`Self::run`]). Every stage of the merged DAG is *gated* — un-ready
    /// until its job's [`Event::JobArrival`] fires and admission control
    /// lets it through. Gating happens via `set_stage_schedulable` flips on
    /// the already-initialized ready list, never a second
    /// `init_ready_list`, so `ready_list_rebuilds == 1` holds for the whole
    /// stream.
    pub fn with_jobs(mut self, jobs: JobsRuntime) -> Self {
        assert_eq!(
            self.stages.len(),
            jobs.stage_tenants().len(),
            "JobsRuntime built for a different DAG"
        );
        for si in 0..self.stages.len() {
            if self.stages[si].ready {
                self.stages[si].ready = false;
                sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
            }
        }
        // Open-loop arrivals become first-class events up front (job-id
        // order keeps same-time arrivals deterministic); closed-loop
        // (`AfterJob`) arrivals are scheduled when their predecessor
        // leaves the system.
        for j in 0..jobs.num_jobs() as u32 {
            if let ArrivalSpec::Open { at } = jobs.spec(j).arrival {
                self.queue.push(at, Event::JobArrival { job: j });
            }
        }
        self.jobs = Some(jobs);
        self
    }

    /// Record one event at the current simulation time. Callers check
    /// `self.trace_on` first so the disabled path never constructs events.
    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        self.sink.record(self.now, ev);
    }

    /// Offer `b` (`mb` MiB) to `exec`'s cache: the one admission path
    /// (DESIGN.md §34). The policy's capacity victims leave through
    /// [`Self::uncache`]; an admitted block enters the locality index, and
    /// `prefetched` when the prefetcher brought it. Returns whether `b`
    /// was admitted.
    fn cache_insert(&mut self, exec: ExecId, b: BlockId, mb: f64, prefetched: bool) -> bool {
        let (evicted, admitted) = match self.bms.try_insert(exec, b, mb, self.now, &self.profile) {
            InsertOutcome::Inserted { evicted } => (evicted, true),
            InsertOutcome::Rejected { evicted } => (evicted, false),
            InsertOutcome::AlreadyCached => return false,
        };
        for e in evicted {
            // Victims dropped before the policy gave up stay dropped (as
            // in Spark), but a rejected insert's victims keep their stale
            // index entry: the golden-pinned artifact of DESIGN.md §9,
            // which ROADMAP item 8(b) retires by passing `true` here.
            self.uncache(exec, e, EvictReason::Capacity, admitted);
        }
        if !admitted {
            return false;
        }
        self.metrics.cache.insertions += 1;
        self.data.add_cached(b, exec);
        if prefetched {
            self.prefetched[exec.index()].insert(b);
        }
        if self.trace_on {
            self.trace(TraceEvent::CacheAdmit {
                block: b,
                exec: exec.0,
                mb,
                policy: self.bms[exec.index()].policy_name(),
                refcount: self.profile.lrc_count(b),
                prefetched,
            });
        }
        true
    }

    /// Record that `exec`'s BlockManager let `b` go, for `reason`: the one
    /// removal path besides `block_loss`, whose trace event differs
    /// (DESIGN.md §34). Counts it in the ledger, drops its index entry
    /// when `unindex`, forgets it was prefetched, queues it for the
    /// lineage check when faults are on, and traces it.
    fn uncache(&mut self, exec: ExecId, b: BlockId, reason: EvictReason, unindex: bool) {
        let cache = &mut self.metrics.cache;
        *match reason {
            EvictReason::Capacity => &mut cache.evictions,
            EvictReason::Proactive => &mut cache.proactive_evictions,
            EvictReason::Fault => &mut cache.lost,
        } += 1;
        if unindex {
            self.data.remove_cached(b, exec);
        }
        self.prefetched[exec.index()].remove(&b);
        if self.faults.enabled() {
            self.lost_pending.push(b);
        }
        if self.trace_on {
            self.trace(TraceEvent::CacheEvict {
                block: b,
                exec: exec.0,
                policy: self.bms[exec.index()].policy_name(),
                refcount: self.profile.lrc_count(b),
                reason,
            });
        }
    }

    /// Run to completion under `sched`. Panics if the configuration can
    /// never finish (a task demand no executor can satisfy).
    pub fn run(mut self, sched: &mut dyn Scheduler) -> SimResult {
        self.run_events(sched);
        let jct = self.now;
        self.metrics.busy_cores.finish(jct);
        self.metrics.running_tasks.finish(jct);
        self.metrics.cache.resident_end = self.bms.iter().map(|bm| bm.num_resident() as u64).sum();
        let is = self.data.stats();
        self.metrics.sched.locality_queries = is.locality_queries;
        self.metrics.sched.index_invalidations = is.invalidations;
        self.metrics.sched.view_rebuilds = self.cview.rebuilds();
        self.metrics.sched.view_deltas = self.cview.deltas_applied();
        self.metrics.sched.ready_list_rebuilds = self.cview.ready_list_rebuilds();
        self.metrics.sched.inv_index_hits = is.inv_index_hits;
        self.metrics.sched.inv_index_updates = is.inv_index_updates;
        self.metrics.sched.inv_index_rebuilds = is.inv_index_rebuilds;
        SimResult {
            jct,
            metrics: self.metrics,
            total_cores: self.cfg.total_cores(),
            trace: self.sink.take_log(),
            jobs: self
                .jobs
                .take()
                .map(JobsRuntime::into_outcomes)
                .unwrap_or_default(),
        }
    }

    /// The whole event loop, from the initial stage and fault events until
    /// the last stage completes at `self.now`.
    fn run_events(&mut self, sched: &mut dyn Scheduler) {
        // Impossible-demand early diagnosis.
        for st in self.dag.stages() {
            assert!(
                self.cfg.exec_capacity.fits(st.demand),
                "stage {} demand {:?} exceeds executor capacity {:?}",
                st.id,
                st.demand,
                self.cfg.exec_capacity
            );
        }
        sched.set_tracing(self.trace_on);
        for s in self.dag.stage_ids() {
            if self.stages[s.index()].ready {
                if self.trace_on {
                    let num_tasks = self.dag.stage(s).num_tasks;
                    self.trace(TraceEvent::StageReady {
                        stage: s,
                        num_tasks,
                    });
                }
                sched.on_stage_ready(s, 0);
            }
        }
        // Compile the fault plan into first-class simulator events. With
        // `faults: None` this queues nothing and touches no RNG: the run is
        // bit-identical to one without fault support.
        if let Some(plan) = &self.cfg.faults {
            for fe in &plan.events {
                let at = fe.at.max(1);
                let ev = match fe.kind {
                    FaultKind::ExecCrash {
                        exec,
                        restart_after_ms,
                    } => Event::ExecCrash {
                        exec,
                        restart_at: restart_after_ms.map(|d| at + d),
                    },
                    FaultKind::BlockLoss { block, exec } => Event::BlockLoss { block, exec },
                };
                self.queue.push(at, ev);
            }
        }
        self.queue.push(self.cfg.sched_tick_ms.max(1), Event::Tick);
        self.do_schedule(sched);
        while self.completed_count < self.dag.num_stages() {
            let Some(t) = self.queue.peek_time() else {
                panic!(
                    "event queue drained with {} stages incomplete",
                    self.dag.num_stages() - self.completed_count
                );
            };
            assert!(
                t <= SIM_TIME_LIMIT,
                "simulation exceeded time limit; no progress possible"
            );
            self.now = t;
            while self.queue.peek_time() == Some(t) {
                let (_, ev) = self.queue.pop().unwrap();
                self.handle(ev, sched);
            }
            if self.completed_count == self.dag.num_stages() {
                break;
            }
            self.do_schedule(sched);
        }
        debug_assert!(self.running.is_empty(), "an attempt outlived the run");
    }

    fn handle(&mut self, ev: Event, sched: &mut dyn Scheduler) {
        if !matches!(ev, Event::Tick) {
            self.tick_dirty = true;
        }
        match ev {
            Event::TaskFinish { task, attempt } => {
                if let Some(ra) = self.take_live(task, attempt) {
                    self.finish_task(task, attempt, ra, sched);
                }
            }
            Event::IoDone { task, attempt } => {
                if let Some(ra) = self.running.get_mut(&(task, attempt)) {
                    if !ra.cpu_phase {
                        ra.cpu_phase = true;
                        let (exec, cpus) = (ra.exec, ra.demand.cpus);
                        self.enter_cpu_phase(exec, cpus);
                    }
                }
            }
            Event::PrefetchArrive { block, exec } => self.prefetch_arrive(block, exec),
            Event::JobArrival { job } => self.job_arrival(job, sched),
            Event::Tick => {
                if self.completed_count < self.dag.num_stages() {
                    self.queue
                        .push(self.now + self.cfg.sched_tick_ms.max(1), Event::Tick);
                    if self.cfg.speculation.is_some() {
                        self.speculation_check();
                    }
                    // Taken only after speculation, so a copy launched
                    // just now is still seen by this tick's drop pass.
                    if std::mem::take(&mut self.tick_dirty) {
                        if self.cfg.prefetch_free_frac.is_some() {
                            self.prefetch_scan();
                        }
                        self.proactive_drops();
                    } else {
                        self.quiet_ticks += 1;
                        #[cfg(debug_assertions)]
                        {
                            let quiet = self.check_quiet_tick();
                            debug_assert!(quiet, "quiet tick skipped cache work that would act");
                        }
                    }
                    if self.cfg.trace_executors {
                        self.sample_exec_traces();
                    }
                }
            }
            Event::TaskFail { task, attempt } => {
                let Some(ra) = self.take_live(task, attempt) else {
                    return;
                };
                self.fail_attempt(task, attempt, ra, AttemptEnd::Failed, sched);
                // The requeued task may need a block an *earlier* fault
                // destroyed (it had already read it when the fault hit);
                // re-close the lineage worklist before it can relaunch.
                if self.faults.enabled() {
                    self.recover_lost_blocks(sched);
                }
            }
            Event::ExecCrash { exec, restart_at } => self.exec_crash(exec, restart_at, sched),
            Event::ExecRestart { exec } => self.exec_restart(exec),
            Event::BlockLoss { block, exec } => self.block_loss(block, exec, sched),
        }
    }

    /// Pop attempt `(task, attempt)` if it is still live. `None` means its
    /// event is stale: the attempt already lost a race or died in a crash
    /// (ids are never reissued, so no relaunch can answer to the key).
    fn take_live(&mut self, task: TaskId, attempt: u32) -> Option<RunningAttempt> {
        let ra = self.running.remove(&(task, attempt));
        debug_assert!(
            ra.is_some()
                || attempt < self.tasks[task.stage.index()][task.index as usize].next_attempt,
            "event for attempt {attempt} of {task}, which was never issued"
        );
        ra
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Run the scheduler until no more assignments are produced. Each
    /// `schedule` call returns a whole batch (one per free slot); the batch
    /// is applied sequentially, but if applying an assignment changed
    /// block residency (cache insertion/eviction — detectable as an index
    /// generation bump) the rest of the batch was computed against stale
    /// locality state and is discarded, falling back to a fresh call.
    ///
    /// The executor view is *not* rebuilt here: [`ClusterView`] was kept
    /// current by the deltas every launch/teardown/fault emitted.
    fn do_schedule(&mut self, sched: &mut dyn Scheduler) {
        self.drain_lost_pending(sched);
        debug_assert!(
            self.cview.check_consistency(),
            "incremental ClusterView drifted from from-scratch rebuild"
        );
        debug_assert!(
            self.cview.check_ready_consistency(&self.stages),
            "incremental ready list drifted from stage-table scan"
        );
        debug_assert!(
            self.data.check_live_set(self.cview.ready_stages()),
            "locality index live set drifted from the ready list"
        );
        #[cfg(debug_assertions)]
        for s in 0..self.stages.len() {
            // The locality index's task sets vs a from-scratch executor
            // walk, at every scheduling opportunity. Every stage: a live
            // one must match the walk, a non-live one must hold nothing.
            debug_assert!(
                self.stages[s].pending.check_mirror(),
                "pending bitmap drifted from its membership flags (stage {s})"
            );
            debug_assert!(
                self.data.check_inv_consistency(s),
                "locality index drifted from from-scratch rebuild (stage {s})"
            );
        }
        debug_assert!(
            self.check_tasks(),
            "task table drifted from the running attempts"
        );
        debug_assert!(
            self.check_residency(),
            "cache residency drifted from the locality index or `prefetched`"
        );
        #[cfg(debug_assertions)]
        if let Some(jobs) = self.jobs.as_ref() {
            // Rebuild the per-tenant cores ledger from the authoritative
            // running-attempt map; the job/queue counters are rebuilt from
            // the state table inside `check_consistency`.
            let mut expect = vec![0u64; jobs.num_tenants()];
            for ((task, _), ra) in &self.running {
                expect[jobs.tenant_of_stage(task.stage) as usize] += u64::from(ra.demand.cpus);
            }
            debug_assert!(
                jobs.check_consistency(&expect),
                "incremental tenancy ledgers drifted from from-scratch rebuild"
            );
        }
        loop {
            self.metrics.sched.schedule_invocations += 1;
            let assignments = {
                let view = SimView {
                    now: self.now,
                    dag: &self.dag,
                    topo: &self.topo,
                    cost: &self.cfg.cost,
                    locality_wait: self.cfg.locality_wait,
                    execs: self.cview.execs(),
                    stages: &self.stages,
                    tasks: &self.task_views,
                    index: &self.data,
                    metrics: &self.metrics,
                    narrow_mb: &self.narrow_mb,
                    usable_execs: self.cview.usable_execs(),
                    exec_capacity: self.cview.exec_capacity(),
                    ready: self.cview.ready_stages(),
                    free_execs: self.cview.free_execs(),
                    tenant_cores: self.jobs.as_ref().map_or(&[], |j| j.tenant_cores()),
                    tenant_of_stage: self.jobs.as_ref().map_or(&[], |j| j.stage_tenants()),
                };
                sched.schedule(&view)
            };
            if assignments.is_empty() {
                return;
            }
            // Decision rationales, paired with assignments by index. Only
            // the applied prefix is recorded: a discarded batch tail's
            // decisions never happened.
            let decisions = if self.trace_on {
                sched.drain_decisions()
            } else {
                Vec::new()
            };
            let gen0 = self.data.generation();
            let total = assignments.len();
            let mut applied = 0usize;
            for (i, a) in assignments.into_iter().enumerate() {
                if self.data.generation() != gen0 || !self.validate(&a) {
                    self.metrics.sched.batches_discarded += 1;
                    self.metrics.sched.assignments_discarded += (total - applied) as u64;
                    break;
                }
                if self.trace_on {
                    // Schedulers without rationale support get a bare
                    // record synthesized from the assignment itself.
                    let d = decisions.get(i).copied().unwrap_or(SchedDecision {
                        stage: a.stage,
                        task_index: a.task_index,
                        exec: a.exec.0,
                        locality: a.locality.rank(),
                        allowed: a.locality.rank(),
                        ect_ms: -1.0,
                        est_ms: -1.0,
                        threshold_ms: -1.0,
                        predicted_cache_hit: a.locality == Locality::Process,
                    });
                    self.trace(TraceEvent::SchedDecision(d));
                }
                self.launch(a, false, sched);
                applied += 1;
            }
            // A launch can evict the last copy of a block a crash already
            // de-replicated; settle lineage before the next batch.
            self.drain_lost_pending(sched);
            if applied == 0 {
                return;
            }
        }
    }

    /// If any recently-evicted block is now materialized nowhere, re-run
    /// the lineage worklist. Called only between scheduler batches (never
    /// mid-application: resubmission calls `on_stage_ready`, which would
    /// reconcile a half-confirmed emit journal).
    fn drain_lost_pending(&mut self, sched: &mut dyn Scheduler) {
        if self.lost_pending.is_empty() {
            return;
        }
        let blocks = std::mem::take(&mut self.lost_pending);
        if blocks
            .iter()
            .any(|b| !self.data.on_disk_anywhere(*b) && !self.data.is_cached_anywhere(*b))
        {
            self.recover_lost_blocks(sched);
        }
    }

    fn validate(&self, a: &Assignment) -> bool {
        let st = &self.stages[a.stage.index()];
        st.ready
            && !st.completed
            && st.pending.contains(a.task_index)
            && self.faults.usable(a.exec)
            && self
                .cview
                .free_of(a.exec)
                .fits(self.dag.stage(a.stage).demand)
    }

    fn launch(&mut self, a: Assignment, speculative: bool, sched: &mut dyn Scheduler) {
        self.tick_dirty = true;
        let task = TaskId::new(a.stage, a.task_index);
        let st = self.dag.stage(a.stage);
        let demand = st.demand;
        let task_cpu_ms = st.task_cpu_ms(a.task_index);
        let task_work = st.task_work(a.task_index);
        let exec = a.exec;
        let locality = self.data.task_locality(a.stage.index(), a.task_index, exec);

        // Cache interactions + I/O time.
        let mut io_ms = 0.0f64;
        let mut pinned = Vec::new();
        let inputs = Arc::clone(&self.task_inputs[a.stage.index()][a.task_index as usize]);
        for &(b, mb) in inputs.iter() {
            let eligible = self.dag.rdd(b.rdd).cached;
            if eligible && self.cfg.trace_accesses {
                self.metrics.access_trace.push((exec.0, b));
            }
            let hit = eligible && self.bms[exec.index()].access(b, self.now);
            if hit {
                self.metrics.cache.hits += 1;
                self.metrics.cache.hit_kb += (mb * 1024.0) as u64;
                self.metrics.per_stage[a.stage.index()].cache_hits += 1;
                self.bms[exec.index()].pin(b);
                pinned.push(b);
                if self.prefetched[exec.index()].remove(&b) {
                    self.metrics.cache.prefetch_used += 1;
                }
                if self.trace_on {
                    let refcount = self.profile.lrc_count(b);
                    self.trace(TraceEvent::CacheHit {
                        block: b,
                        exec: exec.0,
                        mb,
                        refcount,
                    });
                }
                continue;
            }
            let tier = self.data.read_tier(b, exec);
            io_ms += self.cfg.cost.read_ms(mb, tier);
            if eligible {
                self.metrics.cache.misses += 1;
                self.metrics.cache.miss_kb += (mb * 1024.0) as u64;
                self.metrics.per_stage[a.stage.index()].cache_misses += 1;
                if self.trace_on {
                    let refcount = self.profile.lrc_count(b);
                    self.trace(TraceEvent::CacheMiss {
                        block: b,
                        exec: exec.0,
                        mb,
                        refcount,
                    });
                }
                if self.bms[exec.index()].caches_on_miss() && self.cache_insert(exec, b, mb, false)
                {
                    self.bms[exec.index()].pin(b);
                    pinned.push(b);
                }
            }
        }
        // Jitter models run-time variance (GC, contention); it applies to
        // the CPU phase — I/O time is already location-determined.
        let jitter = if self.cfg.duration_jitter > 0.0 {
            1.0 + self
                .rng
                .gen_range(-self.cfg.duration_jitter..=self.cfg.duration_jitter)
        } else {
            1.0
        };
        let hiccup = if self.cfg.straggler_prob > 0.0
            && self.rng.gen_bool(self.cfg.straggler_prob.clamp(0.0, 1.0))
        {
            self.cfg.straggler_factor.max(1.0)
        } else {
            1.0
        };
        let io_phase_ms = io_ms.round().max(0.0) as SimTime;
        let cpu_phase_ms = (task_cpu_ms as f64 * jitter * hiccup).round().max(1.0) as SimTime;

        // The fault die (a *separate* RNG stream — the jitter draws above
        // came from the main one) decides up front whether this attempt is
        // doomed; `None` whenever faults are disabled.
        let doom = self.faults.roll_task_failure();

        // Monotone per-task attempt ids: a stale event of a dead attempt
        // never matches a relaunch.
        let row = &mut self.tasks[a.stage.index()][a.task_index as usize];
        let attempt = row.next_attempt;
        row.next_attempt += 1;
        self.running.insert(
            (task, attempt),
            RunningAttempt {
                exec,
                start: self.now,
                demand,
                locality,
                pinned,
                speculative,
                cpu_phase: io_phase_ms == 0,
            },
        );
        self.cview.apply(ViewDelta::Consume { exec, demand });
        if let Some(jobs) = self.jobs.as_mut() {
            // Every attempt — speculative copies included — occupies real
            // cores; the fair-share ledger mirrors the cview's occupancy.
            jobs.on_cores_consumed(task.stage, demand.cpus);
        }
        self.metrics.running_tasks.add(self.now, 1.0);
        if io_phase_ms == 0 {
            self.enter_cpu_phase(exec, demand.cpus);
        } else {
            self.queue
                .push(self.now + io_phase_ms, Event::IoDone { task, attempt });
        }
        let sm = &mut self.metrics.per_stage[a.stage.index()];
        sm.first_launch.get_or_insert(self.now);
        sm.launches_by_locality[locality.index()] += 1;
        if self.trace_on {
            self.trace(TraceEvent::TaskLaunch {
                task,
                attempt,
                exec: exec.0,
                locality: locality.rank(),
                speculative,
                io_ms: io_phase_ms,
            });
        }

        if let Some(frac) = doom {
            // Die partway through the compute phase (strictly after IoDone,
            // at or before the would-be finish time).
            let fail_cpu = ((cpu_phase_ms as f64 * frac).round() as SimTime).clamp(1, cpu_phase_ms);
            self.queue.push(
                self.now + io_phase_ms + fail_cpu,
                Event::TaskFail { task, attempt },
            );
        } else {
            self.queue.push(
                self.now + io_phase_ms + cpu_phase_ms,
                Event::TaskFinish { task, attempt },
            );
        }

        if !speculative {
            let srt = &mut self.stages[a.stage.index()];
            srt.pending.remove(a.task_index);
            srt.running += 1;
            sync_ready(
                &mut self.cview,
                &mut self.data,
                &self.stages,
                a.stage.index(),
            );
            let work = task_work;
            if let Some(tracker) = &mut self.tracker {
                tracker.on_task_launched(task, work);
            }
            sched.on_task_launched(task, work, self.now);
            self.sync_priorities(sched);
        } else {
            self.metrics.speculative_launched += 1;
        }
    }

    /// Settle the winning attempt `ra` (already popped from `running`):
    /// end every other attempt of the task as a lost race, mark the task
    /// done and materialize its output.
    fn finish_task(
        &mut self,
        task: TaskId,
        attempt: u32,
        ra: RunningAttempt,
        sched: &mut dyn Scheduler,
    ) {
        let exec = ra.exec;
        self.end_attempt(task, attempt, &ra, AttemptEnd::Won);
        let dur = self.now - ra.start;
        // A success breaks the executor's consecutive-failure streak.
        self.faults.consec_failures[exec.index()] = 0;
        let sm = &mut self.metrics.per_stage[task.stage.index()];
        let slot = &mut sm.finished_by_locality[ra.locality.index()];
        slot.0 += 1;
        slot.1 += dur;
        // Kept sorted so `speculation_check` reads the median in place.
        let durs = &mut self.stage_durations[task.stage.index()];
        durs.insert(durs.partition_point(|&d| d <= dur), dur);
        if ra.speculative {
            self.metrics.speculative_won += 1;
        }

        // End every losing attempt still in flight (under retries the
        // other attempt's id is not simply `1 - attempt`; take the task's
        // key range instead).
        let losers: Vec<_> = self
            .running
            .extract_if((task, 0)..=(task, u32::MAX), |_, _| true)
            .collect();
        for ((_, other), loser) in losers {
            self.end_attempt(task, other, &loser, AttemptEnd::LostRace);
        }

        self.tasks[task.stage.index()][task.index as usize].done = true;
        let srt = &mut self.stages[task.stage.index()];
        srt.running -= 1;
        srt.finished += 1;
        let stage_complete = srt.finished == self.dag.stage(task.stage).num_tasks;

        // Remove this task's block references from the master profile.
        for &(b, _) in self.task_inputs[task.stage.index()][task.index as usize].iter() {
            self.profile.remove_use(b, task.stage);
        }

        // Materialize the output block.
        let node = self.topo.node_of_exec(exec);
        let out = BlockId::new(self.dag.stage(task.stage).output, task.index);
        if !self.data.on_disk_at(out, node) {
            self.data.add_disk(out, node);
            if self.faults.enabled() {
                // Remember whose files these are: an executor crash
                // destroys the outputs it wrote to its node's disk.
                self.outputs_by_exec[exec.index()].push(out);
            }
        }
        if self.dag.rdd(out.rdd).cached {
            self.cache_insert(exec, out, self.dag.rdd(out.rdd).block_mb, false);
        }

        if stage_complete {
            self.complete_stage(task.stage, sched);
        }
    }

    /// Mirror the stage priority values that moved since the last sync
    /// into the master's reference profile: from the scheduler when it
    /// maintains Eq. (6) (the paper's TaskScheduler feeds
    /// BlockManagerMaster), otherwise from the ground-truth tracker. Only
    /// the changed pairs are pushed (DESIGN.md §32). The first scheduler
    /// drain reports every stage, so the tracker goes at that point.
    fn sync_priorities(&mut self, sched: &mut dyn Scheduler) {
        let mut pvs = std::mem::take(&mut self.pv_buf);
        if sched.drain_stage_priorities(&mut pvs) {
            self.tracker = None;
        } else if let Some(tracker) = &mut self.tracker {
            tracker.drain_changes(&mut pvs);
        }
        self.metrics.priority_pushes += pvs.len() as u64;
        for &(s, pv) in &pvs {
            self.profile.set_pv(s, pv);
        }
        pvs.clear();
        self.pv_buf = pvs;
        #[cfg(debug_assertions)]
        debug_assert!(
            self.check_priorities(sched),
            "reference profile pv diverged from its source"
        );
    }

    /// Oracle for `sync_priorities`: every stage's profile `pv` equals its
    /// full source value, the scheduler's snapshot or else the tracker's.
    /// A scheduler without priorities after the tracker was dropped fails
    /// it: its answer must not change during a run.
    #[cfg(debug_assertions)]
    fn check_priorities(&self, sched: &dyn Scheduler) -> bool {
        match (sched.stage_priorities(), &self.tracker) {
            (Some(pvs), _) => pvs.into_iter().all(|(s, pv)| self.profile.pv(s) == pv),
            (None, Some(tracker)) => self
                .dag
                .stage_ids()
                .all(|s| self.profile.pv(s) == tracker.pv(s)),
            (None, None) => false,
        }
    }

    /// Re-derive MRD's FIFO frontier — the lowest incomplete stage id —
    /// into the master profile after stages complete, are rejected or
    /// reopen.
    fn sync_frontier(&mut self) {
        let frontier = self
            .dag
            .stage_ids()
            .find(|x| !self.stages[x.index()].completed)
            .map(|x| x.0)
            .unwrap_or(self.dag.num_stages() as u32);
        self.profile.set_frontier(frontier);
    }

    /// The one path every live attempt ends through, after its caller
    /// popped it from `running`: release its cores, cpu phase and pins,
    /// log its [`TaskRun`], then trace how it ended.
    fn end_attempt(&mut self, task: TaskId, attempt: u32, ra: &RunningAttempt, end: AttemptEnd) {
        let exec = ra.exec;
        self.cview.apply(ViewDelta::Release {
            exec,
            demand: ra.demand,
        });
        if let Some(jobs) = self.jobs.as_mut() {
            jobs.on_cores_released(task.stage, ra.demand.cpus);
        }
        if ra.cpu_phase {
            self.exec_busy_cores[exec.index()] -= ra.demand.cpus;
            self.metrics
                .busy_cores
                .add(self.now, -(ra.demand.cpus as f64));
            self.trace_busy(exec);
        }
        self.metrics.running_tasks.add(self.now, -1.0);
        for b in &ra.pinned {
            self.bms.unpin(exec, *b);
        }
        self.metrics.task_runs.push(TaskRun {
            task,
            exec,
            start: ra.start,
            end: self.now,
            locality: ra.locality,
            speculative: ra.speculative,
            winner: end == AttemptEnd::Won,
            failed: matches!(end, AttemptEnd::Failed | AttemptEnd::Killed),
        });
        if self.trace_on {
            let exec = exec.0;
            self.trace(match end {
                AttemptEnd::Won => TraceEvent::TaskFinish {
                    task,
                    attempt,
                    exec,
                    locality: ra.locality.rank(),
                },
                AttemptEnd::LostRace => TraceEvent::TaskKilled {
                    task,
                    attempt,
                    exec,
                    reason: KillReason::LostRace,
                },
                AttemptEnd::Failed => TraceEvent::TaskFail {
                    task,
                    attempt,
                    exec,
                },
                AttemptEnd::Killed => TraceEvent::TaskKilled {
                    task,
                    attempt,
                    exec,
                    reason: KillReason::ExecCrash,
                },
            });
        }
    }

    fn enter_cpu_phase(&mut self, exec: ExecId, cpus: u32) {
        self.exec_busy_cores[exec.index()] += cpus;
        self.metrics.busy_cores.add(self.now, cpus as f64);
        self.trace_busy(exec);
    }

    fn complete_stage(&mut self, s: StageId, sched: &mut dyn Scheduler) {
        if self.trace_on {
            self.trace(TraceEvent::StageComplete { stage: s });
        }
        self.stages[s.index()].completed = true;
        sync_ready(&mut self.cview, &mut self.data, &self.stages, s.index());
        self.metrics.per_stage[s.index()].completed_at = Some(self.now);
        self.completed_count += 1;
        self.sync_frontier();
        sched.on_stage_complete(s, self.now);
        // Children whose parents are now all complete become ready. (The
        // completed-guard matters only under lineage recovery: a child may
        // have finished before its resubmitted parent re-completed.)
        let mut newly_ready: Vec<StageId> = Vec::new();
        for &c in self.dag.children(s) {
            if !self.stages[c.index()].ready
                && !self.stages[c.index()].completed
                && self
                    .dag
                    .parents(c)
                    .iter()
                    .all(|p| self.stages[p.index()].completed)
            {
                self.stages[c.index()].ready = true;
                sync_ready(&mut self.cview, &mut self.data, &self.stages, c.index());
                sched.on_stage_ready(c, self.now);
                if self.trace_on {
                    newly_ready.push(c);
                }
            }
        }
        for c in newly_ready {
            self.trace(TraceEvent::StageReady {
                stage: c,
                num_tasks: self.dag.stage(c).num_tasks,
            });
        }
        self.proactive_drops();
        // Online mode: the stage's job may be finished, which frees
        // admission slots and triggers closed-loop successors.
        if self.jobs.is_some() {
            let job = self.jobs.as_ref().unwrap().job_of_stage(s);
            if self.jobs.as_mut().unwrap().on_stage_complete(job, self.now) {
                self.schedule_departure_successors(job);
                let admitted = self.jobs.as_mut().unwrap().admit_queued(self.now);
                for j in admitted {
                    self.admit_job(j, sched);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Online multi-tenant mode (dynamic job admission)
    // ------------------------------------------------------------------

    /// A job's arrival event fired: run admission control and act on the
    /// decision.
    fn job_arrival(&mut self, job: u32, sched: &mut dyn Scheduler) {
        let decision = self
            .jobs
            .as_mut()
            .expect("JobArrival event without an installed JobsRuntime")
            .on_arrival(job, self.now);
        match decision {
            AdmissionDecision::Admitted => self.admit_job(job, sched),
            AdmissionDecision::Queued => {}
            AdmissionDecision::Rejected => self.reject_job(job),
        }
    }

    /// Un-gate an admitted job: its root stages (parents already complete
    /// — shared parents can pre-exist in the merged DAG) become ready and
    /// are offered to the scheduler.
    fn admit_job(&mut self, job: u32, sched: &mut dyn Scheduler) {
        let stages = self.jobs.as_ref().unwrap().spec(job).stages.clone();
        for s in stages {
            let si = s.index();
            if self.stages[si].ready || self.stages[si].completed {
                continue;
            }
            if self
                .dag
                .parents(s)
                .iter()
                .all(|p| self.stages[p.index()].completed)
            {
                self.stages[si].ready = true;
                sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
                if self.trace_on {
                    let num_tasks = self.dag.stage(s).num_tasks;
                    self.trace(TraceEvent::StageReady {
                        stage: s,
                        num_tasks,
                    });
                }
                sched.on_stage_ready(s, self.now);
            }
        }
    }

    /// Admission bounced the job (full queue): retire its stages without
    /// running them — completed-without-timestamp, reference profile
    /// cleaned up — so the run-loop's completion count still converges.
    /// Closed-loop successors still fire (a think-time client retries
    /// after a rejection; otherwise its whole chain would deadlock).
    fn reject_job(&mut self, job: u32) {
        let stages = self.jobs.as_ref().unwrap().spec(job).stages.clone();
        for s in stages {
            let si = s.index();
            debug_assert!(!self.stages[si].ready && !self.stages[si].completed);
            self.stages[si].completed = true;
            sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
            self.completed_count += 1;
            for k in 0..self.dag.stage(s).num_tasks {
                for &(b, _) in self.task_inputs[si][k as usize].iter() {
                    self.profile.remove_use(b, s);
                }
            }
        }
        self.sync_frontier();
        self.schedule_departure_successors(job);
    }

    /// Schedule the closed-loop arrivals waiting on `job` leaving the
    /// system (completion or rejection), each after its think time.
    fn schedule_departure_successors(&mut self, job: u32) {
        let succs = self.jobs.as_ref().unwrap().successors_of(job).to_vec();
        for (next, think_ms) in succs {
            self.queue
                .push(self.now + think_ms, Event::JobArrival { job: next });
        }
    }

    // ------------------------------------------------------------------
    // Caching machinery
    // ------------------------------------------------------------------

    /// Proactive eviction, driven by the blocks whose drop standing moved
    /// since the last pass (DESIGN.md §22). A crossed stage expands into
    /// the blocks its unfinished tasks read: a use entry is one
    /// unfinished reading task, so no other block lists the stage. The
    /// index's cached-executor row names the executors a changed block
    /// may sit on.
    fn proactive_drops(&mut self) {
        let mut victims = std::mem::take(&mut self.drop_victims);
        let (task_inputs, tasks) = (&self.task_inputs, &self.tasks);
        let data = &self.data;
        let visited = self.drop_pass.run(
            &mut self.bms,
            &mut self.profile,
            |s, out| {
                let si = s.index();
                for (inputs, row) in task_inputs[si].iter().zip(&tasks[si]) {
                    if !row.done {
                        out.extend(inputs.iter().map(|&(b, _)| b));
                    }
                }
            },
            |b, out| out.extend(data.cached_execs(b).map(|e| (e.0, b))),
            &mut victims,
        );
        self.metrics.drop_execs_visited += visited as u64;
        #[cfg(debug_assertions)]
        for i in 0..self.bms.len() {
            let idle = self.bms[i].check_sweep_idle(&self.profile);
            debug_assert!(idle, "drop pass left a victim on exec {i}");
            debug_assert!(
                self.bms[i].check_unpinned(),
                "evictable list drifted on exec {i}"
            );
        }
        if !victims.is_empty() {
            self.tick_dirty = true;
        }
        for &(e, v) in &victims {
            self.uncache(ExecId(e), v, EvictReason::Proactive, true);
        }
        victims.clear();
        self.drop_victims = victims;
    }

    /// Oracle for the cache-transition path (DESIGN.md §34): on every
    /// executor, each resident block is in the index's cached row, and
    /// each `prefetched` block is resident. The row may hold more: a
    /// rejected insert's victims keep their entry until ROADMAP item 8(b).
    fn check_residency(&self) -> bool {
        self.bms
            .iter()
            .zip(&self.prefetched)
            .enumerate()
            .all(|(i, (bm, pre))| {
                let exec = ExecId(i as u32);
                bm.resident_blocks()
                    .into_iter()
                    .all(|b| self.data.is_cached_in(b, exec))
                    && pre.iter().all(|&b| bm.contains(b))
            })
    }

    /// Oracle for one prefetch evaluation on executor `i`: `pick` is the
    /// first block of the node's full ranking `order` that fits the
    /// executor's free cache space (`None` when none fits).
    #[cfg(debug_assertions)]
    fn check_prefetch_pick(&self, i: usize, order: &[BlockId], pick: Option<BlockId>) -> bool {
        let free = self.bms[i].free_mb();
        pick == order
            .iter()
            .copied()
            .find(|b| self.dag.rdd(b.rdd).block_mb <= free)
    }

    /// Oracle for the task table against `running` and the stage table:
    /// every live attempt was issued and belongs to a task that is neither
    /// done nor pending (so a done task has no live attempt), and each
    /// stage's `running` counts its tasks with a live attempt.
    fn check_tasks(&self) -> bool {
        let mut live = vec![0u32; self.stages.len()];
        let mut prev = None;
        for &(task, attempt) in self.running.keys() {
            let si = task.stage.index();
            let row = &self.tasks[si][task.index as usize];
            if attempt >= row.next_attempt
                || row.done
                || self.stages[si].pending.contains(task.index)
            {
                return false;
            }
            if prev != Some(task) {
                live[si] += 1;
                prev = Some(task);
            }
        }
        self.stages
            .iter()
            .zip(&live)
            .all(|(st, &n)| st.running == n)
    }

    /// Oracle for a tick that took `tick_dirty` clear: no drop change or
    /// candidate transition is waiting, and every executor that
    /// `prefetch_scan` would evaluate finds no candidate in its node's
    /// full ranking that fits its free space.
    #[cfg(debug_assertions)]
    fn check_quiet_tick(&mut self) -> bool {
        if self.profile.has_changes()
            || self.profile.has_live_flips()
            || self.data.has_candidate_flips()
            || self.bms.has_fresh()
        {
            return false;
        }
        let (Some(threshold), Some(cands)) =
            (self.cfg.prefetch_free_frac, self.prefetch_cands.take())
        else {
            return true;
        };
        let mut order = Vec::new();
        let mut idle = true;
        for (node, execs) in self.topo.node_execs.iter().enumerate() {
            if cands.node(node).is_empty() {
                continue;
            }
            for &exec in execs {
                let i = exec.index();
                if !self.faults.usable_idx(i)
                    || self.prefetch_inflight[i].is_some()
                    || self.bms[i].free_frac() < threshold
                {
                    continue;
                }
                self.bms[i].prefetch_order(cands.node(node), &self.profile, &mut order);
                idle &= self.check_prefetch_pick(i, &order, None);
            }
        }
        self.prefetch_cands = Some(cands);
        idle
    }

    /// Start a prefetch on every executor whose free space crossed the
    /// threshold and whose node has a candidate that fits (DESIGN.md
    /// §27): per node, one `prefetch_pick` per size class, then per
    /// executor the [`fitting_pick`] among those winners. Candidates and
    /// residency cannot move mid-scan (insertions happen at
    /// `PrefetchArrive`), so one node's winners serve all its executors.
    /// Executors are visited in ascending id order (nodes hold
    /// consecutive ids): same-time `PrefetchArrive` events fire in
    /// insertion order.
    fn prefetch_scan(&mut self) {
        let (Some(threshold), Some(mut cands)) =
            (self.cfg.prefetch_free_frac, self.prefetch_cands.take())
        else {
            return;
        };
        cands.sync(&mut self.data, &mut self.profile);
        debug_assert!(
            cands.check_all_nodes(&self.dag, &self.data, &self.profile),
            "prefetch candidate lists differ from a fresh filter"
        );
        let mut winners = std::mem::take(&mut self.prefetch_buf);
        for (node, execs) in self.topo.node_execs.iter().enumerate() {
            if cands.node(node).is_empty() {
                continue;
            }
            let mut picked = false;
            for &exec in execs {
                let i = exec.index();
                if !self.faults.usable_idx(i) {
                    continue; // dead/blacklisted executors don't prefetch
                }
                if self.prefetch_inflight[i].is_some() {
                    continue;
                }
                if self.bms[i].free_frac() < threshold {
                    continue;
                }
                if !picked {
                    picked = true;
                    let (bm, profile) = (&mut self.bms[i], &self.profile);
                    winners.clear();
                    winners.extend(
                        cands
                            .classes(node)
                            .filter_map(|c| bm.prefetch_pick(c, profile)),
                    );
                }
                let (bm, profile, dag) = (&mut self.bms[i], &self.profile, &self.dag);
                let free = bm.free_mb();
                let pick = fitting_pick(
                    &winners,
                    |b| dag.rdd(b.rdd).block_mb <= free,
                    |w| bm.prefetch_pick(w, profile),
                );
                #[cfg(debug_assertions)]
                {
                    let mut order = Vec::new();
                    self.bms[i].prefetch_order(cands.node(node), &self.profile, &mut order);
                    debug_assert!(
                        self.check_prefetch_pick(i, &order, pick),
                        "size-class prefetch pick on exec {i} differs from the ranking's first fit"
                    );
                }
                let Some(b) = pick else {
                    continue;
                };
                let mb = self.dag.rdd(b.rdd).block_mb;
                self.prefetch_inflight[i] = Some(b);
                self.metrics.cache.prefetches += 1;
                let dt = self
                    .cfg
                    .cost
                    .read_ms(mb, ReadTier::NodeDisk)
                    .round()
                    .max(1.0) as SimTime;
                self.queue
                    .push(self.now + dt, Event::PrefetchArrive { block: b, exec });
            }
        }
        self.prefetch_buf = winners;
        self.prefetch_cands = Some(cands);
    }

    fn prefetch_arrive(&mut self, block: BlockId, exec: ExecId) {
        let i = exec.index();
        // Stale arrival: the executor crashed (clearing its in-flight slot)
        // after this transfer started — and may have restarted and begun a
        // different prefetch since. Only the transfer the slot still
        // describes may land.
        if self.prefetch_inflight[i] != Some(block) {
            return;
        }
        self.prefetch_inflight[i] = None;
        let mb = self.dag.rdd(block.rdd).block_mb;
        // Insert only into genuinely free space: prefetch never evicts.
        // An already-resident block is a no-op in `cache_insert`.
        if self.bms[i].free_mb() >= mb && self.profile.is_live(block) {
            self.cache_insert(exec, block, mb, true);
        }
    }

    // ------------------------------------------------------------------
    // Speculation (§IV)
    // ------------------------------------------------------------------

    fn speculation_check(&mut self) {
        let spec = self.cfg.speculation.unwrap();
        let mut to_launch: Vec<Assignment> = Vec::new();
        // `running` is keyed `(TaskId, attempt)` and `TaskId` orders
        // stage-first, so the running stages come out in stage order by
        // range jumps, each with its attempts in (task index, attempt)
        // order. That order is canonical: the launches below consume
        // resources and the RNG stream in it.
        let mut next = self.running.keys().next().map(|(t, _)| t.stage);
        while let Some(s) = next {
            let last = (TaskId::new(s, u32::MAX), u32::MAX);
            next = self
                .running
                .range((Excluded(last), Unbounded))
                .next()
                .map(|((t, _), _)| t.stage);
            let st = self.dag.stage(s);
            let srt = &self.stages[s.index()];
            if srt.completed || srt.running == 0 {
                continue;
            }
            let needed = (spec.quantile * st.num_tasks as f64).ceil() as u32;
            if srt.finished < needed.max(1) {
                continue;
            }
            let durs = &self.stage_durations[s.index()];
            if durs.is_empty() {
                continue;
            }
            debug_assert!(durs.is_sorted(), "stage {s} durations unsorted");
            let med = durs[durs.len() / 2] as f64;
            let threshold = spec.multiplier * med;
            // Primaries are `!speculative` (attempt ids are not fixed
            // under retries).
            let attempts = self.running.range((TaskId::new(s, 0), 0)..=last);
            for ((task, _), ra) in attempts.filter(|(_, ra)| !ra.speculative) {
                let task = *task;
                if self.tasks[s.index()][task.index as usize].speculated
                    || (self.now - ra.start) as f64 <= threshold
                {
                    continue;
                }
                // Pick the best-locality executor with room, excluding the
                // one already running the primary attempt. Stage demands
                // always include a cpu, so only the free list (ascending,
                // as the full walk was) can fit one.
                let mut best: Option<(Locality, u32, ExecId)> = None;
                for &e in self.cview.free_execs() {
                    let exec = ExecId(e);
                    if exec == ra.exec
                        || !self.faults.usable_idx(e as usize)
                        || !self.cview.free_of(exec).fits(st.demand)
                    {
                        continue;
                    }
                    let l = self.data.task_locality(s.index(), task.index, exec);
                    let free = self.cview.free_of(exec).cpus;
                    if best.is_none_or(|(bl, bf, _)| l < bl || (l == bl && free > bf)) {
                        best = Some((l, free, exec));
                    }
                }
                if let Some((l, _, exec)) = best {
                    to_launch.push(Assignment {
                        stage: s,
                        task_index: task.index,
                        exec,
                        locality: l,
                    });
                }
            }
        }
        for a in to_launch {
            // Candidates were collected against a snapshot of `exec_free`;
            // earlier launches in this very loop may have consumed the last
            // slot. Fault-free lineups keep the historical (golden-pinned)
            // behavior, where such a transient over-subscription is absorbed
            // by the saturating ledger; with crashes shrinking the pool the
            // collision becomes routine and corrupts free-resource
            // accounting, so re-check and skip without burning the task's
            // speculation shot — it can re-arm on the next sweep.
            if self.faults.enabled()
                && !self
                    .cview
                    .free_of(a.exec)
                    .fits(self.dag.stage(a.stage).demand)
            {
                continue;
            }
            self.tasks[a.stage.index()][a.task_index as usize].speculated = true;
            // Speculative launches bypass the scheduler; a no-op scheduler
            // reference is not available here, so use a tiny shim.
            struct Nop;
            impl Scheduler for Nop {
                fn name(&self) -> String {
                    "nop".into()
                }
                fn schedule(&mut self, _v: &SimView<'_>) -> Vec<Assignment> {
                    Vec::new()
                }
            }
            self.launch(a, true, &mut Nop);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// End a live attempt that died (`Failed`: an injected task failure;
    /// `Killed`: an executor crash), already popped from `running`, and
    /// re-offer the task to the scheduler unless another attempt of it
    /// survives.
    fn fail_attempt(
        &mut self,
        task: TaskId,
        attempt: u32,
        ra: RunningAttempt,
        end: AttemptEnd,
        sched: &mut dyn Scheduler,
    ) {
        let exec = ra.exec;
        self.end_attempt(task, attempt, &ra, end);
        if end == AttemptEnd::Failed {
            self.metrics.faults.task_failures += 1;
            // Bounded retry (spark.task.maxFailures): executor-loss kills
            // are the machine's fault and don't count against the task.
            let row = &mut self.tasks[task.stage.index()][task.index as usize];
            row.retries += 1;
            let (retries, max) = (row.retries, self.faults.max_task_retries());
            if retries > max {
                panic!(
                    "job aborted: task {task} failed {retries} times (max_task_retries = {max})"
                );
            }
            // Consecutive failures blacklist the executor — but never the
            // last usable one.
            let after = self.faults.blacklist_after();
            let ei = exec.index();
            self.faults.consec_failures[ei] += 1;
            if after > 0
                && self.faults.consec_failures[ei] >= after
                && !self.faults.blacklisted[ei]
                && self.faults.usable_count() > 1
            {
                self.faults.blacklisted[ei] = true;
                self.metrics.faults.execs_blacklisted += 1;
                if self.trace_on {
                    self.trace(TraceEvent::ExecBlacklisted { exec: exec.0 });
                }
                // Was alive and not blacklisted → this flips usability.
                self.cview.apply(ViewDelta::ExecDown { exec });
            }
        } else {
            self.metrics.faults.attempts_killed += 1;
        }
        // Re-offer only when no other attempt of this task is in flight —
        // a surviving attempt (primary or speculative) carries on alone.
        let has_other = self
            .running
            .range((task, 0)..=(task, u32::MAX))
            .next()
            .is_some();
        if !has_other {
            self.requeue_task(task, sched);
        }
    }

    /// Put a task whose last live attempt died back into the pending set
    /// and restore its work to the scheduler-side accounting.
    fn requeue_task(&mut self, task: TaskId, sched: &mut dyn Scheduler) {
        let srt = &mut self.stages[task.stage.index()];
        // A task with a live attempt is never pending (`check_tasks`).
        let requeued = srt.pending.insert(task.index);
        debug_assert!(requeued, "{task} was pending with a live attempt");
        // One in-flight slot was accounted for this task (the primary's,
        // inherited by the speculative copy if the primary died first).
        srt.running -= 1;
        sync_ready(
            &mut self.cview,
            &mut self.data,
            &self.stages,
            task.stage.index(),
        );
        self.tasks[task.stage.index()][task.index as usize].speculated = false;
        let work = self.dag.stage(task.stage).task_work(task.index);
        if let Some(tracker) = &mut self.tracker {
            tracker.on_task_requeued(task, work);
        }
        sched.on_task_requeued(task, work, self.now);
        self.sync_priorities(sched);
    }

    fn exec_crash(&mut self, exec: ExecId, restart_at: Option<SimTime>, sched: &mut dyn Scheduler) {
        let i = exec.index();
        if !self.faults.alive[i] {
            // Already down; still honor a scheduled restart.
            if let Some(t) = restart_at {
                self.queue
                    .push(t.max(self.now + 1), Event::ExecRestart { exec });
            }
            return;
        }
        let was_usable = self.faults.usable_idx(i);
        self.faults.alive[i] = false;
        if was_usable {
            // A blacklisted executor was already zeroed in the view.
            self.cview.apply(ViewDelta::ExecDown { exec });
        }
        self.metrics.faults.exec_crashes += 1;
        if self.trace_on {
            self.trace(TraceEvent::ExecCrash { exec: exec.0 });
        }
        // 1. Every attempt running there dies, in key order. Leaving
        //    `running` makes their queued finish/fail events stale.
        let victims: Vec<_> = self
            .running
            .extract_if(.., |_, ra| ra.exec == exec)
            .collect();
        for ((task, attempt), ra) in victims {
            self.fail_attempt(task, attempt, ra, AttemptEnd::Killed, sched);
        }
        // 2. The executor's cache dies with it, and its in-flight
        //    prefetch arrival goes stale.
        for b in self.bms[i].crash_clear() {
            self.uncache(exec, b, EvictReason::Fault, true);
        }
        debug_assert!(
            self.prefetched[i].is_empty(),
            "a prefetched block outlived its executor's cache"
        );
        self.prefetch_inflight[i] = None;
        // 3. Output/shuffle files this executor wrote to its node's disk
        //    are gone (no external shuffle service is modeled).
        let outs = std::mem::take(&mut self.outputs_by_exec[i]);
        let node = self.topo.node_of_exec(exec);
        self.metrics.faults.disk_blocks_lost += outs.len() as u64;
        for b in &outs {
            self.data.remove_disk(*b, node);
        }
        // 4. Whatever is now unrecoverable from storage but still needed
        //    is recomputed from lineage.
        self.recover_lost_blocks(sched);
        if let Some(t) = restart_at {
            self.queue
                .push(t.max(self.now + 1), Event::ExecRestart { exec });
        }
    }

    fn exec_restart(&mut self, exec: ExecId) {
        let i = exec.index();
        if self.faults.alive[i] {
            return;
        }
        self.faults.alive[i] = true;
        self.faults.blacklisted[i] = false;
        self.faults.consec_failures[i] = 0;
        self.cview.apply(ViewDelta::ExecUp { exec });
        self.metrics.faults.exec_restarts += 1;
        if self.trace_on {
            self.trace(TraceEvent::ExecRestart { exec: exec.0 });
        }
        // All attempts were torn down at crash time, so the replacement
        // registers with full capacity and an empty cache.
        debug_assert_eq!(self.cview.free_of(exec), self.cfg.exec_capacity);
        debug_assert_eq!(self.bms[i].num_resident(), 0);
    }

    fn block_loss(&mut self, block: BlockId, exec: ExecId, sched: &mut dyn Scheduler) {
        let i = exec.index();
        if !self.faults.alive[i] || !self.bms[i].invalidate(block) {
            return; // nothing resident to lose
        }
        self.metrics.cache.lost += 1;
        self.data.remove_cached(block, exec);
        self.prefetched[i].remove(&block);
        if self.trace_on {
            self.trace(TraceEvent::BlockLost {
                block,
                exec: exec.0,
            });
        }
        // Running readers already pinned-and-read it; their stale unpins
        // at teardown are no-ops. Future readers go through recovery.
        self.recover_lost_blocks(sched);
    }

    /// Lineage recomputation: any block that (a) some not-yet-launched
    /// task of an incomplete stage still reads, and (b) survives nowhere —
    /// no disk replica, no cached copy — must be regenerated by
    /// resubmitting exactly the task that produced it. Chasing the
    /// resubmitted producers' own inputs yields the minimal transitive
    /// task set, mirroring Spark's DAGScheduler resubmitting (partial)
    /// parent stages on FetchFailed.
    fn recover_lost_blocks(&mut self, sched: &mut dyn Scheduler) {
        let mut check: Vec<(usize, u32)> = Vec::new();
        for s in 0..self.stages.len() {
            if self.stages[s].completed {
                continue;
            }
            for k in self.stages[s].pending.iter() {
                check.push((s, k));
            }
        }
        // lint: allow(hash-ordered): membership-only dedup guard, never iterated
        let mut queued: HashSet<TaskId> = HashSet::new();
        let mut resubmitted = false;
        while let Some((s, k)) = check.pop() {
            let inputs: Vec<BlockId> = self.task_inputs[s][k as usize]
                .iter()
                .map(|&(b, _)| b)
                .collect();
            for b in inputs {
                if self.data.on_disk_anywhere(b) || self.data.is_cached_anywhere(b) {
                    continue;
                }
                let Some(ps) = self.producer_of_rdd[b.rdd.index()] else {
                    debug_assert!(false, "source block {b} lost; sources are never removed");
                    continue;
                };
                let pk = b.partition;
                let pt = TaskId::new(ps, pk);
                if !queued.insert(pt) {
                    continue;
                }
                if self.tasks[ps.index()][pk as usize].done {
                    self.resubmit_task(ps, pk, sched);
                    resubmitted = true;
                    check.push((ps.index(), pk));
                } else if self.stages[ps.index()].pending.contains(pk) {
                    // Not yet (re)launched: it will regenerate the block
                    // when it runs, but its own inputs may be lost too.
                    check.push((ps.index(), pk));
                }
                // else: currently running — it already read its inputs and
                // materializes the block on finish.
            }
        }
        if resubmitted {
            self.sync_priorities(sched);
        }
    }

    /// Reopen one finished task (and, if needed, its completed stage) so
    /// the scheduler runs it again.
    fn resubmit_task(&mut self, ps: StageId, k: u32, sched: &mut dyn Scheduler) {
        let si = ps.index();
        debug_assert!(self.tasks[si][k as usize].done);
        // Reached from `drain_lost_pending` after a tick's own speculative
        // launch evicted a lost block: the profile moves with no event.
        self.tick_dirty = true;
        self.tasks[si][k as usize].done = false;
        self.stages[si].finished -= 1;
        self.metrics.faults.tasks_recomputed += 1;
        if self.trace_on {
            self.trace(TraceEvent::TaskResubmitted {
                task: TaskId::new(ps, k),
            });
        }
        let was_completed = self.stages[si].completed;
        if was_completed {
            if let Some(jobs) = self.jobs.as_mut() {
                let job = jobs.job_of_stage(ps);
                jobs.on_stage_reopened(job);
            }
            self.stages[si].completed = false;
            self.completed_count -= 1;
            self.metrics.per_stage[si].completed_at = None;
            self.metrics.faults.stage_resubmissions += 1;
            if self.trace_on {
                self.trace(TraceEvent::StageResubmitted { stage: ps });
            }
            // Incomplete children must wait for this stage again.
            for &c in self.dag.children(ps) {
                let crt = &mut self.stages[c.index()];
                if !crt.completed {
                    crt.ready = false;
                }
                sync_ready(&mut self.cview, &mut self.data, &self.stages, c.index());
            }
            // The FIFO frontier (MRD's cursor) may move backwards.
            self.sync_frontier();
        }
        let had_pending = !self.stages[si].pending.is_empty();
        let inserted = self.stages[si].pending.insert(k);
        debug_assert!(inserted);
        // The task's input reads re-enter the master's reference profile
        // (they were removed when it finished).
        for &(b, _) in self.task_inputs[si][k as usize].iter() {
            self.profile.add_use(b, ps);
        }
        let work = self.dag.stage(ps).task_work(k);
        if let Some(tracker) = &mut self.tracker {
            tracker.on_task_requeued(TaskId::new(ps, k), work);
        }
        sched.on_task_requeued(TaskId::new(ps, k), work, self.now);
        // Readiness under the *current* parent state — a parent may itself
        // be resubmitted later in this same recovery pass, which un-readies
        // this stage again.
        let ready = self
            .dag
            .parents(ps)
            .iter()
            .all(|p| self.stages[p.index()].completed);
        self.stages[si].ready = ready;
        sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
        if ready && (was_completed || !had_pending) {
            // Re-entering the schedulable set: reset delay-scheduling
            // clocks.
            sched.on_stage_ready(ps, self.now);
        }
    }

    // ------------------------------------------------------------------
    // Tracing (Fig. 4)
    // ------------------------------------------------------------------

    fn trace_busy(&mut self, exec: ExecId) {
        if let Some(tr) = self.metrics.exec_traces.get_mut(exec.index()) {
            tr.busy.push(TimePoint {
                t: self.now,
                v: self.exec_busy_cores[exec.index()] as f64,
            });
        }
    }

    fn sample_exec_traces(&mut self) {
        let n = self.metrics.exec_traces.len();
        for e in 0..n {
            let exec = ExecId(e as u32);
            let mut count = 0u32;
            for s in self.dag.stage_ids() {
                let srt = &self.stages[s.index()];
                if !srt.ready || srt.completed {
                    continue;
                }
                for k in srt.pending.iter() {
                    if self.data.task_locality(s.index(), k, exec) == Locality::Node {
                        count += 1;
                    }
                }
            }
            self.metrics.exec_traces[e]
                .pending_node_local
                .push(TimePoint {
                    t: self.now,
                    v: count as f64,
                });
        }
    }

    /// Current simulated time (for tests driving the sim manually).
    pub fn time(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmanager::NoCache;
    use crate::scheduler::GreedyFifo;
    use dagon_dag::examples::{fig1, tiny_chain};
    use dagon_dag::MIN_MS;

    fn run_tiny(dag: JobDag, cfg: ClusterConfig) -> SimResult {
        let sim = Simulation::new(dag, cfg, || Box::new(NoCache));
        sim.run(&mut GreedyFifo)
    }

    /// Admit-everything policy so fault tests can exercise cached blocks
    /// without depending on the real policies in `dagon-cache`.
    struct AdmitAll(Vec<BlockId>);

    impl CachePolicy for AdmitAll {
        fn policy_name(&self) -> &'static str {
            "admit-all"
        }
        fn on_insert(&mut self, b: BlockId, _now: SimTime) {
            self.0.push(b);
        }
        fn on_evict(&mut self, b: BlockId) {
            self.0.retain(|x| *x != b);
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            self.0.iter().find(|b| c.contains(b)).copied()
        }
    }

    fn run_cached(dag: JobDag, cfg: ClusterConfig) -> SimResult {
        let sim = Simulation::new(dag, cfg, || Box::new(AdmitAll(Vec::new())));
        sim.run(&mut GreedyFifo)
    }

    #[test]
    fn single_stage_completes_with_expected_makespan() {
        // 4 tasks × 1 core × 1000 ms on one 2-core executor = 2 waves of 2
        // (plus input disk I/O for the 64 MB scan blocks).
        let dag = tiny_chain(4, 1000);
        let res = run_tiny(dag, ClusterConfig::tiny(1, 2));
        assert!(res.jct >= 2000, "jct {}", res.jct);
        assert!(res.jct < 8000, "jct {}", res.jct);
        // All runs recorded; all winners.
        assert!(res.metrics.task_runs.iter().all(|r| r.winner));
    }

    #[test]
    fn fig1_dag_completes_on_16core_executor() {
        // Fig. 2's setting: one 16-vCPU executor. FIFO order. Makespan should
        // be near 16 minutes (paper Fig. 2a) — I/O adds a little.
        let mut cfg = ClusterConfig::tiny(1, 16);
        cfg.exec_cache_mb = 0.0;
        let res = run_tiny(fig1(), cfg);
        assert!(res.jct >= 16 * MIN_MS, "jct {} < 16min", res.jct);
        assert!(res.jct < 17 * MIN_MS, "jct {} ≥ 17min", res.jct);
        // All four stages completed in dependency order.
        for s in 0..4u32 {
            assert!(res.metrics.per_stage[s as usize].completed_at.is_some());
        }
        let t1 = res.metrics.per_stage[0].completed_at.unwrap();
        let t4 = res.metrics.per_stage[3].completed_at.unwrap();
        assert!(t1 < t4);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = ClusterConfig::tiny(3, 4);
        let a = run_tiny(tiny_chain(12, 700), cfg.clone());
        let b = run_tiny(tiny_chain(12, 700), cfg);
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.metrics.task_runs.len(), b.metrics.task_runs.len());
        for (x, y) in a.metrics.task_runs.iter().zip(&b.metrics.task_runs) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.exec, y.exec);
        }
    }

    #[test]
    fn busy_core_area_is_bounded_by_capacity() {
        let cfg = ClusterConfig::tiny(2, 4);
        let res = run_tiny(tiny_chain(8, 1000), cfg);
        let util = res.cpu_utilization();
        assert!(util > 0.0 && util <= 1.0, "util {util}");
    }

    #[test]
    #[should_panic(expected = "exceeds executor capacity")]
    fn impossible_demand_panics() {
        let mut b = dagon_dag::DagBuilder::new("big");
        let _ = b.stage("s").tasks(1).demand_cpus(64).cpu_ms(100).build();
        let dag = b.build().unwrap();
        let _ = run_tiny(dag, ClusterConfig::tiny(1, 4));
    }

    #[test]
    fn ticks_after_no_state_change_skip_the_cache_work() {
        // Minute-long tasks under 100 ms ticks: a few dozen events against
        // ~900 ticks, so nearly every tick follows no state change.
        let mut cfg = ClusterConfig::tiny(2, 2);
        cfg.prefetch_free_frac = Some(0.05);
        let mut sim = Simulation::new(tiny_chain(4, 60_000), cfg, || {
            Box::new(AdmitAll(Vec::new()))
        });
        sim.run_events(&mut GreedyFifo);
        let ticks = sim.now / sim.cfg.sched_tick_ms;
        assert!(ticks > 800, "only {ticks} ticks");
        assert!(
            sim.quiet_ticks * 10 >= ticks * 9,
            "{} of {ticks} ticks quiet",
            sim.quiet_ticks
        );
    }

    /// Prefetches any candidate, lowest block id first; never evicts.
    struct PrefetchById;

    impl CachePolicy for PrefetchById {
        fn policy_name(&self) -> &'static str {
            "prefetch-by-id"
        }
        fn victim(
            &mut self,
            _c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            None
        }
        fn prefetch_pick(&mut self, c: &[BlockId], _p: &RefProfile) -> Option<BlockId> {
            c.iter().min().copied()
        }
        fn prefetch_order(&mut self, c: &[BlockId], _p: &RefProfile, out: &mut Vec<BlockId>) {
            out.clear();
            out.extend_from_slice(c);
            out.sort_unstable();
        }
    }

    #[test]
    fn eligible_executor_with_no_fitting_candidate_keeps_ticks_quiet() {
        // One executor, one core, two minute-long tasks over 150 MiB
        // blocks and a 100 MiB cache: the executor stays above the
        // threshold, and the block whose reader has not finished stays a
        // candidate that never fits. Every quiet tick's oracle ranks it
        // and finds no fit.
        let mut b = dagon_dag::DagBuilder::new("too_big");
        let big = b.hdfs_rdd_cached("big", 2, 150.0, true);
        let _ = b
            .stage("scan")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(60_000)
            .reads_narrow(big)
            .build();
        let mut cfg = ClusterConfig::tiny(1, 1);
        cfg.exec_cache_mb = 100.0;
        cfg.prefetch_free_frac = Some(0.05);
        let mut sim = Simulation::new(b.build().unwrap(), cfg, || Box::new(PrefetchById));
        sim.run_events(&mut GreedyFifo);
        assert_eq!(sim.metrics.cache.prefetches, 0);
        let ticks = sim.now / sim.cfg.sched_tick_ms;
        assert!(ticks > 1000, "only {ticks} ticks");
        assert!(
            sim.quiet_ticks * 10 >= ticks * 9,
            "{} of {ticks} ticks quiet",
            sim.quiet_ticks
        );
    }

    #[test]
    fn rejected_insert_forgets_its_prefetched_victim() {
        // A 100 MiB cache holds a prefetched 30 MiB block and a pinned
        // 50 MiB one. An 80 MiB insert evicts the prefetched block, finds
        // no other unpinned victim and is rejected.
        let mut cfg = ClusterConfig::tiny(1, 1);
        cfg.exec_cache_mb = 100.0;
        let dag = tiny_chain(3, 1000);
        let [x, z, y] = [0, 1, 2].map(|k| BlockId::new(dag.stage(StageId(0)).output, k));
        let mut sim = Simulation::new(dag, cfg, || Box::new(AdmitAll(Vec::new())));
        let exec = ExecId(0);
        assert!(sim.cache_insert(exec, x, 30.0, true));
        assert!(sim.cache_insert(exec, z, 50.0, false));
        sim.bms[0].pin(z);
        assert!(!sim.cache_insert(exec, y, 80.0, false));
        assert_eq!(sim.metrics.cache.evictions, 1);
        assert!(!sim.bms[0].contains(x));
        assert!(
            !sim.prefetched[0].contains(&x),
            "the victim stayed prefetched"
        );
        // The victim keeps its stale index entry (DESIGN.md §9).
        assert!(sim.data.is_cached_in(x, exec));
        assert!(sim.check_residency());
        // A miss-fill of the same block is no prefetch: a hit on it must
        // not count as `prefetch_used`.
        assert!(sim.cache_insert(exec, x, 30.0, false));
        assert!(!sim.prefetched[0].contains(&x));
        assert!(sim.check_residency());
    }

    #[test]
    fn stage_metrics_record_localities() {
        let cfg = ClusterConfig::tiny(2, 8);
        let res = run_tiny(tiny_chain(6, 500), cfg);
        let total: u32 = res.metrics.per_stage[0].launches_by_locality.iter().sum();
        assert_eq!(total, 6);
    }

    // --------------------------------------------------------------
    // Fault injection & recovery
    // --------------------------------------------------------------

    use crate::fault::{FaultKind, FaultPlan};

    fn total_tasks(dag: &JobDag) -> u64 {
        dag.stages().iter().map(|s| s.num_tasks as u64).sum()
    }

    /// The structural invariants every faulty run must satisfy.
    fn assert_recovered(dag: &JobDag, res: &SimResult) {
        let m = &res.metrics;
        for (i, s) in m.per_stage.iter().enumerate() {
            assert!(s.completed_at.is_some(), "stage {i} incomplete");
        }
        // Each task completes effectively once: one winning attempt per
        // (original run + lineage recomputation).
        let winners = m.task_runs.iter().filter(|r| r.winner).count() as u64;
        assert_eq!(winners, total_tasks(dag) + m.faults.tasks_recomputed);
        assert!(m.task_runs.iter().all(|r| !(r.winner && r.failed)));
        // Cache ledger balances: every insertion is either evicted,
        // proactively dropped, destroyed by a fault, or still resident.
        assert_eq!(
            m.cache.insertions,
            m.cache.evictions + m.cache.proactive_evictions + m.cache.lost + m.cache.resident_end,
            "cache ledger imbalance"
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_none() {
        let base = run_tiny(tiny_chain(8, 500), ClusterConfig::tiny(2, 4));
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(FaultPlan::none());
        let armed = run_tiny(tiny_chain(8, 500), cfg);
        assert_eq!(base.jct, armed.jct);
        assert_eq!(base.fingerprint(), armed.fingerprint());
    }

    #[test]
    fn crash_mid_stage_requeues_and_recomputes_lost_outputs() {
        // One 2-core executor; scan (8×~1s) runs in 4 waves. Crash at 3 s
        // kills the running wave, wipes the cache and every scan output
        // written so far; the cold restart at 5 s must rerun them.
        let base = run_tiny(tiny_chain(8, 500), ClusterConfig::tiny(1, 2));
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            3000,
            FaultKind::ExecCrash {
                exec: ExecId(0),
                restart_after_ms: Some(2000),
            },
        ));
        let res = run_tiny(dag.clone(), cfg);
        let f = &res.metrics.faults;
        assert_eq!(f.exec_crashes, 1);
        assert_eq!(f.exec_restarts, 1);
        assert!(f.attempts_killed > 0, "no attempt was running at 3s");
        assert!(f.tasks_recomputed > 0, "no finished output was lost");
        assert!(res.jct >= base.jct + 2000, "{} vs {}", res.jct, base.jct);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn crash_after_stage_completion_reopens_it_via_lineage() {
        // Crash after the scan stage completed (~4.2 s) while the 5-task
        // agg stage still has pending waves: the lost cached+disk scan
        // outputs force a stage resubmission.
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            4500,
            FaultKind::ExecCrash {
                exec: ExecId(0),
                restart_after_ms: Some(2000),
            },
        ));
        let res = run_tiny(dag.clone(), cfg);
        let f = &res.metrics.faults;
        assert_eq!(f.exec_crashes, 1);
        assert!(
            f.stage_resubmissions >= 1,
            "completed scan stage was not reopened: {f:?}"
        );
        assert!(f.tasks_recomputed > 0);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn injected_task_failures_are_retried_to_completion() {
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(FaultPlan::with_task_failures(0.3, 9));
        let res = run_tiny(dag.clone(), cfg);
        assert!(res.metrics.faults.task_failures > 0);
        assert!(res.metrics.task_runs.iter().any(|r| r.failed && !r.winner));
        assert_recovered(&dag, &res);
    }

    #[test]
    #[should_panic(expected = "job aborted")]
    fn certain_failure_exhausts_retries_and_aborts() {
        let mut plan = FaultPlan::with_task_failures(1.0, 1);
        plan.max_task_retries = 2;
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(plan);
        let _ = run_tiny(tiny_chain(2, 300), cfg);
    }

    #[test]
    fn consecutive_failures_blacklist_executors_but_never_the_last() {
        let mut plan = FaultPlan::with_task_failures(0.5, 3);
        plan.blacklist_after = 1;
        plan.max_task_retries = 50;
        let mut cfg = ClusterConfig::tiny(3, 2);
        cfg.faults = Some(plan);
        let dag = tiny_chain(10, 400);
        let res = run_tiny(dag.clone(), cfg);
        let blacklisted = res.metrics.faults.execs_blacklisted;
        assert!(blacklisted >= 1, "p=0.5 produced no blacklisting");
        assert!(blacklisted <= 2, "last usable executor was blacklisted");
        assert_recovered(&dag, &res);
    }

    #[test]
    fn cached_block_loss_is_reread_from_disk() {
        // Lose a cached scan output on the only executor while the agg
        // stage still needs it: the disk replica survives, so this is a
        // cache miss, not a recomputation. Partition 4 is read by agg
        // task 4, which runs in the last wave — still cached at 4.8s.
        let dag = tiny_chain(8, 500);
        let block = BlockId::new(dag.stage(StageId(0)).output, 4);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            4800,
            FaultKind::BlockLoss {
                block,
                exec: ExecId(0),
            },
        ));
        let res = run_cached(dag.clone(), cfg);
        assert_eq!(res.metrics.cache.lost, 1, "block was not resident at 4.8s");
        assert!(res.metrics.cache.insertions > 0);
        assert_eq!(res.metrics.faults.tasks_recomputed, 0);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let plan = FaultPlan::chaos(5, 2, 8000, &tiny_chain(8, 500));
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(plan);
        let a = run_tiny(tiny_chain(8, 500), cfg.clone());
        let b = run_tiny(tiny_chain(8, 500), cfg);
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.metrics.faults, b.metrics.faults);
    }
}
