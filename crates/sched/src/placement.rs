//! Task placement within a chosen stage: native delay scheduling [Zaharia
//! et al., EuroSys'10] vs Dagon's locality-sensitivity-aware variant
//! (Alg. 2 of the paper).
//!
//! Placement state (wait clocks, the resource-offer rotation cursor) is
//! mutated *optimistically* while a batch of assignments is computed, and
//! every mutation is recorded in an undo journal. If the simulator later
//! discards part of the batch (block residency changed mid-application),
//! [`OrderedScheduler`](crate::assign::OrderedScheduler) rolls the journal
//! back to the last confirmed assignment so the re-computed picks see
//! exactly the state the one-pick-per-call sequential loop would have.

use std::collections::BTreeMap;

use dagon_cluster::{ExecId, Locality, ScheduleShadow, SimView};
use dagon_dag::{SimTime, StageEstimates, StageId};

use crate::waits::WaitClock;

/// One optimistic placement-state mutation (its prior value).
enum JournalEntry {
    /// Wait-clock of a stage before the mutation (`None` = absent).
    Clock(StageId, Option<WaitClock>),
    /// Resource-offer rotation cursor before the mutation.
    Offer(usize),
}

/// Rationale behind one successful [`Placement::pick`], captured only when
/// tracing is on. Estimate fields are `-1.0` when the placement does not
/// compute them (native delay scheduling has no Eq. 7 machinery).
#[derive(Clone, Copy, Debug)]
pub struct PlacementNote {
    /// Highest locality level the wait clock allowed at pick time.
    pub allowed: u8,
    /// Stage earliest-completion time `ect_i` (Eq. 7), sim-ms.
    pub ect_ms: f64,
    /// Estimated task duration at the picked level, sim-ms.
    pub est_ms: f64,
    /// Launch-above-allowed threshold the estimate was compared to, sim-ms.
    pub threshold_ms: f64,
}

/// Picks `(task, executor, locality)` for one stage, or `None` if the stage
/// should wait. `shadow` is the caller's view of free executor resources
/// and already-claimed tasks, maintained across a multi-assignment batch.
pub trait Placement {
    fn placement_name(&self) -> &'static str;

    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)>;

    /// A launch of `stage` at `level` was picked (optimistically; it is
    /// confirmed by the simulator, or rolled back via the journal).
    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime);

    /// A stage became pending (create its wait clock). Never called with
    /// an open journal — the batch is reconciled first.
    fn on_stage_ready(&mut self, stage: StageId, now: SimTime);

    /// Current undo-journal length (a rollback mark).
    fn journal_len(&self) -> usize;

    /// Undo every journaled mutation past `keep` (in reverse), then drop
    /// the journal: entries up to `keep` are confirmed-permanent.
    fn reconcile_journal(&mut self, keep: usize);

    /// Start (or stop) capturing a [`PlacementNote`] per successful pick.
    /// Default: ignore — rationale-free placements stay zero-overhead.
    fn set_tracing(&mut self, _on: bool) {}

    /// The note captured by the last successful `pick`, if tracing is on
    /// and this placement records rationales.
    fn take_note(&mut self) -> Option<PlacementNote> {
        None
    }
}

/// The ladder of a stage with no unclaimed pending task: `Any` alone.
const ANY_ONLY: ([Locality; 4], usize) = ([Locality::Any; 4], 1);

/// Native delay scheduling: launch strictly at or below the allowed
/// locality; otherwise leave the executor idle.
///
/// Mirrors Spark's resource-offer loop: executors are offered one at a
/// time (round-robin start so no executor is systematically favoured) and
/// each takes *its own* best pending task within the allowed level. With
/// `spark.locality.wait = 0` this scatters tasks — an executor with free
/// cores takes any pending task even when another executor could have run
/// it process-locally — exactly the behaviour the paper's Fig. 3 measures.
// lint: incremental(clocks, mutators = [allowed, on_launch, on_stage_ready, reconcile_journal], oracle = check_journal_settled)
// lint: incremental(journal, mutators = [allowed, pick, on_launch, reconcile_journal], oracle = check_journal_settled)
// lint: incremental(offer_start, mutators = [pick, reconcile_journal])
// lint: incremental(note, mutators = [pick, note_pick, set_tracing, take_note])
// lint: hotpath(pick)
pub struct NativeDelay {
    clocks: BTreeMap<StageId, WaitClock>,
    offer_start: usize,
    journal: Vec<JournalEntry>,
    tracing: bool,
    note: Option<PlacementNote>,
}

impl NativeDelay {
    pub fn new() -> Self {
        Self {
            clocks: BTreeMap::new(),
            offer_start: 0,
            journal: Vec::new(),
            tracing: false,
            note: None,
        }
    }

    /// The stage's wait-clock level and its valid locality ladder
    /// (`levels[..n]`, never empty: a stage with no unclaimed pending task
    /// gets [`ANY_ONLY`]).
    fn allowed(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> (Locality, [Locality; 4], usize) {
        let (levels, n) = match view.valid_levels(stage, shadow) {
            (_, 0) => ANY_ONLY,
            valid => valid,
        };
        self.journal
            .push(JournalEntry::Clock(stage, self.clocks.get(&stage).cloned()));
        let clock = self
            .clocks
            .entry(stage)
            .or_insert_with(|| WaitClock::new(view.now));
        let allowed = clock.allowed(view.now, &view.locality_wait, &levels[..n]);
        (allowed, levels, n)
    }

    /// Between-batch oracle: every speculative clock/offer mutation has
    /// been committed or rolled back — an un-reconciled journal entry
    /// means some batch's placement state would leak into the next one.
    fn check_journal_settled(&self) -> bool {
        self.journal.is_empty()
    }
}

impl Default for NativeDelay {
    fn default() -> Self {
        Self::new()
    }
}

impl Placement for NativeDelay {
    fn placement_name(&self) -> &'static str {
        "delay"
    }

    // lint: allow(panic-surface): the ladder length is at most 4; free-list split indices come from partition_point on that list
    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)> {
        let (allowed, levels, n) = self.allowed(stage, view, shadow);
        let valid = &levels[..n];
        let demand = view.dag.stage(stage).demand;
        // Per-executor offers (rotating start), each taking its own best
        // task within the allowed level. Only free executors are visited
        // (stage demands always include a cpu, so the view's free list is a
        // superset of every shadow-fitting executor); the circular
        // from-`offer_start` order is preserved by splitting the ascending
        // free list at the rotation point.
        let n = view.execs.len();
        self.journal.push(JournalEntry::Offer(self.offer_start));
        self.offer_start = (self.offer_start + 1) % n.max(1);
        let fe = view.free_execs;
        let p = fe.partition_point(|&e| (e as usize) < self.offer_start);
        for &ei in fe[p..].iter().chain(fe[..p].iter()) {
            let e = view.exec(ExecId(ei));
            if !shadow.fits(e.id, demand) {
                continue;
            }
            for &level in valid.iter().filter(|l| **l <= allowed) {
                if let Some(k) = view.pending_with_locality(stage, e.id, level, shadow) {
                    if self.tracing {
                        self.note = Some(PlacementNote {
                            allowed: allowed.rank(),
                            ect_ms: -1.0,
                            est_ms: -1.0,
                            threshold_ms: -1.0,
                        });
                    }
                    return Some((k, e.id, level));
                }
            }
        }
        None
    }

    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime) {
        self.journal
            .push(JournalEntry::Clock(stage, self.clocks.get(&stage).cloned()));
        if let Some(c) = self.clocks.get_mut(&stage) {
            c.on_launch(level, now);
        }
    }

    fn on_stage_ready(&mut self, stage: StageId, now: SimTime) {
        debug_assert!(
            self.check_journal_settled(),
            "stage-ready with an open batch journal"
        );
        self.clocks.insert(stage, WaitClock::new(now));
    }

    fn journal_len(&self) -> usize {
        self.journal.len()
    }

    fn reconcile_journal(&mut self, keep: usize) {
        let keep = keep.min(self.journal.len());
        for e in self.journal.drain(keep..).rev() {
            match e {
                JournalEntry::Clock(s, Some(c)) => {
                    self.clocks.insert(s, c);
                }
                JournalEntry::Clock(s, None) => {
                    self.clocks.remove(&s);
                }
                JournalEntry::Offer(prior) => self.offer_start = prior,
            }
        }
        self.journal.clear();
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.note = None;
    }

    fn take_note(&mut self) -> Option<PlacementNote> {
        self.note.take()
    }
}

/// Alg. 2: locality-sensitivity-aware delay scheduling.
///
/// Walks executors, and for each, pending tasks in ascending locality
/// order. A task *above* the allowed level is still accepted if its
/// estimated finish time (mean duration of finished tasks at that level,
/// with a mild prior before any have finished) beats the stage's earliest
/// completion time `ect_i` (Eq. 7) — i.e. launching the low-locality task
/// cannot extend the stage. This is what keeps executors busy on stages
/// that are insensitive to locality.
pub struct SensitivityAware {
    delay: NativeDelay,
    est: StageEstimates,
    /// A task is "insensitive at a level" when running there costs at most
    /// this factor over the stage's best level (§II-A: "a task with rack
    /// locality achieves approximately the same performance").
    pub insensitivity_factor: f64,
}

impl SensitivityAware {
    pub fn new(est: StageEstimates) -> Self {
        Self {
            delay: NativeDelay::new(),
            est,
            insensitivity_factor: 1.15,
        }
    }

    /// Expected duration of a stage-`stage` task at `level`: the measured
    /// mean at that level when available (the paper's estimator), otherwise
    /// the profiler's compute estimate plus the cost model's input-read
    /// time at that tier — the AppProfiler knows the DAG's block sizes.
    fn est_finish_ms(&self, stage: StageId, level: Locality, view: &SimView<'_>) -> f64 {
        if let Some(avg) = view.avg_duration_at(stage, level) {
            return avg;
        }
        use dagon_cluster::config::ReadTier;
        let tier = match level {
            Locality::Process => ReadTier::ProcessCache,
            Locality::Node => ReadTier::NodeDisk,
            Locality::Rack => ReadTier::RackRemote,
            Locality::Any => ReadTier::CrossRack,
        };
        self.est.mean_ms(stage) + view.cost.read_ms(view.narrow_input_mb(stage), tier)
    }

    /// Capture the Alg. 2 rationale for a pick that is about to be
    /// returned. No-op (and estimate-free) when tracing is off.
    fn note_pick(
        &mut self,
        stage: StageId,
        level: Locality,
        allowed: Locality,
        ect: f64,
        threshold: f64,
        view: &SimView<'_>,
    ) {
        if !self.delay.tracing {
            return;
        }
        self.delay.note = Some(PlacementNote {
            allowed: allowed.rank(),
            ect_ms: ect,
            est_ms: self.est_finish_ms(stage, level, view),
            threshold_ms: threshold,
        });
    }
}

impl Placement for SensitivityAware {
    fn placement_name(&self) -> &'static str {
        "sensitivity"
    }

    // lint: allow(panic-surface): `valid` is non-empty by construction; level indices are < 4
    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)> {
        let (allowed, levels, n) = self.delay.allowed(stage, view, shadow);
        let valid = &levels[..n];
        let demand = view.dag.stage(stage).demand;
        let fallback = self.est_finish_ms(stage, valid[0], view);
        let ect = view.earliest_completion_ms(stage, fallback, shadow);
        // A low-locality launch is harmless when (a) the stage's backlog
        // means it cannot finish sooner anyway (Eq. 7), or (b) the stage is
        // insensitive at that level (§II-A's rack ≈ node ≈ process case).
        let best_est = self.est_finish_ms(stage, valid[0], view);
        let threshold = ect.max(self.insensitivity_factor * best_est);
        // Steal admissibility is executor-independent (a pure function of
        // (stage, level, view)); resolving it once per level lifts the
        // estimate out of the executor loop.
        let mut steal_ok = [false; 4];
        for &level in valid {
            if level > allowed {
                steal_ok[level.index()] = self.est_finish_ms(stage, level, view) < threshold;
            }
        }
        // Alg. 2 line 3-12: executors outer, locality levels (ascending)
        // inner. Only free executors are visited: the ascending free list
        // matches the full ascending walk after the fits filter (a stage
        // demand always includes a cpu). Each (executor, level) pair is one
        // locality-index probe, a masked word scan that stops at its first
        // hit (DESIGN.md §29).
        for &ei in view.free_execs {
            let e = view.exec(ExecId(ei));
            if !shadow.fits(e.id, demand) {
                continue;
            }
            for &level in valid {
                if level <= allowed {
                    if let Some(k) = view.pending_with_locality(stage, e.id, level, shadow) {
                        self.note_pick(stage, level, allowed, ect, threshold, view);
                        return Some((k, e.id, level));
                    }
                    continue;
                }
                // A task whose best achievable level anywhere is exactly
                // this level has no better home to wait for: launching it
                // here can only help, whatever the wait clock says (the
                // master's block registry makes this check possible).
                if let Some(k) = view.pending_with_locality_strict(stage, e.id, level, shadow) {
                    self.note_pick(stage, level, allowed, ect, threshold, view);
                    return Some((k, e.id, level));
                }
                // Remaining candidates at this level have a better home
                // elsewhere (e.g. a busy cache-holding executor). Stealing
                // one is harmless only when the stage wouldn't finish any
                // sooner without it (Eq. 7) or is insensitive at this level
                // (§II-A's rack ≈ node ≈ process case).
                match view.pending_with_locality(stage, e.id, level, shadow) {
                    None => continue,
                    // Line 9: an unclaimed candidate the steal test rejects
                    // parks the executor.
                    Some(_) if !steal_ok[level.index()] => break,
                    Some(k) => {
                        self.note_pick(stage, level, allowed, ect, threshold, view);
                        return Some((k, e.id, level));
                    }
                }
            }
        }
        None
    }

    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime) {
        self.delay.on_launch(stage, level, now);
    }

    fn on_stage_ready(&mut self, stage: StageId, now: SimTime) {
        self.delay.on_stage_ready(stage, now);
    }

    fn journal_len(&self) -> usize {
        self.delay.journal_len()
    }

    fn reconcile_journal(&mut self, keep: usize) {
        self.delay.reconcile_journal(keep);
    }

    fn set_tracing(&mut self, on: bool) {
        self.delay.set_tracing(on);
    }

    fn take_note(&mut self) -> Option<PlacementNote> {
        self.delay.take_note()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_cluster::hdfs::DataMap;
    use dagon_cluster::view::narrow_input_table;
    use dagon_cluster::{
        CostModel, ExecView, LocalityIndex, LocalityWait, Metrics, NodeId, PendingSet,
        StageRuntime, TaskView, Topology,
    };
    use dagon_dag::{BlockId, DagBuilder, JobDag, RddId, Resources};

    /// 2 racks × 2 nodes × 1 executor; one 4-task stage. Task `k < 3`
    /// reads block `k`, on node `k`'s disk: NODE on executor `k`, RACK on
    /// its rack-mate, ANY across racks, best NODE. Task 3 has no locality
    /// block: ANY everywhere, best ANY, so it is strict at ANY.
    struct Fixture {
        dag: JobDag,
        topo: Topology,
        index: LocalityIndex,
        execs: Vec<ExecView>,
        stages: Vec<StageRuntime>,
        tasks: Vec<Vec<TaskView>>,
        metrics: Metrics,
        cost: CostModel,
        narrow_mb: Vec<f64>,
    }

    fn fixture(pending: &[u32]) -> Fixture {
        let mut b = DagBuilder::new("f");
        let src = b.hdfs_rdd("in", 4, 64.0);
        let _ = b
            .stage("s")
            .tasks(4)
            .demand_cpus(2)
            .cpu_ms(1000)
            .reads_narrow(src)
            .build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 1);
        let mut data = DataMap::default();
        for k in 0..4u32 {
            data.add_disk(BlockId::new(RddId(0), k), NodeId(k));
        }
        let tasks = vec![(0..4u32)
            .map(|k| TaskView {
                loc_blocks: if k < 3 {
                    vec![BlockId::new(RddId(0), k)]
                } else {
                    Vec::new()
                },
            })
            .collect()];
        let mut set = PendingSet::full(4);
        for k in 0..4 {
            if !pending.contains(&k) {
                set.remove(k);
            }
        }
        let index = LocalityIndex::new(&dag, &topo, &data, &tasks, &[true]);
        Fixture {
            execs: (0..4)
                .map(|i| ExecView {
                    id: ExecId(i),
                    free: Resources::new(4, 8192),
                    capacity: Resources::new(4, 8192),
                })
                .collect(),
            stages: vec![StageRuntime {
                id: StageId(0),
                ready: true,
                completed: false,
                pending: set,
                running: 0,
                finished: 0,
            }],
            metrics: Metrics::new(1, 4, false),
            narrow_mb: narrow_input_table(&dag),
            cost: CostModel::default(),
            dag,
            topo,
            index,
            tasks,
        }
    }

    /// A view at time 0 with only executor 0 free: the fresh wait clock
    /// allows NODE, so RACK and ANY are above `allowed`.
    fn view(f: &Fixture) -> SimView<'_> {
        SimView {
            now: 0,
            dag: &f.dag,
            topo: &f.topo,
            cost: &f.cost,
            locality_wait: LocalityWait::spark_default(),
            execs: &f.execs,
            stages: &f.stages,
            tasks: &f.tasks,
            index: &f.index,
            metrics: &f.metrics,
            narrow_mb: &f.narrow_mb,
            usable_execs: 4,
            exec_capacity: Resources::new(4, 8192),
            ready: &[0],
            free_execs: &[0],
            tenant_cores: &[],
            tenant_of_stage: &[],
        }
    }

    /// Executor 0's pick under Alg. 2 with the given insensitivity factor
    /// (0: no steal is admissible; huge: every steal is).
    fn pick(pending: &[u32], insensitivity_factor: f64) -> Option<(u32, ExecId, Locality)> {
        let f = fixture(pending);
        let v = view(&f);
        let mut p = SensitivityAware::new(StageEstimates::exact(&f.dag));
        p.insensitivity_factor = insensitivity_factor;
        p.set_tracing(true);
        let got = p.pick(StageId(0), &v, &ScheduleShadow::new(&v));
        if got.is_some() {
            assert_eq!(
                p.take_note().map(|n| n.allowed),
                Some(Locality::Node.rank())
            );
        }
        got
    }

    #[test]
    fn sensitivity_pick_above_allowed_takes_steals_or_parks() {
        // Strict take: task 3 has no better home, so it runs at ANY even
        // though no steal is admissible and task 2 is also ANY here.
        assert_eq!(pick(&[2, 3], 0.0), Some((3, ExecId(0), Locality::Any)));
        // Steal: task 1 is RACK here but NODE on executor 1; an
        // admissible steal takes it.
        assert_eq!(pick(&[1], 1e9), Some((1, ExecId(0), Locality::Rack)));
        // Park (Alg. 2 line 9): the rejected RACK candidate stops the
        // executor's walk before the strict ANY task 3 is reached.
        assert_eq!(pick(&[1, 3], 0.0), None);
    }
}
