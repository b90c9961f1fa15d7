//! [`SimView`]: the read-only window schedulers get into the running
//! simulation — the analogue of what Spark's `TaskSchedulerImpl` sees:
//! ready TaskSets, pending tasks and their locality per executor, free
//! executor resources, and per-stage runtime statistics.
//!
//! Locality questions are answered by the [`LocalityIndex`] (residency
//! bitsets and per-stage task sets, kept current by deltas) instead
//! of rescanning the block registry, and every pending-task query is
//! *claims-aware*: it takes a [`ScheduleShadow`] recording the
//! assignments already picked in the current batch, so one `schedule`
//! call can fill every free slot while seeing exactly the state the
//! sequential one-pick-per-call loop would have seen.

// ExecId/StageId mints from bounded enumerations; dagon-lint rule D5
// (narrow-cast) independently guards tick/size narrowing in this crate.
#![allow(clippy::cast_possible_truncation)]

use dagon_dag::{JobDag, Resources, SimTime, StageId};

use crate::config::{CostModel, LocalityWait};
use crate::event::ViewDelta;
use crate::locality::Locality;
use crate::locality_index::LocalityIndex;
use crate::metrics::Metrics;
use crate::pending::PendingSet;
use crate::topology::{ExecId, NodeId, Topology};

/// Per-executor snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecView {
    pub id: ExecId,
    pub free: Resources,
    pub capacity: Resources,
}

/// The scheduler's **persistent** window onto executor state.
///
/// Built once per run and then kept current by [`ViewDelta`]s emitted from
/// sim events (task launch/finish/fail, executor crash/restart/blacklist)
/// instead of being rebuilt from the simulator's ledgers on every
/// scheduling opportunity. Policies read the effective [`ExecView`] slice
/// without cloning. Every piece of derived state — the free-executor list
/// and the usable-executor count — is updated eagerly inside [`Self::apply`],
/// so it is current after every delta (DESIGN.md §24).
///
/// Two ledgers are kept per executor: `real_free`, the authoritative
/// resource accounting that keeps absorbing releases even while the
/// executor is down (a crash tears down its attempts *after* marking it
/// dead), and the *effective* view exposed to schedulers, which is zeroed
/// while the executor is unusable so no placement policy can target it.
// lint: incremental(execs, mutators = [apply], oracle = check_consistency)
// lint: incremental(real_free, mutators = [apply], oracle = check_consistency)
// lint: incremental(usable, mutators = [apply], oracle = check_consistency)
// lint: incremental(usable_execs, mutators = [apply], oracle = check_consistency)
// lint: incremental(free_list, mutators = [apply], oracle = check_consistency)
// lint: incremental(ready_list, mutators = [init_ready_list, set_stage_schedulable], oracle = check_ready_consistency)
// lint: incremental(stage_on, mutators = [init_ready_list, set_stage_schedulable], oracle = check_ready_consistency)
// lint: hotpath(apply, set_stage_schedulable)
#[derive(Clone, Debug)]
pub struct ClusterView {
    /// Effective per-executor views (dead/blacklisted execs zeroed).
    execs: Vec<ExecView>,
    /// Authoritative free resources, tracked through down periods.
    real_free: Vec<Resources>,
    usable: Vec<bool>,
    /// Number of `true` entries in `usable`.
    usable_execs: u32,
    capacity: Resources,
    /// Deltas applied since construction.
    deltas: u64,
    /// Full from-scratch (re)builds — O(1) per run by design.
    rebuilds: u64,
    /// Incrementally maintained schedulable-stage ids (ascending),
    /// mirrored by the membership flags in `stage_on`. Installed once by
    /// [`Self::init_ready_list`]; kept current by
    /// [`Self::set_stage_schedulable`] calls from every simulator site
    /// that mutates a stage's ready/completed/pending state.
    ready_list: Vec<u32>,
    stage_on: Vec<bool>,
    /// Full ready-list (re)builds — O(1) per run by design.
    ready_rebuilds: u64,
    /// Ascending ids of executors with effective free cpus. [`Self::apply`]
    /// inserts or removes the one executor a delta touches when it enters
    /// or leaves the free set.
    free_list: Vec<u32>,
}

impl ClusterView {
    /// Build the initial view: all executors usable and fully free.
    /// Counts as the run's one full rebuild.
    pub fn new(n_exec: usize, capacity: Resources) -> Self {
        Self {
            execs: (0..n_exec)
                .map(|i| ExecView {
                    id: ExecId(i as u32),
                    free: capacity,
                    capacity,
                })
                .collect(),
            real_free: vec![capacity; n_exec],
            usable: vec![true; n_exec],
            usable_execs: n_exec as u32,
            capacity,
            deltas: 0,
            rebuilds: 1,
            ready_list: Vec::new(),
            stage_on: Vec::new(),
            ready_rebuilds: 0,
            free_list: if capacity.cpus > 0 {
                (0..n_exec as u32).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Apply one delta. The effective view entry is updated in place; no
    /// other executor's entry is touched, and the free list moves by at
    /// most one insert or remove.
    // lint: allow(panic-surface): every index is an ExecId minted by the topology, < n_exec by construction; `pos` comes from binary_search on the list itself
    pub fn apply(&mut self, d: ViewDelta) {
        self.deltas += 1;
        let idx = match d {
            ViewDelta::Consume { exec, .. }
            | ViewDelta::Release { exec, .. }
            | ViewDelta::ExecDown { exec }
            | ViewDelta::ExecUp { exec } => exec.index(),
        };
        let was_free = self.execs[idx].free.cpus > 0;
        match d {
            ViewDelta::Consume { demand, .. } => {
                self.real_free[idx] = self.real_free[idx].minus(demand);
                if self.usable[idx] {
                    self.execs[idx].free = self.real_free[idx];
                }
            }
            ViewDelta::Release { demand, .. } => {
                self.real_free[idx] = self.real_free[idx].plus(demand);
                if self.usable[idx] {
                    self.execs[idx].free = self.real_free[idx];
                }
            }
            ViewDelta::ExecDown { .. } => {
                if self.usable[idx] {
                    self.usable_execs -= 1;
                }
                self.usable[idx] = false;
                self.execs[idx].free = Resources::ZERO;
                self.execs[idx].capacity = Resources::ZERO;
            }
            ViewDelta::ExecUp { .. } => {
                if !self.usable[idx] {
                    self.usable_execs += 1;
                }
                self.usable[idx] = true;
                self.execs[idx].free = self.real_free[idx];
                self.execs[idx].capacity = self.capacity;
            }
        }
        let now_free = self.execs[idx].free.cpus > 0;
        if now_free != was_free {
            match (self.free_list.binary_search(&(idx as u32)), now_free) {
                (Err(pos), true) => self.free_list.insert(pos, idx as u32),
                (Ok(pos), false) => {
                    self.free_list.remove(pos);
                }
                _ => debug_assert!(false, "free-list membership out of sync with free cpus"),
            }
        }
    }

    /// The effective per-executor views schedulers iterate.
    pub fn execs(&self) -> &[ExecView] {
        &self.execs
    }

    pub fn num_execs(&self) -> usize {
        self.execs.len()
    }

    /// Authoritative free resources of `e` (even while it is down).
    pub fn free_of(&self, e: ExecId) -> Resources {
        self.real_free[e.index()]
    }

    pub fn is_usable(&self, e: ExecId) -> bool {
        self.usable[e.index()]
    }

    /// Executors currently usable (not down or blacklisted).
    pub fn usable_execs(&self) -> u32 {
        self.usable_execs
    }

    /// Capacity of every usable executor (a down one has capacity zero).
    pub fn exec_capacity(&self) -> Resources {
        self.capacity
    }

    pub fn deltas_applied(&self) -> u64 {
        self.deltas
    }

    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// What a from-scratch rebuild would produce from the authoritative
    /// ledgers — the oracle the differential property test (and the
    /// debug-build assertion in the simulator) compares the incremental
    /// state against.
    pub fn rebuilt_execs(&self) -> Vec<ExecView> {
        self.real_free
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let (free, capacity) = if self.usable[i] {
                    (*f, self.capacity)
                } else {
                    (Resources::ZERO, Resources::ZERO)
                };
                ExecView {
                    id: ExecId(i as u32),
                    free,
                    capacity,
                }
            })
            .collect()
    }

    /// From-scratch free-executor scan — the free list's oracle.
    pub fn rebuilt_free_execs(&self) -> Vec<u32> {
        self.execs
            .iter()
            .filter(|e| e.free.cpus > 0)
            .map(|e| e.id.0)
            .collect()
    }

    /// Debug-build invariant: every piece of incremental state ==
    /// from-scratch.
    pub fn check_consistency(&self) -> bool {
        self.execs == self.rebuilt_execs()
            && self.free_list == self.rebuilt_free_execs()
            && self.usable_execs as usize == self.usable.iter().filter(|&&u| u).count()
    }

    /// Ascending ids of executors with free cpus.
    pub fn free_execs(&self) -> &[u32] {
        &self.free_list
    }

    // --- incremental ready list ---------------------------------------

    /// Install the initial schedulable flags (one per stage, in stage-id
    /// order). Counts as the run's one full ready-list build.
    pub fn init_ready_list(&mut self, schedulable: impl IntoIterator<Item = bool>) {
        self.stage_on = schedulable.into_iter().collect();
        self.ready_list = self
            .stage_on
            .iter()
            .enumerate()
            .filter_map(|(i, &on)| on.then_some(i as u32))
            .collect();
        self.ready_rebuilds += 1;
    }

    /// Flip stage `si`'s schedulability. No-op when the flag already
    /// matches — callers re-derive the predicate (`ready && !completed &&
    /// pending non-empty`) after every stage mutation and need not track
    /// whether it actually changed.
    // lint: allow(panic-surface): `si` is a StageId < num_stages and `pos` comes from binary_search on the list itself
    pub fn set_stage_schedulable(&mut self, si: usize, on: bool) {
        if self.stage_on[si] == on {
            return;
        }
        self.stage_on[si] = on;
        match (self.ready_list.binary_search(&(si as u32)), on) {
            (Err(pos), true) => self.ready_list.insert(pos, si as u32),
            (Ok(pos), false) => {
                self.ready_list.remove(pos);
            }
            _ => debug_assert!(false, "ready-list membership out of sync with its flag"),
        }
    }

    /// Schedulable stage ids, ascending.
    pub fn ready_stages(&self) -> &[u32] {
        &self.ready_list
    }

    pub fn ready_list_rebuilds(&self) -> u64 {
        self.ready_rebuilds
    }

    /// What a from-scratch scan of the stage table would produce — the
    /// oracle for the differential property test and the debug-build
    /// assertion at the top of every scheduling opportunity.
    pub fn rebuilt_ready_list(stages: &[StageRuntime]) -> Vec<u32> {
        stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ready && !s.completed && !s.pending.is_empty())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Debug-build invariant: incremental ready list == from-scratch scan.
    pub fn check_ready_consistency(&self, stages: &[StageRuntime]) -> bool {
        self.ready_list == Self::rebuilt_ready_list(stages)
    }
}

/// Per-stage runtime snapshot.
#[derive(Clone, Debug)]
pub struct StageRuntime {
    pub id: StageId,
    /// Parents complete, stage not yet complete.
    pub ready: bool,
    pub completed: bool,
    /// Task indices not yet launched (primary attempts).
    pub pending: PendingSet,
    /// Primary attempts currently running.
    pub running: u32,
    pub finished: u32,
}

/// Static per-task info the view exposes.
#[derive(Clone, Debug)]
pub struct TaskView {
    /// Blocks that define the task's locality preference (narrow inputs).
    pub loc_blocks: Vec<dagon_dag::BlockId>,
}

/// The scheduler's working state for one assignment batch: the resources
/// and tasks it has already claimed. Pending queries subtract the claims,
/// so each pick in a batch sees the same state it would have seen had the
/// previous picks already been applied.
///
/// Resources are an overlay on the view, not a copy of it: `used[e]` is
/// the sum of the batch's claims on executor `e`, and [`Self::fits`] reads
/// `view.execs[e].free.minus(used[e])`. Saturating subtraction composes
/// (`(f − a) − b = f − (a + b)` for non-negative `a`, `b`), so that equals
/// subtracting each claim in turn from a copied free vector, without the
/// per-batch copy: [`Self::reset`] zeroes only the executors the last
/// batch claimed on (DESIGN.md §30).
#[derive(Clone, Debug, Default)]
pub struct ScheduleShadow {
    /// Per executor: the resources the batch's claims hold on it.
    used: Vec<Resources>,
    /// Executors with a non-zero `used` entry, each once.
    used_on: Vec<u32>,
    /// Count of executors with free shadow cpus, maintained by `claim` so
    /// [`Self::any_free`] is O(1) instead of a per-pick executor scan.
    n_free: usize,
    claimed_count: Vec<u32>,
    claimed_bits: Vec<Vec<u64>>,
    touched: Vec<u32>,
}

impl ScheduleShadow {
    pub fn new(view: &SimView<'_>) -> Self {
        Self {
            used: vec![Resources::ZERO; view.execs.len()],
            used_on: Vec::new(),
            n_free: view.free_execs.len(),
            claimed_count: vec![0; view.stages.len()],
            claimed_bits: vec![Vec::new(); view.stages.len()],
            touched: Vec::new(),
        }
    }

    /// Reset for a new batch against a fresh view (reuses allocations;
    /// only executors and stages claimed on last batch are cleared).
    pub fn reset(&mut self, view: &SimView<'_>) {
        for &e in &self.used_on {
            self.used[e as usize] = Resources::ZERO;
        }
        self.used_on.clear();
        debug_assert!(
            self.used.iter().all(|u| *u == Resources::ZERO),
            "shadow claims survived a reset"
        );
        self.n_free = view.free_execs.len();
        for &s in &self.touched {
            self.claimed_count[s as usize] = 0;
            for w in &mut self.claimed_bits[s as usize] {
                *w = 0;
            }
        }
        self.touched.clear();
    }

    /// Record a pick: add the stage demand to the executor's claimed
    /// resources and mark the task claimed.
    pub fn claim(&mut self, view: &SimView<'_>, s: StageId, k: u32, e: ExecId) {
        let demand = view.dag.stage(s).demand;
        let free = view.execs[e.index()].free;
        let used = &mut self.used[e.index()];
        let had_cpus = free.minus(*used).cpus > 0;
        if *used == Resources::ZERO {
            self.used_on.push(e.0);
        }
        *used = used.plus(demand);
        if had_cpus && free.minus(*used).cpus == 0 {
            self.n_free -= 1;
        }
        let si = s.index();
        if self.claimed_count[si] == 0 {
            self.touched.push(s.0);
        }
        let bits = &mut self.claimed_bits[si];
        if bits.is_empty() {
            bits.resize(view.tasks[si].len().div_ceil(64).max(1), 0);
        }
        bits[(k / 64) as usize] |= 1 << (k % 64);
        self.claimed_count[si] += 1;
    }

    pub fn claimed_count(&self, s: StageId) -> u32 {
        self.claimed_count[s.index()]
    }

    /// Claim bitset of a stage (empty slice = no claims).
    pub fn claim_bits(&self, s: StageId) -> &[u64] {
        &self.claimed_bits[s.index()]
    }

    /// Does `demand` fit in what the batch's claims leave of `e`'s free
    /// resources in `view` (the view this batch was reset against)?
    pub fn fits(&self, view: &SimView<'_>, e: ExecId, demand: Resources) -> bool {
        view.execs[e.index()]
            .free
            .minus(self.used[e.index()])
            .fits(demand)
    }

    pub fn any_free(&self) -> bool {
        self.n_free > 0
    }
}

/// The scheduler's window into the simulation. Construct-by-borrow: cheap,
/// created fresh for every `schedule` call.
pub struct SimView<'a> {
    pub now: SimTime,
    pub dag: &'a JobDag,
    pub topo: &'a Topology,
    pub cost: &'a CostModel,
    pub locality_wait: LocalityWait,
    pub execs: &'a [ExecView],
    pub stages: &'a [StageRuntime],
    pub tasks: &'a [Vec<TaskView>],
    pub index: &'a LocalityIndex,
    pub metrics: &'a Metrics,
    /// Per-stage narrow-input MiB, precomputed once per run (see
    /// [`narrow_input_table`]) — static data, recomputing it inside every
    /// `est_finish_ms` call was a measured hot-path cost.
    pub narrow_mb: &'a [f64],
    /// Executors currently usable (see [`ClusterView::usable_execs`]).
    pub usable_execs: u32,
    /// Capacity of every usable executor; a down one has capacity zero.
    pub exec_capacity: Resources,
    /// Schedulable stage ids, ascending — the [`ClusterView`]'s
    /// incrementally maintained ready list.
    pub ready: &'a [u32],
    /// Ascending ids of executors with free cpus — the [`ClusterView`]'s
    /// eagerly maintained free list.
    pub free_execs: &'a [u32],
    /// Per-tenant vCPUs currently consumed by running attempts — the
    /// hierarchical fair-share signal. Empty outside online multi-tenant
    /// mode (no [`crate::jobs::JobsRuntime`] installed).
    pub tenant_cores: &'a [u64],
    /// stage → owning tenant (dense). Empty outside multi-tenant mode.
    pub tenant_of_stage: &'a [u32],
}

/// Build the once-per-run table behind [`SimView::narrow_input_mb`]: total
/// MiB of narrow input one task of each stage reads. Purely static per DAG.
pub fn narrow_input_table(dag: &JobDag) -> Vec<f64> {
    dag.stages()
        .iter()
        .map(|st| {
            st.inputs
                .iter()
                .filter(|i| i.kind == dagon_dag::DepKind::Narrow)
                .map(|i| dag.rdd(i.rdd).block_mb)
                .sum()
        })
        .collect()
}

impl<'a> SimView<'a> {
    /// Stages that can launch tasks right now (ready with pending tasks).
    /// Reads the incrementally maintained ready list — no stage-table scan.
    pub fn schedulable_stages(&self) -> Vec<StageId> {
        self.ready.iter().map(|&s| StageId(s)).collect()
    }

    /// Schedulable stages that still have *unclaimed* pending tasks — the
    /// ready set as of the current point in an assignment batch. Filters
    /// the ready list instead of scanning every stage.
    pub fn assignable_stages(&self, shadow: &ScheduleShadow) -> Vec<StageId> {
        self.ready
            .iter()
            .filter(|&&s| {
                self.stages[s as usize].pending.len() as u32 > shadow.claimed_count(StageId(s))
            })
            .map(|&s| StageId(s))
            .collect()
    }

    /// Is any executor non-full?
    pub fn any_free_resource(&self) -> bool {
        !self.free_execs.is_empty()
    }

    pub fn stage(&self, s: StageId) -> &StageRuntime {
        &self.stages[s.index()]
    }

    pub fn exec(&self, e: ExecId) -> &ExecView {
        &self.execs[e.index()]
    }

    /// The locality level task `(s, k)` would run at on executor `e`.
    ///
    /// Defined by the task's narrow input blocks (Spark's
    /// `preferredLocations`); wide-only tasks have no preference → `Any`.
    /// The level is the *worst* tier among the task's locality blocks.
    pub fn task_locality(&self, s: StageId, k: u32, e: ExecId) -> Locality {
        self.index.task_locality(s.index(), k, e)
    }

    /// The best locality task `(s, k)` can achieve on *any* executor —
    /// what the BlockManagerMaster's location registry tells the scheduler.
    pub fn task_best_level(&self, s: StageId, k: u32) -> Locality {
        self.index.task_best_level(s.index(), k)
    }

    /// First unclaimed pending task of `s` achieving exactly `level` on
    /// `e` whose best achievable level anywhere is no better than `level`
    /// — i.e. a task that launching here does not rob of a better home.
    /// Defined for stages on the ready list.
    pub fn pending_with_locality_strict(
        &self,
        s: StageId,
        e: ExecId,
        level: Locality,
        shadow: &ScheduleShadow,
    ) -> Option<u32> {
        self.index.scan_first(
            s.index(),
            e,
            level,
            true,
            &self.stages[s.index()].pending,
            shadow.claim_bits(s),
        )
    }

    /// First unclaimed pending task of `s` achieving exactly `level` on `e`.
    /// Defined for stages on the ready list.
    pub fn pending_with_locality(
        &self,
        s: StageId,
        e: ExecId,
        level: Locality,
        shadow: &ScheduleShadow,
    ) -> Option<u32> {
        self.index.scan_first(
            s.index(),
            e,
            level,
            false,
            &self.stages[s.index()].pending,
            shadow.claim_bits(s),
        )
    }

    /// Is some unclaimed pending task of `s` NODE-or-better on node `n`
    /// (`N[n]` masked by pending and claims)? When not, every PROCESS and
    /// NODE probe on `n`'s executors misses and their RACK and ANY probes
    /// depend only on `n`'s rack (DESIGN.md §30). Defined for stages on
    /// the ready list.
    pub fn node_has_unclaimed_pending(
        &self,
        s: StageId,
        n: NodeId,
        shadow: &ScheduleShadow,
    ) -> bool {
        self.index.node_has_pending(
            s.index(),
            n,
            &self.stages[s.index()].pending,
            shadow.claim_bits(s),
        )
    }

    /// Locality levels for which stage `s` has at least one unclaimed
    /// pending task on *some* executor — the "valid locality levels" of
    /// Alg. 2 / Spark's `computeValidLocalityLevels`. Always includes
    /// `Any` if any task is pending. Three masked word scans over the
    /// [`LocalityIndex`]'s task sets, returned as `levels[..n]` of the
    /// pair (`n == 0`: no unclaimed pending task). Defined for stages on
    /// the ready list.
    pub fn valid_levels(&self, s: StageId, shadow: &ScheduleShadow) -> ([Locality; 4], usize) {
        self.index.valid_levels(
            s.index(),
            &self.stages[s.index()].pending,
            shadow.claim_bits(s),
            shadow.claimed_count(s),
        )
    }

    /// Average duration of finished attempts of `s` at locality `l`
    /// (Alg. 2 line 6's estimator).
    pub fn avg_duration_at(&self, s: StageId, l: Locality) -> Option<f64> {
        self.metrics.per_stage[s.index()].avg_duration_at(l)
    }

    /// Average duration of finished attempts of `s` at any locality.
    pub fn avg_duration(&self, s: StageId) -> Option<f64> {
        self.metrics.per_stage[s.index()].avg_duration()
    }

    /// Eq. (7): earliest completion time of stage `s`,
    /// `ect_i = ⌈ptn_i / tp_i⌉ × t̄d_i`, relative to now. `fallback_td` is
    /// used before any task of the stage has finished (e.g. the profiler's
    /// duration estimate). Claimed tasks count as running, not pending.
    ///
    /// `tp_i` is the *achievable* task parallelism: at least the currently
    /// running count, at most the stage's cluster-wide slot capacity — the
    /// paper's "current task parallelism" read literally degenerates at
    /// stage start (one running task would predict a 224-wave stage).
    pub fn earliest_completion_ms(
        &self,
        s: StageId,
        fallback_td: f64,
        shadow: &ScheduleShadow,
    ) -> f64 {
        let st = &self.stages[s.index()];
        let claimed = shadow.claimed_count(s);
        let ptn = st.pending.len().saturating_sub(claimed as usize) as f64;
        let slots = self.stage_slots(s).max(1);
        let running = st.running + claimed;
        let tp = (running.max(1) as f64).max((ptn.min(slots as f64)).max(1.0));
        let td = self.avg_duration(s).unwrap_or(fallback_td);
        (ptn / tp).ceil() * td
    }

    /// Cluster-wide concurrent-task capacity for stage `s`'s demand: the
    /// executor walk `Σ_e capacity_e.capacity_for(demand)` in one multiply.
    /// Every usable executor has the same capacity and a down one has
    /// capacity zero, which fits no task because `DagBuilder` rejects
    /// zero-CPU demands.
    pub fn stage_slots(&self, s: StageId) -> u32 {
        self.usable_execs * self.exec_capacity.capacity_for(self.dag.stage(s).demand)
    }

    /// Total MiB of narrow input one task of `s` reads (its locality
    /// blocks), for cost-model duration priors. A table lookup: the sum is
    /// static per stage and computed once per run.
    pub fn narrow_input_mb(&self, s: StageId) -> f64 {
        self.narrow_mb[s.index()]
    }
}

#[cfg(test)]
// Replay values in these tests are set, not computed: exact float
// equality is the contract being asserted.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::hdfs::DataMap;
    use crate::metrics::Metrics;
    use dagon_dag::{BlockId, DagBuilder, RddId};

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
        ready: Vec<u32>,
        free_execs: Vec<u32>,
    }

    /// 2 racks × 2 nodes × 1 exec; one 4-task narrow stage over an HDFS RDD.
    fn fixture() -> Fixture {
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
        // Block k on node k's disk.
        for k in 0..4u32 {
            data.add_disk(BlockId::new(RddId(0), k), NodeId(k));
        }
        let execs = (0..4)
            .map(|i| ExecView {
                id: ExecId(i),
                free: dagon_dag::Resources::new(4, 8192),
                capacity: dagon_dag::Resources::new(4, 8192),
            })
            .collect();
        let stages = vec![StageRuntime {
            id: StageId(0),
            ready: true,
            completed: false,
            pending: PendingSet::full(4),
            running: 0,
            finished: 0,
        }];
        let tasks: Vec<Vec<TaskView>> = vec![(0..4)
            .map(|k| TaskView {
                loc_blocks: vec![BlockId::new(RddId(0), k)],
            })
            .collect()];
        let index = LocalityIndex::new(&dag, &topo, &data, &tasks, &[true]);
        Fixture {
            metrics: Metrics::new(dag.num_stages(), 4, false),
            narrow_mb: narrow_input_table(&dag),
            dag,
            topo,
            index,
            execs,
            stages,
            tasks,
            cost: CostModel::default(),
            ready: vec![0],
            free_execs: vec![0, 1, 2, 3],
        }
    }

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
            exec_capacity: dagon_dag::Resources::new(4, 8192),
            ready: &f.ready,
            free_execs: &f.free_execs,
            tenant_cores: &[],
            tenant_of_stage: &[],
        }
    }

    #[test]
    fn locality_levels_follow_block_placement() {
        let f = fixture();
        let v = view(&f);
        // Task 0's block is on node 0: exec0 Node, exec1 Rack (same rack),
        // exec2/3 Any (other rack).
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(0)), Locality::Node);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(1)), Locality::Rack);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(2)), Locality::Any);
    }

    #[test]
    fn caching_upgrades_to_process_local() {
        let mut f = fixture();
        f.index.add_cached(BlockId::new(RddId(0), 0), ExecId(0));
        let v = view(&f);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(0)), Locality::Process);
        // Another exec on the same node would be Node; here exec1 is on a
        // different node but same rack → Rack via the cached copy or disk.
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(1)), Locality::Rack);
        assert_eq!(v.task_best_level(StageId(0), 0), Locality::Process);
    }

    #[test]
    fn pending_queries_respect_level_and_strictness() {
        let mut f = fixture();
        f.index.add_cached(BlockId::new(RddId(0), 1), ExecId(1));
        let v = view(&f);
        let shadow = ScheduleShadow::new(&v);
        // On exec1: task 1 is Process; tasks 0 is Rack.
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Process, &shadow),
            Some(1)
        );
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Node, &shadow),
            None
        );
        // Strict at Rack on exec1: task 0's best anywhere is Node (its disk
        // node) → not strict-eligible at Rack... best(0) = Node < Rack.
        assert_eq!(
            v.pending_with_locality_strict(StageId(0), ExecId(1), Locality::Rack, &shadow),
            None
        );
        // Task 2's block is on node 2 (other rack): on exec1 it's Any; its
        // best anywhere is Node → not strict at Any either.
        assert_eq!(
            v.pending_with_locality_strict(StageId(0), ExecId(1), Locality::Any, &shadow),
            None
        );
    }

    #[test]
    fn claims_hide_tasks_from_pending_queries() {
        let mut f = fixture();
        f.index.add_cached(BlockId::new(RddId(0), 1), ExecId(1));
        let v = view(&f);
        let mut shadow = ScheduleShadow::new(&v);
        shadow.claim(&v, StageId(0), 1, ExecId(1));
        // Task 1 claimed: the Process-level query no longer finds it.
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Process, &shadow),
            None
        );
        assert_eq!(shadow.claim_bits(StageId(0)), &[0b10]);
        assert_eq!(shadow.claimed_count(StageId(0)), 1);
        // Shadow resources were decremented by the stage demand (2 of 4
        // cpus).
        assert!(shadow.fits(&v, ExecId(1), dagon_dag::Resources::new(2, 0)));
        assert!(!shadow.fits(&v, ExecId(1), dagon_dag::Resources::new(3, 0)));
        // Reset restores everything.
        shadow.reset(&v);
        assert_eq!(shadow.claimed_count(StageId(0)), 0);
        assert!(shadow.fits(&v, ExecId(1), dagon_dag::Resources::new(4, 0)));
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Process, &shadow),
            Some(1)
        );
    }

    #[test]
    fn valid_levels_include_any_and_reachable_tiers() {
        let f = fixture();
        let v = view(&f);
        let shadow = ScheduleShadow::new(&v);
        let (levels, n) = v.valid_levels(StageId(0), &shadow);
        let levels = &levels[..n];
        assert!(levels.contains(&Locality::Node));
        assert!(levels.contains(&Locality::Any));
        assert!(!levels.contains(&Locality::Process));
    }

    #[test]
    fn ect_caps_parallelism_at_stage_slots() {
        let f = fixture();
        let v = view(&f);
        let shadow = ScheduleShadow::new(&v);
        // 4 pending, slots = 4 execs × (4/2) = 8 → tp = min(4, 8) = 4 →
        // one wave.
        assert_eq!(v.stage_slots(StageId(0)), 8);
        let ect = v.earliest_completion_ms(StageId(0), 1000.0, &shadow);
        assert_eq!(ect, 1000.0);
        assert_eq!(v.narrow_input_mb(StageId(0)), 64.0);
    }

    #[test]
    fn schedulable_stages_excludes_done_and_empty() {
        let mut f = fixture();
        assert_eq!(view(&f).schedulable_stages(), vec![StageId(0)]);
        f.stages[0].pending.clear();
        f.ready.clear();
        assert!(view(&f).schedulable_stages().is_empty());
    }

    #[test]
    fn assignable_stages_excludes_fully_claimed() {
        let f = fixture();
        let v = view(&f);
        let mut shadow = ScheduleShadow::new(&v);
        assert_eq!(v.assignable_stages(&shadow), vec![StageId(0)]);
        for k in 0..4 {
            shadow.claim(&v, StageId(0), k, ExecId(k));
        }
        assert!(v.assignable_stages(&shadow).is_empty());
    }

    #[test]
    fn shadow_free_count_tracks_claims() {
        let f = fixture();
        let v = view(&f);
        let mut shadow = ScheduleShadow::new(&v);
        assert!(shadow.any_free());
        // Each exec has 4 cpus; demand is 2 → two claims fill one exec.
        for e in 0..4u32 {
            for k in [0, 1] {
                shadow.claim(&v, StageId(0), k, ExecId(e));
            }
        }
        assert!(!shadow.any_free(), "all execs full but any_free says free");
        shadow.reset(&v);
        assert!(shadow.any_free());
    }

    /// Every `(executor, demand)` fit and the free flag of two shadows
    /// agree under `v`.
    fn assert_same_fits(v: &SimView<'_>, a: &ScheduleShadow, b: &ScheduleShadow) {
        for e in 0..v.execs.len() as u32 {
            for cpus in 0..=5 {
                for mem in [0, 2048, 8192, 9000] {
                    let d = dagon_dag::Resources::new(cpus, mem);
                    assert_eq!(
                        a.fits(v, ExecId(e), d),
                        b.fits(v, ExecId(e), d),
                        "exec {e} {d:?}"
                    );
                }
            }
        }
        assert_eq!(a.any_free(), b.any_free());
    }

    #[test]
    fn reset_against_a_changed_view_matches_a_fresh_shadow() {
        let f = fixture();
        let v = view(&f);
        let mut shadow = ScheduleShadow::new(&v);
        for (k, e) in [(0, 0), (1, 0), (2, 1), (3, 3)] {
            shadow.claim(&v, StageId(0), k, ExecId(e));
        }
        // Launches and a crash moved the view between batches: exec 0 is
        // full, exec 1 half busy, exec 2 down.
        let mut execs = f.execs.clone();
        execs[0].free = dagon_dag::Resources::ZERO;
        execs[1].free = dagon_dag::Resources::new(2, 4096);
        execs[2].free = dagon_dag::Resources::ZERO;
        execs[2].capacity = dagon_dag::Resources::ZERO;
        let free_execs = [1, 3];
        let v2 = SimView {
            execs: &execs,
            free_execs: &free_execs,
            ..view(&f)
        };
        shadow.reset(&v2);
        let mut fresh = ScheduleShadow::new(&v2);
        assert_same_fits(&v2, &shadow, &fresh);
        assert!(shadow.claim_bits(StageId(0)).iter().all(|w| *w == 0));
        assert_eq!(shadow.claimed_count(StageId(0)), 0);
        // The same claims keep both in step, down to the last free cpu.
        for (k, e) in [(0, 1), (1, 3), (2, 3)] {
            shadow.claim(&v2, StageId(0), k, ExecId(e));
            fresh.claim(&v2, StageId(0), k, ExecId(e));
            assert_same_fits(&v2, &shadow, &fresh);
        }
        assert!(!shadow.any_free());
    }

    #[test]
    fn shadow_fits_match_step_by_step_subtraction() {
        let f = fixture();
        let v = view(&f);
        let mut shadow = ScheduleShadow::new(&v);
        let demand = f.dag.stage(StageId(0)).demand;
        let mut copied: Vec<_> = f.execs.iter().map(|e| e.free).collect();
        for (k, e) in [(0, 2), (1, 2), (2, 0)] {
            shadow.claim(&v, StageId(0), k, ExecId(e));
            copied[e as usize] = copied[e as usize].minus(demand);
            for (i, c) in copied.iter().enumerate() {
                for cpus in 0..=4 {
                    let d = dagon_dag::Resources::new(cpus, 1024);
                    assert_eq!(shadow.fits(&v, ExecId(i as u32), d), c.fits(d));
                }
            }
        }
    }

    #[test]
    fn ready_list_tracks_schedulability_flips() {
        let mut cv = ClusterView::new(2, dagon_dag::Resources::new(4, 8192));
        cv.init_ready_list([true, false, true]);
        assert_eq!(cv.ready_stages(), &[0, 2]);
        assert_eq!(cv.ready_list_rebuilds(), 1);
        cv.set_stage_schedulable(1, true);
        assert_eq!(cv.ready_stages(), &[0, 1, 2]);
        cv.set_stage_schedulable(1, true); // no-op re-set
        assert_eq!(cv.ready_stages(), &[0, 1, 2]);
        cv.set_stage_schedulable(0, false);
        cv.set_stage_schedulable(2, false);
        assert_eq!(cv.ready_stages(), &[1]);
        assert_eq!(cv.ready_list_rebuilds(), 1, "flips must not rebuild");
    }

    #[test]
    fn ready_list_matches_stage_table_oracle() {
        let mk = |ready, completed, pending: u32| StageRuntime {
            id: StageId(0),
            ready,
            completed,
            pending: PendingSet::full(pending),
            running: 0,
            finished: 0,
        };
        let stages = vec![
            mk(true, false, 3),  // schedulable
            mk(false, false, 3), // not ready
            mk(true, true, 0),   // completed
            mk(true, false, 0),  // drained
        ];
        let mut cv = ClusterView::new(1, dagon_dag::Resources::new(4, 8192));
        cv.init_ready_list(
            stages
                .iter()
                .map(|s| s.ready && !s.completed && !s.pending.is_empty()),
        );
        assert!(cv.check_ready_consistency(&stages));
        assert_eq!(ClusterView::rebuilt_ready_list(&stages), vec![0]);
    }

    #[test]
    fn free_list_tracks_busy_and_down_transitions() {
        let cap = dagon_dag::Resources::new(2, 4096);
        let demand = dagon_dag::Resources::new(2, 2048);
        let mut cv = ClusterView::new(3, cap);
        assert_eq!(cv.free_execs(), &[0, 1, 2]);
        assert!(cv.check_consistency());
        // Exec 1 consumed full → drops out.
        cv.apply(ViewDelta::Consume {
            exec: ExecId(1),
            demand,
        });
        assert_eq!(cv.free_execs(), &[0, 2]);
        assert!(cv.check_consistency());
        // Exec 2 crashes while free → drops out.
        cv.apply(ViewDelta::ExecDown { exec: ExecId(2) });
        assert_eq!(cv.free_execs(), &[0]);
        assert!(cv.check_consistency());
        // A release on a down executor moves only its real ledger.
        cv.apply(ViewDelta::Consume {
            exec: ExecId(2),
            demand,
        });
        cv.apply(ViewDelta::Release {
            exec: ExecId(2),
            demand,
        });
        assert_eq!(cv.free_execs(), &[0]);
        assert!(cv.check_consistency());
        // Release + restart bring both back, ascending.
        cv.apply(ViewDelta::Release {
            exec: ExecId(1),
            demand,
        });
        cv.apply(ViewDelta::ExecUp { exec: ExecId(2) });
        assert_eq!(cv.free_execs(), &[0, 1, 2]);
        assert!(cv.check_consistency());
    }

    /// `stage_slots` read off a live [`ClusterView`], against the walk it
    /// replaces.
    fn slots_of(f: &Fixture, cv: &ClusterView) -> (u32, u32) {
        let v = SimView {
            execs: cv.execs(),
            usable_execs: cv.usable_execs(),
            exec_capacity: cv.exec_capacity(),
            ..view(f)
        };
        let demand = f.dag.stage(StageId(0)).demand;
        let walk = cv
            .execs()
            .iter()
            .map(|e| e.capacity.capacity_for(demand))
            .sum();
        (v.stage_slots(StageId(0)), walk)
    }

    #[test]
    fn stage_slots_match_the_executor_walk_across_down_and_up() {
        let f = fixture();
        let mut cv = ClusterView::new(4, dagon_dag::Resources::new(4, 8192));
        // 4 execs × (4 cpus / 2 per task).
        assert_eq!(slots_of(&f, &cv), (8, 8));
        // Consume traffic leaves capacity alone.
        cv.apply(ViewDelta::Consume {
            exec: ExecId(0),
            demand: dagon_dag::Resources::new(4, 8192),
        });
        assert_eq!(slots_of(&f, &cv), (8, 8));
        cv.apply(ViewDelta::ExecDown { exec: ExecId(1) });
        assert_eq!(slots_of(&f, &cv), (6, 6));
        // A repeated down (crash of a blacklisted executor) counts once.
        cv.apply(ViewDelta::ExecDown { exec: ExecId(1) });
        cv.apply(ViewDelta::ExecDown { exec: ExecId(3) });
        assert_eq!(slots_of(&f, &cv), (4, 4));
        cv.apply(ViewDelta::ExecUp { exec: ExecId(1) });
        assert_eq!(slots_of(&f, &cv), (6, 6));
        assert!(cv.check_consistency());
    }
}
