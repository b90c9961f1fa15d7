//! Run metrics: everything the paper's figures plot.

use dagon_dag::{SimTime, StageId, TaskId};

use crate::locality::Locality;
use crate::topology::ExecId;

/// A `(time, value)` sample for stepwise timelines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimePoint {
    pub t: SimTime,
    pub v: f64,
}

/// One completed task attempt (Gantt row).
#[derive(Clone, Copy, Debug)]
pub struct TaskRun {
    pub task: TaskId,
    pub exec: ExecId,
    pub start: SimTime,
    pub end: SimTime,
    pub locality: Locality,
    pub speculative: bool,
    /// Did this attempt's result count (first finisher)?
    pub winner: bool,
    /// Did this attempt die (injected task failure or executor crash)
    /// rather than run to completion? Implies `!winner`.
    pub failed: bool,
}

/// Aggregated cache behaviour across all executors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads of cache-eligible blocks found in the reading executor.
    pub hits: u64,
    /// Reads of cache-eligible blocks not found there.
    pub misses: u64,
    /// MiB served from cache (×1024, stored as integer for Eq).
    pub hit_kb: u64,
    /// MiB of cache-eligible reads that went to disk/network.
    pub miss_kb: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Blocks proactively dropped (zero reference priority).
    pub proactive_evictions: u64,
    pub prefetches: u64,
    /// Prefetched blocks that later produced at least one hit.
    pub prefetch_used: u64,
    /// Cached blocks destroyed by faults (executor crashes, injected
    /// block loss) rather than evicted by policy.
    pub lost: u64,
    /// Blocks still resident across all executors when the job finished.
    /// Balances the ledger: `insertions == evictions +
    /// proactive_evictions + lost + resident_end`.
    pub resident_end: u64,
}

impl CacheStats {
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Byte-weighted hit ratio — what actually determines I/O time saved
    /// (a 192 MiB edge-block hit matters more than a 16 MiB message hit).
    pub fn byte_hit_ratio(&self) -> f64 {
        let total = self.hit_kb + self.miss_kb;
        if total == 0 {
            0.0
        } else {
            self.hit_kb as f64 / total as f64
        }
    }
}

/// Per-stage accounting.
#[derive(Clone, Debug, Default)]
pub struct StageMetrics {
    pub first_launch: Option<SimTime>,
    pub completed_at: Option<SimTime>,
    /// Launch counts per locality level (winning + speculative attempts).
    pub launches_by_locality: [u32; 4],
    /// Count and total duration of finished attempts per locality level —
    /// Alg. 2's estimator ("the finish time of a pending task is estimated
    /// as the average duration of the finished tasks with the same locality
    /// level").
    pub finished_by_locality: [(u32, u64); 4],
    /// Cache hits charged to this stage's launches (per-tenant cache
    /// accounting aggregates these through the stage → tenant map). Not
    /// part of [`SimResult::fingerprint`].
    pub cache_hits: u64,
    /// Cache misses charged to this stage's launches.
    pub cache_misses: u64,
}

impl StageMetrics {
    /// Wall-clock duration of the stage (first launch → completion).
    pub fn duration(&self) -> Option<SimTime> {
        Some(self.completed_at?.saturating_sub(self.first_launch?))
    }

    /// Mean finished-attempt duration at the given locality.
    pub fn avg_duration_at(&self, l: Locality) -> Option<f64> {
        let (n, sum) = self.finished_by_locality[l.index()];
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }

    /// Mean finished-attempt duration across all localities.
    pub fn avg_duration(&self) -> Option<f64> {
        let (n, sum) = self
            .finished_by_locality
            .iter()
            .fold((0u32, 0u64), |(an, asum), (n, s)| (an + n, asum + s));
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }
}

/// Exact integral of a step function: accumulate `value × Δt` between
/// change points, and optionally keep the change points for plotting.
#[derive(Clone, Debug)]
pub struct StepIntegrator {
    last_t: SimTime,
    current: f64,
    pub area: f64,
    pub timeline: Option<Vec<TimePoint>>,
}

impl StepIntegrator {
    pub fn new(keep_timeline: bool) -> Self {
        Self {
            last_t: 0,
            current: 0.0,
            area: 0.0,
            timeline: keep_timeline.then(Vec::new),
        }
    }

    /// Set a new value at time `t` (must be ≥ the previous change time).
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t);
        self.area += self.current * (t - self.last_t) as f64;
        self.last_t = t;
        // Change detection, not tolerance math: values are assigned (never
        // accumulated), so bitwise inequality is exactly "the level moved".
        #[allow(clippy::float_cmp)]
        if self.current != v {
            if let Some(tl) = &mut self.timeline {
                tl.push(TimePoint { t, v });
            }
        }
        self.current = v;
    }

    /// Add `dv` at time `t`.
    pub fn add(&mut self, t: SimTime, dv: f64) {
        let v = self.current + dv;
        self.set(t, v);
    }

    pub fn current(&self) -> f64 {
        self.current
    }

    /// Close the integral at `t` and return the accumulated area.
    pub fn finish(&mut self, t: SimTime) -> f64 {
        self.set(t, self.current);
        self.area
    }
}

/// Optional per-executor traces for the Fig. 4 study.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    /// Busy-core samples (change points).
    pub busy: Vec<TimePoint>,
    /// `(t, pending NODE_LOCAL tasks for this executor)` samples, taken each
    /// tick.
    pub pending_node_local: Vec<TimePoint>,
}

/// Scheduler-overhead counters: how much work the scheduling fast path
/// did to produce the run. Deliberately excluded from golden result
/// fingerprints — they describe *how* the result was computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Calls into `Scheduler::schedule` (batched: one per fill-the-slots
    /// round, not one per launched task).
    pub schedule_invocations: u64,
    /// Full from-scratch constructions of the persistent `ClusterView`
    /// (O(1) per run: once at startup; deltas keep it current after).
    pub view_rebuilds: u64,
    /// Incremental `ViewDelta`s applied to the persistent view.
    pub view_deltas: u64,
    /// Batches cut short because cache state changed (index generation
    /// moved) or an assignment failed validation mid-application.
    pub batches_discarded: u64,
    /// Assignments dropped by those discards.
    pub assignments_discarded: u64,
    /// Locality lookups answered by the index: read tiers, task levels
    /// and placement probes.
    pub locality_queries: u64,
    /// Block-placement mutations that changed the index (its generation).
    pub index_invalidations: u64,
    /// Retired: always 0. The valid-level folds it counted are gone: the
    /// locality index keeps each live stage's valid-level contributions
    /// as task sets (DESIGN.md §26). No registry key or `bench_snapshot`
    /// column. Kept only because `dagon_bench` reads the score-cache
    /// fields by name; remove them with that reader.
    pub valid_level_rebuilds: u64,
    /// Retired: always 0, like [`Self::valid_level_rebuilds`] (the scan
    /// and valid-level memos it counted are gone).
    pub score_cache_hits: u64,
    /// Retired: always 0, like [`Self::score_cache_hits`].
    pub score_cache_misses: u64,
    /// Retired: always 0, like [`Self::score_cache_hits`].
    pub score_cache_invalidations: u64,
    /// Full from-scratch builds of the incremental ready list (O(1) per
    /// run: once at startup; schedulability flips keep it current after).
    pub ready_list_rebuilds: u64,
    /// Retired: always 0. The lazy free-executor heap it counted is
    /// gone (the free list is kept eagerly). Kept only because
    /// `dagon_bench` reads it by name; remove it with that reader.
    pub ect_heap_pops: u64,
    /// Retired: always 0, like [`Self::ect_heap_pops`].
    pub ect_heap_stale: u64,
    /// Locality-index placement probes that found no task at their
    /// (stage, executor, level). The name predates this meaning;
    /// `dagon_bench` reads the field by name.
    pub inv_index_hits: u64,
    /// Locality-index maintenance operations: live readers whose task
    /// set bits a residency flip changed, plus one per stage liveness
    /// flip.
    pub inv_index_updates: u64,
    /// From-scratch locality-index builds (O(1) per run: once at startup,
    /// like `ready_list_rebuilds`).
    pub inv_index_rebuilds: u64,
}

/// Fault-injection and recovery counters. All zero in fault-free runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Executor crash events applied.
    pub exec_crashes: u64,
    /// Crashed executors that re-registered.
    pub exec_restarts: u64,
    /// Injected task-attempt failures (the `task_fail_prob` die).
    pub task_failures: u64,
    /// Running attempts killed because their executor crashed.
    pub attempts_killed: u64,
    /// Disk (output/shuffle) block replicas lost to executor crashes.
    pub disk_blocks_lost: u64,
    /// Completed tasks resubmitted to regenerate a lost block (lineage
    /// recomputation).
    pub tasks_recomputed: u64,
    /// Completed stages reopened by lineage recomputation.
    pub stage_resubmissions: u64,
    /// Executors blacklisted for consecutive task failures.
    pub execs_blacklisted: u64,
}

/// Everything measured during one run.
#[derive(Clone, Debug)]
pub struct Metrics {
    pub per_stage: Vec<StageMetrics>,
    pub cache: CacheStats,
    pub task_runs: Vec<TaskRun>,
    /// `(executor, block)` cache-access sequence, recorded only when
    /// `ClusterConfig::trace_accesses` is set (offline Belady analysis).
    pub access_trace: Vec<(u32, dagon_dag::BlockId)>,
    /// Cluster-wide busy cores over time.
    pub busy_cores: StepIntegrator,
    /// Running tasks over time (task parallelism, Fig. 9b).
    pub running_tasks: StepIntegrator,
    pub exec_traces: Vec<ExecTrace>,
    pub speculative_launched: u32,
    pub speculative_won: u32,
    /// `(stage, pv)` pairs pushed into the reference profile: the stages
    /// each launch or requeue moved, plus every stage on the first sync
    /// (DESIGN.md §32). Registry key `sched/priority_pushes`. Not in
    /// [`SchedulerStats`]: a scheduler without its own
    /// `drain_stage_priorities` (such as a timing decorator) pushes full
    /// snapshots, and [`SchedulerStats`] must read the same with or
    /// without such a wrapper.
    pub priority_pushes: u64,
    /// BlockManagers whose state a proactive drop pass read: every
    /// executor on the first pass after a profile rebuild, and otherwise
    /// only those holding a changed block (DESIGN.md §33). Registry key
    /// `cache/drop_execs_visited`. Not in [`CacheStats`], which
    /// `dagon_bench`'s harness compares whole across decorated and bare
    /// runs.
    pub drop_execs_visited: u64,
    /// Scheduling fast-path overhead counters.
    pub sched: SchedulerStats,
    /// Fault-injection and recovery counters.
    pub faults: FaultStats,
}

impl Metrics {
    pub fn new(num_stages: usize, num_execs: usize, trace_execs: bool) -> Self {
        Self {
            per_stage: vec![StageMetrics::default(); num_stages],
            cache: CacheStats::default(),
            task_runs: Vec::new(),
            access_trace: Vec::new(),
            busy_cores: StepIntegrator::new(true),
            running_tasks: StepIntegrator::new(true),
            exec_traces: if trace_execs {
                vec![ExecTrace::default(); num_execs]
            } else {
                Vec::new()
            },
            speculative_launched: 0,
            speculative_won: 0,
            priority_pushes: 0,
            drop_execs_visited: 0,
            sched: SchedulerStats::default(),
            faults: FaultStats::default(),
        }
    }
}

/// Final outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Job completion time.
    pub jct: SimTime,
    pub metrics: Metrics,
    /// Total cluster cores (for utilization).
    pub total_cores: u32,
    /// Structured event log surrendered by the run's trace sink (empty
    /// under the default null sink). Never part of [`Self::fingerprint`].
    pub trace: dagon_obs::TraceLog,
    /// Per-job outcomes of an online multi-tenant run (empty in classic
    /// batch mode). Never part of [`Self::fingerprint`] — tenancy suites
    /// compare the outcome rows directly instead.
    pub jobs: Vec<crate::jobs::JobOutcome>,
}

impl SimResult {
    /// FNV-1a over every semantically-relevant field of the result: JCT,
    /// per-stage first-launch/completion times, launch and finish locality
    /// histograms, and the winner task-run locality histogram. Scheduler
    /// overhead counters are deliberately excluded — they describe how the
    /// result was computed, not what it is. This is the exact mixing order
    /// the golden snapshot suite pinned its constants with; changing it
    /// invalidates them all.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.jct);
        mix(self.total_cores as u64);
        for s in &self.metrics.per_stage {
            mix(s.first_launch.map_or(u64::MAX, |t| t));
            mix(s.completed_at.map_or(u64::MAX, |t| t));
            for &c in &s.launches_by_locality {
                mix(c as u64);
            }
            for &(n, ms) in &s.finished_by_locality {
                mix(n as u64);
                mix(ms);
            }
        }
        let mut hist = [0u64; 4];
        for run in self.metrics.task_runs.iter().filter(|t| t.winner) {
            hist[run.locality.index()] += 1;
        }
        for c in hist {
            mix(c);
        }
        h
    }

    /// Mean CPU utilization over the job: busy-core-time / (cores × JCT).
    pub fn cpu_utilization(&self) -> f64 {
        if self.jct == 0 {
            return 0.0;
        }
        self.metrics.busy_cores.area / (self.total_cores as f64 * self.jct as f64)
    }

    /// Mean duration of winning task attempts.
    pub fn avg_task_ms(&self) -> f64 {
        let wins: Vec<_> = self.metrics.task_runs.iter().filter(|r| r.winner).collect();
        if wins.is_empty() {
            return 0.0;
        }
        wins.iter().map(|r| (r.end - r.start) as f64).sum::<f64>() / wins.len() as f64
    }

    /// Fraction of winning launches at PROCESS or NODE locality.
    pub fn high_locality_fraction(&self) -> f64 {
        let wins: Vec<_> = self.metrics.task_runs.iter().filter(|r| r.winner).collect();
        if wins.is_empty() {
            return 0.0;
        }
        let hi = wins.iter().filter(|r| r.locality <= Locality::Node).count();
        hi as f64 / wins.len() as f64
    }

    /// Count of winning launches at or better than `l` for the given stages.
    pub fn high_locality_count(&self, stages: &[StageId], l: Locality) -> usize {
        self.metrics
            .task_runs
            .iter()
            .filter(|r| r.winner && stages.contains(&r.task.stage) && r.locality <= l)
            .count()
    }

    /// Wall-clock duration of one stage.
    pub fn stage_duration(&self, s: StageId) -> Option<SimTime> {
        self.metrics.per_stage[s.index()].duration()
    }

    /// Render every counter the run collected into one namespaced
    /// [`dagon_obs::MetricsRegistry`] — the generalization of the ad-hoc
    /// stat structs (`cache/…`, `sched/…`, `faults/…`, `run/…` gauges,
    /// plus a log-scale histogram of winner task durations).
    pub fn registry(&self) -> dagon_obs::MetricsRegistry {
        let mut r = dagon_obs::MetricsRegistry::new();
        let c = &self.metrics.cache;
        r.counter("cache/hits", c.hits);
        r.counter("cache/misses", c.misses);
        r.counter("cache/hit_kb", c.hit_kb);
        r.counter("cache/miss_kb", c.miss_kb);
        r.counter("cache/insertions", c.insertions);
        r.counter("cache/evictions", c.evictions);
        r.counter("cache/proactive_evictions", c.proactive_evictions);
        r.counter("cache/prefetches", c.prefetches);
        r.counter("cache/prefetch_used", c.prefetch_used);
        r.counter("cache/lost", c.lost);
        r.counter("cache/resident_end", c.resident_end);
        r.counter("cache/drop_execs_visited", self.metrics.drop_execs_visited);
        r.gauge("cache/hit_ratio", c.hit_ratio());
        r.gauge("cache/byte_hit_ratio", c.byte_hit_ratio());
        let s = &self.metrics.sched;
        r.counter("sched/schedule_invocations", s.schedule_invocations);
        r.counter("sched/view_rebuilds", s.view_rebuilds);
        r.counter("sched/view_deltas", s.view_deltas);
        r.counter("sched/batches_discarded", s.batches_discarded);
        r.counter("sched/assignments_discarded", s.assignments_discarded);
        r.counter("sched/locality_queries", s.locality_queries);
        r.counter("sched/index_invalidations", s.index_invalidations);
        r.counter("sched/ready_list_rebuilds", s.ready_list_rebuilds);
        r.counter("sched/inv_index_hits", s.inv_index_hits);
        r.counter("sched/inv_index_updates", s.inv_index_updates);
        r.counter("sched/inv_index_rebuilds", s.inv_index_rebuilds);
        r.counter("sched/priority_pushes", self.metrics.priority_pushes);
        let f = &self.metrics.faults;
        r.counter("faults/exec_crashes", f.exec_crashes);
        r.counter("faults/exec_restarts", f.exec_restarts);
        r.counter("faults/task_failures", f.task_failures);
        r.counter("faults/attempts_killed", f.attempts_killed);
        r.counter("faults/disk_blocks_lost", f.disk_blocks_lost);
        r.counter("faults/tasks_recomputed", f.tasks_recomputed);
        r.counter("faults/stage_resubmissions", f.stage_resubmissions);
        r.counter("faults/execs_blacklisted", f.execs_blacklisted);
        r.counter(
            "run/speculative_launched",
            u64::from(self.metrics.speculative_launched),
        );
        r.counter(
            "run/speculative_won",
            u64::from(self.metrics.speculative_won),
        );
        r.gauge("run/jct_ms", self.jct as f64);
        r.gauge("run/total_cores", f64::from(self.total_cores));
        r.gauge("run/cpu_utilization", self.cpu_utilization());
        r.gauge("run/avg_task_ms", self.avg_task_ms());
        r.gauge("run/high_locality_fraction", self.high_locality_fraction());
        for run in self.metrics.task_runs.iter().filter(|t| t.winner) {
            r.observe("run/task_duration_ms", (run.end - run.start) as f64);
        }
        // Tenancy keys only exist for online multi-tenant runs, keeping
        // the single-job registry key set (pinned by `obs_artifacts`)
        // unchanged.
        if !self.jobs.is_empty() {
            let completed: Vec<_> = self
                .jobs
                .iter()
                .filter(|j| j.completed_ms.is_some())
                .collect();
            r.counter("tenancy/jobs", self.jobs.len() as u64);
            r.counter(
                "tenancy/rejected",
                self.jobs.iter().filter(|j| j.rejected).count() as u64,
            );
            if !completed.is_empty() {
                let n = completed.len() as f64;
                let jct: f64 = completed
                    .iter()
                    .map(|j| (j.completed_ms.unwrap() - j.arrival_ms) as f64)
                    .sum();
                let queue: f64 = completed
                    .iter()
                    .map(|j| (j.admitted_ms.unwrap_or(j.arrival_ms) - j.arrival_ms) as f64)
                    .sum();
                r.gauge("tenancy/mean_jct_ms", jct / n);
                r.gauge("tenancy/mean_queue_ms", queue / n);
            }
        }
        r
    }
}

#[cfg(test)]
// Replay values in these tests are set, not computed: exact float
// equality is the contract being asserted.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn step_integrator_exact_area() {
        let mut si = StepIntegrator::new(true);
        si.set(0, 2.0);
        si.set(10, 4.0);
        si.set(15, 0.0);
        let area = si.finish(20);
        assert_eq!(area, 2.0 * 10.0 + 4.0 * 5.0);
        let tl = si.timeline.as_ref().unwrap();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[1], TimePoint { t: 10, v: 4.0 });
    }

    #[test]
    fn step_integrator_add_deltas() {
        let mut si = StepIntegrator::new(false);
        si.add(0, 3.0);
        si.add(5, -1.0);
        assert_eq!(si.current(), 2.0);
        assert_eq!(si.finish(10), 3.0 * 5.0 + 2.0 * 5.0);
        assert!(si.timeline.is_none());
    }

    #[test]
    fn cache_hit_ratio_handles_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_ratio(), 0.75);
    }

    #[test]
    fn stage_metrics_averages() {
        let mut m = StageMetrics::default();
        m.finished_by_locality[Locality::Process.index()] = (2, 400);
        m.finished_by_locality[Locality::Node.index()] = (1, 1000);
        assert_eq!(m.avg_duration_at(Locality::Process), Some(200.0));
        assert_eq!(m.avg_duration_at(Locality::Rack), None);
        let avg = m.avg_duration().unwrap();
        assert!((avg - 1400.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.duration(), None);
    }
}
