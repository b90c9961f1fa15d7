//! The O(changed) priority sync against its full-snapshot fallback.
//!
//! The simulator pushes into the reference profile only the stage
//! priorities a launch or requeue moved, through
//! `Scheduler::drain_stage_priorities`. A scheduler that does not override
//! that method gets the default, which pushes the whole
//! `stage_priorities()` snapshot every time, as a wrapping scheduler that
//! forwards only the classic methods does. Both must give the same run,
//! bit for bit: a stage no launch or requeue touched keeps its `pv`, and
//! the profile sorts its zero crossings, so push order cannot matter.

use dagon_cluster::{
    AdmissionConfig, Assignment, ClusterConfig, FaultPlan, Scheduler, SimResult, SimView,
    Simulation,
};
use dagon_core::experiments::ExpConfig;
use dagon_core::tenancy::{stream_simulation, TenantPolicy};
use dagon_core::System;
use dagon_dag::{JobDag, SimTime, StageId, TaskId};
use dagon_obs::SchedDecision;
use dagon_profiler::AppProfiler;
use dagon_tenancy::{BoundedPareto, ClientKind, StreamOptions, TenantSpec, TenantStream};
use dagon_workloads::{Scale, Workload};

/// Forwards every [`Scheduler`] method except `drain_stage_priorities`,
/// so the simulator falls back to the full-snapshot default.
struct FullSnapshot(Box<dyn Scheduler>);

impl Scheduler for FullSnapshot {
    fn name(&self) -> String {
        self.0.name()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        self.0.schedule(view)
    }

    fn on_stage_ready(&mut self, s: StageId, now: SimTime) {
        self.0.on_stage_ready(s, now);
    }

    fn on_stage_complete(&mut self, s: StageId, now: SimTime) {
        self.0.on_stage_complete(s, now);
    }

    fn on_task_launched(&mut self, t: TaskId, work: u64, now: SimTime) {
        self.0.on_task_launched(t, work, now);
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64, now: SimTime) {
        self.0.on_task_requeued(t, work, now);
    }

    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        self.0.stage_priorities()
    }

    fn set_tracing(&mut self, on: bool) {
        self.0.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<SchedDecision> {
        self.0.drain_decisions()
    }
}

/// Run `sim` under `make()`'s scheduler raw and wrapped; assert identical
/// `(jct, fingerprint)` and that the raw run pushed fewer priorities.
fn assert_fallback_equivalent(
    what: &str,
    sim: impl Fn() -> Simulation,
    make: impl Fn() -> Box<dyn Scheduler>,
) -> SimResult {
    let mut raw = make();
    let a = sim().run(raw.as_mut());
    let b = sim().run(&mut FullSnapshot(make()));
    assert_eq!(
        (a.jct, a.fingerprint()),
        (b.jct, b.fingerprint()),
        "{what}: the changed-pairs sync diverged from the full snapshot"
    );
    assert!(
        a.metrics.priority_pushes < b.metrics.priority_pushes,
        "{what}: the drain pushed {} pairs, the full snapshot {}",
        a.metrics.priority_pushes,
        b.metrics.priority_pushes
    );
    a
}

#[test]
fn tenant_stream_matches_full_snapshot_sync() {
    let tenants = vec![
        TenantSpec {
            name: "poisson".into(),
            weight: 1,
            mix: vec![Workload::KMeans, Workload::ConnectedComponent],
            tasks: BoundedPareto::new(1.5, 4.0, 16.0),
            client: ClientKind::OpenPoisson {
                jobs: 3,
                mean_interarrival_ms: 6_000,
            },
        },
        TenantSpec {
            name: "closed".into(),
            weight: 2,
            mix: vec![Workload::LogisticRegression],
            tasks: BoundedPareto::fixed(8.0),
            client: ClientKind::ClosedLoop {
                clients: 1,
                jobs_per_client: 3,
                mean_think_ms: 3_000,
            },
        },
    ];
    let stream = TenantStream::generate(&tenants, 7, &Scale::tiny(), &StreamOptions::default());
    let cluster = ClusterConfig::tiny(4, 8);
    let policy = TenantPolicy::WeightedFairDagon;
    let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag);
    assert_fallback_equivalent(
        "tenant stream",
        || {
            stream_simulation(
                &stream,
                &cluster,
                policy.cache_kind(),
                AdmissionConfig::default(),
            )
        },
        || policy.build_scheduler(&stream, &est),
    );
}

/// Executor crashes destroy shuffle outputs, so lineage recovery
/// resubmits finished tasks and syncs once after several requeues.
#[test]
fn faulty_run_matches_full_snapshot_sync() {
    let quick = ExpConfig::quick();
    let dag: JobDag = Workload::ConnectedComponent.build(&quick.scale);
    let system = System::dagon();
    let n_exec = quick.cluster.total_nodes() * quick.cluster.execs_per_node;
    let est = AppProfiler::noisy(0.10, quick.cluster.seed).estimate(&dag);
    let plain = Simulation::new(dag.clone(), quick.cluster.clone(), || system.cache.build())
        .run(system.build_scheduler(&dag, &est).as_mut());
    let mut cluster = quick.cluster.clone();
    cluster.faults = Some(FaultPlan::chaos(11, n_exec, plain.jct, &dag));
    let faulty = assert_fallback_equivalent(
        "faulty CC",
        || Simulation::new(dag.clone(), cluster.clone(), || system.cache.build()),
        || system.build_scheduler(&dag, &est),
    );
    assert!(
        faulty.metrics.faults.tasks_recomputed > 0,
        "the plan recomputed no lost block, so recovery never synced"
    );
}
