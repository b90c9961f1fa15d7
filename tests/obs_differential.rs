//! The zero-overhead-when-disabled contract of `dagon-obs`, half one:
//! attaching a recorder must not change the simulation. Every scenario is
//! run twice — once bare (NullSink, the default) and once with an
//! unbounded ring recorder — and the `(jct, fingerprint)` pair must be
//! bit-identical. Covers the fault-free golden lineup *and* the pinned
//! chaos plans, so the recorder is proven inert on the recovery paths
//! (crashes, lineage resubmission, blacklisting) too. A job mix run through
//! dynamic admission is held to the same contract, job outcome rows
//! included. The order of the cache-transition events themselves is
//! pinned by digest, so a refactor of the admit/evict paths cannot
//! reorder or drop one unnoticed.

use dagon_cluster::{AdmissionConfig, ClusterConfig, ExecId, FaultKind, FaultPlan};
use dagon_core::experiments::{multi_tenant_mix, ExpConfig};
use dagon_core::tenancy::{stream_simulation, sweep_tenants, TenantPolicy};
use dagon_core::{run_stream_system, run_system, run_system_traced, System};
use dagon_dag::examples::{fig1, tiny_chain};
use dagon_dag::BlockId;
use dagon_dag::JobDag;
use dagon_obs::{EvictReason, RingRecorder, TraceEvent, TraceLog};
use dagon_profiler::AppProfiler;
use dagon_tenancy::{StreamOptions, TenantStream};
use dagon_workloads::{Scale, Workload};

fn scenarios() -> Vec<(&'static str, JobDag, ClusterConfig, System)> {
    let quick = ExpConfig::quick();
    let dag_cc = Workload::ConnectedComponent.build(&quick.scale);

    // The pinned chaos plans from tests/golden.rs: recovery paths must be
    // equally recorder-invariant.
    let mut crash = ClusterConfig::tiny(1, 2);
    crash.faults = Some(FaultPlan::none().and(
        4500,
        FaultKind::ExecCrash {
            exec: ExecId(0),
            restart_after_ms: Some(2000),
        },
    ));
    let mut chaos = quick.cluster.clone();
    let n_exec = chaos.total_nodes() * chaos.execs_per_node;
    chaos.faults = Some(FaultPlan::chaos(11, n_exec, 60_000, &dag_cc));

    let mut rows = Vec::new();
    for sys in System::fig8_lineup() {
        rows.push(("fig1", fig1(), ClusterConfig::tiny(2, 16), sys.clone()));
        rows.push((
            "KMeans-quick",
            Workload::KMeans.build(&quick.scale),
            quick.cluster.clone(),
            sys.clone(),
        ));
        rows.push(("CC-quick", dag_cc.clone(), quick.cluster.clone(), sys));
    }
    rows.push((
        "tiny_chain+crash",
        tiny_chain(8, 500),
        crash,
        System::dagon(),
    ));
    rows.push(("CC-quick+chaos11", dag_cc, chaos, System::dagon()));
    rows
}

#[test]
fn recorder_on_and_off_produce_identical_results() {
    for (name, dag, cluster, sys) in scenarios() {
        let bare = run_system(&dag, &cluster, &sys);
        let traced = run_system_traced(&dag, &cluster, &sys, Box::new(RingRecorder::unbounded()));
        assert_eq!(
            (bare.result.jct, bare.result.fingerprint()),
            (traced.result.jct, traced.result.fingerprint()),
            "{name}/{sys}: recorder changed the simulation"
        );
        assert!(
            bare.result.trace.is_empty(),
            "{name}/{sys}: NullSink run captured events"
        );
        assert!(
            !traced.result.trace.is_empty(),
            "{name}/{sys}: recorder run captured nothing"
        );
        assert_eq!(traced.result.trace.dropped, 0);
    }
}

/// The admission path under a recorder: the three-job mix under Dagon,
/// bare and traced, gives one schedule and one set of job outcome rows,
/// and the trace shows each job's stages readied when it was admitted.
#[test]
fn admission_run_is_recorder_invariant() {
    let quick = ExpConfig::quick();
    let stream = multi_tenant_mix(&quick.scale);
    let sys = System::dagon();
    let bare = run_stream_system(&stream, &quick.cluster, &sys).result;
    let est = AppProfiler::noisy(0.10, quick.cluster.seed).estimate(&stream.dag);
    let mut sched = sys.build_scheduler(&stream.dag, &est);
    let admission = AdmissionConfig::default();
    let traced = stream_simulation(&stream, &quick.cluster, sys.cache, admission)
        .with_sink(Box::new(RingRecorder::unbounded()))
        .run(sched.as_mut());
    assert_eq!(
        (bare.jct, bare.fingerprint()),
        (traced.jct, traced.fingerprint()),
        "recorder changed the admission run"
    );
    assert_eq!(bare.jobs, traced.jobs, "recorder changed the job outcomes");
    assert!(bare.trace.is_empty());
    assert_eq!(traced.trace.dropped, 0);
    for (spec, job) in stream.specs.iter().zip(&traced.jobs) {
        let admitted = job.admitted_ms.expect("no job is rejected");
        assert!(
            traced.trace.records.iter().any(|r| r.at == admitted
                && matches!(r.event, TraceEvent::StageReady { stage, .. }
                    if spec.stages.contains(&stage))),
            "{}: no stage-ready event at admission ({admitted} ms)",
            spec.name
        );
    }
}

#[test]
fn traced_chaos_run_records_fault_events() {
    let quick = ExpConfig::quick();
    let dag = Workload::ConnectedComponent.build(&quick.scale);
    let mut cluster = quick.cluster.clone();
    let n_exec = cluster.total_nodes() * cluster.execs_per_node;
    cluster.faults = Some(FaultPlan::chaos(11, n_exec, 60_000, &dag));
    let out = run_system_traced(
        &dag,
        &cluster,
        &System::dagon(),
        Box::new(RingRecorder::unbounded()),
    );
    let kinds: std::collections::BTreeSet<&'static str> = out
        .result
        .trace
        .records
        .iter()
        .map(|r| r.event.kind())
        .collect();
    for k in [
        "task-launch",
        "task-finish",
        "sched-decision",
        "cache-admit",
        "cache-hit",
        "cache-miss",
        "exec-crash",
        "task-resubmitted",
    ] {
        assert!(
            kinds.contains(k),
            "chaos trace has no {k} events: {kinds:?}"
        );
    }
    // Timestamps are sim-clock, monotonically non-decreasing by recording
    // order, and bounded by the final JCT.
    let mut last = 0;
    for r in &out.result.trace.records {
        assert!(r.at >= last, "trace time went backwards at {:?}", r.event);
        assert!(r.at <= out.result.jct);
        last = r.at;
    }
}

#[test]
fn bounded_recorder_keeps_the_tail() {
    let quick = ExpConfig::quick();
    let dag = Workload::ConnectedComponent.build(&quick.scale);
    let full = run_system_traced(
        &dag,
        &quick.cluster,
        &System::dagon(),
        Box::new(RingRecorder::unbounded()),
    );
    let total = full.result.trace.len() as u64;
    let bounded = run_system_traced(
        &dag,
        &quick.cluster,
        &System::dagon(),
        Box::new(RingRecorder::bounded(100)),
    );
    assert_eq!(bounded.result.trace.len(), 100);
    assert_eq!(bounded.result.trace.dropped, total - 100);
    // The ring keeps the most recent events: its records are the tail of
    // the unbounded run's log.
    let skip = usize::try_from(total - 100).expect("the log fits in memory");
    let tail = &full.result.trace.records[skip..];
    assert_eq!(bounded.result.trace.records, tail);
}

/// `(count, digest)` of a log's cache transitions: FNV-1a over each
/// `CacheAdmit`/`CacheEvict`/`BlockLost` event's time, kind, block,
/// executor and reason (the prefetch flag for an admission), in log order.
fn transition_digest(log: &TraceLog) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut n = 0;
    for r in &log.records {
        let (kind, block, exec, reason): (u64, BlockId, u32, u64) = match r.event {
            TraceEvent::CacheAdmit {
                block,
                exec,
                prefetched,
                ..
            } => (0, block, exec, u64::from(prefetched)),
            TraceEvent::CacheEvict {
                block,
                exec,
                reason,
                ..
            } => {
                let reason = match reason {
                    EvictReason::Capacity => 0,
                    EvictReason::Proactive => 1,
                    EvictReason::Fault => 2,
                };
                (1, block, exec, reason)
            }
            TraceEvent::BlockLost { block, exec } => (2, block, exec, 0),
            _ => continue,
        };
        n += 1;
        for x in [
            r.at,
            kind,
            block.rdd.index() as u64,
            u64::from(block.partition),
            u64::from(exec),
            reason,
        ] {
            mix(x);
        }
    }
    (n, h)
}

/// The cache-transition event order, pinned: the CC chaos plan under
/// Dagon (prefetching, proactive drops, crashes and block losses all
/// fire) and a three-tenant stream under weighted-fair Dagon.
#[test]
fn cache_transition_order_is_pinned() {
    let quick = ExpConfig::quick();
    let dag = Workload::ConnectedComponent.build(&quick.scale);
    let mut chaos = quick.cluster.clone();
    let n_exec = chaos.total_nodes() * chaos.execs_per_node;
    chaos.faults = Some(FaultPlan::chaos(11, n_exec, 60_000, &dag));
    let out = run_system_traced(
        &dag,
        &chaos,
        &System::dagon(),
        Box::new(RingRecorder::unbounded()),
    );
    let chaos_digest = transition_digest(&out.result.trace);

    let stream = TenantStream::generate(
        &sweep_tenants(1.0),
        1,
        &Scale::tiny(),
        &StreamOptions::default(),
    );
    let policy = TenantPolicy::WeightedFairDagon;
    let est = AppProfiler::noisy(0.10, quick.cluster.seed).estimate(&stream.dag);
    let mut sched = policy.build_scheduler(&stream, &est);
    let traced = stream_simulation(
        &stream,
        &quick.cluster,
        policy.cache_kind(),
        AdmissionConfig::default(),
    )
    .with_sink(Box::new(RingRecorder::unbounded()))
    .run(sched.as_mut());
    let stream_digest = transition_digest(&traced.trace);
    assert_eq!(
        chaos_digest,
        (4090, 5724870807662944879),
        "CC-quick+chaos11"
    );
    assert_eq!(
        stream_digest,
        (14464, 14829525621455857492),
        "tenant stream"
    );
}
