//! Cross-crate integration tests: every scheduler × cache combination
//! drives the simulator to completion on real workload DAGs, and the
//! paper's small exact results hold end to end.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cache::PolicyKind;
use dagon_cluster::ClusterConfig;
use dagon_core::system::{PlaceKind, SchedKind, System};
use dagon_core::{run_system, tiny_exec};
use dagon_dag::examples::fig1;
use dagon_dag::MIN_MS;
use dagon_workloads::{Scale, Workload};

fn tiny_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    c.racks = vec![2, 2];
    c.execs_per_node = 2;
    c.exec_cache_mb = 512.0;
    c
}

#[test]
fn every_system_completes_every_workload_at_tiny_scale() {
    let cluster = tiny_cluster();
    let scale = Scale::tiny();
    for w in Workload::PAPER_SEVEN
        .into_iter()
        .chain([Workload::PageRank])
    {
        let dag = w.build(&scale);
        for sched in [
            SchedKind::Fifo,
            SchedKind::Fair,
            SchedKind::CriticalPath,
            SchedKind::Graphene,
            SchedKind::Dagon,
        ] {
            for cache in [
                PolicyKind::None,
                PolicyKind::Lru,
                PolicyKind::Lrc,
                PolicyKind::Mrd,
                PolicyKind::Lrp,
            ] {
                let sys = System::new(sched, PlaceKind::NativeDelay, cache);
                let out = run_system(&dag, &cluster, &sys);
                assert!(out.result.jct > 0, "{w} under {sys}");
                // Every task ran exactly once as a winner.
                let total: u32 = dag.stages().iter().map(|s| s.num_tasks).sum();
                let winners = out
                    .result
                    .metrics
                    .task_runs
                    .iter()
                    .filter(|r| r.winner)
                    .count() as u32;
                assert_eq!(winners, total, "{w} under {sys}");
            }
        }
    }
}

#[test]
fn sensitivity_placement_composes_with_all_orderings() {
    let cluster = tiny_cluster();
    let dag = Workload::KMeans.build(&Scale::tiny());
    for sched in [SchedKind::Fifo, SchedKind::Graphene, SchedKind::Dagon] {
        let sys = System::new(sched, PlaceKind::Sensitivity, PolicyKind::Lrp);
        let out = run_system(&dag, &cluster, &sys);
        assert!(out.result.jct > 0, "{sys}");
    }
}

#[test]
fn fig2_exact_makespans_hold_through_the_full_simulator() {
    // The event simulator (with I/O) must stay close to the abstract
    // 16-vs-12-minute result on the Fig. 1 example: same winner, similar
    // ratio.
    let mut cluster = ClusterConfig::tiny(1, 16);
    cluster.exec_cache_mb = 192.0;
    let fifo = run_system(&fig1(), &cluster, &System::stock_spark());
    let dagon = run_system(&fig1(), &cluster, &System::dagon());
    let ratio = fifo.result.jct as f64 / dagon.result.jct as f64;
    assert!(
        ratio > 1.15,
        "expected ≥15% improvement, got ratio {ratio:.3}"
    );
    // Abstract model is exact.
    let a = tiny_exec::run_tiny(&fig1(), 16, tiny_exec::Mode::Fifo);
    let b = tiny_exec::run_tiny(&fig1(), 16, tiny_exec::Mode::DagAware);
    assert_eq!((a.makespan, b.makespan), (16, 12));
}

#[test]
fn cache_stats_are_consistent() {
    let cluster = tiny_cluster();
    let dag = Workload::PageRank.build(&Scale::tiny());
    let out = run_system(&dag, &cluster, &System::dagon());
    let c = &out.result.metrics.cache;
    // Hits + misses = all accesses to cache-eligible blocks; insertions
    // cannot exceed misses + prefetches + produced blocks.
    assert!(c.hits + c.misses > 0);
    let produced: u64 = dag
        .stages()
        .iter()
        .filter(|s| dag.rdd(s.output).cached)
        .map(|s| s.num_tasks as u64)
        .sum();
    assert!(
        c.insertions <= c.misses + c.prefetches + produced,
        "insertions {} vs misses {} + prefetches {} + produced {produced}",
        c.insertions,
        c.misses,
        c.prefetches
    );
    assert!(c.prefetch_used <= c.prefetches);
}

#[test]
fn utilization_is_a_valid_fraction_everywhere() {
    let cluster = tiny_cluster();
    for w in [Workload::DecisionTree, Workload::ConnectedComponent] {
        let dag = w.build(&Scale::tiny());
        for sys in System::fig8_lineup() {
            let out = run_system(&dag, &cluster, &sys);
            let u = out.result.cpu_utilization();
            assert!(u > 0.0 && u <= 1.0, "{w} {sys}: {u}");
        }
    }
}

#[test]
fn speculation_bounds_straggler_damage() {
    // A stage with one 8× straggler task: speculation should launch at
    // least one copy and not corrupt completion accounting.
    let mut b = dagon_dag::DagBuilder::new("skewed");
    let src = b.hdfs_rdd("in", 16, 32.0);
    let (_, r) = b
        .stage("scan")
        .tasks(16)
        .demand_cpus(1)
        .cpu_ms(2 * MIN_MS / 10)
        .skew(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.0])
        .reads_narrow(src)
        .build();
    let _ = b
        .stage("agg")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(500)
        .reads_wide(r)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = tiny_cluster();
    cluster.speculation = Some(dagon_cluster::SpeculationConfig {
        multiplier: 1.5,
        quantile: 0.5,
    });
    let out = run_system(&dag, &cluster, &System::stock_spark());
    assert!(out.result.metrics.speculative_launched >= 1);
    let winners = out
        .result
        .metrics
        .task_runs
        .iter()
        .filter(|r| r.winner)
        .count();
    assert_eq!(winners, 18);
}

/// A speculative copy launched on a tick that follows no other state
/// change still gets that tick's cache work (proactive sweep and LRP
/// prefetch evaluation): the tick takes its change flag only after
/// speculation. Pinned to the values from before quiet ticks skipped
/// the cache work.
#[test]
fn speculative_launch_on_a_quiet_tick_keeps_its_cache_work() {
    // One 8x straggler among 8 scan tasks; `refine` re-reads the cached
    // input, so its blocks stay live for prefetch and die for the sweep.
    let mut b = dagon_dag::DagBuilder::new("quiet_spec");
    let src = b.hdfs_rdd_cached("in", 8, 64.0, true);
    let (_, r) = b
        .stage("scan")
        .tasks(8)
        .demand_cpus(1)
        .cpu_ms(1000)
        .skew(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.0])
        .reads_narrow(src)
        .cache_output()
        .build();
    let _ = b
        .stage("refine")
        .tasks(8)
        .demand_cpus(1)
        .cpu_ms(500)
        .reads_narrow(src)
        .reads_narrow(r)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = tiny_cluster();
    cluster.prefetch_free_frac = Some(0.05);
    cluster.speculation = Some(dagon_cluster::SpeculationConfig {
        multiplier: 1.5,
        quantile: 0.5,
    });
    let res = run_system(&dag, &cluster, &System::dagon()).result;
    let runs = &res.metrics.task_runs;
    let copies: Vec<u64> = runs
        .iter()
        .filter(|r| r.speculative)
        .map(|r| r.start)
        .collect();
    assert!(!copies.is_empty(), "no speculative copy launched");
    // No other attempt started or ended at a copy's launch: it came from
    // the speculation check on an otherwise quiet tick.
    for t in &copies {
        assert!(
            runs.iter()
                .filter(|r| !r.speculative)
                .all(|r| r.start != *t && r.end != *t),
            "copy at {t} shares its tick with another attempt"
        );
    }
    assert_eq!(copies, [2300, 8300]);
    let c = &res.metrics.cache;
    assert_eq!((c.prefetches, c.proactive_evictions), (5, 22));
    assert_eq!((res.jct, res.fingerprint()), (8524, 6990099455423495628));
}

#[test]
fn determinism_across_full_stack() {
    let cluster = tiny_cluster();
    let dag = Workload::TriangleCount.build(&Scale::tiny());
    let a = run_system(&dag, &cluster, &System::graphene_mrd());
    let b = run_system(&dag, &cluster, &System::graphene_mrd());
    assert_eq!(a.result.jct, b.result.jct);
    assert_eq!(a.result.metrics.cache, b.result.metrics.cache);
}

#[test]
fn multi_tenant_merge_runs_and_reports_per_job_jct() {
    use dagon_cluster::ArrivalSpec;
    use dagon_core::run_stream_system;
    use dagon_tenancy::{StreamJob, TenantStream};
    let scale = Scale::tiny();
    let mk = |w: Workload, at: u64| StreamJob {
        tenant: 0,
        name: w.name().to_string(),
        arrival: ArrivalSpec::Open { at },
        dag: w.build(&scale),
    };
    let jobs = vec![
        mk(Workload::KMeans, 0),
        mk(Workload::LinearRegression, 2_000),
    ];
    let stream = TenantStream::from_jobs(&jobs, Vec::new());
    let out = run_stream_system(&stream, &tiny_cluster(), &System::dagon());
    let jcts: Vec<u64> = out
        .result
        .jobs
        .iter()
        .map(|j| j.completed_ms.expect("job completed") - j.arrival_ms)
        .collect();
    assert_eq!(jcts, [18791, 18943]);
    assert_eq!(
        (out.result.jct, out.result.fingerprint()),
        (20943, 18340016831018370870)
    );
    // The second job cannot have started before its arrival.
    let first_launch = stream.specs[1]
        .stages
        .iter()
        .filter_map(|s| out.result.metrics.per_stage[s.index()].first_launch)
        .min()
        .unwrap();
    assert!(first_launch >= 2_000, "job 1 started at {first_launch}");
}

#[test]
fn machine_stragglers_are_mitigated_by_speculation() {
    use dagon_workloads::{Scale, Workload};
    let dag = Workload::KMeans.build(&Scale::tiny());
    let mut cfg = tiny_cluster();
    cfg.straggler_prob = 0.08;
    cfg.speculation = None;
    let plain = run_system(&dag, &cfg, &System::stock_spark());
    cfg.speculation = Some(dagon_cluster::SpeculationConfig {
        multiplier: 1.5,
        quantile: 0.5,
    });
    let spec = run_system(&dag, &cfg, &System::stock_spark());
    assert!(spec.result.metrics.speculative_launched > 0);
    assert!(
        spec.result.jct <= plain.result.jct,
        "speculation {} vs plain {}",
        spec.result.jct,
        plain.result.jct
    );
}
