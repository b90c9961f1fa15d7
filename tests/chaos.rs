//! Seeded chaos harness: run a matrix of (workload × system × fault plan)
//! paired simulations and assert the structural invariants of fault
//! recovery — every task effectively completes exactly once, no winning
//! attempt overlaps its executor's dead window, the cache ledger balances,
//! and a faulty run is never faster than its fault-free twin.
//!
//! On failure the offending (workload, system, seed) triples are written to
//! `target/chaos-failures.txt` so CI can upload them as a replayable
//! artifact.

use dagon_cluster::{ClusterConfig, ExecId, FaultKind, FaultPlan, SimResult};
use dagon_core::experiments::ExpConfig;
use dagon_core::{run_system, System};
use dagon_dag::examples::tiny_chain;
use dagon_dag::{BlockId, DagBuilder, JobDag};
use dagon_workloads::Workload;

/// The fault seeds of the matrix. 3 seeds × 2 workloads × 4 systems = 24
/// combinations, each with its own generated crash/loss/flake plan.
const CHAOS_SEEDS: [u64; 3] = [11, 23, 47];

fn workloads() -> Vec<(&'static str, JobDag, ClusterConfig)> {
    let quick = ExpConfig::quick();
    vec![
        ("tiny_chain", tiny_chain(8, 500), ClusterConfig::tiny(2, 4)),
        (
            "CC-quick",
            Workload::ConnectedComponent.build(&quick.scale),
            quick.cluster.clone(),
        ),
    ]
}

fn num_execs(cluster: &ClusterConfig) -> u32 {
    cluster.total_nodes() * cluster.execs_per_node
}

/// Dead windows `(crash, restart)` per executor index, from the plan.
fn dead_windows(plan: &FaultPlan, n_exec: usize) -> Vec<Vec<(u64, u64)>> {
    let mut w = vec![Vec::new(); n_exec];
    for fe in &plan.events {
        if let FaultKind::ExecCrash {
            exec,
            restart_after_ms,
        } = fe.kind
        {
            let t = fe.at.max(1);
            w[exec.index()].push((t, restart_after_ms.map_or(u64::MAX, |d| t + d)));
        }
    }
    w
}

/// The invariant suite every faulty run must satisfy.
fn check_invariants(
    name: &str,
    dag: &JobDag,
    plan: &FaultPlan,
    n_exec: u32,
    faulty: &SimResult,
    baseline: &SimResult,
) -> Result<(), String> {
    let m = &faulty.metrics;
    let mut errs = Vec::new();

    // 1. Every stage completed.
    for (i, s) in m.per_stage.iter().enumerate() {
        if s.completed_at.is_none() {
            errs.push(format!("stage {i} never completed"));
        }
    }

    // 2. Every task completes effectively once: one winning attempt per
    //    original task plus one per lineage recomputation, and no winner
    //    is a failed attempt.
    let total_tasks: u64 = dag.stages().iter().map(|s| s.num_tasks as u64).sum();
    let winners = m.task_runs.iter().filter(|r| r.winner).count() as u64;
    if winners != total_tasks + m.faults.tasks_recomputed {
        errs.push(format!(
            "winners {winners} != tasks {total_tasks} + recomputed {}",
            m.faults.tasks_recomputed
        ));
    }
    if m.task_runs.iter().any(|r| r.winner && r.failed) {
        errs.push("a failed attempt won".into());
    }

    // 3. No winning attempt overlaps its executor's dead window: nothing
    //    launches on a dead executor, and nothing survives its crash.
    let windows = dead_windows(plan, n_exec as usize);
    for r in m.task_runs.iter().filter(|r| r.winner) {
        for &(crash, restart) in &windows[r.exec.index()] {
            if r.start > crash && r.start < restart {
                errs.push(format!(
                    "{:?} launched on {:?} inside dead window [{crash},{restart})",
                    r.task, r.exec
                ));
            }
            if r.start < crash && r.end > crash {
                errs.push(format!(
                    "{:?} on {:?} survived the crash at {crash}",
                    r.task, r.exec
                ));
            }
        }
    }

    // 4. Cache ledger balances: inserts = evictions + proactive drops +
    //    fault losses + still-resident.
    let c = &m.cache;
    if c.insertions != c.evictions + c.proactive_evictions + c.lost + c.resident_end {
        errs.push(format!(
            "cache ledger: {} inserted != {} evicted + {} proactive + {} lost + {} resident",
            c.insertions, c.evictions, c.proactive_evictions, c.lost, c.resident_end
        ));
    }

    // 5. Faults never speed a job up.
    if faulty.jct < baseline.jct {
        errs.push(format!(
            "faulty jct {} < fault-free jct {}",
            faulty.jct, baseline.jct
        ));
    }

    // 6. Every attempt ends exactly once: one `TaskRun` per launch. A
    //    stale finish or fail event that acted on a dead attempt would
    //    log a second run for it.
    let launches: u64 = m
        .per_stage
        .iter()
        .flat_map(|s| s.launches_by_locality)
        .map(u64::from)
        .sum();
    if launches != m.task_runs.len() as u64 {
        errs.push(format!(
            "{launches} launches != {} task runs",
            m.task_runs.len()
        ));
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: {}", errs.join("; ")))
    }
}

#[test]
fn chaos_matrix_preserves_invariants() {
    let mut failures = Vec::new();
    let mut combos = 0u32;
    for (wname, dag, cluster) in workloads() {
        for sys in System::fig8_lineup() {
            let baseline = run_system(&dag, &cluster, &sys).result;
            for seed in CHAOS_SEEDS {
                combos += 1;
                let plan = FaultPlan::chaos(seed, num_execs(&cluster), baseline.jct, &dag);
                let mut faulty_cluster = cluster.clone();
                faulty_cluster.faults = Some(plan.clone());
                let faulty = run_system(&dag, &faulty_cluster, &sys).result;
                let name = format!("{wname}/{sys}/seed={seed}");
                if let Err(e) =
                    check_invariants(&name, &dag, &plan, num_execs(&cluster), &faulty, &baseline)
                {
                    failures.push(e);
                }
            }
        }
    }
    assert!(
        combos >= 20,
        "matrix shrank below 20 combinations: {combos}"
    );
    if !failures.is_empty() {
        let report = failures.join("\n");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/chaos-failures.txt", &report);
        panic!("{} chaos combination(s) failed:\n{report}", failures.len());
    }
}

/// Differential guarantee: arming the fault machinery with an *empty* plan
/// is bit-identical to not arming it at all, for every fig8 system.
#[test]
fn empty_fault_plan_is_bit_identical() {
    for (wname, dag, cluster) in workloads() {
        for sys in System::fig8_lineup() {
            let plain = run_system(&dag, &cluster, &sys).result;
            let mut armed_cluster = cluster.clone();
            armed_cluster.faults = Some(FaultPlan::none());
            let armed = run_system(&dag, &armed_cluster, &sys).result;
            assert_eq!(
                plain.fingerprint(),
                armed.fingerprint(),
                "{wname}/{sys}: empty FaultPlan changed the simulation"
            );
        }
    }
}

/// An executor crash *after* a cached stage completed must trigger lineage
/// recomputation: the lost cache + disk outputs are rebuilt by resubmitting
/// the producing stage's tasks, and the job still completes.
#[test]
fn crash_during_cached_stage_forces_lineage_recomputation() {
    // One executor holds every scan output (cached + on disk); crashing it
    // mid-agg destroys both copies of the not-yet-consumed blocks.
    let dag = tiny_chain(8, 500);
    let mut cluster = ClusterConfig::tiny(1, 2);
    cluster.faults = Some(FaultPlan::none().and(
        4500,
        FaultKind::ExecCrash {
            exec: ExecId(0),
            restart_after_ms: Some(2000),
        },
    ));
    let sys = System::dagon();
    let res = run_system(&dag, &cluster, &sys).result;
    let f = &res.metrics.faults;
    assert_eq!(f.exec_crashes, 1);
    assert!(
        f.tasks_recomputed > 0,
        "crash destroyed no needed output: {f:?}"
    );
    assert!(
        f.stage_resubmissions >= 1,
        "completed stage was not reopened: {f:?}"
    );
    assert!(res
        .metrics
        .per_stage
        .iter()
        .all(|s| s.completed_at.is_some()));
}

/// An executor with an empty cache crashes while its prefetch is in
/// flight, then restarts. Nothing else changes in between, so its
/// BlockManager, the reference profile and block residency are exactly as
/// they were when the transfer started: only the cleared in-flight slot
/// differs. The first tick after the restart must evaluate it again and
/// restart the transfer. Pinned to the values from before any prefetch
/// evaluation was ever skipped on unchanged inputs.
#[test]
fn empty_cache_crash_mid_prefetch_is_reevaluated_after_restart() {
    // One node, three 1-core executors. `a` writes block X (cached, read
    // later by `c`) and `b` keeps the job alive for 20 s; exec 2 runs
    // nothing.
    let mut b = DagBuilder::new("prefetch_crash");
    let s1 = b.hdfs_rdd("s1", 1, 64.0);
    let s2 = b.hdfs_rdd("s2", 1, 64.0);
    let (_, x) = b
        .stage("a")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_narrow(s1)
        .output_mb(64.0)
        .cache_output()
        .build();
    let (_, y) = b
        .stage("b")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(20_000)
        .reads_narrow(s2)
        .build();
    let _ = b
        .stage("c")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_wide(x)
        .reads_wide(y)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = ClusterConfig::tiny(1, 1);
    cluster.execs_per_node = 3;
    cluster.prefetch_free_frac = Some(0.05);
    // X's only cached copy (on exec 1, which ran `a`) is lost at t=1000,
    // so every executor starts prefetching it from disk on that tick
    // (533 ms transfers). Exec 2 dies at t=1101 and is back at t=1102.
    cluster.faults = Some(
        FaultPlan::none()
            .and(
                1000,
                FaultKind::BlockLoss {
                    block: BlockId::new(x, 0),
                    exec: ExecId(1),
                },
            )
            .and(
                1101,
                FaultKind::ExecCrash {
                    exec: ExecId(2),
                    restart_after_ms: Some(1),
                },
            ),
    );
    let res = run_system(&dag, &cluster, &System::dagon()).result;
    let c = &res.metrics.cache;
    assert_eq!(res.metrics.faults.exec_crashes, 1);
    assert_eq!(c.lost, 1);
    // Three transfers at t=1000, and exec 2's restarted one at t=1200.
    assert_eq!((c.prefetches, c.insertions), (4, 4));
    assert_eq!((res.jct, res.fingerprint()), (21166, 10199300658708757701));
}

/// Mixed fault kinds in one plan: crashes, cached-block losses and flaky
/// tasks together, still converging on the full Dagon system.
#[test]
fn combined_fault_kinds_recover() {
    let quick = ExpConfig::quick();
    let dag = Workload::KMeans.build(&quick.scale);
    let sys = System::dagon();
    let baseline = run_system(&dag, &quick.cluster, &sys).result;
    for seed in [3, 9] {
        let plan = FaultPlan::chaos(seed, num_execs(&quick.cluster), baseline.jct, &dag);
        let mut cluster = quick.cluster.clone();
        cluster.faults = Some(plan.clone());
        let faulty = run_system(&dag, &cluster, &sys).result;
        check_invariants(
            &format!("KMeans-quick/Dagon/seed={seed}"),
            &dag,
            &plan,
            num_execs(&quick.cluster),
            &faulty,
            &baseline,
        )
        .unwrap();
    }
}

/// A dead block pruned from its node's prefetch candidates comes back
/// through lineage recovery. `a` writes X0 and X1 (cached, on the one
/// node's disk) and `c` reads both, so X1 dies once `c` finishes and the
/// next prefetch scan prunes it. The crash of the executor that ran `c`
/// destroys `c`'s output Z (still needed by `d`) and X0, so recovery
/// resubmits `c` (reviving X1 through `add_use`) and `a`'s task 0. X1 is
/// on disk, live again and cached nowhere: the scan must offer it again.
#[test]
fn revived_block_is_prefetched_again_after_pruning() {
    let mut b = DagBuilder::new("prefetch_revival");
    let s1 = b.hdfs_rdd("s1", 2, 64.0);
    let s2 = b.hdfs_rdd("s2", 1, 64.0);
    let (_, x) = b
        .stage("a")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_narrow(s1)
        .output_mb(64.0)
        .cache_output()
        .build();
    let (_, z) = b
        .stage("c")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_wide(x)
        .build();
    let (_, y) = b
        .stage("b")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(20_000)
        .reads_narrow(s2)
        .build();
    let _ = b
        .stage("d")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_wide(z)
        .reads_wide(y)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = ClusterConfig::tiny(1, 1);
    cluster.execs_per_node = 3;
    cluster.prefetch_free_frac = Some(0.05);
    cluster.faults = Some(FaultPlan::none().and(
        5_000,
        FaultKind::ExecCrash {
            exec: ExecId(1),
            restart_after_ms: Some(1),
        },
    ));
    let res = run_system(&dag, &cluster, &System::dagon()).result;
    let c = &res.metrics.cache;
    // X0 and Z were on the crashed executor's disk; `c` and `a`'s task 0
    // ran again.
    assert_eq!(res.metrics.faults.disk_blocks_lost, 2);
    assert_eq!(res.metrics.faults.tasks_recomputed, 2);
    assert_eq!((c.prefetches, c.proactive_evictions), (3, 8));
    assert_eq!((res.jct, res.fingerprint()), (21700, 4997990354014738984));
}

/// The prefetch candidate lists through every transition kind, with two
/// block sizes on one node's disk. `a` writes X0 and X1 (64 MiB, cached)
/// and `e` writes W0 and W1 (16 MiB, cached), all read later: X by `c`,
/// W by `d`. X1 dies once `c` finishes. At t=4850 W1 loses its only
/// cached copy (on exec 1, which wrote it), so the t=4900 scan lists
/// it. At t=4950 exec 1, which also ran `c`,
/// crashes: the disk replicas it wrote (W1, X0 and `c`'s output Z) are
/// gone, so W1 leaves the list, and recovery resubmits `e`'s task 1,
/// `a`'s task 0 and `c`, which revives X1 on disk. Pinned to the values
/// from before the lists were kept from transitions.
#[test]
fn two_size_candidates_follow_crash_loss_and_revival() {
    let mut b = DagBuilder::new("prefetch_two_sizes");
    let s1 = b.hdfs_rdd("s1", 2, 64.0);
    let s2 = b.hdfs_rdd("s2", 1, 64.0);
    let s3 = b.hdfs_rdd("s3", 2, 16.0);
    let (_, x) = b
        .stage("a")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_narrow(s1)
        .output_mb(64.0)
        .cache_output()
        .build();
    let (_, w) = b
        .stage("e")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_narrow(s3)
        .output_mb(16.0)
        .cache_output()
        .build();
    let (_, z) = b
        .stage("c")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_wide(x)
        .build();
    let (_, y) = b
        .stage("b")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(20_000)
        .reads_narrow(s2)
        .build();
    let _ = b
        .stage("d")
        .tasks(1)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_wide(z)
        .reads_wide(y)
        .reads_wide(w)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = ClusterConfig::tiny(1, 1);
    cluster.execs_per_node = 3;
    cluster.prefetch_free_frac = Some(0.05);
    cluster.faults = Some(
        FaultPlan::none()
            .and(
                4_850,
                FaultKind::BlockLoss {
                    block: BlockId::new(w, 1),
                    exec: ExecId(1),
                },
            )
            .and(
                4_950,
                FaultKind::ExecCrash {
                    exec: ExecId(1),
                    restart_after_ms: Some(1),
                },
            ),
    );
    let res = run_system(&dag, &cluster, &System::dagon()).result;
    let (c, f) = (&res.metrics.cache, &res.metrics.faults);
    assert_eq!((f.disk_blocks_lost, f.tasks_recomputed), (3, 3));
    assert_eq!((c.lost, c.prefetches), (1, 6));
    assert_eq!((res.jct, res.fingerprint()), (21707, 8890413384186854024));
}
