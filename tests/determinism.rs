//! Bit-level determinism: running the same configuration twice must
//! produce identical results — fault-free *and* under an armed fault plan.
//! The simulator's only remaining hash containers are membership-only
//! (`prefetched` and lineage recovery's dedup guard); everything iterated for
//! decisions (the running-attempt table, pending sets, locality index) has
//! deterministic order by construction, and this test is the tripwire for
//! any future leak.

use dagon_cluster::{ClusterConfig, FaultPlan};
use dagon_core::experiments::ExpConfig;
use dagon_core::{run_system, System};
use dagon_dag::examples::{fig1, tiny_chain};
use dagon_dag::JobDag;
use dagon_workloads::Workload;

fn scenarios() -> Vec<(&'static str, JobDag, ClusterConfig)> {
    let quick = ExpConfig::quick();
    vec![
        ("fig1", fig1(), ClusterConfig::tiny(2, 16)),
        ("tiny_chain", tiny_chain(8, 500), ClusterConfig::tiny(2, 4)),
        (
            "KMeans-quick",
            Workload::KMeans.build(&quick.scale),
            quick.cluster.clone(),
        ),
        (
            "CC-quick",
            Workload::ConnectedComponent.build(&quick.scale),
            quick.cluster.clone(),
        ),
    ]
}

#[test]
fn repeated_runs_are_bit_identical() {
    for (wname, dag, cluster) in scenarios() {
        for sys in System::fig8_lineup() {
            let a = run_system(&dag, &cluster, &sys).result;
            let b = run_system(&dag, &cluster, &sys).result;
            assert_eq!(a.jct, b.jct, "{wname}/{sys}: jct differs across runs");
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{wname}/{sys}: fingerprint differs across runs"
            );
        }
    }
}

/// The 200-executor tenant load sweep is bit-for-bit reproducible from its
/// seed: every percentile, fairness index and rejection count replays.
/// Release-only — the sweep runs 3 policies × 55-job streams with the
/// per-opportunity incremental oracles active in debug builds.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 200-executor sweep")]
fn tenant_sweep_is_bit_reproducible() {
    use dagon_core::tenancy::fig_tenant_sweep;
    let a = fig_tenant_sweep(7, &[1.0]);
    let b = fig_tenant_sweep(7, &[1.0]);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
            assert_eq!(ca.policy, cb.policy);
            assert_eq!(ca.p50_jct_ms, cb.p50_jct_ms, "{}: p50 drifted", ca.policy);
            assert_eq!(ca.p99_jct_ms, cb.p99_jct_ms, "{}: p99 drifted", ca.policy);
            assert_eq!(
                ca.makespan_ms, cb.makespan_ms,
                "{}: makespan drifted",
                ca.policy
            );
            assert_eq!(
                ca.rejected, cb.rejected,
                "{}: rejections drifted",
                ca.policy
            );
            assert_eq!(
                ca.jain_fairness.to_bits(),
                cb.jain_fairness.to_bits(),
                "{}: fairness index drifted",
                ca.policy
            );
        }
    }
}

#[test]
fn repeated_faulty_runs_are_bit_identical() {
    for (wname, dag, cluster) in scenarios() {
        let n_exec = cluster.total_nodes() * cluster.execs_per_node;
        for sys in System::fig8_lineup() {
            let mut faulty = cluster.clone();
            faulty.faults = Some(FaultPlan::chaos(17, n_exec, 30_000, &dag));
            let a = run_system(&dag, &faulty, &sys).result;
            let b = run_system(&dag, &faulty, &sys).result;
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{wname}/{sys}: faulty fingerprint differs across runs"
            );
            assert_eq!(
                a.metrics.faults, b.metrics.faults,
                "{wname}/{sys}: fault counters differ across runs"
            );
        }
    }
}
