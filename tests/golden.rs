//! Golden simulation snapshots: same-seed runs must produce *identical*
//! results — JCT, per-stage metrics, and locality histograms — across
//! refactors of the scheduling fast path. The constants below were
//! captured from the pre-LocalityIndex sequential scheduler; the batched
//! scheduler must reproduce them bit-for-bit (ISSUE 1 acceptance
//! criterion).
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --release --test golden -- --ignored print_golden --nocapture`

use dagon_cluster::{ClusterConfig, ExecId, FaultKind, FaultPlan, SimResult};
use dagon_core::experiments::{multi_tenant_mix, ExpConfig};
use dagon_core::{run_stream_system, run_system, System};
use dagon_dag::examples::{fig1, tiny_chain};
use dagon_dag::JobDag;
use dagon_workloads::Workload;

/// `(jct, fp)` via [`SimResult::fingerprint`]: FNV-1a over every
/// semantically-relevant field of the result — JCT, per-stage
/// first-launch/completion times, launch and finish locality histograms,
/// and the winner task-run locality histogram. Scheduler overhead and
/// cache/fault counters are deliberately excluded — they describe how the
/// result was computed, not what it is.
fn fingerprint(r: &SimResult) -> (u64, u64) {
    (r.jct, r.fingerprint())
}

/// The four scenarios of the acceptance criterion, × the fig8 lineup.
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

/// The three-job mix through admission, × the fig8 lineup. Each job's
/// outcome row must agree with the stage metrics: it completes when the
/// last of its stages does.
fn mix3_rows(rows: &mut Vec<(String, u64, u64)>) {
    let quick = ExpConfig::quick();
    let stream = multi_tenant_mix(&quick.scale);
    for sys in System::fig8_lineup() {
        let out = run_stream_system(&stream, &quick.cluster, &sys);
        let r = &out.result;
        assert_eq!(r.jobs.len(), stream.specs.len());
        for (spec, job) in stream.specs.iter().zip(&r.jobs) {
            let last = spec
                .stages
                .iter()
                .map(|s| r.metrics.per_stage[s.index()].completed_at)
                .max()
                .flatten();
            assert_eq!(job.completed_ms, last, "mix3-quick/{sys}: {}", spec.name);
        }
        let (jct, fp) = fingerprint(r);
        rows.push((format!("mix3-quick/{sys}"), jct, fp));
    }
}

/// Two pinned chaos scenarios: fully fixed fault plans, so recovery
/// behavior (retry ordering, lineage resubmission, blacklist decisions) is
/// itself golden-pinned, not just the fault-free path.
fn chaos_scenarios() -> Vec<(&'static str, JobDag, ClusterConfig, System)> {
    // A: the lineage-recovery scenario — one executor holds every scan
    // output; crashing it mid-agg destroys cache + disk copies and forces
    // resubmission of the producing stage.
    let mut c1 = ClusterConfig::tiny(1, 2);
    c1.faults = Some(FaultPlan::none().and(
        4500,
        FaultKind::ExecCrash {
            exec: ExecId(0),
            restart_after_ms: Some(2000),
        },
    ));
    // B: a generated chaos plan (crashes + cached-block losses + flaky
    // tasks) on the full Dagon system over the CC workload.
    let quick = ExpConfig::quick();
    let dag_cc = Workload::ConnectedComponent.build(&quick.scale);
    let mut c2 = quick.cluster.clone();
    let n_exec = c2.total_nodes() * c2.execs_per_node;
    c2.faults = Some(FaultPlan::chaos(11, n_exec, 60_000, &dag_cc));
    vec![
        ("tiny_chain+crash", tiny_chain(8, 500), c1, System::dagon()),
        ("CC-quick+chaos11", dag_cc, c2, System::dagon()),
    ]
}

fn run_all() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for (wname, dag, cluster) in scenarios() {
        for sys in System::fig8_lineup() {
            let out = run_system(&dag, &cluster, &sys);
            let (jct, fp) = fingerprint(&out.result);
            rows.push((format!("{wname}/{sys}"), jct, fp));
        }
    }
    mix3_rows(&mut rows);
    for (wname, dag, cluster, sys) in chaos_scenarios() {
        let out = run_system(&dag, &cluster, &sys);
        let (jct, fp) = fingerprint(&out.result);
        rows.push((format!("{wname}/{sys}"), jct, fp));
    }
    rows
}

/// Captured from the pre-optimization scheduler (sequential single-pick
/// path), vendored-rand streams, seed = ClusterConfig defaults.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("fig1/FIFO+LRU", 602314, 3311346766028599992),
    ("fig1/Graphene+LRU", 602969, 1662238159545852579),
    ("fig1/Graphene+MRD", 602969, 1662238159545852579),
    ("fig1/Dagon", 602314, 3311346766028599992),
    ("tiny_chain/FIFO+LRU", 2531, 2208728996217705522),
    ("tiny_chain/Graphene+LRU", 2531, 2208728996217705522),
    ("tiny_chain/Graphene+MRD", 2531, 2208728996217705522),
    ("tiny_chain/Dagon", 2531, 2208728996217705522),
    ("KMeans-quick/FIFO+LRU", 32538, 10615792872003016651),
    ("KMeans-quick/Graphene+LRU", 32538, 10615792872003016651),
    ("KMeans-quick/Graphene+MRD", 32478, 12115286035362271704),
    ("KMeans-quick/Dagon", 33990, 16248710267207412905),
    ("CC-quick/FIFO+LRU", 51253, 12035404264890145351),
    ("CC-quick/Graphene+LRU", 51318, 5786794090166402431),
    ("CC-quick/Graphene+MRD", 49135, 14090999386727238774),
    ("CC-quick/Dagon", 50006, 14939127398690536188),
    // KMeans @0 + LinR @10 s + CC @20 s, each admitted at its arrival.
    ("mix3-quick/FIFO+LRU", 148060, 13776759938759488333),
    ("mix3-quick/Graphene+LRU", 143140, 10006719505837446679),
    ("mix3-quick/Graphene+MRD", 137184, 12824803377517218998),
    ("mix3-quick/Dagon", 132937, 10412253203593255893),
    // Chaos scenarios: fixed fault plans, so recovery paths are pinned too.
    ("tiny_chain+crash/Dagon", 9066, 6312598547193644888),
    ("CC-quick+chaos11/Dagon", 62462, 11643879037322600220),
];

#[test]
fn simulation_results_match_golden_snapshots() {
    let rows = run_all();
    assert_eq!(rows.len(), GOLDEN.len(), "scenario lineup changed");
    let mut bad = Vec::new();
    for ((name, jct, fp), (gname, gjct, gfp)) in rows.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "scenario order changed");
        if jct != gjct || fp != gfp {
            bad.push(format!(
                "{name}: jct {jct} (want {gjct}), fp {fp} (want {gfp})"
            ));
        }
    }
    assert!(bad.is_empty(), "golden mismatches:\n{}", bad.join("\n"));
}

#[test]
#[ignore = "prints current values for updating GOLDEN"]
fn print_golden() {
    for (name, jct, fp) in run_all() {
        println!("    (\"{name}\", {jct}, {fp}),");
    }
}
