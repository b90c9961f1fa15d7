//! Differential properties for PR 7's inverted pending-work index on
//! [`LocalityIndex`]: per-(stage, locality-level, executor) counts of
//! pending tasks, maintained incrementally from residency deltas and
//! pending-set pops/inserts.
//!
//! Two layers of coverage, mirroring `ready_props`:
//!
//! * **Index-level**: generated histories over two stages interleaving
//!   cache inserts/evicts, disk-replica loss (crash-style), pending pops
//!   and re-inserts (requeue-style) and one stage entering and leaving
//!   the index (ready-list flips), checked after every step against a
//!   brute-force per-(stage, level) membership oracle recomputed from a
//!   shadow residency registry — plus the gate implication the placement
//!   fast path relies on: a zero count at (exec, level) must mean the
//!   first-match probe [`LocalityIndex::scan_first`] finds nothing there.
//! * **Sim-level**: random workloads and chaos fault plans run end-to-end
//!   in the dev profile, where `check_inv_consistency` re-derives every
//!   count from scratch at each scheduling opportunity; on top the
//!   properties pin determinism and the build-once guarantee
//!   (`inv_index_rebuilds == 1`) the CI bench guard asserts at scale.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cluster::hdfs::DataMap;
use dagon_cluster::{
    ClusterConfig, ExecId, FaultPlan, Locality, LocalityIndex, NodeId, PendingSet, TaskView,
    Topology,
};
use dagon_core::{run_system, System};
use dagon_dag::{BlockId, DagBuilder, RddId};
use dagon_workloads::{Scale, Workload};
use proptest::prelude::*;

const N_TASKS: u32 = 8;

/// Abstract step of a generated history: residency flips (the four
/// [`LocalityIndex`] mutators) interleaved with pending-set churn the way
/// the simulator drives them (launch pops, requeue/resubmit re-inserts)
/// and with stage 1 entering and leaving the ready list.
#[derive(Clone, Debug)]
enum Step {
    /// Cache block `b % N_TASKS` on executor `i % n_execs`.
    Cache { b: u32, i: usize },
    /// Evict block `b % N_TASKS` from executor `i % n_execs`.
    Evict { b: u32, i: usize },
    /// Add a disk replica of block `b` on node `i % n_nodes`.
    DiskAdd { b: u32, i: usize },
    /// Drop the disk replica on node `i % n_nodes` (crash-style loss).
    DiskLose { b: u32, i: usize },
    /// Pop task `k % N_TASKS` of stage `s` from its pending set (launch).
    Pop { s: usize, k: u32 },
    /// Re-insert task `k % N_TASKS` of stage `s` (requeue after a failure).
    Reinsert { s: usize, k: u32 },
    /// Put stage 1 on (`on`) or off the index, as a ready-list flip does.
    Live { on: bool },
}

/// Weighted step kinds (no `prop_oneof` in the vendored shim, so the
/// weights are an integer draw): cache 3 / evict 2 / disk-add 1 /
/// disk-lose 1 / pop 3 / reinsert 2 / live 2.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..14, 0u32..N_TASKS, 0usize..16).prop_map(|(kind, b, i)| match kind {
        0..=2 => Step::Cache { b, i },
        3..=4 => Step::Evict { b, i },
        5 => Step::DiskAdd { b, i },
        6 => Step::DiskLose { b, i },
        7..=9 => Step::Pop { s: i % 2, k: b },
        10..=11 => Step::Reinsert { s: i % 2, k: b },
        _ => Step::Live { on: i % 2 == 0 },
    })
}

/// The index under test plus everything the oracle needs: a shadow
/// residency registry fed the same mutations, each stage's pending set
/// and its liveness.
struct Fixture {
    topo: Topology,
    idx: LocalityIndex,
    data: DataMap,
    pending: [PendingSet; 2],
    live: [bool; 2],
}

/// Two-stage fixture on a 2-rack topology: task `k` of either stage reads
/// block `k` of the source RDD, so every flip re-levels readers in both.
/// Replication 1 so crash-style disk loss can push tasks all the way to
/// `Any`. Stage 0 starts live and stays live; stage 1 starts off the
/// index and is toggled by [`Step::Live`].
fn build() -> Fixture {
    let mut b = DagBuilder::new("t");
    let src = b.hdfs_rdd("in", N_TASKS, 64.0);
    for name in ["s0", "s1"] {
        let _ = b
            .stage(name)
            .tasks(N_TASKS)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_narrow(src)
            .build();
    }
    let dag = b.build().unwrap();
    let topo = Topology::build(&[2, 2], 2);
    let data = DataMap::place_sources(&dag, &topo, 1, 7);
    let per_stage: Vec<TaskView> = (0..N_TASKS)
        .map(|k| TaskView {
            loc_blocks: vec![BlockId::new(RddId(0), k)],
        })
        .collect();
    let tv = vec![per_stage.clone(), per_stage];
    // `new` seeds the live stage with every task pending — the simulator
    // starts each stage with a full pending set.
    let live = [true, false];
    let idx = LocalityIndex::new(&dag, &topo, &data, &tv, &live);
    Fixture {
        topo,
        idx,
        data,
        pending: [PendingSet::full(N_TASKS), PendingSet::full(N_TASKS)],
        live,
    }
}

/// Brute-force level of task `k` on executor `e` from the shadow
/// residency sets: max over the task's blocks of the per-block ladder
/// walk. The same definition `check_inv_consistency` uses, recomputed
/// here independently so the test does not trust the index's own oracle.
fn brute_level(data: &DataMap, topo: &Topology, k: u32, e: ExecId) -> Locality {
    let b = BlockId::new(RddId(0), k);
    if data.is_cached_in(b, e) {
        return Locality::Process;
    }
    let node = topo.node_of_exec(e);
    if data.disk_nodes(b).contains(&node)
        || data
            .cached_execs(b)
            .iter()
            .any(|x| topo.node_of_exec(*x) == node)
    {
        return Locality::Node;
    }
    let rack = topo.rack_of_node(node);
    if data
        .disk_nodes(b)
        .iter()
        .any(|n| topo.rack_of_node(*n) == rack)
        || data
            .cached_execs(b)
            .iter()
            .any(|x| topo.rack_of_exec(*x) == rack)
    {
        return Locality::Rack;
    }
    Locality::Any
}

/// Best level of task `k` anywhere, brute force.
fn brute_best(f: &Fixture, k: u32) -> Locality {
    (0..f.topo.num_execs() as u32)
        .map(|x| brute_level(&f.data, &f.topo, k, ExecId(x)))
        .min()
        .unwrap()
}

/// Drive one abstract step, keeping the history valid (evicts only of
/// cached blocks, disk-loss only of present replicas, pops only of
/// pending tasks — the same preconditions the simulator guarantees).
/// Flips go to the index and the shadow alike.
fn drive(step: &Step, f: &mut Fixture) {
    let ne = f.topo.num_execs();
    let nn = f.topo.num_nodes();
    match *step {
        Step::Cache { b, i } => {
            let (b, e) = (BlockId::new(RddId(0), b % N_TASKS), ExecId((i % ne) as u32));
            if !f.data.is_cached_in(b, e) {
                f.idx.add_cached(b, e);
                f.data.add_cached(b, e);
            }
        }
        Step::Evict { b, i } => {
            let (b, e) = (BlockId::new(RddId(0), b % N_TASKS), ExecId((i % ne) as u32));
            if f.data.is_cached_in(b, e) {
                f.idx.remove_cached(b, e);
                f.data.remove_cached(b, e);
            }
        }
        Step::DiskAdd { b, i } => {
            let (b, n) = (BlockId::new(RddId(0), b % N_TASKS), NodeId((i % nn) as u32));
            if !f.data.disk_nodes(b).contains(&n) {
                f.idx.add_disk(b, n);
                f.data.add_disk(b, n);
            }
        }
        Step::DiskLose { b, i } => {
            let (b, n) = (BlockId::new(RddId(0), b % N_TASKS), NodeId((i % nn) as u32));
            if f.data.disk_nodes(b).contains(&n) {
                f.idx.remove_disk(b, n);
                f.data.remove_disk(b, n);
            }
        }
        Step::Pop { s, k } => {
            let k = k % N_TASKS;
            if f.pending[s].remove(k) {
                f.idx.on_pending_removed(s, k);
            }
        }
        Step::Reinsert { s, k } => {
            let k = k % N_TASKS;
            if f.pending[s].insert(k) {
                f.idx.on_pending_inserted(s, k);
            }
        }
        Step::Live { on } => {
            f.live[1] = on;
            f.idx.set_stage_live(1, on, &f.pending[1]);
        }
    }
}

/// The stages currently on the index.
fn live_stages(f: &Fixture) -> Vec<usize> {
    (0..2).filter(|&s| f.live[s]).collect()
}

proptest! {
    /// After every step of any valid interleaved history, every
    /// per-(executor, level) count of every live stage equals the
    /// brute-force membership scan over its pending set, in both the
    /// plain and strict variants — and the index's own from-scratch
    /// consistency oracle agrees on both stages, live or not.
    #[test]
    fn inv_counts_match_brute_force_oracle(
        steps in proptest::collection::vec(step_strategy(), 0..120),
    ) {
        let mut f = build();
        for step in &steps {
            drive(step, &mut f);
            let ready: Vec<u32> = live_stages(&f).iter().map(|&s| s as u32).collect();
            prop_assert!(f.idx.check_live_set(&ready));
            for s in 0..2 {
                prop_assert!(f.idx.check_inv_consistency(s, &f.pending[s]));
            }
            for s in live_stages(&f) {
                for e in 0..f.topo.num_execs() as u32 {
                    let e = ExecId(e);
                    for level in Locality::ALL {
                        let (mut cnt, mut scnt) = (0u32, 0u32);
                        for k in f.pending[s].iter() {
                            if brute_level(&f.data, &f.topo, k, e) == level {
                                cnt += 1;
                                if brute_best(&f, k) == level {
                                    scnt += 1;
                                }
                            }
                        }
                        prop_assert_eq!(
                            f.idx.pending_level_count(s, e, level), cnt,
                            "count drift at stage {} exec {:?} level {:?}", s, e, level
                        );
                        prop_assert_eq!(
                            f.idx.pending_strict_count(s, e, level), scnt,
                            "strict count drift at stage {} exec {:?} level {:?}", s, e, level
                        );
                    }
                }
            }
        }
    }

    /// The probe itself, differentially: after every step, for every live
    /// stage and every (executor, level, strict) combination,
    /// [`LocalityIndex::scan_first`] returns exactly the brute-force first
    /// pending task at that level — and the count gates agree with it
    /// (zero ⟺ empty probe). Probing *inside* the history is the point:
    /// the persistent scan memos get populated, then patched by residency
    /// flips, filtered across pops, reset by re-inserts, and freed and
    /// rebuilt across liveness flips, and must stay bit-equal to a fresh
    /// scan throughout.
    #[test]
    fn scan_first_matches_fresh_scan_through_history(
        steps in proptest::collection::vec(step_strategy(), 0..80),
    ) {
        let mut f = build();
        for step in &steps {
            drive(step, &mut f);
            for s in live_stages(&f) {
                for e in 0..f.topo.num_execs() as u32 {
                    let e = ExecId(e);
                    for level in Locality::ALL {
                        for strict in [false, true] {
                            let fresh = f.pending[s].iter().find(|&k| {
                                brute_level(&f.data, &f.topo, k, e) == level
                                    && (!strict || brute_best(&f, k) == level)
                            });
                            let probe = f.idx.scan_first(s, e, level, strict, &f.pending[s], &[]);
                            prop_assert_eq!(
                                probe, fresh,
                                "probe diverged at stage {} exec {:?} level {:?} strict {}",
                                s, e, level, strict
                            );
                            let cnt = if strict {
                                f.idx.pending_strict_count(s, e, level)
                            } else {
                                f.idx.pending_level_count(s, e, level)
                            };
                            prop_assert_eq!(
                                cnt > 0,
                                probe.is_some(),
                                "gate {} vs probe {:?} at stage {} exec {:?} level {:?} strict {}",
                                cnt, probe, s, e, level, strict
                            );
                        }
                    }
                }
            }
        }
    }
}

// --- sim-level: random workloads + fault plans -------------------------

const WORKLOADS: &[Workload] = &[
    Workload::LinearRegression,
    Workload::KMeans,
    Workload::TriangleCount,
    Workload::ConnectedComponent,
    Workload::PregelOperation,
    Workload::PageRank,
];

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    c.racks = vec![2, 1];
    c.execs_per_node = 2;
    c.exec_cache_mb = 256.0;
    c
}

/// One end-to-end run in the dev profile: the simulator debug-asserts
/// `check_inv_consistency` for every stage at every scheduling
/// opportunity, so simply completing is the differential check. On top,
/// the run must be deterministic and must never rebuild the inverted
/// index after construction (the counter the CI guard pins at scale).
fn check_run(w: Workload, tasks: u32, iterations: u32, fault_seed: Option<u64>) {
    let scale = Scale {
        tasks,
        block_mb: 32.0,
        iterations,
    };
    let dag = w.build(&scale);
    let mut cl = small_cluster();
    if let Some(seed) = fault_seed {
        let n_exec = cl.total_nodes() * cl.execs_per_node;
        cl.faults = Some(FaultPlan::chaos(seed, n_exec, 40_000, &dag));
    }
    let sys = System::dagon();
    let a = run_system(&dag, &cl, &sys).result;
    let b = run_system(&dag, &cl, &sys).result;
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "nondeterministic run: {w:?} tasks={tasks} iters={iterations} fault={fault_seed:?}"
    );
    let s = &a.metrics.sched;
    assert_eq!(
        s.inv_index_rebuilds, 1,
        "inverted index rebuilt mid-run: {w:?} tasks={tasks} iters={iterations}"
    );
    assert!(
        s.inv_index_updates > 0,
        "inverted index never updated: {w:?}"
    );
    assert!(a
        .metrics
        .per_stage
        .iter()
        .all(|st| st.completed_at.is_some()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free random workloads keep the inverted counts consistent
    /// (dev-profile oracle asserts) and rebuild-free.
    #[test]
    fn random_workloads_keep_inv_index_consistent(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..12,
        iterations in 1u32..4,
    ) {
        check_run(WORKLOADS[w_idx], tasks, iterations, None);
    }

    /// Chaos plans — crashes, restarts, requeues, lineage recomputation —
    /// drive the requeue/resubmit re-insert paths and crash-style replica
    /// loss without ever forcing an index rebuild.
    #[test]
    fn chaos_keeps_inv_index_consistent(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..10,
        fault_seed in 0u64..24,
    ) {
        check_run(WORKLOADS[w_idx], tasks, 2, Some(fault_seed));
    }
}

/// Pinned: the crash-restart shape most likely to churn pending sets and
/// residency at once (every executor dies at least once under chaos seed
/// 11 on CC) — the regression that motivated the claims-blind gate design.
#[test]
fn chaos_regression_cc_seed11() {
    check_run(Workload::ConnectedComponent, 8, 2, Some(11));
}
