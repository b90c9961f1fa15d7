//! Differential properties for the incremental scheduling hot path: the
//! ready list and the eagerly maintained free-executor list on
//! [`ClusterView`].
//!
//! Two layers of coverage:
//!
//! * **View-level**: generated histories interleaving schedulability flips
//!   with resource deltas (consume/release/crash/restart), checked after
//!   every step against the brute-force oracles
//!   ([`ClusterView::rebuilt_free_execs`] and a shadow-model ready set).
//!   This reaches orderings real workloads never produce — e.g. a stage
//!   toggled schedulable in the middle of a crash-restart cycle.
//! * **Sim-level**: random workloads and chaos fault plans run end-to-end.
//!   These tests compile in the dev profile, so the simulator's own
//!   debug assertions (`check_ready_consistency` / `check_consistency`
//!   at every scheduling opportunity) act as the differential oracle for
//!   the full event loop; on top the properties pin determinism and the
//!   O(1)-rebuild guarantees the CI bench guard relies on.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cluster::event::ViewDelta;
use dagon_cluster::view::ClusterView;
use dagon_cluster::{ClusterConfig, ExecId, FaultPlan};
use dagon_core::{run_system, System};
use dagon_dag::Resources;
use dagon_workloads::{Scale, Workload};
use proptest::prelude::*;

const N_EXEC: usize = 5;
const N_STAGE: usize = 8;
const CAPACITY: Resources = Resources {
    cpus: 2,
    mem_mb: 2048,
};

/// Abstract step of a generated history: the cview_props delta alphabet
/// plus schedulability flips, so ready-list and free-list maintenance are
/// exercised *interleaved* the way the simulator drives them.
#[derive(Clone, Debug)]
enum Step {
    Consume {
        e: usize,
        cpus: u32,
        mem_mb: u64,
    },
    Release {
        e: usize,
    },
    Down {
        e: usize,
    },
    Up {
        e: usize,
    },
    /// Flip stage `s % N_STAGE` schedulable/unschedulable.
    Flip {
        s: usize,
        on: bool,
    },
}

/// Weighted step kinds (no `prop_oneof` in the vendored shim, so the
/// weights are an integer draw): consume 3 / release 2 / down 1 / up 1 /
/// flip 3.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..10, 0..N_EXEC.max(N_STAGE), 1u32..=2, 128u64..=1024).prop_map(
        |(kind, i, cpus, mem_mb)| match kind {
            0..=2 => Step::Consume {
                e: i % N_EXEC,
                cpus,
                mem_mb,
            },
            3..=4 => Step::Release { e: i % N_EXEC },
            5 => Step::Down { e: i % N_EXEC },
            6 => Step::Up { e: i % N_EXEC },
            _ => Step::Flip {
                s: i % N_STAGE,
                on: cpus == 1,
            },
        },
    )
}

/// Shadow model: per-executor outstanding demands + usability (for valid
/// delta lowering, as in `cview_props`) plus the brute-force ready set.
struct Model {
    outstanding: Vec<Vec<Resources>>,
    free: Vec<Resources>,
    usable: Vec<bool>,
    schedulable: Vec<bool>,
}

impl Model {
    fn new() -> Self {
        Self {
            outstanding: vec![Vec::new(); N_EXEC],
            free: vec![CAPACITY; N_EXEC],
            usable: vec![true; N_EXEC],
            schedulable: vec![false; N_STAGE],
        }
    }

    /// The oracle ready list: ascending ids of schedulable stages.
    fn ready(&self) -> Vec<u32> {
        self.schedulable
            .iter()
            .enumerate()
            .filter_map(|(i, &on)| on.then_some(i as u32))
            .collect()
    }

    /// Lower an abstract step into the concrete view mutation, keeping the
    /// history valid (consumes clamped to free, releases FIFO, down/up
    /// only from the opposite state).
    fn drive(&mut self, view: &mut ClusterView, step: &Step) {
        match *step {
            Step::Consume { e, cpus, mem_mb } => {
                if !self.usable[e] {
                    return;
                }
                let demand = Resources {
                    cpus: cpus.min(self.free[e].cpus),
                    mem_mb: mem_mb.min(self.free[e].mem_mb),
                };
                if demand == Resources::ZERO {
                    return;
                }
                self.free[e] = self.free[e].minus(demand);
                self.outstanding[e].push(demand);
                view.apply(ViewDelta::Consume {
                    exec: ExecId(e as u32),
                    demand,
                });
            }
            Step::Release { e } => {
                if self.outstanding[e].is_empty() {
                    return;
                }
                let demand = self.outstanding[e].remove(0);
                self.free[e] = self.free[e].plus(demand);
                view.apply(ViewDelta::Release {
                    exec: ExecId(e as u32),
                    demand,
                });
            }
            Step::Down { e } => {
                if !self.usable[e] {
                    return;
                }
                self.usable[e] = false;
                view.apply(ViewDelta::ExecDown {
                    exec: ExecId(e as u32),
                });
            }
            Step::Up { e } => {
                if self.usable[e] {
                    return;
                }
                self.usable[e] = true;
                view.apply(ViewDelta::ExecUp {
                    exec: ExecId(e as u32),
                });
            }
            Step::Flip { s, on } => {
                self.schedulable[s] = on;
                view.set_stage_schedulable(s, on);
            }
        }
    }
}

proptest! {
    /// After every step of any valid interleaved history, the incremental
    /// ready list equals the brute-force scan of the schedulable flags and
    /// the free list equals a from-scratch rebuild — with exactly one
    /// ready-list build for the whole run.
    #[test]
    fn incremental_ready_and_free_match_oracles(
        steps in proptest::collection::vec(step_strategy(), 0..250),
    ) {
        let mut view = ClusterView::new(N_EXEC, CAPACITY);
        view.init_ready_list(vec![false; N_STAGE]);
        let mut model = Model::new();
        for step in &steps {
            model.drive(&mut view, step);
            prop_assert_eq!(view.ready_stages(), model.ready().as_slice());
            prop_assert_eq!(view.free_execs(), view.rebuilt_free_execs().as_slice());
            prop_assert!(view.check_consistency());
        }
        prop_assert_eq!(view.ready_list_rebuilds(), 1);
    }
}

// --- sim-level: random workloads + fault plans -------------------------

const WORKLOADS: &[Workload] = &[
    Workload::LinearRegression,
    Workload::LogisticRegression,
    Workload::DecisionTree,
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

/// One end-to-end run in the dev profile: the simulator's debug assertions
/// re-derive the ready list and free list from scratch at every scheduling
/// opportunity, so simply completing is the differential check. On top,
/// the run must be deterministic and must never rebuild the ready list
/// after construction (the counter the CI guard pins at paper scale).
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
        s.ready_list_rebuilds, 1,
        "ready list rebuilt mid-run: {w:?} tasks={tasks} iters={iterations}"
    );
    assert_eq!(s.view_rebuilds, 1, "cluster view rebuilt mid-run: {w:?}");
    assert!(a
        .metrics
        .per_stage
        .iter()
        .all(|st| st.completed_at.is_some()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free random workloads keep the incremental scheduling state
    /// consistent (dev-profile oracle asserts) and rebuild-free.
    #[test]
    fn random_workloads_stay_incremental(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..12,
        iterations in 1u32..4,
    ) {
        check_run(WORKLOADS[w_idx], tasks, iterations, None);
    }

    /// Chaos plans — crashes, restarts, blacklists, stragglers — move
    /// executors in and out of the free list without ever forcing a
    /// ready-list or view rebuild.
    #[test]
    fn chaos_keeps_ready_state_incremental(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..10,
        fault_seed in 0u64..24,
    ) {
        check_run(WORKLOADS[w_idx], tasks, 2, Some(fault_seed));
    }
}

/// Pinned: a crash-restart-heavy shape (every executor dies at least
/// once under chaos seed 11 on CC).
#[test]
fn chaos_regression_cc_seed11() {
    check_run(Workload::ConnectedComponent, 8, 2, Some(11));
}
