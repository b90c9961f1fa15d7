//! Differential property test for the incremental [`ClusterView`]: after
//! an arbitrary valid sequence of [`ViewDelta`]s — including the fault
//! transitions (crash → teardown releases while down → restart) PR 2's
//! chaos paths emit — the incrementally-maintained effective view must be
//! field-for-field identical to a from-scratch rebuild from the
//! authoritative ledgers ([`ClusterView::rebuilt_execs`]).
//!
//! This is the same oracle the simulator asserts (in debug builds) at the
//! top of every scheduling opportunity; here it is driven by generated
//! histories instead of real workloads, so delta orderings the benchmark
//! suites never produce (e.g. a release arriving for an executor that
//! crashed and restarted twice) are still covered.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cluster::event::ViewDelta;
use dagon_cluster::view::ClusterView;
use dagon_cluster::ExecId;
use dagon_dag::Resources;
use proptest::prelude::*;

const N_EXEC: usize = 6;
const CAPACITY: Resources = Resources {
    cpus: 4,
    mem_mb: 4096,
};

/// Abstract step of a generated history. Concrete deltas are derived from
/// a shadow model so the sequence stays *valid*: consumes never exceed the
/// executor's free resources, releases never exceed what was consumed, and
/// down/up events only fire on executors in the opposite state — exactly
/// the discipline the simulator's emit sites follow.
#[derive(Clone, Debug)]
enum Step {
    /// Launch a task on executor `e % N_EXEC` taking `cpus`/`mem` of
    /// whatever is actually free (clamped).
    Consume { e: usize, cpus: u32, mem_mb: u64 },
    /// Tear down the oldest outstanding consume on executor `e % N_EXEC`,
    /// if any. Fires regardless of up/down state: a crash tears attempts
    /// down *after* the executor is marked dead, so releases-while-down
    /// must keep the authoritative ledger correct.
    Release { e: usize },
    /// Crash executor `e % N_EXEC` if it is currently usable.
    Down { e: usize },
    /// Restart executor `e % N_EXEC` if it is currently down.
    Up { e: usize },
}

/// Weighted step kinds: consume 4 / release 3 / down 1 / up 1 (the shim
/// has no `prop_oneof`, so the weights are an integer draw).
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..9, 0..N_EXEC, 1u32..=4, 128u64..=4096).prop_map(|(kind, e, cpus, mem_mb)| match kind {
        0..=3 => Step::Consume { e, cpus, mem_mb },
        4..=6 => Step::Release { e },
        7 => Step::Down { e },
        _ => Step::Up { e },
    })
}

/// Shadow model: per-executor FIFO of outstanding demands + usability.
struct Model {
    outstanding: Vec<Vec<Resources>>,
    free: Vec<Resources>,
    usable: Vec<bool>,
}

impl Model {
    fn new() -> Self {
        Self {
            outstanding: vec![Vec::new(); N_EXEC],
            free: vec![CAPACITY; N_EXEC],
            usable: vec![true; N_EXEC],
        }
    }

    /// Translate an abstract step into the concrete delta the simulator
    /// would emit at this point in the history, if any.
    fn lower(&mut self, step: &Step) -> Option<ViewDelta> {
        match *step {
            Step::Consume { e, cpus, mem_mb } => {
                // Launches only target usable executors with room.
                if !self.usable[e] {
                    return None;
                }
                let demand = Resources {
                    cpus: cpus.min(self.free[e].cpus),
                    mem_mb: mem_mb.min(self.free[e].mem_mb),
                };
                if demand == Resources::ZERO {
                    return None;
                }
                self.free[e] = self.free[e].minus(demand);
                self.outstanding[e].push(demand);
                Some(ViewDelta::Consume {
                    exec: ExecId(e as u32),
                    demand,
                })
            }
            Step::Release { e } => {
                if self.outstanding[e].is_empty() {
                    return None;
                }
                let demand = self.outstanding[e].remove(0);
                self.free[e] = self.free[e].plus(demand);
                Some(ViewDelta::Release {
                    exec: ExecId(e as u32),
                    demand,
                })
            }
            Step::Down { e } => {
                if !self.usable[e] {
                    return None;
                }
                self.usable[e] = false;
                Some(ViewDelta::ExecDown {
                    exec: ExecId(e as u32),
                })
            }
            Step::Up { e } => {
                if self.usable[e] {
                    return None;
                }
                self.usable[e] = true;
                Some(ViewDelta::ExecUp {
                    exec: ExecId(e as u32),
                })
            }
        }
    }
}

proptest! {
    /// The tentpole invariant: incremental == from-scratch after every
    /// prefix of any valid delta history.
    #[test]
    fn incremental_view_matches_rebuild(steps in proptest::collection::vec(step_strategy(), 0..200)) {
        let mut view = ClusterView::new(N_EXEC, CAPACITY);
        let mut model = Model::new();
        let mut applied = 0u64;
        for step in &steps {
            let Some(delta) = model.lower(step) else { continue };
            view.apply(delta);
            applied += 1;

            // Field-for-field equality against the rebuild oracle, not
            // just the boolean check, so a failure prints the diff.
            prop_assert_eq!(view.execs(), view.rebuilt_execs().as_slice());
            prop_assert!(view.check_consistency());

            // The model's own ledgers agree with the view's.
            for e in 0..N_EXEC {
                let id = ExecId(e as u32);
                prop_assert_eq!(view.free_of(id), model.free[e]);
                prop_assert_eq!(view.is_usable(id), model.usable[e]);
                let ev = view.execs()[e];
                if model.usable[e] {
                    prop_assert_eq!(ev.free, model.free[e]);
                    prop_assert_eq!(ev.capacity, CAPACITY);
                } else {
                    prop_assert_eq!(ev.free, Resources::ZERO);
                    prop_assert_eq!(ev.capacity, Resources::ZERO);
                }
            }
        }
        prop_assert_eq!(view.deltas_applied(), applied);
        // One construction-time build, zero re-builds — the counter the
        // CI bench smoke job guards.
        prop_assert_eq!(view.rebuilds(), 1);
    }

    /// The view's derived state after every delta: the free list equals
    /// the from-scratch scan, and the slot capacity `usable_execs ×
    /// capacity_for(demand)` equals the walk over effective capacities,
    /// for a CPU-bound and a memory-bound demand.
    #[test]
    fn free_list_and_slot_capacity_track_every_delta(
        steps in proptest::collection::vec(step_strategy(), 0..100),
    ) {
        let mut view = ClusterView::new(N_EXEC, CAPACITY);
        let mut model = Model::new();
        for step in &steps {
            let Some(delta) = model.lower(step) else { continue };
            view.apply(delta);
            prop_assert_eq!(view.free_execs(), view.rebuilt_free_execs().as_slice());
            for demand in [Resources::new(2, 512), Resources::new(1, 2048)] {
                let walk: u32 = view
                    .execs()
                    .iter()
                    .map(|e| e.capacity.capacity_for(demand))
                    .sum();
                prop_assert_eq!(
                    view.usable_execs() * view.exec_capacity().capacity_for(demand),
                    walk
                );
            }
        }
    }
}
