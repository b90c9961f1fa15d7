//! Property tests for the DAG substrate: structural invariants that every
//! generated DAG must satisfy, and the algebra of priority values.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_dag::generate::{random_dag, GenParams};
use dagon_dag::graph::{depth, ready_stages, Closure, CriticalPath};
use dagon_dag::{PriorityTracker, StageId, TaskId};
use proptest::prelude::*;

fn params() -> impl Strategy<Value = (GenParams, u64)> {
    params_in(2..30)
}

/// Random generator parameters with a stage count drawn from `stages`.
fn params_in(stages: std::ops::Range<usize>) -> impl Strategy<Value = (GenParams, u64)> {
    (stages, 1usize..4, 0.0f64..1.0, any::<u64>()).prop_map(
        |(stages, max_parents, wide_prob, seed)| {
            (
                GenParams {
                    stages,
                    max_parents,
                    wide_prob,
                    ..Default::default()
                },
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Topological order: every parent precedes its children; depth is
    /// bounded by the stage count; roots are exactly the parentless stages.
    #[test]
    fn topo_and_depth_invariants((p, seed) in params()) {
        let dag = random_dag(&p, seed);
        let topo = dag.topo_order();
        prop_assert_eq!(topo.len(), dag.num_stages());
        let pos: std::collections::BTreeMap<_, _> =
            topo.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        for s in dag.stage_ids() {
            for par in dag.parents(s) {
                prop_assert!(pos[par] < pos[&s]);
            }
        }
        prop_assert!(depth(&dag) <= dag.num_stages());
        for r in dag.roots() {
            prop_assert!(dag.parents(r).is_empty());
        }
    }

    /// Successor closure is transitive and antisymmetric (acyclic).
    #[test]
    fn closure_is_a_strict_partial_order((p, seed) in params()) {
        let dag = random_dag(&p, seed);
        let c = Closure::successors(&dag);
        for a in dag.stage_ids() {
            prop_assert!(!c.contains(a, a), "{a} reaches itself");
            for b in c.members(a).collect::<Vec<_>>() {
                prop_assert!(!c.contains(b, a), "cycle {a} <-> {b}");
                for d in c.members(b).collect::<Vec<_>>() {
                    prop_assert!(c.contains(a, d), "transitivity {a}->{b}->{d}");
                }
            }
        }
    }

    /// pv decomposition: pv_i == w_i + Σ over closure members' w_j, at any
    /// point during a random launch sequence.
    #[test]
    fn priority_value_equals_closure_sum((p, seed) in params(), launches in 0usize..40) {
        let dag = random_dag(&p, seed);
        let mut tracker = PriorityTracker::from_dag(&dag);
        let closure = Closure::successors(&dag);
        // Launch a pseudo-random sequence of tasks.
        let mut s = seed;
        for _ in 0..launches {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let stage = StageId((s >> 33) as u32 % dag.num_stages() as u32);
            let st = dag.stage(stage);
            let k = (s >> 21) as u32 % st.num_tasks;
            tracker.on_task_launched(TaskId::new(stage, k), st.task_work(k));
        }
        for i in dag.stage_ids() {
            let expect: u64 = tracker.remaining_work(i)
                + closure.members(i).map(|j| tracker.remaining_work(j)).sum::<u64>();
            prop_assert_eq!(tracker.pv(i), expect, "stage {}", i);
        }
    }

    /// The change stream: a mirror updated only from `drain_changes`
    /// equals `snapshot()` after every drain, over random interleavings
    /// of launches, requeues and drains. DAGs reach 149 stages so the
    /// dirty bitset spans several words. The first drain reports
    /// every stage; every drain is ascending with no repeats.
    #[test]
    fn drained_pv_mirror_matches_snapshot(
        (p, seed) in params_in(2..150),
        ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 0..120),
    ) {
        let dag = random_dag(&p, seed);
        let n = dag.num_stages();
        let mut tracker = PriorityTracker::from_dag(&dag);
        let mut mirror = vec![None; n];
        let mut out = Vec::new();
        let mut drains = 0usize;
        // Every run ends with a drain so the last moves are checked too.
        for &(op, a, b) in ops.iter().chain(std::iter::once(&(2, 0, 0))) {
            let stage = StageId(a % n as u32);
            let st = dag.stage(stage);
            let task = TaskId::new(stage, b % st.num_tasks);
            match op {
                0 => tracker.on_task_launched(task, st.task_work(task.index)),
                1 => tracker.on_task_requeued(task, st.task_work(task.index)),
                _ => {
                    out.clear();
                    tracker.drain_changes(&mut out);
                    prop_assert!(
                        out.windows(2).all(|w| w[0].0 < w[1].0),
                        "drain not ascending and unique: {:?}", out
                    );
                    if drains == 0 {
                        prop_assert_eq!(out.len(), n, "first drain must report every stage");
                    }
                    drains += 1;
                    for &(s, pv) in &out {
                        mirror[s.index()] = Some(pv);
                    }
                    let snap: Vec<Option<u64>> =
                        tracker.snapshot().into_iter().map(|(_, pv)| Some(pv)).collect();
                    prop_assert_eq!(&mirror, &snap);
                }
            }
        }
    }

    /// Critical path: bottom levels decrease along edges; the CP length is
    /// an upper bound on every bottom level and at least the max stage len.
    #[test]
    fn critical_path_monotone((p, seed) in params()) {
        let dag = random_dag(&p, seed);
        let cp = CriticalPath::compute(&dag, |s| dag.stage(s).cpu_ms);
        for s in dag.stage_ids() {
            for c in dag.children(s) {
                prop_assert!(cp.bottom_level[s.index()] > cp.bottom_level[c.index()]);
            }
            prop_assert!(cp.length() >= cp.bottom_level[s.index()]);
        }
    }

    /// Completing stages in topological order keeps `ready_stages` sound:
    /// every reported stage has all parents complete, and eventually all
    /// stages complete.
    #[test]
    fn ready_stages_simulation((p, seed) in params()) {
        let dag = random_dag(&p, seed);
        let mut done = vec![false; dag.num_stages()];
        let mut completed = 0;
        while completed < dag.num_stages() {
            let ready = ready_stages(&dag, &done);
            prop_assert!(!ready.is_empty(), "deadlock with {completed} done");
            for s in &ready {
                prop_assert!(dag.parents(*s).iter().all(|p2| done[p2.index()]));
            }
            done[ready[0].index()] = true;
            completed += 1;
        }
    }
}
