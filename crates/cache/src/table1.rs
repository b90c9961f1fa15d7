//! Replay of the paper's Table I worked example: the Fig. 1 DAG executed on
//! one 16-vCPU executor under the FIFO schedule (Fig. 2a) or the DAG-aware
//! schedule (Fig. 2b), with a 3-block cache, replaying each policy's
//! eviction/prefetch decisions step by step.
//!
//! The driver follows the paper's blackboard semantics, which differ from
//! the event simulator in two ways: prefetch is instantaneous (the paper
//! credits MRD with hits on blocks it prefetches at a stage boundary), and
//! all blocks have unit size. Each step processes task *finishes* first
//! (outputs written to the cache), then a prefetch phase (only when
//! something finished — a stage boundary), then task *launch reads* (hits
//! counted against the cache before miss-fill).

use dagon_cluster::RefProfile;
use dagon_dag::examples::fig1;
use dagon_dag::{BlockId, JobDag, PriorityTracker, RddId, StageId, TaskId};

use crate::PolicyKind;

/// One step of a hand-built schedule.
#[derive(Clone, Debug)]
pub struct Step {
    /// Abstract time (minutes in the paper's figure).
    pub t: u32,
    /// Tasks finishing at this step (their outputs are written).
    pub finish: Vec<TaskId>,
    /// Tasks launching at this step (their inputs are read).
    pub launch: Vec<TaskId>,
}

fn task(stage: u32, index: u32) -> TaskId {
    TaskId::new(StageId(stage), index)
}

/// Fig. 2(a): FIFO on one 16-vCPU executor.
/// t0: S1×3 → t4: S2×2 → t6: S2×1 → t8: S3×2 → t12: S4.
pub fn fifo_schedule() -> Vec<Step> {
    vec![
        Step {
            t: 0,
            finish: vec![],
            launch: vec![task(0, 0), task(0, 1), task(0, 2)],
        },
        Step {
            t: 4,
            finish: vec![task(0, 0), task(0, 1), task(0, 2)],
            launch: vec![task(1, 0), task(1, 1)],
        },
        Step {
            t: 6,
            finish: vec![task(1, 0), task(1, 1)],
            launch: vec![task(1, 2)],
        },
        Step {
            t: 8,
            finish: vec![task(1, 2)],
            launch: vec![task(2, 0), task(2, 1)],
        },
        Step {
            t: 12,
            finish: vec![task(2, 0), task(2, 1)],
            launch: vec![task(3, 0)],
        },
        Step {
            t: 16,
            finish: vec![task(3, 0)],
            launch: vec![],
        },
    ]
}

/// Fig. 2(b) / Table III: the DAG-aware (priority-based) schedule.
/// t0: S1×1 + S2×2 → t2: S1×1 + S2×1 → t4: S1×1 + S3×2 → t8: S4.
pub fn dag_aware_schedule() -> Vec<Step> {
    vec![
        Step {
            t: 0,
            finish: vec![],
            launch: vec![task(1, 0), task(1, 1), task(0, 0)],
        },
        Step {
            t: 2,
            finish: vec![task(1, 0), task(1, 1)],
            launch: vec![task(1, 2), task(0, 1)],
        },
        Step {
            t: 4,
            finish: vec![task(1, 2), task(0, 0)],
            launch: vec![task(2, 0), task(2, 1), task(0, 2)],
        },
        Step {
            t: 6,
            finish: vec![task(0, 1)],
            launch: vec![],
        },
        Step {
            t: 8,
            finish: vec![task(2, 0), task(2, 1), task(0, 2)],
            launch: vec![task(3, 0)],
        },
        Step {
            t: 12,
            finish: vec![task(3, 0)],
            launch: vec![],
        },
    ]
}

/// Snapshot of one step for the printed table.
#[derive(Clone, Debug)]
pub struct RowSnapshot {
    pub t: u32,
    pub launched: Vec<TaskId>,
    pub accessed: Vec<(BlockId, bool)>, // (block, hit?)
    pub cached_after: Vec<BlockId>,
}

/// Outcome of replaying one (schedule, policy) combination.
#[derive(Clone, Debug)]
pub struct Table1Result {
    pub policy: PolicyKind,
    pub hits: u32,
    pub accesses: u32,
    pub rows: Vec<RowSnapshot>,
}

/// Input blocks of a task under the simulator's conventions (narrow: its
/// partition; wide: round-robin share).
fn task_inputs(dag: &JobDag, t: TaskId) -> Vec<BlockId> {
    let st = dag.stage(t.stage);
    let mut out = Vec::new();
    for input in &st.inputs {
        let rdd = dag.rdd(input.rdd);
        match input.kind {
            dagon_dag::DepKind::Narrow => out.push(BlockId::new(rdd.id, t.index)),
            dagon_dag::DepKind::Wide => {
                let mut j = t.index;
                while j < rdd.num_partitions {
                    out.push(BlockId::new(rdd.id, j));
                    j += st.num_tasks;
                }
            }
        }
    }
    out
}

/// Replay Table I for one policy. `initial` blocks start cached (Fig. 1's
/// black partitions — we use `{A1}`, the only hit visible at t=0 in the
/// paper's DAG-aware rows).
pub fn replay(
    dag: &JobDag,
    schedule: &[Step],
    capacity_blocks: usize,
    policy: PolicyKind,
    initial: &[BlockId],
) -> Table1Result {
    let mut pol = policy.build();
    let mut tracker = PriorityTracker::from_dag(dag);
    let mut profile = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());

    let mut task_done: Vec<Vec<bool>> = dag
        .stages()
        .iter()
        .map(|s| vec![false; s.num_tasks as usize])
        .collect();
    let mut stage_done: Vec<bool> = vec![false; dag.num_stages()];
    let rebuild = |profile: &mut RefProfile, task_done: &Vec<Vec<bool>>, stage_done: &Vec<bool>| {
        let td = task_done.clone();
        let sd = stage_done.clone();
        profile.rebuild(dag, &|s, k| td[s.index()][k as usize], &|s| sd[s.index()]);
    };
    rebuild(&mut profile, &task_done, &stage_done);

    let mut cache: Vec<BlockId> = Vec::new();
    for &b in initial {
        if cache.len() < capacity_blocks {
            cache.push(b);
            pol.on_insert(b, 0);
        }
    }
    // Blocks currently on "disk" (HDFS sources at start, outputs as written).
    let mut on_disk: Vec<BlockId> = dag
        .rdds()
        .iter()
        .filter(|r| r.is_source())
        .flat_map(|r| r.blocks())
        .collect();

    let mut hits = 0u32;
    let mut accesses = 0u32;
    let mut clock = 0u64;
    let mut rows = Vec::new();

    let insert = |cache: &mut Vec<BlockId>,
                  pol: &mut Box<dyn dagon_cluster::CachePolicy>,
                  profile: &RefProfile,
                  b: BlockId,
                  clock: u64| {
        if cache.contains(&b) {
            return;
        }
        while cache.len() >= capacity_blocks {
            match pol.victim(cache, Some(b), profile) {
                Some(v) => {
                    cache.retain(|x| *x != b && *x != v);
                    pol.on_evict(v);
                }
                None => return,
            }
        }
        cache.push(b);
        pol.on_insert(b, clock);
    };

    for step in schedule {
        clock += 1;
        let mut finished_any = false;
        // 1. Finishes: outputs written (all intermediate+persisted RDDs).
        for &t in &step.finish {
            finished_any = true;
            task_done[t.stage.index()][t.index as usize] = true;
            if task_done[t.stage.index()].iter().all(|d| *d) {
                stage_done[t.stage.index()] = true;
            }
        }
        if finished_any {
            rebuild(&mut profile, &task_done, &stage_done);
            // Proactive pass (LRP zero-priority / MRD+LRC dead blocks).
            let victims = pol.proactive_victims(&cache, &profile);
            for v in victims {
                cache.retain(|x| *x != v);
                pol.on_evict(v);
            }
            for &t in &step.finish {
                let out = BlockId::new(dag.stage(t.stage).output, t.index);
                if !on_disk.contains(&out) {
                    on_disk.push(out);
                }
                if dag.rdd(out.rdd).cached {
                    clock += 1;
                    insert(&mut cache, &mut pol, &profile, out, clock);
                }
            }
            // 2. Prefetch phase (stage-boundary, instantaneous as in the
            // paper's example). Candidates: live cache-eligible disk blocks.
            // Each block is attempted at most once per phase so that
            // equal-metric displacement cannot cycle.
            let mut attempted: std::collections::BTreeSet<BlockId> =
                std::collections::BTreeSet::new();
            loop {
                let candidates: Vec<BlockId> = on_disk
                    .iter()
                    .copied()
                    .filter(|b| {
                        dag.rdd(b.rdd).cached
                            && !cache.contains(b)
                            && profile.is_live(*b)
                            && !attempted.contains(b)
                    })
                    .collect();
                let Some(c) = pol.prefetch_pick(&candidates, &profile) else {
                    break;
                };
                attempted.insert(c);
                clock += 1;
                insert(&mut cache, &mut pol, &profile, c, clock);
                if !cache.contains(&c) {
                    break; // admission refused — nothing nearer will fit
                }
            }
        }
        // 3. Launch reads: batch hit check, then miss-fill.
        let mut accessed = Vec::new();
        let mut misses = Vec::new();
        for &t in &step.launch {
            // Launch decrements the stage's workload → priorities shift
            // (Table III), which LRP sees.
            tracker.on_task_launched(t, dag.stage(t.stage).task_work(t.index));
            for s in dag.stage_ids() {
                profile.set_pv(s, tracker.pv(s));
            }
            for b in task_inputs(dag, t) {
                accesses += 1;
                let hit = cache.contains(&b);
                if hit {
                    hits += 1;
                    clock += 1;
                    pol.on_access(b, clock);
                } else {
                    misses.push(b);
                }
                accessed.push((b, hit));
            }
        }
        for b in misses {
            if dag.rdd(b.rdd).cached && pol.caches_on_miss() {
                clock += 1;
                insert(&mut cache, &mut pol, &profile, b, clock);
            }
        }
        let mut cached_after = cache.clone();
        cached_after.sort_unstable();
        rows.push(RowSnapshot {
            t: step.t,
            launched: step.launch.clone(),
            accessed,
            cached_after,
        });
    }

    Table1Result {
        policy,
        hits,
        accesses,
        rows,
    }
}

/// Run the full Table I grid on the Fig. 1 DAG: both schedules × the given
/// policies, 3-block cache, `{A1}` initially cached.
pub fn table1_grid(policies: &[PolicyKind]) -> Vec<(&'static str, Table1Result)> {
    let dag = fig1();
    let initial = [BlockId::new(RddId(0), 0)];
    let mut out = Vec::new();
    for &p in policies {
        out.push(("FIFO", replay(&dag, &fifo_schedule(), 3, p, &initial)));
    }
    for &p in policies {
        out.push((
            "DAG-aware",
            replay(&dag, &dag_aware_schedule(), 3, p, &initial),
        ));
    }
    out
}

#[cfg(test)]
// Task-count sums in test asserts: bounded by tiny fixtures.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;

    fn hits(sched: &str, p: PolicyKind) -> u32 {
        let dag = fig1();
        let initial = [BlockId::new(RddId(0), 0)];
        let steps = if sched == "fifo" {
            fifo_schedule()
        } else {
            dag_aware_schedule()
        };
        replay(&dag, &steps, 3, p, &initial).hits
    }

    #[test]
    fn schedules_cover_all_tasks_exactly_once() {
        let dag = fig1();
        for steps in [fifo_schedule(), dag_aware_schedule()] {
            let mut launched = std::collections::BTreeSet::new();
            let mut finished = std::collections::BTreeSet::new();
            for s in &steps {
                for t in &s.launch {
                    assert!(launched.insert(*t), "double launch {t}");
                }
                for t in &s.finish {
                    assert!(launched.contains(t), "finish before launch {t}");
                    assert!(finished.insert(*t), "double finish {t}");
                }
            }
            let total: u32 = dag.stages().iter().map(|s| s.num_tasks).sum();
            assert_eq!(launched.len() as u32, total);
            assert_eq!(finished.len() as u32, total);
        }
    }

    #[test]
    fn dag_aware_schedule_matches_fig2b_durations() {
        // Stage-2 tasks launched at 0 finish at 2 (2-minute tasks); the
        // whole DAG-aware schedule ends at t=12 vs FIFO's 16.
        let fifo_end = fifo_schedule().last().unwrap().t;
        let dag_end = dag_aware_schedule().last().unwrap().t;
        assert_eq!(fifo_end, 16);
        assert_eq!(dag_end, 12);
    }

    #[test]
    fn under_fifo_mrd_beats_lru() {
        // Paper: LRU 7 vs MRD 12 under FIFO. Exact counts depend on tie
        // details lost in the table; the ordering and a clear gap must hold.
        let lru = hits("fifo", PolicyKind::Lru);
        let mrd = hits("fifo", PolicyKind::Mrd);
        assert!(mrd > lru, "MRD {mrd} ≤ LRU {lru}");
        assert!(mrd >= lru + 3, "gap too small: MRD {mrd}, LRU {lru}");
    }

    #[test]
    fn under_dag_aware_scheduler_both_lru_and_mrd_degrade() {
        // Paper: LRU drops 7→5 and MRD 12→8 when the schedule is DAG-aware.
        let lru_f = hits("fifo", PolicyKind::Lru);
        let mrd_f = hits("fifo", PolicyKind::Mrd);
        let lru_d = hits("dag", PolicyKind::Lru);
        let mrd_d = hits("dag", PolicyKind::Mrd);
        assert!(lru_d <= lru_f, "LRU: {lru_d} vs {lru_f}");
        assert!(mrd_d < mrd_f, "MRD: {mrd_d} vs {mrd_f}");
    }

    #[test]
    fn lrp_beats_mrd_under_dag_aware_scheduler() {
        let mrd = hits("dag", PolicyKind::Mrd);
        let lrp = hits("dag", PolicyKind::Lrp);
        assert!(lrp > mrd, "LRP {lrp} ≤ MRD {mrd}");
    }

    #[test]
    fn grid_runs_all_combinations() {
        let grid = table1_grid(&[PolicyKind::Lru, PolicyKind::Mrd, PolicyKind::Lrp]);
        assert_eq!(grid.len(), 6);
        for (sched, r) in &grid {
            assert!(
                r.accesses >= 14,
                "{sched}/{}: {} accesses",
                r.policy,
                r.accesses
            );
            assert!(r.hits <= r.accesses);
        }
    }
}
