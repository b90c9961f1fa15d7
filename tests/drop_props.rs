//! Property test for the event-driven proactive drop pass
//! ([`DropPass`]). Over random histories of reference-profile and
//! BlockManager changes, under every shipped policy, each pass must drop
//! exactly what a full sweep of every executor's evictable set would, in
//! the same (executor, block) order. This is the soundness argument of
//! DESIGN.md §22 checked step by step: a block can only turn into a
//! victim through an event the profile or the BlockManagers' fresh log
//! recorded. The log is written only through the `BlockManagers`
//! mutators the simulator calls, and a pass after no change must read
//! no BlockManager (DESIGN.md §33).

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cache::PolicyKind;
use dagon_cluster::{BlockManager, BlockManagers, DropPass, ExecId, RefProfile};
use dagon_dag::generate::{random_dag, GenParams};
use dagon_dag::{BlockId, DepKind, JobDag, PriorityTracker, StageId};
use proptest::prelude::*;

/// One generated change. Indices are reduced modulo the fixture's sizes.
#[derive(Clone, Debug)]
enum Step {
    /// `remove_use` of the `b`-th block stage `s` reads.
    RemoveUse { s: usize, b: usize },
    /// `add_use` of the `b`-th block stage `s` reads.
    AddUse { s: usize, b: usize },
    /// `set_pv(s, pv)`; `pv` is zero half the time, so crossings happen
    /// in both directions.
    SetPv { s: usize, pv: u64 },
    /// Insert the `b`-th block of the DAG into executor `e`.
    Insert { e: usize, b: usize },
    /// Pin the `b`-th resident block of executor `e`.
    Pin { e: usize, b: usize },
    /// Unpin the `b`-th resident block of executor `e`.
    Unpin { e: usize, b: usize },
}

/// Weighted step kinds (the vendored shim has no `prop_oneof`):
/// remove-use 3 / add-use 1 / set-pv 3 / insert 3 / pin 2 / unpin 2.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..14, 0usize..64, 0usize..64, 0u64..4).prop_map(|(kind, x, y, v)| match kind {
        0..=2 => Step::RemoveUse { s: x, b: y },
        3 => Step::AddUse { s: x, b: y },
        4..=6 => Step::SetPv {
            s: x,
            pv: if v < 2 { 0 } else { v * 1_000 },
        },
        7..=9 => Step::Insert { e: x, b: y },
        10..=11 => Step::Pin { e: x, b: y },
        _ => Step::Unpin { e: x, b: y },
    })
}

fn small_params() -> GenParams {
    GenParams {
        stages: 5,
        tasks: (1, 4),
        block_mb: (8.0, 64.0),
        ..Default::default()
    }
}

/// Every block each stage reads, with repeats: the simulator's per-task
/// input lists flattened, which is what `stage_blocks` may hand the pass.
fn stage_reads(dag: &JobDag) -> Vec<Vec<BlockId>> {
    dag.stages()
        .iter()
        .map(|st| {
            let mut out = Vec::new();
            for input in &st.inputs {
                let rdd = dag.rdd(input.rdd);
                match input.kind {
                    DepKind::Narrow => {
                        out.extend((0..st.num_tasks).map(|k| BlockId::new(rdd.id, k)))
                    }
                    DepKind::Wide => out.extend(rdd.blocks()),
                }
            }
            out
        })
        .collect()
}

/// What a full sweep drops right now: each executor's whole evictable
/// set offered to a fresh instance of the policy, executors ascending.
fn full_sweep(kind: PolicyKind, bms: &BlockManagers, profile: &RefProfile) -> Vec<(u32, BlockId)> {
    let mut policy = kind.build();
    (0u32..)
        .zip(bms.iter())
        .flat_map(|(e, bm)| {
            policy
                .proactive_victims(&bm.evictable(), profile)
                .into_iter()
                .map(move |b| (e, b))
        })
        .collect()
}

/// Replay `steps` under `kind` on `n_exec` BlockManagers, running one
/// drop pass after every step and comparing it with the full sweep. The
/// first pass (after the profile's rebuild) must read every BlockManager,
/// and a second pass right after any pass must read none and drop
/// nothing.
fn check_history(dag: &JobDag, kind: PolicyKind, n_exec: usize, steps: &[Step]) {
    let reads = stage_reads(dag);
    let blocks: Vec<BlockId> = dag.rdds().iter().flat_map(|r| r.blocks()).collect();
    let tracker = PriorityTracker::from_dag(dag);
    let mut profile = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
    profile.rebuild(dag, &|_, _| false, &|_| false);
    // Room for a few blocks, so inserts also evict under pressure.
    let mut bms: BlockManagers = (0..n_exec)
        .map(|_| BlockManager::new(160.0, kind.build()))
        .collect();
    let mut pass = DropPass::default();
    let mut got = Vec::new();
    for (t, step) in steps.iter().enumerate() {
        match *step {
            Step::RemoveUse { s, b } | Step::AddUse { s, b } => {
                let s = s % reads.len();
                if reads[s].is_empty() {
                    continue;
                }
                let blk = reads[s][b % reads[s].len()];
                if matches!(step, Step::RemoveUse { .. }) {
                    profile.remove_use(blk, StageId(s as u32));
                } else {
                    profile.add_use(blk, StageId(s as u32));
                }
            }
            Step::SetPv { s, pv } => profile.set_pv(StageId((s % reads.len()) as u32), pv),
            Step::Insert { e, b } => {
                let blk = blocks[b % blocks.len()];
                let mb = dag.rdd(blk.rdd).block_mb;
                let _ = bms.try_insert(exec(e, n_exec), blk, mb, t as u64, &profile);
            }
            Step::Pin { e, b } | Step::Unpin { e, b } => {
                let e = exec(e, n_exec);
                let resident = bms[e.index()].resident_blocks();
                if resident.is_empty() {
                    continue;
                }
                let blk = resident[b % resident.len()];
                if matches!(step, Step::Pin { .. }) {
                    bms[e.index()].pin(blk);
                } else {
                    bms.unpin(e, blk);
                }
            }
        }
        let want = full_sweep(kind, &bms, &profile);
        got.clear();
        let visited = pass.run(
            &mut bms,
            &mut profile,
            |s, out| out.extend_from_slice(&reads[s.index()]),
            // Every executor: the pass must tolerate a superset, as it
            // does the index's stale entries in the simulator.
            |b, out| out.extend((0..n_exec as u32).map(|e| (e, b))),
            &mut got,
        );
        prop_assert_eq!(&got, &want, "{} after step {} ({:?})", kind, t, step);
        if t == 0 {
            prop_assert_eq!(visited, n_exec, "{}: first pass after rebuild", kind);
        }
        prop_assert!(
            visited <= n_exec,
            "{} after step {}: visited {}",
            kind,
            t,
            visited
        );
        got.clear();
        let idle = pass.run(
            &mut bms,
            &mut profile,
            |s, out| out.extend_from_slice(&reads[s.index()]),
            |b, out| out.extend((0..n_exec as u32).map(|e| (e, b))),
            &mut got,
        );
        prop_assert_eq!(
            (idle, got.len()),
            (0, 0),
            "{} after step {} ({:?}): a pass after no change",
            kind,
            t,
            step
        );
    }
}

/// The `e`-th executor of `n_exec`, reduced modulo the fixture size.
fn exec(e: usize, n_exec: usize) -> ExecId {
    ExecId((e % n_exec) as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of a random history, the event-driven pass drops
    /// the full sweep's victims in the full sweep's order, under LRU,
    /// LRC, MRD and LRP.
    #[test]
    fn drop_pass_matches_full_sweep(
        seed in 0u64..1_000,
        n_exec in 2usize..=3,
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let dag = random_dag(&small_params(), seed);
        for kind in [PolicyKind::Lru, PolicyKind::Lrc, PolicyKind::Mrd, PolicyKind::Lrp] {
            check_history(&dag, kind, n_exec, &steps);
        }
    }
}
