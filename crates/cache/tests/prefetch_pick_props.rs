//! Property test for the simulator's size-class prefetch pick
//! (per-class picks + [`fitting_pick`], DESIGN.md §27). Over random
//! reference profiles, candidate sets with 1–4 block sizes, random free
//! space and shuffled candidate order, under MRD and LRP, picking once
//! per size class and then once among the class winners that fit must
//! give exactly the first fitting entry of the policy's full
//! `prefetch_order` ranking, whatever order the candidates come in.

// Test-only id mints and size tables from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cache::PolicyKind;
use dagon_cluster::{fitting_pick, RefProfile};
use dagon_dag::generate::{random_dag, GenParams};
use dagon_dag::{BlockId, JobDag, StageId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn small_params() -> GenParams {
    GenParams {
        stages: 6,
        tasks: (1, 6),
        ..Default::default()
    }
}

/// A profile with random stage priorities (some zero), a random set of
/// finished tasks and stages, and a random MRD frontier.
fn random_profile(dag: &JobDag, rng: &mut SmallRng) -> RefProfile {
    let pv: Vec<u64> = dag
        .stage_ids()
        .map(|_| match rng.gen_range(0u32..4) {
            0 => 0,
            _ => rng.gen_range(1u64..=5) * 1_000,
        })
        .collect();
    let mut p = RefProfile::with_pv(pv);
    let n = dag.num_stages() as u32;
    let stage_done: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
    let seed: u64 = rng.gen();
    p.rebuild(
        dag,
        &|s, k| {
            (seed ^ (u64::from(s.0) << 32 | u64::from(k))).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62
                == 0
        },
        &|s| stage_done[s.index()],
    );
    p.set_frontier(rng.gen_range(0..=n));
    // A few extra uses, so some use lists hold repeated stages.
    for _ in 0..rng.gen_range(0u32..4) {
        let r = &dag.rdds()[rng.gen_range(0..dag.rdds().len())];
        let b = BlockId::new(r.id, rng.gen_range(0..r.num_partitions));
        p.add_use(b, StageId(rng.gen_range(0..n)));
    }
    p
}

fn shuffle(v: &mut [BlockId], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The simulator's pick: split `candidates` into size classes (smallest
/// first, candidate order kept inside a class), pick once per class, then
/// once among the class winners that fit `free`.
fn size_class_pick(
    kind: PolicyKind,
    candidates: &[BlockId],
    size: &dyn Fn(BlockId) -> f64,
    free: f64,
    profile: &RefProfile,
) -> Option<BlockId> {
    let mut sorted = candidates.to_vec();
    sorted.sort_by(|a, b| size(*a).total_cmp(&size(*b)));
    let classes = sorted.chunk_by(|a, b| size(*a) == size(*b));
    let mut policy = kind.build();
    let winners: Vec<BlockId> = classes
        .filter_map(|c| policy.prefetch_pick(c, profile))
        .collect();
    fitting_pick(
        &winners,
        |b| size(b) <= free,
        |w| policy.prefetch_pick(w, profile),
    )
}

/// The reference: the first entry of the full ranking that fits.
fn first_fit(
    kind: PolicyKind,
    candidates: &[BlockId],
    size: &dyn Fn(BlockId) -> f64,
    free: f64,
    profile: &RefProfile,
) -> Option<BlockId> {
    let mut order = Vec::new();
    kind.build().prefetch_order(candidates, profile, &mut order);
    order.into_iter().find(|&b| size(b) <= free)
}

fn check(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dag = random_dag(&small_params(), seed);
    let profile = random_profile(&dag, &mut rng);
    let all: Vec<BlockId> = dag.rdds().iter().flat_map(|r| r.blocks()).collect();
    // 1–4 distinct block sizes, each block given one of them.
    let table: Vec<f64> = [8.0, 16.0, 32.0, 64.0][..rng.gen_range(1..=4)].to_vec();
    let sizes: Vec<f64> = all
        .iter()
        .map(|_| table[rng.gen_range(0..table.len())])
        .collect();
    let size = |b: BlockId| sizes[all.binary_search(&b).unwrap()];
    let mut candidates: Vec<BlockId> = all.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
    // Free space on a size boundary half the time, so `<=` is exercised.
    let free = if rng.gen_bool(0.5) {
        table[rng.gen_range(0..table.len())]
    } else {
        rng.gen_range(0.0..=80.0)
    };
    for kind in [PolicyKind::Mrd, PolicyKind::Lrp] {
        shuffle(&mut candidates, &mut rng);
        let want = first_fit(kind, &candidates, &size, free, &profile);
        let got = size_class_pick(kind, &candidates, &size, free, &profile);
        assert_eq!(
            got, want,
            "{kind}: size-class pick differs from the first fit (seed {seed}, free {free})"
        );
        shuffle(&mut candidates, &mut rng);
        let again = size_class_pick(kind, &candidates, &size, free, &profile);
        assert_eq!(
            again, got,
            "{kind}: pick depends on candidate order (seed {seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The size-class pick equals the first fitting entry of the full
    /// ranking, and does not depend on candidate order, under MRD and
    /// LRP.
    #[test]
    fn size_class_pick_is_the_first_fit(seed in 0u64..1_000_000) {
        check(seed);
    }
}
