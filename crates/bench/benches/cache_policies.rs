//! Cache-policy decision throughput: victim selection and prefetch ranking
//! over realistic resident-set sizes, plus reference-profile maintenance.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dagon_cache::PolicyKind;
use dagon_cluster::RefProfile;
use dagon_dag::{BlockId, PriorityTracker, RddId};
use dagon_workloads::{Scale, Workload};

fn profile_and_blocks() -> (RefProfile, Vec<BlockId>) {
    let dag = Workload::ConnectedComponent.build(&Scale::paper());
    let tracker = PriorityTracker::from_dag(&dag);
    let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
    p.rebuild(&dag, &|_, _| false, &|_| false);
    // A resident set of ~64 blocks drawn across the DAG's RDDs.
    let blocks: Vec<BlockId> = dag
        .rdds()
        .iter()
        .filter(|r| r.cached)
        .flat_map(|r| (0..r.num_partitions.min(8)).map(move |k| BlockId::new(r.id, k)))
        .take(64)
        .collect();
    (p, blocks)
}

fn bench_victim_selection(c: &mut Criterion) {
    let (profile, blocks) = profile_and_blocks();
    let incoming = Some(BlockId::new(RddId(1), 0));
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Lrc,
        PolicyKind::Mrd,
        PolicyKind::Lrp,
    ] {
        let mut policy = kind.build();
        for (i, b) in blocks.iter().enumerate() {
            policy.on_insert(*b, i as u64);
        }
        c.bench_function(format!("victim_64_resident_{}", kind), |b| {
            b.iter(|| policy.victim(&blocks, incoming, &profile))
        });
    }
}

fn bench_prefetch_ranking(c: &mut Criterion) {
    let (profile, blocks) = profile_and_blocks();
    for kind in [PolicyKind::Mrd, PolicyKind::Lrp] {
        let mut policy = kind.build();
        c.bench_function(format!("prefetch_pick_64_candidates_{}", kind), |b| {
            b.iter(|| policy.prefetch_pick(&blocks, &profile))
        });
    }
}

fn bench_profile_rebuild(c: &mut Criterion) {
    let dag = Workload::ConnectedComponent.build(&Scale::paper());
    let tracker = PriorityTracker::from_dag(&dag);
    let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
    c.bench_function("refprofile_rebuild_cc_paper_scale", |b| {
        b.iter(|| p.rebuild(&dag, &|_, _| false, &|_| false))
    });
    p.rebuild(&dag, &|_, _| false, &|_| false);
    c.bench_function("refprofile_remove_use", |b| {
        b.iter_batched(
            || p.clone(),
            |mut q| q.remove_use(BlockId::new(RddId(1), 0), dagon_dag::StageId(1)),
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    cache,
    bench_victim_selection,
    bench_prefetch_ranking,
    bench_profile_rebuild
);
criterion_main!(cache);
