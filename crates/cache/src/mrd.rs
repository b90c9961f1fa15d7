//! MRD — Most Reference Distance [Perez, Zhou & Cheng, ICPP'18]. Keyed to
//! the **FIFO stage order**: each block's reference distance is how many
//! stage ids ahead of the currently executing (lowest incomplete) stage its
//! next use lies. MRD evicts the *furthest* block and prefetches the
//! *nearest* not-yet-cached one.
//!
//! This is the paper's DAG-aware-but-scheduler-mismatched comparator: under
//! a DAG-aware scheduler, stage ids no longer predict execution order, so
//! MRD's distances mislead it (§II-A, Table I bottom).

use dagon_cluster::{CachePolicy, RefProfile};
use dagon_dag::BlockId;

/// Reference distance with `None` (never used again) treated as +∞.
fn dist(profile: &RefProfile, b: BlockId) -> u64 {
    profile
        .mrd_distance(b)
        .map(|d| d as u64)
        .unwrap_or(u64::MAX)
}

/// Most-Reference-Distance eviction + nearest-distance prefetch.
pub struct Mrd;

impl Mrd {
    pub fn new() -> Self {
        Mrd
    }
}

impl Default for Mrd {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for Mrd {
    fn policy_name(&self) -> &'static str {
        "MRD"
    }

    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId> {
        let (vd, victim) = candidates.iter().map(|&b| (dist(profile, b), b)).max()?;
        // Classic distance-based admission: don't evict a nearer block to
        // admit a farther one.
        if incoming.is_some_and(|inc| vd < dist(profile, inc)) {
            return None;
        }
        Some(victim)
    }

    fn proactive_victims(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Vec<BlockId> {
        // Dead blocks (no future use) are dropped eagerly — MRD's "evict
        // data of completed stages" behaviour.
        candidates
            .iter()
            .copied()
            .filter(|b| !profile.is_live(*b))
            .collect()
    }

    fn prefetch_pick(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Option<BlockId> {
        candidates
            .iter()
            .copied()
            .filter(|b| profile.is_live(*b))
            .min_by_key(|b| (dist(profile, *b), *b))
    }

    fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        // Same key as `prefetch_pick` — distance asc, block id asc — so
        // the first entry of any subset is the pick over it.
        out.clear();
        let mut keyed: Vec<(u64, BlockId)> = candidates
            .iter()
            .copied()
            .filter(|b| profile.is_live(*b))
            .map(|b| (dist(profile, b), b))
            .collect();
        keyed.sort_unstable_by_key(|&k| k);
        out.extend(keyed.into_iter().map(|(_, b)| b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::{PriorityTracker, RddId, StageId};

    fn profile_with(done: &[StageId]) -> RefProfile {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        let done = done.to_vec();
        p.rebuild(&dag, &|s, _| done.contains(&s), &|s| done.contains(&s));
        p
    }

    #[test]
    fn evicts_furthest_use_first() {
        let mut mrd = Mrd::new();
        let p = profile_with(&[]);
        // B (rdd 2) used at stage distance 3; C (rdd 1) at distance 1.
        let b0 = BlockId::new(RddId(2), 0);
        let c0 = BlockId::new(RddId(1), 0);
        assert_eq!(mrd.victim(&[b0, c0], None, &p), Some(b0));
    }

    #[test]
    fn table_i_moment_after_stage1_keeps_c_over_b() {
        // Paper §II-A: "after stage 1 has completed, MRD does not cache the
        // recently used output RDD B, which is needed in stage 4 … it
        // prefetches blocks C1 C2 C3".
        let mut mrd = Mrd::new();
        let p = profile_with(&[StageId(0)]);
        let b0 = BlockId::new(RddId(2), 0); // B: next use S3 (dist 2 from frontier 1)
        let c0 = BlockId::new(RddId(1), 0); // C: next use S1 (dist 0)
                                            // Evict B before C.
        assert_eq!(mrd.victim(&[b0, c0], None, &p), Some(b0));
        // Prefetch C first.
        assert_eq!(mrd.prefetch_pick(&[b0, c0], &p), Some(c0));
    }

    #[test]
    fn refuses_admission_of_farther_block() {
        let mut mrd = Mrd::new();
        let p = profile_with(&[]);
        let c0 = BlockId::new(RddId(1), 0); // dist 1
        let b0 = BlockId::new(RddId(2), 0); // dist 3
        assert_eq!(mrd.victim(&[c0], Some(b0), &p), None);
        assert_eq!(mrd.victim(&[b0], Some(c0), &p), Some(b0));
    }

    #[test]
    fn dead_blocks_evicted_proactively_and_never_prefetched() {
        let mut mrd = Mrd::new();
        let p = profile_with(&[]);
        let f0 = BlockId::new(RddId(5), 0); // final output, never read
        let c0 = BlockId::new(RddId(1), 0);
        assert_eq!(mrd.proactive_victims(&[f0, c0], &p), vec![f0]);
        assert_eq!(mrd.prefetch_pick(&[f0], &p), None);
    }
}
