//! LRP — Least Reference Priority, Dagon's cache policy (§III-C, Def. 1).
//!
//! Each block's *reference priority* is the priority value `pv_i` (Eq. 6)
//! of the highest-priority stage that still reads it; stage completion
//! deletes that stage's contribution (Fig. 6). Because the Dagon scheduler
//! always runs the highest-pv ready stage next, a high reference priority
//! means "needed soon" — so LRP evicts the smallest-priority block,
//! proactively drops zero-priority (inactive) blocks, and prefetches the
//! largest-priority block sitting on disk.

use dagon_cluster::{CachePolicy, RefProfile};
use dagon_dag::BlockId;

/// Least-Reference-Priority eviction + highest-priority prefetch.
pub struct Lrp;

impl Lrp {
    pub fn new() -> Self {
        Lrp
    }
}

impl Default for Lrp {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for Lrp {
    fn policy_name(&self) -> &'static str {
        "LRP"
    }

    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId> {
        // Primary key: reference priority (Def. 1). Ties — common when a
        // long-lived RDD and a fresh message RDD are both next read by the
        // same stage — break toward the block with fewer remaining reads,
        // so an edge RDD reread by every future superstep outlives a
        // message RDD that dies after the next one.
        let (vk, victim) = candidates.iter().map(|&b| (profile.lrp_key(b), b)).min()?;
        // Priority-aware admission: never displace a higher-priority block
        // with a lower-priority newcomer.
        if incoming.is_some_and(|inc| vk > profile.lrp_key(inc)) {
            return None;
        }
        Some(victim)
    }

    fn proactive_victims(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Vec<BlockId> {
        // §III-C: "proactively delete inactive data (i.e., with zero
        // reference priority)".
        candidates
            .iter()
            .copied()
            .filter(|b| profile.lrp_priority(*b) == 0)
            .collect()
    }

    fn prefetch_pick(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Option<BlockId> {
        candidates
            .iter()
            .map(|&b| (profile.lrp_priority(b), std::cmp::Reverse(b)))
            .filter(|&(p, _)| p > 0)
            .max()
            .map(|(_, std::cmp::Reverse(b))| b)
    }

    fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        // Same key as `prefetch_pick` — priority desc, block id asc — so
        // the first entry of any subset is the pick over it (the
        // simulator's debug oracle for its size-class picks).
        out.clear();
        let mut keyed: Vec<(u64, BlockId)> = candidates
            .iter()
            .copied()
            .filter_map(|b| {
                let p = profile.lrp_priority(b);
                (p > 0).then_some((p, b))
            })
            .collect();
        keyed.sort_unstable_by_key(|&(p, b)| (std::cmp::Reverse(p), b));
        out.extend(keyed.into_iter().map(|(_, b)| b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::{PriorityTracker, RddId, StageId, TaskId, MIN_MS};

    fn profile(done: &[StageId], launched_s2: u32) -> RefProfile {
        let dag = fig1();
        let mut tracker = PriorityTracker::from_dag(&dag);
        for k in 0..launched_s2 {
            tracker.on_task_launched(TaskId::new(StageId(1), k), 12 * MIN_MS);
        }
        let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        let done = done.to_vec();
        p.rebuild(&dag, &|s, _| done.contains(&s), &|s| done.contains(&s));
        p
    }

    #[test]
    fn evicts_lowest_priority_block() {
        let mut lrp = Lrp::new();
        let p = profile(&[], 0);
        // At t0: C blocks (used by pv=64 stage2) outrank B blocks (used by
        // pv=4 stage4) — the opposite of MRD's FIFO-distance view once the
        // DAG-aware scheduler runs stage 2 first.
        let b0 = BlockId::new(RddId(2), 0);
        let c0 = BlockId::new(RddId(1), 0);
        assert_eq!(lrp.victim(&[b0, c0], None, &p), Some(b0));
        assert_eq!(lrp.prefetch_pick(&[b0, c0], &p), Some(c0));
    }

    #[test]
    fn admission_respects_priority_order() {
        let mut lrp = Lrp::new();
        let p = profile(&[], 0);
        let b0 = BlockId::new(RddId(2), 0); // priority 4
        let c0 = BlockId::new(RddId(1), 0); // priority 64
        assert_eq!(lrp.victim(&[c0], Some(b0), &p), None);
        assert_eq!(lrp.victim(&[b0], Some(c0), &p), Some(b0));
    }

    #[test]
    fn zero_priority_blocks_dropped_proactively() {
        let mut lrp = Lrp::new();
        // Stage 1 (S0) done → A blocks have zero reference priority.
        let p = profile(&[StageId(0)], 0);
        let a0 = BlockId::new(RddId(0), 0);
        let c0 = BlockId::new(RddId(1), 0);
        assert_eq!(lrp.proactive_victims(&[a0, c0], &p), vec![a0]);
        assert_eq!(lrp.prefetch_pick(&[a0], &p), None);
    }

    #[test]
    fn fig6_completion_falls_back_to_next_highest_priority() {
        // Def. 1 / Fig. 6: when the highest-priority using stage completes,
        // the block's reference priority becomes the next highest.
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        p.rebuild(&dag, &|_, _| false, &|_| false);
        // D blocks are read only by stage 3 (S2, pv 28).
        let d0 = BlockId::new(RddId(3), 0);
        assert_eq!(p.lrp_priority(d0) / MIN_MS, 28);
        // After S2 completes, D has no remaining reader → 0.
        p.rebuild(&dag, &|s, _| s == StageId(2), &|s| s == StageId(2));
        assert_eq!(p.lrp_priority(d0), 0);
    }
}
