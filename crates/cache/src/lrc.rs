//! LRC — Least Reference Count [Yu et al., INFOCOM'17]. Evicts the block
//! with the fewest *remaining* references in the DAG. The paper's critique
//! (§I): LRC ignores the time-spatial distribution of those references, so
//! a block referenced once soon ties with a block referenced once far in
//! the future.

use dagon_cluster::{CachePolicy, RefProfile};
use dagon_dag::BlockId;

/// Least-reference-count eviction (no prefetch).
pub struct Lrc {
    /// Insertion order for tie-breaking (older first), matching the LRU
    /// fallback the LRC paper applies among equal counts.
    clock: u64,
    stamp: std::collections::BTreeMap<BlockId, u64>,
}

impl Lrc {
    pub fn new() -> Self {
        Self {
            clock: 0,
            stamp: std::collections::BTreeMap::new(),
        }
    }
}

impl Default for Lrc {
    fn default() -> Self {
        Self::new()
    }
}

impl CachePolicy for Lrc {
    fn policy_name(&self) -> &'static str {
        "LRC"
    }

    fn on_access(&mut self, b: BlockId, _now: dagon_dag::SimTime) {
        self.clock += 1;
        self.stamp.insert(b, self.clock);
    }

    fn on_insert(&mut self, b: BlockId, _now: dagon_dag::SimTime) {
        self.clock += 1;
        self.stamp.insert(b, self.clock);
    }

    fn on_evict(&mut self, b: BlockId) {
        self.stamp.remove(&b);
    }

    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId> {
        let victim = candidates.iter().copied().min_by_key(|b| {
            (
                profile.lrc_count(*b),
                self.stamp.get(b).copied().unwrap_or(0),
                *b,
            )
        })?;
        // Don't evict a higher-count block for a lower-count newcomer.
        if let Some(inc) = incoming {
            if profile.lrc_count(victim) > profile.lrc_count(inc) {
                return None;
            }
        }
        Some(victim)
    }

    fn proactive_victims(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Vec<BlockId> {
        // LRC also drops dead blocks (reference count 0) eagerly.
        candidates
            .iter()
            .copied()
            .filter(|b| profile.lrc_count(*b) == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::{PriorityTracker, RddId};

    fn profile() -> RefProfile {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        p.rebuild(&dag, &|_, _| false, &|_| false);
        p
    }

    #[test]
    fn evicts_smallest_remaining_count() {
        let mut lrc = Lrc::new();
        let p = profile();
        // D block 1 (rdd 3, partition 1): 1 use; F block (rdd 5): 0 uses.
        let d1 = BlockId::new(RddId(3), 1);
        let f0 = BlockId::new(RddId(5), 0);
        assert_eq!(lrc.victim(&[d1, f0], None, &p), Some(f0));
    }

    #[test]
    fn refuses_to_evict_for_lower_value_incoming() {
        let mut lrc = Lrc::new();
        let p = profile();
        let d1 = BlockId::new(RddId(3), 1); // count 1
        let f0 = BlockId::new(RddId(5), 0); // count 0 — dead incoming
        assert_eq!(lrc.victim(&[d1], Some(f0), &p), None);
        // Equal counts: eviction allowed.
        let a0 = BlockId::new(RddId(0), 0); // count 1
        assert_eq!(lrc.victim(&[d1], Some(a0), &p), Some(d1));
    }

    #[test]
    fn proactively_drops_dead_blocks() {
        let mut lrc = Lrc::new();
        let p = profile();
        let d1 = BlockId::new(RddId(3), 1);
        let f0 = BlockId::new(RddId(5), 0);
        assert_eq!(lrc.proactive_victims(&[d1, f0], &p), vec![f0]);
    }
}
