//! Per-executor BlockManager: the cache runtime that hosts a pluggable
//! [`CachePolicy`] (LRU / LRC / MRD / LRP live in `dagon-cache`).
//!
//! BlockManagers track *capacity and policy state* only; block residency
//! itself lives in the [`crate::locality_index::LocalityIndex`]'s
//! residency bitsets. The simulator reports every block a BlockManager
//! stores or drops to the index through two helpers, `cache_insert` and
//! `uncache` (`block_loss` keeps its own lines for its different trace
//! event; DESIGN.md §34). That one path is what lets the index maintain
//! its derived state — the per-stage locality sets the placement probes
//! read — from the same delta stream.
//!
//! Proactive drops are event-driven ([`DropPass`]): the profile and the
//! [`BlockManagers`] record the blocks whose drop standing may have
//! moved, and only those are offered to the policies. The executors'
//! record is one (executor, block) log, written by the only two
//! mutators that make a block evictable, so a pass reads the
//! BlockManagers that changed and no others.

use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

use dagon_dag::{BlockId, SimTime, StageId};

use crate::refprofile::RefProfile;
use crate::topology::ExecId;

/// A cache eviction/prefetch policy, as seen by one executor's
/// BlockManager. Policies get the master's [`RefProfile`] on every decision
/// (the paper's BlockManagerMaster "sends the updated profile to
/// BlockManager in the corresponding nodes").
pub trait CachePolicy {
    fn policy_name(&self) -> &'static str;

    /// A resident block was read (cache hit).
    fn on_access(&mut self, _b: BlockId, _now: SimTime) {}

    /// A block entered the cache (miss-fill, output write, or prefetch).
    fn on_insert(&mut self, _b: BlockId, _now: SimTime) {}

    /// A block left the cache.
    fn on_evict(&mut self, _b: BlockId) {}

    /// Choose a victim among `candidates` (unpinned resident blocks) to make
    /// room for `incoming`. Returning `None` rejects the insertion instead:
    /// value-aware policies refuse to evict a block more valuable than the
    /// incoming one.
    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId>;

    /// Blocks to drop right now regardless of space pressure (LRP's
    /// proactive eviction of zero-reference-priority data), in the order
    /// they appear in `candidates`.
    ///
    /// Purity contract: the result is a per-block filter over
    /// `candidates` — a block's membership does not depend on the other
    /// candidates — and a block's membership may change only when
    ///
    /// * the block enters the candidate set (inserted, or its last pin
    ///   released),
    /// * its use list in `profile` changes, or
    /// * the `pv` of a stage that reads it reaches or leaves zero.
    ///
    /// LRU (never), LRC and MRD (no remaining use) and LRP (every
    /// reader's `pv` is zero) all meet it. The simulator relies on it to
    /// offer each pass only the blocks one of these events touched
    /// ([`DropPass`]): any other block was already refused by an earlier
    /// pass and would be refused again.
    fn proactive_victims(
        &mut self,
        _candidates: &[BlockId],
        _profile: &RefProfile,
    ) -> Vec<BlockId> {
        Vec::new()
    }

    /// Pick the best block to prefetch from `candidates` (disk-resident,
    /// cache-eligible, not yet cached here). `None` = this policy doesn't
    /// prefetch (LRU, LRC).
    ///
    /// This is the method the simulator relies on: per node, it picks
    /// once per block-size class of the node's candidates, then once per
    /// executor among the class winners that fit its free space (a lone
    /// fitting winner is taken as is). That is exact by the
    /// [`prefetch_order`](Self::prefetch_order) agreement contract
    /// (DESIGN.md §27). The pick must not depend on the order of
    /// `candidates`, and, like the ranking, must be a function of
    /// `candidates` and `profile` alone.
    fn prefetch_pick(&mut self, _candidates: &[BlockId], _profile: &RefProfile) -> Option<BlockId> {
        None
    }

    /// Rank `candidates` into full prefetch-preference order, best first,
    /// written into `out`. The ranking must not depend on the order of
    /// `candidates` (sort by a total key, e.g. one ending in the
    /// `BlockId`). Must agree with
    /// [`prefetch_pick`](Self::prefetch_pick): for any subset of
    /// `candidates`, the first `out` entry belonging to that subset is
    /// exactly the pick over it. The simulator's size-class picks are
    /// exact because of this agreement; release builds never call this
    /// method, and debug builds call it on every prefetch evaluation as
    /// the oracle for those picks. The default (no prefetching) leaves
    /// `out` empty.
    ///
    /// Purity contract: `out` is a function of `candidates` and `profile`
    /// alone. The simulator relies on this (through the picks) to skip a
    /// tick's prefetch scan when nothing it reads changed since the last
    /// scan, and to skip nodes with no candidates outright (the ranking
    /// of nothing is empty).
    fn prefetch_order(
        &mut self,
        _candidates: &[BlockId],
        _profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        out.clear();
    }

    /// Should a read miss insert the block (standard Spark persist
    /// behaviour)? `NoCache` says no.
    fn caches_on_miss(&self) -> bool {
        true
    }

    /// Does this policy accept insertions at all? `NoCache` (caching
    /// disabled, the paper's Fig. 9 setting) says no — not even task
    /// outputs enter storage memory.
    fn admits(&self) -> bool {
        true
    }
}

/// Outcome of an insertion attempt.
#[derive(Debug, PartialEq)]
pub enum InsertOutcome {
    /// Block stored; these blocks were evicted to make room.
    Inserted { evicted: Vec<BlockId> },
    /// Policy refused to finish making room (or the block is larger than
    /// capacity / the policy admits nothing). Victims evicted *before* the
    /// refusal stay evicted, exactly as Spark drops them before discovering
    /// the new block doesn't fit — the caller must account for them.
    Rejected { evicted: Vec<BlockId> },
    /// Already resident.
    AlreadyCached,
}

/// One executor's storage memory.
// lint: incremental(unpinned, mutators = [pin, unpin, try_insert, drop_block], init = [new], oracle = check_unpinned)
pub struct BlockManager {
    capacity_mb: f64,
    used_mb: f64,
    resident: BTreeMap<BlockId, f64>,
    pinned: BTreeMap<BlockId, u32>,
    /// The resident blocks with no pin, ascending: the eviction
    /// candidates, kept current by one binary-searched insert or remove
    /// per transition ([`evictable`](Self::evictable) is the from-scratch
    /// oracle).
    unpinned: Vec<BlockId>,
    policy: Box<dyn CachePolicy>,
}

impl BlockManager {
    pub fn new(capacity_mb: f64, policy: Box<dyn CachePolicy>) -> Self {
        Self {
            capacity_mb,
            used_mb: 0.0,
            resident: BTreeMap::new(),
            pinned: BTreeMap::new(),
            unpinned: Vec::new(),
            policy,
        }
    }

    pub fn policy_name(&self) -> &'static str {
        self.policy.policy_name()
    }

    pub fn contains(&self, b: BlockId) -> bool {
        self.resident.contains_key(&b)
    }

    pub fn used_mb(&self) -> f64 {
        self.used_mb
    }

    pub fn free_mb(&self) -> f64 {
        (self.capacity_mb - self.used_mb).max(0.0)
    }

    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Fraction of capacity currently free (0.0 for a zero-capacity cache,
    /// so prefetching never triggers on it).
    pub fn free_frac(&self) -> f64 {
        if self.capacity_mb <= 0.0 {
            0.0
        } else {
            self.free_mb() / self.capacity_mb
        }
    }

    pub fn num_resident(&self) -> usize {
        self.resident.len()
    }

    pub fn resident_blocks(&self) -> Vec<BlockId> {
        // BTreeMap keys are already in ascending BlockId order.
        self.resident.keys().copied().collect()
    }

    pub fn caches_on_miss(&self) -> bool {
        self.policy.caches_on_miss()
    }

    /// Record a read of `b`. Returns `true` on hit (and touches the policy's
    /// recency state).
    pub fn access(&mut self, b: BlockId, now: SimTime) -> bool {
        if self.resident.contains_key(&b) {
            self.policy.on_access(b, now);
            true
        } else {
            false
        }
    }

    /// Pin a resident block while a task reads it (pinned blocks are not
    /// eviction candidates, mirroring Spark's block locks).
    pub fn pin(&mut self, b: BlockId) {
        if self.resident.contains_key(&b) {
            let c = self.pinned.entry(b).or_insert(0);
            *c += 1;
            if *c == 1 {
                if let Ok(pos) = self.unpinned.binary_search(&b) {
                    self.unpinned.remove(pos);
                }
            }
        }
    }

    /// Release one pin on `b`. Returns whether that was the last pin,
    /// which makes `b` evictable. Reached from outside this module only
    /// through [`BlockManagers::unpin`], which records that transition.
    fn unpin(&mut self, b: BlockId) -> bool {
        if let Some(c) = self.pinned.get_mut(&b) {
            *c -= 1;
            if *c == 0 {
                self.pinned.remove(&b);
                if let Err(pos) = self.unpinned.binary_search(&b) {
                    self.unpinned.insert(pos, b);
                }
                return true;
            }
        }
        false
    }

    /// The unpinned resident blocks — the eviction candidates — in
    /// ascending `BlockId` order, computed from scratch: the oracle for
    /// the maintained list.
    pub fn evictable(&self) -> Vec<BlockId> {
        // Ascending BlockId order by construction (ordered keys).
        self.resident
            .keys()
            .filter(|b| !self.pinned.contains_key(b))
            .copied()
            .collect()
    }

    /// Does the maintained evictable list equal the from-scratch one?
    pub(crate) fn check_unpinned(&self) -> bool {
        self.unpinned == self.evictable()
    }

    /// Try to insert `b` of `mb` MiB, evicting per policy as needed. A
    /// successful insert makes `b` evictable; reached from outside this
    /// module only through [`BlockManagers::try_insert`], which records
    /// that.
    fn try_insert(
        &mut self,
        b: BlockId,
        mb: f64,
        now: SimTime,
        profile: &RefProfile,
    ) -> InsertOutcome {
        if !self.policy.admits() {
            return InsertOutcome::Rejected { evicted: vec![] };
        }
        if self.resident.contains_key(&b) {
            return InsertOutcome::AlreadyCached;
        }
        if mb > self.capacity_mb {
            return InsertOutcome::Rejected { evicted: vec![] };
        }
        debug_assert!(self.check_unpinned(), "evictable list drifted");
        let mut evicted = Vec::new();
        while self.used_mb + mb > self.capacity_mb + 1e-9 {
            if self.unpinned.is_empty() {
                return InsertOutcome::Rejected { evicted };
            }
            match self.policy.victim(&self.unpinned, Some(b), profile) {
                Some(v) => {
                    self.drop_block(v);
                    evicted.push(v);
                }
                None => return InsertOutcome::Rejected { evicted },
            }
        }
        self.resident.insert(b, mb);
        if let Err(pos) = self.unpinned.binary_search(&b) {
            self.unpinned.insert(pos, b);
        }
        self.used_mb += mb;
        self.policy.on_insert(b, now);
        InsertOutcome::Inserted { evicted }
    }

    /// Remove a block (eviction bookkeeping included).
    fn drop_block(&mut self, b: BlockId) {
        if let Some(mb) = self.resident.remove(&b) {
            self.used_mb -= mb;
            if self.pinned.remove(&b).is_none() {
                if let Ok(pos) = self.unpinned.binary_search(&b) {
                    self.unpinned.remove(pos);
                }
            }
            self.policy.on_evict(b);
        }
    }

    /// Forcibly drop a block regardless of pins (fault injection: block
    /// corruption/loss). Returns whether the block was resident. Any task
    /// currently pinning it already paid its read cost — only future reads
    /// see the loss — so clearing the pin is safe.
    pub fn invalidate(&mut self, b: BlockId) -> bool {
        let was = self.resident.contains_key(&b);
        self.drop_block(b);
        was
    }

    /// Drop every resident block (executor crash wiping its storage
    /// memory). Returns the blocks that were resident, in sorted order.
    pub fn crash_clear(&mut self) -> Vec<BlockId> {
        let blocks = self.resident_blocks();
        for b in &blocks {
            self.drop_block(*b);
        }
        blocks
    }

    /// Would the policy drop nothing from the whole evictable set right
    /// now? Asks without dropping anything: the oracle [`DropPass`]
    /// callers assert on every executor after each pass.
    #[cfg(debug_assertions)]
    pub(crate) fn check_sweep_idle(&mut self, profile: &RefProfile) -> bool {
        self.policy
            .proactive_victims(&self.unpinned, profile)
            .is_empty()
    }

    /// The policy's prefetch pick over `candidates`; see
    /// [`CachePolicy::prefetch_pick`].
    pub fn prefetch_pick(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
    ) -> Option<BlockId> {
        self.policy.prefetch_pick(candidates, profile)
    }

    /// Full prefetch-preference ranking; see
    /// [`CachePolicy::prefetch_order`].
    pub fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        self.policy.prefetch_order(candidates, profile, out);
    }
}

/// Every executor's BlockManager, and the log of the blocks that became
/// evictable since the last [`DropPass`].
///
/// A block becomes evictable (resident and unpinned) only through a
/// successful insert or the release of its last pin. Those two
/// transitions are reachable only through this owner's
/// [`try_insert`](Self::try_insert) and [`unpin`](Self::unpin), which
/// append the `(executor, block)` pair to the log, so the log holds every
/// such transition by construction. Every other BlockManager method is
/// reached through indexing.
// lint: incremental(fresh, mutators = [unpin, try_insert, run], init = [from_iter], oracle = check_sweep_idle)
pub struct BlockManagers {
    bms: Vec<BlockManager>,
    /// `(executor, block)` for each block that became evictable since
    /// the last [`DropPass`], in event order, with repeats.
    fresh: Vec<(u32, BlockId)>,
}

impl FromIterator<BlockManager> for BlockManagers {
    fn from_iter<I: IntoIterator<Item = BlockManager>>(iter: I) -> Self {
        Self {
            bms: iter.into_iter().collect(),
            fresh: Vec::new(),
        }
    }
}

impl Index<usize> for BlockManagers {
    type Output = BlockManager;

    fn index(&self, i: usize) -> &BlockManager {
        &self.bms[i]
    }
}

impl IndexMut<usize> for BlockManagers {
    fn index_mut(&mut self, i: usize) -> &mut BlockManager {
        &mut self.bms[i]
    }
}

impl BlockManagers {
    pub fn len(&self) -> usize {
        self.bms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bms.is_empty()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, BlockManager> {
        self.bms.iter()
    }

    /// Try to insert `b` of `mb` MiB into executor `e`'s cache, evicting
    /// per its policy as needed, and log `b` when it is stored.
    pub fn try_insert(
        &mut self,
        e: ExecId,
        b: BlockId,
        mb: f64,
        now: SimTime,
        profile: &RefProfile,
    ) -> InsertOutcome {
        let out = self.bms[e.index()].try_insert(b, mb, now, profile);
        if matches!(out, InsertOutcome::Inserted { .. }) {
            self.fresh.push((e.0, b));
        }
        out
    }

    /// Release one pin on `b` on executor `e`, logging `b` when that was
    /// its last pin.
    pub fn unpin(&mut self, e: ExecId, b: BlockId) {
        if self.bms[e.index()].unpin(b) {
            self.fresh.push((e.0, b));
        }
    }

    /// Has a block become evictable since the last [`DropPass`]?
    #[cfg(debug_assertions)]
    pub(crate) fn has_fresh(&self) -> bool {
        !self.fresh.is_empty()
    }
}

/// The event-driven proactive drop pass, with its reused buffers.
///
/// A full sweep would offer every executor's whole evictable set to
/// [`CachePolicy::proactive_victims`]. By that method's purity contract,
/// after one pass the only blocks that can turn into victims are those
/// an event touched since: the ones `RefProfile::drain_changes` reports
/// (a changed use list, or a reader stage whose `pv` crossed zero) and
/// the ones the [`BlockManagers`] log made evictable. [`DropPass::run`]
/// offers each executor exactly those, so it drops what the full sweep
/// would, in the same (executor, block) order, and reads only the
/// BlockManagers those blocks sit on.
#[derive(Default)]
pub struct DropPass {
    blocks: Vec<BlockId>,
    stages: Vec<StageId>,
    pairs: Vec<(u32, BlockId)>,
    candidates: Vec<BlockId>,
}

impl DropPass {
    /// Drain the change streams of `profile` and `bms`, and drop every
    /// block the policies now name. `stage_blocks(s, out)` appends a
    /// superset of the blocks whose use list holds stage `s` (repeats
    /// allowed); `holders(b, out)` appends `(executor, b)` for a superset
    /// of the executors caching `b`. The victims are appended to `out` as
    /// `(executor, block)`: executors ascending, each executor's in the
    /// order its policy returned them. Returns the number of
    /// BlockManagers whose state the pass read: every executor on the
    /// first pass after `RefProfile::rebuild`, and otherwise the
    /// executors of the changed pairs.
    pub fn run(
        &mut self,
        bms: &mut BlockManagers,
        profile: &mut RefProfile,
        mut stage_blocks: impl FnMut(StageId, &mut Vec<BlockId>),
        mut holders: impl FnMut(BlockId, &mut Vec<(u32, BlockId)>),
        out: &mut Vec<(u32, BlockId)>,
    ) -> usize {
        let rebuilt = profile.drain_changes(&mut self.blocks, &mut self.stages);
        if !self.stages.is_empty() {
            for &s in &self.stages {
                stage_blocks(s, &mut self.blocks);
            }
            self.blocks.sort_unstable();
            self.blocks.dedup();
        }
        self.pairs.clear();
        for &b in &self.blocks {
            holders(b, &mut self.pairs);
        }
        if rebuilt {
            for (e, bm) in (0u32..).zip(&bms.bms) {
                self.pairs.extend(bm.unpinned.iter().map(|&b| (e, b)));
            }
        }
        self.pairs.append(&mut bms.fresh);
        self.pairs.sort_unstable();
        self.pairs.dedup();
        let mut visited = 0;
        let mut rest = &self.pairs[..];
        while let Some(&(e, _)) = rest.first() {
            let n = rest.partition_point(|p| p.0 == e);
            let bm = &mut bms.bms[e as usize];
            visited += 1;
            // Keep the evictable pairs: one binary search in the
            // maintained list, which `check_unpinned` proves equal to
            // the resident, unpinned set.
            self.candidates.clear();
            self.candidates.extend(
                rest[..n]
                    .iter()
                    .map(|p| p.1)
                    .filter(|b| bm.unpinned.binary_search(b).is_ok()),
            );
            rest = &rest[n..];
            if self.candidates.is_empty() {
                continue;
            }
            let victims = bm.policy.proactive_victims(&self.candidates, profile);
            for &v in &victims {
                bm.drop_block(v);
            }
            out.extend(victims.into_iter().map(|v| (e, v)));
        }
        if rebuilt {
            bms.len()
        } else {
            visited
        }
    }
}

/// The "caching disabled" policy used by the paper's Fig. 9 experiments.
#[derive(Default)]
pub struct NoCache;

impl CachePolicy for NoCache {
    fn policy_name(&self) -> &'static str {
        "none"
    }

    fn victim(&mut self, _c: &[BlockId], _i: Option<BlockId>, _p: &RefProfile) -> Option<BlockId> {
        None
    }

    fn caches_on_miss(&self) -> bool {
        false
    }

    fn admits(&self) -> bool {
        false
    }
}

#[cfg(test)]
// Replay values in these tests are set, not computed: exact float
// equality is the contract being asserted.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dagon_dag::RddId;
    use proptest::prelude::*;

    /// Evicts the smallest BlockId; accepts everything.
    struct FifoTest;
    impl CachePolicy for FifoTest {
        fn policy_name(&self) -> &'static str {
            "fifo-test"
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            c.first().copied()
        }
    }

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    #[test]
    fn insert_until_full_then_evict() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(
            bm.try_insert(blk(0, 0), 40.0, 0, &p),
            InsertOutcome::Inserted { evicted: vec![] }
        );
        assert_eq!(
            bm.try_insert(blk(0, 1), 40.0, 0, &p),
            InsertOutcome::Inserted { evicted: vec![] }
        );
        // Needs 40 more: evicts blk(0,0).
        match bm.try_insert(blk(0, 2), 40.0, 0, &p) {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, vec![blk(0, 0)]),
            o => panic!("{o:?}"),
        }
        assert!(!bm.contains(blk(0, 0)));
        assert!(bm.contains(blk(0, 2)));
        assert!((bm.used_mb() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut bm = BlockManager::new(10.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(
            bm.try_insert(blk(0, 0), 11.0, 0, &p),
            InsertOutcome::Rejected { evicted: vec![] }
        );
    }

    #[test]
    fn double_insert_reports_already_cached() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 10.0, 0, &p);
        assert_eq!(
            bm.try_insert(blk(0, 0), 10.0, 0, &p),
            InsertOutcome::AlreadyCached
        );
    }

    #[test]
    fn pinned_blocks_are_not_evicted() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 60.0, 0, &p);
        bm.pin(blk(0, 0));
        // 60 used, need 60 more; only candidate is pinned → rejected.
        assert!(matches!(
            bm.try_insert(blk(0, 1), 60.0, 0, &p),
            InsertOutcome::Rejected { .. }
        ));
        bm.unpin(blk(0, 0));
        assert!(matches!(
            bm.try_insert(blk(0, 1), 60.0, 0, &p),
            InsertOutcome::Inserted { .. }
        ));
    }

    #[test]
    fn access_hits_only_resident() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert!(!bm.access(blk(0, 0), 0));
        bm.try_insert(blk(0, 0), 10.0, 0, &p);
        assert!(bm.access(blk(0, 0), 1));
    }

    #[test]
    fn nocache_rejects_everything() {
        let mut bm = BlockManager::new(100.0, Box::new(NoCache));
        let p = RefProfile::default();
        assert!(!bm.caches_on_miss());
        assert!(matches!(
            bm.try_insert(blk(0, 0), 60.0, 0, &p),
            InsertOutcome::Rejected { .. }
        ));
        assert!(!bm.contains(blk(0, 0)));
        assert_eq!(bm.used_mb(), 0.0);
    }

    #[test]
    fn invalidate_drops_even_pinned_blocks() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 30.0, 0, &p);
        bm.pin(blk(0, 0));
        assert!(bm.invalidate(blk(0, 0)));
        assert!(!bm.contains(blk(0, 0)));
        assert_eq!(bm.used_mb(), 0.0);
        assert!(!bm.invalidate(blk(0, 0))); // already gone
        bm.unpin(blk(0, 0)); // stale unpin after loss is a no-op
    }

    #[test]
    fn crash_clear_empties_storage() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 1), 30.0, 0, &p);
        bm.try_insert(blk(0, 0), 30.0, 0, &p);
        bm.pin(blk(0, 0));
        let lost = bm.crash_clear();
        assert_eq!(lost, vec![blk(0, 0), blk(0, 1)]);
        assert_eq!(bm.used_mb(), 0.0);
        assert!(bm.crash_clear().is_empty());
    }

    #[test]
    fn free_frac_tracks_usage() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(bm.free_frac(), 1.0);
        bm.try_insert(blk(0, 0), 25.0, 0, &p);
        assert!((bm.free_frac() - 0.75).abs() < 1e-9);
        let zero = BlockManager::new(0.0, Box::new(NoCache));
        assert_eq!(zero.free_frac(), 0.0);
    }

    /// Names every candidate as a proactive victim: a per-block filter
    /// whose membership never changes, so only a block entering the
    /// candidate set can make it drop something.
    struct DropAllTest;
    impl CachePolicy for DropAllTest {
        fn policy_name(&self) -> &'static str {
            "drop-all-test"
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            c.first().copied()
        }
        fn proactive_victims(&mut self, c: &[BlockId], _p: &RefProfile) -> Vec<BlockId> {
            c.to_vec()
        }
    }

    /// One drop pass over `bms` with no profile-side changes; returns
    /// the victims and the number of BlockManagers the pass read.
    fn drop_pass(
        pass: &mut DropPass,
        bms: &mut BlockManagers,
        p: &mut RefProfile,
    ) -> (Vec<(u32, BlockId)>, usize) {
        let mut out = Vec::new();
        let visited = pass.run(bms, p, |_, _| {}, |_, _| {}, &mut out);
        (out, visited)
    }

    /// The log is written by `try_insert` and by the `unpin` that
    /// releases the last pin, and only the logged executor is read: a
    /// block pinned through its insert's pass drops at the pass after
    /// its release, and a pass after no change reads no BlockManager.
    #[test]
    fn drop_pass_reads_only_the_logged_executors() {
        let mut p = RefProfile::default();
        let mut bms: BlockManagers = (0..3)
            .map(|_| BlockManager::new(100.0, Box::new(DropAllTest)))
            .collect();
        let mut pass = DropPass::default();
        let (e, b) = (ExecId(1), blk(0, 0));
        assert!(matches!(
            bms.try_insert(e, b, 10.0, 0, &p),
            InsertOutcome::Inserted { .. }
        ));
        bms[1].pin(b);
        bms[1].pin(b);
        assert_eq!(drop_pass(&mut pass, &mut bms, &mut p), (vec![], 1));
        assert_eq!(drop_pass(&mut pass, &mut bms, &mut p), (vec![], 0));
        // The first release leaves a pin: nothing becomes evictable.
        bms.unpin(e, b);
        assert_eq!(drop_pass(&mut pass, &mut bms, &mut p), (vec![], 0));
        bms.unpin(e, b);
        let last = drop_pass(&mut pass, &mut bms, &mut p);
        #[cfg(debug_assertions)]
        for i in 0..bms.len() {
            assert!(bms[i].check_sweep_idle(&p), "victim left on exec {i}");
        }
        assert_eq!(last, (vec![(1, b)], 1));
        assert_eq!(drop_pass(&mut pass, &mut bms, &mut p), (vec![], 0));
    }

    /// Evicts the block with the smallest scrambled id, and refuses when
    /// the incoming block's scrambled id is smaller still: keyed choices
    /// and refusals independent of the candidate order.
    struct KeyedTest;
    fn scramble(b: BlockId) -> u64 {
        (u64::from(b.rdd.0) << 32 | u64::from(b.partition)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7
    }
    impl CachePolicy for KeyedTest {
        fn policy_name(&self) -> &'static str {
            "keyed-test"
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            let v = c.iter().copied().min_by_key(|&b| (scramble(b), b))?;
            match i {
                Some(i) if scramble(i) < scramble(v) => None,
                _ => Some(v),
            }
        }
    }

    /// The BlockManager before the maintained list: eviction candidates
    /// rebuilt from the resident and pinned maps on every iteration.
    struct RebuildModel {
        capacity_mb: f64,
        used_mb: f64,
        resident: BTreeMap<BlockId, f64>,
        pinned: BTreeMap<BlockId, u32>,
        policy: KeyedTest,
    }

    impl RebuildModel {
        fn evictable(&self) -> Vec<BlockId> {
            self.resident
                .keys()
                .filter(|b| !self.pinned.contains_key(b))
                .copied()
                .collect()
        }

        fn drop_block(&mut self, b: BlockId) {
            if let Some(mb) = self.resident.remove(&b) {
                self.used_mb -= mb;
                self.pinned.remove(&b);
            }
        }

        fn try_insert(&mut self, b: BlockId, mb: f64, p: &RefProfile) -> InsertOutcome {
            if self.resident.contains_key(&b) {
                return InsertOutcome::AlreadyCached;
            }
            if mb > self.capacity_mb {
                return InsertOutcome::Rejected { evicted: vec![] };
            }
            let mut evicted = Vec::new();
            while self.used_mb + mb > self.capacity_mb + 1e-9 {
                let candidates = self.evictable();
                let Some(v) = self.policy.victim(&candidates, Some(b), p) else {
                    return InsertOutcome::Rejected { evicted };
                };
                self.drop_block(v);
                evicted.push(v);
            }
            self.resident.insert(b, mb);
            self.used_mb += mb;
            InsertOutcome::Inserted { evicted }
        }
    }

    /// One generated BlockManager call on block `b` of a 12-block pool.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Insert { b: u32, mb: u32 },
        Pin { b: u32 },
        Unpin { b: u32 },
        Invalidate { b: u32 },
        CrashClear,
    }

    /// Weighted step kinds: insert 4 / pin 3 / unpin 3 / invalidate 1 /
    /// crash 1 (out of 12 draws).
    fn step_strategy() -> impl Strategy<Value = Step> {
        (0u32..12, 0u32..12, 1u32..5).prop_map(|(kind, b, mb)| match kind {
            0..=3 => Step::Insert { b, mb: mb * 15 },
            4..=6 => Step::Pin { b },
            7..=9 => Step::Unpin { b },
            10 => Step::Invalidate { b },
            _ => Step::CrashClear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every step of a random insert / pin / unpin /
        /// invalidate / crash history, the maintained evictable list
        /// equals the from-scratch one, and every `try_insert` evicts
        /// and answers exactly as the rebuild-per-eviction model does.
        #[test]
        fn unpinned_list_matches_rebuilt_evictable_set(
            steps in proptest::collection::vec(step_strategy(), 1..150),
        ) {
            let p = RefProfile::default();
            let mut bm = BlockManager::new(100.0, Box::new(KeyedTest));
            let mut model = RebuildModel {
                capacity_mb: 100.0,
                used_mb: 0.0,
                resident: BTreeMap::new(),
                pinned: BTreeMap::new(),
                policy: KeyedTest,
            };
            for (t, &step) in steps.iter().enumerate() {
                match step {
                    Step::Insert { b, mb } => {
                        let b = blk(0, b);
                        let got = bm.try_insert(b, f64::from(mb), t as u64, &p);
                        let want = model.try_insert(b, f64::from(mb), &p);
                        prop_assert_eq!(got, want, "insert at step {}", t);
                    }
                    Step::Pin { b } => {
                        bm.pin(blk(0, b));
                        if model.resident.contains_key(&blk(0, b)) {
                            *model.pinned.entry(blk(0, b)).or_insert(0) += 1;
                        }
                    }
                    Step::Unpin { b } => {
                        bm.unpin(blk(0, b));
                        if let Some(c) = model.pinned.get_mut(&blk(0, b)) {
                            *c -= 1;
                            if *c == 0 {
                                model.pinned.remove(&blk(0, b));
                            }
                        }
                    }
                    Step::Invalidate { b } => {
                        bm.invalidate(blk(0, b));
                        model.drop_block(blk(0, b));
                    }
                    Step::CrashClear => {
                        bm.crash_clear();
                        model.resident.clear();
                        model.pinned.clear();
                        model.used_mb = 0.0;
                    }
                }
                prop_assert_eq!(&bm.unpinned, &bm.evictable(), "step {} ({:?})", t, step);
                prop_assert_eq!(&bm.unpinned, &model.evictable(), "step {} ({:?})", t, step);
            }
        }
    }
}
