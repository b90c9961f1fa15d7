//! The BlockManagerMaster's *reference profile*: for every block, which
//! not-yet-finished work still reads it, at what FIFO distance, and at what
//! stage priority. LRC, MRD and LRP are all simple functions of this one
//! structure; LRU ignores it.

// Frontier stage ids from `num_stages()`: bounded by DAG construction.
#![allow(clippy::cast_possible_truncation)]

use dagon_dag::{BlockId, DepKind, JobDag, RddId, StageId};

use crate::prefetch::FlipSet;

/// One future use of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRef {
    /// The stage whose unfinished task will read the block.
    pub stage: StageId,
}

/// One block's slot in the [`RefProfile`] arena: `len` live entries at
/// `start`, room for `cap`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Per-block future-use registry plus the scheduler-facing stage state the
/// DAG-aware cache policies key off.
#[derive(Clone, Debug, Default)]
pub struct RefProfile {
    /// Remaining reads of every block, in one arena: block `i`'s entries
    /// are `refs[spans[i].start..][..spans[i].len]`, one per *unfinished
    /// reading task* (so LRC's reference count falls as tasks finish, and
    /// a block whose readers all completed ends up empty — Fig. 6's
    /// deletion). Contiguous slices make `is_live`/`lrp_key`/`mrd_distance`
    /// one index plus one short walk, with no per-block allocation.
    refs: Vec<StageRef>,
    /// Each block's slice of `refs`, dense-indexed by
    /// `offsets[rdd] + partition`.
    spans: Vec<Span>,
    /// Flat-index base per RDD id (parallel to the DAG's RDD table).
    offsets: Vec<u32>,
    /// Partition count per RDD id, bounding each RDD's flat range.
    counts: Vec<u32>,
    /// Lowest incomplete stage id — MRD's "currently executing stage"
    /// cursor under FIFO order.
    frontier: u32,
    /// Current priority value `pv_i` per stage (Eq. 6), indexed by stage.
    pv: Vec<u64>,
    /// Flat ids of the blocks whose use list changed since the last
    /// [`drain_changes`](Self::drain_changes), with repeats.
    changed: Vec<u32>,
    /// Stages whose `pv` reached or left zero since the last drain, with
    /// repeats.
    crossed: Vec<StageId>,
    /// A `rebuild` ran since the last drain: every block may have
    /// changed.
    rebuilt: bool,
    /// Flat ids of the blocks whose liveness flipped (use list emptied
    /// or refilled) since the last
    /// [`drain_live_flips`](Self::drain_live_flips). Empty (recording
    /// nothing) until [`watch_liveness`](Self::watch_liveness).
    live_flips: FlipSet,
}

impl RefProfile {
    /// An empty profile carrying the given per-stage priority values.
    pub fn with_pv(pv: Vec<u64>) -> Self {
        Self {
            pv,
            ..Self::default()
        }
    }

    /// Set stage `s`'s priority value, recording the stage when it
    /// crosses zero.
    pub fn set_pv(&mut self, s: StageId, pv: u64) {
        let slot = &mut self.pv[s.index()];
        if (*slot == 0) != (pv == 0) {
            self.crossed.push(s);
        }
        *slot = pv;
    }

    /// Move MRD's FIFO frontier.
    pub fn set_frontier(&mut self, frontier: u32) {
        self.frontier = frontier;
    }

    /// Flat index of `b`, or `None` for blocks outside the profiled DAG
    /// (possible before the first `rebuild`, or for foreign test blocks) —
    /// those have no recorded uses by definition.
    #[inline]
    fn idx(&self, b: BlockId) -> Option<usize> {
        let r = b.rdd.index();
        if r >= self.counts.len() || b.partition >= self.counts[r] {
            return None;
        }
        Some(self.offsets[r] as usize + b.partition as usize)
    }

    #[inline]
    fn get(&self, b: BlockId) -> Option<&[StageRef]> {
        self.idx(b).map(|i| {
            let sp = self.spans[i];
            &self.refs[sp.start as usize..][..sp.len as usize]
        })
    }

    /// The block at flat index `i` (inverse of `idx`).
    fn block_at(&self, i: u32) -> BlockId {
        // Offsets are non-decreasing; the last RDD starting at or before
        // `i` is the one with a non-empty range holding it.
        let r = self.offsets.partition_point(|&o| o <= i) - 1;
        BlockId::new(RddId(r as u32), i - self.offsets[r])
    }

    /// Drain the drop-standing change stream: the blocks whose use list
    /// changed, ascending and without repeats, into `blocks`, and the
    /// stages whose `pv` reached or left zero, ascending and without
    /// repeats, into `stages` (both cleared first). Returns `true` when a
    /// `rebuild` ran since the last drain, so every block may have
    /// changed.
    pub(crate) fn drain_changes(
        &mut self,
        blocks: &mut Vec<BlockId>,
        stages: &mut Vec<StageId>,
    ) -> bool {
        self.changed.sort_unstable();
        self.changed.dedup();
        blocks.clear();
        blocks.extend(self.changed.iter().map(|&i| self.block_at(i)));
        self.changed.clear();
        self.crossed.sort_unstable();
        self.crossed.dedup();
        stages.clear();
        stages.append(&mut self.crossed);
        std::mem::take(&mut self.rebuilt)
    }

    /// Start recording liveness flips for
    /// [`drain_live_flips`](Self::drain_live_flips). A later `rebuild`
    /// is not recorded: call this after the last one.
    pub(crate) fn watch_liveness(&mut self) {
        self.live_flips = FlipSet::new(self.spans.len());
    }

    /// Hand every block whose liveness flipped since the last drain to
    /// `f`, once each and ascending (a block that died and came back is
    /// reported too). `f` sees the profile.
    pub(crate) fn drain_live_flips(&mut self, mut f: impl FnMut(&Self, BlockId)) {
        let mut flips = std::mem::take(&mut self.live_flips);
        flips.drain(|i| f(self, self.block_at(i as u32)));
        self.live_flips = flips;
    }

    /// Is a liveness flip waiting for
    /// [`drain_live_flips`](Self::drain_live_flips)?
    #[cfg(debug_assertions)]
    pub(crate) fn has_live_flips(&self) -> bool {
        !self.live_flips.is_empty()
    }

    /// Is any change waiting for [`drain_changes`](Self::drain_changes)?
    #[cfg(debug_assertions)]
    pub(crate) fn has_changes(&self) -> bool {
        self.rebuilt || !self.changed.is_empty() || !self.crossed.is_empty()
    }

    /// Rebuild the use map from scratch.
    ///
    /// * `task_done(stage, index)` — has that task finished?
    /// * `stage_done(stage)` — has the whole stage finished?
    pub fn rebuild(
        &mut self,
        dag: &JobDag,
        task_done: &dyn Fn(StageId, u32) -> bool,
        stage_done: &dyn Fn(StageId) -> bool,
    ) {
        // (Re)derive the dense layout from the DAG's RDD table; partition
        // counts are fixed at DAG construction, so the layout is stable
        // across rebuilds of the same job.
        self.offsets.clear();
        self.counts.clear();
        let mut total = 0u32;
        for r in dag.rdds() {
            self.offsets.push(total);
            self.counts.push(r.num_partitions);
            total += r.num_partitions;
        }
        // Two passes over the same walk: count each block's uses to lay
        // out the arena, then fill it in the same push order.
        self.spans.clear();
        self.spans.resize(total as usize, Span::default());
        for_each_use(dag, &self.offsets, task_done, stage_done, |i, _| {
            self.spans[i].cap += 1;
        });
        let mut start = 0u32;
        for sp in &mut self.spans {
            sp.start = start;
            start += sp.cap;
        }
        self.refs.clear();
        self.refs
            .resize(start as usize, StageRef { stage: StageId(0) });
        for_each_use(dag, &self.offsets, task_done, stage_done, |i, stage| {
            let sp = &mut self.spans[i];
            self.refs[(sp.start + sp.len) as usize] = StageRef { stage };
            sp.len += 1;
        });
        self.frontier = dag
            .stage_ids()
            .find(|s| !stage_done(*s))
            .map(|s| s.0)
            .unwrap_or(dag.num_stages() as u32);
        self.changed.clear();
        self.rebuilt = true;
    }

    /// LRC's reference count: remaining unfinished reads.
    pub fn lrc_count(&self, b: BlockId) -> u32 {
        self.idx(b).map_or(0, |i| self.spans[i].len)
    }

    /// MRD's stage reference distance: how many stage ids ahead of the FIFO
    /// frontier the *nearest* future use is. `None` = never used again
    /// (infinitely far; evict first, never prefetch).
    pub fn mrd_distance(&self, b: BlockId) -> Option<u32> {
        self.get(b)?
            .iter()
            .map(|r| r.stage.0.saturating_sub(self.frontier))
            .min()
    }

    /// LRP's reference priority (Def. 1): the highest `pv` among stages
    /// still reading the block; 0 when no future use remains.
    pub fn lrp_priority(&self, b: BlockId) -> u64 {
        self.lrp_key(b).0
    }

    /// `(lrp_priority(b), lrc_count(b))` from one walk of the use list:
    /// LRP's eviction key, priority first and remaining reads as the
    /// tie-break.
    pub fn lrp_key(&self, b: BlockId) -> (u64, u32) {
        self.get(b).map_or((0, 0), |v| {
            let max = v
                .iter()
                .map(|r| self.pv.get(r.stage.index()).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            (max, v.len() as u32)
        })
    }

    /// Remove one use entry of `stage` for block `b` (incremental update
    /// when the reading task finishes — avoids full rebuilds in the hot
    /// path), recording the block in the change stream.
    pub fn remove_use(&mut self, b: BlockId, stage: StageId) {
        if let Some(i) = self.idx(b) {
            let sp = &mut self.spans[i];
            let slot = &mut self.refs[sp.start as usize..][..sp.len as usize];
            if let Some(pos) = slot.iter().position(|r| r.stage == stage) {
                // `swap_remove`: the last entry fills the hole.
                slot[pos] = slot[slot.len() - 1];
                sp.len -= 1;
                self.changed.push(i as u32);
                if sp.len == 0 {
                    self.live_flips.insert(i);
                }
            }
        }
    }

    /// Re-add one use entry of `stage` for block `b` — the inverse of
    /// [`remove_use`](Self::remove_use), for lineage recovery resubmitting
    /// a finished task whose reads come back. Blocks outside the profiled
    /// DAG (no `rebuild` yet) are ignored, matching the lookup side.
    pub fn add_use(&mut self, b: BlockId, stage: StageId) {
        if let Some(i) = self.idx(b) {
            let sp = &mut self.spans[i];
            if sp.len == sp.cap {
                // Full: move the slot to the arena's end with doubled
                // room. The old slot is left behind unused.
                let start = self.refs.len();
                let live = sp.start as usize..(sp.start + sp.len) as usize;
                self.refs.extend_from_within(live);
                sp.cap = (sp.cap * 2).max(1);
                self.refs
                    .resize(start + sp.cap as usize, StageRef { stage: StageId(0) });
                sp.start = start as u32;
            }
            self.refs[(sp.start + sp.len) as usize] = StageRef { stage };
            sp.len += 1;
            self.changed.push(i as u32);
            if sp.len == 1 {
                self.live_flips.insert(i);
            }
        }
    }

    /// Does any future use remain?
    pub fn is_live(&self, b: BlockId) -> bool {
        self.lrc_count(b) > 0
    }

    /// Stages that still read the block.
    pub fn using_stages(&self, b: BlockId) -> Vec<StageId> {
        self.get(b)
            .map(|v| v.iter().map(|r| r.stage).collect())
            .unwrap_or_default()
    }
}

/// Walk the future uses of `dag`'s unfinished work in push order, calling
/// `f(flat block index, reading stage)` once per use: for each unfinished
/// stage, each input, each unfinished task reading a block of it.
fn for_each_use(
    dag: &JobDag,
    offsets: &[u32],
    task_done: &dyn Fn(StageId, u32) -> bool,
    stage_done: &dyn Fn(StageId) -> bool,
    mut f: impl FnMut(usize, StageId),
) {
    for stage in dag.stages() {
        if stage_done(stage.id) {
            continue;
        }
        for input in &stage.inputs {
            let rdd = dag.rdd(input.rdd);
            let base = offsets[rdd.id.index()] as usize;
            match input.kind {
                DepKind::Narrow => {
                    for k in 0..stage.num_tasks {
                        if !task_done(stage.id, k) {
                            f(base + k as usize, stage.id);
                        }
                    }
                }
                DepKind::Wide => {
                    // Block j is read by task j % num_tasks (the
                    // simulator's round-robin shuffle split).
                    for j in 0..rdd.num_partitions {
                        if !task_done(stage.id, j % stage.num_tasks) {
                            f(base + j as usize, stage.id);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::{PriorityTracker, RddId, MIN_MS};

    fn profile_at_start() -> (dagon_dag::JobDag, RefProfile) {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut p = RefProfile::with_pv(dag.stage_ids().map(|s| tracker.pv(s)).collect());
        p.rebuild(&dag, &|_, _| false, &|_| false);
        (dag, p)
    }

    #[test]
    fn change_stream_records_use_changes_and_pv_crossings() {
        let (dag, mut p) = profile_at_start();
        let (mut blocks, mut stages) = (Vec::new(), Vec::new());
        assert!(p.drain_changes(&mut blocks, &mut stages), "rebuild");
        assert!(!p.drain_changes(&mut blocks, &mut stages));
        assert!(blocks.is_empty() && stages.is_empty());

        let (a0, d2) = (BlockId::new(RddId(0), 0), BlockId::new(RddId(3), 2));
        p.remove_use(d2, StageId(2));
        p.remove_use(a0, StageId(0));
        p.add_use(a0, StageId(0));
        p.remove_use(a0, StageId(4)); // no such use: no record
        let pv1 = p.pv[1];
        p.set_pv(StageId(1), pv1 + 1); // stays non-zero: no record
        p.set_pv(StageId(3), 0);
        p.set_pv(StageId(1), 0);
        p.set_pv(StageId(3), 5); // back above zero: recorded again
        assert!(!p.drain_changes(&mut blocks, &mut stages));
        assert_eq!(blocks, vec![a0, d2], "ascending, no repeats");
        assert_eq!(stages, vec![StageId(1), StageId(3)]);
        assert!(!p.drain_changes(&mut blocks, &mut stages));
        assert!(blocks.is_empty() && stages.is_empty());

        p.rebuild(&dag, &|_, _| false, &|_| false);
        assert!(p.drain_changes(&mut blocks, &mut stages));
    }

    #[test]
    fn live_flips_record_deaths_and_revivals_once() {
        let (_, mut p) = profile_at_start();
        let drain = |p: &mut RefProfile| {
            let mut got = Vec::new();
            p.drain_live_flips(|_, b| got.push(b));
            got
        };
        // A0 and C0 are each read once (by S0 and S1); D2 once, by S2.
        let (a0, c0, d2) = (
            BlockId::new(RddId(0), 0),
            BlockId::new(RddId(1), 0),
            BlockId::new(RddId(3), 2),
        );
        p.remove_use(a0, StageId(0)); // not watching yet
        assert!(drain(&mut p).is_empty());
        p.watch_liveness();
        p.remove_use(d2, StageId(2)); // dies
        p.remove_use(c0, StageId(1)); // dies ...
        p.add_use(c0, StageId(1)); // ... and comes back
        p.add_use(c0, StageId(1)); // already live: no flip
        p.add_use(a0, StageId(0)); // revived
        assert_eq!(drain(&mut p), vec![a0, c0, d2], "once each, ascending");
        p.remove_use(c0, StageId(1)); // one use left: no flip
        assert!(drain(&mut p).is_empty());
    }

    #[test]
    fn fig1_initial_reference_counts() {
        let (_, p) = profile_at_start();
        // A1 read once (stage1 task 0), narrow.
        assert_eq!(p.lrc_count(BlockId::new(RddId(0), 0)), 1);
        // B blocks (rdd 2 = stage1 output) each read once by stage 4's task.
        assert_eq!(p.lrc_count(BlockId::new(RddId(2), 0)), 1);
        assert!(p.is_live(BlockId::new(RddId(2), 1)));
        // Unknown block: zero.
        assert_eq!(p.lrc_count(BlockId::new(RddId(9), 0)), 0);
        assert!(!p.is_live(BlockId::new(RddId(9), 0)));
    }

    #[test]
    fn fig1_mrd_distances_follow_stage_ids() {
        let (_, p) = profile_at_start();
        assert_eq!(p.frontier, 0);
        // A (rdd 0) used by stage S0: distance 0.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(0), 0)), Some(0));
        // C (rdd 1) used by S1: distance 1.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(1), 2)), Some(1));
        // B (rdd 2) used by S3: distance 3.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(2), 0)), Some(3));
        // D (rdd 3 = stage2 output) used by S2: distance 2.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(3), 0)), Some(2));
        // F (final output) never read.
        let f = BlockId::new(RddId(5), 0);
        assert_eq!(p.mrd_distance(f), None);
    }

    #[test]
    fn fig1_lrp_priorities_use_highest_pv() {
        let (_, p) = profile_at_start();
        // B blocks are read by stage4 (pv = 4): priority 4 vCPU-min.
        assert_eq!(p.lrp_priority(BlockId::new(RddId(2), 0)) / MIN_MS, 4);
        // C blocks read by stage2 (pv = 64).
        assert_eq!(p.lrp_priority(BlockId::new(RddId(1), 0)) / MIN_MS, 64);
        // A blocks read by stage1 (pv = 52).
        assert_eq!(p.lrp_priority(BlockId::new(RddId(0), 0)) / MIN_MS, 52);
        // Dead block → 0.
        assert_eq!(p.lrp_priority(BlockId::new(RddId(5), 0)), 0);
    }

    #[test]
    fn completing_tasks_and_stages_removes_uses() {
        let (dag, mut p) = profile_at_start();
        // Stage1 (S0) finished entirely: A blocks dead, frontier advances.
        p.rebuild(&dag, &|s, _| s == StageId(0), &|s| s == StageId(0));
        assert!(!p.is_live(BlockId::new(RddId(0), 0)));
        assert_eq!(p.frontier, 1);
        // B still live (stage4 not done).
        assert!(p.is_live(BlockId::new(RddId(2), 0)));
        // Now also finish stage4's single task: B dead.
        p.rebuild(&dag, &|s, _| s == StageId(0) || s == StageId(3), &|s| {
            s == StageId(0) || s == StageId(3)
        });
        assert!(!p.is_live(BlockId::new(RddId(2), 0)));
    }

    #[test]
    fn wide_use_multiplicity_tracks_assigned_tasks() {
        let (dag, mut p) = profile_at_start();
        // D (rdd 3) has 3 blocks read by S2's 2 tasks: block j read by task
        // j % 2. Finish task 0 of S2 → blocks 0 and 2 lose their use.
        p.rebuild(&dag, &|s, k| s == StageId(2) && k == 0, &|_| false);
        assert!(!p.is_live(BlockId::new(RddId(3), 0)));
        assert!(p.is_live(BlockId::new(RddId(3), 1)));
        assert!(!p.is_live(BlockId::new(RddId(3), 2)));
    }

    #[test]
    fn using_stages_lists_consumers() {
        let (_, p) = profile_at_start();
        assert_eq!(p.using_stages(BlockId::new(RddId(2), 0)), vec![StageId(3)]);
    }
}

/// The arena against the representation it replaced: one `Vec` of uses
/// per block, filled and edited exactly as the arena's push and
/// `swap_remove` order promises.
#[cfg(test)]
mod props {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use dagon_dag::generate::{random_dag, GenParams};
    use proptest::prelude::*;

    /// One generated change. Indices are reduced modulo the fixture's
    /// sizes; block index `blocks.len()` is a block outside the DAG.
    #[derive(Clone, Debug)]
    enum Step {
        /// `rebuild` with task and stage completion drawn from `seed`.
        Rebuild {
            seed: u64,
        },
        RemoveUse {
            b: usize,
            s: usize,
        },
        /// Often a stage that already reads `b`, so lists outgrow their
        /// rebuild-time length and the slot relocates.
        AddUse {
            b: usize,
            s: usize,
        },
        SetPv {
            s: usize,
            pv: u64,
        },
        SetFrontier {
            f: u32,
        },
        Drain,
    }

    /// Weighted step kinds: rebuild 1 / remove 3 / add 4 / pv 2 /
    /// frontier 1 / drain 2.
    fn step_strategy() -> impl Strategy<Value = Step> {
        (0usize..13, 0usize..64, 0usize..64, 0u64..4).prop_map(|(kind, x, y, v)| match kind {
            0 => Step::Rebuild { seed: x as u64 },
            1..=3 => Step::RemoveUse { b: x, s: y },
            4..=7 => Step::AddUse { b: x, s: y },
            8..=9 => Step::SetPv {
                s: y,
                pv: if v < 2 { 0 } else { v * 1_000 },
            },
            10 => Step::SetFrontier { f: (y % 8) as u32 },
            _ => Step::Drain,
        })
    }

    fn mix(a: u64, b: u64) -> u64 {
        (a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 29
    }

    /// The old `Vec<Vec<StageRef>>` profile, keyed by block.
    #[derive(Default)]
    struct Model {
        uses: BTreeMap<BlockId, Vec<StageRef>>,
        pv: Vec<u64>,
        frontier: u32,
        changed: BTreeSet<BlockId>,
        crossed: BTreeSet<StageId>,
        rebuilt: bool,
    }

    impl Model {
        fn rebuild(
            &mut self,
            dag: &JobDag,
            task_done: &dyn Fn(StageId, u32) -> bool,
            stage_done: &dyn Fn(StageId) -> bool,
        ) {
            self.uses = dag
                .rdds()
                .iter()
                .flat_map(|r| r.blocks())
                .map(|b| (b, Vec::new()))
                .collect();
            for stage in dag.stages() {
                if stage_done(stage.id) {
                    continue;
                }
                for input in &stage.inputs {
                    let rdd = dag.rdd(input.rdd);
                    for j in 0..rdd.num_partitions {
                        let k = match input.kind {
                            DepKind::Narrow if j < stage.num_tasks => j,
                            DepKind::Narrow => continue,
                            DepKind::Wide => j % stage.num_tasks,
                        };
                        if !task_done(stage.id, k) {
                            let uses = self.uses.get_mut(&BlockId::new(rdd.id, j)).unwrap();
                            uses.push(StageRef { stage: stage.id });
                        }
                    }
                }
            }
            self.frontier = dag
                .stage_ids()
                .find(|s| !stage_done(*s))
                .map_or(dag.num_stages() as u32, |s| s.0);
            self.changed.clear();
            self.rebuilt = true;
        }

        fn uses(&self, b: BlockId) -> &[StageRef] {
            self.uses.get(&b).map_or(&[], Vec::as_slice)
        }

        fn lrp_priority(&self, b: BlockId) -> u64 {
            self.uses(b)
                .iter()
                .map(|r| self.pv[r.stage.index()])
                .max()
                .unwrap_or(0)
        }

        fn mrd_distance(&self, b: BlockId) -> Option<u32> {
            self.uses(b)
                .iter()
                .map(|r| r.stage.0.saturating_sub(self.frontier))
                .min()
        }
    }

    /// Replay `steps` on the arena and the model side by side, comparing
    /// every lookup on every block (and one foreign block) after each.
    fn check_history(dag: &JobDag, steps: &[Step]) {
        let mut blocks: Vec<BlockId> = dag.rdds().iter().flat_map(|r| r.blocks()).collect();
        blocks.push(BlockId::new(RddId(dag.rdds().len() as u32 + 1), 0));
        let n = dag.num_stages();
        let pv: Vec<u64> = (0..n as u64).map(|s| 1_000 * (s % 3)).collect();
        let mut p = RefProfile::with_pv(pv.clone());
        let mut m = Model {
            pv,
            ..Model::default()
        };
        p.rebuild(dag, &|_, _| false, &|_| false);
        m.rebuild(dag, &|_, _| false, &|_| false);
        let (mut got_b, mut got_s) = (Vec::new(), Vec::new());
        for (t, step) in steps.iter().enumerate() {
            match *step {
                Step::Rebuild { seed } => {
                    let task_done = |s: StageId, k: u32| {
                        mix(seed, u64::from(s.0) << 32 | u64::from(k)).is_multiple_of(3)
                    };
                    let stage_done =
                        |s: StageId| mix(seed ^ 0xff, u64::from(s.0)).is_multiple_of(4);
                    p.rebuild(dag, &task_done, &stage_done);
                    m.rebuild(dag, &task_done, &stage_done);
                }
                Step::RemoveUse { b, s } => {
                    let (b, s) = (blocks[b % blocks.len()], StageId((s % n) as u32));
                    p.remove_use(b, s);
                    if let Some(v) = m.uses.get_mut(&b) {
                        if let Some(pos) = v.iter().position(|r| r.stage == s) {
                            v.swap_remove(pos);
                            m.changed.insert(b);
                        }
                    }
                }
                Step::AddUse { b, s } => {
                    let b = blocks[b % blocks.len()];
                    // Half the time, another use by a stage already
                    // reading `b`.
                    let s = match m.uses(b) {
                        v if !v.is_empty() && s % 2 == 0 => v[s / 2 % v.len()].stage,
                        _ => StageId((s % n) as u32),
                    };
                    p.add_use(b, s);
                    if let Some(v) = m.uses.get_mut(&b) {
                        v.push(StageRef { stage: s });
                        m.changed.insert(b);
                    }
                }
                Step::SetPv { s, pv } => {
                    let s = StageId((s % n) as u32);
                    p.set_pv(s, pv);
                    let old = std::mem::replace(&mut m.pv[s.index()], pv);
                    if (old == 0) != (pv == 0) {
                        m.crossed.insert(s);
                    }
                }
                Step::SetFrontier { f } => {
                    p.set_frontier(f);
                    m.frontier = f;
                }
                Step::Drain => {
                    let rebuilt = p.drain_changes(&mut got_b, &mut got_s);
                    assert_eq!(rebuilt, std::mem::take(&mut m.rebuilt), "step {t}");
                    let want_b: Vec<BlockId> = std::mem::take(&mut m.changed).into_iter().collect();
                    let want_s: Vec<StageId> = std::mem::take(&mut m.crossed).into_iter().collect();
                    assert_eq!((&got_b, &got_s), (&want_b, &want_s), "step {t}");
                }
            }
            for &b in &blocks {
                let uses = m.uses(b);
                let ctx = format!("block {b:?} after step {t} ({step:?})");
                assert_eq!(p.lrc_count(b), uses.len() as u32, "{ctx}");
                assert_eq!(p.is_live(b), !uses.is_empty(), "{ctx}");
                assert_eq!(p.lrp_priority(b), m.lrp_priority(b), "{ctx}");
                assert_eq!(
                    p.lrp_key(b),
                    (m.lrp_priority(b), uses.len() as u32),
                    "{ctx}"
                );
                assert_eq!(p.mrd_distance(b), m.mrd_distance(b), "{ctx}");
                let stages: Vec<StageId> = uses.iter().map(|r| r.stage).collect();
                assert_eq!(p.using_stages(b), stages, "{ctx}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every step of a random history of rebuilds, use
        /// removals and re-adds (past the rebuild-time length), pv and
        /// frontier moves and drains, every lookup, the use order and
        /// the change stream match the per-block `Vec` model.
        #[test]
        fn arena_matches_per_block_vecs(
            seed in 0u64..1_000,
            steps in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            let params = GenParams { stages: 5, tasks: (1, 4), ..Default::default() };
            check_history(&random_dag(&params, seed), &steps);
        }
    }

    #[test]
    fn add_use_past_capacity_relocates_the_slot() {
        let dag = dagon_dag::examples::fig1();
        let mut p = RefProfile::with_pv(vec![7; dag.num_stages()]);
        p.rebuild(&dag, &|_, _| false, &|_| false);
        let b = BlockId::new(RddId(2), 0);
        assert_eq!(p.using_stages(b), vec![StageId(3)]);
        let len0 = p.refs.len();
        for s in [0, 1, 2, 4] {
            p.add_use(b, StageId(s));
        }
        assert!(p.refs.len() > len0, "the slot moved to the arena's end");
        let stages = [3, 0, 1, 2, 4].map(StageId).to_vec();
        assert_eq!(p.using_stages(b), stages);
        assert_eq!(p.lrp_key(b), (7, 5));
        p.remove_use(b, StageId(3));
        assert_eq!(p.using_stages(b), [4, 0, 1, 2].map(StageId).to_vec());
    }
}
