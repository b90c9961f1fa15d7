//! [`LocalityIndex`]: incremental block-residency index for the scheduler
//! fast path.
//!
//! The sequential scheduler recomputed every task's locality on every
//! query by scanning [`DataMap`]'s per-block hash entries and walking the
//! topology — O(blocks × execs) per task per query, repeated for every
//! pending task of every ready stage on every scheduling round. This
//! module replaces those scans with:
//!
//! * **dense bitsets** summarizing residency: one cached-executors row and
//!   one disk-nodes row of `u64` words per block, indexed by a flat block
//!   id (per-RDD offsets). Node and rack membership tests become masked
//!   word tests because [`crate::topology::Topology::build`] assigns node
//!   ids contiguously per rack and executor ids contiguously per node. A
//!   task's level on an executor is the max over its locality blocks of
//!   a few such tests, derived on demand: nothing per task is memoized
//!   (`DESIGN.md` §20);
//! * a **per-stage valid-levels fold**: per-level counts of the pending
//!   tasks' contribution masks, maintained from the pending-churn and
//!   residency-flip deltas, so Spark's `computeValidLocalityLevels` costs
//!   O(changed since the last query) instead of a walk over pending;
//! * an **inverted pending-work index**: for every (live stage, sub-ANY
//!   locality level, executor), the number of *pending* tasks that would
//!   run at exactly that level there, plus a strict variant counting only
//!   tasks whose best-anywhere level *is* that level. A stage is *live*
//!   exactly while it sits on the view's ready list (the simulator flips
//!   it through [`set_stage_live`](LocalityIndex::set_stage_live) from the
//!   one place that maintains that list): activation inserts the stage's
//!   authoritative pending tasks, deactivation clears its counts and frees
//!   its scan and contribution memos. Within a live stage the index is
//!   maintained eagerly — the simulator mirrors every pending-set
//!   pop/insert via
//!   [`on_pending_removed`](LocalityIndex::on_pending_removed) /
//!   [`on_pending_inserted`](LocalityIndex::on_pending_inserted), and the
//!   residency mutators diff the affected *live* readers' levels across
//!   the one rack a single-block flip can re-level. Placement consults the
//!   counts ([`pending_level_count`](LocalityIndex::pending_level_count),
//!   [`pending_strict_count`](LocalityIndex::pending_strict_count)) to
//!   skip probing executors with provably no work at a level; the counts
//!   are claims-blind, which keeps the gate *conservative and exact* —
//!   see `DESIGN.md` §14 for the order-preservation argument and §18 for
//!   why indexing only live stages is schedule-neutral.
//!
//! Residency itself lives only in the bitsets: the index is built from a
//! [`DataMap`] placement and from then on every change arrives through
//! its four mutators ([`add_disk`](LocalityIndex::add_disk),
//! [`remove_disk`](LocalityIndex::remove_disk),
//! [`add_cached`](LocalityIndex::add_cached),
//! [`remove_cached`](LocalityIndex::remove_cached)); membership reads
//! ([`on_disk_at`](LocalityIndex::on_disk_at),
//! [`is_cached_in`](LocalityIndex::is_cached_in), …) are bit tests. Each
//! mutation that changes a bit advances the global
//! [`generation`](LocalityIndex::generation). The unit tests and property
//! tests cross-check it against a shadow `DataMap` fed the same mutations.

// Packed u8 rack codes and u32 flat ids: counts are bounded by cluster
// size (execs, nodes, racks) and per-RDD block counts, all far below the
// target types' range by construction.
#![allow(clippy::cast_possible_truncation)]

use std::cell::{Cell, RefCell};

use dagon_dag::{BlockId, JobDag};

use crate::config::ReadTier;
use crate::hdfs::DataMap;
use crate::locality::Locality;
use crate::pending::PendingSet;
use crate::topology::{ExecId, NodeId, Topology};
use crate::view::TaskView;

/// Scheduler-overhead counters the index maintains (interior mutability:
/// queries run through the shared [`crate::view::SimView`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Locality lookups answered (task/block level queries).
    pub locality_queries: u64,
    /// Residency mutations that changed a bit (the index generation).
    pub invalidations: u64,
    /// Valid-locality-ladder recomputations (per stage per round).
    pub valid_level_rebuilds: u64,
    /// Placement scan/valid-level memo hits.
    pub score_cache_hits: u64,
    /// Placement scan/valid-level memo misses (rescans).
    pub score_cache_misses: u64,
    /// Memo entries discarded by generation/pending-version changes.
    pub score_cache_invalidations: u64,
    /// Inverted-index gates that answered "no work here" (probe skipped).
    pub inv_index_hits: u64,
    /// Incremental inverted-index maintenance operations: pending-set
    /// mirror events and per-reader residency diffs on live stages, plus
    /// one per stage liveness flip.
    pub inv_index_updates: u64,
    /// From-scratch inverted-index builds. Must stay 1 (the initial build
    /// in [`LocalityIndex::new`]), like `ready_list_rebuilds`.
    pub inv_index_rebuilds: u64,
}

/// `Locality::Any` as the packed `u8` the index stores levels in.
const L_ANY: u8 = Locality::Any as u8;

/// Bitmask of the levels a task with per-executor `levels` contributes to
/// its stage's valid locality set: the levels seen walking executors in id
/// order up to and including the first PROCESS-local one — exactly the
/// sequential `computeValidLocalityLevels` inner loop with its early break.
fn contrib_of(levels: &[u8]) -> u8 {
    let mut c = 0u8;
    for &l in levels {
        c |= 1 << l;
        if l == Locality::Process.index() as u8 {
            break;
        }
    }
    c
}

/// Per-stage valid-level contribution counts, maintained incrementally.
/// `cnt[l]` is the number of pending tasks whose contribution mask
/// includes level `l`; a query subtracts the claimed tasks' masks on the
/// spot, so claims made inside an assignment batch never invalidate
/// anything. Folding is lazy: the first query walks pending once
/// (`init`), and from then on launch pops subtract the folded mask,
/// re-inserts add a fresh one, and residency flips enqueue exactly the
/// re-leveled pending readers (`dirty`, fed by the same `inv_commit`
/// diff that maintains the inverted counts) to be re-diffed at the next
/// query — a query costs O(changed since the last one), not O(pending).
#[derive(Clone, Debug, Default)]
struct ContribState {
    init: bool,
    cnt: [u32; 4],
    /// Per-task contribution mask currently folded into `cnt`; authoritative
    /// while the task is pending (popped tasks keep their last mask so the
    /// pop can subtract exactly what was folded).
    applied: Vec<u8>,
    /// Pending tasks re-leveled since the last fold, deduplicated via
    /// `dirty_bit`.
    dirty: Vec<u32>,
    dirty_bit: Vec<bool>,
}

/// Add/remove one contribution mask to/from per-level counts.
#[inline]
fn contrib_add(cnt: &mut [u32; 4], mut mask: u8) {
    while mask != 0 {
        cnt[mask.trailing_zeros() as usize] += 1;
        mask &= mask - 1;
    }
}

#[inline]
fn contrib_sub(cnt: &mut [u32; 4], mut mask: u8) {
    while mask != 0 {
        cnt[mask.trailing_zeros() as usize] -= 1;
        mask &= mask - 1;
    }
}

/// Resumable placement scan over one stage's pending set, shared by
/// every executor. Filling is lazy: one frontier examines tasks in
/// ascending pending order only as far as any probe needs, and each
/// examination fans the task's level on *every* executor (one
/// [`LocalityIndex::task_levels`] pass) out to per-(executor, level)
/// candidate bitsets. A probe for (executor, level) is then a
/// word-wise `candidates & pending & !claimed` scan — the first set bit
/// is exactly the task the sequential first-match walk would return, so
/// one examination pass is shared by every executor and every pick of an
/// assignment batch, and each task is examined at most once per *stage*
/// (not per stage × executor) for the stage's whole lifetime.
///
/// The scan is **persistent**: it survives launch pops (popped tasks'
/// bits are masked by the pending bitmap, and the frontier resumes
/// through `PendingSet::next_after`) and residency flips (`inv_commit`
/// moves exactly the re-leveled pending readers' bits between the level
/// rows of exactly the affected executors — the same single-rack diff
/// that maintains the inverted counts). Only a pending *insertion*
/// (failure recovery) resets it, via the [`PendingSet::inserts`] key,
/// and the stage leaving the ready list frees it.
/// The strict variant's best-anywhere filter reads the live `inv_best`
/// instead of a value captured at examination time, so it never
/// staleness-drifts. Invariant (debug-asserted on every bit-served
/// return): a pending examined task's bit sits in the row of its
/// *current* level on that executor.
#[derive(Clone, Debug, Default)]
struct StageScan {
    /// [`PendingSet::inserts`] the scan was filled under; `None` = never
    /// filled (distinct from a valid scan at insert count 0).
    key: Option<u64>,
    /// Next pending task the frontier will examine; `None` = fully
    /// scanned. May name a since-popped task: `next_after` chains stay
    /// valid across pops.
    cursor: Option<u32>,
    /// Tasks the frontier has examined, as a packed bitmap.
    examined: Vec<u64>,
    /// `bits[(e × 4 + level) × words + w]`: examined tasks whose current
    /// level on executor `e` is exactly `level`.
    bits: Vec<u64>,
    /// Words per task bitmap (`ceil(tasks / 64)`).
    words: usize,
}

// lint: incremental(cached_bits, mutators = [cached_row_mut])
// lint: incremental(disk_bits, mutators = [disk_row_mut])
// lint: incremental(live, mutators = [set_stage_live], oracle = check_live_set)
// lint: incremental(inv_cnt, mutators = [inv_insert_task, inv_remove_task, inv_commit, set_stage_live], oracle = check_inv_consistency)
// lint: incremental(inv_scnt, mutators = [inv_insert_task, inv_remove_task, inv_commit, set_stage_live], oracle = check_inv_consistency)
// lint: incremental(inv_pending, mutators = [inv_insert_task, inv_remove_task, set_stage_live])
// lint: incremental(inv_pending_len, mutators = [inv_insert_task, inv_remove_task, set_stage_live])
// lint: incremental(inv_best, mutators = [inv_insert_task, inv_commit])
// lint: incremental(inv_best_any, mutators = [inv_insert_task, inv_remove_task, inv_commit, set_stage_live])
// lint: incremental(inv_rack_best, mutators = [inv_insert_task, inv_commit])
// lint: incremental(readers)
// lint: incremental(contrib_memo, mutators = [inv_commit, on_pending_removed, on_pending_inserted, set_stage_live, valid_levels])
// lint: incremental(scan_memo, mutators = [inv_commit, set_stage_live, scan_first])
// lint: hotpath(inv_capture, inv_commit, inv_insert_task, inv_remove_task, pending_level_count, pending_strict_count, scan_first)
pub struct LocalityIndex {
    /// Flat block id = `rdd_base[rdd] + partition`.
    rdd_base: Vec<u32>,
    exec_words: usize,
    node_words: usize,
    /// `cached_bits[block × exec_words ..][..exec_words]`: executors
    /// caching the block.
    cached_bits: Vec<u64>,
    /// `disk_bits[block × node_words ..][..node_words]`: nodes holding a
    /// disk replica.
    disk_bits: Vec<u64>,
    /// Residency mutations that changed a bit (monotone).
    global_gen: u64,
    // Topology summary (contiguous-id ranges, see module docs).
    num_execs: u32,
    exec_node: Vec<u32>,
    node_rack: Vec<u16>,
    /// Executors of node `n` are `node_exec_range[n].0 .. .1`.
    node_exec_range: Vec<(u32, u32)>,
    /// Nodes of rack `r` are `rack_node_range[r].0 .. .1`.
    rack_node_range: Vec<(u32, u32)>,
    /// Executors of rack `r` are `rack_exec_range[r].0 .. .1`.
    rack_exec_range: Vec<(u32, u32)>,
    /// `task_blocks[stage][task]` = flat ids of the task's locality blocks.
    task_blocks: Vec<Vec<Vec<u32>>>,
    contrib_memo: RefCell<Vec<ContribState>>,
    /// One shared placement scan per stage (see [`StageScan`]).
    scan_memo: RefCell<Vec<StageScan>>,
    /// Per-executor level scratch for the `&self` queries.
    levels_scratch: RefCell<Vec<u8>>,
    queries: Cell<u64>,
    valid_rebuilds: Cell<u64>,
    score_hits: Cell<u64>,
    score_misses: Cell<u64>,
    score_invalidations: Cell<u64>,
    // ---- Inverted pending-work index (see module docs) ----
    /// Per stage: is it indexed? Exactly the stages on the view's ready
    /// list; every other stage has an empty mirror and zero counts.
    live: Vec<bool>,
    /// `inv_cnt[stage][level × num_execs + exec]` for the three sub-ANY
    /// levels: pending tasks at exactly `level` on `exec`. The ANY count
    /// is derived (`pending_len − Σ sub-ANY counts at the executor`).
    inv_cnt: Vec<Vec<u32>>,
    /// Same layout, restricted to tasks whose best-anywhere level equals
    /// the level — the strict probe's candidate set. The strict ANY count
    /// is [`Self::inv_best_any`] (best-ANY tasks sit at ANY everywhere).
    inv_scnt: Vec<Vec<u32>>,
    /// Mirror of each live stage's authoritative `PendingSet` membership
    /// (all clear for a non-live stage).
    inv_pending: Vec<Vec<bool>>,
    inv_pending_len: Vec<u32>,
    /// Pending tasks per stage whose best level is ANY.
    inv_best_any: Vec<u32>,
    /// Per-task best-anywhere level, valid while the task is pending.
    inv_best: Vec<Vec<u8>>,
    /// `inv_rack_best[stage][task × num_racks + rack]`: the task's best
    /// level within the rack, valid while pending. Bounds the incremental
    /// walks: an executor can sit below ANY only in a rack whose entry is
    /// below ANY.
    inv_rack_best: Vec<Vec<u8>>,
    /// `readers[flat_block]` = the `(stage, task)` pairs reading the block
    /// (deduplicated) — the reverse of `task_blocks`, i.e. exactly the
    /// tasks a residency flip on the block can re-level.
    readers: Vec<Vec<(u32, u32)>>,
    inv_hits: Cell<u64>,
    inv_updates: Cell<u64>,
    inv_rebuilds: Cell<u64>,
    // Reusable scratch for the mutation diffs (hot path: one
    // capture/commit pair per residency flip; no per-flip allocation).
    inv_readers_scratch: Vec<(u32, u32)>,
    inv_levels_scratch: Vec<u8>,
    inv_news_scratch: Vec<u8>,
    inv_tmp_scratch: Vec<u8>,
    inv_pairs_scratch: Vec<(u32, u8)>,
}

/// Any bit set in the contiguous bit range `[a, b)` of `row`?
#[inline]
fn range_any(row: &[u64], a: u32, b: u32) -> bool {
    if a >= b {
        return false;
    }
    let (aw, ab) = ((a / 64) as usize, a % 64);
    let (bw, bb) = ((b / 64) as usize, b % 64);
    if aw == bw {
        let mask = ((1u64 << (bb - ab)) - 1) << ab;
        return row[aw] & mask != 0;
    }
    if row[aw] & (!0u64 << ab) != 0 {
        return true;
    }
    if row[aw + 1..bw].iter().any(|w| *w != 0) {
        return true;
    }
    bb > 0 && row[bw] & ((1u64 << bb) - 1) != 0
}

/// Move examined task `k`'s candidate bit on executor `e` from level row
/// `o` to row `n`. Unexamined tasks carry no bits (nothing to move).
/// Callers only patch *pending* readers, whose bits a live memo keeps
/// current through exactly these patches; on a stale memo (the task was
/// examined, popped, and re-inserted since the last scan) the old-row
/// bit may be elsewhere — skip, the next scan resets everything through
/// the inserts key. Live-memo drift is policed by `scan_first`'s debug
/// asserts instead.
fn patch_scan_bits(sm: &mut StageScan, e: usize, k: u32, o: u8, n: u8) {
    if sm.key.is_none() {
        return;
    }
    let (w, b) = ((k / 64) as usize, 1u64 << (k % 64));
    if sm.examined[w] & b == 0 {
        return;
    }
    let ob = (e * 4 + o as usize) * sm.words + w;
    let nb = (e * 4 + n as usize) * sm.words + w;
    if sm.bits[ob] & b == 0 {
        return;
    }
    sm.bits[ob] &= !b;
    sm.bits[nb] |= b;
}

#[inline]
fn get_bit(row: &[u64], i: u32) -> bool {
    row[(i / 64) as usize] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] &= !(1 << (i % 64));
}

/// The set bits of `row`, ascending.
fn bits_of(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    (0u32..).zip(row).flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                i
            })
        })
    })
}

impl LocalityIndex {
    /// Build the index over an initial placement. `task_views` supplies
    /// each task's locality blocks (narrow inputs); `live[s]` says whether
    /// stage `s` starts on the ready list, in which case every one of its
    /// tasks is indexed as pending (each stage starts with a full pending
    /// set). The placement is read once: from here on residency changes
    /// arrive through the mutators.
    pub fn new(
        dag: &JobDag,
        topo: &Topology,
        data: &DataMap,
        task_views: &[Vec<TaskView>],
        live: &[bool],
    ) -> Self {
        assert_eq!(live.len(), task_views.len(), "one live flag per stage");
        let mut rdd_base = Vec::with_capacity(dag.num_rdds());
        let mut n_blocks = 0u32;
        for r in dag.rdds() {
            rdd_base.push(n_blocks);
            n_blocks += r.num_partitions;
        }
        let num_execs = topo.exec_node.len() as u32;
        let num_nodes = topo.node_rack.len() as u32;
        let exec_words = (num_execs as usize).div_ceil(64).max(1);
        let node_words = (num_nodes as usize).div_ceil(64).max(1);

        let exec_node: Vec<u32> = topo.exec_node.iter().map(|n| n.0).collect();
        let node_rack: Vec<u16> = topo.node_rack.iter().map(|r| r.0).collect();
        let range_of = |ids: &[u32]| -> (u32, u32) {
            match ids.first() {
                None => (0, 0),
                Some(&lo) => {
                    let hi = *ids.last().unwrap() + 1;
                    debug_assert_eq!(hi - lo, ids.len() as u32, "ids must be contiguous");
                    (lo, hi)
                }
            }
        };
        let node_exec_range: Vec<(u32, u32)> = topo
            .node_execs
            .iter()
            .map(|es| range_of(&es.iter().map(|e| e.0).collect::<Vec<_>>()))
            .collect();
        let rack_node_range: Vec<(u32, u32)> = topo
            .rack_nodes
            .iter()
            .map(|ns| range_of(&ns.iter().map(|n| n.0).collect::<Vec<_>>()))
            .collect();
        let rack_exec_range: Vec<(u32, u32)> = topo
            .rack_nodes
            .iter()
            .map(|ns| {
                if ns.is_empty() {
                    (0, 0)
                } else {
                    let first = node_exec_range[ns.first().unwrap().index()].0;
                    let last = node_exec_range[ns.last().unwrap().index()].1;
                    (first, last)
                }
            })
            .collect();

        let flat = |rdd_base: &[u32], b: BlockId| rdd_base[b.rdd.index()] + b.partition;
        let task_blocks: Vec<Vec<Vec<u32>>> = task_views
            .iter()
            .map(|per_task| {
                per_task
                    .iter()
                    .map(|tv| tv.loc_blocks.iter().map(|&b| flat(&rdd_base, b)).collect())
                    .collect()
            })
            .collect();

        let mut readers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_blocks as usize];
        for (s, per_task) in task_blocks.iter().enumerate() {
            for (k, blocks) in per_task.iter().enumerate() {
                for &bi in blocks {
                    let ent = (s as u32, k as u32);
                    let v = &mut readers[bi as usize];
                    // Dedup (a task listing one block twice must diff once).
                    if !v.contains(&ent) {
                        v.push(ent);
                    }
                }
            }
        }

        let n_stages = task_views.len();
        let nr = rack_exec_range.len();
        let ne = num_execs as usize;
        let mut idx = Self {
            rdd_base,
            exec_words,
            node_words,
            cached_bits: vec![0; exec_words * n_blocks as usize],
            disk_bits: vec![0; node_words * n_blocks as usize],
            global_gen: 0,
            num_execs,
            exec_node,
            node_rack,
            node_exec_range,
            rack_node_range,
            rack_exec_range,
            task_blocks,
            contrib_memo: RefCell::new(vec![ContribState::default(); task_views.len()]),
            scan_memo: RefCell::new(vec![StageScan::default(); task_views.len()]),
            levels_scratch: RefCell::new(Vec::new()),
            queries: Cell::new(0),
            valid_rebuilds: Cell::new(0),
            score_hits: Cell::new(0),
            score_misses: Cell::new(0),
            score_invalidations: Cell::new(0),
            live: live.to_vec(),
            inv_cnt: vec![vec![0; 3 * ne]; n_stages],
            inv_scnt: vec![vec![0; 3 * ne]; n_stages],
            inv_pending: task_views.iter().map(|pt| vec![false; pt.len()]).collect(),
            inv_pending_len: vec![0; n_stages],
            inv_best_any: vec![0; n_stages],
            inv_best: task_views.iter().map(|pt| vec![L_ANY; pt.len()]).collect(),
            inv_rack_best: task_views
                .iter()
                .map(|pt| vec![L_ANY; pt.len() * nr])
                .collect(),
            readers,
            inv_hits: Cell::new(0),
            inv_updates: Cell::new(0),
            inv_rebuilds: Cell::new(0),
            inv_readers_scratch: Vec::new(),
            inv_levels_scratch: Vec::new(),
            inv_news_scratch: Vec::new(),
            inv_tmp_scratch: Vec::new(),
            inv_pairs_scratch: Vec::new(),
        };
        // Ingest the initial placement (generation 0).
        for r in dag.rdds() {
            for b in r.blocks() {
                let bi = idx.flat_id(b) as usize;
                for n in data.disk_nodes(b) {
                    set_bit(idx.disk_row_mut(bi), n.0);
                }
                for e in data.cached_execs(b) {
                    set_bit(idx.cached_row_mut(bi), e.0);
                }
            }
        }
        idx.inv_rebuild();
        idx
    }

    #[inline]
    fn flat_id(&self, b: BlockId) -> u32 {
        self.rdd_base[b.rdd.index()] + b.partition
    }

    #[inline]
    fn cached_row(&self, bi: usize) -> &[u64] {
        &self.cached_bits[bi * self.exec_words..][..self.exec_words]
    }

    #[inline]
    fn disk_row(&self, bi: usize) -> &[u64] {
        &self.disk_bits[bi * self.node_words..][..self.node_words]
    }

    #[inline]
    fn cached_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.cached_bits[bi * self.exec_words..][..self.exec_words]
    }

    #[inline]
    fn disk_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.disk_bits[bi * self.node_words..][..self.node_words]
    }

    // ------------------------------------------------------------------
    // Residency mutations
    // ------------------------------------------------------------------

    /// Record a block written to a node's disk (task output / spill).
    pub fn add_disk(&mut self, b: BlockId, node: NodeId) {
        let bi = self.flat_id(b) as usize;
        if !get_bit(self.disk_row(bi), node.0) {
            let rack = self.node_rack[node.index()] as usize;
            self.inv_capture(bi, rack);
            set_bit(self.disk_row_mut(bi), node.0);
            self.global_gen += 1;
            self.inv_commit(bi, rack);
        }
    }

    /// Record a cache insertion.
    pub fn add_cached(&mut self, b: BlockId, exec: ExecId) {
        let bi = self.flat_id(b) as usize;
        if !get_bit(self.cached_row(bi), exec.0) {
            let rack = self.node_rack[self.exec_node[exec.index()] as usize] as usize;
            self.inv_capture(bi, rack);
            set_bit(self.cached_row_mut(bi), exec.0);
            self.global_gen += 1;
            self.inv_commit(bi, rack);
        }
    }

    /// Record a cache eviction.
    pub fn remove_cached(&mut self, b: BlockId, exec: ExecId) {
        let bi = self.flat_id(b) as usize;
        if get_bit(self.cached_row(bi), exec.0) {
            let rack = self.node_rack[self.exec_node[exec.index()] as usize] as usize;
            self.inv_capture(bi, rack);
            clear_bit(self.cached_row_mut(bi), exec.0);
            self.global_gen += 1;
            self.inv_commit(bi, rack);
        }
    }

    /// Remove a node's disk replica (executor crash losing local output
    /// files).
    pub fn remove_disk(&mut self, b: BlockId, node: NodeId) {
        let bi = self.flat_id(b) as usize;
        if get_bit(self.disk_row(bi), node.0) {
            let rack = self.node_rack[node.index()] as usize;
            self.inv_capture(bi, rack);
            clear_bit(self.disk_row_mut(bi), node.0);
            self.global_gen += 1;
            self.inv_commit(bi, rack);
        }
    }

    // ------------------------------------------------------------------
    // Inverted pending-work index
    // ------------------------------------------------------------------

    /// Does block `bi` have any replica (cached or disk) in rack `r`?
    #[inline]
    fn rack_has_replica(&self, bi: usize, r: usize) -> bool {
        let (ra, rb) = self.rack_exec_range[r];
        let (na, nb) = self.rack_node_range[r];
        range_any(self.cached_row(bi), ra, rb) || range_any(self.disk_row(bi), na, nb)
    }

    /// Task `(s, k)`'s locality level on executor `e`, computed fresh from
    /// the residency bitsets (max over locality blocks; ANY for a task
    /// with no locality blocks). The single-executor twin of the batched
    /// [`Self::task_levels_in_rack`].
    fn task_level_raw(&self, s: usize, k: usize, e: u32) -> u8 {
        let blocks = &self.task_blocks[s][k];
        if blocks.is_empty() {
            return L_ANY;
        }
        let mut worst = Locality::Process.index() as u8;
        for &bi in blocks {
            worst = worst.max(self.block_level(bi as usize, e));
            if worst == L_ANY {
                break;
            }
        }
        worst
    }

    /// Append to `out` task `(s, k)`'s levels across rack `rack`'s
    /// executors (one entry per executor in the rack's contiguous id
    /// range). Equivalent to [`Self::task_level_raw`] per executor, but
    /// each block is resolved once per *node* (disk bit + node cache
    /// range) instead of once per executor — the incremental-maintenance
    /// hot loop at large rack widths.
    fn task_levels_in_rack(&self, s: usize, k: usize, rack: usize, out: &mut Vec<u8>) {
        let (ra, rb) = self.rack_exec_range[rack];
        let blocks = &self.task_blocks[s][k];
        let base = out.len();
        if blocks.is_empty() {
            out.resize(base + (rb - ra) as usize, L_ANY);
            return;
        }
        out.resize(base + (rb - ra) as usize, Locality::Process.index() as u8);
        let out = &mut out[base..];
        let (na, nb) = self.rack_node_range[rack];
        for &bi in blocks {
            let bi = bi as usize;
            let cw = self.cached_row(bi);
            let dw = self.disk_row(bi);
            if !(range_any(dw, na, nb) || range_any(cw, ra, rb)) {
                // No replica in this rack: ANY for every executor, and the
                // max over blocks is saturated.
                for v in out.iter_mut() {
                    *v = L_ANY;
                }
                return;
            }
            let rack_floor = Locality::Rack.index() as u8;
            for n in na..nb {
                let (ea, eb) = self.node_exec_range[n as usize];
                let node_floor = if get_bit(dw, n) || range_any(cw, ea, eb) {
                    Locality::Node.index() as u8
                } else {
                    rack_floor
                };
                for e in ea..eb {
                    let l = if get_bit(cw, e) {
                        Locality::Process.index() as u8
                    } else {
                        node_floor
                    };
                    let v = &mut out[(e - ra) as usize];
                    *v = (*v).max(l);
                }
            }
        }
    }

    /// Fill `out` with task `(s, k)`'s level on every executor, in id
    /// order (racks hold contiguous ascending executor ranges).
    fn task_levels(&self, s: usize, k: usize, out: &mut Vec<u8>) {
        out.clear();
        for r in 0..self.rack_exec_range.len() {
            self.task_levels_in_rack(s, k, r, out);
        }
    }

    /// Task `(s, k)`'s valid-level contribution mask ([`contrib_of`] over
    /// its current levels).
    fn task_contrib(&self, s: usize, k: usize) -> u8 {
        let mut levels = self.levels_scratch.borrow_mut();
        self.task_levels(s, k, &mut levels);
        contrib_of(&levels)
    }

    /// Fold task `(s, k)` into the inverted index as pending: compute its
    /// levels over the candidate racks (racks holding a replica of its
    /// first block — a superset of every rack where its level is below
    /// ANY, since a sub-ANY level needs *all* blocks rack-resident),
    /// update `cnt`/`scnt`/`best`/`rack_best` and the scalars.
    // lint: allow(panic-surface): (s, k) is a live (stage, task) pair; every inv_* row is sized to the task universe
    fn inv_insert_task(&mut self, s: usize, k: usize) {
        debug_assert!(!self.inv_pending[s][k]);
        let nr = self.rack_exec_range.len();
        let ne = self.num_execs as usize;
        let empty = self.task_blocks[s][k].is_empty();
        let fb = self.task_blocks[s][k].first().copied().unwrap_or(0) as usize;
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        let mut pairs = std::mem::take(&mut self.inv_pairs_scratch);
        pairs.clear();
        let mut best = L_ANY;
        for r in 0..nr {
            let mut rmin = L_ANY;
            if !empty && self.rack_has_replica(fb, r) {
                news.clear();
                self.task_levels_in_rack(s, k, r, &mut news);
                let (ra, _) = self.rack_exec_range[r];
                for (j, &l) in news.iter().enumerate() {
                    if l < L_ANY {
                        pairs.push((ra + j as u32, l));
                        rmin = rmin.min(l);
                    }
                }
            }
            self.inv_rack_best[s][k * nr + r] = rmin;
            best = best.min(rmin);
        }
        self.inv_pending[s][k] = true;
        self.inv_pending_len[s] += 1;
        self.inv_best[s][k] = best;
        if best == L_ANY {
            self.inv_best_any[s] += 1;
        }
        for &(e, l) in &pairs {
            self.inv_cnt[s][l as usize * ne + e as usize] += 1;
            if l == best {
                self.inv_scnt[s][l as usize * ne + e as usize] += 1;
            }
        }
        self.inv_news_scratch = news;
        self.inv_pairs_scratch = pairs;
    }

    /// Remove task `(s, k)`'s contributions (it left the pending set).
    /// `rack_best` bounds the walk to racks where the task actually
    /// contributed sub-ANY counts.
    // lint: allow(panic-surface): (s, k) is a live (stage, task) pair; every inv_* row is sized to the task universe
    fn inv_remove_task(&mut self, s: usize, k: usize) {
        debug_assert!(self.inv_pending[s][k]);
        self.inv_pending[s][k] = false;
        self.inv_pending_len[s] -= 1;
        let best = self.inv_best[s][k];
        if best == L_ANY {
            // Best ANY ⟹ ANY everywhere ⟹ no per-executor contributions.
            self.inv_best_any[s] -= 1;
            return;
        }
        let nr = self.rack_exec_range.len();
        let ne = self.num_execs as usize;
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        for r in 0..nr {
            if self.inv_rack_best[s][k * nr + r] == L_ANY {
                continue;
            }
            news.clear();
            self.task_levels_in_rack(s, k, r, &mut news);
            let (ra, _) = self.rack_exec_range[r];
            for (j, &l) in news.iter().enumerate() {
                if l < L_ANY {
                    let e = ra as usize + j;
                    self.inv_cnt[s][l as usize * ne + e] -= 1;
                    if l == best {
                        self.inv_scnt[s][l as usize * ne + e] -= 1;
                    }
                }
            }
        }
        self.inv_news_scratch = news;
    }

    /// Pre-flip snapshot for the residency diff: block `bi`'s *pending*
    /// readers and their current levels across rack `rack`'s executors —
    /// the only executors a single-block, single-rack residency flip can
    /// re-level (every level test in `block_level` resolves within the
    /// executor's own rack). Readers in non-live stages have a clear
    /// mirror bit, so they are skipped here and never re-leveled.
    // lint: allow(panic-surface): reader (stage, task) pairs were minted from task_blocks; all rows sized at build
    fn inv_capture(&mut self, bi: usize, rack: usize) {
        let mut readers = std::mem::take(&mut self.inv_readers_scratch);
        let mut olds = std::mem::take(&mut self.inv_levels_scratch);
        readers.clear();
        olds.clear();
        for i in 0..self.readers[bi].len() {
            let (s, k) = self.readers[bi][i];
            if !self.inv_pending[s as usize][k as usize] {
                continue;
            }
            readers.push((s, k));
            self.task_levels_in_rack(s as usize, k as usize, rack, &mut olds);
        }
        self.inv_readers_scratch = readers;
        self.inv_levels_scratch = olds;
    }

    /// Post-flip diff: recompute each captured reader's levels across the
    /// flipped rack, adjust `cnt` where levels moved, then repair
    /// `rack_best`/`best` and the strict counts. When a reader's best
    /// level changes, its whole strict contribution set moves from the old
    /// best to the new one — racks outside the flipped one kept their
    /// levels, so their entries are recomputed on the spot.
    // lint: allow(panic-surface): captured readers index rows sized at build; rack ranges come from the topology
    fn inv_commit(&mut self, _bi: usize, rack: usize) {
        let readers = std::mem::take(&mut self.inv_readers_scratch);
        let olds = std::mem::take(&mut self.inv_levels_scratch);
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        let mut tmp = std::mem::take(&mut self.inv_tmp_scratch);
        let (ra, rb) = self.rack_exec_range[rack];
        let w = (rb - ra) as usize;
        let ne = self.num_execs as usize;
        let nr = self.rack_exec_range.len();
        let mut sms = self.scan_memo.borrow_mut();
        let mut cms = self.contrib_memo.borrow_mut();
        for (ri, &(s32, k32)) in readers.iter().enumerate() {
            let (s, k) = (s32 as usize, k32 as usize);
            let old = &olds[ri * w..][..w];
            news.clear();
            self.task_levels_in_rack(s, k, rack, &mut news);
            let mut rmin = L_ANY;
            let mut changed = false;
            for j in 0..w {
                let (o, n) = (old[j], news[j]);
                rmin = rmin.min(n);
                if o != n {
                    changed = true;
                    let e = ra as usize + j;
                    if o < L_ANY {
                        self.inv_cnt[s][o as usize * ne + e] -= 1;
                    }
                    if n < L_ANY {
                        self.inv_cnt[s][n as usize * ne + e] += 1;
                    }
                    // Keep the persistent placement scan truthful: if
                    // this reader was already examined (its bit sits in
                    // the row of its pre-flip level on `e`), move it to
                    // the new level's row. Unexamined or stale-memo
                    // readers are a no-op.
                    patch_scan_bits(&mut sms[s], e, k32, o, n);
                }
            }
            if !changed {
                // Levels identical ⟹ rack_best/best/scnt all unchanged.
                continue;
            }
            self.inv_updates.set(self.inv_updates.get() + 1);
            // The reader's valid-level contribution mask may have moved
            // with its levels: queue it for the next fold (dedup'd).
            {
                let cm = &mut cms[s];
                if cm.init && !cm.dirty_bit[k] {
                    cm.dirty_bit[k] = true;
                    cm.dirty.push(k32);
                }
            }
            let old_best = self.inv_best[s][k];
            let old_rack_best = self.inv_rack_best[s][k * nr + rack];
            self.inv_rack_best[s][k * nr + rack] = rmin;
            let mut new_best = L_ANY;
            for r in 0..nr {
                new_best = new_best.min(self.inv_rack_best[s][k * nr + r]);
            }
            if new_best == old_best {
                // Strict membership can only have moved inside this rack.
                if old_best < L_ANY {
                    let bl = old_best;
                    for j in 0..w {
                        let (o, n) = (old[j], news[j]);
                        if (o == bl) == (n == bl) {
                            continue;
                        }
                        let slot = bl as usize * ne + ra as usize + j;
                        if o == bl {
                            self.inv_scnt[s][slot] -= 1;
                        } else {
                            self.inv_scnt[s][slot] += 1;
                        }
                    }
                }
                continue;
            }
            self.inv_best[s][k] = new_best;
            if old_best == L_ANY {
                self.inv_best_any[s] -= 1;
            }
            if new_best == L_ANY {
                self.inv_best_any[s] += 1;
            }
            // Retract the old strict contribution set (executors whose
            // pre-flip level was the old best)…
            if old_best < L_ANY {
                for r in 0..nr {
                    let prev = if r == rack {
                        old_rack_best
                    } else {
                        self.inv_rack_best[s][k * nr + r]
                    };
                    if prev > old_best {
                        continue;
                    }
                    let (qa, _) = self.rack_exec_range[r];
                    let lv: &[u8] = if r == rack {
                        old
                    } else {
                        tmp.clear();
                        self.task_levels_in_rack(s, k, r, &mut tmp);
                        &tmp
                    };
                    for (j, &l) in lv.iter().enumerate() {
                        if l == old_best {
                            self.inv_scnt[s][old_best as usize * ne + qa as usize + j] -= 1;
                        }
                    }
                }
            }
            // …and install the new one (post-flip level == new best).
            if new_best < L_ANY {
                for r in 0..nr {
                    if self.inv_rack_best[s][k * nr + r] > new_best {
                        continue;
                    }
                    let (qa, _) = self.rack_exec_range[r];
                    let lv: &[u8] = if r == rack {
                        &news
                    } else {
                        tmp.clear();
                        self.task_levels_in_rack(s, k, r, &mut tmp);
                        &tmp
                    };
                    for (j, &l) in lv.iter().enumerate() {
                        if l == new_best {
                            self.inv_scnt[s][new_best as usize * ne + qa as usize + j] += 1;
                        }
                    }
                }
            }
        }
        self.inv_readers_scratch = readers;
        self.inv_levels_scratch = olds;
        self.inv_news_scratch = news;
        self.inv_tmp_scratch = tmp;
    }

    /// From-scratch build of the initially live stages with every task
    /// pending — the simulator's initial state (each `StageRuntime` starts
    /// with `PendingSet::full`, the contract `sim.rs` documents). Runs
    /// exactly once, from [`new`].
    ///
    /// [`new`]: LocalityIndex::new
    fn inv_rebuild(&mut self) {
        self.inv_rebuilds.set(self.inv_rebuilds.get() + 1);
        for s in 0..self.task_blocks.len() {
            if !self.live[s] {
                continue;
            }
            debug_assert_eq!(self.inv_pending_len[s], 0, "rebuild over a live index");
            for k in 0..self.task_blocks[s].len() {
                self.inv_insert_task(s, k);
            }
        }
    }

    /// Put stage `s` on or off the index: `live` must be the stage's
    /// ready-list membership, and `pending` its authoritative pending set.
    /// Activation inserts every pending task; deactivation clears the
    /// stage's counts and mirror and frees its scan and contribution
    /// memos (the candidate bitsets hold `executors × 4 levels × tasks`
    /// bits, real memory at 2000 executors). A later activation rebuilds
    /// all of it from `pending`, so nothing derived for a non-live stage
    /// needs maintaining. A call that does not change liveness is a no-op.
    pub fn set_stage_live(&mut self, s: usize, live: bool, pending: &PendingSet) {
        if self.live[s] == live {
            return;
        }
        self.live[s] = live;
        self.inv_updates.set(self.inv_updates.get() + 1);
        if live {
            for k in pending.iter() {
                self.inv_insert_task(s, k as usize);
            }
        } else {
            self.inv_cnt[s].fill(0);
            self.inv_scnt[s].fill(0);
            self.inv_pending[s].fill(false);
            self.inv_pending_len[s] = 0;
            self.inv_best_any[s] = 0;
            self.scan_memo.get_mut()[s] = StageScan::default();
            self.contrib_memo.get_mut()[s] = ContribState::default();
        }
    }

    /// The simulator popped task `k` of stage `s` from its pending set
    /// (non-speculative launch). Mirrors the membership change; the
    /// folded contribution counts subtract exactly the mask that was
    /// folded for the task (stale-if-dirty, which is precisely what
    /// `cnt` contains — the dirty re-fold skips popped tasks). A no-op
    /// for a non-live stage, whose activation reads `pending` afresh.
    pub fn on_pending_removed(&mut self, s: usize, k: u32) {
        if !self.live[s] {
            return;
        }
        self.inv_updates.set(self.inv_updates.get() + 1);
        self.inv_remove_task(s, k as usize);
        let cm = &mut self.contrib_memo.get_mut()[s];
        if cm.init {
            contrib_sub(&mut cm.cnt, cm.applied[k as usize]);
        }
    }

    /// The simulator re-inserted task `k` of stage `s` into its pending
    /// set (failure recovery / stage resubmission). A no-op for a
    /// non-live stage, like [`Self::on_pending_removed`].
    pub fn on_pending_inserted(&mut self, s: usize, k: u32) {
        if !self.live[s] {
            return;
        }
        self.inv_updates.set(self.inv_updates.get() + 1);
        self.inv_insert_task(s, k as usize);
        if self.contrib_memo.get_mut()[s].init {
            let c = self.task_contrib(s, k as usize);
            let cm = &mut self.contrib_memo.get_mut()[s];
            cm.applied[k as usize] = c;
            contrib_add(&mut cm.cnt, c);
        }
    }

    /// Pending tasks of stage `s` at exactly `level` on executor `e`.
    ///
    /// Claims-blind by design, which keeps the zero-test *conservative
    /// and exact* as a probe gate: a claims-aware probe only ever sees a
    /// subset of these tasks, so a zero here proves
    /// [`scan_first`](Self::scan_first) would return `None` — and a
    /// non-zero takes the real claims-aware probe, identical to the
    /// ungated walk. First-match order is therefore preserved bit-for-bit.
    /// Defined for live stages only.
    // lint: allow(panic-surface): stage/executor ids are dense and bound the per-stage count rows by construction
    pub fn pending_level_count(&self, s: usize, e: ExecId, level: Locality) -> u32 {
        debug_assert!(self.live[s], "count probe on non-live stage {s}");
        let ne = self.num_execs as usize;
        let li = level.index();
        let c = if li < L_ANY as usize {
            self.inv_cnt[s][li * ne + e.index()]
        } else {
            let ei = e.index();
            self.inv_pending_len[s]
                - self.inv_cnt[s][ei]
                - self.inv_cnt[s][ne + ei]
                - self.inv_cnt[s][2 * ne + ei]
        };
        if c == 0 {
            self.inv_hits.set(self.inv_hits.get() + 1);
        }
        c
    }

    /// Pending tasks of stage `s` at exactly `level` on executor `e`
    /// whose best level anywhere is also `level` — the strict probe's
    /// candidate count (`best ≥ level` with `level(e) = level` collapses
    /// to `best = level`, since `best ≤ level(e)` always). Claims-blind
    /// like [`pending_level_count`](Self::pending_level_count), and defined
    /// for live stages only.
    // lint: allow(panic-surface): stage/executor ids are dense and bound the per-stage count rows by construction
    pub fn pending_strict_count(&self, s: usize, e: ExecId, level: Locality) -> u32 {
        debug_assert!(self.live[s], "strict count probe on non-live stage {s}");
        let li = level.index();
        let c = if li < L_ANY as usize {
            self.inv_scnt[s][li * self.num_execs as usize + e.index()]
        } else {
            // Best-ANY tasks sit at ANY on every executor.
            self.inv_best_any[s]
        };
        if c == 0 {
            self.inv_hits.set(self.inv_hits.get() + 1);
        }
        c
    }

    /// From-scratch oracle for the inverted index on stage `s`: rebuild
    /// every count from the raw residency bitsets and the authoritative
    /// `pending` set, and compare against the incrementally maintained
    /// state (including the mirror itself). A non-live stage must hold
    /// nothing: an empty mirror, zero counts and freed memos.
    /// Debug-assert fodder for the simulator's scheduling loop and the
    /// differential proptests.
    pub fn check_inv_consistency(&self, s: usize, pending: &PendingSet) -> bool {
        let ne = self.num_execs as usize;
        let nr = self.rack_exec_range.len();
        if !self.live[s] {
            return self.inv_pending_len[s] == 0
                && self.inv_best_any[s] == 0
                && !self.inv_pending[s].contains(&true)
                && self.inv_cnt[s].iter().all(|&c| c == 0)
                && self.inv_scnt[s].iter().all(|&c| c == 0)
                && self.scan_memo.borrow()[s].key.is_none()
                && !self.contrib_memo.borrow()[s].init;
        }
        if pending.len() as u32 != self.inv_pending_len[s] {
            return false;
        }
        for (k, &p) in self.inv_pending[s].iter().enumerate() {
            if p != pending.contains(k as u32) {
                return false;
            }
        }
        let cms = self.contrib_memo.borrow();
        let cm = &cms[s];
        let mut applied_sum = [0u32; 4];
        let mut cnt = vec![0u32; 3 * ne];
        let mut scnt = vec![0u32; 3 * ne];
        let mut best_any = 0u32;
        let mut levels = vec![0u8; ne];
        for k in pending.iter() {
            let ku = k as usize;
            let mut best = L_ANY;
            for e in 0..self.num_execs {
                let l = self.task_level_raw(s, ku, e);
                levels[e as usize] = l;
                best = best.min(l);
            }
            if best != self.inv_best[s][ku] {
                return false;
            }
            if cm.init {
                // The folded counts must equal Σ applied over pending
                // (pops subtract exactly what was applied), and any task
                // not queued dirty must have a *current* mask applied.
                contrib_add(&mut applied_sum, cm.applied[ku]);
                if !cm.dirty_bit[ku] && cm.applied[ku] != contrib_of(&levels) {
                    return false;
                }
            }
            if best == L_ANY {
                best_any += 1;
            }
            for (e, &l) in levels.iter().enumerate() {
                if l < L_ANY {
                    cnt[l as usize * ne + e] += 1;
                    if l == best {
                        scnt[l as usize * ne + e] += 1;
                    }
                }
            }
            for r in 0..nr {
                let (ra, rb) = self.rack_exec_range[r];
                let mut rmin = L_ANY;
                for e in ra..rb {
                    rmin = rmin.min(levels[e as usize]);
                }
                if rmin != self.inv_rack_best[s][ku * nr + r] {
                    return false;
                }
            }
        }
        if cm.init && cm.cnt != applied_sum {
            return false;
        }
        cnt == self.inv_cnt[s] && scnt == self.inv_scnt[s] && best_any == self.inv_best_any[s]
    }

    /// Is the live set exactly `ready` (the view's ready list, any order)?
    /// The simulator debug-asserts it at every scheduling opportunity.
    pub fn check_live_set(&self, ready: &[u32]) -> bool {
        ready.len() == self.live.iter().filter(|&&l| l).count()
            && ready.iter().all(|&s| self.live[s as usize])
    }

    /// Does `node` hold a disk replica of the block?
    pub fn on_disk_at(&self, b: BlockId, node: NodeId) -> bool {
        get_bit(self.disk_row(self.flat_id(b) as usize), node.0)
    }

    /// Nodes holding a disk replica of the block, ascending.
    pub(crate) fn disk_nodes(&self, b: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        bits_of(self.disk_row(self.flat_id(b) as usize)).map(NodeId)
    }

    /// Does any disk replica of the block exist?
    pub fn on_disk_anywhere(&self, b: BlockId) -> bool {
        self.disk_row(self.flat_id(b) as usize)
            .iter()
            .any(|w| *w != 0)
    }

    // ------------------------------------------------------------------
    // Residency queries
    // ------------------------------------------------------------------

    /// Global residency generation: changes iff any derived locality state
    /// may have changed. The simulator snapshots it to detect when a
    /// scheduler's assignment batch went stale mid-application.
    pub fn generation(&self) -> u64 {
        self.global_gen
    }

    pub fn is_cached_in(&self, b: BlockId, exec: ExecId) -> bool {
        get_bit(self.cached_row(self.flat_id(b) as usize), exec.0)
    }

    /// Executors whose cache holds the block, ascending.
    pub(crate) fn cached_execs(&self, b: BlockId) -> impl Iterator<Item = ExecId> + '_ {
        bits_of(self.cached_row(self.flat_id(b) as usize)).map(ExecId)
    }

    pub fn is_cached_anywhere(&self, b: BlockId) -> bool {
        self.cached_row(self.flat_id(b) as usize)
            .iter()
            .any(|w| *w != 0)
    }

    /// Physical read tier for one block from one executor.
    pub fn read_tier(&self, b: BlockId, exec: ExecId) -> ReadTier {
        self.queries.set(self.queries.get() + 1);
        let bi = self.flat_id(b) as usize;
        let cw = self.cached_row(bi);
        if get_bit(cw, exec.0) {
            return ReadTier::ProcessCache;
        }
        let node = self.exec_node[exec.index()];
        let (ea, eb) = self.node_exec_range[node as usize];
        if range_any(cw, ea, eb) {
            return ReadTier::NodeCache;
        }
        let dw = self.disk_row(bi);
        if get_bit(dw, node) {
            return ReadTier::NodeDisk;
        }
        let rack = self.node_rack[node as usize] as usize;
        let (na, nb) = self.rack_node_range[rack];
        let (ra, rb) = self.rack_exec_range[rack];
        if range_any(dw, na, nb) || range_any(cw, ra, rb) {
            ReadTier::RackRemote
        } else {
            debug_assert!(
                dw.iter().any(|w| *w != 0) || cw.iter().any(|w| *w != 0),
                "reading unmaterialized block {b}"
            );
            ReadTier::CrossRack
        }
    }

    /// Locality level of one block from one executor (the tier collapsed
    /// onto the Spark locality ladder).
    #[inline]
    fn block_level(&self, bi: usize, e: u32) -> u8 {
        let cw = self.cached_row(bi);
        if get_bit(cw, e) {
            return Locality::Process.index() as u8;
        }
        let node = self.exec_node[e as usize];
        let dw = self.disk_row(bi);
        let (ea, eb) = self.node_exec_range[node as usize];
        if get_bit(dw, node) || range_any(cw, ea, eb) {
            return Locality::Node.index() as u8;
        }
        let rack = self.node_rack[node as usize] as usize;
        let (na, nb) = self.rack_node_range[rack];
        let (ra, rb) = self.rack_exec_range[rack];
        if range_any(dw, na, nb) || range_any(cw, ra, rb) {
            return Locality::Rack.index() as u8;
        }
        Locality::Any.index() as u8
    }

    /// The locality level task `(s, k)` would run at on executor `e`.
    pub fn task_locality(&self, s: usize, k: u32, e: ExecId) -> Locality {
        self.queries.set(self.queries.get() + 1);
        Locality::from_index(self.task_level_raw(s, k as usize, e.0) as usize)
    }

    /// The best locality task `(s, k)` can achieve on any executor.
    pub fn task_best_level(&self, s: usize, k: u32) -> Locality {
        self.queries.set(self.queries.get() + 1);
        let mut levels = self.levels_scratch.borrow_mut();
        self.task_levels(s, k as usize, &mut levels);
        Locality::from_index(levels.iter().copied().min().unwrap_or(L_ANY) as usize)
    }

    /// Valid locality levels of stage `s` (Spark's
    /// `computeValidLocalityLevels`), over its unclaimed pending tasks.
    /// `claimed_bits` marks tasks already claimed in the current assignment
    /// batch (empty slice = none).
    ///
    /// Equivalent to the sequential scan (pending tasks in ascending
    /// order, executors in id order per task, inner break on PROCESS):
    /// the result is `{l ∈ {P,N,R} : some unclaimed pending task
    /// contributes l} ∪ {ANY if any task is unclaimed}` — the scan's
    /// early exits never change that set, only how fast it is found. The
    /// per-stage contribution counts are folded once and maintained
    /// incrementally from the pending-churn and residency-flip delta
    /// streams (see `ContribState`); claims are *subtracted per
    /// query*, so the picks of an assignment batch never invalidate
    /// anything. Defined for live stages only.
    pub fn valid_levels(
        &self,
        s: usize,
        pending: &PendingSet,
        claimed_bits: &[u64],
        claimed_count: u32,
    ) -> ([Locality; 4], usize) {
        debug_assert!(self.live[s], "valid levels of non-live stage {s}");
        let mut cms = self.contrib_memo.borrow_mut();
        let cm = &mut cms[s];
        if !cm.init {
            self.valid_rebuilds.set(self.valid_rebuilds.get() + 1);
            self.score_misses.set(self.score_misses.get() + 1);
            let n = self.task_blocks[s].len();
            cm.applied.clear();
            cm.applied.resize(n, 0);
            cm.dirty_bit.clear();
            cm.dirty_bit.resize(n, false);
            cm.dirty.clear();
            cm.cnt = [0u32; 4];
            for k in pending.iter() {
                let c = self.task_contrib(s, k as usize);
                cm.applied[k as usize] = c;
                contrib_add(&mut cm.cnt, c);
            }
            cm.init = true;
        } else if cm.dirty.is_empty() {
            self.score_hits.set(self.score_hits.get() + 1);
        } else {
            // Re-fold exactly the readers the residency flips re-leveled
            // since the last query. Popped dirty tasks were already
            // subtracted at pop time; skip them.
            self.score_misses.set(self.score_misses.get() + 1);
            self.score_invalidations
                .set(self.score_invalidations.get() + 1);
            let mut dirty = std::mem::take(&mut cm.dirty);
            for &k in &dirty {
                let ku = k as usize;
                cm.dirty_bit[ku] = false;
                if !self.inv_pending[s][ku] {
                    continue;
                }
                let new = self.task_contrib(s, ku);
                let old = cm.applied[ku];
                if old != new {
                    contrib_sub(&mut cm.cnt, old);
                    contrib_add(&mut cm.cnt, new);
                    cm.applied[ku] = new;
                }
            }
            dirty.clear();
            cm.dirty = dirty;
        }
        // Claims are a subset of pending, and the fold above left every
        // pending task's applied mask current: subtract those.
        let mut cnt = cm.cnt;
        if claimed_count > 0 {
            for (w, &word) in claimed_bits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = w as u32 * 64 + bits.trailing_zeros();
                    bits &= bits - 1;
                    debug_assert!(
                        pending.contains(k),
                        "claimed task {k} of stage {s} not pending"
                    );
                    contrib_sub(&mut cnt, cm.applied[k as usize]);
                }
            }
        }
        let any_unclaimed = pending.len() as u32 > claimed_count;
        let mut levels = [Locality::Any; 4];
        let mut len = 0;
        if any_unclaimed {
            for l in [Locality::Process, Locality::Node, Locality::Rack] {
                if cnt[l.index()] > 0 {
                    levels[len] = l;
                    len += 1;
                }
            }
            levels[len] = Locality::Any;
            len += 1;
        }
        (levels, len)
    }

    /// First unclaimed pending task of stage `s` whose locality on `e` is
    /// exactly `level` — the placement probe behind
    /// `pending_with_locality`. With `strict`, additionally require the
    /// task's best achievable level anywhere to be no better than `level`.
    ///
    /// Served from the stage's persistent shared scan: identical to the
    /// sequential first-match walk, but each task is examined at most
    /// once per *stage* for the stage's whole lifetime (one frontier
    /// feeds every executor's candidate bitsets — see `StageScan`).
    /// Launch pops are masked by the pending bitmap, residency flips
    /// patch the affected bits in place, and only a pending re-insertion
    /// (failure recovery) forces a rescan. Defined for live stages only.
    // lint: allow(panic-surface): bitset words and per-task rows are sized to the stage's task universe at fill time
    pub fn scan_first(
        &self,
        s: usize,
        e: ExecId,
        level: Locality,
        strict: bool,
        pending: &PendingSet,
        claimed_bits: &[u64],
    ) -> Option<u32> {
        debug_assert!(self.live[s], "placement probe on non-live stage {s}");
        self.queries.set(self.queries.get() + 1);
        let mut sms = self.scan_memo.borrow_mut();
        let sm = &mut sms[s];
        let key = pending.inserts();
        let ne = self.num_execs as usize;
        if sm.key != Some(key) {
            if sm.key.is_some() {
                self.score_invalidations
                    .set(self.score_invalidations.get() + 1);
            }
            self.score_misses.set(self.score_misses.get() + 1);
            let words = self.task_blocks[s].len().div_ceil(64);
            sm.words = words;
            sm.examined.clear();
            sm.examined.resize(words, 0);
            sm.bits.clear();
            sm.bits.resize(ne * 4 * words, 0);
            sm.cursor = pending.first();
            sm.key = Some(key);
        } else {
            self.score_hits.set(self.score_hits.get() + 1);
        }
        let li = level.index();
        let lu = li as u8;
        let words = sm.words;
        let pw = pending.word_bits();
        // 1. Already-examined candidates: first set bit of
        // `row & pending & !claimed`, ascending. Popped tasks are masked
        // out by the pending bitmap (their bits may be stale — patching
        // tracks pending readers only); the strict filter reads the live
        // best-anywhere level, not one captured at scan time.
        let row = &sm.bits[(e.index() * 4 + li) * words..][..words];
        for (w, &rw) in row.iter().enumerate() {
            let mut cand = rw & pw[w] & !claimed_bits.get(w).copied().unwrap_or(0);
            while cand != 0 {
                let k = (w * 64) as u32 + cand.trailing_zeros();
                cand &= cand - 1;
                if strict && self.inv_best[s][k as usize] < lu {
                    continue;
                }
                debug_assert_eq!(
                    self.task_level_raw(s, k as usize, e.0),
                    lu,
                    "scan bit drifted from live level (stage {s} task {k})"
                );
                debug_assert_eq!(
                    (0..self.num_execs)
                        .map(|x| self.task_level_raw(s, k as usize, x))
                        .min()
                        .unwrap_or(L_ANY),
                    self.inv_best[s][k as usize],
                    "inv_best drifted from recomputation (stage {s} task {k})"
                );
                return Some(k);
            }
        }
        // 2. Extend the shared frontier, fanning each examined task's
        // level out to every executor's bitsets. The cursor may point at
        // a since-popped task: `next_after` chains through it (see
        // `PendingSet::next_after` for why no member can be skipped while
        // the inserts key is unchanged).
        let claimed = |k: u32| -> bool { !claimed_bits.is_empty() && get_bit(claimed_bits, k) };
        let mut levels = self.levels_scratch.borrow_mut();
        while let Some(k) = sm.cursor {
            sm.cursor = pending.next_after(k);
            if !pending.contains(k) {
                continue;
            }
            self.queries.set(self.queries.get() + 1);
            self.task_levels(s, k as usize, &mut levels);
            let (w, b) = ((k / 64) as usize, 1u64 << (k % 64));
            sm.examined[w] |= b;
            for (e2, &l2) in levels.iter().enumerate() {
                sm.bits[(e2 * 4 + l2 as usize) * words + w] |= b;
            }
            if levels[e.index()] == lu
                && !claimed(k)
                && (!strict || self.inv_best[s][k as usize] >= lu)
            {
                return Some(k);
            }
        }
        None
    }

    /// Counter snapshot for [`crate::metrics::SchedulerStats`].
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            locality_queries: self.queries.get(),
            invalidations: self.global_gen,
            valid_level_rebuilds: self.valid_rebuilds.get(),
            score_cache_hits: self.score_hits.get(),
            score_cache_misses: self.score_misses.get(),
            score_cache_invalidations: self.score_invalidations.get(),
            inv_index_hits: self.inv_hits.get(),
            inv_index_updates: self.inv_updates.get(),
            inv_index_rebuilds: self.inv_rebuilds.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::{DagBuilder, RddId};

    /// One live 6-task stage over a 6-block source on 2 racks × 2 nodes ×
    /// 2 executors, plus the placement as a shadow [`DataMap`] for the
    /// brute-force oracles (tests feed it the same mutations).
    fn build() -> (dagon_dag::JobDag, Topology, LocalityIndex, DataMap) {
        let mut b = DagBuilder::new("t");
        let src = b.hdfs_rdd("in", 6, 64.0);
        let _ = b
            .stage("s")
            .tasks(6)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_narrow(src)
            .build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 2);
        let data = DataMap::place_sources(&dag, &topo, 1, 7);
        let tv: Vec<Vec<TaskView>> = vec![(0..6)
            .map(|k| TaskView {
                loc_blocks: vec![BlockId::new(RddId(0), k)],
            })
            .collect()];
        let idx = LocalityIndex::new(&dag, &topo, &data, &tv, &[true]);
        (dag, topo, idx, data)
    }

    /// Brute-force locality from the raw DataMap (the pre-index scan).
    fn brute_locality(data: &DataMap, topo: &Topology, b: BlockId, e: ExecId) -> Locality {
        if data.is_cached_in(b, e) {
            return Locality::Process;
        }
        let node = topo.node_of_exec(e);
        if data.disk_nodes(b).contains(&node)
            || data
                .cached_execs(b)
                .iter()
                .any(|x| topo.node_of_exec(*x) == node)
        {
            return Locality::Node;
        }
        let rack = topo.rack_of_node(node);
        if data
            .disk_nodes(b)
            .iter()
            .any(|n| topo.rack_of_node(*n) == rack)
            || data
                .cached_execs(b)
                .iter()
                .any(|x| topo.rack_of_exec(*x) == rack)
        {
            return Locality::Rack;
        }
        Locality::Any
    }

    #[test]
    fn matches_brute_force_after_mutations() {
        let (_dag, topo, mut idx, mut data) = build();
        let b0 = BlockId::new(RddId(0), 0);
        let b3 = BlockId::new(RddId(0), 3);
        idx.add_cached(b0, ExecId(5));
        data.add_cached(b0, ExecId(5));
        idx.add_cached(b3, ExecId(0));
        data.add_cached(b3, ExecId(0));
        idx.add_disk(b3, NodeId(3));
        data.add_disk(b3, NodeId(3));
        idx.remove_cached(b0, ExecId(5));
        data.remove_cached(b0, ExecId(5));
        for k in 0..6u32 {
            let b = BlockId::new(RddId(0), k);
            for e in 0..8u32 {
                assert_eq!(
                    idx.task_locality(0, k, ExecId(e)),
                    brute_locality(&data, &topo, b, ExecId(e)),
                    "block {k} exec {e}"
                );
            }
        }
    }

    #[test]
    fn generation_bumps_only_on_actual_change() {
        let (_dag, _topo, mut idx, _) = build();
        let b = BlockId::new(RddId(0), 1);
        let g0 = idx.generation();
        idx.add_cached(b, ExecId(2));
        let g1 = idx.generation();
        assert!(g1 > g0);
        idx.add_cached(b, ExecId(2)); // idempotent: no invalidation
        assert_eq!(idx.generation(), g1);
        idx.remove_cached(b, ExecId(2));
        assert!(idx.generation() > g1);
        idx.remove_cached(b, ExecId(2));
        let g3 = idx.generation();
        idx.remove_cached(b, ExecId(2)); // absent: no invalidation
        assert_eq!(idx.generation(), g3);
    }

    #[test]
    fn remove_disk_invalidates_and_matches_brute_force() {
        let (_dag, topo, mut idx, mut data) = build();
        let b2 = BlockId::new(RddId(0), 2);
        let g0 = idx.generation();
        let node = *data.disk_nodes(b2).first().unwrap();
        assert!(idx.on_disk_at(b2, node));
        idx.remove_disk(b2, node);
        data.remove_disk(b2, node);
        assert!(idx.generation() > g0);
        assert!(!idx.on_disk_at(b2, node));
        assert!(!idx.on_disk_anywhere(b2));
        for e in 0..8u32 {
            assert_eq!(
                idx.task_locality(0, 2, ExecId(e)),
                brute_locality(&data, &topo, b2, ExecId(e)),
                "exec {e}"
            );
        }
        let g1 = idx.generation();
        idx.remove_disk(b2, node); // absent: no invalidation
        assert_eq!(idx.generation(), g1);
    }

    #[test]
    fn valid_levels_memo_tracks_pending_and_claims() {
        let (_dag, _topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        let (lv, n) = idx.valid_levels(0, &pending, &[], 0);
        assert!(n >= 2);
        assert_eq!(lv[n - 1], Locality::Any);
        let rebuilds0 = idx.stats().valid_level_rebuilds;
        let _ = idx.valid_levels(0, &pending, &[], 0); // memo hit
        assert_eq!(idx.stats().valid_level_rebuilds, rebuilds0);
        // A pending pop (mirrored per the maintenance contract) adjusts
        // the folded counts in place: no rebuild.
        pending.remove(0);
        idx.on_pending_removed(0, 0);
        let _ = idx.valid_levels(0, &pending, &[], 0);
        assert_eq!(idx.stats().valid_level_rebuilds, rebuilds0);
        assert!(idx.check_inv_consistency(0, &pending));
        // Claims subtract from the contribution counts per query — no
        // rebuild, and a fully-claimed stage has no valid levels.
        let claimed = vec![0b10u64]; // task 1 claimed
        let (_, n1) = idx.valid_levels(0, &pending, &claimed, 1);
        assert_eq!(idx.stats().valid_level_rebuilds, rebuilds0);
        assert!(n1 >= 1);
        let all = vec![0b111110u64]; // tasks 1..=5 claimed (0 was removed)
        let (_, n2) = idx.valid_levels(0, &pending, &all, 5);
        assert_eq!(n2, 0);
        assert_eq!(idx.stats().valid_level_rebuilds, rebuilds0);
    }

    /// A claimed task's subtracted mask must be its *post-flip* one: the
    /// flip caches task 1's block (the only PROCESS-local work anywhere),
    /// and the first query after it claims task 1.
    #[test]
    fn valid_levels_subtract_claims_after_a_releveling_flip() {
        let (_dag, _topo, mut idx, _) = build();
        let pending = PendingSet::full(6);
        let has_process = |(lv, n): ([Locality; 4], usize)| lv[..n].contains(&Locality::Process);
        assert!(!has_process(idx.valid_levels(0, &pending, &[], 0)));
        idx.add_cached(BlockId::new(RddId(0), 1), ExecId(5));
        let claimed = vec![0b10u64]; // task 1 claimed
        let (lv, n) = idx.valid_levels(0, &pending, &claimed, 1);
        assert!(n >= 1 && !lv[..n].contains(&Locality::Process));
        assert_eq!(lv[n - 1], Locality::Any);
        assert!(has_process(idx.valid_levels(0, &pending, &[], 0)));
        assert!(idx.check_inv_consistency(0, &pending));
    }

    #[test]
    fn scan_first_matches_sequential_scan() {
        let (_dag, _topo, mut idx, _) = build();
        idx.add_cached(BlockId::new(RddId(0), 2), ExecId(3));
        let pending = PendingSet::full(6);
        // Oracle: sequential first-match over the pending set.
        let seq = |idx: &LocalityIndex, e: ExecId, level: Locality, strict: bool| {
            pending.iter().find(|&k| {
                idx.task_locality(0, k, e) == level
                    && (!strict || idx.task_best_level(0, k) >= level)
            })
        };
        for e in 0..8u32 {
            for level in Locality::ALL {
                for strict in [false, true] {
                    assert_eq!(
                        idx.scan_first(0, ExecId(e), level, strict, &pending, &[]),
                        seq(&idx, ExecId(e), level, strict),
                        "exec {e} level {level:?} strict {strict}"
                    );
                }
            }
        }
        // Claims are skipped at query time without invalidating the memo.
        let hits0 = idx.stats().score_cache_hits;
        let unclaimed = idx.scan_first(0, ExecId(3), Locality::Process, false, &pending, &[]);
        assert_eq!(unclaimed, Some(2));
        let claimed = vec![0b100u64]; // task 2 claimed
        let after = idx.scan_first(0, ExecId(3), Locality::Process, false, &pending, &claimed);
        assert_eq!(after, None);
        assert!(idx.stats().score_cache_hits > hits0);
    }

    /// Brute-force inverted-index gate counts straight from
    /// [`LocalityIndex::task_level_raw`].
    fn brute_counts(
        idx: &LocalityIndex,
        s: usize,
        pending: &PendingSet,
        e: ExecId,
        level: Locality,
    ) -> (u32, u32) {
        let (mut cnt, mut strict) = (0, 0);
        for k in pending.iter() {
            let l = idx.task_level_raw(s, k as usize, e.0);
            if l != level.index() as u8 {
                continue;
            }
            cnt += 1;
            let best = (0..idx.num_execs)
                .map(|x| idx.task_level_raw(s, k as usize, x))
                .min()
                .unwrap_or(L_ANY);
            if best == l {
                strict += 1;
            }
        }
        (cnt, strict)
    }

    #[test]
    fn inv_counts_match_brute_force_through_history() {
        let (_dag, _topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
        assert!(idx.check_inv_consistency(0, &pending));

        // Interleave residency flips with pending pops/reinserts,
        // checking the full oracle and the per-gate counts at each step.
        let b0 = BlockId::new(RddId(0), 0);
        let b4 = BlockId::new(RddId(0), 4);
        idx.add_cached(b0, ExecId(1));
        assert!(idx.check_inv_consistency(0, &pending));
        pending.remove(2);
        idx.on_pending_removed(0, 2);
        assert!(idx.check_inv_consistency(0, &pending));
        idx.add_cached(b4, ExecId(6));
        idx.add_disk(b4, NodeId(0));
        assert!(idx.check_inv_consistency(0, &pending));
        pending.remove(0);
        idx.on_pending_removed(0, 0);
        idx.remove_cached(b0, ExecId(1));
        assert!(idx.check_inv_consistency(0, &pending));
        assert!(pending.insert(2));
        idx.on_pending_inserted(0, 2);
        assert!(idx.check_inv_consistency(0, &pending));
        // Crash-style loss: drop every replica of block 4.
        idx.remove_cached(b4, ExecId(6));
        idx.remove_disk(b4, NodeId(0));
        for n in 0..4u32 {
            idx.remove_disk(b4, NodeId(n));
        }
        assert!(idx.check_inv_consistency(0, &pending));

        for e in 0..8u32 {
            for level in Locality::ALL {
                let (cnt, strict) = brute_counts(&idx, 0, &pending, ExecId(e), level);
                assert_eq!(
                    idx.pending_level_count(0, ExecId(e), level),
                    cnt,
                    "exec {e} level {level:?}"
                );
                assert_eq!(
                    idx.pending_strict_count(0, ExecId(e), level),
                    strict,
                    "strict exec {e} level {level:?}"
                );
            }
        }
        assert!(idx.stats().inv_index_updates > 0);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
    }

    #[test]
    fn rack_batched_levels_match_per_exec_recomputation() {
        let (_dag, _topo, mut idx, _) = build();
        idx.add_cached(BlockId::new(RddId(0), 1), ExecId(7));
        idx.add_disk(BlockId::new(RddId(0), 5), NodeId(2));
        let mut out = Vec::new();
        for k in 0..6 {
            for rack in 0..idx.rack_exec_range.len() {
                out.clear();
                idx.task_levels_in_rack(0, k, rack, &mut out);
                let (ra, rb) = idx.rack_exec_range[rack];
                assert_eq!(out.len(), (rb - ra) as usize);
                for (j, &l) in out.iter().enumerate() {
                    assert_eq!(
                        l,
                        idx.task_level_raw(0, k, ra + j as u32),
                        "task {k} rack {rack} slot {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_zero_implies_probe_none() {
        let (_dag, _topo, mut idx, _) = build();
        let pending = PendingSet::full(6);
        idx.add_cached(BlockId::new(RddId(0), 3), ExecId(2));
        for e in 0..8u32 {
            for level in Locality::ALL {
                for strict in [false, true] {
                    let gate = if strict {
                        idx.pending_strict_count(0, ExecId(e), level)
                    } else {
                        idx.pending_level_count(0, ExecId(e), level)
                    };
                    let probe = idx.scan_first(0, ExecId(e), level, strict, &pending, &[]);
                    if gate == 0 {
                        assert_eq!(probe, None, "exec {e} {level:?} strict {strict}");
                    } else {
                        assert!(probe.is_some(), "exec {e} {level:?} strict {strict}");
                    }
                }
            }
        }
        assert!(idx.stats().inv_index_hits > 0);
    }

    #[test]
    fn oracle_detects_injected_drift() {
        let (_dag, _topo, mut idx, _) = build();
        let pending = PendingSet::full(6);
        assert!(idx.check_inv_consistency(0, &pending));
        let slot = idx.inv_cnt[0].iter().position(|&c| c > 0).unwrap();
        idx.inv_cnt[0][slot] -= 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
        idx.inv_cnt[0][slot] += 1; // lint: allow(mutation-escape): undo the injected drift
        assert!(idx.check_inv_consistency(0, &pending));
        idx.inv_best_any[0] += 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
    }

    /// Two stages over disjoint inputs: stage 0 (live) reads the source,
    /// stage 1 (not yet live) reads stage 0's output partition-wise.
    fn build_two() -> (LocalityIndex, RddId) {
        let mut b = DagBuilder::new("t2");
        let src = b.hdfs_rdd("in", 6, 64.0);
        let (_, out) = b
            .stage("a")
            .tasks(6)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_narrow(src)
            .build();
        let _ = b
            .stage("b")
            .tasks(6)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_narrow(out)
            .build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 2);
        let data = DataMap::place_sources(&dag, &topo, 1, 7);
        let tv: Vec<Vec<TaskView>> = [src, out]
            .iter()
            .map(|&r| {
                (0..6)
                    .map(|k| TaskView {
                        loc_blocks: vec![BlockId::new(r, k)],
                    })
                    .collect()
            })
            .collect();
        let idx = LocalityIndex::new(&dag, &topo, &data, &tv, &[true, false]);
        (idx, out)
    }

    #[test]
    fn flips_on_non_live_readers_cost_no_index_updates() {
        let (mut idx, out) = build_two();
        let pending1 = PendingSet::full(6);
        assert!(idx.check_live_set(&[0]));
        assert!(idx.check_inv_consistency(1, &pending1));
        // Block 2 of stage 0's output is read only by stage 1's task 2,
        // which is not live: the flips re-level nothing.
        let b = BlockId::new(out, 2);
        let u0 = idx.stats().inv_index_updates;
        idx.add_disk(b, NodeId(1));
        idx.add_cached(b, ExecId(4));
        assert_eq!(idx.stats().inv_index_updates, u0);
        assert!(idx.check_inv_consistency(1, &pending1));
        // Once live, the same reader is re-leveled by the next flip.
        idx.set_stage_live(1, true, &pending1);
        assert!(idx.check_live_set(&[0, 1]));
        assert!(idx.check_inv_consistency(1, &pending1));
        let u1 = idx.stats().inv_index_updates;
        idx.remove_cached(b, ExecId(4));
        assert!(idx.stats().inv_index_updates > u1);
        assert!(idx.check_inv_consistency(1, &pending1));
    }

    #[test]
    fn reactivation_rebuilds_from_pending_and_matches_brute_force() {
        let (_dag, _topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        // Warm both memos, then take the stage off the index.
        let _ = idx.valid_levels(0, &pending, &[], 0);
        let _ = idx.scan_first(0, ExecId(0), Locality::Node, false, &pending, &[]);
        idx.set_stage_live(0, false, &pending);
        assert!(idx.check_live_set(&[]));
        assert!(idx.check_inv_consistency(0, &pending));
        // Churn while off the index is not mirrored.
        pending.remove(1);
        idx.on_pending_removed(0, 1);
        idx.add_cached(BlockId::new(RddId(0), 3), ExecId(6));
        idx.remove_disk(BlockId::new(RddId(0), 4), NodeId(0));
        assert!(idx.check_inv_consistency(0, &pending));
        // Re-activation reads the authoritative pending set.
        idx.set_stage_live(0, true, &pending);
        assert!(idx.check_live_set(&[0]));
        assert!(idx.check_inv_consistency(0, &pending));
        for e in 0..8u32 {
            for level in Locality::ALL {
                let (cnt, strict) = brute_counts(&idx, 0, &pending, ExecId(e), level);
                assert_eq!(idx.pending_level_count(0, ExecId(e), level), cnt);
                assert_eq!(idx.pending_strict_count(0, ExecId(e), level), strict);
            }
        }
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
    }

    #[test]
    fn range_any_handles_word_boundaries() {
        let mut row = vec![0u64; 3];
        assert!(!range_any(&row, 0, 192));
        row[1] = 1 << 63; // bit 127
        assert!(range_any(&row, 0, 192));
        assert!(range_any(&row, 127, 128));
        assert!(!range_any(&row, 0, 127));
        assert!(!range_any(&row, 128, 192));
        assert!(range_any(&row, 64, 128));
        assert!(!range_any(&row, 5, 5));
    }
}
