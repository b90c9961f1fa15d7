//! [`LocalityIndex`]: block residency, and the locality sets of every
//! task of the stages on the ready list, for the scheduler fast path.
//!
//! Residency lives in dense bitsets, one row of `u64` words per block,
//! indexed by a flat block id (per-RDD offsets):
//!
//! * the **ground truth**: a cached-executors row and a disk-nodes row,
//!   changed only through the four mutators
//!   ([`add_disk`](LocalityIndex::add_disk),
//!   [`remove_disk`](LocalityIndex::remove_disk),
//!   [`add_cached`](LocalityIndex::add_cached),
//!   [`remove_cached`](LocalityIndex::remove_cached));
//! * two **derived** rows the same mutators keep current: the nodes where
//!   the block is node-local (a disk replica, or a cached copy on one of
//!   the node's executors) and the racks holding any replica.
//!
//! A block's level on executor `e` is then three bit tests: cached on `e`
//! (PROCESS), node-local at `e`'s node (NODE), rack-local at `e`'s rack
//! (RACK), else ANY. A task's level is the max over its locality blocks,
//! so the task is PROCESS on `e` exactly when *every* block is cached on
//! `e`, NODE-or-better exactly when every block is node-local to `e`'s
//! node, and so on: a task's locality factors into one membership bit per
//! executor, node and rack.
//!
//! That factoring is what the index keeps for each **live** stage (one on
//! the view's ready list; the simulator flips it through
//! [`set_stage_live`](LocalityIndex::set_stage_live) from the one place
//! that maintains that list). Each is a bitset over the stage's task ids:
//!
//! * `P[e]`, `N[n]`, `R[r]`: every locality block is cached on executor
//!   `e`, node-local to node `n`, rack-local to rack `r`;
//! * `Pany ⊆ Nany ⊆ Rany`: the task reaches PROCESS, NODE or RACK on some
//!   executor;
//! * `CN`, `CR`: walking executors in id order up to the task's first
//!   PROCESS one, some executor sits at exactly NODE (RACK) — the task's
//!   contributions to Spark's `computeValidLocalityLevels`.
//!
//! A task with no locality blocks is ANY everywhere and sits in no row.
//! The sets cover every task of a live stage, pending or not; queries
//! mask them with the [`PendingSet`] bitmap and the batch's claim bits,
//! so launch pops and re-inserts touch nothing here. A residency flip
//! re-derives only its live readers' bits in the flipped executor, node
//! and rack. `DESIGN.md` §26 gives the set algebra behind each query and
//! the cost of every path, §29 why [`scan_first`](LocalityIndex::scan_first)
//! is the only per-executor placement probe, §30 the node-scope test
//! ([`node_has_pending`](LocalityIndex::node_has_pending)) that lets the
//! walk skip executors, and §18 why indexing only live stages
//! leaves every schedule unchanged.
//!
//! Each mutation that changes a bit advances the global
//! [`generation`](LocalityIndex::generation). The unit tests and property
//! tests cross-check the index against a shadow `DataMap` fed the same
//! mutations.

// Packed u8 levels, u16 rack codes and u32 flat ids: counts are bounded
// by cluster size (execs, nodes, racks) and per-RDD block counts, all far
// below the target types' range by construction.
#![allow(clippy::cast_possible_truncation)]

use std::cell::Cell;

use dagon_dag::{BlockId, JobDag, RddId};

use crate::config::ReadTier;
use crate::hdfs::DataMap;
use crate::locality::Locality;
use crate::pending::PendingSet;
use crate::prefetch::FlipSet;
use crate::topology::{ExecId, NodeId, Topology};
use crate::view::TaskView;

/// Scheduler-overhead counters the index maintains (interior mutability:
/// queries run through the shared [`crate::view::SimView`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Locality lookups answered: read tiers, task levels and placement
    /// probes. A probe is a [`LocalityIndex::scan_first`] or a node-scope
    /// test ([`LocalityIndex::node_has_pending`]), one each.
    pub locality_queries: u64,
    /// Residency mutations that changed a bit (the index generation).
    pub invalidations: u64,
    /// Placement probes (see `locality_queries`) that found no task.
    pub inv_index_hits: u64,
    /// Live readers whose locality bits a residency flip changed, plus
    /// one per stage liveness flip.
    pub inv_index_updates: u64,
    /// From-scratch builds. Must stay 1 (the initial build in
    /// [`LocalityIndex::new`]), like `ready_list_rebuilds`.
    pub inv_index_rebuilds: u64,
}

const L_PROCESS: u8 = Locality::Process as u8;
const L_NODE: u8 = Locality::Node as u8;
const L_RACK: u8 = Locality::Rack as u8;
const L_ANY: u8 = Locality::Any as u8;

/// The summary rows of a live stage's sets, after its executor, node and
/// rack rows (offsets from the first summary row).
const PANY: usize = 0;
const NANY: usize = 1;
const RANY: usize = 2;
const CN: usize = 3;
const CR: usize = 4;
const SUMMARY_ROWS: usize = 5;

/// Bitmask of the levels a task with per-executor `levels` contributes to
/// its stage's valid locality set: the levels seen walking executors in id
/// order up to and including the first PROCESS-local one — exactly the
/// sequential `computeValidLocalityLevels` inner loop with its early
/// break. The debug oracle's definition of `CN`/`CR`.
fn contrib_of(levels: &[u8]) -> u8 {
    let mut c = 0u8;
    for &l in levels {
        c |= 1 << l;
        if l == L_PROCESS {
            break;
        }
    }
    c
}

/// Bits of word `w` that fall in the bit range `[a, b)`.
#[inline]
fn range_mask(w: usize, a: u32, b: u32) -> u64 {
    let lo = w as u32 * 64;
    let (start, end) = (a.saturating_sub(lo).min(64), b.saturating_sub(lo).min(64));
    if start >= end {
        0
    } else {
        (!0u64 >> (64 - (end - start))) << start
    }
}

/// Any bit set in the contiguous bit range `[a, b)` of `row`?
#[inline]
fn range_any(row: &[u64], a: u32, b: u32) -> bool {
    a < b
        && ((a / 64) as usize..=((b - 1) / 64) as usize).any(|w| row[w] & range_mask(w, a, b) != 0)
}

#[inline]
fn get_bit(row: &[u64], i: u32) -> bool {
    row[(i / 64) as usize] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] |= 1 << (i % 64);
}

/// Set bit `i` of `row` to `on`; returns whether it changed.
#[inline]
fn put_bit(row: &mut [u64], i: u32, on: bool) -> bool {
    let (w, m) = ((i / 64) as usize, 1u64 << (i % 64));
    let was = row[w] & m != 0;
    if on {
        row[w] |= m;
    } else {
        row[w] &= !m;
    }
    was != on
}

/// The set bits, ascending, of the `n_words`-word bitset whose word `w`
/// is `word(w)`.
fn set_bits(n_words: usize, word: impl Fn(usize) -> u64) -> impl Iterator<Item = u32> {
    (0..n_words).flat_map(move |w| {
        let mut bits = word(w);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                i
            })
        })
    })
}

/// Word `w` of the AND of `blocks`' rows in `bits` (`words` per row): the
/// scopes where every block qualifies. All ones for no blocks.
#[inline]
fn common_word(bits: &[u64], words: usize, blocks: &[u32], w: usize) -> u64 {
    blocks
        .iter()
        .fold(!0, |acc, &b| acc & bits[b as usize * words + w])
}

/// The `i`-th span of a compressed-row pair: `items[start[i] ..
/// start[i + 1]]`.
#[inline]
fn span<'a, T>(start: &[u32], items: &'a [T], i: usize) -> &'a [T] {
    &items[start[i] as usize..start[i + 1] as usize]
}

/// A task set as `plus ∖ minus` (`plus = None`: every task), unmasked.
type Diff<'a> = (Option<&'a [u64]>, Option<&'a [u64]>);

#[inline]
fn diff_word(d: Diff<'_>, w: usize) -> u64 {
    d.0.map_or(!0, |p| p[w]) & !d.1.map_or(0, |m| m[w])
}

/// Block residency plus the topology summary every level test needs.
// lint: incremental(cached, mutators = [cached_row_mut])
// lint: incremental(disk, mutators = [disk_row_mut])
// lint: incremental(node_local, mutators = [node_row_mut])
// lint: incremental(rack_local, mutators = [rack_row_mut])
struct Residency {
    /// Flat block id = `rdd_base[rdd] + partition`.
    rdd_base: Vec<u32>,
    exec_words: usize,
    node_words: usize,
    rack_words: usize,
    /// `cached[block × exec_words ..][..exec_words]`: executors caching
    /// the block.
    cached: Vec<u64>,
    /// `disk[block × node_words ..][..node_words]`: nodes holding a disk
    /// replica.
    disk: Vec<u64>,
    /// Same layout: nodes where the block is node-local (derived).
    node_local: Vec<u64>,
    /// `rack_local[block × rack_words ..][..rack_words]`: racks holding
    /// any replica (derived).
    rack_local: Vec<u64>,
    exec_node: Vec<u32>,
    node_rack: Vec<u16>,
    /// Executors of node `n` are `node_exec_range[n].0 .. .1`.
    node_exec_range: Vec<(u32, u32)>,
    /// Nodes of rack `r` are `rack_node_range[r].0 .. .1`.
    rack_node_range: Vec<(u32, u32)>,
    /// Executors of rack `r` are `rack_exec_range[r].0 .. .1`.
    rack_exec_range: Vec<(u32, u32)>,
    /// Nodes and racks hosting at least one executor: only those can put
    /// a task at NODE or RACK anywhere.
    exec_nodes: Vec<u64>,
    exec_racks: Vec<u64>,
}

impl Residency {
    /// Empty residency over `dag`'s blocks on `topo`, whose ids must be
    /// contiguous and ascending: executors per node, nodes per rack
    /// ([`Topology::build`] assigns them so).
    fn new(dag: &JobDag, topo: &Topology) -> Self {
        let mut rdd_base = Vec::with_capacity(dag.num_rdds());
        let mut n_blocks = 0usize;
        for r in dag.rdds() {
            rdd_base.push(n_blocks as u32);
            n_blocks += r.num_partitions as usize;
        }
        let (ne, nn, nr) = (topo.num_execs(), topo.num_nodes(), topo.rack_nodes.len());
        let (exec_words, node_words, rack_words) = (
            ne.div_ceil(64).max(1),
            nn.div_ceil(64).max(1),
            nr.div_ceil(64).max(1),
        );
        // An empty node or rack gets the empty range at its successor's
        // start, so ranges stay ascending.
        let ranges = |groups: Vec<Vec<u32>>| -> Vec<(u32, u32)> {
            let mut next = 0;
            groups
                .iter()
                .map(|ids| {
                    let lo = ids.first().copied().unwrap_or(next);
                    let hi = lo + ids.len() as u32;
                    debug_assert!(
                        lo == next && ids.iter().copied().eq(lo..hi),
                        "topology ids must be contiguous and ascending"
                    );
                    next = hi;
                    (lo, hi)
                })
                .collect()
        };
        let node_exec_range = ranges(
            topo.node_execs
                .iter()
                .map(|es| es.iter().map(|e| e.0).collect())
                .collect(),
        );
        let rack_node_range = ranges(
            topo.rack_nodes
                .iter()
                .map(|ns| ns.iter().map(|n| n.0).collect())
                .collect(),
        );
        let rack_exec_range: Vec<(u32, u32)> = rack_node_range
            .iter()
            .map(|&(na, nb)| {
                let start = node_exec_range.get(na as usize).map_or(ne as u32, |r| r.0);
                let end = if na < nb {
                    node_exec_range[nb as usize - 1].1
                } else {
                    start
                };
                (start, end)
            })
            .collect();
        let mut exec_nodes = vec![0; node_words];
        for (n, &(a, b)) in node_exec_range.iter().enumerate() {
            if a < b {
                set_bit(&mut exec_nodes, n as u32);
            }
        }
        let mut exec_racks = vec![0; rack_words];
        for (r, &(a, b)) in rack_exec_range.iter().enumerate() {
            if a < b {
                set_bit(&mut exec_racks, r as u32);
            }
        }
        Self {
            rdd_base,
            exec_words,
            node_words,
            rack_words,
            cached: vec![0; exec_words * n_blocks],
            disk: vec![0; node_words * n_blocks],
            node_local: vec![0; node_words * n_blocks],
            rack_local: vec![0; rack_words * n_blocks],
            exec_node: topo.exec_node.iter().map(|n| n.0).collect(),
            node_rack: topo.node_rack.iter().map(|r| r.0).collect(),
            node_exec_range,
            rack_node_range,
            rack_exec_range,
            exec_nodes,
            exec_racks,
        }
    }

    fn num_execs(&self) -> usize {
        self.exec_node.len()
    }

    fn num_nodes(&self) -> usize {
        self.node_rack.len()
    }

    fn num_racks(&self) -> usize {
        self.rack_node_range.len()
    }

    #[inline]
    fn flat_id(&self, b: BlockId) -> usize {
        (self.rdd_base[b.rdd.index()] + b.partition) as usize
    }

    /// Number of flat block ids.
    fn num_blocks(&self) -> usize {
        self.cached.len() / self.exec_words
    }

    /// The block with flat id `bi` (inverse of `flat_id`).
    fn block_of(&self, bi: usize) -> BlockId {
        // Bases are non-decreasing; the last RDD starting at or before
        // `bi` is the one with a non-empty range holding it.
        let r = self.rdd_base.partition_point(|&o| o as usize <= bi) - 1;
        BlockId::new(RddId(r as u32), bi as u32 - self.rdd_base[r])
    }

    #[inline]
    fn cached_row(&self, bi: usize) -> &[u64] {
        &self.cached[bi * self.exec_words..][..self.exec_words]
    }

    #[inline]
    fn disk_row(&self, bi: usize) -> &[u64] {
        &self.disk[bi * self.node_words..][..self.node_words]
    }

    #[inline]
    fn node_row(&self, bi: usize) -> &[u64] {
        &self.node_local[bi * self.node_words..][..self.node_words]
    }

    #[inline]
    fn rack_row(&self, bi: usize) -> &[u64] {
        &self.rack_local[bi * self.rack_words..][..self.rack_words]
    }

    fn cached_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.cached[bi * self.exec_words..][..self.exec_words]
    }

    fn disk_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.disk[bi * self.node_words..][..self.node_words]
    }

    fn node_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.node_local[bi * self.node_words..][..self.node_words]
    }

    fn rack_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.rack_local[bi * self.rack_words..][..self.rack_words]
    }

    /// Set block `bi`'s cached bit on `e` to `on`; returns whether it
    /// changed.
    fn flip_cached(&mut self, bi: usize, e: u32, on: bool) -> bool {
        let changed = put_bit(self.cached_row_mut(bi), e, on);
        if changed {
            self.rederive(bi, self.exec_node[e as usize]);
        }
        changed
    }

    /// Set block `bi`'s disk bit on node `n` to `on`; returns whether it
    /// changed.
    fn flip_disk(&mut self, bi: usize, n: u32, on: bool) -> bool {
        let changed = put_bit(self.disk_row_mut(bi), n, on);
        if changed {
            self.rederive(bi, n);
        }
        changed
    }

    /// Re-derive block `bi`'s node-local bit at `n` and its rack-local bit
    /// at `n`'s rack from the ground-truth rows.
    fn rederive(&mut self, bi: usize, n: u32) {
        let node_local = self.node_local_raw(bi, n as usize);
        put_bit(self.node_row_mut(bi), n, node_local);
        let r = self.node_rack[n as usize] as u32;
        let (na, nb) = self.rack_node_range[r as usize];
        let rack_local = range_any(self.node_row(bi), na, nb);
        put_bit(self.rack_row_mut(bi), r, rack_local);
    }

    /// Node-local from the ground truth: a disk replica on `n` or a cached
    /// copy on one of its executors.
    fn node_local_raw(&self, bi: usize, n: usize) -> bool {
        let (ea, eb) = self.node_exec_range[n];
        get_bit(self.disk_row(bi), n as u32) || range_any(self.cached_row(bi), ea, eb)
    }

    /// Rack-local from the ground truth: any replica in rack `r`.
    fn rack_local_raw(&self, bi: usize, r: usize) -> bool {
        let (na, nb) = self.rack_node_range[r];
        let (ea, eb) = self.rack_exec_range[r];
        range_any(self.disk_row(bi), na, nb) || range_any(self.cached_row(bi), ea, eb)
    }

    /// Block `bi`'s level on executor `e` from the ground-truth rows alone
    /// — the debug oracle's executor walk.
    fn block_level_raw(&self, bi: usize, e: u32) -> u8 {
        let n = self.exec_node[e as usize] as usize;
        if get_bit(self.cached_row(bi), e) {
            L_PROCESS
        } else if self.node_local_raw(bi, n) {
            L_NODE
        } else if self.rack_local_raw(bi, self.node_rack[n] as usize) {
            L_RACK
        } else {
            L_ANY
        }
    }

    /// A task's level on executor `e`: three bit tests per block.
    fn task_level(&self, blocks: &[u32], e: u32) -> u8 {
        let n = self.exec_node[e as usize];
        let r = self.node_rack[n as usize] as u32;
        blocks.iter().fold(
            if blocks.is_empty() { L_ANY } else { L_PROCESS },
            |worst, &b| {
                let bi = b as usize;
                worst.max(if get_bit(self.cached_row(bi), e) {
                    L_PROCESS
                } else if get_bit(self.node_row(bi), n) {
                    L_NODE
                } else if get_bit(self.rack_row(bi), r) {
                    L_RACK
                } else {
                    L_ANY
                })
            },
        )
    }

    /// A task's summary bits (`1 << PANY` … `1 << CR`) from its blocks'
    /// rows: one AND pass per scope kind, no executor walk. Executors
    /// ascend with nodes and nodes with racks, so the first executor at
    /// exactly NODE is the first one of the first node-local node, and the
    /// first at exactly RACK is the first one of the first node that sits
    /// in a rack-local rack without being node-local itself.
    fn summary(&self, blocks: &[u32]) -> u8 {
        if blocks.is_empty() {
            return 0;
        }
        let (ew, nw, rw) = (self.exec_words, self.node_words, self.rack_words);
        let first_p = set_bits(ew, |w| common_word(&self.cached, ew, blocks, w)).next();
        let first_n = set_bits(nw, |w| {
            common_word(&self.node_local, nw, blocks, w) & self.exec_nodes[w]
        })
        .next();
        let mut racks = set_bits(rw, |w| {
            common_word(&self.rack_local, rw, blocks, w) & self.exec_racks[w]
        })
        .peekable();
        let mut m = 0u8;
        for (on, row) in [
            (first_p.is_some(), PANY),
            (first_n.is_some(), NANY),
            (racks.peek().is_some(), RANY),
        ] {
            m |= u8::from(on) << row;
        }
        let limit = first_p.unwrap_or(u32::MAX);
        if first_n.is_some_and(|n| self.node_exec_range[n as usize].0 < limit) {
            m |= 1 << CN;
        }
        let rack_only = racks.find_map(|r| {
            let (na, nb) = self.rack_node_range[r as usize];
            ((na / 64) as usize..=((nb - 1) / 64) as usize).find_map(|w| {
                let x = !common_word(&self.node_local, nw, blocks, w)
                    & self.exec_nodes[w]
                    & range_mask(w, na, nb);
                (x != 0).then(|| w as u32 * 64 + x.trailing_zeros())
            })
        });
        if rack_only.is_some_and(|n| self.node_exec_range[n as usize].0 < limit) {
            m |= 1 << CR;
        }
        m
    }
}

/// Block residency and the live stages' task sets (see the module docs).
/// A live stage's buffer holds the rows `P[e]` for every executor, then
/// `N[n]` for every node, `R[r]` for every rack, then the five summaries.
// lint: incremental(live, mutators = [set_stage_live], oracle = check_live_set)
// lint: incremental(sets, mutators = [activate, set_stage_live, relevel], oracle = check_inv_consistency)
// lint: incremental(readers)
// lint: hotpath(relevel, scan_first, node_has_pending, first_in)
pub struct LocalityIndex {
    res: Residency,
    /// Residency mutations that changed a bit (monotone).
    global_gen: u64,
    /// Stage `s`'s tasks are the global tasks `task_base[s] ..
    /// task_base[s + 1]`.
    task_base: Vec<u32>,
    /// Global task `t`'s locality blocks (flat ids) are the `t`-th span of
    /// `task_blocks` (see [`span`]).
    block_start: Vec<u32>,
    task_blocks: Vec<u32>,
    /// Block `b`'s readers, the `(stage, task)` pairs listing it
    /// (deduplicated), are the `b`-th span of `readers`: exactly the tasks
    /// a flip on the block can re-level.
    reader_start: Vec<u32>,
    readers: Vec<(u32, u32)>,
    /// Per stage: is it indexed? Exactly the stages on the view's ready
    /// list.
    live: Vec<bool>,
    /// `sets[stage][row × words ..][..words]`: a live stage's task sets,
    /// `words = ceil(tasks / 64)`; empty while the stage is not live.
    sets: Vec<Vec<u64>>,
    spare: Vec<Vec<u64>>,
    queries: Cell<u64>,
    inv_hits: Cell<u64>,
    inv_updates: u64,
    /// Flat ids of the blocks that gained a disk replica, gained their
    /// first cached copy or lost their last since the last
    /// [`drain_candidate_flips`](Self::drain_candidate_flips). Empty
    /// (recording nothing) until
    /// [`watch_candidates`](Self::watch_candidates).
    cand_flips: FlipSet,
    /// Disk replicas removed since the last drain, while watched.
    cand_disk_drops: Vec<(BlockId, NodeId)>,
}

impl LocalityIndex {
    /// Build the index over an initial placement. `task_views` supplies
    /// each task's locality blocks (narrow inputs); `live[s]` says whether
    /// stage `s` starts on the ready list. The placement is read once:
    /// from here on residency changes arrive through the mutators.
    pub fn new(
        dag: &JobDag,
        topo: &Topology,
        data: &DataMap,
        task_views: &[Vec<TaskView>],
        live: &[bool],
    ) -> Self {
        assert_eq!(live.len(), task_views.len(), "one live flag per stage");
        let mut res = Residency::new(dag, topo);
        for r in dag.rdds() {
            for b in r.blocks() {
                let bi = res.flat_id(b);
                for n in data.disk_nodes(b) {
                    res.flip_disk(bi, n.0, true);
                }
                for e in data.cached_execs(b) {
                    res.flip_cached(bi, e.0, true);
                }
            }
        }
        let (mut task_base, mut block_start, mut task_blocks) = (vec![0], vec![0], Vec::new());
        for per_task in task_views {
            for tv in per_task {
                task_blocks.extend(tv.loc_blocks.iter().map(|&b| res.flat_id(b) as u32));
                block_start.push(task_blocks.len() as u32);
            }
            task_base.push(block_start.len() as u32 - 1);
        }
        // Readers by counting sort: count per block, then fill in (stage,
        // task) order. A block a task lists twice is read once.
        let n_blocks = res.cached.len() / res.exec_words;
        let each_read = |f: &mut dyn FnMut(usize, (u32, u32))| {
            for s in 0..task_views.len() {
                for t in task_base[s]..task_base[s + 1] {
                    let blocks = span(&block_start, &task_blocks, t as usize);
                    for (i, &b) in blocks.iter().enumerate() {
                        if !blocks[..i].contains(&b) {
                            f(b as usize, (s as u32, t - task_base[s]));
                        }
                    }
                }
            }
        };
        let mut reader_start = vec![0u32; n_blocks + 1];
        each_read(&mut |b, _| reader_start[b + 1] += 1);
        for b in 0..n_blocks {
            reader_start[b + 1] += reader_start[b];
        }
        let mut readers = vec![(0, 0); reader_start[n_blocks] as usize];
        let mut fill = reader_start.clone();
        each_read(&mut |b, read| {
            readers[fill[b] as usize] = read;
            fill[b] += 1;
        });
        let mut idx = Self {
            res,
            global_gen: 0,
            task_base,
            block_start,
            task_blocks,
            reader_start,
            readers,
            live: live.to_vec(),
            sets: vec![Vec::new(); task_views.len()],
            spare: Vec::new(),
            queries: Cell::new(0),
            inv_hits: Cell::new(0),
            inv_updates: 0,
            cand_flips: FlipSet::default(),
            cand_disk_drops: Vec::new(),
        };
        // The run's one from-scratch build: the initially live stages.
        for (s, &on) in live.iter().enumerate() {
            if on {
                idx.activate(s);
            }
        }
        idx
    }

    /// Words per task bitset of stage `s`.
    #[inline]
    fn words(&self, s: usize) -> usize {
        self.num_tasks(s).div_ceil(64)
    }

    fn num_tasks(&self, s: usize) -> usize {
        (self.task_base[s + 1] - self.task_base[s]) as usize
    }

    /// Task `(s, k)`'s locality blocks.
    fn blocks(&self, s: usize, k: usize) -> &[u32] {
        span(
            &self.block_start,
            &self.task_blocks,
            self.task_base[s] as usize + k,
        )
    }

    /// First summary row; `P[e]` is row `e`, `N[n]` row `execs + n` and
    /// `R[r]` row `execs + nodes + r`.
    #[inline]
    fn summary_base(&self) -> usize {
        self.res.num_execs() + self.res.num_nodes() + self.res.num_racks()
    }

    /// Row `i` of live stage `s`'s sets.
    #[inline]
    fn set_row(&self, s: usize, i: usize) -> &[u64] {
        let w = self.words(s);
        &self.sets[s][i * w..][..w]
    }

    // ------------------------------------------------------------------
    // Residency mutations
    // ------------------------------------------------------------------

    /// Record a block written to a node's disk (task output / spill).
    pub fn add_disk(&mut self, b: BlockId, node: NodeId) {
        self.flip_disk(b, node, true);
    }

    /// Remove a node's disk replica (executor crash losing local output
    /// files).
    pub fn remove_disk(&mut self, b: BlockId, node: NodeId) {
        self.flip_disk(b, node, false);
    }

    /// Record a cache insertion.
    pub fn add_cached(&mut self, b: BlockId, exec: ExecId) {
        self.flip_cached(b, exec, true);
    }

    /// Record a cache eviction.
    pub fn remove_cached(&mut self, b: BlockId, exec: ExecId) {
        self.flip_cached(b, exec, false);
    }

    fn flip_disk(&mut self, b: BlockId, node: NodeId, on: bool) {
        let bi = self.res.flat_id(b);
        let was_local = get_bit(self.res.node_row(bi), node.0);
        if self.res.flip_disk(bi, node.0, on) {
            self.global_gen += 1;
            if on {
                self.cand_flips.insert(bi);
            } else if self.cand_flips.is_watching() {
                self.cand_disk_drops.push((b, node));
            }
            // Levels move only with the node-local bit, which a cached
            // copy on the node holds on its own.
            if get_bit(self.res.node_row(bi), node.0) != was_local {
                self.relevel(bi, None, node.0);
            }
        }
    }

    fn flip_cached(&mut self, b: BlockId, exec: ExecId, on: bool) {
        let bi = self.res.flat_id(b);
        if self.res.flip_cached(bi, exec.0, on) {
            self.global_gen += 1;
            // A first copy in leaves one, a last copy out leaves none.
            if self.cand_flips.is_watching() {
                let copies: u32 = self.res.cached_row(bi).iter().map(|w| w.count_ones()).sum();
                if copies == u32::from(on) {
                    self.cand_flips.insert(bi);
                }
            }
            self.relevel(bi, Some(exec.0), self.res.exec_node[exec.index()]);
        }
    }

    /// Start recording the prefetch-candidate flips
    /// [`drain_candidate_flips`](Self::drain_candidate_flips) reports:
    /// disk flips, and cached-anywhere flips (first copy in, last copy
    /// out). Flips before this call are not recorded.
    pub(crate) fn watch_candidates(&mut self) {
        self.cand_flips = FlipSet::new(self.res.num_blocks());
    }

    /// Hand every flip recorded since the last drain to `f`, once per
    /// block and ascending: `(b, None)` for a block whose disk replicas
    /// grew or whose cached-anywhere state flipped, then `(b, Some(n))`
    /// for each disk replica removed from node `n`. `f` sees the index.
    pub(crate) fn drain_candidate_flips(
        &mut self,
        mut f: impl FnMut(&Self, BlockId, Option<NodeId>),
    ) {
        let mut flips = std::mem::take(&mut self.cand_flips);
        flips.drain(|bi| f(self, self.res.block_of(bi), None));
        self.cand_flips = flips;
        let mut drops = std::mem::take(&mut self.cand_disk_drops);
        for &(b, n) in &drops {
            f(self, b, Some(n));
        }
        drops.clear();
        self.cand_disk_drops = drops;
    }

    /// Is a flip waiting for
    /// [`drain_candidate_flips`](Self::drain_candidate_flips)?
    #[cfg(debug_assertions)]
    pub(crate) fn has_candidate_flips(&self) -> bool {
        !self.cand_flips.is_empty() || !self.cand_disk_drops.is_empty()
    }

    /// Re-derive block `bi`'s live readers' bits in the scopes a flip at
    /// node `n` (and, for a cache flip, executor `e` on it) can move:
    /// `P[e]`, `N[n]`, `R[rack(n)]` and the summaries. O(readers × blocks
    /// × replica words); no executor walk.
    // lint: allow(panic-surface): reader pairs were minted from task_blocks, and every row index is a topology id below the stage's row count
    fn relevel(&mut self, bi: usize, e: Option<u32>, n: u32) {
        let res = &self.res;
        let (ne, nn) = (res.num_execs(), res.num_nodes());
        let r = res.node_rack[n as usize] as usize;
        let base = ne + nn + res.num_racks();
        let mut updates = 0;
        for &(s, k) in span(&self.reader_start, &self.readers, bi) {
            let s = s as usize;
            if !self.live[s] {
                continue;
            }
            let t = self.task_base[s];
            let blocks = span(&self.block_start, &self.task_blocks, (t + k) as usize);
            let words = (self.task_base[s + 1] - t).div_ceil(64) as usize;
            let set = &mut self.sets[s];
            let mut row = |i: usize, on: bool| put_bit(&mut set[i * words..][..words], k, on);
            let all = |bits: &[u64], w: usize, i: u32| {
                blocks.iter().all(|&b| get_bit(&bits[b as usize * w..], i))
            };
            let mut changed = row(ne + n as usize, all(&res.node_local, res.node_words, n))
                | row(ne + nn + r, all(&res.rack_local, res.rack_words, r as u32));
            if let Some(e) = e {
                changed |= row(e as usize, all(&res.cached, res.exec_words, e));
            }
            let m = res.summary(blocks);
            for i in 0..SUMMARY_ROWS {
                changed |= row(base + i, m >> i & 1 == 1);
            }
            updates += u64::from(changed);
        }
        self.inv_updates += updates;
    }

    // ------------------------------------------------------------------
    // Live stages
    // ------------------------------------------------------------------

    /// Build stage `s`'s sets from the residency rows: for each task, one
    /// AND pass over its blocks' rows per scope kind. O(tasks × blocks ×
    /// replica words).
    fn activate(&mut self, s: usize) {
        let res = &self.res;
        let words = self.words(s);
        let (ne, nn) = (res.num_execs(), res.num_nodes());
        let base = self.summary_base();
        let mut set = self.spare.pop().unwrap_or_default();
        set.clear();
        set.resize((base + SUMMARY_ROWS) * words, 0);
        for k in 0..self.num_tasks(s) {
            let blocks = self.blocks(s, k);
            if blocks.is_empty() {
                continue;
            }
            let k = k as u32;
            let (ew, nw, rw) = (res.exec_words, res.node_words, res.rack_words);
            let rows = set_bits(ew, |w| common_word(&res.cached, ew, blocks, w))
                .map(|e| e as usize)
                .chain(
                    set_bits(nw, |w| common_word(&res.node_local, nw, blocks, w))
                        .map(|n| ne + n as usize),
                )
                .chain(
                    set_bits(rw, |w| common_word(&res.rack_local, rw, blocks, w))
                        .map(|r| ne + nn + r as usize),
                )
                .chain(set_bits(1, |_| u64::from(res.summary(blocks))).map(|i| base + i as usize));
            for i in rows {
                set_bit(&mut set[i * words..], k);
            }
        }
        self.sets[s] = set;
    }

    /// Put stage `s` on or off the index: `live` must be the stage's
    /// ready-list membership. Activation builds the stage's sets over all
    /// its tasks; deactivation frees them. A call that does not change
    /// liveness is a no-op.
    pub fn set_stage_live(&mut self, s: usize, live: bool) {
        if self.live[s] == live {
            return;
        }
        self.live[s] = live;
        self.inv_updates += 1;
        if live {
            self.activate(s);
        } else {
            let set = std::mem::take(&mut self.sets[s]);
            self.spare.push(set);
        }
    }

    /// Stage `s`'s tasks at exactly `level` on `e` or, with `strict`, at
    /// `level` there and at best `level` anywhere (a task's level on any
    /// executor is never better than its best, so the strict sets are
    /// `P[e]`, `N[n] ∖ Pany`, `R[r] ∖ Nany` and `¬Rany`).
    fn level_set(&self, s: usize, e: ExecId, level: Locality, strict: bool) -> Diff<'_> {
        let (ne, nn) = (self.res.num_execs(), self.res.num_nodes());
        let n = self.res.exec_node[e.index()] as usize;
        let r = self.res.node_rack[n] as usize;
        let base = self.summary_base();
        let row = |i: usize| Some(self.set_row(s, i));
        match (level, strict) {
            (Locality::Process, _) => (row(e.index()), None),
            (Locality::Node, false) => (row(ne + n), row(e.index())),
            (Locality::Node, true) => (row(ne + n), row(base + PANY)),
            (Locality::Rack, false) => (row(ne + nn + r), row(ne + n)),
            (Locality::Rack, true) => (row(ne + nn + r), row(base + NANY)),
            (Locality::Any, false) => (None, row(ne + nn + r)),
            (Locality::Any, true) => (None, row(base + RANY)),
        }
    }

    /// From-scratch oracle for stage `s`: rebuild its sets by walking every
    /// executor for every task over the ground-truth residency rows (and
    /// re-derive its blocks' node- and rack-local rows), and compare. A
    /// non-live stage must hold nothing. Debug-assert fodder for the
    /// simulator's scheduling loop and the differential proptests.
    pub fn check_inv_consistency(&self, s: usize) -> bool {
        if !self.live[s] {
            return self.sets[s].is_empty();
        }
        let res = &self.res;
        let (ne, nn, nr) = (res.num_execs(), res.num_nodes(), res.num_racks());
        let words = self.words(s);
        let base = self.summary_base();
        let mut want = vec![0u64; (base + SUMMARY_ROWS) * words];
        let mut levels = vec![L_ANY; ne];
        for k in 0..self.num_tasks(s) {
            let blocks = self.blocks(s, k);
            if blocks.is_empty() {
                continue;
            }
            for &b in blocks {
                let bi = b as usize;
                if (0..nn).any(|n| get_bit(res.node_row(bi), n as u32) != res.node_local_raw(bi, n))
                    || (0..nr)
                        .any(|r| get_bit(res.rack_row(bi), r as u32) != res.rack_local_raw(bi, r))
                {
                    return false;
                }
            }
            for (e, l) in levels.iter_mut().enumerate() {
                *l = blocks
                    .iter()
                    .map(|&b| res.block_level_raw(b as usize, e as u32))
                    .max()
                    .unwrap_or(L_ANY);
            }
            let best = levels.iter().copied().min().unwrap_or(L_ANY);
            let contrib = contrib_of(&levels);
            let rows = (0..ne)
                .filter(|&e| levels[e] == L_PROCESS)
                .chain(
                    (0..nn)
                        .filter(|&n| blocks.iter().all(|&b| res.node_local_raw(b as usize, n)))
                        .map(|n| ne + n),
                )
                .chain(
                    (0..nr)
                        .filter(|&r| blocks.iter().all(|&b| res.rack_local_raw(b as usize, r)))
                        .map(|r| ne + nn + r),
                )
                .chain(
                    [
                        (best == L_PROCESS, PANY),
                        (best <= L_NODE, NANY),
                        (best <= L_RACK, RANY),
                        (contrib & 1 << L_NODE != 0, CN),
                        (contrib & 1 << L_RACK != 0, CR),
                    ]
                    .into_iter()
                    .filter(|&(on, _)| on)
                    .map(|(_, i)| base + i),
                );
            for i in rows {
                set_bit(&mut want[i * words..], k as u32);
            }
        }
        want == self.sets[s]
    }

    /// Is the live set exactly `ready` (the view's ready list, any order)?
    /// The simulator debug-asserts it at every scheduling opportunity.
    pub fn check_live_set(&self, ready: &[u32]) -> bool {
        ready.len() == self.live.iter().filter(|&&l| l).count()
            && ready.iter().all(|&s| self.live[s as usize])
    }

    // ------------------------------------------------------------------
    // Residency queries
    // ------------------------------------------------------------------

    /// Does `node` hold a disk replica of the block?
    pub fn on_disk_at(&self, b: BlockId, node: NodeId) -> bool {
        get_bit(self.res.disk_row(self.res.flat_id(b)), node.0)
    }

    /// Nodes holding a disk replica of the block, ascending.
    pub(crate) fn disk_nodes(&self, b: BlockId) -> impl Iterator<Item = NodeId> + '_ {
        let row = self.res.disk_row(self.res.flat_id(b));
        set_bits(row.len(), |w| row[w]).map(NodeId)
    }

    /// Does any disk replica of the block exist?
    pub fn on_disk_anywhere(&self, b: BlockId) -> bool {
        self.res
            .disk_row(self.res.flat_id(b))
            .iter()
            .any(|w| *w != 0)
    }

    /// Global residency generation: changes iff any derived locality state
    /// may have changed. The simulator snapshots it to detect when a
    /// scheduler's assignment batch went stale mid-application.
    pub fn generation(&self) -> u64 {
        self.global_gen
    }

    pub fn is_cached_in(&self, b: BlockId, exec: ExecId) -> bool {
        get_bit(self.res.cached_row(self.res.flat_id(b)), exec.0)
    }

    /// Executors whose cache holds the block, ascending.
    pub(crate) fn cached_execs(&self, b: BlockId) -> impl Iterator<Item = ExecId> + '_ {
        let row = self.res.cached_row(self.res.flat_id(b));
        set_bits(row.len(), |w| row[w]).map(ExecId)
    }

    pub fn is_cached_anywhere(&self, b: BlockId) -> bool {
        self.res
            .cached_row(self.res.flat_id(b))
            .iter()
            .any(|w| *w != 0)
    }

    /// Physical read tier for one block from one executor.
    pub fn read_tier(&self, b: BlockId, exec: ExecId) -> ReadTier {
        self.queries.set(self.queries.get() + 1);
        let res = &self.res;
        let bi = res.flat_id(b);
        let cw = res.cached_row(bi);
        if get_bit(cw, exec.0) {
            return ReadTier::ProcessCache;
        }
        let node = res.exec_node[exec.index()];
        let (ea, eb) = res.node_exec_range[node as usize];
        if range_any(cw, ea, eb) {
            return ReadTier::NodeCache;
        }
        if get_bit(res.disk_row(bi), node) {
            return ReadTier::NodeDisk;
        }
        if get_bit(res.rack_row(bi), res.node_rack[node as usize] as u32) {
            ReadTier::RackRemote
        } else {
            debug_assert!(
                res.disk_row(bi).iter().any(|w| *w != 0) || cw.iter().any(|w| *w != 0),
                "reading unmaterialized block {b}"
            );
            ReadTier::CrossRack
        }
    }

    /// The locality level task `(s, k)` would run at on executor `e`.
    pub fn task_locality(&self, s: usize, k: u32, e: ExecId) -> Locality {
        self.queries.set(self.queries.get() + 1);
        let level = self.res.task_level(self.blocks(s, k as usize), e.0);
        Locality::from_index(level as usize)
    }

    /// The best locality task `(s, k)` can achieve on any executor.
    pub fn task_best_level(&self, s: usize, k: u32) -> Locality {
        self.queries.set(self.queries.get() + 1);
        let m = self.res.summary(self.blocks(s, k as usize));
        let best = [PANY, NANY, RANY]
            .iter()
            .position(|&i| m >> i & 1 == 1)
            .unwrap_or(L_ANY as usize);
        Locality::from_index(best)
    }

    /// Valid locality levels of stage `s` (Spark's
    /// `computeValidLocalityLevels`), over its unclaimed pending tasks.
    /// `claimed_bits` marks tasks already claimed in the current assignment
    /// batch (empty slice = none).
    ///
    /// Equivalent to the sequential scan (pending tasks in ascending
    /// order, executors in id order per task, inner break on PROCESS):
    /// the result is `{l ∈ {P,N,R} : some unclaimed pending task
    /// contributes l} ∪ {ANY if any task is unclaimed}`, and a task
    /// contributes PROCESS, NODE or RACK exactly when it is in `Pany`,
    /// `CN` or `CR`. Three masked word scans; defined for live stages
    /// only.
    pub fn valid_levels(
        &self,
        s: usize,
        pending: &PendingSet,
        claimed_bits: &[u64],
        claimed_count: u32,
    ) -> ([Locality; 4], usize) {
        debug_assert!(self.live[s], "valid levels of non-live stage {s}");
        let mut levels = [Locality::Any; 4];
        let mut len = 0;
        if pending.len() as u32 > claimed_count {
            let pw = pending.word_bits();
            let base = self.summary_base();
            for (l, i) in [
                (Locality::Process, PANY),
                (Locality::Node, CN),
                (Locality::Rack, CR),
            ] {
                let row = self.set_row(s, base + i);
                if (0..pw.len())
                    .any(|w| row[w] & pw[w] & !claimed_bits.get(w).copied().unwrap_or(0) != 0)
                {
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
    /// The first set bit of the level's set masked by pending and
    /// unclaimed: exactly the sequential first-match walk over the pending
    /// tasks in ascending order. Defined for live stages only.
    pub fn scan_first(
        &self,
        s: usize,
        e: ExecId,
        level: Locality,
        strict: bool,
        pending: &PendingSet,
        claimed_bits: &[u64],
    ) -> Option<u32> {
        self.first_in(
            s,
            self.level_set(s, e, level, strict),
            pending,
            claimed_bits,
        )
    }

    /// Does `N[n]` hold an unclaimed pending task of stage `s`, i.e. is
    /// some such task NODE-or-better on `n`? The node-scope test of the
    /// placement walk: when it fails, every PROCESS and NODE probe on
    /// `n`'s executors misses, and their RACK and ANY probes depend on the
    /// rack alone (DESIGN.md §30). Defined for live stages only.
    pub fn node_has_pending(
        &self,
        s: usize,
        n: NodeId,
        pending: &PendingSet,
        claimed_bits: &[u64],
    ) -> bool {
        let row = Some(self.set_row(s, self.res.num_execs() + n.index()));
        self.first_in(s, (row, None), pending, claimed_bits)
            .is_some()
    }

    /// First set bit of `set` masked by pending and unclaimed. Every call
    /// is one probe: it adds one to `locality_queries`, and a miss adds
    /// one to `inv_index_hits`.
    // lint: allow(panic-surface): the set rows and the pending bitmap both span ceil(tasks / 64) words
    fn first_in(
        &self,
        s: usize,
        set: Diff<'_>,
        pending: &PendingSet,
        claimed_bits: &[u64],
    ) -> Option<u32> {
        debug_assert!(self.live[s], "placement probe on non-live stage {s}");
        self.queries.set(self.queries.get() + 1);
        let pw = pending.word_bits();
        let first = set_bits(pw.len(), |w| {
            diff_word(set, w) & pw[w] & !claimed_bits.get(w).copied().unwrap_or(0)
        })
        .next();
        if first.is_none() {
            self.inv_hits.set(self.inv_hits.get() + 1);
        }
        first
    }

    /// Counter snapshot for [`crate::metrics::SchedulerStats`].
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            locality_queries: self.queries.get(),
            invalidations: self.global_gen,
            inv_index_hits: self.inv_hits.get(),
            inv_index_updates: self.inv_updates,
            // `new` builds once; no path rebuilds.
            inv_index_rebuilds: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::{DagBuilder, RddId};

    /// One live 6-task stage over a 6-block source on 2 racks × 2 nodes ×
    /// 2 executors (task `k` reads block `k`), plus the placement as a
    /// shadow [`DataMap`] for the brute-force oracles (tests feed it the
    /// same mutations).
    fn build() -> (Topology, LocalityIndex, DataMap) {
        let (idx, _, topo, data) = build_stages(&[true]);
        (topo, idx, data)
    }

    /// `live.len()` stages of 6 tasks each on 2 racks × 2 nodes × 2
    /// executors: stage 0 reads the source partition-wise, every later
    /// stage reads the previous stage's output.
    fn build_stages(live: &[bool]) -> (LocalityIndex, Vec<RddId>, Topology, DataMap) {
        let mut b = DagBuilder::new("t");
        let mut rdds = vec![b.hdfs_rdd("in", 6, 64.0)];
        for s in 0..live.len() {
            let (_, out) = b
                .stage(&format!("s{s}"))
                .tasks(6)
                .demand_cpus(1)
                .cpu_ms(100)
                .reads_narrow(rdds[s])
                .build();
            rdds.push(out);
        }
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 2);
        let data = DataMap::place_sources(&dag, &topo, 1, 7);
        let tv: Vec<Vec<TaskView>> = rdds[..live.len()]
            .iter()
            .map(|&r| {
                (0..6)
                    .map(|k| TaskView {
                        loc_blocks: vec![BlockId::new(r, k)],
                    })
                    .collect()
            })
            .collect();
        let idx = LocalityIndex::new(&dag, &topo, &data, &tv, live);
        (idx, rdds, topo, data)
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

    /// Every exact and strict probe of stage `s` on every executor equals
    /// the sequential first match over its pending tasks, from the
    /// index's own per-executor and best levels.
    fn assert_probes_match(idx: &LocalityIndex, s: usize, pending: &PendingSet) {
        for e in (0..8).map(ExecId) {
            for level in Locality::ALL {
                for strict in [false, true] {
                    let want = pending.iter().find(|&k| {
                        idx.task_locality(s, k, e) == level
                            && (!strict || idx.task_best_level(s, k) == level)
                    });
                    assert_eq!(
                        idx.scan_first(s, e, level, strict, pending, &[]),
                        want,
                        "{e:?} {level:?} strict {strict}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_after_mutations() {
        let (topo, mut idx, mut data) = build();
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
        assert!(idx.check_inv_consistency(0));
    }

    #[test]
    fn generation_bumps_only_on_actual_change() {
        let (_topo, mut idx, _) = build();
        let b = BlockId::new(RddId(0), 1);
        let g0 = idx.generation();
        idx.add_cached(b, ExecId(2));
        let g1 = idx.generation();
        assert!(g1 > g0);
        idx.add_cached(b, ExecId(2)); // idempotent: no invalidation
        assert_eq!(idx.generation(), g1);
        idx.remove_cached(b, ExecId(2));
        assert!(idx.generation() > g1);
        let g2 = idx.generation();
        idx.remove_cached(b, ExecId(2)); // absent: no invalidation
        assert_eq!(idx.generation(), g2);
    }

    #[test]
    fn candidate_flips_report_disk_flips_and_first_and_last_copies() {
        let (_topo, mut idx, _) = build();
        let drain = |idx: &mut LocalityIndex| {
            let mut got = Vec::new();
            idx.drain_candidate_flips(|_, b, n| got.push((b, n)));
            got
        };
        let (b1, b4) = (BlockId::new(RddId(0), 1), BlockId::new(RddId(0), 4));
        idx.add_cached(b1, ExecId(2)); // not watching yet
        assert!(drain(&mut idx).is_empty());
        idx.watch_candidates();
        idx.add_cached(b1, ExecId(3)); // second copy: no flip
        idx.remove_cached(b1, ExecId(2)); // one copy left: no flip
        assert!(drain(&mut idx).is_empty());
        idx.remove_cached(b1, ExecId(3)); // last copy out
        idx.add_cached(b4, ExecId(0)); // first copy in
        idx.add_cached(b4, ExecId(1));
        idx.add_disk(b1, NodeId(3));
        assert_eq!(
            drain(&mut idx),
            vec![(b1, None), (b4, None)],
            "once each, ascending"
        );
        idx.remove_disk(b1, NodeId(3));
        idx.remove_disk(b1, NodeId(3)); // absent: no flip
        assert_eq!(drain(&mut idx), vec![(b1, Some(NodeId(3)))]);
        assert!(drain(&mut idx).is_empty());
    }

    #[test]
    fn remove_disk_invalidates_and_matches_brute_force() {
        let (topo, mut idx, mut data) = build();
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
        assert!(idx.check_inv_consistency(0));
    }

    /// The derived node- and rack-local rows follow the ground truth when
    /// one kind of replica goes while the other stays: a cached copy and
    /// a disk replica on one node, then the cache copy alone elsewhere in
    /// the rack.
    #[test]
    fn derived_rows_follow_mixed_replicas() {
        let (_topo, mut idx, _) = build();
        let b = BlockId::new(RddId(0), 4);
        let bi = idx.res.flat_id(b);
        let derived_ok = |idx: &LocalityIndex| {
            (0..4)
                .all(|n| get_bit(idx.res.node_row(bi), n) == idx.res.node_local_raw(bi, n as usize))
                && (0..2).all(|r| {
                    get_bit(idx.res.rack_row(bi), r) == idx.res.rack_local_raw(bi, r as usize)
                })
        };
        for n in idx.disk_nodes(b).collect::<Vec<_>>() {
            idx.remove_disk(b, n);
        }
        assert!(derived_ok(&idx) && idx.res.rack_row(bi)[0] == 0);
        idx.add_disk(b, NodeId(1));
        idx.add_cached(b, ExecId(2)); // node 1 again: node bit unchanged
        assert!(derived_ok(&idx));
        idx.remove_disk(b, NodeId(1)); // the cached copy keeps node 1 local
        assert!(derived_ok(&idx) && get_bit(idx.res.node_row(bi), 1));
        idx.add_cached(b, ExecId(0));
        idx.remove_cached(b, ExecId(2));
        assert!(derived_ok(&idx) && !get_bit(idx.res.node_row(bi), 1));
        assert!(get_bit(idx.res.rack_row(bi), 0) && !get_bit(idx.res.rack_row(bi), 1));
        idx.remove_cached(b, ExecId(0));
        assert!(derived_ok(&idx) && idx.res.rack_row(bi)[0] == 0);
        assert!(idx.check_inv_consistency(0));
    }

    #[test]
    fn valid_levels_track_pending_and_claims() {
        let (_topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        let (lv, n) = idx.valid_levels(0, &pending, &[], 0);
        assert!(n >= 2);
        assert_eq!(lv[n - 1], Locality::Any);
        pending.remove(0);
        let claimed = vec![0b10u64]; // task 1 claimed
        let (_, n1) = idx.valid_levels(0, &pending, &claimed, 1);
        assert!(n1 >= 1);
        let all = vec![0b111110u64]; // tasks 1..=5 claimed (0 was removed)
        let (_, n2) = idx.valid_levels(0, &pending, &all, 5);
        assert_eq!(n2, 0);
        // Caching task 1's block makes it the only PROCESS-local work: a
        // claim on it hides PROCESS again.
        let has_process = |(lv, n): ([Locality; 4], usize)| lv[..n].contains(&Locality::Process);
        assert!(!has_process(idx.valid_levels(0, &pending, &[], 0)));
        idx.add_cached(BlockId::new(RddId(0), 1), ExecId(5));
        assert!(has_process(idx.valid_levels(0, &pending, &[], 0)));
        let (lv, n) = idx.valid_levels(0, &pending, &claimed, 1);
        assert!(n >= 1 && !lv[..n].contains(&Locality::Process));
        assert!(idx.check_inv_consistency(0));
    }

    #[test]
    fn scan_first_matches_sequential_scan() {
        let (_topo, mut idx, _) = build();
        idx.add_cached(BlockId::new(RddId(0), 2), ExecId(3));
        let pending = PendingSet::full(6);
        assert_probes_match(&idx, 0, &pending);
        let misses = idx.stats().inv_index_hits;
        let unclaimed = idx.scan_first(0, ExecId(3), Locality::Process, false, &pending, &[]);
        assert_eq!(unclaimed, Some(2));
        assert_eq!(idx.stats().inv_index_hits, misses, "a hit is no miss");
        let claimed = vec![0b100u64]; // task 2 claimed
        let after = idx.scan_first(0, ExecId(3), Locality::Process, false, &pending, &claimed);
        assert_eq!(after, None);
        assert_eq!(idx.stats().inv_index_hits, misses + 1, "a miss counts");
    }

    #[test]
    fn probes_match_brute_force_through_history() {
        let (_topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
        assert!(idx.check_inv_consistency(0));
        // Interleave residency flips with pending pops and re-inserts
        // (which the index never hears about), checking the oracle and
        // every probe at each step.
        let b0 = BlockId::new(RddId(0), 0);
        let b4 = BlockId::new(RddId(0), 4);
        idx.add_cached(b0, ExecId(1));
        assert_probes_match(&idx, 0, &pending);
        pending.remove(2);
        idx.add_cached(b4, ExecId(6));
        idx.add_disk(b4, NodeId(0));
        assert_probes_match(&idx, 0, &pending);
        pending.remove(0);
        idx.remove_cached(b0, ExecId(1));
        assert!(pending.insert(2));
        assert_probes_match(&idx, 0, &pending);
        // Crash-style loss: drop every replica of block 4.
        idx.remove_cached(b4, ExecId(6));
        for n in 0..4u32 {
            idx.remove_disk(b4, NodeId(n));
        }
        assert!(idx.check_inv_consistency(0));
        assert_probes_match(&idx, 0, &pending);
        assert!(idx.stats().inv_index_updates > 0);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
    }

    #[test]
    fn oracle_detects_injected_drift() {
        let (_topo, mut idx, _) = build();
        assert!(idx.check_inv_consistency(0));
        let w = idx.sets[0].iter().position(|&x| x != 0).unwrap();
        idx.sets[0][w] &= idx.sets[0][w] - 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0));
    }

    #[test]
    fn flips_on_non_live_readers_cost_no_index_updates() {
        let (mut idx, rdds, _topo, _) = build_stages(&[true, false]);
        assert!(idx.check_live_set(&[0]));
        assert!(idx.check_inv_consistency(1));
        // Block 2 of stage 0's output is read only by stage 1's task 2,
        // which is not live: the flips re-derive nothing.
        let b = BlockId::new(rdds[1], 2);
        let u0 = idx.stats().inv_index_updates;
        idx.add_disk(b, NodeId(1));
        idx.add_cached(b, ExecId(4));
        assert_eq!(idx.stats().inv_index_updates, u0);
        assert!(idx.check_inv_consistency(1));
        // Once live, the same reader is re-derived by the next flip.
        idx.set_stage_live(1, true);
        assert!(idx.check_live_set(&[0, 1]));
        assert!(idx.check_inv_consistency(1));
        let u1 = idx.stats().inv_index_updates;
        idx.remove_cached(b, ExecId(4));
        assert!(idx.stats().inv_index_updates > u1);
        assert!(idx.check_inv_consistency(1));
    }

    #[test]
    fn reactivation_rebuilds_and_matches_brute_force() {
        let (_topo, mut idx, _) = build();
        let mut pending = PendingSet::full(6);
        idx.set_stage_live(0, false);
        assert!(idx.check_live_set(&[]));
        assert!(idx.check_inv_consistency(0));
        // Churn while off the index.
        pending.remove(1);
        idx.add_cached(BlockId::new(RddId(0), 3), ExecId(6));
        idx.remove_disk(BlockId::new(RddId(0), 4), NodeId(0));
        assert!(idx.check_inv_consistency(0));
        idx.set_stage_live(0, true);
        assert!(idx.check_live_set(&[0]));
        assert!(idx.check_inv_consistency(0));
        assert_probes_match(&idx, 0, &pending);
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
