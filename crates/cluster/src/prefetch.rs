//! [`CandidateLists`]: per node, the blocks a prefetch may bring into an
//! executor's cache there, kept exact from residency and liveness
//! transitions instead of re-filtered on every scan (DESIGN.md §27).
//!
//! A block is a candidate on node `n` when it is cache-eligible, has a
//! disk replica on `n`, is live (some unfinished task still reads it) and
//! is cached nowhere (LRP "prefetches the in-disk data block": copying an
//! already-cached block would concentrate process-locality instead of
//! widening it). The last three move only through
//!
//! * [`LocalityIndex`] disk flips and cached-anywhere flips (first copy
//!   in, last copy out), and
//! * [`RefProfile`] liveness flips (use list emptied or refilled),
//!
//! and both record them once watched, each block once per window in a
//! [`FlipSet`]. [`CandidateLists::sync`] drains the records and
//! re-derives each touched (block, node) membership from the ground
//! truth, so a block written to disk and cached within one tick leaves
//! every list as it was.
//!
//! Each node's list is sorted by (size class, block): the cache-eligible
//! block sizes, ascending, number the classes. A class's blocks are one
//! contiguous run, which is what the simulator's prefetch picks walk.

// Size classes are distinct block sizes of one DAG: far below u16::MAX.
#![allow(clippy::cast_possible_truncation)]

use dagon_dag::{BlockId, JobDag, RddId};

use crate::locality_index::LocalityIndex;
use crate::refprofile::RefProfile;
use crate::topology::NodeId;

/// One executor's prefetch pick (DESIGN.md §27). `winners` holds the
/// policy's pick over each block-size class of the node's candidates,
/// smallest blocks first; the result is `pick` over the winners that
/// `fits`, which must hold for a prefix of them (it tests block size
/// against free space). By the [`CachePolicy::prefetch_order`] contract
/// this is the pick over every fitting candidate of the node: the
/// fitting candidates are whole classes, and the best of a union is the
/// best of its parts' bests. A lone fitting winner is its own pick, since
/// the policy already picked it over its class.
///
/// [`CachePolicy::prefetch_order`]: crate::CachePolicy::prefetch_order
pub fn fitting_pick(
    winners: &[BlockId],
    fits: impl Fn(BlockId) -> bool,
    pick: impl FnOnce(&[BlockId]) -> Option<BlockId>,
) -> Option<BlockId> {
    match winners.partition_point(|&b| fits(b)) {
        0 => None,
        1 => Some(winners[0]),
        n => pick(&winners[..n]),
    }
}

/// A set of flat block ids, as a bitset: transitions recorded once per
/// block however often they repeat, drained in ascending order. The
/// default (empty) set records nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlipSet {
    words: Vec<u64>,
}

impl FlipSet {
    /// A recording set over flat ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Is this set recording (built by [`new`](Self::new))?
    pub(crate) fn is_watching(&self) -> bool {
        !self.words.is_empty()
    }

    /// Record flat id `i`; a no-op while not recording.
    pub(crate) fn insert(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1 << (i % 64);
        }
    }

    /// Hand every recorded id to `f`, ascending, and forget them.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (k, w) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(w);
            while bits != 0 {
                f(k * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Is nothing recorded?
    #[cfg(debug_assertions)]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Per-node prefetch candidates (see the module docs).
// lint: incremental(lists, mutators = [sync, reconcile], init = [new], oracle = check_all_nodes)
pub(crate) struct CandidateLists {
    /// Per RDD: the size class of its blocks, `None` when the RDD is not
    /// cache-eligible.
    class_of: Vec<Option<u16>>,
    /// The cache-eligible RDDs in (size class, id) order: the order a
    /// from-scratch build pushes blocks in.
    by_class: Vec<RddId>,
    /// Per node, its candidates sorted by (size class, block).
    lists: Vec<Vec<BlockId>>,
}

impl CandidateLists {
    /// Build the lists over the current residency and profile, and start
    /// the index and the profile recording the transitions
    /// [`sync`](Self::sync) applies.
    pub(crate) fn new(
        dag: &JobDag,
        num_nodes: usize,
        data: &mut LocalityIndex,
        profile: &mut RefProfile,
    ) -> Self {
        let eligible = || dag.rdds().iter().filter(|r| r.cached);
        let mut sizes: Vec<f64> = eligible().map(|r| r.block_mb).collect();
        sizes.sort_unstable_by(f64::total_cmp);
        sizes.dedup();
        let mut class_of = vec![None; dag.rdds().len()];
        for r in eligible() {
            let c = sizes.partition_point(|&mb| mb < r.block_mb);
            class_of[r.id.index()] = Some(c as u16);
        }
        let mut by_class: Vec<RddId> = eligible().map(|r| r.id).collect();
        by_class.sort_unstable_by_key(|r| (class_of[r.index()], *r));
        let mut cands = Self {
            class_of,
            by_class,
            lists: Vec::new(),
        };
        cands.lists = cands.fresh(dag, num_nodes, data, profile);
        data.watch_candidates();
        profile.watch_liveness();
        cands
    }

    /// The lists from scratch: one pass over the cache-eligible blocks,
    /// each live one cached nowhere pushed to every node holding a disk
    /// replica. `by_class` order makes every list come out sorted.
    fn fresh(
        &self,
        dag: &JobDag,
        num_nodes: usize,
        data: &LocalityIndex,
        profile: &RefProfile,
    ) -> Vec<Vec<BlockId>> {
        let mut lists = vec![Vec::new(); num_nodes];
        for &r in &self.by_class {
            for b in dag.rdd(r).blocks() {
                if profile.is_live(b) && !data.is_cached_anywhere(b) {
                    for n in data.disk_nodes(b) {
                        lists[n.index()].push(b);
                    }
                }
            }
        }
        lists
    }

    /// Apply every transition recorded since the last sync: re-derive
    /// each touched (block, node) membership from `data` and `profile`.
    /// A block both streams report is re-derived twice, to the same
    /// answer.
    pub(crate) fn sync(&mut self, data: &mut LocalityIndex, profile: &mut RefProfile) {
        data.drain_candidate_flips(|data, b, node| self.resync(b, node, data, profile));
        profile.drain_live_flips(|profile, b| self.resync(b, None, data, profile));
    }

    /// Re-derive block `b`'s membership at node `node`, or at every node
    /// holding a disk replica when `None`.
    fn resync(
        &mut self,
        b: BlockId,
        node: Option<NodeId>,
        data: &LocalityIndex,
        profile: &RefProfile,
    ) {
        if self.class_of[b.rdd.index()].is_none() {
            return;
        }
        let want = profile.is_live(b) && !data.is_cached_anywhere(b);
        match node {
            Some(n) => self.reconcile(b, n, want && data.on_disk_at(b, n)),
            None => {
                for n in data.disk_nodes(b) {
                    self.reconcile(b, n, want);
                }
            }
        }
    }

    /// Make `b`'s membership in node `n`'s list equal `want`.
    fn reconcile(&mut self, b: BlockId, n: NodeId, want: bool) {
        let class_of = &self.class_of;
        let key = |x: &BlockId| (class_of[x.rdd.index()], *x);
        let list = &mut self.lists[n.index()];
        match (list.binary_search_by_key(&key(&b), key), want) {
            (Err(pos), true) => list.insert(pos, b),
            (Ok(pos), false) => {
                list.remove(pos);
                // Give back memory as a list drains: at most a quarter
                // full after a removal halves its room.
                if list.capacity() > 4 * list.len().max(4) {
                    list.shrink_to(2 * list.len());
                }
            }
            _ => {}
        }
    }

    /// Oracle: every node's list equals the from-scratch filter. The
    /// simulator debug-asserts it at every prefetch scan.
    pub(crate) fn check_all_nodes(
        &self,
        dag: &JobDag,
        data: &LocalityIndex,
        profile: &RefProfile,
    ) -> bool {
        self.lists == self.fresh(dag, self.lists.len(), data, profile)
    }

    /// Node `n`'s candidates, sorted by (size class, block).
    pub(crate) fn node(&self, n: usize) -> &[BlockId] {
        &self.lists[n]
    }

    /// Node `n`'s candidates split into size classes, smallest blocks
    /// first; every run is non-empty.
    pub(crate) fn classes(&self, n: usize) -> impl Iterator<Item = &[BlockId]> + '_ {
        let mut rest = self.node(n);
        std::iter::from_fn(move || {
            let c = self.class_of[rest.first()?.rdd.index()];
            let (run, tail) =
                rest.split_at(rest.partition_point(|b| self.class_of[b.rdd.index()] <= c));
            rest = tail;
            Some(run)
        })
    }
}
