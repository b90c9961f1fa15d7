//! Block directory: where every block lives, on disk and in caches.
//!
//! Plays the role of HDFS's NameNode (disk replicas of source RDDs), the
//! shuffle/output tracker (stage outputs land on the producing node's disk)
//! and the BlockManagerMaster's location registry (which executors cache
//! which blocks).
//!
//! In the simulator a `DataMap` is the *placement input*: [`place_sources`]
//! decides where source replicas land, and
//! [`crate::locality_index::LocalityIndex::new`] reads that placement once.
//! From then on the index's residency bitsets are the only record, and
//! every change goes through the index's mutators. Tests keep a `DataMap`
//! as an independent shadow registry, fed the same mutations, to
//! cross-check the index by brute force.
//!
//! [`place_sources`]: DataMap::place_sources

// NodeId/replica mints from `num_nodes()`: bounded by cluster size.
#![allow(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dagon_dag::{BlockId, JobDag};

use crate::topology::{ExecId, NodeId, Topology};

/// Mutable block-location state for one simulation.
#[derive(Clone, Debug, Default)]
pub struct DataMap {
    /// Disk replicas. A block gains disk residency at HDFS placement time
    /// (sources) or when its producing task finishes (outputs), and loses
    /// it only through [`DataMap::remove_disk`] (an executor crash taking
    /// its output files): disk capacity isn't modelled.
    on_disk: BTreeMap<BlockId, Vec<NodeId>>,
    /// Executors currently caching each block.
    cached: BTreeMap<BlockId, Vec<ExecId>>,
}

impl DataMap {
    /// Place every HDFS source block of `dag` with the given replication
    /// factor. The primary replica lands on a uniformly random node (like
    /// HDFS writes from off-cluster clients) and further replicas on the
    /// following nodes. Random placement matters: the resulting binomial
    /// skew in blocks-per-node is what makes delay scheduling starve
    /// block-poor executors (the paper's Fig. 4 pathology).
    pub fn place_sources(dag: &JobDag, topo: &Topology, replication: u32, seed: u64) -> DataMap {
        let mut dm = DataMap::default();
        let n = topo.num_nodes() as u32;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5fd1_e9a3);
        for rdd in dag.rdds().iter().filter(|r| r.is_source()) {
            for b in rdd.blocks() {
                let start: u32 = rng.gen_range(0..n);
                let replicas: Vec<NodeId> = (0..replication.clamp(1, n))
                    .map(|r| NodeId((start + r) % n))
                    .collect();
                dm.on_disk.insert(b, replicas);
            }
        }
        dm
    }

    /// Disk replica nodes of a block (empty = not yet materialized).
    pub fn disk_nodes(&self, b: BlockId) -> &[NodeId] {
        self.on_disk.get(&b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Executors caching the block right now.
    pub fn cached_execs(&self, b: BlockId) -> &[ExecId] {
        self.cached.get(&b).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Record a block written to a node's disk (task output / spill).
    pub fn add_disk(&mut self, b: BlockId, node: NodeId) {
        let v = self.on_disk.entry(b).or_default();
        if !v.contains(&node) {
            v.push(node);
        }
    }

    /// Record a cache insertion.
    pub fn add_cached(&mut self, b: BlockId, exec: ExecId) {
        let v = self.cached.entry(b).or_default();
        if !v.contains(&exec) {
            v.push(exec);
        }
    }

    /// Record a cache eviction.
    pub fn remove_cached(&mut self, b: BlockId, exec: ExecId) {
        if let Some(v) = self.cached.get_mut(&b) {
            v.retain(|e| *e != exec);
            if v.is_empty() {
                self.cached.remove(&b);
            }
        }
    }

    /// Remove a node's disk replica (executor crash taking its local
    /// shuffle/output files with it). Source-RDD HDFS replicas are never
    /// removed by the simulator — only derived outputs are.
    pub fn remove_disk(&mut self, b: BlockId, node: NodeId) {
        if let Some(v) = self.on_disk.get_mut(&b) {
            v.retain(|n| *n != node);
            if v.is_empty() {
                self.on_disk.remove(&b);
            }
        }
    }

    /// Does the block exist on some disk yet?
    pub fn materialized(&self, b: BlockId) -> bool {
        self.on_disk.contains_key(&b)
    }

    /// Is the block cached in the given executor?
    pub fn is_cached_in(&self, b: BlockId, exec: ExecId) -> bool {
        self.cached_execs(b).contains(&exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::RddId;

    fn topo() -> Topology {
        Topology::build(&[3, 3], 2)
    }

    #[test]
    fn placement_covers_all_source_blocks_with_replication() {
        let dag = fig1();
        let t = topo();
        let dm = DataMap::place_sources(&dag, &t, 2, 7);
        for rdd in dag.rdds().iter().filter(|r| r.is_source()) {
            for b in rdd.blocks() {
                let nodes = dm.disk_nodes(b);
                assert_eq!(nodes.len(), 2, "{b}");
                assert_ne!(nodes[0], nodes[1]);
            }
        }
        // Non-source RDDs are not yet materialized.
        let b_out = dag.stage(dagon_dag::StageId(0)).output;
        assert!(!dm.materialized(BlockId::new(b_out, 0)));
    }

    #[test]
    fn placement_is_deterministic_in_seed() {
        let dag = fig1();
        let t = topo();
        let a = DataMap::place_sources(&dag, &t, 1, 42);
        let b = DataMap::place_sources(&dag, &t, 1, 42);
        let c = DataMap::place_sources(&dag, &t, 1, 43);
        let blk = BlockId::new(RddId(0), 0);
        assert_eq!(a.disk_nodes(blk), b.disk_nodes(blk));
        // Different seed *may* differ; check at least one block moved across
        // the whole placement to avoid a flaky equality assert.
        let moved = dag
            .rdds()
            .iter()
            .filter(|r| r.is_source())
            .flat_map(|r| r.blocks())
            .any(|b2| a.disk_nodes(b2) != c.disk_nodes(b2));
        assert!(moved);
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let dag = fig1();
        let t = Topology::build(&[2], 1);
        let dm = DataMap::place_sources(&dag, &t, 10, 1);
        let blk = BlockId::new(RddId(0), 0);
        assert_eq!(dm.disk_nodes(blk).len(), 2);
    }

    #[test]
    fn cache_registry_add_remove() {
        let mut dm = DataMap::default();
        let b = BlockId::new(RddId(5), 1);
        dm.add_cached(b, ExecId(3));
        dm.add_cached(b, ExecId(3)); // idempotent
        dm.add_cached(b, ExecId(4));
        assert_eq!(dm.cached_execs(b), &[ExecId(3), ExecId(4)]);
        assert!(dm.is_cached_in(b, ExecId(3)));
        dm.remove_cached(b, ExecId(3));
        assert!(!dm.is_cached_in(b, ExecId(3)));
        dm.remove_cached(b, ExecId(4));
        assert!(dm.cached_execs(b).is_empty());
    }

    #[test]
    fn disk_add_is_idempotent() {
        let mut dm = DataMap::default();
        let b = BlockId::new(RddId(1), 0);
        dm.add_disk(b, NodeId(2));
        dm.add_disk(b, NodeId(2));
        assert_eq!(dm.disk_nodes(b), &[NodeId(2)]);
        assert!(dm.materialized(b));
    }

    #[test]
    fn disk_remove_drops_replica_and_materialization() {
        let mut dm = DataMap::default();
        let b = BlockId::new(RddId(1), 0);
        dm.add_disk(b, NodeId(2));
        dm.add_disk(b, NodeId(4));
        dm.remove_disk(b, NodeId(2));
        assert_eq!(dm.disk_nodes(b), &[NodeId(4)]);
        assert!(dm.materialized(b));
        dm.remove_disk(b, NodeId(4));
        assert!(!dm.materialized(b));
        dm.remove_disk(b, NodeId(4)); // absent: no-op
    }
}
