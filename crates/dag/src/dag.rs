//! [`JobDag`]: an immutable, validated stage DAG, plus its builder.

// Stage/RDD/task ids are u32 by design; `len()` mints are bounded by
// DAG construction (thousands of stages at paper scale, not billions).
#![allow(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{RddId, StageId};
use crate::rdd::{Rdd, RddSource};
use crate::resources::{Resources, SimTime};
use crate::stage::{DepKind, Stage, StageInput};

/// Errors detected while building or validating a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A cycle was found among the stages (so it isn't a DAG at all).
    Cycle,
    /// A narrow dependency joins RDDs with different partition counts.
    NarrowPartitionMismatch {
        stage: StageId,
        rdd: RddId,
        rdd_parts: u32,
        tasks: u32,
    },
    /// A stage declares zero tasks.
    EmptyStage(StageId),
    /// A stage has a zero-CPU demand, which would let infinitely many tasks
    /// pack into an executor.
    ZeroDemand(StageId),
    /// The DAG has no stages.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Cycle => write!(f, "stage graph contains a cycle"),
            DagError::NarrowPartitionMismatch {
                stage,
                rdd,
                rdd_parts,
                tasks,
            } => write!(
                f,
                "{stage} reads {rdd} narrowly but has {tasks} tasks vs {rdd_parts} partitions"
            ),
            DagError::EmptyStage(s) => write!(f, "{s} has zero tasks"),
            DagError::ZeroDemand(s) => write!(f, "{s} has zero-CPU task demand"),
            DagError::Empty => write!(f, "DAG has no stages"),
        }
    }
}

impl std::error::Error for DagError {}

/// An immutable job DAG: stages, RDDs, and derived adjacency.
///
/// Construct via [`DagBuilder`]; construction validates acyclicity, narrow
/// partition alignment and non-degenerate demands, so every `JobDag` in the
/// system is well-formed by construction.
#[derive(Clone, Debug)]
pub struct JobDag {
    name: String,
    stages: Vec<Stage>,
    rdds: Vec<Rdd>,
    /// children[i] = stages that list stage i as a parent.
    children: Vec<Vec<StageId>>,
    topo: Vec<StageId>,
}

impl JobDag {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    pub fn num_rdds(&self) -> usize {
        self.rdds.len()
    }

    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    pub fn rdd(&self, id: RddId) -> &Rdd {
        &self.rdds[id.index()]
    }

    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    pub fn rdds(&self) -> &[Rdd] {
        &self.rdds
    }

    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> {
        (0..self.stages.len() as u32).map(StageId)
    }

    /// Direct children (consumers) of a stage.
    pub fn children(&self, id: StageId) -> &[StageId] {
        &self.children[id.index()]
    }

    /// Direct parents of a stage.
    pub fn parents(&self, id: StageId) -> &[StageId] {
        &self.stage(id).parents
    }

    /// A topological order of the stages (parents before children). Stable:
    /// ties broken by stage id, so FIFO order is the topo order for DAGs
    /// declared in submission order.
    pub fn topo_order(&self) -> &[StageId] {
        &self.topo
    }

    /// Stages with no parents (runnable at t=0).
    pub fn roots(&self) -> Vec<StageId> {
        self.stage_ids()
            .filter(|s| self.parents(*s).is_empty())
            .collect()
    }

    /// Stages with no children.
    pub fn leaves(&self) -> Vec<StageId> {
        self.stage_ids()
            .filter(|s| self.children(*s).is_empty())
            .collect()
    }

    /// All stages that read `rdd` as an input, with the dependency kind.
    pub fn consumers(&self, rdd: RddId) -> Vec<(StageId, DepKind)> {
        self.stages
            .iter()
            .flat_map(|s| {
                s.inputs
                    .iter()
                    .filter(move |i| i.rdd == rdd)
                    .map(move |i| (s.id, i.kind))
            })
            .collect()
    }

    /// Sum of `total_work` over every stage: the job's aggregate
    /// vCPU-milliseconds.
    pub fn total_work(&self) -> u64 {
        self.stages.iter().map(|s| s.total_work()).sum()
    }
}

/// Builder for one stage; returned by [`DagBuilder::stage`].
pub struct StageBuilder<'a> {
    dag: &'a mut DagBuilder,
    name: String,
    num_tasks: u32,
    demand: Resources,
    cpu_ms: SimTime,
    skew: Vec<f64>,
    inputs: Vec<StageInput>,
    output_block_mb: f64,
    cache_output: bool,
}

impl<'a> StageBuilder<'a> {
    /// Number of tasks (and output partitions).
    pub fn tasks(mut self, n: u32) -> Self {
        self.num_tasks = n;
        self
    }

    /// Per-task resource demand `d_i` (CPU-only convenience).
    pub fn demand_cpus(mut self, cpus: u32) -> Self {
        self.demand = Resources::cpus(cpus);
        self
    }

    /// Per-task resource demand `d_i` (full vector).
    pub fn demand(mut self, r: Resources) -> Self {
        self.demand = r;
        self
    }

    /// Per-task base compute time in ms.
    pub fn cpu_ms(mut self, ms: SimTime) -> Self {
        self.cpu_ms = ms;
        self
    }

    /// Multiplicative compute-time skew pattern across tasks.
    pub fn skew(mut self, skew: Vec<f64>) -> Self {
        self.skew = skew;
        self
    }

    /// Add a narrow input.
    pub fn reads_narrow(mut self, rdd: RddId) -> Self {
        self.inputs.push(StageInput {
            rdd,
            kind: DepKind::Narrow,
        });
        self
    }

    /// Add a wide (shuffle) input.
    pub fn reads_wide(mut self, rdd: RddId) -> Self {
        self.inputs.push(StageInput {
            rdd,
            kind: DepKind::Wide,
        });
        self
    }

    /// Size of each output block in MiB (default 64).
    pub fn output_mb(mut self, mb: f64) -> Self {
        self.output_block_mb = mb;
        self
    }

    /// Persist the output RDD (make it cache-eligible).
    pub fn cache_output(mut self) -> Self {
        self.cache_output = true;
        self
    }

    /// Finish the stage; returns `(stage, output_rdd)` ids.
    pub fn build(self) -> (StageId, RddId) {
        let stage_id = StageId(self.dag.stages.len() as u32);
        let out_id = RddId(self.dag.rdds.len() as u32);
        let mut parents: Vec<StageId> = self
            .inputs
            .iter()
            .filter_map(|i| self.dag.rdds[i.rdd.index()].producer())
            .collect();
        parents.sort_unstable();
        parents.dedup();
        self.dag.rdds.push(Rdd {
            id: out_id,
            name: format!("{}_out", self.name),
            num_partitions: self.num_tasks,
            block_mb: self.output_block_mb,
            source: RddSource::Stage(stage_id),
            cached: self.cache_output,
        });
        self.dag.stages.push(Stage {
            id: stage_id,
            name: self.name,
            num_tasks: self.num_tasks,
            demand: self.demand,
            cpu_ms: self.cpu_ms,
            skew: self.skew,
            inputs: self.inputs,
            output: out_id,
            parents,
        });
        (stage_id, out_id)
    }
}

/// Incremental DAG construction with validation at the end.
pub struct DagBuilder {
    name: String,
    stages: Vec<Stage>,
    rdds: Vec<Rdd>,
}

impl DagBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stages: Vec::new(),
            rdds: Vec::new(),
        }
    }

    /// Declare an HDFS-resident source RDD.
    pub fn hdfs_rdd(&mut self, name: &str, partitions: u32, block_mb: f64) -> RddId {
        self.hdfs_rdd_cached(name, partitions, block_mb, false)
    }

    /// Declare an HDFS-resident source RDD that the application persists.
    pub fn hdfs_rdd_cached(
        &mut self,
        name: &str,
        partitions: u32,
        block_mb: f64,
        cached: bool,
    ) -> RddId {
        let id = RddId(self.rdds.len() as u32);
        self.rdds.push(Rdd {
            id,
            name: name.into(),
            num_partitions: partitions,
            block_mb,
            source: RddSource::Hdfs,
            cached,
        });
        id
    }

    /// Begin a stage. Stage ids follow declaration order = FIFO submission
    /// order.
    pub fn stage(&mut self, name: &str) -> StageBuilder<'_> {
        StageBuilder {
            dag: self,
            name: name.into(),
            num_tasks: 1,
            demand: Resources::cpus(1),
            cpu_ms: 1_000,
            skew: vec![1.0],
            inputs: Vec::new(),
            output_block_mb: 64.0,
            cache_output: false,
        }
    }

    /// The output RDD of a previously built stage.
    pub fn output_of(&self, stage: StageId) -> RddId {
        self.stages[stage.index()].output
    }

    /// Mark an existing RDD cache-eligible after the fact.
    pub fn persist(&mut self, rdd: RddId) {
        self.rdds[rdd.index()].cached = true;
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<JobDag, DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        for s in &self.stages {
            if s.num_tasks == 0 {
                return Err(DagError::EmptyStage(s.id));
            }
            if s.demand.cpus == 0 {
                return Err(DagError::ZeroDemand(s.id));
            }
            for i in &s.inputs {
                if i.kind == DepKind::Narrow {
                    let parts = self.rdds[i.rdd.index()].num_partitions;
                    if parts != s.num_tasks {
                        return Err(DagError::NarrowPartitionMismatch {
                            stage: s.id,
                            rdd: i.rdd,
                            rdd_parts: parts,
                            tasks: s.num_tasks,
                        });
                    }
                }
            }
        }
        let n = self.stages.len();
        let mut children = vec![Vec::new(); n];
        for s in &self.stages {
            for p in &s.parents {
                children[p.index()].push(s.id);
            }
        }
        for c in &mut children {
            c.sort_unstable();
            c.dedup();
        }
        // Kahn topological sort with a min-heap so ties resolve by stage id.
        let mut indeg: Vec<usize> = self.stages.iter().map(|s| s.parents.len()).collect();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<StageId>> = indeg
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == 0)
            .map(|(i, _)| std::cmp::Reverse(StageId(i as u32)))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(s)) = heap.pop() {
            topo.push(s);
            for &c in &children[s.index()] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    heap.push(std::cmp::Reverse(c));
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }
        Ok(JobDag {
            name: self.name,
            stages: self.stages,
            rdds: self.rdds,
            children,
            topo,
        })
    }
}

/// A map from stage to arbitrary per-stage data, dense over one DAG.
/// Ordered so that iterating it can never leak nondeterminism (D1).
pub type StageMap<T> = BTreeMap<StageId, T>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIN_MS;

    /// diamond: s0 -> {s1, s2} -> s3
    fn diamond() -> JobDag {
        let mut b = DagBuilder::new("diamond");
        let a = b.hdfs_rdd("A", 4, 64.0);
        let (s0, r0) = b
            .stage("scan")
            .tasks(4)
            .demand_cpus(1)
            .cpu_ms(1000)
            .reads_narrow(a)
            .build();
        let (_s1, r1) = b
            .stage("l")
            .tasks(4)
            .demand_cpus(2)
            .cpu_ms(2000)
            .reads_narrow(r0)
            .build();
        let (_s2, r2) = b
            .stage("r")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(500)
            .reads_wide(r0)
            .build();
        let (s3, _) = b
            .stage("join")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_wide(r1)
            .reads_wide(r2)
            .build();
        let dag = b.build().unwrap();
        assert_eq!(s0, StageId(0));
        assert_eq!(s3, StageId(3));
        dag
    }

    #[test]
    fn builder_derives_parents_and_children() {
        let d = diamond();
        assert_eq!(d.parents(StageId(0)), &[]);
        assert_eq!(d.parents(StageId(1)), &[StageId(0)]);
        assert_eq!(d.parents(StageId(3)), &[StageId(1), StageId(2)]);
        assert_eq!(d.children(StageId(0)), &[StageId(1), StageId(2)]);
        assert_eq!(d.roots(), vec![StageId(0)]);
        assert_eq!(d.leaves(), vec![StageId(3)]);
    }

    #[test]
    fn topo_order_respects_dependencies_and_ids() {
        let d = diamond();
        assert_eq!(
            d.topo_order(),
            &[StageId(0), StageId(1), StageId(2), StageId(3)]
        );
    }

    #[test]
    fn narrow_mismatch_rejected() {
        let mut b = DagBuilder::new("bad");
        let a = b.hdfs_rdd("A", 4, 64.0);
        let _ = b.stage("s").tasks(3).reads_narrow(a).build();
        assert!(matches!(
            b.build(),
            Err(DagError::NarrowPartitionMismatch { .. })
        ));
    }

    #[test]
    fn wide_partition_counts_may_differ() {
        let mut b = DagBuilder::new("ok");
        let a = b.hdfs_rdd("A", 4, 64.0);
        let _ = b.stage("s").tasks(2).reads_wide(a).build();
        assert!(b.build().is_ok());
    }

    #[test]
    fn empty_dag_rejected() {
        assert_eq!(DagBuilder::new("e").build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn zero_task_stage_rejected() {
        let mut b = DagBuilder::new("z");
        let _ = b.stage("s").tasks(0).build();
        assert!(matches!(b.build(), Err(DagError::EmptyStage(_))));
    }

    #[test]
    fn consumers_lists_reading_stages() {
        let d = diamond();
        let r0 = d.stage(StageId(0)).output;
        let cons = d.consumers(r0);
        assert_eq!(cons.len(), 2);
        assert!(cons.contains(&(StageId(1), DepKind::Narrow)));
        assert!(cons.contains(&(StageId(2), DepKind::Wide)));
    }

    #[test]
    fn total_work_sums_stages() {
        let mut b = DagBuilder::new("w");
        let (_, r) = b
            .stage("a")
            .tasks(3)
            .demand_cpus(4)
            .cpu_ms(4 * MIN_MS)
            .build();
        let _ = b
            .stage("b")
            .tasks(1)
            .demand_cpus(1)
            .cpu_ms(4 * MIN_MS)
            .reads_wide(r)
            .build();
        let d = b.build().unwrap();
        assert_eq!(d.total_work() / MIN_MS, 48 + 4);
    }

    #[test]
    fn output_rdd_shapes_follow_stage() {
        let d = diamond();
        let s1 = d.stage(StageId(1));
        let out = d.rdd(s1.output);
        assert_eq!(out.num_partitions, s1.num_tasks);
        assert_eq!(out.producer(), Some(StageId(1)));
    }
}
