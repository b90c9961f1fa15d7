//! Job list → merged-DAG lowering: the one place where concurrent jobs
//! become a single simulator DAG.
//!
//! The simulator's per-stage vectors and locality index cannot grow
//! mid-run, so a job list is lowered to **one** merged [`JobDag`] up
//! front: each job's stages are rebuilt, in input order, into a contiguous
//! block of stage ids. Every job enters the same way: `Simulation::with_jobs`
//! un-readies its stages until the job's `Event::JobArrival` passes
//! admission, which is what per-tenant queues, admission caps and
//! closed-loop clients need. An open-loop mix with no admission caps
//! simply starts each job at its arrival time.
//!
//! HDFS source RDDs that are byte-identical across jobs (same dataset
//! name, partitioning and block size) are created **once** and shared: a
//! stage of tenant B reading the dataset tenant A just scanned hits A's
//! cached or already-materialized blocks through the shared
//! `BlockManager`, with the hit charged to B's stage in the per-tenant
//! cache accounting. The persist flag ORs across the sharers, so one
//! tenant persisting a dataset benefits all.
//!
//! One special case: a single-job stream embeds the job's DAG
//! *verbatim* (no rebuild). RDD ids then allocate in the original builder
//! order, so HDFS placement — which scans source RDDs in id order — is
//! bit-identical to the plain batch run, and a one-job stream reproduces
//! the single-job goldens exactly.

use std::collections::BTreeMap;

use dagon_cluster::{AdmissionConfig, JobSpec, JobsRuntime};
use dagon_dag::{DagBuilder, DepKind, JobDag, RddId, RddSource, StageId};

use crate::arrivals::{generate_stream, StreamJob, TenantSpec};
use dagon_workloads::Scale;

/// Display name and fair-share weight of a tenant.
#[derive(Clone, Debug)]
pub struct TenantMeta {
    pub name: String,
    pub weight: u64,
}

/// Lowering knobs. None are left: every job is gated by dynamic
/// admission. The type stays because [`TenantStream::generate`] takes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamOptions {}

/// A lowered stream: the merged DAG plus everything the runtime layers
/// need — per-job specs for [`JobsRuntime`] and per-tenant metadata for
/// the fair-share weights and the report.
#[derive(Clone, Debug)]
pub struct TenantStream {
    pub dag: JobDag,
    pub specs: Vec<JobSpec>,
    pub tenants: Vec<TenantMeta>,
}

impl TenantStream {
    /// Generate and lower a seeded stream in one step.
    pub fn generate(tenants: &[TenantSpec], seed: u64, base: &Scale, _: &StreamOptions) -> Self {
        let jobs = generate_stream(tenants, seed, base);
        let meta = tenants
            .iter()
            .map(|t| TenantMeta {
                name: t.name.clone(),
                weight: t.weight,
            })
            .collect();
        Self::from_jobs(&jobs, meta)
    }

    /// Lower an explicit job list. `tenants` may be empty, in which case
    /// default metadata (`tenant<i>`, weight 1) is synthesized.
    ///
    /// Stage ids follow the *input* order of `jobs`; nothing is re-sorted
    /// by arrival. Pass jobs in arrival order so that FIFO's stage-id
    /// order is Spark's FIFO-across-jobs order.
    pub fn from_jobs(jobs: &[StreamJob], tenants: Vec<TenantMeta>) -> Self {
        assert!(!jobs.is_empty(), "TenantStream over an empty job list");
        let num_tenants = jobs.iter().map(|j| j.tenant + 1).max().unwrap() as usize;
        let mut tenants = tenants;
        for t in tenants.len()..num_tenants {
            tenants.push(TenantMeta {
                name: format!("tenant{t}"),
                weight: 1,
            });
        }
        // Single-job fast path: embed the DAG verbatim (see module doc).
        if jobs.len() == 1 {
            let job = &jobs[0];
            let stages = (0..job.dag.num_stages())
                .map(|i| StageId(u32::try_from(i).expect("stage count fits u32")))
                .collect();
            return Self {
                dag: job.dag.clone(),
                specs: vec![JobSpec {
                    name: job.name.clone(),
                    tenant: job.tenant,
                    arrival: job.arrival,
                    stages,
                }],
                tenants,
            };
        }

        // Pre-pass for input sharing: OR the persist flag across every job
        // reading the same dataset, so the shared copy is cache-eligible
        // if *any* sharer persists it.
        let mut shared_cached: BTreeMap<(String, u32, u64), bool> = BTreeMap::new();
        for job in jobs {
            for rdd in job.dag.rdds() {
                if matches!(rdd.source, RddSource::Hdfs) {
                    *shared_cached
                        .entry((rdd.name.clone(), rdd.num_partitions, rdd.block_mb.to_bits()))
                        .or_insert(false) |= rdd.cached;
                }
            }
        }

        // The renumbering walk, with shared sources.
        let mut b = DagBuilder::new("tenant-stream");
        let mut shared: BTreeMap<(String, u32, u64), RddId> = BTreeMap::new();
        let mut specs = Vec::new();
        for (job_idx, job) in jobs.iter().enumerate() {
            let dag = &job.dag;
            let mut rdd_map: BTreeMap<RddId, RddId> = BTreeMap::new();
            let mut stages = Vec::new();
            for sid in dag.topo_order() {
                let st = dag.stage(*sid);
                for input in &st.inputs {
                    let rdd = dag.rdd(input.rdd);
                    if !matches!(rdd.source, RddSource::Hdfs) || rdd_map.contains_key(&rdd.id) {
                        continue;
                    }
                    let key = (rdd.name.clone(), rdd.num_partitions, rdd.block_mb.to_bits());
                    let new = *shared.entry(key).or_insert_with_key(|key| {
                        b.hdfs_rdd_cached(
                            &format!("shared_{}p{}", rdd.name, rdd.num_partitions),
                            rdd.num_partitions,
                            rdd.block_mb,
                            shared_cached[key],
                        )
                    });
                    rdd_map.insert(rdd.id, new);
                }
                let mut sb = b
                    .stage(&format!("j{job_idx}_{}", st.name))
                    .tasks(st.num_tasks)
                    .demand(st.demand)
                    .cpu_ms(st.cpu_ms)
                    .skew(st.skew.clone())
                    .output_mb(dag.rdd(st.output).block_mb);
                if dag.rdd(st.output).cached {
                    sb = sb.cache_output();
                }
                for input in &st.inputs {
                    let mapped = rdd_map[&input.rdd];
                    sb = match input.kind {
                        DepKind::Narrow => sb.reads_narrow(mapped),
                        DepKind::Wide => sb.reads_wide(mapped),
                    };
                }
                let (new_stage, out) = sb.build();
                rdd_map.insert(st.output, out);
                stages.push(new_stage);
            }
            stages.sort_unstable();
            specs.push(JobSpec {
                name: job.name.clone(),
                tenant: job.tenant,
                arrival: job.arrival,
                stages,
            });
        }
        Self {
            dag: b.build().expect("merged stream DAG is valid"),
            specs,
            tenants,
        }
    }

    /// The dynamic-admission runtime for this stream.
    pub fn runtime(&self, admission: AdmissionConfig) -> JobsRuntime {
        JobsRuntime::new(self.specs.clone(), admission, self.dag.num_stages())
    }

    /// Per-tenant fair-share weights, for `TenantFairOrder::new`.
    pub fn weights(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.weight).collect()
    }

    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{BoundedPareto, ClientKind};
    use dagon_cluster::ArrivalSpec;
    use dagon_workloads::Workload;

    fn two_job_stream() -> Vec<StreamJob> {
        let scale = Scale::tiny();
        vec![
            StreamJob {
                tenant: 0,
                name: "a/CC#0".into(),
                arrival: ArrivalSpec::Open { at: 0 },
                dag: Workload::ConnectedComponent.build(&scale),
            },
            StreamJob {
                tenant: 1,
                name: "b/CC#0".into(),
                arrival: ArrivalSpec::Open { at: 5_000 },
                dag: Workload::ConnectedComponent.build(&scale),
            },
        ]
    }

    #[test]
    fn identical_jobs_share_their_hdfs_sources() {
        let jobs = two_job_stream();
        let count_hdfs = |jobs: &[StreamJob]| {
            let stream = TenantStream::from_jobs(jobs, Vec::new());
            stream
                .dag
                .rdds()
                .iter()
                .filter(|r| matches!(r.source, RddSource::Hdfs))
                .count()
        };
        // Two identical CC jobs keep one copy of each source, exactly as
        // many as one CC job.
        assert_eq!(count_hdfs(&jobs), count_hdfs(&jobs[..1]));
    }

    #[test]
    fn merged_stages_keep_their_jobs_apart() {
        let jobs = two_job_stream();
        let stream = TenantStream::from_jobs(&jobs, Vec::new());
        // Each job's stages form one contiguous, prefixed id block.
        let per_job = jobs[0].dag.num_stages();
        assert_eq!(stream.dag.num_stages(), 2 * per_job);
        for (j, spec) in stream.specs.iter().enumerate() {
            for (k, s) in spec.stages.iter().enumerate() {
                assert_eq!(s.index(), j * per_job + k);
                let name = &stream.dag.stage(*s).name;
                assert!(name.starts_with(&format!("j{j}_")), "{name}");
            }
        }
        // Shared sources aside, no stage depends on another job's stage.
        for spec in &stream.specs {
            for s in &spec.stages {
                for p in stream.dag.parents(*s) {
                    assert!(spec.stages.contains(p), "cross-job parent {p}");
                }
            }
        }
        assert_eq!(stream.specs.len(), 2);
        assert_eq!(stream.tenants.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_job_list_panics() {
        let _ = TenantStream::from_jobs(&[], Vec::new());
    }

    #[test]
    fn single_job_stream_embeds_dag_verbatim() {
        let dag = Workload::KMeans.build(&Scale::tiny());
        let jobs = vec![StreamJob {
            tenant: 0,
            name: "solo".into(),
            arrival: ArrivalSpec::Open { at: 0 },
            dag: dag.clone(),
        }];
        let stream = TenantStream::from_jobs(&jobs, Vec::new());
        assert_eq!(stream.dag.num_stages(), dag.num_stages());
        // Verbatim: original names survive (the merge walk would prefix).
        for i in 0..dag.num_stages() {
            let s = StageId(u32::try_from(i).unwrap());
            assert_eq!(stream.dag.stage(s).name, dag.stage(s).name);
        }
        assert_eq!(stream.specs[0].stages.len(), dag.num_stages());
    }

    #[test]
    fn generate_lowers_seeded_streams_deterministically() {
        let tenants = vec![TenantSpec {
            name: "acme".into(),
            weight: 2,
            mix: vec![Workload::KMeans],
            tasks: BoundedPareto::new(1.5, 4.0, 16.0),
            client: ClientKind::OpenPoisson {
                jobs: 5,
                mean_interarrival_ms: 20_000,
            },
        }];
        let a = TenantStream::generate(&tenants, 9, &Scale::tiny(), &StreamOptions::default());
        let b = TenantStream::generate(&tenants, 9, &Scale::tiny(), &StreamOptions::default());
        assert_eq!(a.dag.num_stages(), b.dag.num_stages());
        assert_eq!(a.specs.len(), 5);
        assert_eq!(a.weights(), vec![2]);
        let rt = a.runtime(AdmissionConfig::default());
        assert_eq!(rt.num_jobs(), 5);
        assert_eq!(rt.num_tenants(), 1);
    }
}
