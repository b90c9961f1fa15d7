//! Online multi-tenant runs: policy lineup, the `run_tenant_stream` entry
//! point, and the `fig_tenant_sweep` load-sweep experiment.
//!
//! A [`TenantStream`] (from `dagon-tenancy`) supplies the merged DAG, the
//! per-job admission specs and the tenant weights; this module wires it to
//! a scheduler lineup the way [`crate::runner`] does for batch runs. The
//! three policies bracket the design space: tenant-blind FIFO (stock
//! Spark's cross-job behaviour), equal fair share over FIFO pools, and
//! weighted fair share with Dagon's DAG-aware order + sensitivity-aware
//! placement + LRP caching inside each pool.

use dagon_cache::PolicyKind;
use dagon_cluster::{AdmissionConfig, ClusterConfig, Scheduler, SimResult, Simulation};
use dagon_dag::StageEstimates;
use dagon_profiler::AppProfiler;
use dagon_sched::{
    DagonOrder, FifoOrder, FifoScheduler, NativeDelay, OrderedScheduler, SensitivityAware,
    TenantFairOrder,
};
use dagon_tenancy::{
    BoundedPareto, ClientKind, StreamOptions, TenantReport, TenantSpec, TenantStream,
};
use dagon_workloads::{Scale, Workload};
use rayon::prelude::*;

use crate::runner::RunOutcome;
use crate::system::System;

/// Cross-tenant scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantPolicy {
    /// Tenant-blind FIFO + LRU: stages run in merged-DAG id order — stock
    /// Spark's FIFO-across-jobs behaviour.
    Fifo,
    /// Equal fair share across tenants, FIFO within each pool, LRU.
    Fair,
    /// Weighted fair share across tenants with the full Dagon system
    /// inside each pool (Alg. 1 order, Alg. 2 placement, LRP cache).
    WeightedFairDagon,
}

impl TenantPolicy {
    /// The lineup `fig_tenant_sweep` compares.
    pub const LINEUP: [TenantPolicy; 3] = [
        TenantPolicy::Fifo,
        TenantPolicy::Fair,
        TenantPolicy::WeightedFairDagon,
    ];

    pub fn label(self) -> &'static str {
        match self {
            TenantPolicy::Fifo => "FIFO",
            TenantPolicy::Fair => "Fair",
            TenantPolicy::WeightedFairDagon => "WFair+Dagon",
        }
    }

    /// The cache policy paired with the scheduler half.
    pub fn cache_kind(self) -> PolicyKind {
        match self {
            TenantPolicy::Fifo | TenantPolicy::Fair => PolicyKind::Lru,
            TenantPolicy::WeightedFairDagon => PolicyKind::Lrp,
        }
    }

    /// Instantiate the scheduler for `stream`.
    pub fn build_scheduler(
        self,
        stream: &TenantStream,
        est: &StageEstimates,
    ) -> Box<dyn Scheduler> {
        match self {
            TenantPolicy::Fifo => Box::new(FifoScheduler::spark_default()),
            TenantPolicy::Fair => Box::new(OrderedScheduler::new(
                Box::new(TenantFairOrder::equal(Box::new(FifoOrder))),
                Box::new(NativeDelay::new()),
            )),
            TenantPolicy::WeightedFairDagon => Box::new(OrderedScheduler::new(
                Box::new(TenantFairOrder::new(
                    Box::new(DagonOrder::new(&stream.dag, est)),
                    stream.weights(),
                )),
                Box::new(SensitivityAware::new(est.clone())),
            )),
        }
    }
}

/// A completed multi-tenant run.
#[derive(Clone, Debug)]
pub struct TenantRunOutcome {
    pub policy: &'static str,
    pub result: SimResult,
    pub report: TenantReport,
}

/// Run a tenant stream on `cluster` under `policy` with dynamic admission.
///
/// Mirrors [`crate::runner::run_system`]: estimates come from the default
/// slightly-noisy profiler seeded by the cluster seed, so a one-job stream
/// reproduces the corresponding batch run bit for bit.
pub fn run_tenant_stream(
    stream: &TenantStream,
    cluster: &ClusterConfig,
    policy: TenantPolicy,
    admission: AdmissionConfig,
) -> TenantRunOutcome {
    let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag);
    let mut sched = policy.build_scheduler(stream, &est);
    let result =
        stream_simulation(stream, cluster, policy.cache_kind(), admission).run(sched.as_mut());
    let report = TenantReport::new(stream, &result);
    TenantRunOutcome {
        policy: policy.label(),
        result,
        report,
    }
}

/// Run a tenant stream under a batch [`System`] with default admission.
///
/// Mirrors [`crate::run_system`]: the same noisy profiler plans the run, so an
/// open-loop job mix is judged by the same schedulers as a single job.
pub fn run_stream_system(
    stream: &TenantStream,
    cluster: &ClusterConfig,
    system: &System,
) -> RunOutcome {
    let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag);
    let mut sched = system.build_scheduler(&stream.dag, &est);
    let result = stream_simulation(stream, cluster, system.cache, AdmissionConfig::default())
        .run(sched.as_mut());
    RunOutcome {
        system: system.label(),
        workload: stream.dag.name().to_string(),
        result,
    }
}

/// The one place a stream becomes a [`Simulation`]: `stream`'s merged DAG
/// on `cluster` with `cache` in every executor, each job gated until its
/// arrival passes `admission`.
pub fn stream_simulation(
    stream: &TenantStream,
    cluster: &ClusterConfig,
    cache: PolicyKind,
    admission: AdmissionConfig,
) -> Simulation {
    Simulation::new(stream.dag.clone(), cluster.clone(), || cache.build())
        .with_jobs(stream.runtime(admission))
}

// ---------------------------------------------------------------------
// fig_tenant_sweep — utilization vs tail JCT per policy
// ---------------------------------------------------------------------

/// The sweep's 200-executor cluster (50 nodes × 4 executors × 4 cores,
/// two racks), shaped like the scale-sweep benches.
pub fn sweep_cluster(seed: u64) -> ClusterConfig {
    let mut cluster = ClusterConfig::paper_testbed();
    cluster.racks = vec![25, 25];
    cluster.execs_per_node = 4;
    cluster.exec_cache_mb = 1024.0;
    cluster.hdfs_replication = 1;
    cluster.seed = seed;
    cluster
}

/// The sweep's three-tenant roster, 55 jobs total. `load` scales the
/// open-loop arrival rates (1.0 = the base rate; higher = heavier):
///
/// * `batch` — weight 1, open-loop Poisson, I/O-heavy mix, elephant-prone
///   bounded-Pareto sizes;
/// * `interactive` — weight 3, closed-loop think-time clients, small
///   CPU-bound jobs (latency-sensitive, self-throttling);
/// * `adhoc` — weight 2, open-loop Poisson, mixed workloads.
pub fn sweep_tenants(load: f64) -> Vec<TenantSpec> {
    assert!(load > 0.0, "load factor must be positive");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ms scale, load bounded
    let mean = |base_ms: f64| (base_ms / load).round().max(1.0) as u64;
    vec![
        TenantSpec {
            name: "batch".into(),
            weight: 1,
            mix: vec![
                Workload::ConnectedComponent,
                Workload::PregelOperation,
                Workload::PageRank,
            ],
            tasks: BoundedPareto::new(1.2, 8.0, 64.0),
            client: ClientKind::OpenPoisson {
                jobs: 20,
                mean_interarrival_ms: mean(60_000.0),
            },
        },
        TenantSpec {
            name: "interactive".into(),
            weight: 3,
            mix: vec![Workload::LinearRegression, Workload::LogisticRegression],
            tasks: BoundedPareto::new(2.0, 4.0, 16.0),
            client: ClientKind::ClosedLoop {
                clients: 4,
                jobs_per_client: 5,
                mean_think_ms: 15_000,
            },
        },
        TenantSpec {
            name: "adhoc".into(),
            weight: 2,
            mix: vec![
                Workload::KMeans,
                Workload::TriangleCount,
                Workload::DecisionTree,
            ],
            tasks: BoundedPareto::new(1.5, 4.0, 32.0),
            client: ClientKind::OpenPoisson {
                jobs: 15,
                mean_interarrival_ms: mean(90_000.0),
            },
        },
    ]
}

/// One (load, policy) cell of the sweep.
#[derive(Clone, Debug)]
pub struct TenantSweepCell {
    pub policy: &'static str,
    pub p50_jct_ms: u64,
    pub p99_jct_ms: u64,
    pub jain_fairness: f64,
    pub cpu_util: f64,
    pub makespan_ms: u64,
    pub rejected: u32,
}

#[derive(Clone, Debug)]
pub struct TenantSweepRow {
    pub load: f64,
    pub cells: Vec<TenantSweepCell>,
}

/// Load sweep at 200 executors: for each load factor, run the seeded
/// 3-tenant / 55-job stream under every [`TenantPolicy::LINEUP`] policy
/// and report tail JCT, fairness and utilization. Bit-for-bit reproducible
/// from `seed`.
///
/// Asserts (release mode included) that the incremental ready list and
/// inverted index were each built exactly once per run — stages from 55
/// jobs churning through admission must not trigger rebuilds.
pub fn fig_tenant_sweep(seed: u64, loads: &[f64]) -> Vec<TenantSweepRow> {
    let base = Scale {
        tasks: 8,
        block_mb: 64.0,
        iterations: 3,
    };
    loads
        .par_iter()
        .map(|&load| {
            let stream = TenantStream::generate(
                &sweep_tenants(load),
                seed,
                &base,
                &StreamOptions::default(),
            );
            let cells = TenantPolicy::LINEUP
                .par_iter()
                .map(|&policy| {
                    let out = run_tenant_stream(
                        &stream,
                        &sweep_cluster(seed),
                        policy,
                        AdmissionConfig::default(),
                    );
                    let s = &out.result.metrics.sched;
                    assert_eq!(
                        s.ready_list_rebuilds,
                        1,
                        "{}: ready list rebuilt mid-stream",
                        policy.label()
                    );
                    assert_eq!(
                        s.inv_index_rebuilds,
                        1,
                        "{}: inverted index rebuilt mid-stream",
                        policy.label()
                    );
                    TenantSweepCell {
                        policy: out.policy,
                        p50_jct_ms: out.report.p50_jct_ms,
                        p99_jct_ms: out.report.p99_jct_ms,
                        jain_fairness: out.report.jain_fairness,
                        cpu_util: out.result.cpu_utilization(),
                        makespan_ms: out.result.jct,
                        rejected: out.report.tenants.iter().map(|t| t.rejected).sum(),
                    }
                })
                .collect();
            TenantSweepRow { load, cells }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_roster_has_three_tenants_and_55_jobs() {
        let tenants = sweep_tenants(1.0);
        assert_eq!(tenants.len(), 3);
        let jobs: u32 = tenants
            .iter()
            .map(|t| match t.client {
                ClientKind::OpenPoisson { jobs, .. } => jobs,
                ClientKind::ClosedLoop {
                    clients,
                    jobs_per_client,
                    ..
                } => clients * jobs_per_client,
            })
            .sum();
        assert_eq!(jobs, 55);
        assert_eq!(sweep_cluster(1).racks, vec![25, 25]);
    }

    #[test]
    fn tenant_stream_runs_under_every_policy() {
        // A small stream on a small cluster: every policy completes all
        // jobs and the report adds up.
        let tenants = vec![
            TenantSpec {
                name: "a".into(),
                weight: 2,
                mix: vec![Workload::KMeans],
                tasks: BoundedPareto::fixed(8.0),
                client: ClientKind::OpenPoisson {
                    jobs: 2,
                    mean_interarrival_ms: 5_000,
                },
            },
            TenantSpec {
                name: "b".into(),
                weight: 1,
                mix: vec![Workload::LinearRegression],
                tasks: BoundedPareto::fixed(8.0),
                client: ClientKind::ClosedLoop {
                    clients: 1,
                    jobs_per_client: 2,
                    mean_think_ms: 2_000,
                },
            },
        ];
        let stream =
            TenantStream::generate(&tenants, 11, &Scale::tiny(), &StreamOptions::default());
        let cluster = ClusterConfig::tiny(4, 8);
        for policy in TenantPolicy::LINEUP {
            let out = run_tenant_stream(&stream, &cluster, policy, AdmissionConfig::default());
            assert_eq!(out.result.jobs.len(), 4, "{}", policy.label());
            assert!(
                out.result.jobs.iter().all(|j| j.completed_ms.is_some()),
                "{}: not all jobs completed",
                policy.label()
            );
            assert_eq!(out.report.tenants.len(), 2);
            assert!(out.report.jain_fairness > 0.0);
            assert_eq!(out.result.metrics.sched.ready_list_rebuilds, 1);
            assert_eq!(out.result.metrics.sched.inv_index_rebuilds, 1);
        }
    }

    #[test]
    fn admission_caps_produce_backpressure() {
        let tenants = vec![TenantSpec {
            name: "burst".into(),
            weight: 1,
            mix: vec![Workload::KMeans],
            tasks: BoundedPareto::fixed(4.0),
            client: ClientKind::OpenPoisson {
                jobs: 6,
                mean_interarrival_ms: 10,
            },
        }];
        let stream = TenantStream::generate(&tenants, 3, &Scale::tiny(), &StreamOptions::default());
        let adm = AdmissionConfig {
            max_concurrent_jobs: 1,
            queue_cap: 2,
            ..Default::default()
        };
        let out = run_tenant_stream(&stream, &ClusterConfig::tiny(2, 4), TenantPolicy::Fifo, adm);
        let rejected = out.report.tenants[0].rejected;
        assert!(rejected > 0, "burst under cap 1 + queue 2 must reject");
        assert_eq!(
            out.report.tenants[0].completed + rejected,
            6,
            "every job either completes or is rejected"
        );
        // Queued jobs waited.
        assert!(out.report.tenants[0].mean_queue_ms > 0.0);
    }
}
