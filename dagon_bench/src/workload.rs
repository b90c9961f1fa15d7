//! The benchmark's workloads: how each is built from `--seed`, the timed
//! set-up path from spec to a ready simulation, and the output check every
//! run must pass.

use std::rc::Rc;

use dagon_cache::PolicyKind;
use dagon_cluster::{
    AdmissionConfig, CachePolicy, ClusterConfig, Scheduler, SimResult, Simulation,
};
use dagon_core::experiments::ExpConfig;
use dagon_core::tenancy::{sweep_cluster, sweep_tenants};
use dagon_core::{System, TenantPolicy};
use dagon_profiler::AppProfiler;
use dagon_tenancy::{StreamOptions, TenantReport, TenantSpec, TenantStream};
use dagon_workloads::{Scale, Workload};

use crate::clock::now_ns;
use crate::trace::{TimedCache, TimedScheduler, Tracer};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    PaperCcDagon,
    Sweep200CcDagon,
    Sweep200KmSpark,
    Tenants200Wfair,
}

impl Spec {
    pub const ALL: [Spec; 4] = [
        Spec::PaperCcDagon,
        Spec::Sweep200CcDagon,
        Spec::Sweep200KmSpark,
        Spec::Tenants200Wfair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Spec::PaperCcDagon => "paper_cc_dagon",
            Spec::Sweep200CcDagon => "sweep200_cc_dagon",
            Spec::Sweep200KmSpark => "sweep200_km_spark",
            Spec::Tenants200Wfair => "tenants200_wfair",
        }
    }

    /// Why the workload is in the benchmark (one line, for
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Spec::PaperCcDagon => {
                "the paper's headline setting (CC, 72 executors, full Dagon); cost spread over \
                 scheduler, cache policy and cluster"
            }
            Spec::Sweep200CcDagon => {
                "write-heavy CC on 200 executors: launch and inverted-index upkeep dominate"
            }
            Spec::Sweep200KmSpark => {
                "read-heavy KMeans under stock Spark: the scheduler decision dominates and Dagon's \
                 order, placement and LRP paths are bypassed"
            }
            Spec::Tenants200Wfair => {
                "3-tenant, 55-job online stream under WFair+Dagon: admission, event queue and \
                 per-tick cache sweeps"
            }
        }
    }

    /// Timed runs per interleaved round: roughly equal host time per
    /// workload per round.
    pub fn per_round(self) -> usize {
        match self {
            Spec::PaperCcDagon => 8,
            Spec::Sweep200CcDagon => 1,
            Spec::Sweep200KmSpark => 5,
            Spec::Tenants200Wfair => 3,
        }
    }

    pub fn from_name(name: &str) -> Option<Spec> {
        Spec::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The workload's inputs at `seed`, which seeds the cluster: HDFS
    /// placement, duration jitter and profiler noise. The job DAG, or the
    /// job stream, is the same at every seed. A stream drawn at another
    /// seed has other jobs, and its run time varies 2× across seeds, which
    /// would bury any change under seed noise. The stream is the
    /// `fig_tenant_sweep` stream at [`STREAM_SEED`].
    pub fn input(self, seed: u64) -> Input {
        // The 200-executor weak-scaling point: tasks scaled with the core
        // count from the paper shape.
        let sweep_scale = Scale {
            tasks: 1600,
            block_mb: 128.0,
            iterations: 8,
        };
        match self {
            Spec::PaperCcDagon => {
                let mut cfg = ExpConfig::paper();
                cfg.cluster.seed = seed;
                Input::Batch {
                    workload: Workload::ConnectedComponent,
                    scale: cfg.scale,
                    cluster: cfg.cluster,
                    system: System::dagon(),
                }
            }
            Spec::Sweep200CcDagon => Input::Batch {
                workload: Workload::ConnectedComponent,
                scale: sweep_scale,
                cluster: sweep_cluster(seed),
                system: System::dagon(),
            },
            Spec::Sweep200KmSpark => Input::Batch {
                workload: Workload::KMeans,
                scale: sweep_scale,
                cluster: sweep_cluster(seed),
                system: System::stock_spark(),
            },
            Spec::Tenants200Wfair => Input::Stream {
                tenants: sweep_tenants(1.0),
                base: Scale::tiny(),
                seed: STREAM_SEED,
                cluster: sweep_cluster(seed),
                policy: TenantPolicy::WeightedFairDagon,
                admission: AdmissionConfig::default(),
            },
        }
    }
}

/// The tenant stream's generator seed: the stream of the committed
/// `tenant_stream_200` snapshot row.
pub const STREAM_SEED: u64 = 7;

/// `(spec, seed, jct_ms, launches)` pinned by the committed snapshots.
/// `paper_cc_dagon` is cheap enough for a debug-build test; the other two
/// are checked by `dagon_bench --check-anchors`.
pub const ANCHORS: [(Spec, u64, u64, u64); 3] = [
    (Spec::PaperCcDagon, 1, 42_640, 4_760),
    (Spec::Sweep200CcDagon, 1, 107_957, 34_000),
    (Spec::Tenants200Wfair, 7, 1_525_622, 5_097),
];

/// Everything a run is built from.
#[derive(Clone, Debug)]
pub enum Input {
    /// One job DAG under a named system.
    Batch {
        workload: Workload,
        scale: Scale,
        cluster: ClusterConfig,
        system: System,
    },
    /// A seeded multi-tenant job stream under dynamic admission.
    Stream {
        tenants: Vec<TenantSpec>,
        base: Scale,
        seed: u64,
        cluster: ClusterConfig,
        policy: TenantPolicy,
        admission: AdmissionConfig,
    },
}

/// Host time of each public set-up call, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Workload::build`, or `TenantStream::generate` for a stream.
    pub build_ns: u64,
    /// `AppProfiler::estimate`.
    pub estimate_ns: u64,
    /// `build_scheduler`.
    pub sched_build_ns: u64,
    /// `Simulation::new`, plus `with_jobs` for a stream.
    pub sim_new_ns: u64,
    /// The whole set-up, from spec to a ready simulation and scheduler.
    pub total_ns: u64,
}

impl SetupTimes {
    /// `(layer, method, ns)` of each timed set-up call.
    pub fn phases(&self) -> [(&'static str, &'static str, u64); 4] {
        [
            ("workloads", "build", self.build_ns),
            ("profiler", "estimate", self.estimate_ns),
            ("sched", "build", self.sched_build_ns),
            ("cluster", "new", self.sim_new_ns),
        ]
    }
}

/// A simulation and its scheduler, ready to run.
pub struct Ready {
    sim: Simulation,
    sched: Box<dyn Scheduler>,
    stream: Option<TenantStream>,
    pub setup: SetupTimes,
}

/// A finished run.
pub struct Outcome {
    pub result: SimResult,
    /// The per-tenant report of a stream run.
    pub report: Option<TenantReport>,
    pub setup: SetupTimes,
    /// Host time of `Simulation::run`.
    pub run_ns: u64,
}

/// What every run of one workload and seed must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    pub jct: u64,
    pub fingerprint: u64,
}

fn cache_factory(
    kind: PolicyKind,
    tracer: Option<&Rc<Tracer>>,
) -> impl Fn() -> Box<dyn CachePolicy> {
    let tracer = tracer.cloned();
    move || match &tracer {
        Some(t) => Box::new(TimedCache::new(kind.build(), Rc::clone(t))),
        None => kind.build(),
    }
}

impl Input {
    /// Build a ready simulation, timing each public set-up call. With a
    /// tracer, the scheduler and every cache policy are wrapped in timing
    /// decorators.
    pub fn setup(&self, tracer: Option<&Rc<Tracer>>) -> Ready {
        let t0 = now_ns();
        let (sim, sched, stream, [t1, t2, t3]) = match self {
            Input::Batch {
                workload,
                scale,
                cluster,
                system,
            } => {
                let dag = workload.build(scale);
                let t1 = now_ns();
                let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&dag);
                let t2 = now_ns();
                let sched = system.build_scheduler(&dag, &est);
                let t3 = now_ns();
                let sim =
                    Simulation::new(dag, cluster.clone(), cache_factory(system.cache, tracer));
                (sim, sched, None, [t1, t2, t3])
            }
            Input::Stream {
                tenants,
                base,
                seed,
                cluster,
                policy,
                admission,
            } => {
                let stream =
                    TenantStream::generate(tenants, *seed, base, &StreamOptions::default());
                let t1 = now_ns();
                let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag);
                let t2 = now_ns();
                let sched = policy.build_scheduler(&stream, &est);
                let t3 = now_ns();
                let sim = Simulation::new(
                    stream.dag.clone(),
                    cluster.clone(),
                    cache_factory(policy.cache_kind(), tracer),
                )
                .with_jobs(stream.runtime(*admission));
                (sim, sched, Some(stream), [t1, t2, t3])
            }
        };
        let t4 = now_ns();
        let sched: Box<dyn Scheduler> = match tracer {
            Some(t) => Box::new(TimedScheduler::new(sched, Rc::clone(t))),
            None => sched,
        };
        Ready {
            sim,
            sched,
            stream,
            setup: SetupTimes {
                build_ns: t1 - t0,
                estimate_ns: t2 - t1,
                sched_build_ns: t3 - t2,
                sim_new_ns: t4 - t3,
                total_ns: t4 - t0,
            },
        }
    }
}

impl Ready {
    /// Run to completion, timing `Simulation::run` only.
    pub fn run(self) -> Outcome {
        let Ready {
            sim,
            mut sched,
            stream,
            setup,
        } = self;
        let t0 = now_ns();
        let result = sim.run(sched.as_mut());
        let run_ns = now_ns() - t0;
        let report = stream.as_ref().map(|s| TenantReport::new(s, &result));
        Outcome {
            result,
            report,
            setup,
            run_ns,
        }
    }
}

impl Outcome {
    /// Non-speculative task launches.
    pub fn launches(&self) -> u64 {
        self.result
            .metrics
            .task_runs
            .iter()
            .filter(|t| !t.speculative)
            .count() as u64
    }

    /// Check the run's output and return its signature:
    /// - the view, ready list and inverted index were each built once;
    /// - the cache ledger balances;
    /// - a batch job completed every stage; in a stream every job either
    ///   completed or was rejected, and the tenant report accounts for
    ///   each job once.
    pub fn check(&self) -> Result<Signature, String> {
        let r = &self.result;
        let s = &r.metrics.sched;
        for (name, n) in [
            ("view_rebuilds", s.view_rebuilds),
            ("ready_list_rebuilds", s.ready_list_rebuilds),
            ("inv_index_rebuilds", s.inv_index_rebuilds),
        ] {
            if n != 1 {
                return Err(format!("{name} = {n}, expected 1"));
            }
        }
        let c = &r.metrics.cache;
        let out = c.evictions + c.proactive_evictions + c.lost + c.resident_end;
        if c.insertions != out {
            return Err(format!(
                "cache ledger: {} insertions != {out} evicted, lost or resident",
                c.insertions
            ));
        }
        if r.jct == 0 {
            return Err("zero jct".into());
        }
        match &self.report {
            None => {
                if let Some(i) = r
                    .metrics
                    .per_stage
                    .iter()
                    .position(|m| m.completed_at.is_none())
                {
                    return Err(format!("stage {i} never completed"));
                }
            }
            Some(report) => {
                if let Some(j) = r
                    .jobs
                    .iter()
                    .find(|j| j.completed_ms.is_some() == j.rejected)
                {
                    return Err(format!("job {} neither completed nor rejected", j.job));
                }
                let jobs: u32 = report.tenants.iter().map(|t| t.jobs).sum();
                let done: u32 = report
                    .tenants
                    .iter()
                    .map(|t| t.completed + t.rejected)
                    .sum();
                if jobs as usize != r.jobs.len() || done as usize != r.jobs.len() {
                    return Err(format!(
                        "tenant report covers {jobs} jobs ({done} finished) of {}",
                        r.jobs.len()
                    ));
                }
            }
        }
        Ok(Signature {
            jct: r.jct,
            fingerprint: r.fingerprint(),
        })
    }

    /// Per-job JCTs in milliseconds over completed jobs, sorted; a batch
    /// run is one job.
    pub fn job_jcts_ms(&self) -> Vec<u64> {
        let r = &self.result;
        if r.jobs.is_empty() {
            return vec![r.jct];
        }
        let mut v: Vec<u64> = r
            .jobs
            .iter()
            .filter_map(|j| j.completed_ms.map(|c| c - j.arrival_ms))
            .collect();
        v.sort_unstable();
        v
    }
}
