//! The measurement protocol.
//!
//! One invocation measures each workload at [`SEEDS`] cluster seeds:
//! `--seed` and the next ones [`SEED_STRIDE`] apart. On the 200-executor
//! workloads the HDFS placement alone moves the run time by ±10% from one
//! seed to the next, so one seed per invocation would make the result
//! depend on which seed an invocation drew.
//!
//! Per workload: one untimed warm-up run at `--seed`. Every later run must
//! reproduce the output of the first run at its seed. Then timed rounds.
//! Round `r` runs every selected workload [`Spec::per_round`] times at
//! seed `r % SEEDS`, round-robin from one thread, starting one workload
//! later each round. Host speed drifts by 10–20% over tens of seconds on a
//! small shared machine, so interleaving spreads the drift evenly over the
//! workloads instead of letting it land on whichever ran last. Each timed
//! run is followed by one pass of the [`reference`](crate::reference)
//! computation, and the end-to-end run time is run / reference: drift that
//! outlasts a whole invocation cancels out of it. With tracing, each of
//! the first [`TRACED_RUNS`] rounds also gives every workload one run with
//! the timing decorators, right after its timed runs. The tracing overhead
//! compares each traced run with the timed runs at its seed, all in
//! reference units. Last, one untimed run per workload at `--seed` with
//! the counting allocator on, for the peak heap.
//!
//! A timed metric is the median over the seeds of each seed's median.
//! The simulated outcome and the simulator's counters come from the
//! warm-up run at `--seed`, so they are exact for it.
//!
//! Every run is wrapped in `catch_unwind`: a run that panics or fails the
//! output check counts toward `error_rate` and the others still report.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use crate::alloc;
use crate::clock::{now_ns, timer_cost_ns};
use crate::reference;
use crate::stats::{median, Stat};
use crate::trace::{Op, Summary, Tracer};
use crate::workload::{Input, Outcome, SetupTimes, Signature, Spec};

/// Cluster seeds per invocation.
pub const SEEDS: usize = 4;
/// Distance between an invocation's cluster seeds, so that invocations at
/// nearby `--seed`s share none.
pub const SEED_STRIDE: u64 = 1000;
/// Traced runs per workload, one in each of the first rounds. The
/// per-layer times are their medians.
pub const TRACED_RUNS: usize = 3;

/// When the timed rounds end.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Rounds(usize),
    /// After the first round that ends this many seconds after the first
    /// round started.
    Seconds(f64),
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workloads: Vec<Spec>,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
}

/// One workload's results.
pub struct Report {
    pub spec: Spec,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Values by catalogue name; empty if the warm-up run failed.
    pub values: BTreeMap<&'static str, Stat>,
    /// Span tables of the traced runs, as JSON arrays.
    pub spans: Vec<String>,
}

/// One timed run.
struct Sample {
    setup: SetupTimes,
    run_ns: f64,
    /// The reference computation's time right after the run.
    ref_ns: f64,
}

impl Sample {
    /// Run time in reference units.
    fn rel(&self) -> f64 {
        self.run_ns / self.ref_ns
    }
}

/// One traced run.
struct Traced {
    seed: usize,
    summary: Summary,
    setup: SetupTimes,
    launches: f64,
    /// Run time in reference units.
    rel: f64,
}

/// One of the invocation's cluster seeds.
struct Seed {
    input: Input,
    /// What every run at this seed must reproduce: the first run's output.
    signature: Option<Signature>,
    launches: f64,
    samples: Vec<Sample>,
}

struct Bench {
    spec: Spec,
    seeds: Vec<Seed>,
    /// The warm-up run's outcome at `--seed`.
    warm: Option<Outcome>,
    peak_bytes: Option<u64>,
    traced: Vec<Traced>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Check `out` and that it reproduces the first run at its seed, if there
/// was one; return its signature.
fn verify(expected: Option<Signature>, out: &Outcome) -> Result<Signature, String> {
    let sig = out.check()?;
    match expected {
        Some(r) if r != sig => Err(format!("(jct, fingerprint) {sig:?} differs from {r:?}")),
        _ => Ok(sig),
    }
}

impl Bench {
    fn new(spec: Spec, seed: u64) -> Self {
        let seeds = (0..SEEDS as u64)
            .map(|i| Seed {
                input: spec.input(seed + i * SEED_STRIDE),
                signature: None,
                launches: 0.0,
                samples: Vec::new(),
            })
            .collect();
        Self {
            spec,
            seeds,
            warm: None,
            peak_bytes: None,
            traced: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Run `f` on seed `k`'s input as one attempted run, counting a panic
    /// or an `Err` as a failure.
    fn attempt<T>(
        &mut self,
        k: usize,
        f: impl FnOnce(&Input, Option<Signature>) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let seed = &self.seeds[k];
        let res = panic::catch_unwind(AssertUnwindSafe(|| f(&seed.input, seed.signature)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&*p))));
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// Record the first run's signature and launch count at seed `k`.
    fn first_run(&mut self, k: usize, sig: Signature, launches: u64) {
        let seed = &mut self.seeds[k];
        if seed.signature.is_none() {
            seed.signature = Some(sig);
            seed.launches = launches as f64;
        }
    }

    /// The untimed run at `--seed`: its outcome gives the simulated
    /// metrics. The other seeds start on a warm process, so their first
    /// timed run defines what the later ones must reproduce.
    fn warm_up(&mut self) {
        if let Some((out, sig)) = self.attempt(0, |input, _| {
            let out = input.setup(None).run();
            let sig = out.check()?;
            Ok((out, sig))
        }) {
            self.first_run(0, sig, out.launches());
            self.warm = Some(out);
        }
    }

    fn timed_run(&mut self, k: usize) {
        if let Some((out, sig)) = self.attempt(k, |input, expected| {
            let out = input.setup(None).run();
            let sig = verify(expected, &out)?;
            Ok((out, sig))
        }) {
            // Timed while the run's outcome is still alive: freeing it
            // first lets the allocator hand memory back to the system,
            // which the next set-up then pays for in page faults.
            let ref_ns = reference::time_ns() as f64;
            self.first_run(k, sig, out.launches());
            self.seeds[k].samples.push(Sample {
                setup: out.setup,
                run_ns: out.run_ns as f64,
                ref_ns,
            });
        }
    }

    fn memory_run(&mut self) {
        let ok = self.attempt(0, |input, expected| {
            alloc::start();
            let out = input.setup(None).run();
            let verdict = verify(expected, &out);
            drop(out);
            let (_, peak) = alloc::stop();
            verdict.map(|_| peak)
        });
        alloc::stop();
        self.peak_bytes = ok;
    }

    /// One traced run at seed `k`.
    fn traced_run(&mut self, k: usize) {
        let calls = self
            .warm
            .as_ref()
            .map_or(0, |r| r.result.metrics.sched.schedule_invocations);
        let traced = self.attempt(k, |input, expected| {
            // Calibrated now: the clock's cost drifts with the host.
            let timer_ns = timer_cost_ns();
            let tracer = Tracer::new(timer_ns, usize::try_from(calls).unwrap_or(0) + 64);
            let ready = input.setup(Some(&tracer));
            alloc::start();
            let out = ready.run();
            let (run_allocs, _) = alloc::stop();
            verify(expected, &out)?;
            Ok((
                tracer.summary(out.run_ns, run_allocs),
                out.setup,
                out.launches(),
            ))
        });
        alloc::stop();
        if let Some((summary, setup, launches)) = traced {
            let rel = summary.run_ns / reference::time_ns() as f64;
            self.traced.push(Traced {
                seed: k,
                summary,
                setup,
                launches: launches as f64,
                rel,
            });
        }
    }

    /// The median over seeds of each seed's median of `f`; p25 and p75
    /// are over the seeds, and `n` counts the runs.
    fn by_seed(&self, f: impl Fn(&Seed, &Sample) -> f64) -> Stat {
        let medians: Vec<f64> = self
            .seeds
            .iter()
            .filter(|s| !s.samples.is_empty())
            .map(|s| median(&s.samples.iter().map(|x| f(s, x)).collect::<Vec<_>>()))
            .collect();
        let runs = self.seeds.iter().map(|s| s.samples.len()).sum();
        Stat {
            n: runs,
            ..Stat::of(&medians)
        }
    }

    fn report(self) -> Report {
        let mut values = BTreeMap::new();
        let spans = self
            .traced
            .iter()
            .map(|t| t.summary.spans_json(&t.setup))
            .collect();
        let sampled = self.seeds.iter().any(|s| !s.samples.is_empty());
        if let (Some(warm), true) = (&self.warm, sampled) {
            let mut put = |name: &'static str, stat: Stat| {
                values.insert(name, stat);
            };
            let secs = |f: fn(&SetupTimes) -> u64| self.by_seed(|_, x| f(&x.setup) as f64 / 1e9);
            // Set-up time must be in seconds: the reference-unit time, at the
            // reference's nominal speed.
            put(
                "setup_s",
                self.by_seed(|_, x| x.setup.total_ns as f64 / x.ref_ns * reference::NOMINAL_S),
            );
            put("run_ref", self.by_seed(|_, x| x.rel()));
            put(
                "launches_per_ref",
                self.by_seed(|s, x| s.launches / x.rel()),
            );
            put("run_s", self.by_seed(|_, x| x.run_ns / 1e9));
            put(
                "launches_per_s",
                self.by_seed(|s, x| s.launches / (x.run_ns / 1e9)),
            );
            let refs: Vec<f64> = self
                .seeds
                .iter()
                .flat_map(|s| s.samples.iter().map(|x| x.ref_ns / 1e6))
                .collect();
            put("bench.ref_ms", Stat::of(&refs));
            if let Some(peak) = self.peak_bytes {
                put("peak_heap_mb", Stat::exact(peak as f64 / (1024.0 * 1024.0)));
            }
            put("workloads.build_s", secs(|s| s.build_ns));
            put("profiler.estimate_s", secs(|s| s.estimate_ns));
            put("sched.build_s", secs(|s| s.sched_build_ns));
            put("cluster.new_s", secs(|s| s.sim_new_ns));
            for (name, v) in outcome_values(warm) {
                put(name, Stat::exact(v));
            }
            let attempted = self.attempted.max(1) as f64;
            put("error_rate", Stat::exact(self.failed as f64 / attempted));
            if !self.traced.is_empty() {
                let per_run: Vec<Vec<(&'static str, f64)>> = self
                    .traced
                    .iter()
                    .map(|t| traced_values(&t.summary, t.launches))
                    .collect();
                for (i, &(name, _)) in per_run[0].iter().enumerate() {
                    let xs: Vec<f64> = per_run.iter().map(|r| r[i].1).collect();
                    put(name, Stat::exact(median(&xs)));
                }
            }
            // Each traced run against the untraced runs at its seed, both
            // in reference units so that host drift between them cancels.
            let ratios: Vec<f64> = self
                .traced
                .iter()
                .filter(|t| !self.seeds[t.seed].samples.is_empty())
                .map(|t| {
                    let untraced: Vec<f64> =
                        self.seeds[t.seed].samples.iter().map(Sample::rel).collect();
                    t.rel / median(&untraced)
                })
                .collect();
            if !ratios.is_empty() {
                put(
                    "bench.trace_overhead_frac",
                    Stat::exact(median(&ratios) - 1.0),
                );
            }
        }
        Report {
            spec: self.spec,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            values,
            spans,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The simulated outcome and the simulator's counters: exact for a seed.
fn outcome_values(out: &Outcome) -> Vec<(&'static str, f64)> {
    let r = &out.result;
    let c = &r.metrics.cache;
    let s = &r.metrics.sched;
    let jcts = out.job_jcts_ms();
    let (jobs, rejected, mean_queue_ms) = if r.jobs.is_empty() {
        (1, 0, 0.0)
    } else {
        let admitted: Vec<f64> = r
            .jobs
            .iter()
            .filter_map(|j| j.admitted_ms.map(|a| (a - j.arrival_ms) as f64))
            .collect();
        let mean = ratio(admitted.iter().sum(), admitted.len() as f64);
        (
            r.jobs.len(),
            r.jobs.iter().filter(|j| j.rejected).count(),
            mean,
        )
    };
    let jain = out.report.as_ref().map_or(1.0, |rep| rep.jain_fairness);
    let sec = |ms: u64| ms as f64 / 1000.0;
    vec![
        ("cache.hits", c.hits as f64),
        ("cache.misses", c.misses as f64),
        ("cache.evictions", c.evictions as f64),
        ("cache.proactive_evictions", c.proactive_evictions as f64),
        ("cache.prefetches", c.prefetches as f64),
        (
            "cache.prefetch_used_ratio",
            ratio(c.prefetch_used as f64, c.prefetches as f64),
        ),
        ("cluster.launches", out.launches() as f64),
        ("cluster.view_deltas", s.view_deltas as f64),
        ("cluster.inv_index_updates", s.inv_index_updates as f64),
        ("cluster.index_invalidations", s.index_invalidations as f64),
        ("cluster.locality_queries", s.locality_queries as f64),
        ("cluster.inv_index_hits", s.inv_index_hits as f64),
        ("cluster.ect_heap_pops", s.ect_heap_pops as f64),
        (
            "cluster.ect_heap_stale_ratio",
            ratio(s.ect_heap_stale as f64, s.ect_heap_pops as f64),
        ),
        (
            "cluster.score_cache_hit_ratio",
            ratio(
                s.score_cache_hits as f64,
                (s.score_cache_hits + s.score_cache_misses) as f64,
            ),
        ),
        (
            "cluster.assignments_discarded",
            s.assignments_discarded as f64,
        ),
        (
            "cluster.speculative_launched",
            f64::from(r.metrics.speculative_launched),
        ),
        ("tenancy.jobs", jobs as f64),
        ("tenancy.rejected", rejected as f64),
        ("tenancy.mean_queue_s", mean_queue_ms / 1000.0),
        ("jct_s", sec(r.jct)),
        ("job_p50_s", sec(nearest_rank(&jcts, 0.5))),
        ("job_p80_s", sec(nearest_rank(&jcts, 0.8))),
        ("byte_hit_ratio", c.byte_hit_ratio()),
        ("jobs_rejected_frac", ratio(rejected as f64, jobs as f64)),
        ("jain_fairness", jain),
    ]
}

/// Per-layer values of one traced run.
fn traced_values(s: &Summary, launches: f64) -> Vec<(&'static str, f64)> {
    let secs = |ns: f64| ns / 1e9;
    let sched = s.op(Op::Schedule);
    let mut sorted = s.schedule_ns.clone();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank.min(sorted.len()) - 1] / 1e3
        }
    };
    let calls = |ops: &[Op]| ops.iter().map(|&o| s.op(o).calls).sum::<u64>() as f64;
    let proactive = calls(&[Op::Proactive]);
    let decorated_allocs = s.allocs(|_| true);
    vec![
        ("sched.schedule_calls", sched.calls as f64),
        ("sched.schedule_s", secs(s.schedule_ns())),
        ("sched.schedule_share", s.schedule_ns() / s.run_ns),
        ("sched.schedule_p50_us", pct(0.5)),
        ("sched.schedule_p99_us", pct(0.99)),
        ("sched.callback_s", secs(s.callback_ns())),
        (
            "sched.applied_ratio",
            ratio(s.op(Op::TaskLaunched).calls as f64, s.assignments as f64),
        ),
        (
            "sched.allocs_per_call",
            ratio(sched.allocs as f64, sched.calls as f64),
        ),
        ("cache.access_calls", calls(&[Op::Access])),
        ("cache.insert_calls", calls(&[Op::Insert])),
        ("cache.victim_calls", calls(&[Op::Victim])),
        ("cache.proactive_calls", proactive),
        (
            "cache.prefetch_calls",
            calls(&[Op::PrefetchPick, Op::PrefetchOrder]),
        ),
        ("cache.policy_s", secs(s.cache_ns())),
        ("cache.policy_share", s.cache_ns() / s.run_ns),
        (
            "cache.proactive_calls_per_launch",
            ratio(proactive, launches),
        ),
        ("cache.allocs", s.allocs(Op::is_cache) as f64),
        ("cluster.self_s", secs(s.cluster_self_ns())),
        ("cluster.self_share", s.cluster_self_ns() / s.run_ns),
        (
            "cluster.allocs_per_launch",
            ratio(
                s.run_allocs.saturating_sub(decorated_allocs) as f64,
                launches,
            ),
        ),
        ("bench.timer_ns", s.timer_ns),
    ]
}

/// Run the protocol.
pub fn measure(opts: &Options) -> Vec<Report> {
    let mut benches: Vec<Bench> = opts
        .workloads
        .iter()
        .map(|&w| Bench::new(w, opts.seed))
        .collect();
    for b in &mut benches {
        b.warm_up();
    }
    let start = now_ns();
    let n = benches.len();
    for round in 0.. {
        let k = round % SEEDS;
        for i in 0..n {
            let b = &mut benches[(round + i) % n];
            for _ in 0..b.spec.per_round() {
                b.timed_run(k);
            }
            if opts.trace && round < TRACED_RUNS {
                b.traced_run(k);
            }
        }
        let done = match opts.stop {
            Stop::Rounds(r) => round + 1 >= r,
            Stop::Seconds(s) => (now_ns() - start) as f64 / 1e9 >= s,
        };
        if done {
            break;
        }
    }
    for b in &mut benches {
        b.memory_run();
    }
    benches.into_iter().map(Bench::report).collect()
}
