//! The metric catalogue: one table that the printed output, `--list` and
//! `BENCHMARK.json` are all generated from.
//!
//! End-to-end metrics carry a regression bound. They are host-time and
//! memory numbers from untraced runs. Per-layer metrics come from the
//! traced runs, the set-up phase timers and the simulator's own counters.
//! They carry the layer they describe (a crate of the simulator, `sim` for
//! the simulated outcome, `bench` for the harness itself), the end-to-end
//! metric they should move and the workloads on which they should move it.
//! A per-layer metric's direction is the one that goes with a better
//! target.

use std::fmt::Write as _;

use crate::workload::Spec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Is `a` better than `b`? Equal values are neither.
    pub fn prefers(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. `Some` exactly for the
    /// end-to-end metrics.
    pub bound: Option<f64>,
    pub layer: &'static str,
    /// The end-to-end metric this one should move; empty for end-to-end
    /// metrics and for the simulated outcome, which a host-time change
    /// must leave exactly as it is.
    pub target: &'static str,
    /// Where it should move it; empty means every workload.
    pub workloads: &'static [&'static str],
    pub about: &'static str,
}

impl Metric {
    pub fn is_end_to_end(&self) -> bool {
        self.bound.is_some()
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "e2e",
        target: "",
        workloads: &[],
        about,
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    target: &'static str,
    workloads: &'static [&'static str],
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        target,
        workloads,
        about,
    }
}

use Better::{Higher, Lower};

const ALL: &[&str] = &[];
const SWEEP: &[&str] = &["sweep200_cc_dagon", "sweep200_km_spark"];
const SETUP_HEAVY: &[&str] = &["tenants200_wfair", "sweep200_cc_dagon", "sweep200_km_spark"];
const KM: &[&str] = &["sweep200_km_spark"];
const CACHE_HEAVY: &[&str] = &["tenants200_wfair", "sweep200_cc_dagon"];
const CC200: &[&str] = &["sweep200_cc_dagon"];
const PAPER: &[&str] = &["paper_cc_dagon"];
const TENANTS: &[&str] = &["tenants200_wfair"];

/// Run time is end to end in units of the [`crate::reference`]
/// computation timed right after each run (`ref`). On a 2-vCPU VM the same
/// binary on the same seed drifts 10–20% in wall time within minutes, and
/// sometimes 60%. The medians of ten consecutive runs spread by about 10%
/// whether a run measures for 10 s or 30 s; the ratio cancels most of
/// that. The wall times are kept as `host` metrics. Set-up time must be in
/// seconds, so it is measured in reference units and converted back at the
/// reference's nominal speed. Timed metrics are medians over the
/// invocation's cluster seeds (see [`crate::protocol`]).
/// The peak heap is exact for a seed and varies under 0.5% across seeds.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    // End to end: untraced runs.
    e2e("setup_s", "s", Lower, 0.25, "time from (spec, seed) to a ready simulation and scheduler, in reference units times the reference's nominal 13.5 ms"),
    e2e("run_ref", "ref", Lower, 0.2, "median of Simulation::run's host time over the reference computation's, timed right after"),
    e2e("launches_per_ref", "1/ref", Higher, 0.2, "non-speculative task launches divided by run_ref"),
    e2e("peak_heap_mb", "MiB", Lower, 0.02, "peak live heap over one set-up and run, from the counting allocator"),
    // Wall time, which moves with the host as well as with the code.
    layer("run_s", "s", Lower, "host", "run_ref", ALL, "median host time of Simulation::run"),
    layer("launches_per_s", "1/s", Higher, "host", "launches_per_ref", ALL, "non-speculative task launches divided by run_s"),
    layer("bench.ref_ms", "ms", Lower, "bench", "", ALL, "median host time of the reference computation: how fast the host was"),
    // Set-up calls, timed on every run.
    layer("workloads.build_s", "s", Lower, "workloads", "setup_s", SETUP_HEAVY, "Workload::build, or TenantStream::generate for the tenant stream"),
    layer("profiler.estimate_s", "s", Lower, "profiler", "setup_s", SWEEP, "AppProfiler::estimate"),
    layer("sched.build_s", "s", Lower, "sched", "setup_s", SWEEP, "build_scheduler"),
    layer("cluster.new_s", "s", Lower, "cluster", "setup_s", SWEEP, "Simulation::new (index and HDFS placement), plus with_jobs for a stream"),
    // Scheduler decorator.
    layer("sched.schedule_calls", "count", Lower, "sched", "run_ref", KM, "calls to Scheduler::schedule"),
    layer("sched.schedule_s", "s", Lower, "sched", "run_ref", KM, "busy time in Scheduler::schedule"),
    layer("sched.schedule_share", "ratio", Lower, "sched", "run_ref", KM, "sched.schedule_s over the traced run"),
    layer("sched.schedule_p50_us", "us", Lower, "sched", "launches_per_ref", KM, "median Scheduler::schedule call"),
    layer("sched.schedule_p99_us", "us", Lower, "sched", "launches_per_ref", KM, "99th-percentile Scheduler::schedule call"),
    layer("sched.callback_s", "s", Lower, "sched", "run_ref", KM, "busy time in the other Scheduler methods (launch, stage and priority callbacks)"),
    layer("sched.applied_ratio", "ratio", Higher, "sched", "launches_per_ref", KM, "launches applied over assignments returned; discarded batch tails are wasted"),
    layer("sched.allocs_per_call", "count", Lower, "sched", "run_ref", CC200, "allocations inside Scheduler::schedule per call"),
    // Cache-policy decorator.
    layer("cache.access_calls", "count", Lower, "cache", "run_ref", CACHE_HEAVY, "CachePolicy::on_access calls"),
    layer("cache.insert_calls", "count", Lower, "cache", "run_ref", CACHE_HEAVY, "CachePolicy::on_insert calls"),
    layer("cache.victim_calls", "count", Lower, "cache", "run_ref", CACHE_HEAVY, "CachePolicy::victim calls"),
    layer("cache.proactive_calls", "count", Lower, "cache", "run_ref", CACHE_HEAVY, "CachePolicy::proactive_victims calls (per-tick sweeps)"),
    layer("cache.prefetch_calls", "count", Lower, "cache", "run_ref", CACHE_HEAVY, "CachePolicy::prefetch_pick and prefetch_order calls"),
    layer("cache.policy_s", "s", Lower, "cache", "run_ref", CACHE_HEAVY, "busy time in all CachePolicy methods (1-in-16 timed, scaled up)"),
    layer("cache.policy_share", "ratio", Lower, "cache", "run_ref", CACHE_HEAVY, "cache.policy_s over the traced run"),
    layer("cache.proactive_calls_per_launch", "ratio", Lower, "cache", "run_ref", CACHE_HEAVY, "cache.proactive_calls over cluster.launches"),
    layer("cache.allocs", "count", Lower, "cache", "run_ref", CC200, "allocations inside CachePolicy methods"),
    // Simulated cache counters.
    layer("cache.hits", "count", Higher, "cache", "byte_hit_ratio", PAPER, "simulated cache hits"),
    layer("cache.misses", "count", Lower, "cache", "byte_hit_ratio", PAPER, "simulated cache misses"),
    layer("cache.evictions", "count", Lower, "cache", "jct_s", PAPER, "simulated evictions under space pressure"),
    layer("cache.proactive_evictions", "count", Lower, "cache", "jct_s", PAPER, "simulated proactive (zero-priority) evictions"),
    layer("cache.prefetches", "count", Higher, "cache", "byte_hit_ratio", PAPER, "simulated prefetches issued"),
    layer("cache.prefetch_used_ratio", "ratio", Higher, "cache", "byte_hit_ratio", PAPER, "prefetched blocks later read over prefetches issued (0 with none)"),
    // Cluster: the run minus the decorated calls, plus its counters.
    layer("cluster.launches", "count", Lower, "cluster", "launches_per_ref", ALL, "non-speculative task launches: the base of the per-launch ratios"),
    layer("cluster.self_s", "s", Lower, "cluster", "run_ref", CC200, "the traced run minus scheduler, callback and cache-policy time"),
    layer("cluster.self_share", "ratio", Lower, "cluster", "run_ref", CC200, "cluster.self_s over the traced run"),
    layer("cluster.view_deltas", "count", Lower, "cluster", "run_ref", CC200, "incremental cluster-view deltas"),
    layer("cluster.inv_index_updates", "count", Lower, "cluster", "run_ref", CC200, "inverted-index maintenance operations"),
    layer("cluster.index_invalidations", "count", Lower, "cluster", "run_ref", CC200, "block-placement mutations that invalidated memoized localities"),
    layer("cluster.locality_queries", "count", Lower, "cluster", "run_ref", CC200, "per-(task, executor) locality lookups"),
    layer("cluster.inv_index_hits", "count", Higher, "cluster", "run_ref", CC200, "placement probes skipped by the inverted index"),
    layer("cluster.ect_heap_pops", "count", Lower, "cluster", "run_ref", TENANTS, "free-executor heap entries examined"),
    layer("cluster.ect_heap_stale_ratio", "ratio", Lower, "cluster", "run_ref", TENANTS, "stale entries over cluster.ect_heap_pops"),
    layer("cluster.score_cache_hit_ratio", "ratio", Higher, "cluster", "run_ref", CC200, "placement-score memo hits over lookups"),
    layer("cluster.assignments_discarded", "count", Lower, "cluster", "launches_per_ref", KM, "assignments dropped by batch discards"),
    layer("cluster.speculative_launched", "count", Lower, "cluster", "run_ref", PAPER, "speculative attempts launched"),
    layer("cluster.allocs_per_launch", "count", Lower, "cluster", "peak_heap_mb", CC200, "allocations in the run outside decorated calls, per launch"),
    // Tenancy.
    layer("tenancy.jobs", "count", Higher, "tenancy", "job_p80_s", TENANTS, "jobs arrived (1 for a batch run)"),
    layer("tenancy.rejected", "count", Lower, "tenancy", "jobs_rejected_frac", TENANTS, "jobs rejected by admission control"),
    layer("tenancy.mean_queue_s", "sim_s", Lower, "tenancy", "job_p80_s", TENANTS, "mean simulated wait before admission"),
    // Simulated outcome: deterministic for a seed.
    layer("jct_s", "sim_s", Lower, "sim", "", ALL, "simulated makespan"),
    layer("job_p50_s", "sim_s", Lower, "sim", "", ALL, "median per-job JCT over completed jobs"),
    layer("job_p80_s", "sim_s", Lower, "sim", "", ALL, "80th-percentile per-job JCT (nearest rank), the highest with 10 of 55 jobs beyond it"),
    layer("byte_hit_ratio", "ratio", Higher, "sim", "", ALL, "simulated cache byte hit ratio"),
    layer("jobs_rejected_frac", "ratio", Lower, "sim", "", ALL, "admission rejections over jobs arrived"),
    layer("jain_fairness", "ratio", Higher, "sim", "", ALL, "Jain's index over per-tenant mean JCT; 1 with one tenant"),
    // The harness itself.
    layer("error_rate", "ratio", Lower, "bench", "", ALL, "runs that panicked or failed the output check over runs attempted"),
    layer("bench.timer_ns", "ns", Lower, "bench", "", ALL, "calibrated cost of a clock pair, subtracted from every timed span"),
    layer("bench.trace_overhead_frac", "ratio", Lower, "bench", "", ALL, "median traced run over median untraced run, minus one"),
];

/// The benchmark's command, as `BENCHMARK.json` gives it.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "dagon_bench/Cargo.toml",
    "--bin",
    "dagon_bench",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["dagon_bench"];

/// Seconds one run of the `BENCHMARK.json` command measures. Longer runs
/// do not steady the medians: the host's slow phases last minutes.
pub const RUN_SECONDS: u64 = 10;

fn quoted(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let v: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", s.as_ref()))
        .collect();
    v.join(", ")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(s, "  \"paths\": [{}],", quoted(PATHS));
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads: Vec<String> = Spec::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let metrics = |end_to_end: bool| {
        let rows: Vec<String> = METRICS
            .iter()
            .filter(|m| m.is_end_to_end() == end_to_end)
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect();
        rows.join(",\n")
    };
    let _ = writeln!(s, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    let _ = writeln!(s, "  \"end_to_end\": [\n{}\n  ],", metrics(true));
    let _ = writeln!(s, "  \"per_layer\": [\n{}\n  ]", metrics(false));
    s.push_str("}\n");
    s
}

/// The catalogue as a table, for `--list`.
pub fn listing() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<34} {:<6} {:<6} {:<6} {:<9} {:<18} {:<44} about",
        "metric", "unit", "better", "bound", "layer", "target", "workloads"
    );
    for m in METRICS {
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        let target = if m.target.is_empty() { "-" } else { m.target };
        let workloads = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(",")
        };
        let _ = writeln!(
            s,
            "{:<34} {:<6} {:<6} {:<6} {:<9} {:<18} {:<44} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.layer,
            target,
            workloads,
            m.about
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let find = |name: &str| METRICS.iter().find(|m| m.name == name);
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (i, m) in METRICS.iter().enumerate() {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            if let Some(b) = m.bound {
                assert!((0.0..=0.25).contains(&b), "{}", m.name);
            }
            for w in m.workloads {
                assert!(Spec::from_name(w).is_some(), "{}: {w}", m.name);
            }
            if !m.target.is_empty() {
                assert!(find(m.target).is_some_and(|t| t.layer == "e2e" || t.layer == "sim"));
            }
        }
        for w in Spec::ALL {
            assert!(ok_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        let setup = find("setup_s").and_then(|m| m.bound).unwrap();
        assert!(METRICS.iter().filter_map(|m| m.bound).all(|b| b <= setup));
    }
}
