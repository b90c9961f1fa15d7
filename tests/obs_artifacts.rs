//! Exported-artifact validity: the Chrome `trace_event` JSON is
//! schema-valid and internally consistent (every span inside the run
//! horizon, no two spans overlapping on one lane), and the metrics
//! registry of a paper-scale run carries the full pinned key set with
//! values that cross-check against the `SimResult` it was derived from.
//!
//! The JSON is re-parsed with `dagon_obs::json` — an independent
//! recursive-descent parser, not the emitter — so a malformed escape or an
//! unbalanced bracket cannot pass.

use std::collections::BTreeMap;

use dagon_core::experiments::ExpConfig;
use dagon_core::{run_system, run_system_traced, System};
use dagon_obs::json::{parse, Value};
use dagon_obs::{chrome_trace_json, stage_timeline_json, summary_json, RingRecorder, TraceMeta};
use dagon_workloads::Workload;

fn traced_cc_quick() -> (dagon_core::RunOutcome, TraceMeta) {
    let quick = ExpConfig::quick();
    let dag = Workload::ConnectedComponent.build(&quick.scale);
    let out = run_system_traced(
        &dag,
        &quick.cluster,
        &System::dagon(),
        Box::new(RingRecorder::unbounded()),
    );
    let meta = TraceMeta {
        run: "CC_quick_dagon".into(),
        workload: out.workload.clone(),
        system: out.system.clone(),
        jct_ms: out.result.jct as f64,
    };
    (out, meta)
}

/// A JSON number that must be a count: a non-negative integer that f64
/// represents exactly.
#[allow(clippy::cast_possible_truncation)] // integral and below 2^53, checked first
fn count(x: f64) -> u64 {
    assert!(
        (0.0..9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0,
        "{x} is not a count"
    );
    x as u64
}

#[test]
fn chrome_trace_is_schema_valid_and_consistent() {
    let (out, meta) = traced_cc_quick();
    let doc = parse(&chrome_trace_json(&meta, &out.result.trace)).expect("trace parses");
    let top = doc.as_obj().expect("top-level object");
    assert_eq!(
        top.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let other = top.get("otherData").and_then(Value::as_obj).unwrap();
    assert_eq!(other.get("system").and_then(Value::as_str), Some("Dagon"));
    let events = top.get("traceEvents").and_then(Value::as_arr).unwrap();
    assert!(!events.is_empty());

    let horizon_us = (out.result.jct + 1) as f64 * 1000.0;
    // (pid, tid) -> [(ts, ts+dur)]: spans per lane, for the overlap check.
    let mut lanes: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let (mut spans, mut metas, mut instants) = (0, 0, 0);
    for ev in events {
        let e = ev.as_obj().expect("event object");
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        assert!(e.get("name").and_then(Value::as_str).is_some());
        let pid = e.get("pid").and_then(Value::as_f64).expect("pid");
        let tid = e.get("tid").and_then(Value::as_f64).expect("tid");
        match ph {
            "M" => metas += 1,
            "X" => {
                spans += 1;
                let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 1000.0, "sub-ms span: ts {ts} dur {dur}");
                assert!(ts + dur <= horizon_us, "span past horizon");
                let args = e.get("args").and_then(Value::as_obj).expect("span args");
                assert!(args.get("stage").and_then(Value::as_str).is_some());
                assert!(args.get("outcome").and_then(Value::as_str).is_some());
                lanes
                    .entry((count(pid), count(tid)))
                    .or_default()
                    .push((ts, ts + dur));
            }
            "i" => {
                instants += 1;
                assert_eq!(e.get("s").and_then(Value::as_str), Some("p"));
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(spans > 0 && metas > 0, "{spans} spans, {metas} metadata");
    let _ = instants; // fault-free run: instants may legitimately be zero
                      // Lane packing invariant: one core-row never draws overlapping tasks.
    for ((pid, tid), mut sp) in lanes {
        sp.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in sp.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "exec {pid} lane {tid}: spans overlap ({:?} then {:?})",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn stage_timeline_and_summary_parse_and_cross_check() {
    let (out, meta) = traced_cc_quick();
    let stages = parse(&stage_timeline_json(&out.result.trace)).expect("stages parse");
    let rows = stages
        .as_obj()
        .and_then(|o| o.get("stages"))
        .and_then(Value::as_arr)
        .expect("stages array");
    assert!(!rows.is_empty());
    for row in rows {
        let r = row.as_obj().unwrap();
        let launches = r.get("launches").and_then(Value::as_f64).unwrap();
        let finishes = r.get("finishes").and_then(Value::as_f64).unwrap();
        assert!(launches >= finishes, "more finishes than launches");
    }

    let registry = out.result.registry();
    let summary = parse(&summary_json(&meta, &registry, &out.result.trace)).expect("summary");
    let top = summary.as_obj().unwrap();
    assert_eq!(
        top.get("jct_ms").and_then(Value::as_f64),
        Some(out.result.jct as f64)
    );
    let recorded = top
        .get("trace")
        .and_then(Value::as_obj)
        .and_then(|t| t.get("recorded"))
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(count(recorded), out.result.trace.len() as u64);
    // Event kind counts must sum back to the record count.
    let kinds = top.get("events").and_then(Value::as_obj).unwrap();
    let total: f64 = kinds.values().filter_map(Value::as_f64).sum();
    assert_eq!(count(total), out.result.trace.len() as u64);
}

/// The registry key set is part of the subsystem's interface: dashboards
/// and diff tooling key on these names. Adding a metric must extend this
/// pinned list; renaming or dropping one is a breaking change.
const REGISTRY_KEYS: &[&str] = &[
    "cache/byte_hit_ratio",
    "cache/evictions",
    "cache/hit_kb",
    "cache/hit_ratio",
    "cache/hits",
    "cache/insertions",
    "cache/lost",
    "cache/miss_kb",
    "cache/misses",
    "cache/prefetch_used",
    "cache/prefetches",
    "cache/proactive_evictions",
    "cache/resident_end",
    "faults/attempts_killed",
    "faults/disk_blocks_lost",
    "faults/exec_crashes",
    "faults/exec_restarts",
    "faults/execs_blacklisted",
    "faults/stage_resubmissions",
    "faults/task_failures",
    "faults/tasks_recomputed",
    "run/avg_task_ms",
    "run/cpu_utilization",
    "run/high_locality_fraction",
    "run/jct_ms",
    "run/speculative_launched",
    "run/speculative_won",
    "run/task_duration_ms",
    "run/total_cores",
    "sched/assignments_discarded",
    "sched/batches_discarded",
    "sched/index_invalidations",
    "sched/inv_index_hits",
    "sched/inv_index_rebuilds",
    "sched/inv_index_updates",
    "sched/locality_queries",
    "sched/priority_pushes",
    "sched/ready_list_rebuilds",
    "sched/schedule_invocations",
    "sched/view_deltas",
    "sched/view_rebuilds",
];

#[test]
fn metrics_registry_snapshot_on_paper_scale_run() {
    let paper = ExpConfig::paper();
    let dag = Workload::ConnectedComponent.build(&paper.scale);
    let out = run_system(&dag, &paper.cluster, &System::dagon());
    let registry = out.result.registry();

    let keys: Vec<&str> = registry.iter().map(|(k, _)| k).collect();
    assert_eq!(keys, REGISTRY_KEYS, "registry key set drifted");

    // Values cross-check against the structs they were derived from.
    let doc = parse(&registry.to_json()).expect("registry json parses");
    let obj = doc.as_obj().unwrap();
    let num = |k: &str| obj.get(k).and_then(Value::as_f64).unwrap();
    assert_eq!(count(num("cache/hits")), out.result.metrics.cache.hits);
    assert_eq!(count(num("run/jct_ms")), out.result.jct);
    assert!((0.0..=1.0).contains(&num("cache/hit_ratio")));
    assert!((0.0..=1.0).contains(&num("run/cpu_utilization")));
    // The incremental ready list must never be rebuilt after startup.
    assert_eq!(
        count(num("sched/ready_list_rebuilds")),
        1,
        "ready list rebuilt mid-run"
    );
    // Same discipline for the inverted pending-work index: one build at
    // startup, incrementally maintained ever after — and it must actually
    // answer placement probes at paper scale (a miss is `inv_index_hits`).
    assert_eq!(
        count(num("sched/inv_index_rebuilds")),
        1,
        "inverted locality index rebuilt mid-run"
    );
    assert!(
        num("sched/inv_index_hits") > 0.0,
        "no locality-index placement probe missed at paper scale"
    );
    assert!(
        num("sched/inv_index_updates") > 0.0,
        "inverted index never updated at paper scale"
    );
    let hist = obj
        .get("run/task_duration_ms")
        .and_then(Value::as_obj)
        .expect("task-duration histogram");
    assert_eq!(
        hist.get("type").and_then(Value::as_str),
        Some("log_histogram")
    );
    let winners = out
        .result
        .metrics
        .task_runs
        .iter()
        .filter(|t| t.winner)
        .count();
    assert_eq!(
        count(hist.get("total").and_then(Value::as_f64).unwrap()),
        winners as u64
    );
}
