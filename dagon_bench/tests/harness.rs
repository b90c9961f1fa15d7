//! Harness self-checks: the timing decorators change nothing the simulator
//! computes, the workload definitions still reproduce the committed numbers,
//! every catalogue metric is reported, and `BENCHMARK.json` is the one the
//! catalogue generates.
//!
//! `cargo test --manifest-path dagon_bench/Cargo.toml` (add `--release`
//! to make the `paper_cc_dagon` runs take ~50 ms instead of ~2 s).

use std::path::Path;

use dagon_benchmark::alloc::CountingAlloc;
use dagon_benchmark::catalogue;
use dagon_benchmark::clock::timer_cost_ns;
use dagon_benchmark::output;
use dagon_benchmark::protocol::{self, Options, Stop};
use dagon_benchmark::trace::Tracer;
use dagon_benchmark::workload::{Input, Spec, ANCHORS};
use dagon_cluster::{AdmissionConfig, ClusterConfig};
use dagon_core::TenantPolicy;
use dagon_tenancy::{BoundedPareto, ClientKind, TenantSpec};
use dagon_workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Two tenants, four jobs, on a four-node cluster.
fn tiny_stream() -> Input {
    let tenant = |name: &str, weight, w, client| TenantSpec {
        name: name.into(),
        weight,
        mix: vec![w],
        tasks: BoundedPareto::fixed(8.0),
        client,
    };
    Input::Stream {
        tenants: vec![
            tenant(
                "a",
                2,
                Workload::KMeans,
                ClientKind::OpenPoisson {
                    jobs: 2,
                    mean_interarrival_ms: 5_000,
                },
            ),
            tenant(
                "b",
                1,
                Workload::LinearRegression,
                ClientKind::ClosedLoop {
                    clients: 1,
                    jobs_per_client: 2,
                    mean_think_ms: 2_000,
                },
            ),
        ],
        base: Scale::tiny(),
        seed: 11,
        cluster: ClusterConfig::tiny(4, 8),
        policy: TenantPolicy::WeightedFairDagon,
        admission: AdmissionConfig::default(),
    }
}

#[test]
fn decorated_runs_equal_bare_runs() {
    for input in [Spec::PaperCcDagon.input(1), tiny_stream()] {
        let bare = input.setup(None).run();
        let tracer = Tracer::new(timer_cost_ns(), 0);
        let traced = input.setup(Some(&tracer)).run();
        let (b, t) = (&bare.result, &traced.result);
        assert_eq!(bare.check(), traced.check());
        assert!(bare.check().is_ok(), "{:?}", bare.check());
        assert_eq!(b.jct, t.jct);
        assert_eq!(b.fingerprint(), t.fingerprint());
        assert_eq!(b.metrics.sched, t.metrics.sched);
        assert_eq!(b.metrics.cache, t.metrics.cache);
        assert_eq!(b.jobs, t.jobs);

        let s = tracer.summary(traced.run_ns, 0);
        let busy = [s.schedule_ns(), s.callback_ns(), s.cache_ns()];
        assert!(busy.iter().all(|&x| x >= 0.0), "{busy:?}");
        assert!(
            busy.iter().sum::<f64>() <= s.run_ns,
            "{busy:?} > {}",
            s.run_ns
        );
        assert_eq!(
            s.op(dagon_benchmark::trace::Op::Schedule).calls,
            b.metrics.sched.schedule_invocations
        );
    }
}

#[test]
fn paper_cc_dagon_reproduces_its_committed_anchor() {
    let (spec, seed, jct, launches) = ANCHORS[0];
    assert_eq!(spec, Spec::PaperCcDagon);
    let out = spec.input(seed).setup(None).run();
    assert!(out.check().is_ok(), "{:?}", out.check());
    assert_eq!((out.result.jct, out.launches()), (jct, launches));
}

#[test]
fn every_catalogue_metric_is_reported() {
    let opts = Options {
        workloads: vec![Spec::PaperCcDagon],
        seed: 1,
        stop: Stop::Rounds(1),
        trace: true,
    };
    let reports = protocol::measure(&opts);
    assert_eq!(reports[0].failed, 0, "{:?}", reports[0].errors);
    for m in catalogue::METRICS {
        assert!(reports[0].values.contains_key(m.name), "{} missing", m.name);
    }
    for trace in [false, true] {
        let line = output::result_line(&reports, trace).expect("result line");
        let v = dagon_obs::json::parse(&line).expect("result line is JSON");
        let metrics = v.get("metrics").and_then(|m| m.as_obj()).unwrap();
        let want = catalogue::METRICS
            .iter()
            .filter(|m| m.is_end_to_end() != trace)
            .count();
        assert_eq!(metrics.len(), want);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert_eq!(
        committed,
        catalogue::benchmark_json(),
        "regenerate with `dagon_bench --benchmark-json > BENCHMARK.json`"
    );
}
