//! `dagon_bench` — end-to-end and per-layer host-time benchmark of the
//! Dagon simulator. See `dagon_bench/README.md`.

use std::process::ExitCode;

use dagon_benchmark::alloc::CountingAlloc;
use dagon_benchmark::protocol::{self, Options, Stop};
use dagon_benchmark::workload::{Spec, ANCHORS};
use dagon_benchmark::{catalogue, compare, output};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage:
  dagon_bench [--workload all|<name>] [--seed N] [--rounds N | --seconds N]
              [--trace 0|1] [--out PATH] [--trace-out PATH]
      Run the benchmark. Default: all workloads interleaved, seed 1, 12
      rounds, traced. Prints `workload metric value unit` lines, then one
      JSON result line (end-to-end metrics with --trace 0, per-layer
      metrics with --trace 1).
  dagon_bench compare <base-bin> <head-bin> [--pairs N] [--workload ..]
              [--seconds N] [--trace 0|1] [--seed N]
      Run two builds in ABBA order and classify every metric.
  dagon_bench --list            the metric catalogue
  dagon_bench --benchmark-json  the BENCHMARK.json the catalogue implies
  dagon_bench --check-anchors   check the workloads against pinned jcts
workloads: paper_cc_dagon sweep200_cc_dagon sweep200_km_spark tenants200_wfair";

struct Args {
    positional: Vec<String>,
    workloads: Vec<Spec>,
    seed: u64,
    rounds: usize,
    seconds: Option<u64>,
    trace: Option<bool>,
    out: Option<String>,
    trace_out: Option<String>,
    pairs: usize,
    flag: Option<String>,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workloads: Spec::ALL.to_vec(),
        seed: 1,
        rounds: 12,
        seconds: None,
        trace: None,
        out: None,
        trace_out: None,
        pairs: 10,
        flag: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                a.workloads = if v == "all" {
                    Spec::ALL.to_vec()
                } else {
                    vec![Spec::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => a.seed = parse_num(flag, value()?)?,
            "--rounds" => a.rounds = parse_num(flag, value()?)?,
            "--seconds" => a.seconds = Some(parse_num(flag, value()?)?),
            "--pairs" => a.pairs = parse_num(flag, value()?)?,
            "--trace" => {
                a.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            "--out" => a.out = Some(value()?.to_string()),
            "--trace-out" => a.trace_out = Some(value()?.to_string()),
            "--list" | "--benchmark-json" | "--check-anchors" | "--help" | "-h" => {
                a.flag = Some(flag.to_string());
            }
            f if f.starts_with('-') => return Err(format!("unknown option `{f}`")),
            p => a.positional.push(p.to_string()),
        }
    }
    if a.rounds == 0 || a.pairs == 0 || a.seconds == Some(0) {
        return Err("--rounds, --pairs and --seconds must be positive".into());
    }
    Ok(a)
}

fn check_anchors() -> ExitCode {
    let mut ok = true;
    for (spec, seed, jct, launches) in ANCHORS {
        let out = spec.input(seed).setup(None).run();
        let got = (out.result.jct, out.launches());
        let pass = out.check().is_ok() && got == (jct, launches);
        ok &= pass;
        println!(
            "{} seed {seed}: jct {} launches {} (expected {jct} / {launches}) {}",
            spec.name(),
            got.0,
            got.1,
            if pass { "ok" } else { "MISMATCH" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run(a: Args) -> Result<ExitCode, String> {
    match a.flag.as_deref() {
        Some("--list") => {
            print!("{}", catalogue::listing());
            return Ok(ExitCode::SUCCESS);
        }
        Some("--benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return Ok(ExitCode::SUCCESS);
        }
        Some("--check-anchors") => return Ok(check_anchors()),
        Some(_) => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        None => {}
    }
    match a.positional.as_slice() {
        [cmd, base, head] if cmd == "compare" => {
            let opts = compare::Options {
                base: base.clone(),
                head: head.clone(),
                pairs: a.pairs,
                workloads: a.workloads,
                seconds: a.seconds.unwrap_or(catalogue::RUN_SECONDS),
                trace: a.trace.unwrap_or(false),
                seed: a.seed,
            };
            print!("{}", compare::run(&opts)?);
            return Ok(ExitCode::SUCCESS);
        }
        [] => {}
        other => return Err(format!("unexpected arguments {other:?}")),
    }
    let trace = a.trace.unwrap_or(true);
    let opts = Options {
        workloads: a.workloads,
        seed: a.seed,
        stop: a
            .seconds
            .map_or(Stop::Rounds(a.rounds), |s| Stop::Seconds(s as f64)),
        trace,
    };
    let reports = protocol::measure(&opts);
    print!("{}", output::text(&reports));
    if let Some(p) = &a.out {
        write(p, &output::results_file(&reports, a.seed)?)?;
    }
    if let Some(p) = &a.trace_out {
        write(p, &output::spans_file(&reports))?;
    }
    match output::result_line(&reports, trace) {
        Ok(line) => {
            println!("{line}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("dagon_bench: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dagon_bench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
