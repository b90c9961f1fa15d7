//! Rendering results: `workload metric value unit` lines, the one-line
//! JSON result, the `--out` file and the `--trace-out` span file. Metric
//! names, units and order all come from the catalogue.

use std::fmt::Write as _;

use crate::catalogue::{Metric, METRICS};
use crate::protocol::Report;
use crate::stats::Stat;

/// The metrics a run reports: end-to-end ones untraced, per-layer ones
/// traced.
fn reported(trace: bool) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.is_end_to_end() != trace)
}

/// A value with all its digits; JSON has no NaN or infinity.
fn num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

/// One line per measured metric: `workload metric value unit`, plus
/// quartiles and the sample count where there is more than one sample.
pub fn text(reports: &[Report]) -> String {
    let mut s = String::new();
    for r in reports {
        for m in METRICS {
            let Some(v) = r.values.get(m.name) else {
                continue;
            };
            let _ = write!(s, "{} {} {} {}", r.spec.name(), m.name, v.median, m.unit);
            if v.n > 1 {
                let _ = write!(s, " p25={} p75={} n={}", v.q1, v.q3, v.n);
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "{} runs attempted={} failed={}",
            r.spec.name(),
            r.attempted,
            r.failed
        );
        for e in &r.errors {
            let _ = writeln!(s, "{} error: {e}", r.spec.name());
        }
    }
    s
}

fn value<'a>(r: &'a Report, m: &Metric) -> Result<&'a Stat, String> {
    r.values
        .get(m.name)
        .ok_or_else(|| format!("{}: no value for {}", r.spec.name(), m.name))
}

/// The last line of standard output:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
/// With several workloads the metric keys are `workload/metric`.
pub fn result_line(reports: &[Report], trace: bool) -> Result<String, String> {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in reported(trace) {
            let key = if prefix {
                format!("{}/{}", r.spec.name(), m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(value(r, m)?.median)?,
                m.unit
            ));
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// The `--out` file: every measured value with its quartiles and count.
pub fn results_file(reports: &[Report], seed: u64) -> Result<String, String> {
    let mut s = format!("{{\n  \"seed\": {seed},\n  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let mut rows = Vec::new();
        for m in METRICS {
            if let Some(v) = r.values.get(m.name) {
                rows.push(format!(
                    "      \"{}\": {{\"value\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(v.median)?,
                    num(v.q1)?,
                    num(v.q3)?,
                    v.n,
                    m.unit
                ));
            }
        }
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}{}\n",
            r.spec.name(),
            r.attempted,
            r.failed,
            rows.join(",\n"),
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    Ok(s)
}

/// The `--trace-out` file: each traced run's spans, per workload.
pub fn spans_file(reports: &[Report]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"runs\": [\n    {}\n  ]}}",
                r.spec.name(),
                r.spans.join(",\n    ")
            )
        })
        .collect();
    format!("[\n{}\n]\n", workloads.join(",\n"))
}
