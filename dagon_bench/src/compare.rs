//! `dagon_bench compare <base-bin> <head-bin>`: run two builds of the
//! benchmark in alternating ABBA order on the same seeds and classify each
//! metric by the rule the benchmark's claims follow:
//!
//! - **unchanged**: the two sides read the same in every pair (exact
//!   counts that the change did not move);
//! - **improved**: the head wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the base's
//!   interquartile range;
//! - **unresolved**: otherwise, when the base's own spread is wider than
//!   the metric's bound, unless every head run beats every base run;
//! - **worse**: the head's median is worse than the base's by more than
//!   the bound;
//! - **unchanged**: everything else.
//!
//! Per-layer metrics have no bound and are classified with a bound of 0:
//! an exact count that moves is improved or worse, and a time is
//! unresolved unless it improved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::catalogue::{self, Better};
use crate::stats::Stat;
use crate::workload::Spec;

#[derive(Clone, Debug)]
pub struct Options {
    pub base: String,
    pub head: String,
    pub pairs: usize,
    pub workloads: Vec<Spec>,
    pub seconds: u64,
    pub trace: bool,
    /// Pair `i` runs both sides at seed `seed + i`.
    pub seed: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify paired samples (`base[i]` and `head[i]` share a seed). Returns
/// the verdict and the head's win fraction.
pub fn classify(base: &[f64], head: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let pairs = base.len().min(head.len()).max(1);
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better.prefers(h, b))
        .count();
    let win_frac = wins as f64 / pairs as f64;
    let (b, h) = (Stat::of(base), Stat::of(head));
    let gain = match better {
        Better::Lower => b.median - h.median,
        Better::Higher => h.median - b.median,
    };
    let all_better = head
        .iter()
        .all(|&x| base.iter().all(|&y| better.prefers(x, y)));
    let verdict = if base == head {
        Verdict::Unchanged
    } else if win_frac >= 0.9 && gain > b.q3 - b.q1 {
        Verdict::Improved
    } else if b.spread() > bound && !all_better {
        Verdict::Unresolved
    } else if -gain > bound * b.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (verdict, win_frac)
}

/// Metric name → one value per pair, for one side of one workload.
type Side = BTreeMap<String, Vec<f64>>;

fn run_child(
    bin: &str,
    spec: Spec,
    seed: u64,
    o: &Options,
) -> Result<(Vec<(String, f64)>, u64), String> {
    let out = Command::new(bin)
        .args([
            "--workload",
            spec.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{bin} {} seed {seed}: {}", spec.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let v = dagon_obs::json::parse(line).map_err(|e| format!("{bin}: bad result line: {e}"))?;
    let failed = v.get("failed").and_then(|f| f.as_f64()).unwrap_or(1.0) as u64;
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or_else(|| format!("{bin}: result line has no metrics"))?;
    let values = metrics
        .iter()
        .filter_map(|(k, m)| {
            m.get("value")
                .and_then(|x| x.as_f64())
                .map(|x| (k.clone(), x))
        })
        .collect();
    Ok((values, failed))
}

/// Run the comparison and render the table.
pub fn run(o: &Options) -> Result<String, String> {
    let mut sides: Vec<[Side; 2]> = o.workloads.iter().map(|_| Default::default()).collect();
    let mut failed = [0u64; 2];
    let bins = [o.base.as_str(), o.head.as_str()];
    for p in 0..o.pairs {
        let seed = o.seed + p as u64;
        let order = if p % 2 == 0 { [0, 1] } else { [1, 0] };
        for (wi, &spec) in o.workloads.iter().enumerate() {
            for side in order {
                eprintln!(
                    "pair {}/{} {} {}",
                    p + 1,
                    o.pairs,
                    spec.name(),
                    ["base", "head"][side]
                );
                let (values, f) = run_child(bins[side], spec, seed, o)?;
                failed[side] += f;
                for (k, v) in values {
                    sides[wi][side].entry(k).or_default().push(v);
                }
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} pairs, ABBA order; base={} head={}; failed runs: base {} head {}",
        o.pairs, o.base, o.head, failed[0], failed[1]
    );
    let _ = writeln!(
        s,
        "{:<20} {:<32} {:>40} {:>40} {:>5}  verdict",
        "workload", "metric", "base median [p25, p75]", "head median [p25, p75]", "wins"
    );
    for (wi, &spec) in o.workloads.iter().enumerate() {
        for m in catalogue::METRICS {
            let (Some(b), Some(h)) = (sides[wi][0].get(m.name), sides[wi][1].get(m.name)) else {
                continue;
            };
            let (verdict, wins) = classify(b, h, m.better, m.bound.unwrap_or(0.0));
            let fmt = |x: &Stat| format!("{:.6} [{:.6}, {:.6}]", x.median, x.q1, x.q3);
            let _ = writeln!(
                s,
                "{:<20} {:<32} {:>40} {:>40} {:>5.2}  {}",
                spec.name(),
                m.name,
                fmt(&Stat::of(b)),
                fmt(&Stat::of(h)),
                wins,
                verdict.as_str()
            );
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_the_pairing_rule() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        let lower = Better::Lower;
        assert_eq!(classify(&base, &faster, lower, 0.1).0, Verdict::Improved);
        assert_eq!(classify(&base, &slower, lower, 0.1).0, Verdict::Worse);
        assert_eq!(classify(&base, &same, lower, 0.1).0, Verdict::Unchanged);
        // A spread wider than the bound leaves a small move unresolved.
        assert_eq!(classify(&base, &same, lower, 0.001).0, Verdict::Unresolved);
        // Exact counts: equal in every pair is unchanged even when the
        // seeds make them vary; any move is a change.
        let seeded: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(classify(&seeded, &seeded, lower, 0.0).0, Verdict::Unchanged);
        let n = [5.0; 10];
        assert_eq!(classify(&n, &[6.0; 10], lower, 0.0).0, Verdict::Worse);
        assert_eq!(
            classify(&n, &[6.0; 10], Better::Higher, 0.0).0,
            Verdict::Improved
        );
    }
}
