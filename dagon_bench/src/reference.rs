//! A fixed computation owned by the benchmark, timed right after every
//! timed run to measure how fast the host is at that moment.
//!
//! On a small shared VM the host's speed drifts 10–20% over minutes, and
//! sometimes by 60%, with no steal time: neighbours on the same physical
//! core slow every instruction. Wall time alone then moves with the host as
//! much as with the code. The reference does what the simulator mostly
//! does: ordered-map and ordered-set inserts, lookups and removals over
//! ~20k live keys, with a small allocation per entry. It is branchy and
//! allocation-heavy, and its working set fits in a core's L2.
//!
//! On a 2-vCPU VM, over 5–6 minutes per workload, the run time tracked
//! the reference's time (correlation 0.97–0.99 on `paper_cc_dagon` and
//! `sweep200_km_spark`, 0.84 on `sweep200_cc_dagon`). The ratio of run
//! time to reference time spread 1–3% across ten consecutive 10-s runs,
//! where the run time alone spread 6–12%. A pointer chase over 16 MiB
//! tracked much worse (correlation 0.60 on `paper_cc_dagon`), because it
//! waits on memory while the simulator mostly computes. A change to the
//! simulator does not touch the reference, so the ratio moves with the
//! code and not with the host.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use crate::clock::now_ns;

/// The reference's median host time on the 2-vCPU VM the bounds were set
/// on. It turns a time in reference units back into seconds on a host as
/// fast as that VM typically is, for metrics that must be in seconds.
pub const NOMINAL_S: f64 = 0.0135;

/// Keys are drawn from `0..2 * LIVE`, so about `LIVE` are present at once.
const LIVE: u64 = 20_000;
const OPS: u64 = 30_000;

fn work() -> u64 {
    let mut x: u64 = 11;
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut set: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut acc = 0u64;
    for k in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 33) % (2 * LIVE);
        // `k < OPS`, which fits in a `u32`.
        let tag = k as u32;
        if let Some(v) = map.remove(&key) {
            set.remove(&(key, v[0]));
            acc = acc.wrapping_add(v.len() as u64);
        } else {
            map.insert(key, vec![tag; 3]);
            set.insert((key, tag));
        }
        if let Some((&next, _)) = map.range(key..).next() {
            acc = acc.wrapping_add(next);
        }
    }
    acc + map.len() as u64 + set.len() as u64
}

/// Host time of one pass of the reference, in nanoseconds.
pub fn time_ns() -> u64 {
    let t0 = now_ns();
    black_box(work());
    now_ns() - t0
}
