//! The host wall clock. This is the only module that reads it; the rest of
//! the harness works in nanosecond stamps from [`now_ns`].

use std::sync::OnceLock;
// lint: allow(ambient-time): the benchmark measures host wall time by design
use std::time::Instant;

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    // lint: allow(ambient-time): the benchmark measures host wall time by design
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // lint: allow(ambient-time): the benchmark measures host wall time by design
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The cost of one back-to-back [`now_ns`] pair, in nanoseconds: what an
/// empty span measures. The mean over 1000 pairs, median of 21 such
/// batches, so one preemption cannot skew it.
pub fn timer_cost_ns() -> f64 {
    let mut batches: Vec<f64> = (0..21)
        .map(|_| {
            let mut sum = 0u64;
            for _ in 0..1000 {
                let a = now_ns();
                let b = now_ns();
                sum += b - a;
            }
            sum as f64 / 1000.0
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
