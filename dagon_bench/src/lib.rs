//! # dagon-benchmark — host-time benchmark of the Dagon simulator
//!
//! The harness behind the `dagon_bench` binary. It measures the simulator
//! from the outside: end-to-end host time and memory from untraced runs,
//! and per-layer costs from separate traced runs that wrap the public
//! `Scheduler` and `CachePolicy` traits in timing decorators ([`trace`])
//! and time the public set-up calls ([`workload`]). Run time is reported
//! against a fixed [`reference`] computation timed after every run, so
//! that host drift cancels, and over several cluster seeds per invocation
//! ([`protocol`]). Every run's output is checked. The [`catalogue`] is the
//! single list of metrics.

pub mod alloc;
pub mod catalogue;
pub mod clock;
pub mod compare;
pub mod output;
pub mod protocol;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;
