//! Outside-in per-layer timing for the traced run.
//!
//! The simulator is not instrumented. Instead [`TimedScheduler`] and
//! [`TimedCache`] wrap the public [`Scheduler`] and [`CachePolicy`] traits
//! and time each call at the boundary. Every call is one span whose parent
//! is the enclosing `run` span. Spans are aggregated in memory per method
//! into a call count, a busy total, an allocation count and a log2-ns
//! histogram; [`Summary::spans_json`] writes them out.
//!
//! * `schedule()` and the scheduler callbacks are timed on every call.
//! * Cache-policy calls are counted on every call but timed on a fixed
//!   1-in-[`CACHE_STRIDE`] stride, then scaled up by calls / timed calls.
//!   They are frequent and cheap (millions per run on the tenant stream),
//!   so timing each one would double the run.
//! * The calibrated cost of a clock pair is subtracted from every timed
//!   span.
//!
//! The cluster layer's self time is what is left of the `run` span once the
//! scheduler and cache-policy spans are taken out.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use dagon_cluster::{Assignment, CachePolicy, RefProfile, Scheduler, SimView};
use dagon_dag::{BlockId, SimTime, StageId, TaskId};

use crate::alloc;
use crate::clock::now_ns;
use crate::workload::SetupTimes;

/// Every cache-policy call is counted; one in this many is timed.
pub const CACHE_STRIDE: u64 = 16;

/// A traced trait method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Schedule,
    StageReady,
    StageComplete,
    TaskLaunched,
    TaskRequeued,
    StagePriorities,
    Access,
    Insert,
    Evict,
    Victim,
    Proactive,
    PrefetchPick,
    PrefetchOrder,
}

impl Op {
    pub const ALL: [Op; 13] = [
        Op::Schedule,
        Op::StageReady,
        Op::StageComplete,
        Op::TaskLaunched,
        Op::TaskRequeued,
        Op::StagePriorities,
        Op::Access,
        Op::Insert,
        Op::Evict,
        Op::Victim,
        Op::Proactive,
        Op::PrefetchPick,
        Op::PrefetchOrder,
    ];

    pub fn layer(self) -> &'static str {
        if self.is_cache() {
            "cache"
        } else {
            "sched"
        }
    }

    pub fn is_cache(self) -> bool {
        self as usize >= Op::Access as usize
    }

    pub fn method(self) -> &'static str {
        match self {
            Op::Schedule => "schedule",
            Op::StageReady => "on_stage_ready",
            Op::StageComplete => "on_stage_complete",
            Op::TaskLaunched => "on_task_launched",
            Op::TaskRequeued => "on_task_requeued",
            Op::StagePriorities => "stage_priorities",
            Op::Access => "on_access",
            Op::Insert => "on_insert",
            Op::Evict => "on_evict",
            Op::Victim => "victim",
            Op::Proactive => "proactive_victims",
            Op::PrefetchPick => "prefetch_pick",
            Op::PrefetchOrder => "prefetch_order",
        }
    }
}

/// Aggregated spans of one method.
#[derive(Clone, Debug)]
pub struct Agg {
    pub calls: u64,
    pub timed: u64,
    /// Busy nanoseconds over the timed calls, clock cost subtracted.
    pub timed_ns: f64,
    /// Allocations made inside the calls (all of them, timed or not).
    pub allocs: u64,
    /// Timed calls by `floor(log2(ns))`.
    pub hist: [u64; 64],
}

impl Default for Agg {
    fn default() -> Self {
        Self {
            calls: 0,
            timed: 0,
            timed_ns: 0.0,
            allocs: 0,
            hist: [0; 64],
        }
    }
}

impl Agg {
    /// Estimated busy nanoseconds over all calls.
    pub fn busy_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns * self.calls as f64 / self.timed as f64
        }
    }

    fn record_timed(&mut self, ns: f64, allocs: u64) {
        self.calls += 1;
        self.timed += 1;
        self.timed_ns += ns;
        self.allocs += allocs;
        // `ns` is a non-negative whole number of nanoseconds well below
        // 2^64, so the cast is exact.
        let bucket = 63 - (ns as u64).max(1).leading_zeros() as usize;
        self.hist[bucket] += 1;
    }
}

#[derive(Default)]
struct State {
    ops: [Agg; Op::ALL.len()],
    /// Assignments returned by `schedule()`.
    assignments: u64,
    /// Every `schedule()` span, for exact percentiles.
    schedule_ns: Vec<f64>,
}

/// Shared span recorder; the decorators of one run hold clones of it.
pub struct Tracer {
    timer_ns: f64,
    cache_tick: Cell<u64>,
    /// Calls and allocations of the cache-policy calls that are counted but
    /// not timed. They are 15 in 16 of millions of calls, so they skip the
    /// `RefCell`.
    counted: [(Cell<u64>, Cell<u64>); Op::ALL.len()],
    state: RefCell<State>,
}

impl Tracer {
    /// `timer_ns` is the calibrated clock-pair cost; `schedule_calls` the
    /// expected number of `schedule()` calls, reserved up front so that
    /// recording them allocates nothing during the run.
    pub fn new(timer_ns: f64, schedule_calls: usize) -> Rc<Self> {
        let state = State {
            schedule_ns: Vec::with_capacity(schedule_calls),
            ..State::default()
        };
        Rc::new(Self {
            timer_ns,
            cache_tick: Cell::new(0),
            counted: Default::default(),
            state: RefCell::new(state),
        })
    }

    fn timed<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocs();
        let t0 = now_ns();
        let r = f();
        let t1 = now_ns();
        let a1 = alloc::allocs();
        let ns = ((t1 - t0) as f64 - self.timer_ns).max(0.0);
        let mut s = self.state.borrow_mut();
        s.ops[op as usize].record_timed(ns, a1 - a0);
        if op == Op::Schedule {
            s.schedule_ns.push(ns);
        }
        r
    }

    fn sampled<R>(&self, op: Op, f: impl FnOnce() -> R) -> R {
        let tick = self.cache_tick.get() + 1;
        self.cache_tick.set(tick);
        if tick.is_multiple_of(CACHE_STRIDE) {
            return self.timed(op, f);
        }
        let a0 = alloc::allocs();
        let r = f();
        let a1 = alloc::allocs();
        let (calls, allocs) = &self.counted[op as usize];
        calls.set(calls.get() + 1);
        allocs.set(allocs.get() + a1 - a0);
        r
    }

    /// Close the run: `run_ns` and `run_allocs` cover `Simulation::run`.
    pub fn summary(&self, run_ns: u64, run_allocs: u64) -> Summary {
        let mut s = self.state.borrow_mut();
        let mut ops = s.ops.clone();
        for (agg, (calls, allocs)) in ops.iter_mut().zip(&self.counted) {
            agg.calls += calls.get();
            agg.allocs += allocs.get();
        }
        Summary {
            timer_ns: self.timer_ns,
            run_ns: run_ns as f64,
            run_allocs,
            ops,
            assignments: s.assignments,
            schedule_ns: std::mem::take(&mut s.schedule_ns),
        }
    }
}

/// The aggregated spans of one traced run.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The clock-pair cost subtracted from each span.
    pub timer_ns: f64,
    pub run_ns: f64,
    pub run_allocs: u64,
    pub ops: [Agg; Op::ALL.len()],
    pub assignments: u64,
    pub schedule_ns: Vec<f64>,
}

impl Summary {
    pub fn op(&self, op: Op) -> &Agg {
        &self.ops[op as usize]
    }

    fn sum<T: std::iter::Sum>(&self, pick: impl Fn(Op) -> bool, val: impl Fn(&Agg) -> T) -> T {
        Op::ALL
            .iter()
            .filter(|&&o| pick(o))
            .map(|&o| val(self.op(o)))
            .sum()
    }

    pub fn schedule_ns(&self) -> f64 {
        self.op(Op::Schedule).busy_ns()
    }

    /// Scheduler calls other than `schedule()`.
    pub fn callback_ns(&self) -> f64 {
        self.sum(|o| !o.is_cache() && o != Op::Schedule, Agg::busy_ns)
    }

    pub fn cache_ns(&self) -> f64 {
        self.sum(Op::is_cache, Agg::busy_ns)
    }

    pub fn cluster_self_ns(&self) -> f64 {
        self.run_ns - self.schedule_ns() - self.callback_ns() - self.cache_ns()
    }

    pub fn allocs(&self, pick: impl Fn(Op) -> bool) -> u64 {
        self.sum(pick, |a| a.allocs)
    }

    /// The spans as a JSON array: the setup span and its children, the
    /// `run` span, the cluster's self time, and one aggregate per traced
    /// method.
    pub fn spans_json(&self, setup: &SetupTimes) -> String {
        let mut out = String::from("[");
        let mut span = |layer: &str, method: &str, parent: Option<&str>, fields: String| {
            if out.len() > 1 {
                out.push_str(",\n      ");
            }
            let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                out,
                "{{\"layer\": \"{layer}\", \"method\": \"{method}\", \"parent\": {parent}, {fields}}}"
            );
        };
        let single = |total: u64, self_ns: u64| {
            format!("\"calls\": 1, \"total_ns\": {total}, \"self_ns\": {self_ns}")
        };
        let children: u64 = setup.phases().iter().map(|p| p.2).sum();
        span(
            "bench",
            "setup",
            None,
            single(setup.total_ns, setup.total_ns.saturating_sub(children)),
        );
        for (layer, method, ns) in setup.phases() {
            span(layer, method, Some("setup"), single(ns, ns));
        }
        span(
            "cluster",
            "run",
            None,
            format!(
                "\"calls\": 1, \"total_ns\": {}, \"self_ns\": {}, \"allocs\": {}",
                self.run_ns,
                self.cluster_self_ns(),
                self.run_allocs
            ),
        );
        for op in Op::ALL {
            let a = self.op(op);
            let last = a.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let hist: Vec<String> = a.hist[..last].iter().map(u64::to_string).collect();
            span(
                op.layer(),
                op.method(),
                Some("run"),
                format!(
                    "\"calls\": {}, \"timed\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                     \"allocs\": {}, \"hist_log2_ns\": [{}]",
                    a.calls,
                    a.timed,
                    a.busy_ns(),
                    a.busy_ns(),
                    a.allocs,
                    hist.join(", ")
                ),
            );
        }
        out.push(']');
        out
    }
}

/// A [`Scheduler`] that times every call into the wrapped one.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Rc<Tracer>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, tracer: Rc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        let out = self
            .tracer
            .timed(Op::Schedule, || self.inner.schedule(view));
        self.tracer.state.borrow_mut().assignments += out.len() as u64;
        out
    }

    fn on_stage_ready(&mut self, s: StageId, now: SimTime) {
        self.tracer
            .timed(Op::StageReady, || self.inner.on_stage_ready(s, now));
    }

    fn on_stage_complete(&mut self, s: StageId, now: SimTime) {
        self.tracer
            .timed(Op::StageComplete, || self.inner.on_stage_complete(s, now));
    }

    fn on_task_launched(&mut self, t: TaskId, work: u64, now: SimTime) {
        self.tracer.timed(Op::TaskLaunched, || {
            self.inner.on_task_launched(t, work, now)
        });
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64, now: SimTime) {
        self.tracer.timed(Op::TaskRequeued, || {
            self.inner.on_task_requeued(t, work, now)
        });
    }

    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        self.tracer
            .timed(Op::StagePriorities, || self.inner.stage_priorities())
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<dagon_obs::SchedDecision> {
        self.inner.drain_decisions()
    }
}

/// A [`CachePolicy`] that counts every call into the wrapped one and
/// times one in [`CACHE_STRIDE`].
pub struct TimedCache {
    inner: Box<dyn CachePolicy>,
    tracer: Rc<Tracer>,
}

impl TimedCache {
    pub fn new(inner: Box<dyn CachePolicy>, tracer: Rc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl CachePolicy for TimedCache {
    fn policy_name(&self) -> &'static str {
        self.inner.policy_name()
    }

    fn on_access(&mut self, b: BlockId, now: SimTime) {
        self.tracer
            .sampled(Op::Access, || self.inner.on_access(b, now));
    }

    fn on_insert(&mut self, b: BlockId, now: SimTime) {
        self.tracer
            .sampled(Op::Insert, || self.inner.on_insert(b, now));
    }

    fn on_evict(&mut self, b: BlockId) {
        self.tracer.sampled(Op::Evict, || self.inner.on_evict(b));
    }

    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId> {
        self.tracer.sampled(Op::Victim, || {
            self.inner.victim(candidates, incoming, profile)
        })
    }

    fn proactive_victims(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Vec<BlockId> {
        self.tracer.sampled(Op::Proactive, || {
            self.inner.proactive_victims(candidates, profile)
        })
    }

    fn prefetch_pick(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Option<BlockId> {
        self.tracer.sampled(Op::PrefetchPick, || {
            self.inner.prefetch_pick(candidates, profile)
        })
    }

    fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        self.tracer.sampled(Op::PrefetchOrder, || {
            self.inner.prefetch_order(candidates, profile, out)
        });
    }

    fn caches_on_miss(&self) -> bool {
        self.inner.caches_on_miss()
    }

    fn admits(&self) -> bool {
        self.inner.admits()
    }
}
