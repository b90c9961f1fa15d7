//! The discrete-event core: a deterministic time-ordered queue, plus the
//! [`ViewDelta`] protocol sim events emit to keep the long-lived
//! [`crate::view::ClusterView`] current without per-round rebuilds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dagon_dag::{BlockId, Resources, SimTime, TaskId};

use crate::topology::ExecId;

/// One incremental update to the scheduler's persistent
/// [`crate::view::ClusterView`]. Every simulator event that changes what a
/// scheduling policy can observe about executors — launches and teardowns
/// moving free resources, crashes/restarts/blacklists flipping usability —
/// is translated into exactly one delta and applied in event order. The
/// delta stream fully determines the view: replaying it from a fresh view
/// reproduces the incremental state field-for-field (property-tested in
/// `tests/cview_props.rs`), which is what licenses dropping the
/// per-opportunity rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewDelta {
    /// A task attempt occupied `demand` on `exec` (launch).
    Consume { exec: ExecId, demand: Resources },
    /// A task attempt released `demand` on `exec` (finish / fail / kill).
    Release { exec: ExecId, demand: Resources },
    /// The executor left the usable set (crash or blacklist): it
    /// advertises zero free and zero capacity until it comes back.
    ExecDown { exec: ExecId },
    /// The executor re-registered (restart / blacklist lift).
    ExecUp { exec: ExecId },
}

/// Events the simulator reacts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A task attempt completes. The three attempt events name their
    /// attempt by `(task, attempt)` key and act only while that key is
    /// still live; an attempt that lost a race or died in a crash left
    /// them stale.
    TaskFinish { task: TaskId, attempt: u32 },
    /// A task attempt finished its input I/O phase and starts burning CPU
    /// (the boundary the utilization metric is measured around — cgroup CPU
    /// accounting sees I/O wait as idle).
    IoDone { task: TaskId, attempt: u32 },
    /// A prefetched block arrives in an executor's cache.
    PrefetchArrive { block: BlockId, exec: ExecId },
    /// Dynamic job admission (online multi-tenant runs): job `job` of the
    /// installed [`crate::jobs::JobsRuntime`] arrives and asks to enter
    /// the live DAG. Admission control decides whether its root stages
    /// become ready now, it queues behind its tenant's cap, or it is
    /// rejected outright.
    JobArrival { job: u32 },
    /// Periodic scheduler wake-up (delay-scheduling timeouts, speculation
    /// checks, prefetch scans).
    Tick,
    /// Fault injection: the executor dies. Its running attempts fail and
    /// are re-offered, its cache and locally written output files are
    /// lost; `restart_at` is the absolute time a cold replacement with the
    /// same id re-registers (if any).
    ExecCrash {
        exec: ExecId,
        restart_at: Option<SimTime>,
    },
    /// A previously crashed executor re-registers, empty.
    ExecRestart { exec: ExecId },
    /// Fault injection: a cached block is corrupted/dropped on one
    /// executor. No-op if it isn't resident there.
    BlockLoss { block: BlockId, exec: ExecId },
    /// A doomed task attempt (picked by the fault RNG at launch) dies
    /// partway through its compute phase instead of finishing.
    TaskFail { task: TaskId, attempt: u32 },
}

/// Min-heap of `(time, seq, slot)`. The monotonically increasing `seq`
/// makes same-time ordering deterministic (insertion order).
///
/// Event payloads live in a slab (`Vec<Event>` + free list) indexed by the
/// heap entries, so the heap itself sifts small `Copy` keys and a payload
/// slot is written once per push instead of being moved through every
/// sift-up/sift-down swap. Profiling flagged queue churn as the top
/// remaining line; the slab plus the cross-run backing-store pool (the
/// private `QueuePool`) removes the steady-state allocations entirely. Ordering
/// is exactly the old `(time, seq)` order — `seq` is unique, so the slot
/// index is never compared — which keeps golden fingerprints untouched.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Event>,
    free: Vec<u32>,
    seq: u64,
}

/// Thread-local pool of cleared-but-capacity-retaining `EventQueue`
/// backing stores, so repeated simulations (bench loops, experiment
/// sweeps) stop re-growing the heap and slab from empty every run. Purely
/// an allocation cache: contents are always cleared, so reuse cannot leak
/// state between runs.
struct QueuePool;

type QueueBacking = (Vec<Reverse<(SimTime, u64, u32)>>, Vec<Event>, Vec<u32>);

impl QueuePool {
    const MAX_POOLED: usize = 4;

    fn with<R>(f: impl FnOnce(&mut Vec<QueueBacking>) -> R) -> R {
        thread_local! {
            static POOL: std::cell::RefCell<Vec<QueueBacking>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        POOL.with(|p| f(&mut p.borrow_mut()))
    }

    fn take() -> Option<QueueBacking> {
        Self::with(Vec::pop)
    }

    fn put(backing: QueueBacking) {
        Self::with(|p| {
            if p.len() < Self::MAX_POOLED {
                p.push(backing);
            }
        });
    }
}

impl EventQueue {
    pub fn new() -> Self {
        match QueuePool::take() {
            Some((heap_vec, slab, free)) => EventQueue {
                heap: BinaryHeap::from(heap_vec),
                slab,
                free,
                seq: 0,
            },
            None => EventQueue::default(),
        }
    }

    /// Schedule `ev` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, ev: Event) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = ev;
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(ev);
                s
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
    }

    /// Next event time without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((t, _, slot))| {
            self.free.push(slot);
            let ev = std::mem::replace(&mut self.slab[slot as usize], Event::Tick);
            (t, ev)
        })
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

impl Drop for EventQueue {
    fn drop(&mut self) {
        let mut heap_vec = std::mem::take(&mut self.heap).into_vec();
        if heap_vec.capacity() == 0 {
            return; // never grew; nothing worth pooling
        }
        heap_vec.clear();
        let mut slab = std::mem::take(&mut self.slab);
        slab.clear();
        let mut free = std::mem::take(&mut self.free);
        free.clear();
        QueuePool::put((heap_vec, slab, free));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::StageId;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Tick);
        q.push(10, Event::Tick);
        q.push(20, Event::Tick);
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        let t0 = TaskId::new(StageId(0), 0);
        let t1 = TaskId::new(StageId(0), 1);
        q.push(
            5,
            Event::TaskFinish {
                task: t0,
                attempt: 0,
            },
        );
        q.push(
            5,
            Event::TaskFinish {
                task: t1,
                attempt: 0,
            },
        );
        match q.pop().unwrap().1 {
            Event::TaskFinish { task, .. } => assert_eq!(task, t0),
            _ => panic!(),
        }
        match q.pop().unwrap().1 {
            Event::TaskFinish { task, .. } => assert_eq!(task, t1),
            _ => panic!(),
        }
    }

    #[test]
    fn slab_slots_recycle_without_breaking_order() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops so free-list slots get reused while
        // later-scheduled events are still live.
        q.push(1, Event::Tick);
        q.push(3, Event::JobArrival { job: 7 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(1));
        q.push(2, Event::Tick); // reuses the popped slot
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].0, 2);
        match &order[1].1 {
            Event::JobArrival { job } => assert_eq!(*job, 7),
            other => panic!("slot reuse corrupted payload: {other:?}"),
        }
    }

    #[test]
    fn pooled_backing_store_starts_empty() {
        {
            let mut q = EventQueue::new();
            for i in 0..64 {
                q.push(i, Event::Tick);
            }
        } // dropped with 64 undrained events -> backing store pooled
        let mut q = EventQueue::new(); // likely reclaims the pooled store
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(5, Event::Tick);
        assert_eq!(q.pop().map(|(t, _)| t), Some(5));
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.push(7, Event::Tick);
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
