//! Graph algorithms over [`JobDag`]: reachability closures, critical paths,
//! depth — the structural quantities every DAG-aware policy consumes.

// StageId mints and critical-path lengths: bounded by DAG size.
#![allow(clippy::cast_possible_truncation)]

use crate::dag::JobDag;
use crate::ids::StageId;
use crate::resources::SimTime;

/// Transitive successor closure: for each stage, the set of stages that
/// cannot start before it finishes (the paper's `SuccessorSet_i`).
///
/// Returned as a dense bitset per stage (`u64` words, indexed by stage),
/// computed in reverse topological order in `O(V·E/64)` via u64 word OR.
#[derive(Clone, Debug)]
pub struct Closure {
    words: Vec<Vec<u64>>,
}

impl Closure {
    /// Successor closure (descendants) of every stage.
    pub fn successors(dag: &JobDag) -> Closure {
        Self::build(dag, false)
    }

    /// Ancestor closure of every stage.
    pub fn ancestors(dag: &JobDag) -> Closure {
        Self::build(dag, true)
    }

    fn build(dag: &JobDag, ancestors: bool) -> Closure {
        let n = dag.num_stages();
        let w = n.div_ceil(64);
        let mut words = vec![vec![0u64; w]; n];
        let order: Vec<StageId> = if ancestors {
            dag.topo_order().to_vec()
        } else {
            dag.topo_order().iter().rev().copied().collect()
        };
        for s in order {
            // Collect neighbor ids first to avoid aliasing `words`.
            let nbrs: Vec<StageId> = if ancestors {
                dag.parents(s).to_vec()
            } else {
                dag.children(s).to_vec()
            };
            let mut acc = vec![0u64; w];
            for nb in nbrs {
                acc[nb.index() / 64] |= 1u64 << (nb.index() % 64);
                for (a, b) in acc.iter_mut().zip(words[nb.index()].iter()) {
                    *a |= *b;
                }
            }
            words[s.index()] = acc;
        }
        Closure { words }
    }

    /// Is `b` in the closure of `a`?
    pub fn contains(&self, a: StageId, b: StageId) -> bool {
        (self.words[a.index()][b.index() / 64] >> (b.index() % 64)) & 1 == 1
    }

    /// Iterate members of `a`'s closure in id order.
    pub fn members(&self, a: StageId) -> impl Iterator<Item = StageId> + '_ {
        // Set bits word by word, lowest first: ascending ids.
        self.words[a.index()]
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| {
                let mut w = word;
                std::iter::from_fn(move || {
                    (w != 0).then(|| {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        StageId((wi * 64 + bit) as u32)
                    })
                })
            })
    }

    /// Number of members in `a`'s closure.
    pub fn count(&self, a: StageId) -> usize {
        self.words[a.index()]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Per-stage critical-path metrics, with a pluggable per-stage "length".
///
/// `bottom_level[i]` = longest path from the start of stage `i` to the end of
/// the DAG, *including* stage `i` itself; `top_level[i]` = longest path from
/// job start to the start of stage `i`. The classic critical-path scheduler
/// [Graham 1969] ranks ready stages by descending bottom level.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    pub bottom_level: Vec<u64>,
    pub top_level: Vec<u64>,
}

impl CriticalPath {
    /// Compute with `len(stage)` as each stage's path contribution. For wall
    /// clock use ideal stage duration; for Eq. (6)-flavoured ranks use work.
    pub fn compute(dag: &JobDag, len: impl Fn(StageId) -> u64) -> CriticalPath {
        let n = dag.num_stages();
        let mut bottom = vec![0u64; n];
        for &s in dag.topo_order().iter().rev() {
            let best_child = dag
                .children(s)
                .iter()
                .map(|c| bottom[c.index()])
                .max()
                .unwrap_or(0);
            bottom[s.index()] = len(s) + best_child;
        }
        let mut top = vec![0u64; n];
        for &s in dag.topo_order() {
            let best_parent = dag
                .parents(s)
                .iter()
                .map(|p| top[p.index()] + len(*p))
                .max()
                .unwrap_or(0);
            top[s.index()] = best_parent;
        }
        CriticalPath {
            bottom_level: bottom,
            top_level: top,
        }
    }

    /// Length of the whole critical path.
    pub fn length(&self) -> u64 {
        self.bottom_level.iter().copied().max().unwrap_or(0)
    }
}

/// Ideal duration of a stage given unbounded executors: all tasks run in
/// parallel, so the stage takes its longest task's compute time. A lower
/// bound used by critical-path ranking and the optimality-gap study.
pub fn ideal_stage_duration(dag: &JobDag, s: StageId) -> SimTime {
    let st = dag.stage(s);
    (0..st.num_tasks)
        .map(|k| st.task_cpu_ms(k))
        .max()
        .unwrap_or(0)
}

/// DAG depth: number of stages on the longest chain.
pub fn depth(dag: &JobDag) -> usize {
    let cp = CriticalPath::compute(dag, |_| 1);
    cp.length() as usize
}

/// Stages that become runnable given a set of completed stages.
pub fn ready_stages(dag: &JobDag, completed: &[bool]) -> Vec<StageId> {
    dag.stage_ids()
        .filter(|s| !completed[s.index()] && dag.parents(*s).iter().all(|p| completed[p.index()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    /// chain: s0 -> s1 -> s2 ; and s3 independent
    fn chain_plus() -> JobDag {
        let mut b = DagBuilder::new("c");
        let (_, r0) = b.stage("s0").tasks(2).demand_cpus(1).cpu_ms(100).build();
        let (_, r1) = b
            .stage("s1")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(200)
            .reads_narrow(r0)
            .build();
        let _ = b
            .stage("s2")
            .tasks(2)
            .demand_cpus(1)
            .cpu_ms(300)
            .reads_wide(r1)
            .build();
        let _ = b.stage("s3").tasks(1).demand_cpus(1).cpu_ms(50).build();
        b.build().unwrap()
    }

    #[test]
    fn successor_closure_is_transitive() {
        let d = chain_plus();
        let c = Closure::successors(&d);
        assert!(c.contains(StageId(0), StageId(1)));
        assert!(c.contains(StageId(0), StageId(2)));
        assert!(!c.contains(StageId(0), StageId(3)));
        assert!(!c.contains(StageId(2), StageId(0)));
        assert_eq!(c.count(StageId(0)), 2);
        assert_eq!(c.count(StageId(3)), 0);
        let members: Vec<_> = c.members(StageId(0)).collect();
        assert_eq!(members, vec![StageId(1), StageId(2)]);
    }

    #[test]
    fn ancestor_closure_mirrors_successors() {
        let d = chain_plus();
        let s = Closure::successors(&d);
        let a = Closure::ancestors(&d);
        for x in d.stage_ids() {
            for y in d.stage_ids() {
                assert_eq!(s.contains(x, y), a.contains(y, x), "{x} {y}");
            }
        }
    }

    #[test]
    fn critical_path_levels() {
        let d = chain_plus();
        let cp = CriticalPath::compute(&d, |s| d.stage(s).cpu_ms);
        assert_eq!(cp.bottom_level[0], 600);
        assert_eq!(cp.bottom_level[2], 300);
        assert_eq!(cp.bottom_level[3], 50);
        assert_eq!(cp.top_level[0], 0);
        assert_eq!(cp.top_level[2], 300);
        assert_eq!(cp.length(), 600);
    }

    #[test]
    fn depth_counts_longest_chain() {
        let d = chain_plus();
        assert_eq!(depth(&d), 3);
    }

    #[test]
    fn ready_stages_tracks_completion() {
        let d = chain_plus();
        let mut done = vec![false; 4];
        assert_eq!(ready_stages(&d, &done), vec![StageId(0), StageId(3)]);
        done[0] = true;
        assert_eq!(ready_stages(&d, &done), vec![StageId(1), StageId(3)]);
        done[3] = true;
        done[1] = true;
        assert_eq!(ready_stages(&d, &done), vec![StageId(2)]);
    }

    #[test]
    fn closure_works_past_64_stages() {
        // Long chain exercising multi-word bitsets.
        let mut b = DagBuilder::new("long");
        let (_, mut prev) = b.stage("s0").tasks(1).demand_cpus(1).cpu_ms(1).build();
        for i in 1..130 {
            let (_, r) = b
                .stage(&format!("s{i}"))
                .tasks(1)
                .demand_cpus(1)
                .cpu_ms(1)
                .reads_narrow(prev)
                .build();
            prev = r;
        }
        let d = b.build().unwrap();
        let c = Closure::successors(&d);
        assert_eq!(c.count(StageId(0)), 129);
        assert!(c.contains(StageId(0), StageId(129)));
        assert!(c.contains(StageId(64), StageId(65)));
        assert!(!c.contains(StageId(129), StageId(0)));
    }
}
