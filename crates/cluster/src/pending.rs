//! [`PendingSet`]: the set of not-yet-launched task indices of one stage.
//!
//! The scheduler hot path needs three operations on this set — membership
//! (`validate`), removal (launch), and ordered iteration (placement scans)
//! — and the old `Vec<u32>` representation made the first two O(pending).
//! A doubly-linked list threaded through index arrays gives O(1) for all
//! of them while preserving the exact iteration order the sequential
//! scheduler produced (ascending task index: tasks start as `0..n` and are
//! only ever removed).
//!
//! The [`crate::locality_index::LocalityIndex`] keeps no copy of this set:
//! its per-stage locality sets cover every task of a live stage, pending
//! or not, and every query masks them with [`PendingSet::word_bits`]. A
//! launch pop or a re-insert therefore needs no call on the index.
//! `insert`/`remove` return whether membership actually changed, for the
//! call sites that keep other counters (running tasks, the scheduler's
//! accounting) in step.

// Dense u32 task indices: `present.len()` is a per-stage task count,
// bounded far below u32::MAX by workload construction.
#![allow(clippy::cast_possible_truncation)]

/// Ordered set of task indices over a fixed universe `0..n`.
// lint: incremental(next, mutators = [remove, insert, clear])
// lint: incremental(prev, mutators = [remove, insert, clear])
// lint: incremental(present, mutators = [remove, insert, clear])
// lint: incremental(words, mutators = [remove, insert, clear], oracle = check_mirror)
// lint: incremental(len, mutators = [remove, insert, clear], oracle = check_mirror)
// lint: hotpath(remove)
#[derive(Clone, Debug)]
pub struct PendingSet {
    /// `next[i]` / `prev[i]` thread present members in ascending order;
    /// index `n` is the sentinel position (head/tail anchor).
    next: Vec<u32>,
    prev: Vec<u32>,
    present: Vec<bool>,
    /// `present` as a packed bitmap (bit `k` of word `k / 64`), kept in
    /// lockstep so set-algebra consumers (the locality index's task sets)
    /// can AND against membership a word at a time.
    words: Vec<u64>,
    len: u32,
}

impl PendingSet {
    /// The full universe `0..n`, all present.
    pub fn full(n: u32) -> Self {
        let nu = n as usize;
        let mut next = Vec::with_capacity(nu + 1);
        let mut prev = Vec::with_capacity(nu + 1);
        for i in 0..=n {
            next.push((i + 1) % (n + 1));
            prev.push(if i == 0 { n } else { i - 1 });
        }
        let mut words = vec![0u64; nu.div_ceil(64)];
        for k in 0..nu {
            words[k / 64] |= 1 << (k % 64);
        }
        Self {
            next,
            prev,
            present: vec![true; nu],
            words,
            len: n,
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, k: u32) -> bool {
        self.present.get(k as usize).copied().unwrap_or(false)
    }

    /// Remove `k`; returns whether it was present.
    // lint: allow(panic-surface): `k` is a task index < n, the universe every array is sized to
    pub fn remove(&mut self, k: u32) -> bool {
        if !self.contains(k) {
            return false;
        }
        let (p, nx) = (self.prev[k as usize], self.next[k as usize]);
        self.next[p as usize] = nx;
        self.prev[nx as usize] = p;
        self.present[k as usize] = false;
        self.words[(k / 64) as usize] &= !(1 << (k % 64));
        self.len -= 1;
        true
    }

    /// Re-insert `k` (a failed task re-offered to the scheduler, or a
    /// completed task resubmitted by lineage recovery); returns whether it
    /// was absent. Splices `k` back so iteration order stays ascending.
    pub fn insert(&mut self, k: u32) -> bool {
        if self.contains(k) {
            return false;
        }
        let sentinel = self.present.len() as u32;
        // Previous present member (or the sentinel): walk backwards from k.
        // O(n) worst case, but insertion only happens on the rare
        // failure-recovery path, never in the scheduling hot loop.
        let mut p = sentinel;
        for i in (0..k).rev() {
            if self.present[i as usize] {
                p = i;
                break;
            }
        }
        let nx = self.next[p as usize];
        self.next[p as usize] = k;
        self.prev[k as usize] = p;
        self.next[k as usize] = nx;
        self.prev[nx as usize] = k;
        self.present[k as usize] = true;
        self.words[(k / 64) as usize] |= 1 << (k % 64);
        self.len += 1;
        debug_assert!(self.check_mirror());
        true
    }

    /// Remove every member (used by tests resetting fixtures).
    pub fn clear(&mut self) {
        let n = self.present.len() as u32;
        self.present.fill(false);
        self.words.fill(0);
        self.next[n as usize] = n;
        self.prev[n as usize] = n;
        self.len = 0;
        debug_assert!(self.check_mirror());
    }

    /// Members in ascending order.
    pub fn iter(&self) -> PendingIter<'_> {
        let sentinel = self.present.len() as u32;
        PendingIter {
            set: self,
            cur: self.next[sentinel as usize],
            sentinel,
        }
    }

    /// Membership as a packed bitmap: bit `k % 64` of word `k / 64` is
    /// set iff `k` is present. `len() == ceil(universe / 64)`.
    pub fn word_bits(&self) -> &[u64] {
        &self.words
    }

    /// From-scratch oracle: the packed `words` bitmap and `len` both match
    /// the authoritative `present` flags. Debug-asserted on the mutations
    /// that reshape membership (`insert`/`clear`; `remove` is the per-launch
    /// hot path, so the simulator checks every stage's set at each
    /// scheduling opportunity instead).
    pub fn check_mirror(&self) -> bool {
        let mut words = vec![0u64; self.present.len().div_ceil(64)];
        let mut n = 0u32;
        for (k, &p) in self.present.iter().enumerate() {
            if p {
                words[k / 64] |= 1 << (k % 64);
                n += 1;
            }
        }
        words == self.words && n == self.len
    }
}

pub struct PendingIter<'a> {
    set: &'a PendingSet,
    cur: u32,
    sentinel: u32,
}

impl Iterator for PendingIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == self.sentinel {
            return None;
        }
        let k = self.cur;
        self.cur = self.set.next[k as usize];
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_iterates_ascending() {
        let s = PendingSet::full(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn removal_is_order_preserving() {
        let mut s = PendingSet::full(5);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert!(s.remove(0));
        assert!(s.remove(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn drain_to_empty_and_clear() {
        let mut s = PendingSet::full(3);
        for k in 0..3 {
            assert!(s.remove(k));
        }
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut s2 = PendingSet::full(4);
        s2.clear();
        assert!(s2.is_empty());
        assert_eq!(s2.iter().count(), 0);
    }

    #[test]
    fn insert_restores_ascending_order() {
        let mut s = PendingSet::full(6);
        for k in [0, 2, 3, 5] {
            assert!(s.remove(k));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert!(s.insert(3));
        assert!(!s.insert(3)); // already present
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert!(s.insert(0));
        assert!(s.insert(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(5));
    }

    #[test]
    fn insert_into_emptied_set() {
        let mut s = PendingSet::full(3);
        for k in 0..3 {
            s.remove(k);
        }
        assert!(s.insert(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
        assert!(s.insert(2));
        assert!(s.insert(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_universe() {
        let s = PendingSet::full(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
