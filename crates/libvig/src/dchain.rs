//! The "double chain": libVig's index allocator with timestamp-ordered
//! expiry (Vigor's `double-chain.c`), generalised to a fixed number of
//! allocated lists over the same index space.
//!
//! The NAT allocates one slot index per flow. The double chain hands out
//! indices from a preallocated pool, remembers the last-activity time of
//! each allocated index, and can **expire the oldest index in O(1)**
//! because each allocated list is kept in least-recently-refreshed
//! order: `allocate` and `rejuvenate` both append at a list's tail with
//! the current time, and time is monotonic, so each list's head is its
//! stalest entry.
//!
//! A chain built with [`DoubleChain::new`] has exactly one allocated
//! list — the paper's chain. [`DoubleChain::with_lists`] adds more lists
//! over the same `next`/`prev` arrays, each with its own head and tail;
//! every allocated index carries the tag of the one list it is on
//! ([`DoubleChain::list_of`]). The NAT keeps one list per timeout class,
//! so within a list last-activity order *is* deadline order.
//!
//! ## Contract summary
//!
//! Writing the abstract state as one ordered sequence
//! `[(index, timestamp, list)]` (least recently touched first) plus a
//! free set ([`AbstractChain`]), each list is that sequence filtered by
//! its tag:
//!
//! * `allocate(t)` — requires `t >=` every timestamp on list 0 (time
//!   monotonicity); ensures: if the free set is nonempty, some free index
//!   moves to the tail of list 0 with timestamp `t`; otherwise returns
//!   `None` and nothing changes.
//! * `rejuvenate_into(i, l, t)` — requires `i` allocated and `t >=` every
//!   timestamp on list `l`; ensures `i` moves to the tail of list `l`
//!   with timestamp `t`. `rejuvenate(i, t)` keeps `i` on its own list.
//! * `expire_one(threshold)` — ensures: if the head of list 0 has
//!   timestamp `<= threshold`, it is freed and returned; otherwise
//!   `None` and nothing changes. (Paper Fig. 6 expires
//!   `G.timestamp + Texp <= t`; callers pass
//!   `threshold = now - Texp`, see [`crate::expirator`].)
//! * `is_allocated(i)`, `timestamp_of(i)`, `list_of(i)`, `head(l)` —
//!   pure queries.

use crate::time::Time;
use crate::Full;

const NIL: usize = usize::MAX;

/// List tag of a free index.
const FREE: u8 = u8::MAX;

/// The double chain. See module docs.
#[derive(Debug, Clone)]
pub struct DoubleChain {
    /// Doubly-linked allocated lists in LRU order + singly-linked free
    /// list, all sharing the `next`/`prev` arrays.
    next: Vec<usize>,
    prev: Vec<usize>,
    timestamps: Vec<Time>,
    /// The list each index is on, or [`FREE`].
    list: Vec<u8>,
    /// Head/tail of each allocated list (oldest / freshest).
    heads: Vec<usize>,
    tails: Vec<usize>,
    /// Head of the free list.
    free_head: usize,
    size: usize,
    capacity: usize,
}

impl DoubleChain {
    /// Preallocate a single-list chain handing out indices `0..capacity`.
    pub fn new(capacity: usize) -> DoubleChain {
        DoubleChain::with_lists(capacity, 1)
    }

    /// Preallocate a chain with `lists` allocated lists (`1..255`) over
    /// the indices `0..capacity`.
    pub fn with_lists(capacity: usize, lists: usize) -> DoubleChain {
        assert!(capacity > 0, "dchain capacity must be non-zero");
        assert!(
            (1..usize::from(FREE)).contains(&lists),
            "dchain needs 1..255 lists, got {lists}"
        );
        let mut next = vec![NIL; capacity];
        for (i, n) in next.iter_mut().enumerate().take(capacity - 1) {
            *n = i + 1;
        }
        DoubleChain {
            next,
            prev: vec![NIL; capacity],
            timestamps: vec![Time::ZERO; capacity],
            list: vec![FREE; capacity],
            heads: vec![NIL; lists],
            tails: vec![NIL; lists],
            free_head: 0,
            size: 0,
            capacity,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of allocated lists fixed at construction.
    pub fn lists(&self) -> usize {
        self.heads.len()
    }

    /// Number of allocated indices.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when every index is allocated.
    pub fn is_full(&self) -> bool {
        self.size == self.capacity
    }

    /// True if `index` is currently allocated. Out-of-range is `false`.
    pub fn is_allocated(&self, index: usize) -> bool {
        index < self.capacity && self.list[index] != FREE
    }

    /// The list an allocated index is on.
    pub fn list_of(&self, index: usize) -> Option<usize> {
        self.is_allocated(index)
            .then(|| usize::from(self.list[index]))
    }

    /// Last-refresh time of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.is_allocated(index).then(|| self.timestamps[index])
    }

    /// The oldest index of list `list` and its timestamp.
    pub fn head(&self, list: usize) -> Option<(usize, Time)> {
        let idx = self.heads[list];
        (idx != NIL).then(|| (idx, self.timestamps[idx]))
    }

    /// Allocate a fresh index on list 0, stamped `time`.
    ///
    /// Contract precondition (checked by [`CheckedChain`]): `time` is not
    /// older than any timestamp on list 0. Returns [`Full`] when no index
    /// is free.
    pub fn allocate(&mut self, time: Time) -> Result<usize, Full> {
        if self.free_head == NIL {
            return Err(Full);
        }
        let idx = self.free_head;
        self.free_head = self.next[idx];
        self.append(idx, 0, time);
        self.size += 1;
        Ok(idx)
    }

    /// Refresh an allocated index's timestamp to `time`, moving it to the
    /// freshest end of its list.
    ///
    /// Contract preconditions: `index` allocated; `time` monotonic.
    /// Returns `false` (and changes nothing) if `index` is not allocated.
    pub fn rejuvenate(&mut self, index: usize, time: Time) -> bool {
        match self.list_of(index) {
            Some(list) => self.rejuvenate_into(index, list, time),
            None => false,
        }
    }

    /// Move an allocated index to the freshest end of list `list` (its
    /// own or another), stamped `time`.
    ///
    /// Contract preconditions: `index` allocated; `time` not older than
    /// any timestamp on `list`. Returns `false` (and changes nothing) if
    /// `index` is not allocated.
    pub fn rejuvenate_into(&mut self, index: usize, list: usize, time: Time) -> bool {
        assert!(list < self.lists(), "dchain list {list} out of range");
        if !self.is_allocated(index) {
            return false;
        }
        self.unlink(index);
        self.append(index, list as u8, time);
        true
    }

    /// If the oldest index of list 0 has `timestamp <= threshold`, free
    /// it and return it.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let (idx, stamp) = self.head(0)?;
        if stamp > threshold {
            return None;
        }
        self.free_index(idx);
        Some(idx)
    }

    /// Free an allocated index directly, pushing it onto the free list
    /// exactly as [`DoubleChain::expire_one`] does. Returns `false` if
    /// the index was not allocated.
    pub fn free_index(&mut self, index: usize) -> bool {
        if !self.is_allocated(index) {
            return false;
        }
        self.unlink(index);
        self.list[index] = FREE;
        self.next[index] = self.free_head;
        self.free_head = index;
        self.size -= 1;
        true
    }

    /// The indices of list `list`, oldest-first (its expiry order).
    pub fn iter_list(&self, list: usize) -> impl Iterator<Item = (usize, Time)> + '_ {
        let mut cur = self.heads[list];
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let i = cur;
            cur = self.next[i];
            Some((i, self.timestamps[i]))
        })
    }

    /// Every allocated index: each list oldest-first, list by list. For
    /// contracts and tests; the NF never iterates.
    pub fn iter_lru(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        (0..self.lists()).flat_map(move |l| self.iter_list(l))
    }

    fn append(&mut self, idx: usize, list: u8, time: Time) {
        let tail = &mut self.tails[usize::from(list)];
        self.list[idx] = list;
        self.timestamps[idx] = time;
        self.next[idx] = NIL;
        self.prev[idx] = *tail;
        if *tail != NIL {
            self.next[*tail] = idx;
        } else {
            self.heads[usize::from(list)] = idx;
        }
        *tail = idx;
    }

    fn unlink(&mut self, idx: usize) {
        let list = usize::from(self.list[idx]);
        let (p, n) = (self.prev[idx], self.next[idx]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.heads[list] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tails[list] = p;
        }
        self.prev[idx] = NIL;
        self.next[idx] = NIL;
    }
}

// ---------------------------------------------------------------------------
// Abstract model and contracts
// ---------------------------------------------------------------------------

/// Abstract double chain: allocated indices in least-recently-touched
/// order, each tagged with its list, plus the derived free set. Analog
/// of Vigor's `dchainp` fixpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractChain {
    /// `(index, timestamp, list)`, least recently touched first.
    seq: Vec<(usize, Time, usize)>,
    capacity: usize,
}

impl AbstractChain {
    /// Empty chain over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        AbstractChain {
            seq: Vec::new(),
            capacity,
        }
    }

    /// Allocated count.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Is the index allocated?
    pub fn is_allocated(&self, index: usize) -> bool {
        self.seq.iter().any(|&(i, _, _)| i == index)
    }

    /// Timestamp of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.seq
            .iter()
            .find(|&&(i, _, _)| i == index)
            .map(|&(_, t, _)| t)
    }

    /// List `list`: the sequence filtered by its tag.
    pub fn list_seq(&self, list: usize) -> Vec<(usize, Time)> {
        self.seq
            .iter()
            .filter(|&&(_, _, l)| l == list)
            .map(|&(i, t, _)| (i, t))
            .collect()
    }

    /// Greatest timestamp on list `list` (for the monotonicity
    /// precondition).
    pub fn max_timestamp(&self, list: usize) -> Option<Time> {
        self.list_seq(list).last().map(|&(_, t)| t)
    }

    /// Model `allocate`: nondeterministic in which free index is chosen,
    /// so it takes the implementation's answer and validates it.
    pub fn allocate_as(&mut self, index: usize, time: Time) {
        debug_assert!(index < self.capacity);
        debug_assert!(!self.is_allocated(index));
        self.seq.push((index, time, 0));
    }

    /// Model `rejuvenate_into`.
    pub fn rejuvenate_into(&mut self, index: usize, list: usize, time: Time) {
        let pos = self
            .seq
            .iter()
            .position(|&(i, _, _)| i == index)
            .expect("rejuvenate of unallocated index");
        self.seq.remove(pos);
        self.seq.push((index, time, list));
    }

    /// Model `expire_one`: the head of list 0.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let pos = self.seq.iter().position(|&(_, _, l)| l == 0)?;
        let (i, t, _) = self.seq[pos];
        if t > threshold {
            return None;
        }
        self.seq.remove(pos);
        Some(i)
    }

    /// Model `free_index`.
    pub fn free_index(&mut self, index: usize) -> bool {
        match self.seq.iter().position(|&(i, _, _)| i == index) {
            Some(pos) => {
                self.seq.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// Implementation + model in lockstep with contract assertions (P3).
#[derive(Debug, Clone)]
pub struct CheckedChain {
    imp: DoubleChain,
    model: AbstractChain,
}

impl CheckedChain {
    /// Preallocate, like [`DoubleChain::new`].
    pub fn new(capacity: usize) -> Self {
        CheckedChain::with_lists(capacity, 1)
    }

    /// Preallocate, like [`DoubleChain::with_lists`].
    pub fn with_lists(capacity: usize, lists: usize) -> Self {
        CheckedChain {
            imp: DoubleChain::with_lists(capacity, lists),
            model: AbstractChain::new(capacity),
        }
    }

    fn require_monotone(&self, list: usize, time: Time) {
        if let Some(mx) = self.model.max_timestamp(list) {
            assert!(
                time >= mx,
                "dchain precondition: time monotonicity violated on list {list}"
            );
        }
    }

    /// Contract-checked `allocate`.
    pub fn allocate(&mut self, time: Time) -> Result<usize, Full> {
        self.require_monotone(0, time);
        let r = self.imp.allocate(time);
        match r {
            Ok(i) => {
                assert!(i < self.imp.capacity(), "allocated index out of range");
                assert!(
                    !self.model.is_allocated(i),
                    "impl allocated an in-use index"
                );
                self.model.allocate_as(i, time);
            }
            Err(Full) => {
                assert_eq!(self.model.len(), self.imp.capacity(), "Full below capacity");
            }
        }
        self.check_equiv();
        r
    }

    /// Contract-checked `rejuvenate` (stays on the index's own list).
    pub fn rejuvenate(&mut self, index: usize, time: Time) -> bool {
        match self.imp.list_of(index) {
            Some(list) => self.rejuvenate_into(index, list, time),
            None => {
                assert!(!self.model.is_allocated(index), "allocation diverged");
                assert!(!self.imp.rejuvenate(index, time));
                false
            }
        }
    }

    /// Contract-checked `rejuvenate_into`.
    pub fn rejuvenate_into(&mut self, index: usize, list: usize, time: Time) -> bool {
        let was = self.model.is_allocated(index);
        if was {
            self.require_monotone(list, time);
        }
        let r = self.imp.rejuvenate_into(index, list, time);
        assert_eq!(r, was, "rejuvenate result diverged from model");
        if was {
            self.model.rejuvenate_into(index, list, time);
        }
        self.check_equiv();
        r
    }

    /// Contract-checked `expire_one`.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let got = self.imp.expire_one(threshold);
        let spec = self.model.expire_one(threshold);
        assert_eq!(got, spec, "expire_one diverged from model");
        self.check_equiv();
        got
    }

    /// Contract-checked `free_index`.
    pub fn free_index(&mut self, index: usize) -> bool {
        let got = self.imp.free_index(index);
        let spec = self.model.free_index(index);
        assert_eq!(got, spec, "free_index diverged from model");
        self.check_equiv();
        got
    }

    /// Contract-checked allocation query.
    pub fn is_allocated(&self, index: usize) -> bool {
        let got = self.imp.is_allocated(index);
        assert_eq!(got, self.model.is_allocated(index));
        got
    }

    /// Access the underlying implementation.
    pub fn raw(&self) -> &DoubleChain {
        &self.imp
    }

    /// Full refinement check: each list equals the model's sequence
    /// filtered by that list's tag, and its timestamps are non-decreasing
    /// (the LRU invariant).
    pub fn check_equiv(&self) {
        assert_eq!(self.imp.size(), self.model.len());
        for list in 0..self.imp.lists() {
            let imp_seq: Vec<(usize, Time)> = self.imp.iter_list(list).collect();
            let model_seq = self.model.list_seq(list);
            assert_eq!(imp_seq, model_seq, "list {list} diverged from the model");
            assert!(
                model_seq.windows(2).all(|w| w[0].1 <= w[1].1),
                "LRU invariant broken: list {list} timestamps must be non-decreasing"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_all_then_full() {
        let mut c = CheckedChain::new(3);
        let mut got = vec![
            c.allocate(Time(1)).unwrap(),
            c.allocate(Time(2)).unwrap(),
            c.allocate(Time(3)).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(c.allocate(Time(4)), Err(Full));
    }

    #[test]
    fn expire_follows_lru_order() {
        let mut c = CheckedChain::new(4);
        let a = c.allocate(Time::from_secs(1)).unwrap();
        let b = c.allocate(Time::from_secs(2)).unwrap();
        let d = c.allocate(Time::from_secs(3)).unwrap();
        // threshold covers a and b but not d
        assert_eq!(c.expire_one(Time::from_secs(2)), Some(a));
        assert_eq!(c.expire_one(Time::from_secs(2)), Some(b));
        assert_eq!(c.expire_one(Time::from_secs(2)), None);
        assert!(c.is_allocated(d));
    }

    #[test]
    fn rejuvenate_rescues_from_expiry() {
        let mut c = CheckedChain::new(4);
        let a = c.allocate(Time::from_secs(1)).unwrap();
        let b = c.allocate(Time::from_secs(2)).unwrap();
        assert!(c.rejuvenate(a, Time::from_secs(10)));
        // now b is the oldest
        assert_eq!(c.expire_one(Time::from_secs(5)), Some(b));
        assert_eq!(
            c.expire_one(Time::from_secs(5)),
            None,
            "a was rejuvenated past threshold"
        );
        assert!(c.is_allocated(a));
    }

    #[test]
    fn rejuvenate_unallocated_returns_false() {
        let mut c = CheckedChain::new(2);
        assert!(!c.rejuvenate(0, Time(1)));
        assert!(!c.rejuvenate(7, Time(1))); // out of range
    }

    #[test]
    fn freed_indices_are_reallocated() {
        let mut c = CheckedChain::new(2);
        let a = c.allocate(Time(1)).unwrap();
        let b = c.allocate(Time(2)).unwrap();
        assert!(c.free_index(a));
        let a2 = c.allocate(Time(3)).unwrap();
        assert_eq!(a2, a, "freed index must be reusable");
        assert!(c.is_allocated(b));
        assert_eq!(c.raw().size(), 2);
    }

    #[test]
    fn expire_exact_threshold_boundary() {
        // Fig. 6: expire iff timestamp + Texp <= now, i.e. ts <= threshold.
        let mut c = CheckedChain::new(2);
        c.allocate(Time(100)).unwrap();
        assert_eq!(c.expire_one(Time(99)), None, "ts > threshold survives");
        assert!(c.expire_one(Time(100)).is_some(), "ts == threshold expires");
    }

    #[test]
    fn timestamp_queries() {
        let mut c = CheckedChain::new(2);
        let a = c.allocate(Time(5)).unwrap();
        assert_eq!(c.raw().timestamp_of(a), Some(Time(5)));
        assert_eq!(c.raw().timestamp_of(1 - a), None);
        assert_eq!(c.raw().head(0), Some((a, Time(5))));
    }

    #[test]
    fn lists_expire_and_iterate_independently() {
        let mut c = CheckedChain::with_lists(4, 3);
        let a = c.allocate(Time(1)).unwrap();
        let b = c.allocate(Time(2)).unwrap();
        let d = c.allocate(Time(3)).unwrap();
        // Move `a` to list 2 keeping its stamp, `b` to list 1 refreshed.
        assert!(c.rejuvenate_into(a, 2, Time(1)));
        assert!(c.rejuvenate_into(b, 1, Time(4)));
        assert_eq!(c.raw().list_of(a), Some(2));
        assert_eq!(c.raw().head(0), Some((d, Time(3))));
        assert_eq!(c.raw().head(1), Some((b, Time(4))));
        // expire_one only looks at list 0.
        assert_eq!(c.expire_one(Time(2)), None);
        assert_eq!(c.expire_one(Time(3)), Some(d));
        let all: Vec<usize> = c.raw().iter_lru().map(|(i, _)| i).collect();
        assert_eq!(all, vec![b, a], "list by list, oldest first");
        // `rejuvenate` keeps an index on its own list.
        assert!(c.rejuvenate(a, Time(5)));
        assert_eq!(c.raw().list_of(a), Some(2));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Allocate,
        Rejuvenate(usize),
        Relink(usize, usize),
        ExpireOne(u64),
        Free(usize),
    }

    fn op_strategy(cap: usize, lists: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Allocate),
            (0..cap).prop_map(Op::Rejuvenate),
            (0..cap, 0..lists).prop_map(|(i, l)| Op::Relink(i, l)),
            (0u64..16).prop_map(Op::ExpireOne),
            (0..cap).prop_map(Op::Free),
        ]
    }

    fn run_ops(lists: usize, ops: Vec<Op>) {
        let mut c = CheckedChain::with_lists(5, lists);
        let mut now = Time::ZERO;
        for op in ops {
            now = now.plus(1); // strictly monotone clock
            match op {
                Op::Allocate => {
                    let _ = c.allocate(now);
                }
                Op::Rejuvenate(i) => {
                    c.rejuvenate(i, now);
                }
                Op::Relink(i, l) => {
                    c.rejuvenate_into(i, l, now);
                }
                Op::ExpireOne(back) => {
                    c.expire_one(now.minus(back));
                }
                Op::Free(i) => {
                    c.free_index(i);
                }
            }
        }
    }

    proptest! {
        /// Random op sequences with a monotone clock refine the model,
        /// on the single-list chain and on a three-list one.
        #[test]
        fn random_ops_refine_model(
            single in proptest::collection::vec(op_strategy(5, 1), 0..200),
            multi in proptest::collection::vec(op_strategy(5, 3), 0..200),
        ) {
            run_ops(1, single);
            run_ops(3, multi);
        }

        /// After expiring exhaustively at threshold T, every surviving
        /// timestamp is > T (the paper's expire_flows postcondition).
        #[test]
        fn exhaustive_expiry_leaves_only_fresh(
            stamps in proptest::collection::vec(1u64..100, 1..20),
            thr in 0u64..100,
        ) {
            let mut c = DoubleChain::new(32);
            let mut now = Time::ZERO;
            for s in &stamps {
                now = Time(now.0.max(*s)); // keep monotone by sorting input
            }
            let mut sorted = stamps.clone();
            sorted.sort_unstable();
            for s in &sorted {
                c.allocate(Time(*s)).unwrap();
            }
            while c.expire_one(Time(thr)).is_some() {}
            for (_, t) in c.iter_lru() {
                prop_assert!(t > Time(thr));
            }
            let expected_survivors = sorted.iter().filter(|&&s| s > thr).count();
            prop_assert_eq!(c.size(), expected_survivors);
        }
    }
}
