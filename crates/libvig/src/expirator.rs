//! The expirator (`expirator.c`): the glue that expires flows.
//!
//! `expire_items` walks the [`DoubleChain`]'s LRU order, freeing every
//! index whose last activity is at or before the threshold, and erasing
//! the corresponding [`DoubleMap`] slot. This implements line 2 of the
//! paper's Fig. 6 (`expire_flows(t)`), with
//! `threshold = now - Texp` ⟺ `G.timestamp + Texp <= now`.
//!
//! `expire_items_classed` is the same walk under per-class lifetimes,
//! over a chain that keeps one list per class: it merges the list heads.
//!
//! Contract: afterwards, (a) every surviving chain timestamp is
//! `> threshold`, (b) chain and map agree on exactly which indices are
//! live, and (c) the number of removed items is returned. The glue has
//! its own contract because it spans two structures — this is where a
//! coherence bug (expiring from one structure but not the other) would
//! live, precisely the class of stateful bug the paper says Dobrescu et
//! al. could not catch.

use crate::dchain::DoubleChain;
use crate::dmap::{DmapValue, DoubleMap};
use crate::time::Time;

/// Expire every index on list 0 whose timestamp is `<= threshold`,
/// erasing both the chain entry and the map slot. Returns how many were
/// expired.
pub fn expire_items<V: DmapValue + Clone>(
    chain: &mut DoubleChain,
    map: &mut DoubleMap<V>,
    threshold: Time,
) -> usize {
    let mut count = 0;
    while let Some(index) = chain.expire_one(threshold) {
        let erased = map.erase(index);
        debug_assert!(
            erased.is_some(),
            "chain/map coherence: expired index {index} had no map slot"
        );
        count += 1;
    }
    count
}

/// Expire under **per-class lifetimes** from a chain holding one list
/// per class: an index on list `l` stamped `ts` is dead once
/// `ts + lifetimes[l] <= now`.
///
/// Each list has a single lifetime, so its LRU order is its deadline
/// order and its due indices form a prefix. A head merge therefore
/// frees every due index in ascending `(deadline, list, LRU position)`
/// order: while some head is due, free the head with the smallest
/// `(deadline, list)`. That order fixes the free list, hence future
/// slot and port assignment. Costs O(lists · (expired + 1)), with no
/// allocation.
pub fn expire_items_classed<V: DmapValue + Clone>(
    chain: &mut DoubleChain,
    map: &mut DoubleMap<V>,
    lifetimes: &[u64],
    now: Time,
) -> usize {
    debug_assert_eq!(chain.lists(), lifetimes.len());
    let mut count = 0;
    loop {
        let mut due: Option<(u64, usize)> = None;
        for (list, &lifetime) in lifetimes.iter().enumerate() {
            let Some((slot, stamp)) = chain.head(list) else {
                continue;
            };
            // checked_add: a deadline past u64::MAX can never be due.
            match stamp.nanos().checked_add(lifetime) {
                Some(deadline)
                    if deadline <= now.nanos() && due.is_none_or(|(d, _)| deadline < d) =>
                {
                    due = Some((deadline, slot));
                }
                _ => {}
            }
        }
        let Some((_, slot)) = due else {
            return count;
        };
        chain.free_index(slot);
        let erased = map.erase(slot);
        debug_assert!(
            erased.is_some(),
            "chain/map coherence: expired slot {slot} had no map slot"
        );
        count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Item {
        a: u64,
        b: u64,
    }

    impl DmapValue for Item {
        type KeyA = u64;
        type KeyB = u64;

        fn key_a(&self) -> u64 {
            self.a
        }
        fn key_b(&self) -> u64 {
            self.b
        }
    }

    fn insert(chain: &mut DoubleChain, map: &mut DoubleMap<Item>, a: u64, t: Time) -> usize {
        let idx = chain.allocate(t).unwrap();
        map.put(idx, Item { a, b: a + 1000 }).unwrap();
        idx
    }

    #[test]
    fn expires_only_stale_items() {
        let mut chain = DoubleChain::new(8);
        let mut map: DoubleMap<Item> = DoubleMap::new(8);
        insert(&mut chain, &mut map, 1, Time::from_secs(1));
        insert(&mut chain, &mut map, 2, Time::from_secs(2));
        let live = insert(&mut chain, &mut map, 3, Time::from_secs(10));

        let n = expire_items(&mut chain, &mut map, Time::from_secs(5));
        assert_eq!(n, 2);
        assert_eq!(map.size(), 1);
        assert_eq!(chain.size(), 1);
        assert!(chain.is_allocated(live));
        assert_eq!(map.get_by_a(&3), Some(live));
        assert_eq!(map.get_by_a(&1), None);
        assert_eq!(map.get_by_b(&1001), None);
    }

    #[test]
    fn expire_nothing_when_all_fresh() {
        let mut chain = DoubleChain::new(4);
        let mut map: DoubleMap<Item> = DoubleMap::new(4);
        insert(&mut chain, &mut map, 1, Time::from_secs(100));
        assert_eq!(expire_items(&mut chain, &mut map, Time::from_secs(99)), 0);
        assert_eq!(map.size(), 1);
    }

    #[test]
    fn expired_slots_are_immediately_reusable() {
        let mut chain = DoubleChain::new(2);
        let mut map: DoubleMap<Item> = DoubleMap::new(2);
        insert(&mut chain, &mut map, 1, Time::from_secs(1));
        insert(&mut chain, &mut map, 2, Time::from_secs(1));
        assert!(chain.is_full());
        expire_items(&mut chain, &mut map, Time::from_secs(1));
        assert_eq!(map.size(), 0);
        // full capacity available again
        insert(&mut chain, &mut map, 10, Time::from_secs(2));
        insert(&mut chain, &mut map, 11, Time::from_secs(2));
        assert!(chain.is_full());
    }

    /// The reference for [`expire_items_classed`]: the full-list scan
    /// over a single-list chain, `classes[slot]` giving each slot's
    /// class. Collects every due slot, then frees them sorted by
    /// `(deadline, class)`; the stable sort keeps each class's due slots
    /// in LRU order.
    fn expire_items_classed_scan(
        chain: &mut DoubleChain,
        map: &mut DoubleMap<Item>,
        classes: &[usize],
        lifetimes: &[u64],
        now: Time,
    ) -> usize {
        let mut due: Vec<(u64, usize, usize)> = Vec::new();
        for (slot, stamp) in chain.iter_lru() {
            let class = classes[slot];
            if let Some(deadline) = stamp.nanos().checked_add(lifetimes[class]) {
                if deadline <= now.nanos() {
                    due.push((deadline, class, slot));
                }
            }
        }
        due.sort_by_key(|&(deadline, class, _)| (deadline, class));
        for &(_, _, slot) in &due {
            assert!(chain.free_index(slot));
            assert!(map.erase(slot).is_some());
        }
        due.len()
    }

    proptest! {
        /// Per-class lists with the head merge agree with the full-list
        /// scan byte for byte: same expired count, each class's survivors
        /// in the same order, same map contents, and the same free-list
        /// order — for arbitrary class assignments, class migrations,
        /// lifetime triples, rejuvenation storms, and expiry times.
        #[test]
        fn classed_lists_equal_classed_scan(
            arrivals in proptest::collection::vec((0u64..60, 0usize..3), 1..28),
            rejuv in proptest::collection::vec((0usize..28, 0u64..60), 0..16),
            moves in proptest::collection::vec(0usize..4, 16),
            lifetimes in (1u64..40, 1u64..40, 1u64..40),
            now in 0u64..120,
        ) {
            let cap = 32;
            let mut chain_s = DoubleChain::new(cap);
            let mut map_s: DoubleMap<Item> = DoubleMap::new(cap);
            let mut chain_l = DoubleChain::with_lists(cap, 3);
            let mut map_l: DoubleMap<Item> = DoubleMap::new(cap);
            let mut classes = vec![0usize; cap];

            let mut sorted = arrivals;
            sorted.sort_unstable_by_key(|&(s, _)| s);
            let mut clock = 0u64;
            for (i, &(s, class)) in sorted.iter().enumerate() {
                clock = clock.max(s);
                let t = Time::from_secs(clock);
                let a = insert(&mut chain_s, &mut map_s, i as u64, t);
                let b = insert(&mut chain_l, &mut map_l, i as u64, t);
                prop_assert_eq!(a, b);
                classes[b] = class;
                prop_assert!(chain_l.rejuvenate_into(b, class, t));
            }
            // A monotone rejuvenation storm; a move below 3 migrates the
            // refreshed slot to that class.
            for ((pick, bump), mv) in rejuv.into_iter().zip(moves) {
                if pick < sorted.len() && chain_s.is_allocated(pick) {
                    clock += bump;
                    let t = Time::from_secs(clock);
                    if mv < 3 {
                        classes[pick] = mv;
                    }
                    chain_s.rejuvenate(pick, t);
                    chain_l.rejuvenate_into(pick, classes[pick], t);
                }
            }

            let lifetimes_ns: Vec<u64> = [lifetimes.0, lifetimes.1, lifetimes.2]
                .iter().map(|l| Time::from_secs(*l).nanos()).collect();
            let now_t = Time::from_secs(now);
            let n_scan = expire_items_classed_scan(
                &mut chain_s, &mut map_s, &classes, &lifetimes_ns, now_t);
            let n_lists = expire_items_classed(
                &mut chain_l, &mut map_l, &lifetimes_ns, now_t);
            prop_assert_eq!(n_scan, n_lists);
            for class in 0..3 {
                let scan: Vec<_> = chain_s
                    .iter_lru()
                    .filter(|&(slot, _)| classes[slot] == class)
                    .collect();
                let list: Vec<_> = chain_l.iter_list(class).collect();
                prop_assert_eq!(scan, list, "class {} survivors diverged", class);
            }
            prop_assert_eq!(map_s.size(), map_l.size());
            // Free-list order: drain both chains dry and compare the
            // allocation sequences (this is what pins port-reuse order).
            let t_next = Time::from_secs(clock + 1);
            loop {
                let a = chain_s.allocate(t_next);
                let b = chain_l.allocate(t_next);
                prop_assert_eq!(&a, &b, "free-list order diverged");
                if a.is_err() { break; }
            }
        }

        /// Post-state properties for arbitrary histories: survivors are
        /// exactly the items stamped after the threshold, and chain/map
        /// stay coherent.
        #[test]
        fn expiry_postcondition(
            stamps in proptest::collection::vec(0u64..50, 1..24),
            thr in 0u64..50,
        ) {
            let mut sorted = stamps;
            sorted.sort_unstable();
            let mut chain = DoubleChain::new(32);
            let mut map: DoubleMap<Item> = DoubleMap::new(32);
            for (i, s) in sorted.iter().enumerate() {
                insert(&mut chain, &mut map, i as u64, Time::from_secs(*s));
            }
            let expired = expire_items(&mut chain, &mut map, Time::from_secs(thr));
            let expected = sorted.iter().filter(|&&s| s <= thr).count();
            prop_assert_eq!(expired, expected);
            prop_assert_eq!(chain.size(), map.size());
            for (idx, t) in chain.iter_lru() {
                prop_assert!(t > Time::from_secs(thr));
                prop_assert!(map.get(idx).is_some(), "chain/map coherence");
            }
        }
    }
}
