//! The flow manager: VigNAT's stateful half, entirely in libVig
//! structures.
//!
//! State layout (identical to the C VigNAT):
//!
//! * a [`DoubleMap`] keyed by internal 5-tuple and external key, holding
//!   [`Flow`] records in slots `0..capacity`;
//! * a [`DoubleChain`] allocating those same slot indices and keeping
//!   their last-activity order for expiry;
//! * the invariant tying them: slot `i` is chain-allocated **iff** slot
//!   `i` is dmap-occupied, and the flow in slot `i` owns the pool
//!   endpoint `(ext_ip, ext_port) = cfg.endpoint_of(slot_base + i)`.
//!
//! That last equality is the trick that removes the need for a separate
//! endpoint allocator: endpoint uniqueness *is* slot uniqueness, which
//! the dchain contract guarantees. With the paper's single-address pool
//! it reads `ext_port == start_port + i`, VigNAT's literal invariant.
//! [`FlowManager::check_coherence`] asserts the full invariant; the
//! differential and property tests call it liberally.
//!
//! ## Expiry: one LRU list per timeout class
//!
//! On a homogeneous configuration (the paper's, and every config where
//! the TCP lifetimes inherit `expiry_ns`) the chain has one list — the
//! paper's chain — and expiry is the paper's walk from its head
//! (`expirator::expire_items`), O(expired + 1).
//!
//! With per-class TCP lifetimes configured (`!cfg.is_homogeneous()`)
//! each slot additionally carries its tracker state
//! ([`vig_spec::TcpState`], `None` for UDP), and the chain keeps **one
//! list per [`vig_spec::TimeoutClass`]**; a slot's list tag is its class.
//! Rejuvenation steps the tracker ([`vig_spec::tcp::transition`]) and
//! relinks the slot to the tail of its (possibly new) class's list.
//! Every flow in a list shares one lifetime, so each list's LRU order is
//! its deadline order, and expiry merges the list heads
//! (`expirator::expire_items_classed`): due slots are freed in ascending
//! `(deadline, class, within-class LRU)` order, still O(expired + 1).
//! The full-list scan with a sort — the same order, computed naively —
//! is the reference this merge is tested against.
//!
//! Both rest on monotone stamps. The table keeps its clock high-water
//! mark in every build: a stamp behind it is clamped to it and counted
//! ([`FlowManager::clock_regressions`]), so the lists stay sorted even
//! if a driver's clock steps back.

use libvig::dchain::DoubleChain;
use libvig::dmap::DoubleMap;
use libvig::expirator;
use libvig::map::MapKey;
use libvig::time::Time;
use vig_packet::{Direction, ExtKey, Flow, FlowId, Ip4, Proto};
use vig_spec::tcp::{class_of, initial_state, transition};
use vig_spec::{NatConfig, TcpState, TimeoutClass};

/// The flow-table interface the concrete environments drive.
///
/// This is the seam at which the unsharded [`FlowManager`] and the
/// sharded [`crate::sharded::ShardedFlowManager`] are interchangeable:
/// the envs (`SimpleEnv`, netsim's `FrameEnv`/`BurstEnv`) are generic
/// over a `FlowTable`, and the verified loop body above them is
/// oblivious — it sees only [`crate::env::NatEnv`]. Every operation
/// takes the caller's memoized key hash, both to skip rehashing (the
/// PR 1 fast path) and because **the hash doubles as the shard
/// selector** for sharded implementations — which is why
/// [`FlowTable::allocate_slot_routed`] carries the flow hash: the shard
/// a fresh flow's slot (and therefore its external port) comes from is
/// a function of that hash, so allocation never crosses shards.
///
/// Slot indices returned by lookups and allocation are *global*: a
/// sharded table exposes `shard * per_shard_capacity + local_slot`, so
/// the VigNAT invariant `ext_port == start_port + slot` holds verbatim
/// for every implementation and the loop body's port arithmetic needs
/// no sharding awareness.
pub trait FlowTable {
    /// Flows currently tracked.
    fn flow_count(&self) -> usize;

    /// Total slot capacity.
    fn table_capacity(&self) -> usize;

    /// Expire every flow with `last_active <= threshold`; returns how
    /// many were removed. Sharded implementations expire all shards
    /// (each shard also exposes an independent per-shard entry point
    /// for per-core expiry clocks).
    fn expire(&mut self, threshold: Time) -> usize;

    /// Find a flow by internal 5-tuple; `hash == fid.key_hash()`.
    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, &Flow)>;

    /// Resolve a burst of internal-key lookups, appending one result
    /// per query to `out` in query order; `hashes[i] ==
    /// fids[i].key_hash()`. Results must equal element-wise
    /// [`FlowTable::lookup_internal_hashed`] — batching (and, for
    /// sharded tables, the per-shard sub-batch split) is a pure
    /// optimization. Takes `&mut self` only for internal scratch; the
    /// table state is not modified.
    fn probe_internal_batch(
        &mut self,
        fids: &[FlowId],
        hashes: &[u64],
        out: &mut Vec<Option<(usize, Flow)>>,
    );

    /// Find a flow by external key; `hash == ek.key_hash()`. Sharded
    /// tables route by the port partition, **not** by this hash — a
    /// flow's external port identifies its shard exactly, whereas the
    /// external key hashes independently of the internal one.
    fn lookup_external_hashed(&self, ek: &ExtKey, hash: u64) -> Option<(usize, &Flow)>;

    /// Refresh the activity timestamp of an allocated (global) slot.
    /// `dir`/`tcp_flags` step the slot's TCP tracker (when it has one),
    /// which may migrate the flow between timeout classes; UDP slots
    /// ignore them (pass `tcp_flags == 0`).
    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8);

    /// Reserve a slot for a new flow whose internal key hashes to
    /// `fid_hash`, stamped `now`. Returns the *global* slot, or `None`
    /// when the routed shard is full (for the unsharded table: when the
    /// table is full — the hash is ignored).
    ///
    /// Contract (P4, as for [`crate::env::NatEnv::allocate_slot`]): the
    /// caller must follow up with [`FlowTable::insert_hashed`] for the
    /// same slot with a flow id hashing to `fid_hash`, on the same
    /// iteration.
    fn allocate_slot_routed(&mut self, fid_hash: u64, now: Time) -> Option<usize>;

    /// The pool endpoint owned by (global) slot `slot` — the
    /// `(ext_ip, ext_port)` a flow inserted there must carry. With a
    /// single-address pool this is `(external_ip, start_port + slot)`.
    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16);

    /// (Global) slot `slot`'s port offset within its pool address — the
    /// `offset` the loop body feeds into `ext_port = start_port +
    /// offset` ([`crate::env::NatEnv::allocate_slot`]). Equals the slot
    /// index itself with a single-address pool.
    fn port_offset_of_slot(&self, slot: usize) -> u16;

    /// Populate a reserved slot; `fid_hash == fid.key_hash()`, and
    /// `(ext_ip, ext_port) == endpoint_of_slot(slot)` (globally).
    /// `tcp_flags` seeds the TCP tracker for TCP flows
    /// ([`vig_spec::tcp::initial_state`]); ignored for UDP.
    fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    );

    /// Assert the table's cross-structure coherence invariant
    /// (test/diagnostic use; O(capacity)).
    fn check_coherence(&self) -> Result<(), String>;
}

/// The NAT's flow table + expiry machinery. See module docs.
#[derive(Debug, Clone)]
pub struct FlowManager {
    table: DoubleMap<Flow>,
    /// Slot allocator and expiry order: one list on a homogeneous
    /// config, one per [`TimeoutClass`] (tagged `TimeoutClass::index()`)
    /// otherwise.
    chain: DoubleChain,
    /// Per-slot TCP tracker state; `None` for UDP flows (and for free
    /// slots — stale values are overwritten on insert, never read).
    tcp_state: Vec<Option<TcpState>>,
    /// The *global* pool configuration the endpoint mapping runs on.
    cfg: NatConfig,
    /// This table's first global slot (0 standalone; `s * per_shard`
    /// for shard `s` of a sharded table).
    slot_base: usize,
    capacity: usize,
    /// High-water mark of the stamps taken: the monotone clock the
    /// chain's sorted lists rest on.
    clock_high: Time,
    /// Stamps that arrived behind `clock_high` and were clamped to it.
    clock_regressions: u64,
    /// Reusable slot buffer for [`FlowTable::probe_internal_batch`].
    probe_slots: Vec<Option<usize>>,
}

impl FlowManager {
    /// Preallocate for `cfg.capacity` flows. Panics if the configuration
    /// violates [`crate::loop_body::check_config`] — a start-up error,
    /// never a datapath one.
    pub fn new(cfg: &NatConfig) -> FlowManager {
        FlowManager::for_shard(cfg, cfg.capacity, 0)
    }

    /// A flow manager owning the `capacity` global slots starting at
    /// `slot_base` of `cfg`'s pool — the shard constructor
    /// ([`crate::sharded::ShardedFlowManager`] builds one per shard;
    /// standalone tables use `slot_base == 0` and the full capacity).
    pub fn for_shard(cfg: &NatConfig, capacity: usize, slot_base: usize) -> FlowManager {
        crate::loop_body::check_config(cfg).expect("invalid NAT configuration");
        assert!(
            slot_base + capacity <= cfg.capacity,
            "shard slots {slot_base}..{} exceed pool capacity {}",
            slot_base + capacity,
            cfg.capacity
        );
        let lists = if cfg.is_homogeneous() {
            1
        } else {
            TimeoutClass::ALL.len()
        };
        FlowManager {
            table: DoubleMap::new(capacity),
            chain: DoubleChain::with_lists(capacity, lists),
            tcp_state: vec![None; capacity],
            cfg: *cfg,
            slot_base,
            capacity,
            clock_high: Time::ZERO,
            clock_regressions: 0,
            probe_slots: Vec::new(),
        }
    }

    /// Discard every flow and rebuild this table empty, keeping its
    /// identity (config, slot range). The supervisor's recovery
    /// primitive: after a worker panic the shard's state is suspect —
    /// mid-batch, any subset of table/chain updates may have landed — so
    /// the restarted worker starts from the one state whose invariants
    /// are trivially re-established, the empty table. Equivalent to (and
    /// implemented as) constructing a fresh [`FlowManager::for_shard`]
    /// with the stored parameters.
    pub fn reset(&mut self) {
        *self = FlowManager::for_shard(&self.cfg, self.capacity, self.slot_base);
    }

    /// The stamp to record for an event at `now`: `now` itself, or the
    /// clock high-water mark if `now` is behind it (counted in
    /// [`FlowManager::clock_regressions`]). Every driver feeds a
    /// monotone clock; this keeps the lists sorted if one does not.
    #[inline]
    fn stamp(&mut self, now: Time) -> Time {
        if now < self.clock_high {
            self.clock_regressions += 1;
            self.clock_high
        } else {
            self.clock_high = now;
            now
        }
    }

    /// How many stamps arrived behind the clock high-water mark and
    /// were clamped to it.
    pub fn clock_regressions(&self) -> u64 {
        self.clock_regressions
    }

    /// The chain list flows of `class` live on.
    fn list_of(&self, class: TimeoutClass) -> usize {
        if self.chain.lists() == 1 {
            0
        } else {
            class.index()
        }
    }

    /// Flow count.
    pub fn len(&self) -> usize {
        self.table.size()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the table is full.
    pub fn is_full(&self) -> bool {
        self.chain.is_full()
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The external port assigned to (local) slot `i`.
    pub fn port_of_slot(&self, slot: usize) -> u16 {
        debug_assert!(slot < self.capacity);
        self.cfg.ext_port_of_slot(self.slot_base + slot)
    }

    /// The pool address assigned to (local) slot `i`.
    pub fn ip_of_slot(&self, slot: usize) -> Ip4 {
        debug_assert!(slot < self.capacity);
        self.cfg.ext_ip_of_slot(self.slot_base + slot)
    }

    /// Slot `i`'s port offset within its pool address — the `offset`
    /// of the loop body's `ext_port = start_port + offset` (equals the
    /// global slot index with a single-address pool).
    pub fn port_offset_of_slot(&self, slot: usize) -> u16 {
        debug_assert!(slot < self.capacity);
        ((self.slot_base + slot) % self.cfg.ports_per_ip()) as u16
    }

    /// Expire due flows. Returns how many were removed.
    ///
    /// `threshold` is what the loop body computes: `now -
    /// min_lifetime_ns()`. On a homogeneous config that *is* the
    /// paper's `last_active <= threshold` test on the paper's chain. On
    /// a per-class config the manager reconstructs `now` and merges the
    /// class lists (module docs) — a flow is due iff `last_active +
    /// lifetime(class) <= now`.
    pub fn expire(&mut self, threshold: Time) -> usize {
        if self.chain.lists() == 1 {
            return expirator::expire_items(&mut self.chain, &mut self.table, threshold);
        }
        let now = Time(threshold.nanos().saturating_add(self.cfg.min_lifetime_ns()));
        let lifetimes = self.lifetimes();
        expirator::expire_items_classed(&mut self.chain, &mut self.table, &lifetimes, now)
    }

    /// Per-class lifetimes, indexed by `TimeoutClass::index()`.
    fn lifetimes(&self) -> [u64; 3] {
        let mut out = [0u64; 3];
        for c in TimeoutClass::ALL {
            out[c.index()] = self.cfg.lifetime_ns(c);
        }
        out
    }

    /// Find a flow by its internal 5-tuple.
    pub fn lookup_internal(&self, fid: &FlowId) -> Option<(usize, &Flow)> {
        self.lookup_internal_hashed(fid, fid.key_hash())
    }

    /// [`FlowManager::lookup_internal`] with a caller-computed hash
    /// (`hash == fid.key_hash()`). The environments hash each packet's
    /// `FlowId` exactly once and reuse it here and in
    /// [`FlowManager::insert_hashed`].
    pub fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, &Flow)> {
        let slot = self.table.get_by_a_with_hash(fid, hash)?;
        self.table.get(slot).map(|f| (slot, f))
    }

    /// Resolve a burst of internal-key lookups with one batched
    /// directory probe ([`libvig::DoubleMap::lookup_batch`]), appending
    /// `(slot, flow)` per query to `out` in query order. `hashes[i]`
    /// must equal `fids[i].key_hash()`. `slots_scratch` is a reusable
    /// buffer (cleared here) so steady-state bursts allocate nothing.
    pub fn lookup_internal_batch(
        &self,
        fids: &[FlowId],
        hashes: &[u64],
        slots_scratch: &mut Vec<Option<usize>>,
        out: &mut Vec<Option<(usize, Flow)>>,
    ) {
        slots_scratch.clear();
        self.table.lookup_batch(fids, hashes, slots_scratch);
        out.extend(
            slots_scratch
                .iter()
                .map(|s| s.and_then(|slot| self.table.get(slot).map(|f| (slot, *f)))),
        );
    }

    /// Find a flow by its external key.
    pub fn lookup_external(&self, ek: &ExtKey) -> Option<(usize, &Flow)> {
        self.lookup_external_hashed(ek, ek.key_hash())
    }

    /// [`FlowManager::lookup_external`] with a caller-computed hash
    /// (`hash == ek.key_hash()`).
    pub fn lookup_external_hashed(&self, ek: &ExtKey, hash: u64) -> Option<(usize, &Flow)> {
        let slot = self.table.get_by_b_with_hash(ek, hash)?;
        self.table.get(slot).map(|f| (slot, f))
    }

    /// Refresh a flow's activity timestamp without stepping its TCP
    /// tracker (equivalent to [`FlowManager::rejuvenate_with`] with an
    /// empty flag set, which transitions no state).
    ///
    /// Precondition (P4, validated by the Vigor pipeline): `slot` was
    /// returned by a lookup on this same iteration, hence allocated.
    pub fn rejuvenate(&mut self, slot: usize, now: Time) {
        self.rejuvenate_with(slot, now, Direction::Internal, 0);
    }

    /// Refresh a flow's activity timestamp and step its TCP tracker
    /// with a segment's flags from `dir`. A state change can migrate
    /// the flow between timeout classes; either way it moves to the
    /// tail of its class's list.
    ///
    /// Precondition (P4) as for [`FlowManager::rejuvenate`].
    pub fn rejuvenate_with(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8) {
        let now = self.stamp(now);
        let class = match self.tcp_state[slot] {
            Some(st) => {
                let next = transition(st, dir, tcp_flags);
                self.tcp_state[slot] = Some(next);
                next.class()
            }
            None => TimeoutClass::Udp,
        };
        let list = self.list_of(class);
        let ok = self.chain.rejuvenate_into(slot, list, now);
        debug_assert!(ok, "rejuvenate of unallocated slot {slot}");
    }

    /// The TCP tracker state of an occupied slot (`None` for UDP
    /// flows). Diagnostic/test accessor.
    pub fn tcp_state_of(&self, slot: usize) -> Option<TcpState> {
        debug_assert!(self.chain.is_allocated(slot));
        self.tcp_state.get(slot).copied().flatten()
    }

    /// Reserve a slot for a new flow, stamped `now`. `None` when full.
    ///
    /// The caller must follow up with [`FlowManager::insert`] for the
    /// same slot (the loop body does; the Validator checks it).
    pub fn allocate_slot(&mut self, now: Time) -> Option<usize> {
        let now = self.stamp(now);
        self.chain.allocate(now).ok()
    }

    /// Populate a reserved slot.
    ///
    /// Preconditions (P4): `slot` freshly allocated and empty; `fid` not
    /// present; `(ext_ip, ext_port)` is the slot's pool endpoint.
    pub fn insert(&mut self, slot: usize, fid: FlowId, ext_ip: Ip4, ext_port: u16) {
        let hash = fid.key_hash();
        self.insert_hashed(slot, fid, ext_ip, ext_port, hash, 0);
    }

    /// [`FlowManager::insert`] with a caller-computed `FlowId` hash
    /// (`fid_hash == fid.key_hash()`): the lookup miss that precedes
    /// every insert already hashed the key, and this entry point reuses
    /// that work instead of hashing a second time. `tcp_flags` (the
    /// creating segment's flag byte; 0 for UDP) seeds the TCP tracker.
    pub fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    ) {
        debug_assert_eq!(
            ext_port,
            self.port_of_slot(slot),
            "slot/port bijection violated"
        );
        debug_assert_eq!(
            ext_ip,
            self.ip_of_slot(slot),
            "slot/address bijection violated"
        );
        let st = (fid.proto == Proto::Tcp).then(|| initial_state(tcp_flags));
        let flow = Flow {
            int_key: fid,
            ext_ip,
            ext_port,
        };
        let ok = self.table.put_with_hash(slot, flow, fid_hash);
        debug_assert!(ok.is_ok(), "insert into occupied slot {slot}");
        self.tcp_state[slot] = st;
        if self.chain.lists() > 1 {
            // `allocate_slot` put the slot on list 0 (same iteration,
            // P4); move it to its class's list, keeping that stamp.
            let stamp = self
                .chain
                .timestamp_of(slot)
                .expect("insert into unallocated slot");
            let list = self.list_of(class_of(fid.proto, st));
            self.chain.rejuvenate_into(slot, list, stamp);
        }
    }

    /// Convenience: allocate + insert in one step, returning the slot
    /// and the assigned external port (the slot's pool address is
    /// [`FlowManager::ip_of_slot`]). This is the API examples and
    /// baselines use; the verified loop body uses the two-step form to
    /// keep the port arithmetic in stateless code.
    pub fn allocate(&mut self, fid: FlowId, now: Time) -> Option<(usize, u16)> {
        if self.lookup_internal(&fid).is_some() {
            return None; // caller error: flow exists (precondition)
        }
        let slot = self.allocate_slot(now)?;
        let port = self.port_of_slot(slot);
        let ip = self.ip_of_slot(slot);
        self.insert(slot, fid, ip, port);
        Some((slot, port))
    }

    /// Probe length of an internal-key lookup in the flow directory —
    /// how many positions the tag-probed walk traverses for `fid`
    /// (hit or miss). Diagnostic for the occupancy benchmarks and the
    /// high-occupancy equivalence suite; the datapath never calls it.
    pub fn internal_probe_len(&self, fid: &FlowId) -> usize {
        self.table.probe_len_by_a(fid)
    }

    /// Iterate over live flows (slot, flow, last_active): each class
    /// list oldest-first, class by class (on a homogeneous config, the
    /// one list, oldest first). For tests and statistics; the datapath
    /// never scans.
    pub fn iter_lru(&self) -> impl Iterator<Item = (usize, &Flow, Time)> + '_ {
        self.chain
            .iter_lru()
            .filter_map(move |(slot, t)| self.table.get(slot).map(|f| (slot, f, t)))
    }

    /// Assert the cross-structure coherence invariant. Test/diagnostic
    /// use; O(capacity).
    pub fn check_coherence(&self) -> Result<(), String> {
        if self.table.size() != self.chain.size() {
            return Err(format!(
                "size mismatch: dmap {} vs dchain {}",
                self.table.size(),
                self.chain.size()
            ));
        }
        // Both flow directories' tag-group control words must project
        // the slots exactly — expiry and slot realloc go through
        // erase/put, which maintain them.
        self.table.check_directory_coherence()?;
        for list in 0..self.chain.lists() {
            let mut prev = Time::ZERO;
            for (slot, t) in self.chain.iter_list(list) {
                if t < prev {
                    return Err(format!(
                        "list {list}: slot {slot} stamped {t:?} after {prev:?}"
                    ));
                }
                prev = t;
            }
        }
        for slot in 0..self.capacity {
            let in_map = self.table.get(slot).is_some();
            let in_chain = self.chain.is_allocated(slot);
            if in_map != in_chain {
                return Err(format!("slot {slot}: dmap={in_map} dchain={in_chain}"));
            }
            if let Some(f) = self.table.get(slot) {
                // TCP tracker coherence: tracked iff TCP, and the slot
                // sits on its tracker class's list.
                if self.tcp_state[slot].is_some() != (f.int_key.proto == Proto::Tcp) {
                    return Err(format!(
                        "slot {slot}: tcp_state {:?} for proto {:?}",
                        self.tcp_state[slot], f.int_key.proto
                    ));
                }
                let want = self.list_of(class_of(f.int_key.proto, self.tcp_state[slot]));
                if self.chain.list_of(slot) != Some(want) {
                    return Err(format!(
                        "slot {slot}: on list {:?}, tracker class wants list {want}",
                        self.chain.list_of(slot)
                    ));
                }
                if f.ext_port != self.port_of_slot(slot) {
                    return Err(format!(
                        "slot {slot}: ext_port {} != pool port {}",
                        f.ext_port,
                        self.port_of_slot(slot)
                    ));
                }
                if f.ext_ip != self.ip_of_slot(slot) {
                    return Err(format!(
                        "slot {slot}: ext_ip {} != pool address {}",
                        f.ext_ip,
                        self.ip_of_slot(slot)
                    ));
                }
            }
        }
        Ok(())
    }
}

impl FlowTable for FlowManager {
    fn flow_count(&self) -> usize {
        self.len()
    }

    fn table_capacity(&self) -> usize {
        self.capacity()
    }

    fn expire(&mut self, threshold: Time) -> usize {
        FlowManager::expire(self, threshold)
    }

    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, &Flow)> {
        FlowManager::lookup_internal_hashed(self, fid, hash)
    }

    fn probe_internal_batch(
        &mut self,
        fids: &[FlowId],
        hashes: &[u64],
        out: &mut Vec<Option<(usize, Flow)>>,
    ) {
        // Detach the scratch so the `&self` batch probe can run while
        // we hold it mutably; reattach afterwards (no allocation in
        // steady state).
        let mut slots = std::mem::take(&mut self.probe_slots);
        self.lookup_internal_batch(fids, hashes, &mut slots, out);
        self.probe_slots = slots;
    }

    fn lookup_external_hashed(&self, ek: &ExtKey, hash: u64) -> Option<(usize, &Flow)> {
        FlowManager::lookup_external_hashed(self, ek, hash)
    }

    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8) {
        FlowManager::rejuvenate_with(self, slot, now, dir, tcp_flags);
    }

    fn allocate_slot_routed(&mut self, _fid_hash: u64, now: Time) -> Option<usize> {
        // Unsharded: one port pool, the hash plays no routing role.
        self.allocate_slot(now)
    }

    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16) {
        (self.ip_of_slot(slot), self.port_of_slot(slot))
    }

    fn port_offset_of_slot(&self, slot: usize) -> u16 {
        FlowManager::port_offset_of_slot(self, slot)
    }

    fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    ) {
        FlowManager::insert_hashed(self, slot, fid, ext_ip, ext_port, fid_hash, tcp_flags);
    }

    fn check_coherence(&self) -> Result<(), String> {
        FlowManager::check_coherence(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vig_packet::{Ip4, Proto};

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 4,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn fid(h: u8, p: u16) -> FlowId {
        FlowId {
            src_ip: Ip4::new(192, 168, 0, h),
            src_port: p,
            dst_ip: Ip4::new(8, 8, 8, 8),
            dst_port: 53,
            proto: Proto::Udp,
        }
    }

    #[test]
    fn allocate_assigns_bijective_ports() {
        let mut fm = FlowManager::new(&cfg());
        let mut ports = std::collections::HashSet::new();
        for h in 0..4 {
            let (slot, port) = fm.allocate(fid(h, 100), Time::from_secs(1)).unwrap();
            assert_eq!(port, 1000 + slot as u16);
            assert!(ports.insert(port));
        }
        assert!(fm.is_full());
        assert_eq!(fm.allocate(fid(9, 100), Time::from_secs(1)), None);
        fm.check_coherence().unwrap();
    }

    #[test]
    fn lookup_both_directions() {
        let mut fm = FlowManager::new(&cfg());
        let (slot, port) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        let (s2, f) = fm.lookup_internal(&fid(1, 100)).unwrap();
        assert_eq!(s2, slot);
        let ek = f.ext_key();
        assert_eq!(ek.ext_port, port);
        let (s3, _) = fm.lookup_external(&ek).unwrap();
        assert_eq!(s3, slot);
    }

    #[test]
    fn expiry_respects_rejuvenation() {
        let mut fm = FlowManager::new(&cfg());
        let (a, _) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        fm.allocate(fid(2, 100), Time::from_secs(2)).unwrap();
        fm.rejuvenate(a, Time::from_secs(5));
        // threshold 2: only flow 2 (stamped 2s) dies; flow 1 was refreshed.
        assert_eq!(fm.expire(Time::from_secs(2)), 1);
        assert!(fm.lookup_internal(&fid(1, 100)).is_some());
        assert!(fm.lookup_internal(&fid(2, 100)).is_none());
        fm.check_coherence().unwrap();
    }

    #[test]
    fn expired_slot_reuses_same_port() {
        let mut fm = FlowManager::new(&cfg());
        let (slot, port) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        fm.expire(Time::from_secs(1));
        let (slot2, port2) = fm.allocate(fid(2, 200), Time::from_secs(2)).unwrap();
        assert_eq!(slot2, slot, "LIFO free list reuses the slot");
        assert_eq!(port2, port, "and therefore the port");
        fm.check_coherence().unwrap();
    }

    #[test]
    fn duplicate_allocate_is_rejected() {
        let mut fm = FlowManager::new(&cfg());
        fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.allocate(fid(1, 100), Time::from_secs(2)), None);
        assert_eq!(fm.len(), 1);
    }

    fn classed_cfg() -> NatConfig {
        NatConfig {
            capacity: 8,
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(30).nanos(),
            ..cfg()
        }
    }

    fn tcp_fid(h: u8, p: u16) -> FlowId {
        FlowId {
            proto: Proto::Tcp,
            ..fid(h, p)
        }
    }

    #[test]
    fn heterogeneous_config_selects_per_class_engines() {
        // One chain list per timeout class...
        let fm = FlowManager::new(&classed_cfg());
        assert_eq!(fm.chain.lists(), TimeoutClass::ALL.len());
        // ...while a homogeneous config keeps the paper's single chain.
        let fm = FlowManager::new(&cfg());
        assert_eq!(fm.chain.lists(), 1);
    }

    #[test]
    fn established_outlives_transitory_and_udp() {
        use vig_packet::tcp::flags;
        let c = classed_cfg();
        let mut fm = FlowManager::new(&c);
        // Half-open TCP (created by a SYN), established TCP (created by
        // a bare-ACK mid-stream pickup), and a UDP flow.
        let f1 = tcp_fid(1, 100);
        let half = fm.allocate_slot(Time::from_secs(1)).unwrap();
        let (ip, port) = (fm.ip_of_slot(half), fm.port_of_slot(half));
        fm.insert_hashed(half, f1, ip, port, f1.key_hash(), flags::SYN);
        assert_eq!(fm.tcp_state_of(half), Some(TcpState::SynSent));
        let (est, _) = fm.allocate(tcp_fid(2, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(est), Some(TcpState::Established));
        let (udp, _) = fm.allocate(fid(3, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(udp), None);
        fm.check_coherence().unwrap();
        // The loop body's threshold at t is `t - min_lifetime` (2s).
        // t=4s: the half-open flow (2s lifetime, stamped 1s) is due.
        assert_eq!(fm.expire(Time::from_secs(2)), 1);
        assert!(fm.lookup_internal(&tcp_fid(1, 100)).is_none());
        // t=12s: the UDP flow (10s) dies, established survives.
        assert_eq!(fm.expire(Time::from_secs(10)), 1);
        assert!(fm.lookup_internal(&fid(3, 100)).is_none());
        assert!(fm.lookup_internal(&tcp_fid(2, 100)).is_some());
        // t=31s: the established flow (30s) finally dies.
        assert_eq!(fm.expire(Time::from_secs(29)), 1);
        assert!(fm.is_empty());
        fm.check_coherence().unwrap();
    }

    #[test]
    fn rst_demotes_established_to_transitory() {
        use vig_packet::tcp::flags;
        let mut fm = FlowManager::new(&classed_cfg());
        let (slot, _) = fm.allocate(tcp_fid(1, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(slot), Some(TcpState::Established));
        fm.rejuvenate_with(slot, Time::from_secs(5), Direction::External, flags::RST);
        assert_eq!(fm.tcp_state_of(slot), Some(TcpState::Closed));
        fm.check_coherence().unwrap();
        // Now on the 2s transitory timer: dead by t=8s.
        assert_eq!(fm.expire(Time::from_secs(6)), 1);
        assert!(fm.is_empty());
    }

    /// Live flows as `(ext_port, last_active, tcp_state)`, by port.
    fn live(fm: &FlowManager) -> Vec<(u16, Time, Option<TcpState>)> {
        let mut v: Vec<_> = fm
            .iter_lru()
            .map(|(slot, f, t)| (f.ext_port, t, fm.tcp_state_of(slot)))
            .collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    fn live_spec(spec: &vig_spec::AbstractNat) -> Vec<(u16, Time, Option<TcpState>)> {
        let mut v: Vec<_> = spec
            .flows()
            .iter()
            .map(|f| (f.ext_port, f.last_active, f.tcp_state))
            .collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// One rejuvenate/expire trace on a per-class config, checked step
    /// by step against the spec's `AbstractNat`: expired counts and the
    /// live flows (stamps and tracker states) agree after every expiry.
    #[test]
    fn per_class_lists_match_the_spec() {
        use vig_packet::tcp::flags;
        let c = classed_cfg();
        let mut fm = FlowManager::new(&c);
        let mut spec = vig_spec::AbstractNat::new(c);
        let mk = |i: u8| {
            if i.is_multiple_of(2) {
                fid(i, 100)
            } else {
                tcp_fid(i, 100)
            }
        };
        let mut now = Time::ZERO;
        for i in 0..6u8 {
            now = now.plus(500_000_000);
            let (slot, port) = fm.allocate(mk(i), now).unwrap();
            spec.insert(mk(i), fm.ip_of_slot(slot), port, now).unwrap();
        }
        let refresh = |fm: &mut FlowManager, spec: &mut vig_spec::AbstractNat, i: u8, now, fl| {
            if let Some((slot, _)) = fm.lookup_internal(&mk(i)) {
                fm.rejuvenate_with(slot, now, Direction::Internal, fl);
                assert!(spec.refresh_with(&mk(i), now, Direction::Internal, fl));
            }
        };
        // Steer the TCP flows through distinct states.
        for (i, fl) in [(1u8, flags::SYN), (3, flags::FIN), (5, flags::ACK)] {
            now = now.plus(100_000_000);
            refresh(&mut fm, &mut spec, i, now, fl);
        }
        for step in 0..40u64 {
            now = now.plus(1_000_000_000);
            let n = fm.expire(now.minus(c.min_lifetime_ns()));
            assert_eq!(n, spec.expire_flows(now).len(), "step {step}");
            fm.check_coherence().unwrap();
            assert_eq!(live(&fm), live_spec(&spec), "step {step}");
            if step % 7 == 0 {
                refresh(&mut fm, &mut spec, 5, now, flags::ACK);
            }
        }
    }

    /// The release-mode clock invariant: one stamp behind the high-water
    /// mark is clamped to it and counted, the lists stay sorted, and
    /// expiry and slot reuse match a run fed the clamped stamp itself.
    #[test]
    fn backward_stamp_is_clamped_and_counted() {
        let c = classed_cfg();
        let run = |third: Time| {
            let mut fm = FlowManager::new(&c);
            fm.allocate(tcp_fid(1, 100), Time::from_secs(1)).unwrap();
            fm.allocate(fid(2, 100), Time::from_secs(3)).unwrap();
            fm.allocate(fid(3, 100), third).unwrap();
            fm.check_coherence().unwrap();
            let mut log = Vec::new();
            for t in [12u64, 13, 30, 31, 40] {
                let thr = Time::from_secs(t).minus(c.min_lifetime_ns());
                log.push(fm.expire(thr));
                fm.check_coherence().unwrap();
            }
            let mut i = 10u8;
            while let Some((slot, _)) = fm.allocate(fid(i, 200), Time::from_secs(40)) {
                log.push(slot);
                i += 1;
            }
            (fm.clock_regressions(), log)
        };
        let (regressions, log) = run(Time::from_secs(2));
        let (reference_regressions, reference) = run(Time::from_secs(3));
        assert_eq!(regressions, 1);
        assert_eq!(reference_regressions, 0);
        assert_eq!(log, reference);
    }

    proptest! {
        /// Coherence holds under arbitrary interleavings of allocate,
        /// rejuvenate (via lookup), and expiry.
        #[test]
        fn coherence_under_random_ops(
            ops in proptest::collection::vec((0u8..3, 0u8..6, 1u64..30), 0..120),
        ) {
            let mut fm = FlowManager::new(&cfg());
            let mut now = Time::ZERO;
            for (kind, host, dt) in ops {
                now = now.plus(dt * 1_000_000_000);
                match kind {
                    0 => {
                        if fm.lookup_internal(&fid(host, 100)).is_none() {
                            fm.allocate(fid(host, 100), now);
                        }
                    }
                    1 => {
                        if let Some((slot, _)) = fm.lookup_internal(&fid(host, 100)) {
                            fm.rejuvenate(slot, now);
                        }
                    }
                    _ => {
                        let thr = now.minus(10_000_000_000);
                        fm.expire(thr);
                    }
                }
                prop_assert!(fm.check_coherence().is_ok());
            }
        }
    }
}
