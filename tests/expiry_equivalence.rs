//! Differential proof that list expiry implements the spec's expiry
//! rule: a flow is dead once `last_active + lifetime(class) <= now`.
//! The dchain keeps one LRU list per timeout class (one list on a
//! homogeneous config) and expiry merges the list heads; here that
//! engine is run against models that share none of its structure:
//!
//! * the spec's `AbstractNat` (a flat flow list, expired by filtering)
//!   at small capacity;
//! * a last-activity `HashMap` applying the same rule at 64k and 1M
//!   flows.
//!
//! Four angles, each on the paper's homogeneous config and on a
//! per-class TCP config (transitory shorter and established longer
//! than UDP):
//!
//! 1. **adversarial proptest schedules** — bursty arrivals, refresh
//!    storms on a handful of flows, big time jumps, and churn at the
//!    capacity edge, with full-state comparison after every operation;
//! 2. **exhaustive small-capacity suite** — every schedule of length 6
//!    over a 5-op alphabet at capacity 2 (15 625 runs per config);
//! 3. **boundary semantics** — for every class, `last_active +
//!    lifetime == now` expires (inclusive), one tick earlier survives,
//!    and a refresh moves the boundary;
//! 4. **scale** — the full middlebox (frames in, frames out) against
//!    the spec model, with FNV fingerprints of verdicts, TX bytes,
//!    expiry totals and slot-reuse order pinned to the values recorded
//!    before the list engine replaced the timer wheel; and the sharded
//!    table at 2^16 and 2^20 flows across 1/2/4 shards. The 2^20 run is
//!    `#[ignore]`d and runs in the release `nightly-deep` CI job
//!    (`--ignored million`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowManager, FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::builder::PacketBuilder;
use vignat_repro::packet::tcp::flags;
use vignat_repro::packet::{Direction, ExtKey, FlowId, Ip4, Proto};
use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};
use vignat_repro::spec::tcp::{class_of, initial_state, transition};
use vignat_repro::spec::{AbstractNat, TcpState};

fn cfg(capacity: usize, expiry_ns: u64) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns,
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1024,
        ..NatConfig::paper_default()
    }
}

/// `c` with per-class lifetimes: TCP transitory half of UDP's,
/// established three times it.
fn classed(c: NatConfig) -> NatConfig {
    NatConfig {
        tcp_transitory_ns: c.expiry_ns / 2,
        tcp_established_ns: c.expiry_ns * 3,
        ..c
    }
}

/// Distinct internal flows for up to 2^24 indices; odd indices are TCP
/// when `tcp` is set.
fn flow(i: u32, tcp: bool) -> FlowId {
    FlowId {
        src_ip: Ip4(0x0a00_0000 | (i & 0x00ff_ffff)),
        src_port: 10_000 ^ (i >> 24) as u16,
        dst_ip: Ip4::new(1, 1, 1, 1),
        dst_port: 80,
        proto: if tcp && i % 2 == 1 {
            Proto::Tcp
        } else {
            Proto::Udp
        },
    }
}

/// Flag mixes that walk the tracker through every timeout class.
const TCP_FLAGS: [u8; 6] = [
    flags::SYN,
    flags::ACK,
    flags::SYN | flags::ACK,
    flags::FIN | flags::ACK,
    flags::RST,
    flags::ACK | flags::FIN,
];

/// The table's threshold for `now`, as the loop body computes it.
fn threshold(c: &NatConfig, now: Time) -> Time {
    Time(now.nanos().saturating_sub(c.min_lifetime_ns()))
}

/// Live flows as `(ext_port, flow, last_active, tcp_state)`, by port.
type Live = Vec<(u16, FlowId, Time, Option<TcpState>)>;

fn live(fm: &FlowManager) -> Live {
    fm.check_coherence().expect("coherence");
    let mut v: Live = fm
        .iter_lru()
        .map(|(s, f, t)| (f.ext_port, f.int_key, t, fm.tcp_state_of(s)))
        .collect();
    v.sort_unstable_by_key(|e| e.0);
    v
}

fn live_spec(spec: &AbstractNat) -> Live {
    let mut v: Live = spec
        .flows()
        .iter()
        .map(|f| (f.ext_port, f.fid, f.last_active, f.tcp_state))
        .collect();
    v.sort_unstable_by_key(|e| e.0);
    v
}

/// A `FlowManager` and the spec's `AbstractNat` driven in lockstep.
struct Pair {
    fm: FlowManager,
    spec: AbstractNat,
    c: NatConfig,
    now: Time,
}

impl Pair {
    fn new(c: NatConfig) -> Pair {
        Pair {
            fm: FlowManager::new(&c),
            spec: AbstractNat::new(c),
            c,
            now: Time::from_secs(1),
        }
    }

    /// A packet of flow `i` carrying `fl` arrives: refresh on hit,
    /// allocate on miss. Hit/miss and fullness must agree with the spec.
    fn arrive(&mut self, i: u32, fl: u8) {
        let f = flow(i, !self.c.is_homogeneous());
        let hit = self.fm.lookup_internal(&f).map(|(s, _)| s);
        assert_eq!(
            hit.is_some(),
            self.spec.lookup_internal(&f).is_some(),
            "hit/miss diverged for flow {i}"
        );
        let dir = Direction::Internal;
        if let Some(slot) = hit {
            self.fm.rejuvenate_with(slot, self.now, dir, fl);
            self.spec.refresh_with(&f, self.now, dir, fl);
        } else if let Some(slot) = self.fm.allocate_slot(self.now) {
            let (ip, port) = (self.fm.ip_of_slot(slot), self.fm.port_of_slot(slot));
            self.fm.insert_hashed(slot, f, ip, port, f.key_hash(), fl);
            self.spec
                .insert_with_flags(f, ip, port, self.now, fl)
                .expect("the spec accepts the table's endpoint");
        } else {
            assert!(self.spec.is_full(), "table full below capacity");
        }
    }

    fn advance(&mut self, ns: u64) {
        self.now = self.now.plus(ns);
    }

    /// Expire at the NAT's threshold; counts must match the spec's.
    fn expire(&mut self) -> usize {
        let n = self.fm.expire(threshold(&self.c, self.now));
        let dead = self.spec.expire_flows(self.now).len();
        assert_eq!(n, dead, "expiry count diverged at {:?}", self.now);
        n
    }

    fn assert_equal(&self) {
        assert_eq!(live(&self.fm), live_spec(&self.spec));
    }

    /// Refill the table from its free list: every free slot hands out
    /// an endpoint the spec accepts, and the table fills exactly.
    fn assert_refill(&mut self) {
        let mut k = 0;
        while !self.fm.is_full() {
            self.arrive(0x0080_0000 + 2 * k, 0);
            k += 1;
        }
        assert!(self.spec.is_full());
        self.assert_equal();
    }
}

proptest! {
    /// Angle 1: adversarial schedules at capacity 8 with flows drawn
    /// from a 24-id population (3× capacity — constant churn at the
    /// table-full edge), refresh storms (many arrivals collapse onto
    /// the same ids), sub-Texp steps and 10× jumps, with expiry and a
    /// full-state comparison after every single operation.
    #[test]
    fn lists_equal_spec_under_adversarial_schedules(
        ops in proptest::collection::vec((0u8..10, 0u32..24, 1u64..2_500), 1..120),
    ) {
        for c in [cfg(8, 1_000), classed(cfg(8, 1_000))] {
            let mut pair = Pair::new(c);
            for &(kind, idx, step) in &ops {
                match kind {
                    0..=5 => pair.arrive(idx, TCP_FLAGS[step as usize % TCP_FLAGS.len()]),
                    6 | 7 => pair.advance(step),
                    8 => pair.advance(step * 10), // time jump past many Texp
                    _ => { pair.expire(); }
                }
                pair.expire();
                pair.assert_equal();
            }
            pair.assert_refill();
        }
    }
}

/// Angle 2: exhaustive small-capacity suite — all 5^6 schedules over
/// {arrive(0), arrive(1), arrive(2), step+expire, jump+expire} at
/// capacity 2 (three flows fighting for two slots), state compared
/// after every op of every schedule. On the per-class config flow 1 is
/// TCP, and its flags vary with the op's position.
#[test]
fn lists_equal_spec_exhaustive_small_capacity() {
    const OPS: u32 = 5;
    const LEN: u32 = 6;
    for c in [cfg(2, 1_000), classed(cfg(2, 1_000))] {
        for mut code in 0..OPS.pow(LEN) {
            let mut pair = Pair::new(c);
            for pos in 0..LEN {
                let fl = TCP_FLAGS[pos as usize % TCP_FLAGS.len()];
                match code % OPS {
                    i @ 0..=2 => pair.arrive(i, fl),
                    3 => pair.advance(400),   // sub-Texp step
                    _ => pair.advance(1_100), // > Texp: mass expiry
                }
                code /= OPS;
                pair.expire();
                pair.assert_equal();
            }
        }
    }
}

/// Angle 3: the `dchain::expire_one` boundary, for every class of both
/// configs: `last_active + lifetime == now` is expired (inclusive), one
/// tick earlier survives, and a refresh moves the boundary.
#[test]
fn boundary_semantics_shared_by_both_configs() {
    for c in [cfg(4, 1_000), classed(cfg(4, 1_000))] {
        // A UDP flow, a half-open TCP flow, and an established one.
        for (i, fl) in [(0u32, 0u8), (1, flags::SYN), (3, flags::ACK)] {
            let mut pair = Pair::new(c);
            let f = flow(i, !c.is_homogeneous());
            let st = (f.proto == Proto::Tcp).then(|| initial_state(fl));
            let class = class_of(f.proto, st);
            let lifetime = c.lifetime_ns(class);
            let start = pair.now;
            pair.arrive(i, fl);

            pair.now = start.plus(lifetime - 1);
            assert_eq!(pair.expire(), 0, "{class:?}: one tick young survives");
            pair.now = start.plus(lifetime);
            assert_eq!(pair.expire(), 1, "{class:?}: the deadline is inclusive");

            // Rejuvenation moves the boundary (an empty flag set steps
            // no tracker state, so the class holds).
            pair.arrive(i, fl);
            let born = pair.now;
            pair.advance(5);
            pair.arrive(i, 0);
            pair.now = born.plus(lifetime + 4);
            assert_eq!(pair.expire(), 0, "{class:?}: refresh must defer expiry");
            pair.now = born.plus(lifetime + 5);
            assert_eq!(pair.expire(), 1, "{class:?}: refreshed stamp is inclusive");
            assert!(pair.fm.is_empty());
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One packet of the middlebox churn schedule as `(arrival interface,
/// header fields, TCP flags)`: 3/4 internal traffic from 96 hosts × 2
/// ports, 1/4 return traffic at ports straddling the pool. With `tcp`,
/// half the packets are TCP with a random flag mix.
fn churn_packet(rng: &mut StdRng, tcp: bool) -> (Direction, FlowId, u8) {
    let (dir, src_ip, dst_ip, src_port, dst_port) = if rng.gen_bool(0.75) {
        let host = rng.gen_range(1..=96u8);
        let port = 1024 + u16::from(rng.gen_range(0..2u8));
        let (src, dst) = (Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1));
        (Direction::Internal, src, dst, port, 53)
    } else {
        let ext_port = 1000 + u16::from(rng.gen_range(0..120u8));
        let (src, dst) = (Ip4::new(1, 1, 1, 1), Ip4::new(10, 1, 0, 1));
        (Direction::External, src, dst, 53, ext_port)
    };
    let (proto, fl) = if tcp && rng.gen_bool(0.5) {
        (Proto::Tcp, TCP_FLAGS[rng.gen_range(0..TCP_FLAGS.len())])
    } else {
        (Proto::Udp, 0)
    };
    let fields = FlowId {
        src_ip,
        src_port,
        dst_ip,
        dst_port,
        proto,
    };
    (dir, fields, fl)
}

/// The spec's step for one packet after expiry: refresh or insert, and
/// the verdict the spec demands. An inserted flow takes the endpoint the
/// table chose.
fn spec_step(
    spec: &mut AbstractNat,
    nat: &VigNatMb,
    dir: Direction,
    f: FlowId,
    fl: u8,
    now: Time,
) -> Verdict {
    if dir == Direction::External {
        let ek = ExtKey {
            ext_ip: f.dst_ip,
            ext_port: f.dst_port,
            dst_ip: f.src_ip,
            dst_port: f.src_port,
            proto: f.proto,
        };
        return match spec.lookup_external(&ek).map(|m| m.fid) {
            Some(fid) => {
                spec.refresh_with(&fid, now, dir, fl);
                Verdict::Forward(Direction::Internal)
            }
            None => Verdict::Drop,
        };
    }
    if spec.refresh_with(&f, now, dir, fl) {
        return Verdict::Forward(Direction::External);
    }
    match nat.flow_manager().lookup_internal(&f) {
        Some((_, m)) => {
            spec.insert_with_flags(f, m.ext_ip, m.ext_port, now, fl)
                .expect("the spec accepts the table's endpoint");
            Verdict::Forward(Direction::External)
        }
        None => {
            assert!(spec.is_full(), "dropped a new flow below capacity");
            Verdict::Drop
        }
    }
}

/// Drive the middlebox through the churn schedule with the spec model
/// in lockstep: verdicts, expiry counts and the live flows must agree
/// after every packet. Returns the FNV fingerprint of the verdicts, TX
/// bytes, per-round expiry totals, and the slots handed out by refilling
/// the table at the end.
fn middlebox_churn(c: NatConfig, tcp: bool) -> u64 {
    let mut nat = VigNatMb::new(c);
    let mut spec = AbstractNat::new(c);
    let mut rng = StdRng::seed_from_u64(0x8EE1);
    let mut h = Fnv::new();
    let mut now = Time::from_secs(1);
    for round in 0..4_000 {
        now = now.plus(rng.gen_range(1_000_000..900_000_000));
        let (dir, f, fl) = churn_packet(&mut rng, tcp);
        let b = match f.proto {
            Proto::Tcp => {
                PacketBuilder::tcp(f.src_ip, f.dst_ip, f.src_port, f.dst_port).tcp_flags(fl)
            }
            Proto::Udp => PacketBuilder::udp(f.src_ip, f.dst_ip, f.src_port, f.dst_port),
        };
        let mut frame = b.build();
        let expired_before = nat.expired_total();
        let v = nat.process(dir, &mut frame, now);

        let dead = spec.expire_flows(now).len() as u64;
        assert_eq!(nat.expired_total() - expired_before, dead, "round {round}");
        let want = spec_step(&mut spec, &nat, dir, f, fl, now);
        assert_eq!(v, want, "verdict diverged in round {round}");
        assert_eq!(live(nat.flow_manager()), live_spec(&spec), "round {round}");

        h.u64(match v {
            Verdict::Drop => 0,
            Verdict::Forward(Direction::Internal) => 1,
            Verdict::Forward(Direction::External) => 2,
        });
        h.bytes(&frame);
        h.u64(nat.expired_total());
    }
    assert!(nat.expired_total() > 0, "the run must have raced expiry");
    let fm = nat.flow_manager_mut();
    let mut k = 0;
    while let Some((slot, _)) = fm.allocate(flow(0x0080_0000 + k, false), now) {
        h.u64(slot as u64);
        k += 1;
    }
    h.0
}

/// Angle 4a: the full middlebox — frames in, frames out — against the
/// spec over adversarial traffic with expiry-forcing time steps, on
/// both configs. The fingerprints were recorded on the timer-wheel
/// engine this suite replaced; matching them shows the list engine
/// changed no observable byte, slot-reuse order included.
#[test]
fn middlebox_parity_under_churn() {
    let c = cfg(64, Time::from_secs(2).nanos());
    assert_eq!(middlebox_churn(c, false), 0x237c_c34d_6b9b_752e);
    assert_eq!(middlebox_churn(classed(c), true), 0xfe13_f052_967d_3df2);
}

/// The last-activity model for the sharded runs: flow → (last_active,
/// tracker state, shard), expired by the spec rule.
struct Model {
    c: NatConfig,
    flows: HashMap<FlowId, (Time, Option<TcpState>, usize)>,
    per_shard: Vec<usize>,
}

impl Model {
    /// A packet of `f` carrying `fl` refreshes it at `now`; false if
    /// the flow is not live.
    fn refresh(&mut self, f: &FlowId, now: Time, fl: u8) -> bool {
        let Some(e) = self.flows.get_mut(f) else {
            return false;
        };
        *e = (
            now,
            e.1.map(|st| transition(st, Direction::Internal, fl)),
            e.2,
        );
        true
    }

    fn insert(&mut self, f: FlowId, now: Time, fl: u8, shard: usize) {
        let st = (f.proto == Proto::Tcp).then(|| initial_state(fl));
        self.flows.insert(f, (now, st, shard));
        self.per_shard[shard] += 1;
    }

    fn expire(&mut self, now: Time) -> usize {
        let c = self.c;
        let before = self.flows.len();
        self.flows.retain(|f, &mut (last, st, s)| {
            let dead = last.nanos() + c.lifetime_ns(class_of(f.proto, st)) <= now.nanos();
            if dead {
                self.per_shard[s] -= 1;
            }
            !dead
        });
        before - self.flows.len()
    }
}

/// A packet of flow `i` carrying `fl` reaches the sharded table and
/// the model: refresh on hit, allocate in the routed shard on miss.
fn sharded_arrive(t: &mut ShardedFlowManager, m: &mut Model, i: u32, now: Time, fl: u8) {
    let f = flow(i, !m.c.is_homogeneous());
    let h = f.key_hash();
    let hit = t.lookup_internal_hashed(&f, h).map(|(slot, _)| slot);
    assert_eq!(
        hit.is_some(),
        m.refresh(&f, now, fl),
        "hit/miss for flow {i}"
    );
    if let Some(slot) = hit {
        t.rejuvenate(slot, now, Direction::Internal, fl);
        return;
    }
    let s = t.shard_of_hash(h);
    match t.allocate_slot_routed(h, now) {
        Some(slot) => {
            let (ip, port) = t.endpoint_of_slot(slot);
            t.insert_hashed(slot, f, ip, port, h, fl);
            m.insert(f, now, fl, s);
        }
        None => assert_eq!(
            m.per_shard[s],
            t.per_shard_capacity(),
            "shard {s} full early"
        ),
    }
}

/// Drive churn waves through a sharded table and the model in lockstep;
/// state compared after every expiry.
fn sharded_churn(c: NatConfig, shards: usize, waves: usize, wave_flows: u32, seed: u64) {
    let mut t = ShardedFlowManager::new(&c, shards);
    let mut m = Model {
        c,
        flows: HashMap::new(),
        per_shard: vec![0; shards],
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Time::from_secs(1);
    let mut next_id = 0u32;
    let mut total_expired = 0usize;
    for wave in 0..waves {
        // Sustained arrivals: a fresh block of flows plus refreshes of
        // a random slice of the previous block (refresh storm).
        for i in next_id..next_id + wave_flows {
            now = now.plus(1_000);
            let fl = TCP_FLAGS[rng.gen_range(0..TCP_FLAGS.len())];
            sharded_arrive(&mut t, &mut m, i, now, fl);
        }
        next_id += wave_flows;
        let refresh_lo = next_id.saturating_sub(2 * wave_flows);
        for _ in 0..wave_flows / 2 {
            let i = rng.gen_range(refresh_lo..next_id);
            now = now.plus(100);
            let fl = TCP_FLAGS[rng.gen_range(0..TCP_FLAGS.len())];
            sharded_arrive(&mut t, &mut m, i, now, fl);
        }
        // Step the clock 0.5–3× Texp and expire both.
        now = now.plus(rng.gen_range(1_000_000_000..6_000_000_000));
        let n = FlowTable::expire(&mut t, threshold(&c, now));
        assert_eq!(
            n,
            m.expire(now),
            "expiry count in wave {wave} ({shards} shards)"
        );
        total_expired += n;
        FlowTable::check_coherence(&t).expect("coherence");
        assert_eq!(
            t.flow_count(),
            m.flows.len(),
            "wave {wave} ({shards} shards)"
        );
        for s in 0..shards {
            let fm = t.shard(s);
            for (slot, f, stamp) in fm.iter_lru() {
                let want = (stamp, fm.tcp_state_of(slot), s);
                assert_eq!(
                    m.flows.get(&f.int_key),
                    Some(&want),
                    "wave {wave} slot {slot}"
                );
            }
        }
    }
    assert!(
        total_expired > 0,
        "the run must have churned through expiry"
    );
}

/// Angle 4b (every push): sharded churn at 2^16 capacity — the pool's
/// first spill onto a second external address — at 1, 2 and 4 shards.
#[test]
fn sharded_parity_at_64k() {
    let c = cfg(1 << 16, Time::from_secs(2).nanos());
    for shards in [1usize, 2, 4] {
        sharded_churn(c, shards, 4, 24_000, 0x64_000 + shards as u64);
        sharded_churn(classed(c), shards, 4, 24_000, 0x64_100 + shards as u64);
    }
}

/// Angle 4b (nightly-deep, release): the million-flow configuration —
/// 2^20 slots spilling across 17 external addresses, filled to
/// capacity and churned, at 1, 2 and 4 shards. Run with
/// `cargo test --release -- --ignored million`.
#[test]
#[ignore = "million-flow scale; run in release (nightly-deep CI job)"]
fn sharded_parity_at_million_flows() {
    let c = cfg(1 << 20, Time::from_secs(2).nanos());
    for shards in [1usize, 2, 4] {
        // 6 waves × 220k fresh flows > 2^20 slots: the table reaches
        // capacity under churn and allocation failure is checked at the
        // full million-flow table.
        sharded_churn(c, shards, 6, 220_000, 0x100_0000 + shards as u64);
        sharded_churn(classed(c), shards, 6, 220_000, 0x100_1000 + shards as u64);
    }
}
