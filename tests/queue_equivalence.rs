//! Multi-queue / event-driven differential tests: the epoll-style
//! driver (`BackendDriver` over the simulated multi-queue backend) must
//! be byte-for-byte equivalent, per flow, to the sequential per-frame
//! NAT.
//!
//! The equivalence argument, layer by layer:
//!
//! 1. **Classification is one function**: the NIC model's RSS
//!    classifier and the software dispatch of [`ParallelShardedNat`]
//!    are the same code (differentially re-checked here on adversarial
//!    frames, including garbage).
//! 2. **`queues == shards`**: each queue carries exactly one shard's
//!    arrival subsequence in FIFO order, so no matter how the
//!    event-driven scheduler interleaves queue bursts, every shard
//!    processes its packets in arrival order — outputs, drop verdicts,
//!    allocations, expiry, and final table state are *identical* to
//!    sequential processing (proven per flow by payload tags).
//!
//!    The one ordering a multi-port NIC genuinely does *not* preserve
//!    is **across directions**: a shard's packets arrive on two rings
//!    (its internal-port queue and its external-port queue), and the
//!    scheduler may interleave them either way. Translation bytes per
//!    flow are unaffected (replies allocate nothing), but
//!    *rejuvenation* order — hence LRU order, hence slot-reuse order
//!    after an expiry wave — can differ. The headline test therefore
//!    drains direction-homogeneous batches (byte-for-byte through
//!    expiry and reallocation, state equality included), and a second
//!    test mixes directions in one drain and proves per-flow byte
//!    equality up to the point an expiry wave would reorder reuse.
//! 3. **`queues > shards`** (4 queues × 2 shards): queue groups nest
//!    inside shards; translation of established flows remains
//!    byte-identical under any interleaving.
//! 4. **Overflow isolation**: a full RX ring drops (and counts) on that
//!    queue alone; siblings drain normally and flow state stays
//!    coherent — loss is an accounting event, never corruption.

use std::collections::HashMap;

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, Ip4, Proto};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::{BackendDriver, EventLoop, Poller, Wrr};
use vignat_repro::sim::frame_env::RssClassifier;
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

/// A uniquely tagged frame: the 4-byte tag rides in the payload, which
/// the NAT preserves, so every output frame can be attributed to its
/// input no matter which queue carried it or in which order it left.
fn tagged_frame(
    dir: Direction,
    src: Ip4,
    dst: Ip4,
    sp: u16,
    dp: u16,
    proto: Proto,
    tag: u32,
) -> (Direction, Vec<u8>) {
    let b = match proto {
        Proto::Udp => PacketBuilder::udp(src, dst, sp, dp),
        Proto::Tcp => PacketBuilder::tcp(src, dst, sp, dp),
    };
    (dir, b.payload(&tag.to_be_bytes()).build())
}

fn tag_of(frame: &[u8]) -> u32 {
    let n = frame.len();
    u32::from_be_bytes(frame[n - 4..].try_into().unwrap())
}

/// Internal frame of flow `h` with a fresh tag.
fn internal(h: u8, tag: u32) -> (Direction, Vec<u8>) {
    tagged_frame(
        Direction::Internal,
        Ip4::new(192, 168, 0, h),
        Ip4::new(8, 8, 8, 8),
        10_000 + u16::from(h),
        53,
        if h.is_multiple_of(3) {
            Proto::Tcp
        } else {
            Proto::Udp
        },
        tag,
    )
}

/// Outputs per tag: (egress direction, full frame bytes).
type Outputs = HashMap<u32, (Direction, Vec<u8>)>;

/// Sequential single-queue oracle: process every frame in arrival
/// order, one at a time, recording each forwarded frame by its tag.
fn run_sequential(
    nf: &mut ShardedVigNatMb,
    traffic: &[(Direction, Vec<u8>)],
    now: Time,
) -> Outputs {
    let mut out = Outputs::new();
    for (dir, frame) in traffic {
        let mut f = frame.clone();
        if let Verdict::Forward(d) = nf.process(*dir, &mut f, now) {
            let tag = tag_of(&f);
            assert!(out.insert(tag, (d, f)).is_none(), "duplicate tag {tag}");
        }
    }
    out
}

/// The event-driven driver under test: the simulated multi-queue
/// backend behind `queues` RSS queues of `ring`-descriptor rings.
fn driver(c: &NatConfig, queues: usize, ring: usize, ev: EventLoop) -> BackendDriver<SimBackend> {
    BackendDriver::with_event_loop(SimBackend::new(RssClassifier::for_nat(c, queues), ring), ev)
}

/// Stage one frame on its port; the RX queue it entered, if admitted.
fn stage(drv: &mut BackendDriver<SimBackend>, dir: Direction, frame: &[u8]) -> Option<usize> {
    drv.io_mut().stage(dir, |b| {
        b[..frame.len()].copy_from_slice(frame);
        frame.len()
    })
}

/// Collect both ports' TX queues, keyed by tag.
fn reap_outputs(drv: &mut BackendDriver<SimBackend>) -> Outputs {
    let mut out = Outputs::new();
    for dir in [Direction::Internal, Direction::External] {
        for (_q, frame) in drv.io_mut().reap(dir) {
            let tag = tag_of(&frame);
            assert!(
                out.insert(tag, (dir, frame)).is_none(),
                "duplicate tag {tag}"
            );
        }
    }
    out
}

/// Event-driven driver: stage everything (classified by RSS), drain,
/// collect both ports' TX queues.
fn run_event_driven(
    nf: &mut ShardedVigNatMb,
    drv: &mut BackendDriver<SimBackend>,
    traffic: &[(Direction, Vec<u8>)],
    now: Time,
) -> Outputs {
    for (dir, frame) in traffic {
        let accepted = stage(drv, *dir, frame);
        assert!(accepted.is_some(), "test traffic sized within the rings");
    }
    drv.drain(nf, now);
    reap_outputs(drv)
}

fn assert_same_outputs(a: &Outputs, b: &Outputs, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: forwarded counts diverge");
    for (tag, (dir, bytes)) in a {
        let (bdir, bbytes) = b
            .get(tag)
            .unwrap_or_else(|| panic!("{what}: tag {tag} missing from event-driven output"));
        assert_eq!(dir, bdir, "{what}: egress diverged for tag {tag}");
        assert_eq!(bytes, bbytes, "{what}: bytes diverged for tag {tag}");
    }
}

/// The headline proof: with queues == shards, the event-driven
/// multi-queue drain is byte-for-byte equivalent per flow to the
/// sequential single-queue oracle — across allocations, repeats,
/// return traffic, junk, an expiry wave, and re-allocation — and the
/// final sharded table state is identical.
#[test]
fn event_driven_equals_sequential_byte_for_byte_per_flow() {
    for shards in [2usize, 4] {
        let c = cfg();
        let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
        let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
        // Skewed weights + small quantum: force budgeted interleaving
        // rather than drain-to-completion per queue.
        let weights: Vec<usize> = (0..shards).map(|q| 1 + (q % 2)).collect();
        let ev = EventLoop::with_parts(Poller::with_backoff(100, 1_000), Wrr::weighted(weights, 4));
        let mut drv = driver(&c, shards, 64, ev);
        let mut tag = 0u32;
        let next_tag = |n: &mut u32| {
            *n += 1;
            *n
        };

        // Round 1 (t=1s): new flows + repeats → allocations on every shard.
        let t1 = Time::from_secs(1);
        let round1: Vec<_> = (0..48)
            .map(|i| internal(i % 12, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round1, t1);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round1, t1);
        assert_same_outputs(&seq_out, &ev_out, "round 1");

        // Round 2a (t=2s), external drain: replies to every translation
        // (routed to their owning queue by the port partition), plus
        // junk return traffic to a dead and an out-of-range port.
        let t2 = Time::from_secs(2);
        let mut round2a = Vec::new();
        for (_, (d, f)) in seq_out.iter() {
            if *d != Direction::External {
                continue;
            }
            let (_, ff) = parse_l3l4(f).unwrap();
            round2a.push(tagged_frame(
                Direction::External,
                ff.dst_ip,
                Ip4::new(203, 0, 113, 1),
                ff.dst_port,
                ff.src_port,
                ff.proto,
                next_tag(&mut tag),
            ));
        }
        // Dead port inside the range, and a port outside it entirely.
        round2a.push(tagged_frame(
            Direction::External,
            Ip4::new(9, 9, 9, 9),
            Ip4::new(203, 0, 113, 1),
            1,
            1000 + 63,
            Proto::Udp,
            next_tag(&mut tag),
        ));
        round2a.push(tagged_frame(
            Direction::External,
            Ip4::new(9, 9, 9, 9),
            Ip4::new(203, 0, 113, 1),
            1,
            40_000,
            Proto::Udp,
            next_tag(&mut tag),
        ));
        let seq_out = run_sequential(&mut seq_nf, &round2a, t2);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round2a, t2);
        assert_same_outputs(&seq_out, &ev_out, "round 2a");

        // Round 2b, internal drain at the same instant: repeats that
        // rejuvenate a subset of the flows (reordering the LRU before
        // the expiry wave below).
        let round2b: Vec<_> = (0..8)
            .map(|i| internal(i % 12, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round2b, t2);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round2b, t2);
        assert_same_outputs(&seq_out, &ev_out, "round 2b");

        // Round 3 (t=10s, Texp=2s): everything expired — the expiry
        // wave plus re-allocation must interleave identically.
        let t3 = Time::from_secs(10);
        let round3: Vec<_> = (0..24)
            .map(|i| internal(i % 20, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round3, t3);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round3, t3);
        assert_same_outputs(&seq_out, &ev_out, "round 3");

        // Final state: same occupancy, same expiry count, and the same
        // flows at the same global slots with the same stamps, shard by
        // shard, in the same LRU order.
        assert_eq!(seq_nf.occupancy(), ev_nf.occupancy(), "{shards} shards");
        assert_eq!(seq_nf.expired_total(), ev_nf.expired_total());
        assert_eq!(
            seq_nf.flow_manager().snapshot(),
            ev_nf.flow_manager().snapshot(),
            "sharded state diverged at {shards} shards"
        );
        ev_nf.flow_manager().check_coherence().unwrap();
    }
}

/// Mixed directions in one drain: internal packets (allocations and
/// hits) and return traffic interleave across the two ports' queues in
/// whatever order the scheduler picks — yet per-flow output bytes are
/// identical to sequential arrival-order processing, because replies
/// allocate nothing and each direction's per-shard order is preserved
/// by its own ring. (Only *rejuvenation* order across directions is
/// schedule-dependent — see the module docs — which is unobservable in
/// the translation bytes.)
#[test]
fn mixed_direction_drain_translates_identically_per_flow() {
    let c = cfg();
    let shards = 2usize;
    let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
    let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
    let ev = EventLoop::with_parts(Poller::new(), Wrr::weighted(vec![2, 1], 4));
    let mut drv = driver(&c, shards, 64, ev);

    // Establish a few flows (single-direction round — equivalence from
    // the headline test).
    let t1 = Time::from_secs(1);
    let round1: Vec<_> = (0..12).map(|h| internal(h, 500 + u32::from(h))).collect();
    let seq_out = run_sequential(&mut seq_nf, &round1, t1);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round1, t1);
    assert_same_outputs(&seq_out, &ev_out, "mixed: establish");

    // One drain mixing new flows, repeats, and replies.
    let t2 = Time::from_secs(2);
    let mut tag = 9_000u32;
    let mut mixed = Vec::new();
    for (i, (_, (d, f))) in seq_out.iter().enumerate() {
        tag += 1;
        if *d == Direction::External {
            let (_, ff) = parse_l3l4(f).unwrap();
            mixed.push(tagged_frame(
                Direction::External,
                ff.dst_ip,
                Ip4::new(203, 0, 113, 1),
                ff.dst_port,
                ff.src_port,
                ff.proto,
                tag,
            ));
        }
        tag += 1;
        mixed.push(internal((12 + i as u8) % 40, tag)); // new flows
        tag += 1;
        mixed.push(internal(i as u8 % 12, tag)); // repeats
    }
    let seq_out = run_sequential(&mut seq_nf, &mixed, t2);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &mixed, t2);
    assert_same_outputs(&seq_out, &ev_out, "mixed drain");
    assert_eq!(seq_nf.occupancy(), ev_nf.occupancy());
    ev_nf.flow_manager().check_coherence().unwrap();
}

/// 4 queues × 2 shards: with more queues than shards, same-shard flows
/// from different queues may *allocate* in schedule order — but the
/// translation of established flows is byte-identical under any
/// interleaving. (This is the configuration the release CI job runs.)
#[test]
fn four_queues_two_shards_established_flows_translate_identically() {
    let c = cfg();
    let (queues, shards) = (4usize, 2usize);
    let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
    let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
    let mut drv = driver(&c, queues, 64, EventLoop::new(queues));

    // Establish the same flows in both NATs through the *same
    // sequential* order (allocation fixed), outside the queues; the
    // translated frames reveal each flow's external mapping.
    let t1 = Time::from_secs(1);
    let mut translated = Vec::new();
    for h in 0..32u8 {
        let (dir, frame) = internal(h, u32::from(h) + 1);
        let mut a = frame.clone();
        let mut b = frame;
        assert_eq!(
            seq_nf.process(dir, &mut a, t1),
            ev_nf.process(dir, &mut b, t1)
        );
        assert_eq!(a, b);
        let (_, ff) = parse_l3l4(&a).unwrap();
        translated.push(ff);
    }

    // Steady-state traffic (hits + return packets) through 4 queues,
    // event-driven, vs the sequential oracle.
    let t2 = Time::from_secs(2);
    let mut tag = 1_000u32;
    let mut traffic = Vec::new();
    for rep in 0..3 {
        for h in 0..32u8 {
            tag += 1;
            traffic.push(internal(h, tag));
            if rep == 1 {
                // The reply the remote host sends to this flow's
                // translation.
                let ff = &translated[usize::from(h)];
                tag += 1;
                traffic.push(tagged_frame(
                    Direction::External,
                    ff.dst_ip,
                    Ip4::new(203, 0, 113, 1),
                    ff.dst_port,
                    ff.src_port,
                    ff.proto,
                    tag,
                ));
            }
        }
    }
    let seq_out = run_sequential(&mut seq_nf, &traffic, t2);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &traffic, t2);
    assert_same_outputs(&seq_out, &ev_out, "4q x 2s steady state");
    assert_eq!(seq_nf.occupancy(), ev_nf.occupancy());
}

/// Drop accounting under an overflowing queue: the full ring drops (and
/// counts) on that queue alone; siblings drain normally, every accepted
/// frame is processed exactly as the oracle processes the accepted
/// subsequence, and the flow table stays coherent.
#[test]
fn overflowing_queue_counts_drops_and_spares_siblings() {
    let c = cfg();
    let queues = 2usize;
    let ring = 8usize;
    let mut nf = ShardedVigNatMb::sharded(c, queues);
    let mut oracle = ShardedVigNatMb::sharded(c, queues);
    let mut drv = driver(&c, queues, ring, EventLoop::new(queues));

    // Sort candidate flows by the queue RSS steers them to.
    let mut by_queue: Vec<Vec<u8>> = vec![Vec::new(); queues];
    for h in 0..=255u8 {
        let (_, frame) = internal(h, 0);
        let q = drv.io().classifier().queue_of(Direction::Internal, &frame);
        by_queue[q].push(h);
    }
    assert!(
        by_queue.iter().all(|v| v.len() >= 4),
        "both queues reachable"
    );

    // Offer 20 frames of queue-0 flows (ring holds 8) and 4 of queue-1
    // flows; record which were accepted, in order.
    let t = Time::from_secs(1);
    let mut accepted = Vec::new();
    let mut tag = 0u32;
    let mut offered_q0 = 0u64;
    for k in 0..20 {
        tag += 1;
        let h = by_queue[0][k % by_queue[0].len()];
        let (dir, frame) = internal(h, tag);
        offered_q0 += 1;
        if stage(&mut drv, dir, &frame).is_some() {
            accepted.push((dir, frame));
        }
    }
    for k in 0..4 {
        tag += 1;
        let h = by_queue[1][k % by_queue[1].len()];
        let (dir, frame) = internal(h, tag);
        let q = stage(&mut drv, dir, &frame);
        assert_eq!(q, Some(1), "sibling queue must not be affected");
        accepted.push((dir, frame));
    }

    // Accounting: queue 0 accepted exactly its ring depth and dropped
    // the rest; queue 1 is clean.
    let s0 = drv.io().queue_stats(Direction::Internal, 0);
    let s1 = drv.io().queue_stats(Direction::Internal, 1);
    assert_eq!(s0.rx, ring as u64);
    assert_eq!(s0.rx_dropped, offered_q0 - ring as u64);
    assert_eq!((s1.rx, s1.rx_dropped), (4, 0));

    // The drain processes every accepted frame — and only those —
    // exactly as the oracle fed the accepted subsequence does.
    let stats = drv.drain(&mut nf, t);
    assert_eq!(stats.forwarded, ring as u64 + 4);
    assert_eq!(stats.dropped, 0, "ring loss is not NF loss");
    let ev_out = reap_outputs(&mut drv);
    let seq_out = run_sequential(&mut oracle, &accepted, t);
    assert_same_outputs(&seq_out, &ev_out, "accepted subsequence");
    assert_eq!(nf.occupancy(), oracle.occupancy());
    nf.flow_manager().check_coherence().unwrap();

    // The overflowed queue is not stalled: the next round drains fine.
    let t2 = Time::from_secs(1).plus(1_000_000);
    let h = by_queue[0][0];
    let (dir, frame) = internal(h, 77_777);
    assert_eq!(stage(&mut drv, dir, &frame), Some(0));
    let stats = drv.drain(&mut nf, t2);
    assert_eq!(stats.forwarded, 1);
    let _ = drv.io_mut().reap(Direction::External);
}

/// The NIC model's classifier and the parallel driver's software
/// dispatch are the same function — re-checked differentially on
/// adversarial frames (valid, truncated, and raw noise).
#[test]
fn rss_classifier_agrees_with_parallel_dispatch() {
    let c = cfg();
    for shards in [1usize, 2, 3, 4] {
        let nat = ParallelShardedNat::new(c, shards, 64);
        let classifier = RssClassifier::for_table(nat.table());
        assert_eq!(classifier.queue_count(), shards);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for h in 0..40u8 {
            let (_, f) = internal(h, u32::from(h));
            frames.push(f);
        }
        // Return traffic across the whole port range, in and out.
        for port in [0u16, 999, 1000, 1031, 1063, 1064, 65_535] {
            let (_, f) = tagged_frame(
                Direction::External,
                Ip4::new(9, 9, 9, 9),
                Ip4::new(203, 0, 113, 1),
                80,
                port,
                Proto::Udp,
                u32::from(port),
            );
            frames.push(f);
        }
        // Truncations and noise.
        let full = frames[0].clone();
        for cut in [0usize, 10, 14, 20, 33] {
            frames.push(full[..cut.min(full.len())].to_vec());
        }
        frames.push(vec![0xa5; 60]);
        for f in &frames {
            for dir in [Direction::Internal, Direction::External] {
                assert_eq!(
                    classifier.queue_of(dir, f),
                    nat.dispatch(dir, f),
                    "classifier and dispatch diverged ({shards} shards)"
                );
            }
        }
    }
}
