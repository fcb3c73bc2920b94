//! The event-driven multi-queue harness, end to end: RSS-classify a
//! workload across Q RX queues, drain it with the epoll-style driver
//! (poller + weighted round-robin budgets) through an S-shard verified
//! NAT, and report per-queue statistics and the steady-state service
//! time.
//!
//! ```sh
//! cargo run --release --example eventloop_demo -- 4 2   # queues shards
//! ```
//!
//! This is also the release-mode CI smoke for the event-driven path
//! (4 queues × 2 shards).

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::{Direction, Ip4, Proto};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::{event_driven_service_times, BackendDriver};
use vignat_repro::sim::frame_env::RssClassifier;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb};
use vignat_repro::sim::tester::FlowGen;

fn main() {
    let mut args = std::env::args().skip(1);
    let queues: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let cfg = NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    };
    println!("event-driven driver: {queues} RX queues -> {shards}-shard verified NAT");

    // A visible drain: 10k flows offered through the classifier, one
    // event-driven drain, per-queue accounting afterwards.
    let mut nf = ShardedVigNatMb::sharded(cfg, shards);
    let mut drv = BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&cfg, queues), 4096));
    let gen = FlowGen::new(Proto::Udp);
    let flows = 10_000u32;
    // Stage in ring-sized rounds (a tester can always outrun Q rings);
    // one event-driven drain per round, stats accumulated.
    let round = (queues * 2_048) as u32;
    let mut forwarded = 0u64;
    let mut dropped = 0u64;
    let mut bursts = 0u64;
    let mut polls = 0u64;
    let mut now = Time::from_secs(1);
    for start in (0..flows).step_by(round as usize) {
        for i in start..flows.min(start + round) {
            let f = gen.background(i);
            assert!(
                drv.io_mut()
                    .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                    .is_some(),
                "rings sized for one round"
            );
        }
        now = now.plus(1_000);
        let stats = drv.drain(&mut nf, now);
        forwarded += stats.forwarded;
        dropped += stats.dropped;
        bursts += stats.bursts;
        polls += stats.polls;
        let _ = drv.io_mut().reap(Direction::External);
    }
    println!(
        "drained {} frames in {bursts} bursts over {polls} polls ({forwarded} forwarded, {dropped} dropped)",
        forwarded + dropped,
    );
    for q in 0..queues {
        let s = drv.io().queue_stats(Direction::Internal, q);
        println!(
            "  internal rx queue {q}: rx {} dropped {} (share {:.1}%)",
            s.rx,
            s.rx_dropped,
            100.0 * s.rx as f64 / flows as f64
        );
    }
    assert_eq!(nf.occupancy(), flows as usize);
    assert_eq!(forwarded, u64::from(flows));

    // Steady-state service time through the event loop (all hits).
    let mut nf = ShardedVigNatMb::sharded(cfg, shards);
    let (svc, _io) = event_driven_service_times(
        SimBackend::new(RssClassifier::for_nat(&cfg, queues), 512),
        &mut nf,
        &gen,
        8_192,
        40_000,
        Time::from_secs(60).nanos(),
    );
    println!(
        "steady-state per-packet service through the event loop: mean {:.1} ns, p99 {} ns",
        svc.mean(),
        svc.percentile(0.99)
    );
    println!("ok");
}
