//! Backend conformance: every [`PacketIo`] implementation must be an
//! indistinguishable home for the verified NAT.
//!
//! Two differential layers:
//!
//! 1. **`SimBackend` trace fingerprints** — the generic
//!    [`BackendDriver`] over the simulated backend replaced a second,
//!    hand-written multi-queue testbed drain that it was proven
//!    byte-for-byte equal to, round by round. That evidence is kept as
//!    an FNV fingerprint of the driver's full observable trace per
//!    schedule (admissions, drain counters, TX sequences with queue
//!    indices, per-queue rx/drop/tx/tx-bytes accounting under
//!    deliberate queue overflow, NAT state, expiry total, pool level),
//!    recorded while both drains still ran and asserted equal. Any
//!    change to scheduling, admission, accounting or translation moves
//!    a fingerprint. Per-flow equivalence to the sequential NAT lives
//!    in `tests/queue_equivalence.rs`.
//! 2. **OS ≡ sim on a recorded trace** (`#[ignore]`, needs
//!    `CAP_NET_ADMIN`/`CAP_NET_RAW` — CI's `os-backend-integration`
//!    job), run for *both* wire transports — the per-frame
//!    `OsBackend` and the zero-copy mmap-ring `MmapBackend`: real
//!    frames cross a veth pair into the `AF_PACKET` backend while the
//!    backend records its arrival trace; the trace is then replayed
//!    through `SimBackend`, and tx order, per-queue stats (rx, drops,
//!    tx, tx bytes), and NAT state must match exactly. On this path
//!    the kernel is the tester — whatever it delivered (including any
//!    noise) is replayed verbatim, so parity is unconditional, and
//!    each transport's parity with sim gives the three-way
//!    mmap ≡ per-frame ≡ sim equivalence.
//!
//! The privileged module also pins down the mmap ring's edges: the
//! partial-block retire timeout, overrun behaviour (kernel drops are
//! counted, state never corrupts), and leak-free teardown.
//!
//! The suite always writes its tx traces to
//! `target/os-backend-trace/` so the CI job can upload them as
//! artifacts when a run fails.

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig};
use vignat_repro::packet::{parse_l3l4, Direction, Flow, Ip4};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::{BackendDriver, EventLoop, TxRecord, Wrr};
use vignat_repro::sim::middlebox::Middlebox;
use vignat_repro::sim::middlebox::ShardedVigNatMb;
use vignat_repro::sim::tester::FlowGen;
use vignat_repro::sim::{Poller, RssClassifier};

fn cfg(capacity: usize) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

/// The NAT's full observable state: (shard, slot, flow, stamp) for
/// every resident flow, in LRU order — what "same NAT state" means in
/// every parity assertion here.
fn nat_state(nf: &ShardedVigNatMb) -> Vec<(usize, usize, Flow, Time)> {
    let fm = nf.flow_manager();
    let mut out = Vec::new();
    for s in 0..fm.shard_count() {
        for (slot, flow, stamp) in fm.shard(s).iter_lru() {
            out.push((s, slot, *flow, stamp));
        }
    }
    out
}

/// Per-queue stats of both ports, as comparable
/// `(rx, rx_dropped, tx, tx_bytes)` tuples.
fn all_queue_stats<B: PacketIo>(io: &B) -> Vec<(u64, u64, u64, u64)> {
    let mut out = Vec::new();
    for dir in [Direction::Internal, Direction::External] {
        for q in 0..io.queue_count() {
            let s = io.queue_stats(dir, q);
            out.push((s.rx, s.rx_dropped, s.tx, s.tx_bytes));
        }
    }
    out
}

/// FNV-1a over little-endian words — the fingerprint hash of
/// `tests/expiry_equivalence.rs`.
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

/// One round's observable trace, in the order it is fingerprinted.
struct RoundTrace {
    /// Per staged frame: the RX queue it entered, or `None` (dropped).
    admissions: Vec<Option<usize>>,
    /// `(forwarded, dropped, bursts, polls)` of the drain.
    drain: (u64, u64, u64, u64),
    /// Reaped TX frames per port (external, then internal) as
    /// `(tx queue, bytes)`.
    tx: Vec<Vec<(usize, Vec<u8>)>>,
    /// Per-queue `(rx, rx_dropped, tx, tx_bytes)`, both ports.
    queue_stats: Vec<(u64, u64, u64, u64)>,
    /// The NAT's resident flows (see [`nat_state`]).
    state: Vec<(usize, usize, Flow, Time)>,
    expired_total: u64,
    pool_available: usize,
}

impl RoundTrace {
    fn fold(&self, h: &mut Fnv) {
        h.u64(self.admissions.len() as u64);
        for a in &self.admissions {
            h.u64(a.map_or(u64::MAX, |q| q as u64));
        }
        let (fwd, drop, bursts, polls) = self.drain;
        for v in [fwd, drop, bursts, polls] {
            h.u64(v);
        }
        for port in &self.tx {
            h.u64(port.len() as u64);
            for (q, frame) in port {
                h.u64(*q as u64);
                h.u64(frame.len() as u64);
                h.bytes(frame);
            }
        }
        for &(rx, rx_dropped, tx, tx_bytes) in &self.queue_stats {
            for v in [rx, rx_dropped, tx, tx_bytes] {
                h.u64(v);
            }
        }
        h.u64(self.state.len() as u64);
        for (s, slot, f, stamp) in &self.state {
            for v in [
                *s as u64,
                *slot as u64,
                u64::from(f.int_key.src_ip.0),
                u64::from(f.int_key.src_port),
                u64::from(f.int_key.dst_ip.0),
                u64::from(f.int_key.dst_port),
                u64::from(f.int_key.proto.number()),
                u64::from(f.ext_ip.0),
                u64::from(f.ext_port),
                stamp.nanos(),
            ] {
                h.u64(v);
            }
        }
        h.u64(self.expired_total);
        h.u64(self.pool_available as u64);
    }
}

/// One schedule round: frames (with their port) offered to both sides.
type RoundFrames = Vec<(Direction, Vec<u8>)>;

/// Build a mixed adversarial schedule: new flows, repeats, replies to
/// round-1 translations, garbage, and a flood aimed at one queue.
/// Replies are crafted from `learned` (the translated frames the first
/// round produced).
fn mixed_round(gen: &FlowGen, round: usize, learned: &[Vec<u8>]) -> RoundFrames {
    let mut frames: RoundFrames = Vec::new();
    match round {
        0 => {
            // 40 fresh flows.
            for i in 0..40u32 {
                let f = gen.background(i);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
        1 => {
            // Replies to everything learned, plus repeats and garbage.
            for t in learned {
                let (_, ff) = parse_l3l4(t).expect("translated frame parses");
                let f = gen.return_for(ff.src_ip, ff.src_port);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::External, buf));
            }
            for i in 0..12u32 {
                let f = gen.background(i);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
            frames.push((Direction::Internal, vec![0xa5u8; 60]));
            frames.push((Direction::External, vec![0x5au8; 24]));
        }
        _ => {
            // Flood: many packets of few flows — some queue overflows.
            for k in 0..120u32 {
                let f = gen.background(k % 6);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
    }
    frames
}

/// Drive the generic driver over `SimBackend` through the mixed
/// schedule with the given event-loop builder and return the
/// fingerprint of its observable trace, folded round by round.
fn run_differential(
    queues: usize,
    shards: usize,
    ring: usize,
    mk_ev: impl Fn(usize) -> EventLoop,
) -> u64 {
    let c = cfg(256);
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
    let mut nf = ShardedVigNatMb::sharded(c, shards);
    let mut drv = BackendDriver::with_event_loop(
        SimBackend::new(RssClassifier::for_nat(&c, queues), ring),
        mk_ev(queues),
    );

    let mut h = Fnv::new();
    let mut learned: Vec<Vec<u8>> = Vec::new();
    for round in 0..3 {
        let frames = mixed_round(&gen, round, &learned);
        let now = Time::from_secs(1 + round as u64);

        let admissions: Vec<Option<usize>> = frames
            .iter()
            .map(|(dir, bytes)| {
                drv.io_mut().stage(*dir, |b| {
                    b[..bytes.len()].copy_from_slice(bytes);
                    bytes.len()
                })
            })
            .collect();
        if round == 2 {
            assert!(
                admissions.iter().any(Option::is_none),
                "flood round must actually overflow a queue"
            );
        }

        let ds = drv.drain(&mut nf, now);
        let tx: Vec<_> = [Direction::External, Direction::Internal]
            .into_iter()
            .map(|dir| drv.io_mut().reap(dir))
            .collect();
        if round == 0 {
            learned = tx[0].iter().map(|(_, f)| f.clone()).collect();
        }
        RoundTrace {
            admissions,
            drain: (ds.forwarded, ds.dropped, ds.bursts, ds.polls),
            tx,
            queue_stats: all_queue_stats(drv.io()),
            state: nat_state(&nf),
            expired_total: nf.expired_total(),
            pool_available: drv.io().pool_available(),
        }
        .fold(&mut h);
    }
    nf.flow_manager().check_coherence().unwrap();
    h.0
}

/// The fault layer's identity theorem on the sim backend: `FaultIo`
/// with the empty schedule is byte-for-byte the inner backend — same
/// admissions, TX sequences, per-queue stats, NAT state, pool levels,
/// and untouched fault counters — across the same adversarial schedule
/// the fingerprinted suite uses (overflow round included).
fn run_faultio_identity(queues: usize, shards: usize, ring: usize) {
    use vignat_repro::sim::backend::{FaultIo, FaultPlan, FaultStats};
    let c = cfg(256);
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

    let mut plain_nf = ShardedVigNatMb::sharded(c, shards);
    let mut plain = BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&c, queues), ring));
    let mut nf = ShardedVigNatMb::sharded(c, shards);
    let mut drv = BackendDriver::new(FaultIo::new(
        SimBackend::new(RssClassifier::for_nat(&c, queues), ring),
        FaultPlan::none(),
    ));

    let mut learned: Vec<Vec<u8>> = Vec::new();
    for round in 0..3 {
        let frames = mixed_round(&gen, round, &learned);
        let now = Time::from_secs(1 + round as u64);
        for (dir, bytes) in &frames {
            let a = plain.io_mut().stage(*dir, |b| {
                b[..bytes.len()].copy_from_slice(bytes);
                bytes.len()
            });
            let b = drv.io_mut().stage(*dir, |b| {
                b[..bytes.len()].copy_from_slice(bytes);
                bytes.len()
            });
            assert_eq!(a, b, "admission diverged in round {round}");
        }
        let ps = plain.drain(&mut plain_nf, now);
        let fs = drv.drain(&mut nf, now);
        assert_eq!(
            (ps.forwarded, ps.dropped, ps.tx_dropped, ps.bursts, ps.polls),
            (fs.forwarded, fs.dropped, fs.tx_dropped, fs.bursts, fs.polls),
            "drain stats diverged in round {round}"
        );
        for dir in [Direction::External, Direction::Internal] {
            let pt = plain.io_mut().reap(dir);
            let ft = drv.io_mut().reap(dir);
            assert_eq!(pt, ft, "tx sequence diverged in round {round} on {dir:?}");
            if round == 0 && dir == Direction::External {
                learned = pt.iter().map(|(_, f)| f.clone()).collect();
            }
        }
        assert_eq!(
            all_queue_stats(plain.io()),
            all_queue_stats(drv.io()),
            "per-queue accounting diverged in round {round}"
        );
        assert_eq!(nat_state(&plain_nf), nat_state(&nf));
        assert_eq!(
            plain.io().pool_available(),
            drv.io().inner().pool_available()
        );
    }
    assert_eq!(drv.io().fault_stats(), FaultStats::default());
    nf.flow_manager().check_coherence().unwrap();
}

// Trace fingerprints of the three schedules, recorded from the
// retired multi-queue testbed drain while `BackendDriver<SimBackend>`
// was asserted byte-for-byte equal to it every round.
const FP_4Q_2S_RING8: u64 = 0x6765_ca97_622c_befc;
const FP_2Q_2S_RING2: u64 = 0x3d12_2ae0_017a_9882;
const FP_2Q_2S_RING8_WEIGHTED: u64 = 0xa3de_59c9_e556_03f9;

#[test]
fn sim_backend_matches_legacy_testbed_byte_for_byte() {
    assert_eq!(run_differential(4, 2, 8, EventLoop::new), FP_4Q_2S_RING8);
}

#[test]
fn faultio_empty_schedule_is_identity_on_sim_backend() {
    run_faultio_identity(4, 2, 8);
}

#[test]
fn faultio_identity_holds_under_queue_overflow() {
    run_faultio_identity(2, 2, 2);
}

#[test]
fn drop_accounting_parity_under_queue_overflow() {
    // 2-descriptor rings: nearly everything overflows; every per-queue
    // drop counter is part of the fingerprint.
    assert_eq!(run_differential(2, 2, 2, EventLoop::new), FP_2Q_2S_RING2);
}

#[test]
fn weighted_budgets_preserve_equivalence() {
    // Skewed WRR weights and a tight backoff window exercise the
    // rotation/budget machinery.
    let fp = run_differential(2, 2, 8, |queues| {
        EventLoop::with_parts(
            Poller::with_backoff(100, 400),
            Wrr::weighted((1..=queues).collect(), 4),
        )
    });
    assert_eq!(fp, FP_2Q_2S_RING8_WEIGHTED);
}

// ---------------------------------------------------------------------
// OS-backend conformance (privileged; CI's os-backend-integration job).
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod os {
    use super::*;
    use std::io::Write;
    use vignat_repro::sim::backend::os::mmap::{MmapBackend, MmapRingConfig};
    use vignat_repro::sim::backend::os::{OsTestRig, VethPair, WireBackend};

    /// Where the CI job picks up failure artifacts.
    fn trace_dir() -> std::path::PathBuf {
        let d = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/os-backend-trace");
        let _ = std::fs::create_dir_all(&d);
        d
    }

    fn dump_trace(name: &str, records: &[TxRecord]) {
        if let Ok(mut f) = std::fs::File::create(trace_dir().join(name)) {
            for r in records {
                let _ = writeln!(f, "{:?} q{} {:02x?}", r.out, r.queue, r.frame);
            }
        }
    }

    fn dump_rx(name: &str, rounds: &[(Time, RoundFrames)]) {
        if let Ok(mut f) = std::fs::File::create(trace_dir().join(name)) {
            for (now, arrivals) in rounds {
                let _ = writeln!(f, "-- round at {now:?} --");
                for (dir, bytes) in arrivals {
                    let _ = writeln!(f, "{dir:?} {bytes:02x?}");
                }
            }
        }
    }

    /// Create the two veth pairs a wire test needs, or `None` (skip)
    /// when the capability is missing. `prefix` ≤ 9 chars keeps the
    /// interface names under IFNAMSIZ.
    fn wire(prefix: &str) -> Option<(VethPair, VethPair)> {
        let int_veth = match VethPair::create(&format!("{prefix}-int0"), &format!("{prefix}-int1"))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("SKIP ({prefix}): {e}");
                return None;
            }
        };
        let ext_veth = match VethPair::create(&format!("{prefix}-ext0"), &format!("{prefix}-ext1"))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("SKIP ({prefix}): {e}");
                return None;
            }
        };
        Some((int_veth, ext_veth))
    }

    /// Same packet trace in → same NAT state, tx order, per-queue
    /// stats, and drop counters out, across the wire/sim boundary —
    /// generic over the wire transport, so the per-frame and the
    /// mmap-ring backends prove the identical property. The wire side
    /// records what the kernel actually delivered; the sim side
    /// replays that recording, so the comparison is exact by
    /// construction.
    fn recorded_trace_parity<B, F>(label: &str, prefix: &str, open: F)
    where
        B: WireBackend,
        F: FnOnce(&VethPair, &VethPair, RssClassifier, usize) -> std::io::Result<OsTestRig<B>>,
    {
        const QUEUES: usize = 2;
        const SHARDS: usize = 2;
        const RING: usize = 64;
        let c = cfg(256);

        let Some((int_veth, ext_veth)) = wire(prefix) else {
            return;
        };
        let rig = match open(
            &int_veth,
            &ext_veth,
            RssClassifier::for_nat(&c, QUEUES),
            RING,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("SKIP {label}: {e}");
                return;
            }
        };

        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        let mut os_nf = ShardedVigNatMb::sharded(c, SHARDS);
        let mut os_drv = BackendDriver::new(rig);
        os_drv.set_tx_log(true);
        os_drv.io_mut().backend_mut().set_rx_log(true);

        // Drive rounds across the real wire, keeping each round's
        // kernel-delivered arrivals (the recorded trace to replay).
        let mut os_rounds: Vec<(Time, RoundFrames)> = Vec::new();
        let mut os_tx: Vec<TxRecord> = Vec::new();
        let mut learned: Vec<Vec<u8>> = Vec::new();
        for round in 0..3 {
            let frames = mixed_round(&gen, round, &learned);
            let now = Time::from_secs(1 + round as u64);
            let mut sent = 0usize;
            for (dir, bytes) in &frames {
                if os_drv
                    .io_mut()
                    .stage(*dir, |b| {
                        b[..bytes.len()].copy_from_slice(bytes);
                        bytes.len()
                    })
                    .is_some()
                {
                    sent += 1;
                }
            }
            assert_eq!(sent, frames.len(), "wire injection failed in round {round}");

            // Wait until the kernel has delivered everything we sent
            // (plus whatever noise it adds — replayed either way).
            // Frames dropped at a full RX FIFO still count as seen:
            // the recorded trace replays the drop identically in sim.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let seen_before = os_drv.io().backend().rx_seen();
            loop {
                os_drv.io_mut().pump_rx();
                let seen = (os_drv.io().backend().rx_seen() - seen_before) as usize;
                if seen >= sent {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: kernel delivered {seen}/{sent} frames within deadline"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }

            let stats = os_drv.drain(&mut os_nf, now);
            let _ = stats;
            // Collect what actually crossed the wire back to the tester.
            let expected_tx = os_drv.take_tx_log().into_iter().collect::<Vec<_>>();
            os_drv.set_tx_log(true); // re-arm (take_tx_log drains)
            let ext_expect = expected_tx
                .iter()
                .filter(|r| r.out == Direction::External)
                .count();
            let int_expect = expected_tx.len() - ext_expect;
            let wire_ext = os_drv.io_mut().reap_wait(
                Direction::External,
                ext_expect,
                std::time::Duration::from_secs(5),
            );
            let wire_int = os_drv.io_mut().reap_wait(
                Direction::Internal,
                int_expect,
                std::time::Duration::from_secs(5),
            );
            // Every frame the driver forwarded arrived on the tester's
            // side of the wire, bytes intact (kernel delivery order may
            // interleave queues: compare as multisets).
            let mut sent_ext: Vec<Vec<u8>> = expected_tx
                .iter()
                .filter(|r| r.out == Direction::External)
                .map(|r| r.frame.clone())
                .collect();
            let mut got_ext: Vec<Vec<u8>> = wire_ext.into_iter().map(|(_, f)| f).collect();
            sent_ext.sort();
            got_ext.sort();
            assert_eq!(sent_ext, got_ext, "round {round}: external wire bytes");
            let mut sent_int: Vec<Vec<u8>> = expected_tx
                .iter()
                .filter(|r| r.out == Direction::Internal)
                .map(|r| r.frame.clone())
                .collect();
            let mut got_int: Vec<Vec<u8>> = wire_int.into_iter().map(|(_, f)| f).collect();
            sent_int.sort();
            got_int.sort();
            assert_eq!(sent_int, got_int, "round {round}: internal wire bytes");

            if round == 0 {
                learned = sent_ext;
            }
            os_rounds.push((now, os_drv.io_mut().backend_mut().take_rx_log()));
            os_tx.extend(expected_tx);
            // Keep the artifacts current after every round, so the CI
            // job's on-failure upload has them even when a later
            // round's assert (or the delivery deadline) fails first.
            dump_trace(&format!("{label}_tx_trace.txt"), &os_tx);
            dump_rx(&format!("{label}_rx_trace.txt"), &os_rounds);
        }
        // A last flush lets a ring transport confirm its final
        // completions before stats are compared.
        os_drv.io_mut().flush_tx();

        // Replay the recorded arrival trace through the sim backend.
        let mut sim_nf = ShardedVigNatMb::sharded(c, SHARDS);
        let mut sim_drv =
            BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&c, QUEUES), RING));
        sim_drv.set_tx_log(true);
        let mut sim_dropped = 0u64;
        for (now, arrivals) in &os_rounds {
            for (dir, bytes) in arrivals {
                // `None` = admission drop (full FIFO) — the parity
                // event the OS side counted too, not a failure.
                let _ = sim_drv.io_mut().stage(*dir, |b| {
                    b[..bytes.len()].copy_from_slice(bytes);
                    bytes.len()
                });
            }
            let s = sim_drv.drain(&mut sim_nf, *now);
            sim_dropped += s.dropped;
            for dir in [Direction::External, Direction::Internal] {
                let _ = sim_drv.io_mut().reap(dir);
            }
        }

        // Parity: tx trace (order, queues, bytes), NAT state, and the
        // complete per-queue ledger — rx, rx drops, and the
        // flush-attributed tx/tx_bytes against sim's enqueue-attributed
        // ones (equal because every wire send succeeded; see below).
        let sim_tx = sim_drv.take_tx_log();
        dump_trace(&format!("{label}_tx_trace.txt"), &os_tx);
        dump_trace(&format!("{label}_sim_tx_trace.txt"), &sim_tx);
        assert_eq!(
            os_tx, sim_tx,
            "{label}: tx traces diverged (see target/os-backend-trace/)"
        );
        assert_eq!(
            nat_state(&os_nf),
            nat_state(&sim_nf),
            "{label}: NAT state diverged"
        );
        assert_eq!(
            all_queue_stats(os_drv.io()),
            all_queue_stats(sim_drv.io()),
            "{label}: per-queue rx/drop/tx/tx_bytes accounting diverged"
        );
        // NF-level drops: garbage frames the NAT refused.
        assert_eq!(os_nf.occupancy(), sim_nf.occupancy());
        assert!(sim_dropped > 0, "schedule contains garbage the NAT drops");
        assert_eq!(
            os_drv.io().backend().tx_errors(),
            0,
            "{label}: wire sends must succeed"
        );
        assert_eq!(
            os_drv.io().backend().rx_errors(),
            0,
            "{label}: no receive errors on a live veth"
        );
        assert_eq!(
            os_drv.io_mut().backend_mut().kernel_drops(),
            0,
            "{label}: this workload never overruns the kernel side"
        );
    }

    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET); run via CI os-backend-integration or sudo"]
    fn os_backend_matches_sim_on_recorded_trace() {
        recorded_trace_parity("os", "vgcnf", |i, e, cl, ring| {
            OsTestRig::open(i, e, cl, ring)
        });
    }

    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET mmap rings); run via CI os-backend-integration or sudo"]
    fn mmap_backend_matches_sim_on_recorded_trace() {
        recorded_trace_parity("mmap", "vgmmp", |i, e, cl, ring| {
            OsTestRig::open_mmap(i, e, cl, ring)
        });
    }

    /// The fault layer's identity theorem on the per-frame wire
    /// backend: `FaultIo(FaultPlan::none())` wrapped around a live
    /// `OsBackend` passes the same recorded-trace parity proof the
    /// bare backend does, so an empty schedule changes nothing on a
    /// real kernel packet path either.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET); run via CI os-backend-integration or sudo"]
    fn faultio_identity_holds_on_os_backend() {
        use vignat_repro::sim::backend::os::OsBackend;
        use vignat_repro::sim::backend::{FaultIo, FaultPlan};
        recorded_trace_parity("fault-os", "vgfos", |i, e, cl, ring| {
            let inner = OsBackend::open(&i.a, &e.a, cl, ring)?;
            OsTestRig::with_backend(FaultIo::new(inner, FaultPlan::none()), i, e)
        });
    }

    /// Identity theorem on the zero-copy mmap-ring wire backend.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET mmap rings); run via CI os-backend-integration or sudo"]
    fn faultio_identity_holds_on_mmap_backend() {
        use vignat_repro::sim::backend::{FaultIo, FaultPlan};
        recorded_trace_parity("fault-mmap", "vgfmm", |i, e, cl, ring| {
            let inner = MmapBackend::open(&i.a, &e.a, cl, ring, MmapRingConfig::default())?;
            OsTestRig::with_backend(FaultIo::new(inner, FaultPlan::none()), i, e)
        });
    }

    /// A partially filled RX block must reach user space within the
    /// retire timeout — frames must never wait for a block to fill.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI os-backend-integration or sudo"]
    fn mmap_partial_block_retires_within_timeout() {
        let c = cfg(64);
        let Some((int_veth, ext_veth)) = wire("vgret") else {
            return;
        };
        let mut rig =
            match OsTestRig::open_mmap(&int_veth, &ext_veth, RssClassifier::for_nat(&c, 2), 64) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("SKIP mmap_partial_block_retires_within_timeout: {e}");
                    return;
                }
            };
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        // 3 small frames: a 32 KiB block is nowhere near full.
        for i in 0..3u32 {
            let f = gen.background(i);
            assert!(rig
                .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                .is_some());
        }
        // The retire timeout is 1 ms; give the kernel a generous
        // window, then one pump must surface all three frames.
        let ready = rig
            .backend()
            .wait_rx(Direction::Internal, 1000)
            .expect("poll works");
        assert!(ready, "retire timeout hands over the partial block");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while rig.backend().rx_seen() < 3 {
            rig.pump_rx();
            assert!(
                std::time::Instant::now() < deadline,
                "3 frames must arrive via block retire, got {}",
                rig.backend().rx_seen()
            );
        }
        let rx_total: u64 = (0..2)
            .map(|q| rig.queue_stats(Direction::Internal, q).rx)
            .sum();
        assert_eq!(rx_total, 3, "all three admitted from the partial block");
    }

    /// Overrunning the RX ring loses frames *in the kernel* — counted
    /// via `PACKET_STATISTICS` — and must never corrupt backend state:
    /// after the flood, the rig still forwards cleanly.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI os-backend-integration or sudo"]
    fn mmap_ring_overrun_counts_kernel_drops_without_corruption() {
        let c = cfg(256);
        let Some((int_veth, ext_veth)) = wire("vgovr") else {
            return;
        };
        let classifier = RssClassifier::for_nat(&c, 2);
        // A deliberately tiny RX ring: two 4 KiB blocks per port.
        let rc = MmapRingConfig {
            rx_block_size: 4096,
            rx_block_count: 2,
            rx_frame_size: 2048,
            retire_ms: 1,
            ..MmapRingConfig::default()
        };
        let backend = match MmapBackend::open(&int_veth.a, &ext_veth.a, classifier, 64, rc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("SKIP mmap_ring_overrun_counts_kernel_drops_without_corruption: {e}");
                return;
            }
        };
        let mut rig =
            OsTestRig::with_backend(backend, &int_veth, &ext_veth).expect("peer sockets open");
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

        // Flood without pumping: the kernel fills both blocks, then
        // must drop the excess outside the ring.
        let mut staged = 0u64;
        for k in 0..4096u32 {
            let f = gen.background(k % 8);
            if rig
                .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                .is_some()
            {
                staged += 1;
            }
        }
        assert!(staged > 1000, "flood must actually inject ({staged})");
        std::thread::sleep(std::time::Duration::from_millis(20));
        rig.pump_rx();
        let drops = rig.backend_mut().kernel_drops();
        let seen = rig.backend().rx_seen();
        assert!(
            drops > 0,
            "a 2-block ring cannot absorb {staged} frames (seen {seen}, kernel drops {drops})"
        );

        // State intact: the NAT still forwards a fresh flow end to end.
        let mut nf = ShardedVigNatMb::sharded(c, 2);
        let mut drv = BackendDriver::new(rig);
        drv.drain(&mut nf, Time::from_secs(1)); // clear the flood
        let f = gen.background(9999);
        assert!(drv
            .io_mut()
            .stage(Direction::Internal, |b| gen.write_frame(&f, b))
            .is_some());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut got = Vec::new();
        while got.is_empty() {
            drv.drain(&mut nf, Time::from_secs(2));
            got = drv.io_mut().reap_wait(
                Direction::External,
                1,
                std::time::Duration::from_millis(100),
            );
            assert!(
                std::time::Instant::now() < deadline,
                "post-overrun frame must still be translated and forwarded"
            );
        }
        let (_, ff) = parse_l3l4(&got[0].1).expect("translated frame parses");
        assert_eq!(ff.src_ip, c.external_ip, "NAT rewrite survived the overrun");
        assert_eq!(drv.io().backend().tx_errors(), 0);
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .map(|d| d.count())
            .unwrap_or(0)
    }

    fn mapping_count() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .map(|m| m.lines().count())
            .unwrap_or(0)
    }

    /// Ring teardown is leak-free: repeatedly opening and dropping a
    /// full mmap rig (4 sockets + 4 ring mappings per cycle, traffic
    /// included) leaves the fd table and the address space flat.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI os-backend-integration or sudo"]
    fn mmap_teardown_releases_rings_and_sockets() {
        let c = cfg(64);
        let Some((int_veth, ext_veth)) = wire("vglk") else {
            return;
        };
        let classifier = RssClassifier::for_nat(&c, 2);
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        let cycle = |drive: bool| {
            let mut rig =
                OsTestRig::open_mmap(&int_veth, &ext_veth, classifier, 64).expect("mmap rig opens");
            if drive {
                let mut nf = ShardedVigNatMb::sharded(c, 2);
                let mut drv = BackendDriver::new(rig);
                let f = gen.background(1);
                assert!(drv
                    .io_mut()
                    .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                    .is_some());
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while drv.io().backend().rx_seen() < 1 {
                    drv.drain(&mut nf, Time::from_secs(1));
                    assert!(std::time::Instant::now() < deadline);
                }
                drv.drain(&mut nf, Time::from_secs(1));
                drv.io_mut().flush_tx();
                rig = drv.into_io();
                assert_eq!(rig.backend().tx_inflight(), 0, "quiescent flush reaps all");
            }
            drop(rig);
        };
        // Warm up allocator arenas and lazy runtime state first, so
        // the measured window only sees the rig's own resources.
        cycle(true);
        let fds_before = open_fds();
        let maps_before = mapping_count();
        for i in 0..5 {
            cycle(i % 2 == 0);
        }
        let fds_after = open_fds();
        let maps_after = mapping_count();
        assert_eq!(
            fds_before, fds_after,
            "socket fds leaked across open/drop cycles"
        );
        // One leaked cycle would add 4 ring mappings; allow a line or
        // two of allocator jitter but nothing ring-shaped.
        assert!(
            maps_after <= maps_before + 2,
            "ring mappings leaked: {maps_before} -> {maps_after}"
        );
    }
}
