//! The `netsim::runtime` layer, measured in `steady_64k`'s traced run.
//!
//! The same saturation bursts go through the persistent pinned shard
//! runtime (`ParallelShardedNat::with_runtime`, one shard, one worker)
//! and through an inline one-shard NAT. The inline NAT's time is the
//! NAT's share of the runtime's per-packet cost; the rest is the hop
//! (encode → SPSC → worker → merge). The dispatcher stages and checks
//! frames inline, so two threads are busy: the dispatcher and the worker.

use crate::host::{self, Pinning};
use crate::report::{per_pkt, Outcome};
use crate::traffic::{Clock, Established, Frame, Traffic, FRAME_LEN};
use crate::workloads::setup_established;
use libvig::time::Time;
use netsim::dpdk::{BufIdx, Mempool};
use netsim::harness::{NatRuntimeSession, ParallelShardedNat};
use netsim::middlebox::ShardedVigNatMb;
use netsim::runtime::SupervisorStats;
use netsim::{Middlebox, Verdict, VigNatMb};
use std::time::Instant;
use vig_packet::Direction;
use vig_spec::NatConfig;
use vignat::MAX_BURST;

/// Frames per round: 32 outbound then 32 return, one burst each.
const CHUNK: u64 = 64;

fn events(s: SupervisorStats) -> u64 {
    s.worker_downs + s.hard_deaths + s.backpressure_drops + s.pool_denied + s.frames_lost
}

/// The inline NAT fed the same bursts as the runtime. Its output must
/// equal the runtime's byte for byte.
struct Reference {
    nf: ShardedVigNatMb,
    pool: Mempool,
    ns: u64,
}

impl Reference {
    /// Run `frames` (pre-NAT bytes) and compare with the runtime's
    /// verdicts and rewritten frames; returns the mismatches.
    fn burst(
        &mut self,
        dir: Direction,
        frames: &[Frame],
        now: Time,
        got: &[Verdict],
        rewritten: &[Vec<u8>],
    ) -> u64 {
        let bufs: Vec<BufIdx> = frames
            .iter()
            .map(|f| {
                let b = self.pool.get().expect("reference pool holds a burst");
                self.pool.write_frame(b, f);
                b
            })
            .collect();
        let t0 = Instant::now();
        let v = self.nf.process_burst(dir, &mut self.pool, &bufs, now);
        self.ns += t0.elapsed().as_nanos() as u64;
        let mut bad = 0;
        for (i, &b) in bufs.iter().enumerate() {
            if v[i] != got[i] || self.pool.frame(b) != rewritten[i].as_slice() {
                bad += 1;
            }
            self.pool.put(b);
        }
        bad
    }
}

#[derive(Default)]
struct Tally {
    forwarded: u64,
    bad: u64,
    mismatches: u64,
    /// Dispatcher time inside `process_burst`.
    runtime_ns: u64,
}

/// Check one burst's verdicts and frames.
fn check(t: &mut Established, seqs: &[u64], v: &[Verdict], frames: &[Vec<u8>], r: &mut Tally) {
    for ((&seq, v), f) in seqs.iter().zip(v).zip(frames) {
        if let Verdict::Forward(out) = v {
            r.forwarded += 1;
            if !t.check(seq, *out, f) {
                r.bad += 1;
            }
        }
    }
}

/// Closed loop over schedule positions `0..len`: every round stages 64
/// frames and runs both bursts through the runtime, then the reference.
fn saturate(
    s: &mut NatRuntimeSession<'_>,
    t: &mut Established,
    clock: Clock,
    len: u64,
    re: &mut Reference,
) -> Tally {
    let mut r = Tally::default();
    let half = CHUNK as usize / 2;
    let mut frames = [
        vec![vec![0u8; FRAME_LEN]; half],
        vec![vec![0u8; FRAME_LEN]; half],
    ];
    let mut sent: [Vec<Frame>; 2] = [vec![[0; FRAME_LEN]; half], vec![[0; FRAME_LEN]; half]];
    let mut seqs = [vec![0u64; half], vec![0u64; half]];
    let mut f = [0u8; FRAME_LEN];
    for round in (0..len).step_by(CHUNK as usize) {
        let mut n = [0usize; 2];
        for seq in round..round + CHUNK {
            let p = match t.frame(seq, &mut f) {
                Direction::Internal => 0,
                Direction::External => 1,
            };
            frames[p][n[p]].copy_from_slice(&f);
            sent[p][n[p]] = f;
            seqs[p][n[p]] = seq;
            n[p] += 1;
        }
        let now = Time(clock.now_ns(round));
        let t0 = Instant::now();
        let vi = s.process_burst(Direction::Internal, &mut frames[0][..n[0]], now);
        let ve = s.process_burst(Direction::External, &mut frames[1][..n[1]], now);
        r.runtime_ns += t0.elapsed().as_nanos() as u64;
        r.mismatches += re.burst(
            Direction::Internal,
            &sent[0][..n[0]],
            now,
            &vi,
            &frames[0][..n[0]],
        );
        r.mismatches += re.burst(
            Direction::External,
            &sent[1][..n[1]],
            now,
            &ve,
            &frames[1][..n[1]],
        );
        check(t, &seqs[0][..n[0]], &vi, &frames[0][..n[0]], &mut r);
        check(t, &seqs[1][..n[1]], &ve, &frames[1][..n[1]], &mut r);
    }
    r
}

/// Open all flows through the session; false on a drop or mistranslation.
fn populate(s: &mut NatRuntimeSession<'_>, t: &mut Established, now: Time) -> bool {
    t.reset();
    let mut ok = true;
    for first in (0..t.flows()).step_by(MAX_BURST) {
        let last = (first + MAX_BURST).min(t.flows());
        let mut frames: Vec<Vec<u8>> = (first..last).map(|k| t.open_frame(k).to_vec()).collect();
        let v = s.process_burst(Direction::Internal, &mut frames, now);
        for (i, (v, f)) in v.iter().zip(&frames).enumerate() {
            ok &= matches!(v, Verdict::Forward(out) if t.learn(first + i, *out, f));
        }
    }
    ok & t.finish_setup(false)
}

/// Measure the runtime layer on `len` frames of `traffic`'s schedule and
/// record its metrics and checks in `o`. Returns how pinning went.
pub fn measure(
    o: &mut Outcome,
    cfg: NatConfig,
    traffic: &Established,
    clock: Clock,
    len: u64,
) -> Pinning {
    assert!(len.is_multiple_of(CHUNK), "whole rounds only");
    let mut reference = Reference {
        nf: VigNatMb::sharded(cfg, 1),
        pool: Mempool::new(MAX_BURST),
        ns: 0,
    };
    let mut rt = traffic.clone();
    if !setup_established(&mut rt, &mut reference.nf, Time(clock.base_ns), false) {
        o.problem(1, "runtime layer: the inline NAT's set-up failed".into());
    }
    let allowed = host::allowed_cpus();
    let mut t = traffic.clone();
    // On a fresh, unpinned thread, the session sees the process's whole
    // CPU set and pins its worker to the first CPU; the dispatcher then
    // pins itself to the last.
    let (ok, tally, sup, pin, dispatcher_pinned) = std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut par = ParallelShardedNat::new(cfg, 1, CHUNK as usize);
            let ((ok, tally, sup, pinned), report) = par.with_runtime(true, |s| {
                let pinned = allowed.len() > 1 && host::pin(allowed[allowed.len() - 1]);
                let ok = populate(s, &mut t, Time(clock.base_ns));
                let tally = saturate(s, &mut t, clock, len, &mut reference);
                (ok, tally, s.supervisor(), pinned)
            });
            (ok, tally, sup, report.pin, pinned)
        })
        .join()
        .expect("dispatcher thread panicked")
    });
    if !ok {
        o.problem(
            1,
            "runtime layer: a set-up frame was dropped or mistranslated".into(),
        );
    }
    if t.endpoints() != rt.endpoints() {
        o.problem(
            1,
            "runtime layer: the runtime and the inline NAT translated set-up differently".into(),
        );
    }
    o.attempted += len;
    let failures = (len - tally.forwarded) + tally.bad + tally.mismatches;
    if failures > 0 {
        o.problem(
            failures,
            format!(
                "runtime layer: {} not forwarded, {} mistranslated, {} differ from the inline NAT",
                len - tally.forwarded,
                tally.bad,
                tally.mismatches
            ),
        );
    }
    o.expect_eq("runtime layer: supervisor events", events(sup), 0);
    let runtime = per_pkt(tally.runtime_ns, tally.forwarded);
    let inline = per_pkt(reference.ns, tally.forwarded);
    o.set("runtime.ns_per_pkt", runtime);
    o.set("runtime.hop_ns_per_pkt", runtime - inline);
    o.set("runtime.supervisor_events", events(sup) as f64);
    o.lines.push(format!(
        "runtime layer: {runtime:.1} ns/pkt through the runtime = {inline:.1} inline NAT + {:.1} hop",
        runtime - inline
    ));
    Pinning {
        requested: pin.requested,
        threads: pin.workers + 1,
        pinned: pin.pinned + usize::from(dispatcher_pinned),
        host_cores: pin.host_cores,
    }
}
