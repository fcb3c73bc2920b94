//! The two inline workloads, `steady_64k` and `churn_1m`: set-up,
//! measured phases, checks and metrics.

use crate::host::{self, Pinning, Steal};
use crate::inline::{Harness, Load, Phase, PhaseResult};
use crate::report::{
    layer_table, per_pkt, percentile, saturation, slice_rounds, Outcome, Round, Slice,
};
use crate::trace::{TracedNat, DROP_REASONS};
use crate::traffic::{
    Churn, Clock, Established, Expect, Traffic, CHURN_GAP_NS, CHURN_HISTORY, CHURN_LIFETIME_NS,
};
use crate::Args;
use libvig::time::Time;
use netsim::dpdk::{BufIdx, Mempool};
use netsim::{Middlebox, NoopForwarder, Verdict, VigNatMb};
use std::sync::Arc;
use std::time::Instant;
use vig_baselines::UnverifiedNat;
use vig_packet::{Direction, FlowId, Ip4};
use vig_spec::NatConfig;
use vignat::{FlowTable, MAX_BURST};

/// The open-loop offered rate, the same for every workload: well under
/// 5% of any workload's saturation rate.
pub const LATENCY_PPS: u64 = 50_000;
/// Share of `--seconds` spent in the open-loop phase.
pub const LATENCY_SHARE: f64 = 0.2;
/// Virtual time of the first set-up instant.
pub const BASE_NS: u64 = 1_000_000_000;
/// Flows sampled for `flow_manager.probe_len_mean`.
const PROBE_SAMPLE: usize = 4096;

/// Round `n` down to a multiple of 64 (every chunk size), at least 64.
pub fn whole_chunks(n: f64) -> u64 {
    ((n as u64) / 64).max(1) * 64
}

/// A NAT whose flow count and expiry total the model checks.
trait NatState {
    fn flows(&self) -> u64;
    fn expired(&self) -> u64;
}

impl NatState for VigNatMb {
    fn flows(&self) -> u64 {
        self.flow_manager().flow_count() as u64
    }
    fn expired(&self) -> u64 {
        self.expired_total()
    }
}

impl NatState for TracedNat {
    fn flows(&self) -> u64 {
        self.table.flow_count() as u64
    }
    fn expired(&self) -> u64 {
        self.expired_total
    }
}

/// One inline workload's traffic plus what set-up needs.
trait InlineTraffic: Traffic + Clone {
    fn clock(&self) -> Clock;
    /// Admission chunk of the saturation phase.
    fn sat_chunk(&self) -> u64;
    /// First schedule position of the run.
    fn start_seq(&self) -> u64;
    /// Instant of the first run round (the model's starting point).
    fn start_now(&self) -> u64 {
        self.clock().now_ns(self.start_seq())
    }
    /// Populate `nf`; false if a set-up frame was dropped or mistranslated.
    fn setup<M: Middlebox>(&mut self, nf: &mut M, passthrough: bool) -> bool;
    /// Digest of the endpoints set-up learnt (must repeat exactly).
    fn fingerprint(&self) -> u64;
    fn sample_fids(&self, n: usize) -> Vec<FlowId>;
    /// Measure the `netsim::runtime` layer on `len` frames of this
    /// traffic (traced runs), if this workload is where it is measured.
    fn runtime_layer(&self, _o: &mut Outcome, _cfg: NatConfig, _len: u64) -> Option<Pinning> {
        None
    }
}

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Push `frames` through `nf` as one burst arriving on `dir` at `now`;
/// `each(i, verdict, bytes)` sees every result.
fn burst<M: Middlebox>(
    nf: &mut M,
    pool: &mut Mempool,
    dir: Direction,
    now: Time,
    frames: impl Iterator<Item = [u8; 64]>,
    mut each: impl FnMut(usize, Verdict, &[u8]),
) {
    let bufs: Vec<BufIdx> = frames
        .map(|f| {
            let b = pool.get().expect("set-up pool holds a burst");
            pool.write_frame(b, &f);
            b
        })
        .collect();
    let verdicts = nf.process_burst(dir, pool, &bufs, now);
    for (i, (&b, v)) in bufs.iter().zip(verdicts).enumerate() {
        each(i, v, pool.frame(b));
        pool.put(b);
    }
}

pub const STEADY_FLOWS: usize = 60_000;
const STEADY_GAP_NS: u64 = 100;

/// Fig. 14's table: 65,535 slots, 60,000 flows (≈ 92% full), per-class
/// lifetimes far longer than any run.
pub fn steady_cfg() -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(120).nanos(),
        tcp_transitory_ns: Time::from_secs(60).nanos(),
        tcp_established_ns: Time::from_secs(240).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

impl InlineTraffic for Established {
    fn clock(&self) -> Clock {
        Clock {
            base_ns: BASE_NS,
            gap_ns: STEADY_GAP_NS,
            chunk: 64,
        }
    }

    fn sat_chunk(&self) -> u64 {
        64
    }

    fn start_seq(&self) -> u64 {
        0
    }

    fn setup<M: Middlebox>(&mut self, nf: &mut M, passthrough: bool) -> bool {
        setup_established(self, nf, Time(BASE_NS), passthrough)
    }

    fn fingerprint(&self) -> u64 {
        fnv(self
            .endpoints()
            .iter()
            .map(|e| e.map_or(0, |(ip, p)| u64::from(ip.raw()) << 16 | u64::from(p))))
    }

    fn sample_fids(&self, n: usize) -> Vec<FlowId> {
        Established::sample_fids(self, n)
    }

    fn runtime_layer(&self, o: &mut Outcome, cfg: NatConfig, len: u64) -> Option<Pinning> {
        Some(crate::runtime::measure(o, cfg, self, self.clock(), len))
    }
}

/// Open every flow (one outbound frame each, in flow order — the
/// allocation order, which the visit permutation is independent of).
pub fn setup_established<M: Middlebox>(
    t: &mut Established,
    nf: &mut M,
    now: Time,
    passthrough: bool,
) -> bool {
    t.reset();
    let mut pool = Mempool::new(MAX_BURST);
    let mut ok = true;
    for first in (0..t.flows()).step_by(MAX_BURST) {
        let last = (first + MAX_BURST).min(t.flows());
        let frames: Vec<[u8; 64]> = (first..last).map(|k| *t.open_frame(k)).collect();
        burst(
            nf,
            &mut pool,
            Direction::Internal,
            now,
            frames.into_iter(),
            |i, v, bytes| match v {
                Verdict::Forward(out) => ok &= passthrough || t.learn(first + i, out, bytes),
                Verdict::Drop => ok = false,
            },
        );
    }
    ok & t.finish_setup(passthrough)
}

/// The churn table: 2^20 slots over a 17-address pool.
pub fn churn_cfg() -> NatConfig {
    NatConfig {
        capacity: 1 << 20,
        expiry_ns: CHURN_LIFETIME_NS,
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1024,
        ..NatConfig::paper_default()
    }
}

impl InlineTraffic for Churn {
    fn clock(&self) -> Clock {
        churn_clock()
    }

    fn sat_chunk(&self) -> u64 {
        32
    }

    fn start_seq(&self) -> u64 {
        CHURN_HISTORY
    }

    fn setup<M: Middlebox>(&mut self, nf: &mut M, _passthrough: bool) -> bool {
        self.reset_endpoints();
        let mut pool = Mempool::new(MAX_BURST);
        let mut ok = true;
        for (t, flows) in Arc::clone(&self.live_bursts).iter() {
            let frames: Vec<[u8; 64]> = flows.iter().map(|&f| self.flow_frame(f)).collect();
            burst(
                nf,
                &mut pool,
                Direction::Internal,
                Time(*t),
                frames.into_iter(),
                |i, v, bytes| match v {
                    Verdict::Forward(out) => ok &= self.learn(flows[i], out, bytes),
                    Verdict::Drop => ok = false,
                },
            );
        }
        ok
    }

    fn fingerprint(&self) -> u64 {
        fnv(self.endpoints().iter().copied())
    }

    fn sample_fids(&self, n: usize) -> Vec<FlowId> {
        Churn::sample_fids(self, n)
    }
}

fn churn_clock() -> Clock {
    Clock {
        base_ns: BASE_NS,
        gap_ns: CHURN_GAP_NS,
        chunk: 32,
    }
}

/// Saturation frames per second of `--seconds`, per workload: sized so
/// the closed-loop phases fill about two thirds of a run on a 2-vCPU
/// Xeon guest.
const STEADY_SAT_PER_S: f64 = 600_000.0;
const CHURN_SAT_PER_S: f64 = 500_000.0;

pub fn steady(args: &Args) -> Outcome {
    let cfg = steady_cfg();
    let t = Established::new(STEADY_FLOWS, &cfg, args.seed);
    run(args, "steady_64k", cfg, t, STEADY_SAT_PER_S, 5, true)
}

pub fn churn(args: &Args) -> Outcome {
    let cfg = churn_cfg();
    let t = Churn::new(&cfg, args.seed, churn_clock());
    run(args, "churn_1m", cfg, t, CHURN_SAT_PER_S, 3, false)
}

/// Counters that must repeat exactly for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counters {
    forwarded: u64,
    created: u64,
    expired: u64,
    dropped: u64,
}

impl Counters {
    fn line(&self, workload: &str, seed: u64) -> String {
        format!(
            "counters {{\"workload\": \"{workload}\", \"seed\": {seed}, \"forwarded\": {}, \"flows_created\": {}, \"flows_expired\": {}, \"dropped\": {}}}",
            self.forwarded, self.created, self.expired, self.dropped
        )
    }
}

/// Fold a phase's output check into the outcome.
fn account(o: &mut Outcome, what: &str, r: &PhaseResult) {
    o.attempted += r.offered;
    let f = r.failures();
    if f > 0 {
        o.problem(
            f,
            format!(
                "{what}: {} of {} frames failed the output check ({} not forwarded, {} mistranslated)",
                f,
                r.offered,
                r.offered - r.gen.checked.min(r.offered),
                r.gen.bad
            ),
        );
    }
}

/// Check the NAT's state against the traffic model after processing up
/// to `last_now`; `e0` is the model at the start of the run.
fn check_model<N: NatState, T: Traffic>(
    o: &mut Outcome,
    what: &str,
    nf: &N,
    t: &T,
    e0: Expect,
    last_now: u64,
    r: &[&PhaseResult],
) -> Counters {
    let e = t.expect(last_now);
    o.expect_eq(
        &format!("{what}: live flows"),
        nf.flows(),
        e.created - e.expired,
    );
    o.expect_eq(
        &format!("{what}: flows expired during the run"),
        nf.expired(),
        e.expired - e0.expired,
    );
    Counters {
        forwarded: r.iter().map(|p| p.forwarded).sum(),
        created: e.created - e0.created,
        expired: e.expired - e0.expired,
        dropped: r.iter().map(|p| p.dropped + p.tx_dropped).sum(),
    }
}

/// A fresh NAT, populated; checks set-up's own output and state.
fn fresh<N: Middlebox + NatState, T: InlineTraffic>(
    o: &mut Outcome,
    what: &str,
    t: &mut T,
    make: impl FnOnce() -> N,
) -> (N, f64) {
    let t0 = Instant::now();
    let mut nf = make();
    let ok = t.setup(&mut nf, false);
    let secs = t0.elapsed().as_secs_f64();
    if !ok {
        o.problem(
            1,
            format!("{what}: a set-up frame was dropped or mistranslated"),
        );
    }
    let e0 = t.expect(t.start_now());
    o.expect_eq(
        &format!("{what}: flows after set-up"),
        nf.flows(),
        e0.created - e0.expired,
    );
    o.expect_eq(&format!("{what}: expiries during set-up"), nf.expired(), 0);
    (nf, secs)
}

/// Run one inline workload. An end-to-end run sets up `setups` fresh
/// NATs and runs an equal share of the saturation frames, then of the
/// open-loop frames, on each, from the same schedule position. Every NAT
/// must show the same counters, and the statistics pool all of them, so
/// neither one unlucky layout of the table in memory nor one slow spell
/// of the host decides a run.
#[allow(clippy::too_many_arguments)]
fn run<T: InlineTraffic>(
    args: &Args,
    name: &str,
    cfg: NatConfig,
    traffic: T,
    sat_per_s: f64,
    setups: u64,
    baselines: bool,
) -> Outcome {
    let mut o = Outcome::default();
    let allowed = host::allowed_cpus();
    let dut_pinned = host::pin(allowed[0]);
    let gen_cpu = allowed.get(1).copied();
    let mut h = Harness::new(traffic.clock(), gen_cpu);
    let start = traffic.start_seq();
    let setups = if args.trace { 1 } else { setups };
    let chunk = traffic.sat_chunk();
    // A traced run measures half the saturation length per NF: it runs
    // the untraced and traced NAT and, on `steady_64k`, three references.
    let shares = if args.trace { 2.0 } else { setups as f64 };
    let sub_len = whole_chunks(args.seconds as f64 * sat_per_s / shares);
    let sat = Phase {
        start,
        len: sub_len,
        chunk,
        load: Load::Closed,
        traced: false,
        slice_rounds: slice_rounds(sub_len / chunk * setups),
    };
    let lat_len =
        whole_chunks(args.seconds as f64 * LATENCY_SHARE * LATENCY_PPS as f64 / setups as f64);
    let lat = Phase {
        start: start + sub_len,
        len: lat_len,
        chunk: 1,
        load: Load::Open {
            period_ns: 1_000_000_000 / LATENCY_PPS,
        },
        traced: false,
        slice_rounds: u64::MAX,
    };
    let e0 = traffic.expect(traffic.start_now());
    let last_sat_now = Clock {
        chunk,
        ..traffic.clock()
    }
    .now_ns(start + sub_len - 1);
    let last_now = Clock {
        chunk: 1,
        ..traffic.clock()
    }
    .now_ns(start + sub_len + lat_len - 1);

    // Both modes run the untraced measurement first.
    let mut setup_s = Vec::new();
    let mut fingerprint = None;
    let mut sat_counters = None;
    let mut counters = None;
    let mut sats = Vec::new();
    let mut lats = Vec::new();
    let ticks0 = host::cpu_ticks();
    for k in 0..setups {
        let mut t = traffic.clone();
        let (mut nat, secs) = fresh(&mut o, &format!("set-up {k}"), &mut t, || {
            VigNatMb::new(cfg)
        });
        setup_s.push(secs);
        let fp = t.fingerprint();
        if fingerprint.is_some_and(|f| f != fp) {
            o.problem(
                1,
                format!("set-up {k} translated flows differently from set-up 0"),
            );
        }
        fingerprint = Some(fp);
        let s = h.run_phase(&mut nat, &mut t, &sat);
        account(&mut o, "saturation phase", &s);
        let sc = check_model(
            &mut o,
            &format!("NAT {k} after saturation"),
            &nat,
            &t,
            e0,
            last_sat_now,
            &[&s],
        );
        let l = h.run_phase(&mut nat, &mut t, &lat);
        account(&mut o, "open-loop phase", &l);
        let c = check_model(
            &mut o,
            &format!("NAT {k} after the open loop"),
            &nat,
            &t,
            e0,
            last_now,
            &[&s, &l],
        );
        if counters.is_some_and(|first| first != c) {
            o.problem(1, format!("NAT {k} counters {c:?} differ from NAT 0's"));
        }
        sat_counters = Some(sc);
        counters = Some(c);
        sats.push(s);
        lats.push(l);
    }
    let sat_counters = sat_counters.expect("at least one set-up");
    let counters = counters.expect("at least one set-up");
    let steal = Steal::between(ticks0, host::cpu_ticks());
    let mut lag: Vec<u64> = lats
        .iter()
        .flat_map(|l| l.gen.lag_ns.iter().copied())
        .collect();
    let lag_p99_us = percentile(&mut lag, 99.0) / 1e3;
    let mut latency: Vec<u64> = lats
        .iter()
        .flat_map(|l| l.latency_ns.iter().copied())
        .collect();
    let untraced_ns = per_pkt(sats[0].dut_ns, sats[0].forwarded);

    if !args.trace {
        let rounds: Vec<Round> = sats.iter().flat_map(|r| r.rounds.iter().copied()).collect();
        let slices: Vec<Slice> = sats.iter().flat_map(|r| r.slices.iter().copied()).collect();
        let (mpps, p50, p99) = saturation(&rounds, &slices);
        o.set("throughput_mpps", mpps);
        o.set("service_p50_ns", p50);
        o.set("service_p99_ns", p99);
        o.set("latency_p50_us", percentile(&mut latency, 50.0) / 1e3);
        o.set("setup_s", percentile(&mut setup_s, 50.0));
        o.set("peak_rss_mb", host::peak_rss_mb());
        o.lines.push(format!(
            "samples {{\"service_rounds\": {}, \"slices\": {}, \"latency_frames\": {}, \"setup_runs\": {}}}",
            rounds.len(),
            slices.len(),
            latency.len(),
            setup_s.len()
        ));
    } else {
        // The traced run: same schedule from the same set-up, through the
        // traced NAT with every span on.
        let mut t = traffic.clone();
        let (mut nat, _) = fresh(&mut o, "traced set-up", &mut t, || TracedNat::new(cfg));
        nat.reset_spans();
        h.set_traced(true);
        let tr = h.run_phase(
            &mut nat,
            &mut t,
            &Phase {
                traced: true,
                ..sat
            },
        );
        let io = h.io_spans();
        h.set_traced(false);
        account(&mut o, "traced saturation phase", &tr);
        let traced_counters = check_model(
            &mut o,
            "after traced saturation",
            &nat,
            &t,
            e0,
            last_sat_now,
            &[&tr],
        );
        if traced_counters != sat_counters {
            o.problem(
                1,
                format!(
                    "traced counters {traced_counters:?} differ from untraced {sat_counters:?}"
                ),
            );
        }
        let fids = t.sample_fids(PROBE_SAMPLE);
        let probe_len = fids
            .iter()
            .map(|f| nat.table.inner.internal_probe_len(f))
            .sum::<usize>() as f64
            / fids.len().max(1) as f64;
        let n = tr.forwarded;
        let ts = nat.table.spans();
        let traced_ns = per_pkt(tr.dut_ns, n);
        let rx = per_pkt(io.rx.ns, n);
        let tx = per_pkt(io.tx.ns, n);
        let mb = per_pkt(nat.middlebox.ns, n);
        let lb = per_pkt(nat.loop_body.ns, n);
        let fm = per_pkt(ts.total_ns(), n);
        let ev = per_pkt(tr.round_span.ns, n) - rx - tx - mb;
        o.set("backend.rx_ns_per_pkt", rx);
        o.set("backend.tx_ns_per_pkt", tx);
        o.set(
            "backend.pool_free_mean",
            io.pool_free_sum as f64 / io.puts.max(1) as f64,
        );
        o.set("eventloop.self_ns_per_pkt", ev);
        o.set(
            "eventloop.pkts_per_burst",
            n as f64 / tr.bursts.max(1) as f64,
        );
        o.set(
            "eventloop.idle_poll_ratio",
            lats[0].idle_polls as f64 / lats[0].polls.max(1) as f64,
        );
        o.set("middlebox.ns_per_pkt", mb);
        o.set("middlebox.self_ns_per_pkt", mb - lb);
        o.set("loop_body.self_ns_per_pkt", lb - fm);
        for (i, (_, name)) in DROP_REASONS.iter().enumerate() {
            o.set(name, nat.drops[i] as f64);
        }
        o.set("flow_manager.self_ns_per_pkt", fm);
        o.set(
            "flow_manager.probe_ns_per_query",
            per_pkt(ts.probe_batch.ns, ts.probe_queries),
        );
        o.set(
            "flow_manager.lookup_external_ns",
            ts.lookup_external.per(ts.lookup_external.calls),
        );
        o.set(
            "flow_manager.rejuvenate_ns",
            ts.rejuvenate.per(ts.rejuvenate.calls),
        );
        o.set("flow_manager.probe_len_mean", probe_len);
        o.set(
            "flow_manager.allocate_ns",
            ts.allocate.per(ts.allocate.calls),
        );
        o.set(
            "flow_manager.expire_ns_per_burst",
            ts.expire.per(ts.expire.calls),
        );
        o.set(
            "flow_manager.expired_per_burst",
            per_pkt(ts.expired, ts.expire.calls),
        );
        o.set(
            "flow_manager.probe_hit_ratio",
            per_pkt(ts.probe_hits, ts.probe_queries),
        );
        o.set("gen.latency_p99_us", percentile(&mut latency, 99.0) / 1e3);
        o.set("trace.traced_ns_per_pkt", traced_ns);
        o.set("trace.untraced_ns_per_pkt", untraced_ns);
        o.set(
            "trace.overhead_pct",
            100.0 * (traced_ns - untraced_ns) / untraced_ns,
        );
        o.set(
            "trace.unattributed_pct",
            100.0 * (traced_ns - per_pkt(tr.round_span.ns, n)) / traced_ns,
        );
        o.lines.extend(layer_table(
            name,
            &[
                ("backend.rx", rx),
                ("backend.tx", tx),
                ("eventloop (self)", ev),
                ("middlebox (self)", mb - lb),
                ("loop_body (self)", lb - fm),
                ("flow_manager", fm),
            ],
            traced_ns,
            untraced_ns,
        ));
        drop(nat);
        if baselines {
            let r = baseline(
                &mut o,
                &mut h,
                &traffic,
                UnverifiedNat::new(cfg),
                false,
                "unverified baseline",
                &sat,
            );
            o.set("baselines.unverified_ns_per_pkt", r);
            let r = baseline(
                &mut o,
                &mut h,
                &traffic,
                NoopForwarder::new(),
                true,
                "noop baseline",
                &sat,
            );
            o.set("baselines.noop_ns_per_pkt", r);
        }
        o.set("counters.forwarded", sat_counters.forwarded as f64);
        o.set("counters.flows_created", sat_counters.created as f64);
        o.set("counters.flows_expired", sat_counters.expired as f64);
        o.set("counters.dropped", sat_counters.dropped as f64);
    }
    let runtime_pin = if args.trace {
        traffic.runtime_layer(&mut o, cfg, whole_chunks(sub_len as f64 / 2.0))
    } else {
        None
    };
    o.set("gen.lag_us_p99", lag_p99_us);
    o.set("host.steal_pct", steal.pct);
    o.lines.push(counters.line(name, args.seed));
    let pin = Pinning {
        requested: true,
        threads: 2,
        pinned: usize::from(dut_pinned) + usize::from(sats[0].gen.pinned),
        host_cores: allowed.len(),
    };
    o.lines.insert(
        0,
        format!(
            "host {}",
            host::record_json(pin, runtime_pin, steal, lag_p99_us)
        ),
    );
    o
}

/// A reference NF's ns/pkt on the same saturation schedule, through the
/// same harness (untraced; its output is checked like the NAT's).
fn baseline<M: Middlebox, T: InlineTraffic>(
    o: &mut Outcome,
    h: &mut Harness,
    traffic: &T,
    mut nf: M,
    passthrough: bool,
    what: &str,
    sat: &Phase,
) -> f64 {
    let mut t = traffic.clone();
    if !t.setup(&mut nf, passthrough) {
        o.problem(
            1,
            format!("{what}: a set-up frame was dropped or mistranslated"),
        );
    }
    let r = h.run_phase(&mut nf, &mut t, sat);
    account(o, what, &r);
    per_pkt(r.dut_ns, r.forwarded)
}
