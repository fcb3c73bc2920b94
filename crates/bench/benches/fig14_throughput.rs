//! FIG14 — reproduction of the paper's Figure 14: "Maximum throughput
//! with a maximum loss rate of 0.1%" as a function of the number of
//! flows, for No-op, Unverified NAT, Verified NAT and the Linux
//! (NetFilter) NAT.
//!
//! Methodology (RFC 2544, as in the paper): for each flow count, the
//! NF's steady-state per-packet service times are measured on the
//! all-hits workload ("flows that never expire, each producing 64-byte
//! packets"), MAD outlier rejection removes timer-noise samples (a
//! descheduled burst inflates a handful of samples by 100x and would
//! otherwise dominate the loss search — the rejected count is
//! reported), then the highest offered rate whose bounded-ring queue
//! simulation loses ≤ 0.1% of packets is found by binary search.
//!
//! Beyond the paper's figure, this bench also reports:
//!
//! * **real-clock mode** (`*_sysclock` series): the same NATs wrapped
//!   in [`SystemClockMb`], which reads the host's monotonic clock per
//!   process call instead of trusting the harness's virtual time — the
//!   per-packet fixed cost a production loop pays and the burst path
//!   amortizes, reported side by side with the virtual-time numbers;
//! * **the multi-queue sweep** (`multiqueue_sweep` object): the
//!   event-driven driver (`netsim::eventloop`) feeding an N-shard NAT
//!   from Q RSS-classified queues, swept over (queues × shards);
//! * **million-flow churn** (`churn` object): the sustained rate at
//!   2^20 table slots under continuous flow arrival and expiry (the
//!   dchain's LRU lists), plus a Fig. 13-style latency CCDF of
//!   per-packet service time under churn;
//! * **bootstrap confidence intervals**: every main-series rate point
//!   carries a 95% CI from resampling per-trial rates
//!   ([`search_rate_with_ci`]), so run-to-run noise on shared CI hosts
//!   is visible in the committed trajectory instead of silently baked
//!   into point estimates.
//!
//! Paper result: Verified 1.8 Mpps ≈ 10% below Unverified 2.0 Mpps,
//! both far above Linux 0.6 Mpps, No-op highest, all flat in the flow
//! count. The shape checks below encode exactly those claims.
//!
//! Run: `cargo bench -p vig-bench --bench fig14_throughput`

use libvig::time::Time;
use netsim::backend::SimBackend;
use netsim::eventloop::event_driven_service_times;
use netsim::frame_env::RssClassifier;
use netsim::harness::{
    parallel_scaling_curve, search_rate_filtered, search_rate_with_ci, sharded_throughput_sweep,
    steady_state_service_times, steady_state_service_times_batched, LatencySamples, RateEstimate,
    Testbed,
};
use netsim::middlebox::{
    Middlebox, NoopForwarder, ShardedVigNatMb, SystemClockMb, Verdict, VigNatMb,
};
use netsim::tester::FlowGen;
use std::hint::black_box;
use std::time::Instant;
use vig_baselines::{NetfilterNat, UnverifiedNat};
use vig_bench::{flow_sweep, print_table, throughput_packets, write_result_json};
use vig_packet::builder::PacketBuilder;
use vig_packet::{Direction, Ip4, Proto};
use vig_spec::NatConfig;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(60).nanos(), // flows never expire mid-run
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

/// One throughput measurement with the bootstrap 95% CI: the point
/// estimate is the RFC 2544 search over the full filtered series
/// (identical to the committed PR 3 methodology), the interval comes
/// from resampling per-trial rates ([`search_rate_with_ci`]).
fn measure(nf: &mut dyn Middlebox, flows: usize) -> RateEstimate {
    let mut tb = Testbed::new(512);
    let svc = steady_state_service_times(
        nf,
        &mut tb,
        flows,
        throughput_packets(),
        Time::from_secs(60).nanos(),
    );
    search_rate_with_ci(&svc, 512)
}

/// [`measure`] through the batched fast path.
fn measure_batched(nf: &mut dyn Middlebox, flows: usize) -> RateEstimate {
    let mut tb = Testbed::new(512);
    let svc = steady_state_service_times_batched(
        nf,
        &mut tb,
        flows,
        throughput_packets(),
        Time::from_secs(60).nanos(),
    );
    search_rate_with_ci(&svc, 512)
}

/// Million-flow churn: table capacity (2^20 slots — a multi-address
/// endpoint pool, 17 external IPs at this start port).
const CHURN_CAP: usize = 1 << 20;
/// Flows kept alive by refreshes at any instant (the sliding window).
const CHURN_ACTIVE: usize = 800_000;
/// Every `CHURN_NEW_EVERY`-th packet opens a brand-new flow (and slides
/// the window by one, abandoning its oldest flow to the expirator).
const CHURN_NEW_EVERY: usize = 8;
/// Virtual nanoseconds per packet (4 Mpps offered in virtual time).
const CHURN_DT_NS: u64 = 250;
/// Flow expiry under churn. The round-robin refresh revisits every
/// window flow within `CHURN_ACTIVE` packets = 200 ms of virtual time,
/// safely inside this timeout, so only abandoned flows expire.
const CHURN_TEXP_NS: u64 = 350_000_000;

fn churn_cfg() -> NatConfig {
    NatConfig {
        capacity: CHURN_CAP,
        expiry_ns: CHURN_TEXP_NS,
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1024,
        ..NatConfig::paper_default()
    }
}

/// The deterministic churn schedule: a sliding window of
/// [`CHURN_ACTIVE`] live flows, refreshed round-robin, with every
/// [`CHURN_NEW_EVERY`]-th packet opening a new flow and retiring the
/// window's oldest. Deterministic, so expiry counts repeat exactly
/// from run to run.
struct ChurnSched {
    wbase: usize,
    next_new: usize,
    rr: usize,
    seq: usize,
}

impl ChurnSched {
    fn new() -> ChurnSched {
        ChurnSched {
            wbase: 0,
            next_new: CHURN_ACTIVE,
            rr: 0,
            seq: 0,
        }
    }

    /// Flow index for the next packet.
    fn next_flow(&mut self) -> usize {
        let flow = if self.seq.is_multiple_of(CHURN_NEW_EVERY) {
            self.wbase += 1;
            self.next_new += 1;
            self.next_new - 1
        } else {
            let f = self.wbase + (self.rr % CHURN_ACTIVE);
            self.rr += 1;
            f
        };
        self.seq += 1;
        flow
    }
}

/// What one churn run measured.
struct ChurnOutcome {
    svc: LatencySamples,
    expired: u64,
    occupancy_end: usize,
    new_flows: usize,
}

/// Drive the verified NAT through sustained million-flow churn and
/// record per-packet service times over `measured` packets.
///
/// Phases: fill the window (one packet per flow, timestamps staggered),
/// run unmeasured churn for one expiry timeout so the arrival/expiry
/// pipeline reaches steady state (abandoned flows start draining), then
/// measure. Frames are built outside the timed region; each timed
/// packet pays the full loop-body cost — clock-guarded expiry drain,
/// lookup or allocation, rejuvenation, header rewrite.
fn churn_service_times(measured: usize) -> ChurnOutcome {
    let frame_of = |i: usize| {
        PacketBuilder::udp(
            Ip4(0x0a00_0000 | (i as u32 & 0x00ff_ffff)),
            Ip4::new(1, 1, 1, 1),
            9_999,
            53,
        )
        .build()
    };
    let mut nf = VigNatMb::new(churn_cfg());
    let mut now = 0u64;
    for i in 0..CHURN_ACTIVE {
        now += CHURN_DT_NS;
        let mut f = frame_of(i);
        let v = nf.process(Direction::Internal, &mut f, Time(now));
        assert!(matches!(v, Verdict::Forward(_)), "fill must forward");
    }
    let mut sched = ChurnSched::new();
    // Expiries are counted from the start of churn (warmup included):
    // they cluster unevenly across the refresh cycle, so the measured
    // window alone could legitimately catch none.
    let expired_before = nf.expired_total();
    let warm = (CHURN_TEXP_NS / CHURN_DT_NS) as usize + 200_000;
    for _ in 0..warm {
        now += CHURN_DT_NS;
        let mut f = frame_of(sched.next_flow());
        let v = nf.process(Direction::Internal, &mut f, Time(now));
        assert!(matches!(v, Verdict::Forward(_)), "warmup must forward");
    }
    let new_before = sched.next_new;
    let mut samples = Vec::with_capacity(measured);
    for _ in 0..measured {
        now += CHURN_DT_NS;
        let mut f = frame_of(sched.next_flow());
        let t0 = Instant::now();
        let v = nf.process(Direction::Internal, black_box(&mut f), Time(now));
        samples.push(t0.elapsed().as_nanos() as u64);
        assert!(
            matches!(v, Verdict::Forward(_)),
            "steady-state churn must forward (occupancy stays below capacity by design)"
        );
    }
    ChurnOutcome {
        svc: LatencySamples { ns: samples },
        expired: nf.expired_total() - expired_before,
        occupancy_end: nf.flow_manager().len(),
        new_flows: sched.next_new - new_before,
    }
}

fn main() {
    let sweep = flow_sweep();
    let mut rows = Vec::new();
    let mut series: [Vec<f64>; 7] = Default::default();
    let mut outliers_total = 0usize;

    let mut cis: [Vec<(f64, f64)>; 7] = Default::default();
    for &n in &sweep {
        let noop = measure(&mut NoopForwarder::new(), n);
        let unv = measure(&mut UnverifiedNat::new(cfg()), n);
        let ver = measure(&mut VigNatMb::new(cfg()), n);
        let verb = measure_batched(&mut VigNatMb::new(cfg()), n);
        let lin = measure(&mut NetfilterNat::new(cfg()), n);
        // Real-clock mode: the same NAT reading the host clock per
        // process call / per burst — side by side with virtual time.
        let ver_sys = measure(
            &mut SystemClockMb::new(VigNatMb::new(cfg()), "Verified NAT (sysclock)"),
            n,
        );
        let verb_sys = measure_batched(
            &mut SystemClockMb::new(VigNatMb::new(cfg()), "Verified batched (sysclock)"),
            n,
        );
        let all = [&noop, &unv, &ver, &lin, &verb, &ver_sys, &verb_sys];
        outliers_total += all.iter().map(|e| e.outliers_rejected).sum::<usize>();
        for (i, est) in all.into_iter().enumerate() {
            series[i].push(est.mpps);
            cis[i].push((est.ci95_lo_mpps, est.ci95_hi_mpps));
        }
        rows.push(vec![
            format!("{}", n / 1000),
            format!("{:.2}", noop.mpps),
            format!("{:.2}", unv.mpps),
            format!("{:.2}", ver.mpps),
            format!(
                "{:.2} [{:.2},{:.2}]",
                verb.mpps, verb.ci95_lo_mpps, verb.ci95_hi_mpps
            ),
            format!("{:.2}", ver_sys.mpps),
            format!("{:.2}", verb_sys.mpps),
            format!("{:.2}", lin.mpps),
        ]);
    }
    print_table(
        "FIG14: max throughput at <=0.1% loss (Mpps) vs flows",
        &[
            "flows (k)",
            "No-op",
            "Unverified NAT",
            "Verified NAT",
            "Verified (batched)",
            "Verified (sysclock)",
            "Batched (sysclock)",
            "Linux NAT",
        ],
        &rows,
    );
    println!(
        "paper reference: No-op > Unverified 2.0 > Verified 1.8 (-10%) >> Linux 0.6 Mpps, flat"
    );
    println!(
        "(MAD outlier rejection dropped {outliers_total} service-time samples across the run)"
    );

    // Machine-readable trajectory: Mpps per flow count for all series,
    // plus p50/p99 steady-state service times for the verified NAT in
    // both modes at the largest flow count.
    let (p50_seq, p99_seq, p50_bat, p99_bat) = {
        let flows = *sweep.last().expect("non-empty sweep");
        let texp = Time::from_secs(60).nanos();
        let pkts = throughput_packets() / 4;
        let mut tb = Testbed::new(512);
        let mut nf = VigNatMb::new(cfg());
        let s = steady_state_service_times(&mut nf, &mut tb, flows, pkts, texp);
        let mut tb = Testbed::new(512);
        let mut nf = VigNatMb::new(cfg());
        let b = steady_state_service_times_batched(&mut nf, &mut tb, flows, pkts, texp);
        (
            s.percentile(0.5),
            s.percentile(0.99),
            b.percentile(0.5),
            b.percentile(0.99),
        )
    };
    // Shard-count sweep (sharded flow table): per-shard batched service
    // times measured on real code at 50% occupancy, aggregated under
    // the multi-queue RSS model (N independent RX queues, one core
    // each); plus the wall-clock rate of the std::thread driver on
    // *this* host for honesty — it only scales when the host has the
    // cores the model assumes.
    let shard_counts = [1usize, 2, 4];
    let occupancy = 0.5;
    let points = sharded_throughput_sweep(
        &cfg(),
        &shard_counts,
        occupancy,
        throughput_packets() / 4,
        Time::from_secs(60).nanos(),
        512,
    );
    // The scaling curve: the *persistent pinned runtime* measured
    // end-to-end (dispatcher → SPSC rings → pinned workers → merge)
    // with the same RFC 2544 search + bootstrap CI as every other rate
    // here, at 1/2/4 workers. All wall-clock: these numbers only scale
    // when the host has the cores, and the per-point pin attribution
    // (pinned_workers, host_cores) says whether it did.
    let worker_counts = [1usize, 2, 4];
    let curve = parallel_scaling_curve(
        &cfg(),
        &worker_counts,
        occupancy,
        throughput_packets() / 8,
        512,
    );
    let wall_point = curve
        .points
        .iter()
        .find(|p| p.workers == 2)
        .expect("curve includes 2 workers");
    let wall_mpps = wall_point.wallclock_mpps;
    let wall_workers = wall_point.workers;
    let wall_pinned = wall_point.pinned_workers;
    let pinning_requested = curve.pinning_requested;
    let cores = curve.host_cores;
    let shard_rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.shards),
                format!("{:.2}", p.mpps),
                format!("{:.0}k", p.steps_per_sec / 1e3),
                format!("{:.1}", p.mean_step_ns),
                format!("{:.2}x", p.mpps / points[0].mpps),
            ]
        })
        .collect();
    print_table(
        "FIG14b: sharded NAT, multi-queue aggregate at 50% occupancy",
        &["shards", "Mpps", "steps/s", "mean step (ns)", "vs 1 shard"],
        &shard_rows,
    );
    println!(
        "  (persistent pinned runtime wall-clock at 2 workers on this {cores}-core host: {wall_mpps:.2} Mpps, {}/{} workers pinned)",
        wall_point.pinned_workers, wall_point.workers
    );

    let curve_rows: Vec<Vec<String>> = curve
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.workers),
                format!(
                    "{:.2} [{:.2},{:.2}]",
                    p.mpps, p.ci95_lo_mpps, p.ci95_hi_mpps
                ),
                format!("{:.2}", p.wallclock_mpps),
                format!("{:.1}", p.mean_step_ns),
                format!("{}/{}", p.pinned_workers, p.workers),
            ]
        })
        .collect();
    print_table(
        &format!("FIG14d: pinned-runtime scaling curve, wall-clock RFC 2544 ({cores}-core host)"),
        &[
            "workers",
            "Mpps [ci95]",
            "wallclock Mpps",
            "mean step (ns)",
            "pinned",
        ],
        &curve_rows,
    );

    // Multi-queue event-driven sweep (queues × shards): the epoll-style
    // driver feeding the N-shard NAT from Q RSS-classified queues, on
    // one core — what the event loop costs relative to the lockstep
    // single-queue drain, and how it scales in queues and shards. The
    // measurement runs through the backend-generic driver over
    // `SimBackend` (the PacketIo seam `backend::os::OsBackend` plugs
    // into), so this series prices exactly the event loop the live NAT
    // ships with.
    let mq_combos: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 2), (4, 4)];
    let mq_flows = (cfg().capacity as f64 * occupancy) as usize;
    let mut mq_points = Vec::new();
    for &(queues, shards) in &mq_combos {
        let mut nf = ShardedVigNatMb::sharded(cfg(), shards);
        let (svc, _io) = event_driven_service_times(
            SimBackend::new(RssClassifier::for_nat(&cfg(), queues), 512),
            &mut nf,
            &FlowGen::new(Proto::Udp),
            mq_flows,
            throughput_packets() / 4,
            Time::from_secs(60).nanos(),
        );
        let (mpps, mean, rejected) = search_rate_filtered(&svc, 512);
        mq_points.push((queues, shards, mpps, mean, rejected));
    }
    let mq_rows: Vec<Vec<String>> = mq_points
        .iter()
        .map(|&(q, s, mpps, mean, rej)| {
            vec![
                format!("{q}"),
                format!("{s}"),
                format!("{mpps:.2}"),
                format!("{mean:.1}"),
                format!("{rej}"),
            ]
        })
        .collect();
    print_table(
        "FIG14c: event-driven multi-queue driver at 50% occupancy (one core)",
        &["queues", "shards", "Mpps", "mean step (ns)", "outliers"],
        &mq_rows,
    );

    // Fault-layer identity overhead: the chaos seam (`FaultIo` with
    // the empty schedule) wrapped around the sim backend vs the bare
    // backend, driven by the identical event-driven batched loop.
    // `vig_bench --check` holds the committed overhead under 2% —
    // the disarmed seam must be free enough to stay compiled into
    // every chaos-capable build. (`cargo run -p vig-bench --example
    // fault_overhead` re-measures just this section.)
    let fault = vig_bench::measure_fault_overhead(&cfg(), 15, throughput_packets());
    println!(
        "\nFIG14f: fault-layer identity overhead (empty-schedule FaultIo on the batched \
         event-driven step): bare {:.2} Mpps, wrapped {:.2} Mpps, overhead {:+.2}% (gate: < 2%)",
        fault.bare_mpps, fault.faultio_empty_mpps, fault.overhead_pct
    );

    // Cross-the-wire RFC 2544: the same sharded NAT behind the same
    // event loop, measured three ways — simulated backend, per-frame
    // AF_PACKET transport, zero-copy mmap-ring transport — with the
    // OS points crossing real veth wires. Needs CAP_NET_RAW +
    // CAP_NET_ADMIN; degrades to {"available": false} without them
    // (which `vig_bench --check` refuses in a committed file).
    let os_wire_json = vig_bench::os_wire::section_json(4096, throughput_packets() / 4);
    let fault_overhead_json = fault.section_json();

    // Million-flow churn: sustained rate under continuous arrival and
    // expiry at 2^20 table capacity, plus the Fig. 13-style latency
    // CCDF.
    let churn = churn_service_times(throughput_packets());
    assert!(
        churn.occupancy_end >= CHURN_ACTIVE,
        "the live window must be resident at the end of the run"
    );
    assert!(churn.expired > 0, "churn must actually expire flows");
    let churn_est = search_rate_with_ci(&churn.svc, 512);
    let churn_rows = vec![vec![
        "lists".to_string(),
        format!(
            "{:.2} [{:.2},{:.2}]",
            churn_est.mpps, churn_est.ci95_lo_mpps, churn_est.ci95_hi_mpps
        ),
        format!("{:.1}", churn_est.mean_ns),
        format!("{}", churn_est.outliers_rejected),
    ]];
    print_table(
        &format!(
            "FIG14e: sustained churn at {CHURN_CAP} flow slots ({} resident, {} expired \
             during churn)",
            churn.occupancy_end, churn.expired
        ),
        &["expiry", "Mpps [ci95]", "mean svc (ns)", "outliers"],
        &churn_rows,
    );

    // Fig. 13-style CCDF of per-packet latency under churn:
    // x = latency, y = P(latency > x), from the measured
    // service-time distribution. Quantile ties collapse to the first
    // point so latencies stay strictly increasing.
    let ccdf_qs = [0.50, 0.75, 0.90, 0.95, 0.99, 0.995, 0.999, 0.9995];
    let mut ccdf_points: Vec<(u64, f64)> = Vec::new();
    for &q in &ccdf_qs {
        let lat = churn.svc.percentile(q);
        if ccdf_points.last().is_none_or(|&(prev, _)| lat > prev) {
            ccdf_points.push((lat, 1.0 - q));
        }
    }
    println!("\nFIG13-style latency CCDF under churn:");
    for (lat, ccdf) in &ccdf_points {
        println!("  P(latency > {lat:>6} ns) = {ccdf:.4}");
    }

    let fmt_series = |name: &str, v: &[f64], ci: &[(f64, f64)]| {
        format!(
            r#"{{"name":"{name}","mpps_per_flow_count":[{}],"mpps_ci95_per_flow_count":[{}]}}"#,
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(","),
            ci.iter()
                .map(|(lo, hi)| format!("[{lo:.3},{hi:.3}]"))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    let shard_points_json = points
        .iter()
        .map(|p| {
            format!(
                r#"{{"shards":{},"mpps":{:.3},"steps_per_sec":{:.1},"mean_step_ns":{:.1},"per_shard_mpps":[{}]}}"#,
                p.shards,
                p.mpps,
                p.steps_per_sec,
                p.mean_step_ns,
                p.per_shard_mpps
                    .iter()
                    .map(|x| format!("{x:.3}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let mq_points_json = mq_points
        .iter()
        .map(|&(q, s, mpps, mean, rej)| {
            format!(
                r#"{{"queues":{q},"shards":{s},"mpps":{mpps:.3},"mean_step_ns":{mean:.1},"outliers_rejected":{rej}}}"#
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let churn_sustained_json = format!(
        r#"{{"expiry":"lists","mpps":{:.3},"ci95_mpps":[{:.3},{:.3}],"mean_ns":{:.1},"outliers_rejected":{}}}"#,
        churn_est.mpps,
        churn_est.ci95_lo_mpps,
        churn_est.ci95_hi_mpps,
        churn_est.mean_ns,
        churn_est.outliers_rejected
    );
    let churn_ccdf_json = ccdf_points
        .iter()
        .map(|(lat, ccdf)| format!(r#"{{"latency_ns":{lat},"ccdf":{ccdf:.6}}}"#))
        .collect::<Vec<_>>()
        .join(",\n        ");
    let churn_json = format!(
        "\"churn\": {{\n    \"table_capacity\": {CHURN_CAP},\n    \"expiry_ns\": {CHURN_TEXP_NS},\n    \"active_window\": {CHURN_ACTIVE},\n    \"new_flow_every\": {CHURN_NEW_EVERY},\n    \"virtual_ns_per_packet\": {CHURN_DT_NS},\n    \"occupancy_end\": {},\n    \"new_flows_during_measurement\": {},\n    \"expired_during_churn\": {},\n    \"sustained\": [\n      {churn_sustained_json}\n    ],\n    \"latency_ccdf\": {{\"expiry\": \"lists\", \"points\": [\n        {churn_ccdf_json}\n    ]}}\n  }}",
        churn.occupancy_end, churn.new_flows, churn.expired
    );
    let curve_points_json = curve
        .points
        .iter()
        .map(|p| {
            format!(
                r#"{{"workers":{},"mpps":{:.3},"ci95_mpps":[{:.3},{:.3}],"wallclock_mpps":{:.3},"mean_step_ns":{:.1},"outliers_rejected":{},"pinned_workers":{}}}"#,
                p.workers,
                p.mpps,
                p.ci95_lo_mpps,
                p.ci95_hi_mpps,
                p.wallclock_mpps,
                p.mean_step_ns,
                p.outliers_rejected,
                p.pinned_workers
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let json = format!(
        "{{\n  \"bench\": \"fig14_throughput\",\n  \"statistics\": {{\"outlier_rejection\": \"mad_z3.5\", \"rejected_total\": {outliers_total}, \"rate_ci\": \"bootstrap pct, {} trials x {} resamples\"}},\n  \"flow_counts\": [{}],\n  \"series\": [\n    {},\n    {},\n    {},\n    {},\n    {},\n    {},\n    {}\n  ],\n  \"verified_seq\": {{\"p50_ns\": {p50_seq}, \"p99_ns\": {p99_seq}}},\n  \"verified_batched\": {{\"p50_ns\": {p50_bat}, \"p99_ns\": {p99_bat}}},\n  \"sharded_sweep\": {{\n    \"occupancy\": {occupancy},\n    \"cores\": {cores},\n    \"workers\": {wall_workers},\n    \"pinning_requested\": {pinning_requested},\n    \"pinned_workers\": {wall_pinned},\n    \"parallel_wallclock_mpps\": {wall_mpps:.3},\n    \"points\": [\n      {shard_points_json}\n    ]\n  }},\n  \"scaling_curve\": {{\n    \"occupancy\": {occupancy},\n    \"host_cores\": {cores},\n    \"pinning_requested\": {pinning_requested},\n    \"runtime\": \"persistent pinned workers over spsc rings (netsim::runtime)\",\n    \"points\": [\n      {curve_points_json}\n    ]\n  }},\n  \"multiqueue_sweep\": {{\n    \"occupancy\": {occupancy},\n    \"driver\": \"eventloop (poll + wrr, one core, backend: sim)\",\n    \"points\": [\n      {mq_points_json}\n    ]\n  }},\n  {fault_overhead_json},\n  \"os_wire_rfc2544\": {os_wire_json},\n  {churn_json}\n}}\n",
        netsim::harness::RATE_CI_TRIALS,
        netsim::harness::RATE_CI_RESAMPLES,
        sweep.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(","),
        fmt_series("noop", &series[0], &cis[0]),
        fmt_series("unverified", &series[1], &cis[1]),
        fmt_series("verified", &series[2], &cis[2]),
        fmt_series("verified_batched", &series[4], &cis[4]),
        fmt_series("verified_sysclock", &series[5], &cis[5]),
        fmt_series("verified_batched_sysclock", &series[6], &cis[6]),
        fmt_series("linux", &series[3], &cis[3]),
    );
    write_result_json("BENCH_throughput.json", &json);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (m_noop, m_unv, m_ver, m_lin) = (
        mean(&series[0]),
        mean(&series[1]),
        mean(&series[2]),
        mean(&series[3]),
    );
    println!("\nshape checks:");
    println!(
        "  No-op fastest: {} ({m_noop:.2} Mpps)",
        if m_noop >= m_unv && m_noop >= m_ver {
            "ok"
        } else {
            "DEVIATION"
        }
    );
    let gap = (m_unv - m_ver) / m_unv * 100.0;
    println!(
        "  Verified within ~10-20% of Unverified: {} (gap {gap:.1}%, paper 10%)",
        if gap > -5.0 && gap < 25.0 {
            "ok"
        } else {
            "DEVIATION"
        }
    );
    let factor = m_unv / m_lin;
    println!(
        "  DPDK NATs >> Linux NAT: {} (Unverified/Linux = {factor:.1}x, paper 3.3x)",
        if factor > 1.8 { "ok" } else { "DEVIATION" }
    );
    let flat = series[2].iter().all(|&v| (v - m_ver).abs() / m_ver < 0.5);
    println!(
        "  Verified flat in flow count: {}",
        if flat { "ok" } else { "DEVIATION" }
    );
    let m_verb = mean(&series[4]);
    println!(
        "  Batched fast path vs single-packet Verified: {:.2}x ({m_verb:.2} vs {m_ver:.2} Mpps)",
        m_verb / m_ver
    );
    let (m_ver_sys, m_verb_sys) = (mean(&series[5]), mean(&series[6]));
    println!(
        "  Real-clock vs virtual-time (the per-packet clock read): single {:.2}x ({m_ver_sys:.2} vs {m_ver:.2} Mpps), batched {:.2}x ({m_verb_sys:.2} vs {m_verb:.2} Mpps)",
        m_ver_sys / m_ver,
        m_verb_sys / m_verb
    );
    let shard_speedup = points[1].steps_per_sec / points[0].steps_per_sec;
    println!(
        "  2-shard batched step rate >= 1.5x 1-shard at 50% occupancy: {} ({shard_speedup:.2}x, {:.0}k vs {:.0}k steps/s)",
        if shard_speedup >= 1.5 { "ok" } else { "DEVIATION" },
        points[1].steps_per_sec / 1e3,
        points[0].steps_per_sec / 1e3,
    );
    let curve_1w = curve.points.first().expect("curve non-empty");
    let wall_speedup = wall_mpps / curve_1w.wallclock_mpps;
    println!(
        "  Pinned runtime 2-worker vs 1-worker wall-clock: {} ({wall_speedup:.2}x on {cores} host core(s), {wall_pinned}/{wall_workers} pinned)",
        if wall_speedup >= 1.5 {
            "ok"
        } else if cores < 2 {
            "flat (host lacks cores — scale-out modeled by the shard sweep)"
        } else {
            "DEVIATION"
        }
    );
    let mq_11 = mq_points[0].2;
    let mq_44 = mq_points[3].2;
    println!(
        "  Event-driven driver overhead (1q/1s vs lockstep batched): {:.2}x ({mq_11:.2} vs {m_verb:.2} Mpps)",
        mq_11 / m_verb
    );
    println!(
        "  Event-driven 4q/4s vs 1q/1s on one core: {:.2}x ({mq_44:.2} vs {mq_11:.2} Mpps)",
        mq_44 / mq_11
    );
    println!(
        "  Sustained churn at {CHURN_CAP} slots: {:.2} Mpps ({} flows expired)",
        churn_est.mpps, churn.expired
    );
    println!(
        "  (note: the simulator's virtual clock and free NIC descriptors remove exactly the\n   \
         per-packet fixed costs a burst amortizes; with the per-iteration clock read modeled,\n   \
         micro_flowtable measures the batched NAT step at >2x the single-packet step)"
    );
}
