//! Metric names, units, statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mpps", "Mpps"),
    ("service_p50_ns", "ns"),
    ("service_p99_ns", "ns"),
    ("latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units. A layer a
/// workload does not exercise reads 0 (see the README's table).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("backend.rx_ns_per_pkt", "ns"),
    ("backend.tx_ns_per_pkt", "ns"),
    ("backend.pool_free_mean", "count"),
    ("eventloop.self_ns_per_pkt", "ns"),
    ("eventloop.pkts_per_burst", "count"),
    ("eventloop.idle_poll_ratio", "ratio"),
    ("middlebox.ns_per_pkt", "ns"),
    ("middlebox.self_ns_per_pkt", "ns"),
    ("loop_body.self_ns_per_pkt", "ns"),
    ("loop_body.drop.ShortL2", "count"),
    ("loop_body.drop.NotIpv4", "count"),
    ("loop_body.drop.ShortL3", "count"),
    ("loop_body.drop.BadVersion", "count"),
    ("loop_body.drop.BadIhl", "count"),
    ("loop_body.drop.BadTotalLen", "count"),
    ("loop_body.drop.Fragment", "count"),
    ("loop_body.drop.BadProto", "count"),
    ("loop_body.drop.HeaderOverrun", "count"),
    ("loop_body.drop.ShortL4", "count"),
    ("loop_body.drop.NoFlow", "count"),
    ("loop_body.drop.TableFull", "count"),
    ("flow_manager.self_ns_per_pkt", "ns"),
    ("flow_manager.probe_ns_per_query", "ns"),
    ("flow_manager.lookup_external_ns", "ns"),
    ("flow_manager.rejuvenate_ns", "ns"),
    ("flow_manager.probe_len_mean", "count"),
    ("flow_manager.allocate_ns", "ns"),
    ("flow_manager.expire_ns_per_burst", "ns"),
    ("flow_manager.expired_per_burst", "count"),
    ("flow_manager.probe_hit_ratio", "ratio"),
    ("runtime.ns_per_pkt", "ns"),
    ("runtime.hop_ns_per_pkt", "ns"),
    ("runtime.supervisor_events", "count"),
    ("baselines.unverified_ns_per_pkt", "ns"),
    ("baselines.noop_ns_per_pkt", "ns"),
    ("gen.lag_us_p99", "us"),
    ("gen.latency_p99_us", "us"),
    ("host.steal_pct", "%"),
    ("trace.traced_ns_per_pkt", "ns"),
    ("trace.untraced_ns_per_pkt", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("failed_pct", "%"),
    ("counters.forwarded", "count"),
    ("counters.flows_created", "count"),
    ("counters.flows_expired", "count"),
    ("counters.dropped", "count"),
];

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Record a failed check that `failures` offered frames count against.
    pub fn problem(&mut self, failures: u64, what: String) {
        self.failed += failures.max(1);
        self.problems.push(what);
    }

    /// Compare an observed counter with the value it must have.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.problem(
                got.abs_diff(want),
                format!("{what}: got {got}, expected {want}"),
            );
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: every metric of the mode, by name, with its unit.
    pub fn result_json(&self, traced: bool) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A sample value: nanosecond counts or per-packet quotients.
pub trait Sample: Copy + PartialOrd {
    fn as_f64(self) -> f64;
}

impl Sample for u64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Sample for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

/// Nearest-rank percentile (`p` in 0..=100); sorts `v`.
pub fn percentile<T: Sample>(v: &mut [T], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1].as_f64()
}

/// One productive service round of a saturation phase.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub frames: u64,
    /// The round's wall-clock duration.
    pub service_ns: u64,
}

/// Slices a run's saturation phases are cut into, in total, for their
/// robust statistics.
const SLICES: u64 = 50;

/// Rounds per slice for a run whose saturation phases hold
/// `total_rounds` productive rounds in all.
pub fn slice_rounds(total_rounds: u64) -> u64 {
    total_rounds.div_ceil(SLICES).max(1)
}

/// One slice of a saturation phase: its frames, the DUT thread's CPU
/// time over it, and the p99 of its rounds' per-packet service times.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub frames: u64,
    pub cpu_ns: u64,
    pub p99_ns: f64,
}

/// Cuts a saturation phase into slices of `every` productive rounds,
/// reading the calling thread's CPU time at each boundary. CPU time,
/// unlike wall time, leaves out the spells the hypervisor runs another
/// guest on this vCPU (steal).
pub struct Slicer {
    every: u64,
    per_pkt_ns: Vec<f64>,
    frames: u64,
    cpu0: u64,
    pub slices: Vec<Slice>,
}

impl Slicer {
    pub fn new(every: u64) -> Slicer {
        Slicer {
            every,
            per_pkt_ns: Vec::with_capacity(every.min(1 << 16) as usize),
            frames: 0,
            cpu0: crate::host::thread_cpu_ns(),
            slices: Vec::new(),
        }
    }

    /// Account one productive round.
    pub fn round(&mut self, r: Round) {
        self.frames += r.frames;
        self.per_pkt_ns
            .push(r.service_ns as f64 / r.frames.max(1) as f64);
        if self.per_pkt_ns.len() as u64 == self.every {
            self.close();
        }
    }

    /// Close the last, partial slice.
    pub fn finish(mut self) -> Vec<Slice> {
        if self.frames > 0 {
            self.close();
        }
        self.slices
    }

    fn close(&mut self) {
        let cpu = crate::host::thread_cpu_ns();
        self.slices.push(Slice {
            frames: self.frames,
            cpu_ns: cpu - self.cpu0,
            p99_ns: percentile(&mut self.per_pkt_ns, 99.0),
        });
        self.per_pkt_ns.clear();
        self.frames = 0;
        self.cpu0 = cpu;
    }
}

/// Saturation statistics over a run's rounds and slices: (throughput in
/// Mpps, per-packet service p50 and p99 in ns). Throughput is the median
/// over slices of frames per second of DUT-thread CPU time, and p99 the
/// median of the slices' p99s, so a neighbour's burst of activity during
/// a few slices moves neither. The p50 is over every round.
pub fn saturation(rounds: &[Round], slices: &[Slice]) -> (f64, f64, f64) {
    let mut all: Vec<f64> = rounds
        .iter()
        .map(|r| r.service_ns as f64 / r.frames.max(1) as f64)
        .collect();
    let mut rates: Vec<f64> = slices
        .iter()
        .map(|s| s.frames as f64 * 1e3 / s.cpu_ns.max(1) as f64)
        .collect();
    let mut p99s: Vec<f64> = slices.iter().map(|s| s.p99_ns).collect();
    (
        percentile(&mut rates, 50.0),
        percentile(&mut all, 50.0),
        percentile(&mut p99s, 50.0),
    )
}

/// Per-packet nanoseconds.
pub fn per_pkt(ns: u64, pkts: u64) -> f64 {
    if pkts == 0 {
        0.0
    } else {
        ns as f64 / pkts as f64
    }
}

/// A traced run's layer table: rows of (layer, self ns/pkt), closed by
/// the unattributed remainder, the traced total and the overhead.
pub fn layer_table(
    workload: &str,
    rows: &[(&str, f64)],
    traced: f64,
    untraced: f64,
) -> Vec<String> {
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let mut out = vec![format!(
        "traced run: {workload} — layer self time per packet"
    )];
    out.push(format!("  {:<28} {:>10} {:>7}", "layer", "ns/pkt", "share"));
    let share = |v: f64| {
        if traced > 0.0 {
            100.0 * v / traced
        } else {
            0.0
        }
    };
    for (name, v) in rows {
        out.push(format!("  {:<28} {:>10.1} {:>6.1}%", name, v, share(*v)));
    }
    let un = traced - attributed;
    out.push(format!(
        "  {:<28} {:>10.1} {:>6.1}%",
        "unattributed",
        un,
        share(un)
    ));
    out.push(format!(
        "  {:<28} {:>10.1} {:>6.1}%",
        "= traced total", traced, 100.0
    ));
    out.push(format!("  {:<28} {:>10.1}", "untraced total", untraced));
    let overhead = if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    };
    out.push(format!("  {:<28} {:>9.1}%", "tracing overhead", overhead));
    out
}
