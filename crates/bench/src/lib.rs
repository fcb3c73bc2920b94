//! Shared plumbing for the benchmark harness (table rendering, run
//! sizing, the wire-latency constant).
//!
//! Every bench target prints a paper-style table to stdout; the
//! `EXPERIMENTS.md` tables are regenerated from these outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod matrix;
pub mod os_wire;

/// Documented constant added when reporting *absolute* latencies
/// (nanoseconds): the paper's numbers include wire, PCIe and NIC DMA
/// time on both sides of the middlebox, which the simulator does not
/// model. The no-op baseline measured ~4.75 µs on the paper's testbed,
/// of which NAT-specific processing is zero, so we use the paper's
/// no-op figure minus our measured no-op processing as the fixed
/// environment offset. Reported in both raw and offset forms; the
/// *shape* claims never depend on it.
pub const WIRE_BASE_NS: u64 = 4_650;

/// Run benches in full (paper-scale) mode when `VIGNAT_BENCH_FULL=1`;
/// default is a quick mode sized to finish the whole suite in minutes.
pub fn full_mode() -> bool {
    std::env::var("VIGNAT_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Background-flow counts for the x-axis of Fig. 12/13/14.
/// Paper: 1k .. 64k. Quick mode trims the sweep.
pub fn flow_sweep() -> Vec<usize> {
    if full_mode() {
        vec![
            1_000, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 64_000,
        ]
    } else {
        vec![1_000, 8_000, 24_000, 48_000, 64_000]
    }
}

/// Probe packets per latency point.
pub fn probe_count() -> usize {
    if full_mode() {
        400
    } else {
        60
    }
}

/// Packets measured per throughput point.
pub fn throughput_packets() -> usize {
    if full_mode() {
        400_000
    } else {
        60_000
    }
}

/// Measured identity price of the disarmed fault layer (the PR 9
/// `fault_overhead` section of `BENCH_throughput.json`).
#[derive(Debug, Clone, Copy)]
pub struct FaultOverhead {
    /// Interleaved trials per side.
    pub trials: usize,
    /// Median rate of the bare sim backend, Mpps.
    pub bare_mpps: f64,
    /// Median rate wrapped in `FaultIo(FaultPlan::none())`, Mpps.
    pub faultio_empty_mpps: f64,
    /// Median over trials of the paired per-trial delta of *median*
    /// per-packet service times,
    /// `(wrapped_median_ns − bare_median_ns) / bare_median_ns`,
    /// percent. A run's median is untouched by scheduler/steal bursts
    /// that contaminate under half its samples, and the outer median
    /// discards the pairs a burst straddled — stable on a shared host
    /// where mean- or rate-based deltas swing several percent, and
    /// what the under-2% gate `vig_bench --check` enforces.
    pub overhead_pct: f64,
}

impl FaultOverhead {
    /// The `"fault_overhead": {...}` JSON section, ready to embed.
    pub fn section_json(&self) -> String {
        format!(
            "\"fault_overhead\": {{\n    \"driver\": \"event-driven batched drive, sim backend, \
             2 queues x 2 shards\",\n    \"trials\": {},\n    \"bare_mpps\": {:.3},\n    \
             \"faultio_empty_mpps\": {:.3},\n    \"overhead_pct\": {:.3}\n  }}",
            self.trials, self.bare_mpps, self.faultio_empty_mpps, self.overhead_pct
        )
    }
}

/// Measure the fault layer's identity overhead: the batched
/// event-driven drive (2 queues × 2 shards, cache-resident flow
/// working set, sim backend) bare vs wrapped in an empty-schedule
/// `FaultIo`. `bare_mpps`/`faultio_empty_mpps` come from the same
/// RFC 2544 rate search as every other trajectory rate; the gated
/// `overhead_pct` is the noise-robust paired-median statistic (see
/// [`FaultOverhead::overhead_pct`]). Trials alternate measurement
/// order so slow host drift hits both sides equally.
pub fn measure_fault_overhead(
    cfg: &vig_spec::NatConfig,
    trials: usize,
    packets: usize,
) -> FaultOverhead {
    use netsim::backend::{FaultIo, FaultPlan, SimBackend};
    use netsim::eventloop::event_driven_service_times;
    use netsim::frame_env::RssClassifier;
    use netsim::harness::search_rate_filtered;
    use netsim::middlebox::ShardedVigNatMb;
    use netsim::tester::FlowGen;

    // Small flow working set, deliberately: a cache-resident baseline
    // is the *strictest* setting for a relative overhead gate (the
    // wrapper's fixed cost divides by the cheapest per-packet time),
    // and it keeps the untimed populate phase short so the paired
    // bare/wrapped runs interleave tightly in wall time.
    let flows = 1024.min(cfg.capacity / 2);
    // Per run: (loss-search rate in Mpps, median per-packet ns).
    let stats_of = |mut svc: netsim::harness::LatencySamples| {
        let mpps = search_rate_filtered(&svc, 512).0;
        svc.ns.sort_unstable();
        (mpps, svc.ns[svc.ns.len() / 2] as f64)
    };
    let gen = FlowGen::new(vig_packet::Proto::Udp);
    let run_bare = |_: usize| {
        let mut nf = ShardedVigNatMb::sharded(*cfg, 2);
        stats_of(
            event_driven_service_times(
                SimBackend::new(RssClassifier::for_nat(cfg, 2), 512),
                &mut nf,
                &gen,
                flows,
                packets,
                cfg.expiry_ns,
            )
            .0,
        )
    };
    let run_wrapped = |_: usize| {
        let mut nf = ShardedVigNatMb::sharded(*cfg, 2);
        stats_of(
            event_driven_service_times(
                FaultIo::new(
                    SimBackend::new(RssClassifier::for_nat(cfg, 2), 512),
                    FaultPlan::none(),
                ),
                &mut nf,
                &gen,
                flows,
                packets,
                cfg.expiry_ns,
            )
            .0,
        )
    };
    let mut bare_rates = Vec::with_capacity(trials);
    let mut fault_rates = Vec::with_capacity(trials);
    let mut overheads = Vec::with_capacity(trials);
    for t in 0..trials {
        // Alternate measurement order within each pair so warm-up and
        // slow host drift hit both sides equally. Each run's statistic
        // is the *median* per-packet service time (untouched by
        // scheduler bursts contaminating under half the run), and the
        // pairs a burst straddled fall to the outer median below —
        // far steadier than a delta of means or loss-search rates.
        let (bare, wrapped) = if t % 2 == 0 {
            let b = run_bare(t);
            (b, run_wrapped(t))
        } else {
            let w = run_wrapped(t);
            (run_bare(t), w)
        };
        bare_rates.push(bare.0);
        fault_rates.push(wrapped.0);
        overheads.push((wrapped.1 - bare.1) / bare.1 * 100.0);
    }
    let median_of = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN rates"));
        v[v.len() / 2]
    };
    FaultOverhead {
        trials,
        bare_mpps: median_of(&mut bare_rates),
        faultio_empty_mpps: median_of(&mut fault_rates),
        overhead_pct: median_of(&mut overheads),
    }
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format nanoseconds as microseconds with two decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

/// The workspace root (where `BENCH_*.json` results land), resolved
/// from this crate's manifest directory so it works no matter which
/// directory `cargo bench` runs the target from.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Write a machine-readable result file at the workspace root and echo
/// its path, so every bench run leaves a perf-trajectory artifact for
/// later PRs to compare against.
pub fn write_result_json(filename: &str, json: &str) {
    let path = workspace_root().join(filename);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// MAD outlier rejection (float and integer-ns variants) plus the
/// Iglewicz–Hoaglin cutoff — the canonical implementation lives in the
/// measurement harness (`netsim::harness`), where every RFC 2544 rate
/// search applies it; re-exported here so bench statistics
/// ([`Series`]) and rate searches can never diverge.
pub use netsim::harness::{mad_filter, mad_filter_ns, MAD_Z_CUTOFF};

/// Bootstrap confidence intervals for the RFC 2544 rate searches (the
/// per-trial resampling machinery lives beside the searches in
/// `netsim::harness`; re-exported here like the MAD filter so bench
/// statistics and rate searches share one implementation).
pub use netsim::harness::{
    bootstrap_mean_ci95, per_trial_rates, search_rate_with_ci, RateEstimate, RATE_CI_RESAMPLES,
    RATE_CI_TRIALS,
};

/// Summary statistics of one benchmark series, JSON-serializable via
/// [`Series::to_json`]. Built with MAD outlier rejection and a 95%
/// confidence interval on the mean (the ROADMAP's "criterion-grade
/// statistics" for the vendored-offline environment, which has no
/// criterion).
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (e.g. "lookup_single_50pct").
    pub name: String,
    /// Operations per second (packets, lookups — the series' unit),
    /// from the outlier-rejected mean.
    pub ops_per_sec: f64,
    /// Median per-op latency, nanoseconds (post-rejection).
    pub p50_ns: f64,
    /// 99th-percentile per-op latency, nanoseconds (post-rejection).
    pub p99_ns: f64,
    /// Mean per-op latency, nanoseconds (post-rejection).
    pub mean_ns: f64,
    /// Half-width of the 95% confidence interval of the mean
    /// (`1.96·s/√n` over the retained samples), nanoseconds.
    pub ci95_ns: f64,
    /// Samples the series was computed over (post-rejection).
    pub samples: usize,
    /// Samples rejected as MAD outliers.
    pub outliers_rejected: usize,
}

impl Series {
    /// Build a series from per-op nanosecond samples: MAD-reject
    /// outliers, then compute rate, percentiles, mean, and the 95% CI
    /// over the retained samples. (`per_op_ns` is sorted in place.)
    pub fn from_samples(name: impl Into<String>, per_op_ns: &mut [f64]) -> Series {
        assert!(!per_op_ns.is_empty(), "series needs samples");
        per_op_ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let (kept, outliers_rejected) = mad_filter(per_op_ns);
        let pick = |p: f64| {
            let rank = ((p * kept.len() as f64).ceil() as usize).clamp(1, kept.len());
            kept[rank - 1]
        };
        let n = kept.len() as f64;
        let mean = kept.iter().sum::<f64>() / n;
        let var = kept.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n.max(1.0);
        let ci95 = if kept.len() > 1 {
            1.96 * (var / n).sqrt()
        } else {
            0.0
        };
        Series {
            name: name.into(),
            ops_per_sec: if mean > 0.0 { 1e9 / mean } else { 0.0 },
            p50_ns: pick(0.50),
            p99_ns: pick(0.99),
            mean_ns: mean,
            ci95_ns: ci95,
            samples: kept.len(),
            outliers_rejected,
        }
    }

    /// One JSON object line for this series.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"name":"{}","ops_per_sec":{:.1},"p50_ns":{:.1},"p99_ns":{:.1},"mean_ns":{:.1},"ci95_ns":{:.1},"samples":{},"outliers_rejected":{}}}"#,
            self.name,
            self.ops_per_sec,
            self.p50_ns,
            self.p99_ns,
            self.mean_ns,
            self.ci95_ns,
            self.samples,
            self.outliers_rejected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_sane() {
        let s = flow_sweep();
        assert!(s.first().copied().unwrap() >= 1_000);
        assert_eq!(s.last().copied().unwrap(), 64_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn formatting() {
        assert_eq!(us(5_130.0), "5.13");
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn mad_filter_rejects_the_descheduled_burst() {
        // 99 quiet samples around 100 ns plus one 100x outlier (the
        // BENCH_throughput.json pathology): the outlier goes, the quiet
        // samples stay.
        let mut samples: Vec<f64> = (0..99).map(|i| 95.0 + (i % 11) as f64).collect();
        samples.push(10_000.0);
        let (kept, rejected) = mad_filter(&samples);
        assert_eq!(rejected, 1);
        assert_eq!(kept.len(), 99);
        assert!(kept.iter().all(|&x| x < 1_000.0));
    }

    #[test]
    fn mad_filter_keeps_everything_when_quiet() {
        let samples = vec![100.0; 64];
        let (kept, rejected) = mad_filter(&samples);
        assert_eq!((kept.len(), rejected), (64, 0), "zero MAD: no rejection");
        let jittered: Vec<f64> = (0..64).map(|i| 100.0 + (i % 7) as f64).collect();
        let (kept, rejected) = mad_filter(&jittered);
        assert_eq!(
            (kept.len(), rejected),
            (64, 0),
            "small jitter: no rejection"
        );
    }

    #[test]
    fn series_reports_ci_and_outliers() {
        let mut samples: Vec<f64> = (0..200).map(|i| 90.0 + (i % 21) as f64).collect();
        samples.push(50_000.0);
        let s = Series::from_samples("t", &mut samples);
        assert_eq!(s.outliers_rejected, 1);
        assert_eq!(s.samples, 200);
        assert!(s.mean_ns > 89.0 && s.mean_ns < 112.0, "mean {}", s.mean_ns);
        assert!(s.ci95_ns > 0.0 && s.ci95_ns < 5.0, "ci {}", s.ci95_ns);
        let json = s.to_json();
        assert!(json.contains("\"ci95_ns\""));
        assert!(json.contains("\"outliers_rejected\":1"));
    }

    #[test]
    fn mad_filter_ns_roundtrips_integers() {
        let (kept, rejected) = mad_filter_ns(&[100, 101, 99, 100, 9_000, 100, 101, 99, 100]);
        assert_eq!(rejected, 1);
        assert!(kept.iter().all(|&x| x < 1_000));
    }
}
