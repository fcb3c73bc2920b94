//! MICRO — flow-table microbenchmarks for the design choices DESIGN.md
//! §7 calls out, plus the **batched fast path headline**: the
//! steady-state NAT step (clock read, guarded expiry scan, flow lookup,
//! rejuvenate) executed single-packet vs batched at ≥50% occupancy —
//! the number this repo's batching work is gated on
//! (`BENCH_flowtable.json`).
//!
//! What the series explain:
//!
//! * **natstep single vs batched** — the burst path reads the clock and
//!   runs `expire_flows` once per 32-packet burst instead of once per
//!   packet (a clock read alone is ~25-40 ns on commodity hosts, on the
//!   order of the probe itself), and issues the burst's directory
//!   probes back to back;
//! * **single vs batched lookups** — the probe cost in isolation
//!   (`Map::get_batch_with_hash` hashes a burst in one pass and
//!   first-touches every start slot before probing);
//! * open addressing (verified `libvig::Map`) vs separate chaining
//!   (`ChainedMap`) at moderate and near-full occupancy — the source of
//!   the verified NAT's last-point uptick in Fig. 12;
//! * **scalar walk vs SWAR tag-group probe** (`open_addressing_*` vs
//!   `tag_probe_*` rows): the same verified map probed the
//!   pre-directory way (one slot load per position) and the default
//!   way (one control-word load per eight positions) — the 98%-miss
//!   row is the headline of the tag-directory work;
//! * **the churn step at a million flows** (`churn_step_1m`): expiry
//!   drain + mostly-hit lookup + rejuvenate/allocate under continuous
//!   arrival and expiry at 2^20 table slots — the run asserts the
//!   measured region actually expires flows;
//! * hit vs miss lookups (misses probe the longest in open addressing);
//! * dchain allocate/rejuvenate — the per-packet bookkeeping;
//! * incremental (RFC 1624) vs full checksum recomputation.
//!
//! Run: `cargo bench -p vig-bench --bench micro_flowtable`

use libvig::map::MapKey;
use libvig::time::Time;
use std::hint::black_box;
use std::time::Instant;
use vig_baselines::ChainedMap;
use vig_bench::{print_table, write_result_json, Series};
use vig_packet::checksum::{checksum, Checksum};
use vig_packet::{FlowId, Ip4, Proto};
use vignat::{FlowManager, NatConfig, MAX_BURST};

/// Table capacity: the paper-scale flow table (also the largest the
/// VigNAT config invariant allows).
const CAP: usize = 65_535;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: CAP,
        expiry_ns: Time::from_secs(3600).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

fn fid(i: u32) -> FlowId {
    FlowId {
        src_ip: Ip4(0x0a00_0000 | i),
        src_port: 10_000 + (i % 40_000) as u16,
        dst_ip: Ip4::new(1, 1, 1, 1),
        dst_port: 80,
        proto: Proto::Udp,
    }
}

/// Deterministic pseudo-random permutation walk over `0..n` (LCG with
/// odd stride), so consecutive queries hit unrelated cache lines the
/// way real traffic does.
fn scrambled(n: usize, len: usize) -> Vec<u32> {
    let stride = (n / 2 + 13) | 1;
    (0..len).map(|i| ((i * stride + 7) % n) as u32).collect()
}

/// The headline: the **steady-state NAT step** per packet — clock read,
/// guarded expiry scan, flow-table lookup, rejuvenate (Fig. 6's hit
/// path, everything but the header rewrite) — executed the single-packet
/// way (each packet pays each cost, as in `nat_loop_iteration`) vs the
/// batched way (clock and expiry amortized to once per `MAX_BURST`
/// burst, lookups through the batched directory probe, as in
/// `nat_process_batch`). Chunked identically so both series' samples
/// are per-chunk means over `MAX_BURST` packets.
fn bench_nat_step(occupancy: usize, rounds: usize) -> (Series, Series) {
    use libvig::time::{Clock, SystemClock};
    let clock = SystemClock::new();
    let texp = Time::from_secs(3600).nanos();
    let mut fm = FlowManager::new(&cfg());
    for i in 0..occupancy as u32 {
        fm.allocate(fid(i), clock.now()).expect("below capacity");
    }
    let queries = scrambled(occupancy, rounds * MAX_BURST);

    let mut single_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut batched_ns: Vec<f64> = Vec::with_capacity(rounds);

    // Reusable buffers, as the burst datapath keeps them (BurstScratch).
    let mut keys: Vec<FlowId> = Vec::with_capacity(MAX_BURST);
    let mut hashes: Vec<u64> = Vec::with_capacity(MAX_BURST);
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(MAX_BURST);
    let mut out: Vec<Option<(usize, vig_packet::Flow)>> = Vec::with_capacity(MAX_BURST);

    // Interleave the two measurements chunk by chunk so frequency
    // scaling and cache pressure hit both paths alike.
    for chunk in queries.chunks_exact(MAX_BURST) {
        keys.clear();
        keys.extend(chunk.iter().map(|&i| fid(i)));

        // Single-packet path: every packet reads the clock, runs the
        // expiry scan, probes, rejuvenates — one nat_loop_iteration's
        // steady-state stateful work per packet.
        let t0 = Instant::now();
        for k in &keys {
            let now = clock.now();
            fm.expire(now.minus(texp));
            let (slot, _) = fm
                .lookup_internal(black_box(k))
                .expect("steady state: all hits");
            fm.rejuvenate(slot, now);
        }
        single_ns.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);

        // Batched path: one clock read + one expiry scan per burst,
        // one batched probe, per-packet rejuvenate — nat_process_batch's
        // steady-state stateful work.
        out.clear();
        let t0 = Instant::now();
        let now = clock.now();
        fm.expire(now.minus(texp));
        hashes.clear();
        hashes.extend(keys.iter().map(MapKey::key_hash));
        fm.lookup_internal_batch(black_box(&keys), black_box(&hashes), &mut slots, &mut out);
        for r in &out {
            let (slot, _) = r.expect("steady state: all hits");
            fm.rejuvenate(slot, now);
        }
        batched_ns.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
        black_box(&out);
    }

    let pct = occupancy * 100 / CAP;
    (
        Series::from_samples(format!("natstep_single_{pct}pct"), &mut single_ns),
        Series::from_samples(format!("natstep_batched_{pct}pct"), &mut batched_ns),
    )
}

/// Pure flow-table lookups, single vs batched (no clock, no expiry, no
/// rejuvenation) — isolates the directory-probe cost.
fn bench_lookup_paths(occupancy: usize, rounds: usize) -> (Series, Series) {
    let mut fm = FlowManager::new(&cfg());
    for i in 0..occupancy as u32 {
        fm.allocate(fid(i), Time::from_secs(1))
            .expect("below capacity");
    }
    let queries = scrambled(occupancy, rounds * MAX_BURST);

    let mut single_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut batched_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut keys: Vec<FlowId> = Vec::with_capacity(MAX_BURST);
    let mut hashes: Vec<u64> = Vec::with_capacity(MAX_BURST);
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(MAX_BURST);
    let mut out = Vec::with_capacity(MAX_BURST);

    for chunk in queries.chunks_exact(MAX_BURST) {
        keys.clear();
        keys.extend(chunk.iter().map(|&i| fid(i)));

        let t0 = Instant::now();
        let mut hits = 0usize;
        for k in &keys {
            if fm.lookup_internal(black_box(k)).is_some() {
                hits += 1;
            }
        }
        single_ns.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
        assert_eq!(hits, MAX_BURST, "steady state must be all hits");

        out.clear();
        let t0 = Instant::now();
        hashes.clear();
        hashes.extend(keys.iter().map(MapKey::key_hash));
        fm.lookup_internal_batch(black_box(&keys), black_box(&hashes), &mut slots, &mut out);
        batched_ns.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
        assert!(
            out.iter().all(Option::is_some),
            "batched lookups must hit too"
        );
        black_box(&out);
    }

    let pct = occupancy * 100 / CAP;
    (
        Series::from_samples(format!("lookup_single_{pct}pct"), &mut single_ns),
        Series::from_samples(format!("lookup_batched_{pct}pct"), &mut batched_ns),
    )
}

/// Open addressing vs separate chaining, hits and misses, as per-op ns.
///
/// Two variants of the verified map's probe are reported side by side:
///
/// * `open_addressing_*` — the **scalar reference walk**
///   (`get_with_hash_scalar`, one slot load + compare per probe
///   position), i.e. exactly what these rows measured before the tag
///   directory landed, kept so the committed trajectory stays
///   comparable across PRs;
/// * `tag_probe_*` — the default SWAR tag-group probe (`get`), which
///   scans eight positions per control-word load and only touches
///   slots whose tag matches. The miss rows at 98% occupancy are where
///   the directory pays: the scalar walk loads every slot on a
///   near-capacity probe chain, the tag walk rejects ~127/128 of them
///   without leaving the control word.
fn bench_open_vs_chained(occupancy: usize, rounds: usize) -> Vec<Series> {
    use libvig::map::MapKey as _;
    let mut open = libvig::map::Map::new(CAP);
    let mut chained: ChainedMap<u64, usize> = ChainedMap::with_capacity(CAP);
    for k in 0..occupancy as u64 {
        open.put(k, k as usize).unwrap();
        chained.insert(k, k as usize);
    }
    let pct = occupancy * 100 / CAP;
    let n = rounds * MAX_BURST;
    let mut out = Vec::new();
    let mut run = |name: String, mut f: Box<dyn FnMut(u64) -> bool>| {
        let mut samples: Vec<f64> = Vec::with_capacity(rounds);
        let mut q = 0u64;
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..MAX_BURST {
                q = (q + 0x9e37) % n as u64;
                black_box(f(q));
            }
            samples.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
        }
        out.push(Series::from_samples(name, &mut samples));
    };
    {
        let open_hit = open.clone();
        let occ = occupancy as u64;
        run(
            format!("open_addressing_hit_{pct}pct"),
            Box::new(move |q| {
                let k = q % occ;
                open_hit.get_with_hash_scalar(&k, k.key_hash()).is_some()
            }),
        );
    }
    {
        let tag_hit = open.clone();
        let occ = occupancy as u64;
        run(
            format!("tag_probe_hit_{pct}pct"),
            Box::new(move |q| tag_hit.get(&(q % occ)).is_some()),
        );
    }
    {
        let chained_hit = chained.clone();
        let occ = occupancy as u64;
        run(
            format!("chaining_hit_{pct}pct"),
            Box::new(move |q| chained_hit.get(&(q % occ)).is_some()),
        );
    }
    {
        let open_miss = open.clone();
        run(
            format!("open_addressing_miss_{pct}pct"),
            Box::new(move |q| {
                let k = 1_000_000 + q;
                open_miss.get_with_hash_scalar(&k, k.key_hash()).is_some()
            }),
        );
    }
    {
        let tag_miss = open.clone();
        run(
            format!("tag_probe_miss_{pct}pct"),
            Box::new(move |q| tag_miss.get(&(1_000_000 + q)).is_some()),
        );
    }
    {
        let chained_miss = chained.clone();
        run(
            format!("chaining_miss_{pct}pct"),
            Box::new(move |q| chained_miss.get(&(1_000_000 + q)).is_some()),
        );
    }
    out
}

/// Million-flow churn step: table capacity (2^20 slots).
const CHURN_CAP: usize = 1 << 20;
/// Flows kept alive by round-robin refreshes (the sliding window).
const CHURN_ACTIVE: usize = 800_000;
/// Every n-th op opens a new flow and abandons the window's oldest.
const CHURN_NEW_EVERY: usize = 8;
/// Virtual nanoseconds per op.
const CHURN_DT_NS: u64 = 250;
/// Expiry timeout; the refresh cycle (200 ms virtual) stays inside it.
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

fn churn_fid(i: usize) -> FlowId {
    FlowId {
        src_ip: Ip4(0x0a00_0000 | (i as u32 & 0x00ff_ffff)),
        src_port: 9_999,
        dst_ip: Ip4::new(1, 1, 1, 1),
        dst_port: 80,
        proto: Proto::Udp,
    }
}

/// The steady-state NAT step under **million-flow churn**: per op, the
/// expiry drain from the dchain's head, then a lookup that mostly
/// hits (refresh → rejuvenate) and periodically misses (new flow →
/// allocate). A sliding window of [`CHURN_ACTIVE`] flows is refreshed
/// round-robin; every [`CHURN_NEW_EVERY`]-th op opens a new flow and
/// retires the window's oldest to the expirator, so arrivals and
/// expiries balance at ~95% occupancy of the 2^20-slot table.
///
/// Returns the series plus the expired count and end occupancy of the
/// deterministic schedule.
fn bench_churn_step(rounds: usize) -> (Series, u64, usize) {
    let cfg = churn_cfg();
    let mut fm = FlowManager::new(&cfg);
    let mut now = 0u64;
    for i in 0..CHURN_ACTIVE {
        now += CHURN_DT_NS;
        fm.allocate(churn_fid(i), Time(now))
            .expect("below capacity");
    }
    let (mut wbase, mut next_new, mut rr, mut seq) = (0usize, CHURN_ACTIVE, 0usize, 0usize);
    let mut step = |fm: &mut FlowManager, now: &mut u64| -> u64 {
        *now += CHURN_DT_NS;
        let i = if seq % CHURN_NEW_EVERY == 0 {
            wbase += 1;
            next_new += 1;
            next_new - 1
        } else {
            let f = wbase + (rr % CHURN_ACTIVE);
            rr += 1;
            f
        };
        seq += 1;
        let expired = fm.expire(Time(now.saturating_sub(CHURN_TEXP_NS))) as u64;
        let fid = churn_fid(i);
        match fm.lookup_internal(&fid) {
            Some((slot, _)) => {
                fm.rejuvenate(slot, Time(*now));
            }
            None => {
                fm.allocate(fid, Time(*now))
                    .expect("churn stays below capacity by design");
            }
        }
        expired
    };
    // Unmeasured warmup: one expiry timeout of churn, so abandoned
    // flows are draining at the arrival rate when measurement starts.
    // Expiries are counted from the start of churn: they cluster
    // unevenly across the refresh cycle, so a short measured window
    // alone could legitimately catch none.
    let mut expired_total = 0u64;
    let warm = (CHURN_TEXP_NS / CHURN_DT_NS) as usize + 200_000;
    for _ in 0..warm {
        expired_total += step(&mut fm, &mut now);
    }
    let mut samples: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..MAX_BURST {
            expired_total += step(&mut fm, &mut now);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
    }
    (
        Series::from_samples("churn_step_1m", &mut samples),
        expired_total,
        fm.len(),
    )
}

/// dchain allocate/rejuvenate and checksum strategies (per-op ns).
fn bench_bookkeeping(rounds: usize) -> Vec<Series> {
    let mut out = Vec::new();

    let mut ch = libvig::dchain::DoubleChain::new(4096);
    for t in 0..4096u64 {
        ch.allocate(Time(t)).unwrap();
    }
    let mut samples: Vec<f64> = Vec::with_capacity(rounds);
    let mut t = 5_000u64;
    let mut i = 0usize;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..MAX_BURST {
            i = (i + 1) % 4096;
            t += 1;
            black_box(ch.rejuvenate(i, Time(t)));
        }
        samples.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
    }
    out.push(Series::from_samples("dchain_rejuvenate", &mut samples));

    let frame = vec![0xabu8; 1500];
    let mut samples: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(checksum(black_box(&frame)));
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    out.push(Series::from_samples("checksum_full_1500B", &mut samples));

    let mut samples: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..MAX_BURST {
            let c = Checksum::from_field(0x1234)
                .update_u32(0x0a000001, 0xcb007101)
                .update_u16(40_000, 61_234);
            black_box(c.to_field());
        }
        samples.push(t0.elapsed().as_nanos() as f64 / MAX_BURST as f64);
    }
    out.push(Series::from_samples(
        "checksum_incremental_rfc1624",
        &mut samples,
    ));
    out
}

fn main() {
    let rounds = if vig_bench::full_mode() {
        20_000
    } else {
        4_000
    };

    // Warm up, then measure: the batched-vs-single headline (the full
    // steady-state NAT step) at 50% and 99% occupancy.
    let _ = bench_nat_step(CAP / 8, rounds / 8);
    let (single_50, batched_50) = bench_nat_step(CAP / 2, rounds);
    let (single_99, batched_99) = bench_nat_step(CAP * 99 / 100, rounds);
    let speedup_50 = batched_50.ops_per_sec / single_50.ops_per_sec;
    let speedup_99 = batched_99.ops_per_sec / single_99.ops_per_sec;

    let mut all = vec![single_50, batched_50, single_99, batched_99];
    let (ls50, lb50) = bench_lookup_paths(CAP / 2, rounds / 2);
    let (ls99, lb99) = bench_lookup_paths(CAP * 99 / 100, rounds / 2);
    all.extend([ls50, lb50, ls99, lb99]);
    all.extend(bench_open_vs_chained(CAP / 2, rounds / 4));
    all.extend(bench_open_vs_chained(CAP * 99 / 100, rounds / 4));
    all.extend(bench_bookkeeping(rounds / 4));

    // Million-flow churn: continuous arrival and expiry at 2^20 slots.
    let (churn, expired, occupancy) = bench_churn_step(rounds / 4);
    assert!(
        expired > 0,
        "the measured churn region must actually expire flows"
    );
    all.push(churn);

    print_table(
        "MICRO: flow-table and bookkeeping costs (per-op)",
        &["series", "Mops/s", "p50 ns", "p99 ns"],
        &all.iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    format!("{:.2}", s.ops_per_sec / 1e6),
                    format!("{:.1}", s.p50_ns),
                    format!("{:.1}", s.p99_ns),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nbatched speedup over the single-packet NAT step (clock + expiry + lookup + rejuvenate):"
    );
    println!("  at 50% occupancy: {speedup_50:.2}x (gate: >= 1.3x)");
    println!("  at 99% occupancy: {speedup_99:.2}x");
    println!("\nchurn at {CHURN_CAP} slots ({occupancy} resident at end): {expired} flows expired");

    let json = format!(
        "{{\n  \"bench\": \"micro_flowtable\",\n  \"table_capacity\": {CAP},\n  \"burst\": {MAX_BURST},\n  \"batched_speedup_at_50pct\": {speedup_50:.3},\n  \"batched_speedup_at_99pct\": {speedup_99:.3},\n  \"churn\": {{\"table_capacity\": {CHURN_CAP}, \"active_window\": {CHURN_ACTIVE}, \"occupancy_end\": {occupancy}, \"expired\": {expired}}},\n  \"series\": [\n    {}\n  ]\n}}\n",
        all.iter().map(Series::to_json).collect::<Vec<_>>().join(",\n    ")
    );
    write_result_json("BENCH_flowtable.json", &json);

    assert!(
        speedup_50 >= 1.3,
        "batched lookup path must be >= 1.3x the single-packet path at 50% occupancy \
         (measured {speedup_50:.2}x)"
    );
}
