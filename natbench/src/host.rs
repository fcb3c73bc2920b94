//! The host record printed with every run: enough to tell a noisy host
//! from a regression. Reads only the kernel's `/proc` and `/sys` views.

use std::fs;
use std::sync::OnceLock;

/// `nproc` and the CPUs this process may run on (`sched_getaffinity`),
/// as they were at the first call: pinning a thread narrows both.
fn cpus() -> &'static (usize, Vec<usize>) {
    static CPUS: OnceLock<(usize, Vec<usize>)> = OnceLock::new();
    CPUS.get_or_init(|| {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_os = "linux")]
        if let Ok(v) = netsim::backend::os::allowed_cpus() {
            if !v.is_empty() {
                return (nproc, v);
            }
        }
        (nproc, (0..nproc).collect())
    })
}

pub fn allowed_cpus() -> Vec<usize> {
    cpus().1.clone()
}

/// Pin the calling thread; false where the host forbids it.
pub fn pin(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        netsim::backend::os::pin_current_thread(cpu).is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Size in KiB of the level-`level` data or unified cache of CPU 0.
fn cache_kib(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let dir = format!("{base}/index{i}");
            let lvl: u32 = fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let kind = fs::read_to_string(format!("{dir}/type")).ok()?;
            if lvl != level || kind.trim() == "Instruction" {
                return None;
            }
            let size = fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(n) => (n, 1),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1024),
                    None => (size, 1),
                },
            };
            num.parse::<u64>().ok().map(|n| n * mult)
        })
        .next()
        .unwrap_or(0)
}

/// CPU time the calling thread has run, in ns (`/proc/thread-self/schedstat`,
/// which excludes steal on kernels with paravirtual time accounting);
/// wall time where that file is missing.
pub fn thread_cpu_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| {
            EPOCH
                .get_or_init(std::time::Instant::now)
                .elapsed()
                .as_nanos() as u64
        })
}

/// Aggregate CPU ticks from `/proc/stat`: (steal, total).
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the run's threads were pinned, and how that went.
#[derive(Clone, Copy, Debug)]
pub struct Pinning {
    pub requested: bool,
    pub threads: usize,
    pub pinned: usize,
    pub host_cores: usize,
}

/// Steal over the measured phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Steal {
    pub ticks: u64,
    pub pct: f64,
}

impl Steal {
    pub fn between(a: (u64, u64), b: (u64, u64)) -> Steal {
        let ticks = b.0.saturating_sub(a.0);
        let total = b.1.saturating_sub(a.1);
        Steal {
            ticks,
            pct: if total == 0 {
                0.0
            } else {
                100.0 * ticks as f64 / total as f64
            },
        }
    }
}

fn pin_json(p: Pinning) -> String {
    format!(
        "{{\"requested\": {}, \"threads\": {}, \"pinned\": {}, \"host_cores\": {}}}",
        p.requested, p.threads, p.pinned, p.host_cores
    )
}

/// The record as one JSON object. `runtime_pin` is the shard runtime's
/// `PinReport` outcome (its worker plus the dispatcher), when a run used it.
pub fn record_json(
    pin: Pinning,
    runtime_pin: Option<Pinning>,
    steal: Steal,
    gen_lag_us_p99: f64,
) -> String {
    let allowed = allowed_cpus()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let runtime = runtime_pin.map_or(String::new(), |p| {
        format!(", \"runtime_pin\": {}", pin_json(p))
    });
    format!(
        "{{\"nproc\": {}, \"allowed_cpus\": [{}], \"pin\": {}{}, \"l2_kib\": {}, \"l3_kib\": {}, \"steal_ticks\": {}, \"steal_pct\": {}, \"gen_lag_us_p99\": {}}}",
        cpus().0,
        allowed,
        pin_json(pin),
        runtime,
        cache_kib(2),
        cache_kib(3),
        steal.ticks,
        steal.pct,
        gen_lag_us_p99
    )
}
