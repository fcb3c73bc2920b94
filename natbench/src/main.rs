//! natbench: the verified NAT measured end to end, and split by layer.
//!
//! ```text
//! natbench --workload <steady_64k|churn_1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host record, the run's exact-repeat counters and (traced
//! runs) the per-layer table, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an
//! output or counter check failed, 2 on bad arguments.

mod host;
mod inline;
mod report;
mod runtime;
mod trace;
mod traffic;
mod workloads;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: natbench --workload <steady_64k|churn_1m> --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?).filter(|s| (1..=600).contains(s)),
            "--trace" => trace = Some(num()?).filter(|t| *t <= 1).map(|t| t == 1),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be 1..=600")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("natbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    host::allowed_cpus(); // record the CPU set before any thread is pinned
    let mut o = match args.workload.as_str() {
        "steady_64k" => workloads::steady(&args),
        "churn_1m" => workloads::churn(&args),
        other => {
            eprintln!("natbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let failed_pct = 100.0 * o.failed as f64 / o.attempted.max(1) as f64;
    o.set("failed_pct", failed_pct);
    for line in &o.lines {
        println!("{line}");
    }
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
        eprintln!("natbench: FAILED CHECK: {p}");
    }
    println!("{}", o.result_json(args.trace));
    std::process::exit(if o.correct() { 0 } else { 1 });
}
