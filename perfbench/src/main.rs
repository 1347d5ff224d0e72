//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <invoke_backpressure|registry_mix|serve_mix>
//!           --seed <n> --seconds <s> [--out-dir <dir>]
//! ```
//!
//! Times calls into the program's public functions from outside, checks
//! every output, prints the exact simulated-statistics ledger, and ends
//! with one JSON line of metrics. Built with the `trace` feature it
//! reports per-layer metrics from in-memory spans and the simulator's
//! phase timers instead of end-to-end ones (see README.md).

mod probe;
mod report;
mod serve_mix;
mod sim;
mod stats;
mod trace;

use std::time::Instant;

use report::Report;
use sim::Mix;
use trace::Tracer;

const TRACED: bool = cfg!(feature = "trace");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let mut out_dir = ".bench_build/perfbench-run".to_string();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--out-dir" => out_dir = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir);
        std::process::exit(2);
    }
    let clock = Instant::now();
    let mut report = match args.workload.as_str() {
        "invoke_backpressure" => run_sim(Mix::InvokeBackpressure, &args, clock),
        "registry_mix" => run_sim(Mix::RegistryMix, &args, clock),
        "serve_mix" => serve_mix::run(&args.out_dir, args.seed, args.seconds, TRACED, clock),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report.peak_rss_mb = peak_rss_mb();
    if TRACED {
        let path = format!(
            "{}/spans-{}-{}.jsonl",
            args.out_dir, args.workload, args.seed
        );
        match std::fs::write(&path, trace::dump(&report.spans)) {
            Ok(()) => println!("span dump: {path} ({} spans)", report.spans.len()),
            Err(e) => {
                eprintln!("perfbench: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("wall_s {}", report.wall_s);
    println!("{}", report.json(TRACED));
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs a simulation workload. Times are scaled to the reference host
/// speed (see `probe`); the raw values are printed alongside.
fn run_sim(mix: Mix, args: &Args, clock: Instant) -> Report {
    let mut tr = Tracer::new(TRACED, clock, 0);
    let mut report = Report::default();
    let mut next_id = 0u64;
    let (mut setups, mut walls, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = Vec::new();
    for round in 0..mix.rounds(args.seconds) {
        let t = Instant::now();
        let jobs = sim::build_round(mix, args.seed, round, &mut next_id, &mut tr);
        setups.push(t.elapsed().as_secs_f64());
        let mut wall = 0.0;
        for job in &jobs {
            probes.push(probe::probe_ns());
            let r = sim::run_job(job, round, &mut tr);
            println!(
                "job round={round} id={} {}/{}{} {:.3} ms {}",
                job.id,
                r.group,
                r.label,
                if r.verify { " [verify]" } else { "" },
                r.ns / 1e6,
                r.error.as_deref().unwrap_or("ok"),
            );
            wall += r.ns / 1e9;
            results.push(r);
        }
        walls.push(wall);
    }
    let f = probe::speed_factor(&probes);
    println!(
        "host probe: median {:.3} ms over {} samples; raw wall_s {}; times below scaled by {f}",
        probe::REF_NS / f / 1e6,
        probes.len(),
        walls.iter().sum::<f64>(),
    );
    for v in setups.iter_mut().chain(walls.iter_mut()) {
        *v *= f;
    }
    for r in &mut results {
        r.ns *= f;
    }
    report.wall_s = walls.iter().sum();
    tr.drain_into(&mut report.spans);
    report.sim(&setups, &walls, &results);
    report
}
