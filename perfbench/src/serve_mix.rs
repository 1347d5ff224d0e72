//! `serve_mix`: two closed-loop clients against an in-process levi-serve
//! `Server` with one worker, timed through `Server::start` and
//! `run_remote`.
//!
//! A run is a fixed number of rounds; each round starts a server on a
//! fresh cache file (the round's set-up) and plays a seeded script:
//!
//! 1. **Miss steps.** Both clients send at once, then wait for each
//!    other: either the same new job (one execution, which the second
//!    request joins, or finds in the cache if it arrives after the
//!    execution ended) or two different new jobs (two executions,
//!    serialized on the worker). Every job is a quick-scale figure with
//!    a seeded `FaultSpec`, so its cache key is new on every seed.
//! 2. **Hits.** The clients repeat this round's jobs from a shared queue,
//!    each sending its next request when the last one returns.
//!
//! Simulated instructions come from the figure runner's per-run
//! telemetry dump (`LEVI_TELEMETRY`), read at the barrier after each
//! miss step, so each step's host time divides by exactly its own
//! simulation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use levi_bench::json::{parse, Json};
use levi_bench::out::{self, Line};
use levi_bench::serve::protocol::key_hex;
use levi_bench::serve::{run_remote, Event, FigureExecutor, Job, ResultCache, ServeConfig, Server};
use levi_sim::Phase;
use levi_workloads::{FaultSpec, SmallRng};

use crate::probe::{speed_factor, REF_NS};
use crate::report::Report;
use crate::sim::Counts;
use crate::stats::{highest_percentile, median, ns_per_inst, ns_per_inst_p50, percentile, Cost};
use crate::trace::{durations, self_ns, Tracer};

/// One miss step: both clients send at once, then wait for each other.
#[derive(Clone, Copy)]
enum Step {
    /// The same new job from both clients: one execution, which the
    /// second request joins (or, arriving late, finds in the cache).
    Same(&'static str),
    /// Two different new jobs, serialized on the one worker.
    Two(&'static str, &'static str),
}

/// The miss steps of every round. Every round runs the same figures
/// (each quick-scale, 5-100 ms to execute) so that rounds weigh the
/// same; the seed picks each job's fault plan, the step order and which
/// client sends which job.
///
/// Only figures that run through the figure runner's generic sweeps
/// (`sweep_variants`, `sweep_prepared`) and execute in well under a
/// second qualify: those write every run to the telemetry dump, where
/// the simulated instructions are read. The figures built on `Sweep`
/// write none, so their host time would be charged to no instructions.
/// `micro_substrate` is left out as well: it prints host wall-clock
/// numbers, so its output is not a function of the job and caching it
/// is wrong.
///
/// The mix keeps both medians inside one kind of work instead of
/// between two: the middle steps by ns/inst all execute decompress, and
/// five of the eight jobs a round repeats are decompress ones (a hit
/// costs about what computing the job's golden checksums for its cache
/// key does: 1 ms for decompress, 0.4 ms for micro).
const STEPS: [Step; 5] = [
    Step::Same("fig16_decompress"),
    Step::Same("micro_kernels"),
    Step::Two("fig16_decompress", "fig16_decompress"),
    Step::Two("fig16_decompress", "micro_kernels"),
    Step::Two("fig16_decompress", "micro_kernels"),
];

/// Simulations a round's miss steps execute: one per distinct job.
fn executions_per_round() -> u64 {
    STEPS
        .iter()
        .map(|step| match step {
            Step::Same(_) => 1,
            Step::Two(..) => 2,
        })
        .sum()
}

/// Hit requests per distinct job of a round.
const HITS_PER_JOB: usize = 18;
/// Host time of one round on a 2-vCPU VM, ms. The round count is a pure
/// function of `--seconds`, never of how fast the machine runs.
const ROUND_MS: u64 = 500;

/// One client request and what came back.
struct Sent {
    /// Request latency, ns.
    ns: f64,
    /// `(key, cached, coalesced)`, or the transport or server error.
    outcome: Result<(String, bool, bool), String>,
    /// The replayed transcript.
    lines: Vec<Line>,
}

fn send(addr: &str, job: &Job, op: u64, tr: &mut Tracer) -> Sent {
    let captured = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&captured);
    let guard = out::install_sink(Box::new(move |l| sink.borrow_mut().push(l)));
    tr.open("serve.run_remote", op);
    let t = Instant::now();
    let r = run_remote(addr, job);
    let ns = t.elapsed().as_nanos() as f64;
    tr.close();
    drop(guard);
    let lines = captured.take();
    Sent {
        ns,
        outcome: r.map(|o| (o.key, o.cached, o.coalesced)),
        lines,
    }
}

/// Reads the telemetry dump from `*offset` to its end, returning the
/// summed counts and per-phase host ns of the runs it holds.
fn read_dump(path: &str, offset: &mut u64) -> (Counts, [u64; 8]) {
    let mut text = String::new();
    if let Ok(mut f) = std::fs::File::open(path) {
        let _ = f.seek(SeekFrom::Start(*offset));
        let _ = f.read_to_string(&mut text);
    }
    *offset += text.len() as u64;
    let (mut c, mut phases) = (Counts::default(), [0u64; 8]);
    for line in text.lines() {
        let Ok(doc) = parse(line) else { continue };
        let (Some(name), Some(v)) = (
            doc.get("metric").and_then(Json::as_str),
            doc.get("value").and_then(Json::as_num),
        ) else {
            continue;
        };
        let v = v as u64;
        match name {
            "cycles" => c.cycles += v,
            "core_instrs" | "engine_instrs" => c.insts += v,
            "invokes" => c.invokes += v,
            "invoke_nacks" => c.invoke_nacks += v,
            "llc_misses" => c.llc_misses += v,
            "dram_accesses" => c.dram_accesses += v,
            "noc_flit_hops" => c.noc_flit_hops += v,
            other => {
                if let Some(p) = other.strip_prefix("host_ns_").and_then(Phase::from_name) {
                    phases[p as usize] += v;
                }
            }
        }
    }
    (c, phases)
}

/// A request of the script with the cache key the server must report.
#[derive(Clone)]
struct Req {
    job: Job,
    key: String,
}

impl Req {
    fn new(job: Job) -> Req {
        let key = job.cache_key().map(key_hex).unwrap_or_default();
        Req { job, key }
    }
}

/// The jobs of one round's miss steps: `(client 0's job, client 1's job)`.
fn script(rng: &mut SmallRng) -> Vec<(Req, Req)> {
    let fresh = |fig: &str, rng: &mut SmallRng| {
        let mut job = Job::new(fig);
        job.quick = true;
        // The wire carries fault seeds as JSON numbers, which hold
        // integers exactly only below 2^53 (README.md, known issues).
        job.fault = Some(FaultSpec::new(rng.next_u64() >> 32));
        Req::new(job)
    };
    let mut steps: Vec<(Req, Req)> = STEPS
        .iter()
        .map(|&step| {
            let (a, b) = match step {
                Step::Same(f) => {
                    let a = fresh(f, rng);
                    (a.clone(), a)
                }
                Step::Two(fa, fb) => (fresh(fa, rng), fresh(fb, rng)),
            };
            if rng.bounded(2) == 0 {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    rng.shuffle(&mut steps);
    steps
}

#[derive(Default)]
struct Tally {
    requests: u64,
    failed: u64,
    hits: u64,
    executions: u64,
    coalesced: u64,
    hit_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    errors: Vec<String>,
    /// First transcript of every key, which every later one must match.
    transcripts: HashMap<String, Vec<Line>>,
}

impl Tally {
    /// Records one response; `expect_hit` marks the hit phase.
    fn record(&mut self, req: &Req, s: Sent, expect_hit: bool) {
        let job = &req.job;
        self.requests += 1;
        let (key, cached, coalesced) = match s.outcome {
            Ok(o) => o,
            Err(e) => return self.fail(format!("{}: {e}", job.canon())),
        };
        if key != req.key {
            return self.fail(format!("{}: key {key}, expected {}", job.canon(), req.key));
        }
        if expect_hit && !cached {
            return self.fail(format!(
                "{}: repeat was not served from the cache",
                job.canon()
            ));
        }
        match self.transcripts.get(&key) {
            Some(first) if *first != s.lines => {
                return self.fail(format!(
                    "{}: transcript differs from the first",
                    job.canon()
                ))
            }
            Some(_) => {}
            None => {
                self.transcripts.insert(key, s.lines);
            }
        }
        let ms = s.ns / 1e6;
        if cached {
            self.hits += 1;
            self.hit_ms.push(ms);
        } else {
            self.coalesced += u64::from(coalesced);
            self.executions += u64::from(!coalesced);
            self.exec_ms.push(ms);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Runs the workload and returns its metrics.
pub fn run(dir: &str, seed: u64, seconds: u64, traced: bool, clock: Instant) -> Report {
    // Serial sweeps keep each execution on the worker thread; the dump
    // carries the counts of every simulation the figures run.
    let dump = format!("{dir}/telemetry-{seed}.jsonl");
    let _ = std::fs::remove_file(&dump);
    std::env::set_var("LEVI_SWEEP_SERIAL", "1");
    std::env::set_var("LEVI_TELEMETRY", &dump);

    let mut tr = Tracer::new(traced, clock, 0);
    let mut report = Report::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let tally = Mutex::new(Tally::default());
    let (mut setups, mut steps_cost, mut total, mut phases) =
        (Vec::new(), Vec::new(), Counts::default(), [0u64; 8]);
    let (mut offset, mut probes) = (0u64, Vec::new());
    let (mut figure_ms, mut overhead_ms, mut protocol_lines) = (Vec::new(), Vec::new(), 0usize);
    let rounds = (seconds * 1000 / ROUND_MS).max(1);

    for round in 0..rounds {
        let cache = format!("{dir}/serve-{seed}-{round}.cache");
        let _ = std::fs::remove_file(&cache);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_path: cache.clone(),
            workers: 1,
            queue_depth: 8,
        };
        tr.open("serve.start", round);
        let t = Instant::now();
        let server = Server::start(&cfg, Arc::new(FigureExecutor));
        setups.push(t.elapsed().as_secs_f64());
        tr.close();
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                let mut t = tally.lock().expect("tally poisoned");
                t.requests += 1;
                t.fail(format!("server start: {e}"));
                continue;
            }
        };
        let addr = server.addr().to_string();
        probes.push(crate::probe::probe_ns());
        let steps = script(&mut rng);
        // Every distinct job of the round is repeated equally often, in
        // a seeded order, so the share of each kind of hit is fixed.
        let mut jobs: Vec<&Req> = Vec::new();
        for req in steps.iter().flat_map(|(a, b)| [a, b]) {
            if !jobs.iter().any(|j| j.key == req.key) {
                jobs.push(req);
            }
        }
        let mut hits: Vec<Req> = jobs
            .iter()
            .cycle()
            .take(jobs.len() * HITS_PER_JOB)
            .map(|&r| r.clone())
            .collect();
        rng.shuffle(&mut hits);
        let base_op = round * 1_000_000;

        let barrier = Barrier::new(3);
        let next_hit = AtomicUsize::new(0);
        let mut client_spans = Vec::new();
        let t_round = Instant::now();
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..2u64)
                .map(|c| {
                    let (addr, steps, hits) = (&addr, &steps, &hits);
                    let (barrier, next_hit, tally) = (&barrier, &next_hit, &tally);
                    s.spawn(move || {
                        let mut tr = Tracer::new(traced, clock, 1 + c);
                        for (i, (a, b)) in steps.iter().enumerate() {
                            let job = if c == 0 { a } else { b };
                            barrier.wait();
                            let sent = send(addr, &job.job, base_op + 2 * i as u64 + c, &mut tr);
                            tally
                                .lock()
                                .expect("tally poisoned")
                                .record(job, sent, false);
                            barrier.wait();
                        }
                        loop {
                            let i = next_hit.fetch_add(1, Ordering::SeqCst);
                            let Some(job) = hits.get(i) else { break };
                            let sent = send(addr, &job.job, base_op + 1000 + i as u64, &mut tr);
                            tally
                                .lock()
                                .expect("tally poisoned")
                                .record(job, sent, true);
                        }
                        let mut spans = Vec::new();
                        tr.drain_into(&mut spans);
                        spans
                    })
                })
                .collect();
            for _ in &steps {
                barrier.wait();
                let t = Instant::now();
                barrier.wait();
                let ns = t.elapsed().as_nanos() as f64;
                let (c, p) = read_dump(&dump, &mut offset);
                if c.insts == 0 {
                    // A missing dump would otherwise read as free misses.
                    tally
                        .lock()
                        .expect("tally poisoned")
                        .fail(format!("round {round}: a miss step simulated nothing"));
                }
                total.add(&c);
                for (acc, v) in phases.iter_mut().zip(p) {
                    *acc += v;
                }
                steps_cost.push(Cost { ns, insts: c.insts });
            }
            for c in clients {
                client_spans.extend(c.join().expect("client thread panicked"));
            }
        });
        report.wall_s += t_round.elapsed().as_secs_f64();
        report.spans.extend(client_spans);
        let executions = server.executions();
        tr.span("serve.shutdown", round, || server.shutdown());
        {
            let mut t = tally.lock().expect("tally poisoned");
            // Hits must bypass simulation: nothing may have run since
            // the last miss step.
            let (after_hits, _) = read_dump(&dump, &mut offset);
            if after_hits != Counts::default() {
                t.fail(format!("round {round}: the hit phase ran a simulation"));
            }
            let want = executions_per_round();
            if executions != want {
                t.fail(format!(
                    "round {round}: {executions} executions, expected {want}"
                ));
            }
        }
        // Every fifth round: the in-process figure runs would otherwise
        // more than double a traced run.
        if traced && round % 5 == 0 {
            protocol_lines += layer_probes(
                &steps,
                &tally,
                &mut tr,
                round,
                &dump,
                &mut offset,
                &mut figure_ms,
                &mut overhead_ms,
                &steps_cost,
            );
        }
        // Every round has its own keys; later rounds never repeat them.
        tally.lock().expect("tally poisoned").transcripts.clear();
        let _ = std::fs::remove_file(&cache);
    }
    tr.drain_into(&mut report.spans);
    // Several MB a run; every run starts a fresh one.
    let _ = std::fs::remove_file(&dump);

    let t = tally.into_inner().expect("tally poisoned");
    for e in &t.errors {
        println!("error {e}");
    }
    println!("ledger total {}", total.ledger());
    // Scale every end-to-end time to the reference host speed (see
    // `probe`); the raw values are printed here.
    let f = speed_factor(&probes);
    println!(
        "host probe: median {:.3} ms over {} samples; raw wall_s {} setup_s {} op_ms.p50 {}; times below scaled by {f}",
        REF_NS / f / 1e6,
        probes.len(),
        report.wall_s,
        median(&setups).unwrap_or(0.0),
        median(&t.hit_ms).unwrap_or(0.0),
    );
    report.wall_s *= f;
    for v in setups.iter_mut() {
        *v *= f;
    }
    for c in &mut steps_cost {
        c.ns *= f;
    }
    let scaled_hit_ms: Vec<f64> = t.hit_ms.iter().map(|ms| ms * f).collect();
    println!(
        "requests={} hits={} executions={} coalesced={} failed={}",
        t.requests, t.hits, t.executions, t.coalesced, t.failed
    );
    report.attempted = t.requests;
    report.failed = t.failed;
    report.e2e.insert("setup_s", median(&setups).unwrap_or(0.0));
    report
        .e2e
        .insert("ns_per_inst", ns_per_inst(&steps_cost).unwrap_or(0.0));
    report.e2e.insert(
        "ns_per_inst.p50",
        ns_per_inst_p50(&steps_cost).unwrap_or(0.0),
    );
    report
        .e2e
        .insert("op_ms.p50", median(&scaled_hit_ms).unwrap_or(0.0));

    report.set_counts(&total);
    for ph in Phase::ALL {
        report.set_phase_ns(ph, phases[ph as usize]);
    }
    let l = &mut report.layer;
    l.insert("serve.hits", t.hits as f64);
    l.insert("serve.executions", t.executions as f64);
    l.insert("serve.coalesced", t.coalesced as f64);
    l.insert("serve.failed", t.failed as f64);
    l.insert("serve.hit_ms.p50", median(&t.hit_ms).unwrap_or(0.0));
    // Reported only with at least ten hits beyond it.
    let p90 = highest_percentile(t.hit_ms.len()).is_some_and(|p| p >= 90.0);
    l.insert(
        "serve.hit_ms.p90",
        if p90 {
            percentile(&t.hit_ms, 90.0).unwrap_or(0.0)
        } else {
            0.0
        },
    );
    l.insert("serve.exec_ms.p50", median(&t.exec_ms).unwrap_or(0.0));
    l.insert("figure.run_ms", median(&figure_ms).unwrap_or(0.0));
    l.insert(
        "serve.exec_overhead_ms",
        median(&overhead_ms).unwrap_or(0.0),
    );
    let median_ns = |name| median(&durations(&report.spans, name)).unwrap_or(0.0);
    l.insert("serve.start_ms", median_ns("serve.start") / 1e6);
    l.insert("serve.cache.put_ms", median_ns("serve.cache.put") / 1e6);
    l.insert("serve.cache.get_us", median_ns("serve.cache.get") / 1e3);
    l.insert("serve.cache_key_ms", median_ns("serve.cache_key") / 1e6);
    let protocol_ns = self_ns(&report.spans)
        .get("serve.protocol")
        .copied()
        .unwrap_or(0);
    l.insert(
        "serve.protocol.us_per_line",
        protocol_ns as f64 / 1e3 / protocol_lines.max(1) as f64,
    );
    report
}

/// Traced runs only (every fifth round): times the layers under the
/// service from outside — the in-process figure run of every executed
/// job (whose transcript must equal the served one), the result cache's
/// `open`/`put`/`get` on a scratch file, and the wire protocol's
/// `render` + `parse` per line.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    steps: &[(Req, Req)],
    tally: &Mutex<Tally>,
    tr: &mut Tracer,
    round: u64,
    dump: &str,
    offset: &mut u64,
    figure_ms: &mut Vec<f64>,
    overhead_ms: &mut Vec<f64>,
    steps_cost: &[Cost],
) -> usize {
    let mut t = tally.lock().expect("tally poisoned");
    let step_base = steps_cost.len() - steps.len();
    let mut transcripts = Vec::new();
    for (i, (a, b)) in steps.iter().enumerate() {
        let reqs: Vec<&Req> = if a.key == b.key { vec![a] } else { vec![a, b] };
        let mut run_ns = 0.0;
        for req in reqs {
            let job = &req.job;
            let Some(fig) = levi_bench::runner::find_figure(&job.figure) else {
                continue;
            };
            let captured = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&captured);
            let guard = out::install_sink(Box::new(move |l| sink.borrow_mut().push(l)));
            let op = round * 1_000_000 + 2 * i as u64;
            tr.open("runner.run_figure", op);
            let start = Instant::now();
            levi_bench::runner::run_figure(fig, &job.run_ctx());
            let ns = start.elapsed().as_nanos() as f64;
            tr.close();
            drop(guard);
            run_ns += ns;
            figure_ms.push(ns / 1e6);
            let lines = captured.take();
            if t.transcripts.get(&req.key) != Some(&lines) {
                t.fail(format!(
                    "{}: in-process transcript differs from the served one",
                    job.canon()
                ));
            }
            // What every request, hit or miss, costs the server before
            // it can look in its cache.
            let key = tr.span("serve.cache_key", op, || job.cache_key());
            let Ok(key) = key.map_err(|e| t.fail(format!("{}: {e}", job.canon()))) else {
                continue;
            };
            transcripts.push((key, lines));
        }
        overhead_ms.push((steps_cost[step_base + i].ns - run_ns) / 1e6);
    }
    // The in-process runs appended to the dump too; skip them.
    let _ = read_dump(dump, offset);

    let path = format!("{dump}.probe-{round}.cache");
    let _ = std::fs::remove_file(&path);
    if let Ok(mut cache) = tr.span("serve.cache.open", round, || ResultCache::open(&path)) {
        for (key, lines) in &transcripts {
            let _ = tr.span("serve.cache.put", round, || cache.put(*key, lines));
        }
        for (key, lines) in &transcripts {
            let got = tr.span("serve.cache.get", round, || {
                cache.get(*key).map(<[Line]>::to_vec)
            });
            if got.as_ref() != Some(lines) {
                t.fail(format!("cache probe: key {key:#x} did not read back"));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    tr.open("serve.protocol", round);
    let mut n = 0;
    for (_, lines) in &transcripts {
        n += lines.len();
        for l in lines {
            let back = Event::parse(&Event::Line(l.clone()).render());
            if back.as_ref() != Ok(&Event::Line(l.clone())) {
                t.fail("protocol: a line did not survive render + parse".into());
            }
        }
    }
    tr.close();
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> Vec<(String, String)> {
        script(&mut SmallRng::seed_from_u64(seed))
            .into_iter()
            .map(|(a, b)| (a.key, b.key))
            .collect()
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let k = keys(3);
        assert_eq!(k, keys(3));
        assert_ne!(k, keys(4), "the seed must change the jobs");
        // Identical pairs share a key; every other job is new.
        let mut distinct: Vec<&String> = k.iter().flat_map(|(a, b)| [a, b]).collect();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.iter().all(|key| !key.is_empty()));
        assert_eq!(distinct.len() as u64, executions_per_round());
    }
}
