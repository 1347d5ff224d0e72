//! The simulation workloads: seeded job lists timed through
//! `levi_workloads::harness` (`Workload::build_input`, `golden`, `run`).
//!
//! A run is a fixed number of rounds. Each round draws fresh input seeds
//! from the benchmark seed, builds inputs and golden checksums (the
//! round's set-up), then runs its jobs one at a time on the calling
//! thread in a seeded order. Every job's checksum must equal its golden.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use levi_sim::{Phase, PhaseProfile, Stats};
use levi_workloads::decompress::{DecompressScale, DecompressWorkload};
use levi_workloads::hashtable::{HashtableWorkload, HtScale};
use levi_workloads::hats::{HatsScale, HatsWorkload};
use levi_workloads::micro::{MicroScale, MicroWorkload};
use levi_workloads::phi::{PhiScale, PhiWorkload};
use levi_workloads::{RunEnv, RunStatus, SmallRng, Workload};

use crate::trace::Tracer;

/// Which simulation workload to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// PHI Leviathan + Ideal at 16 tiles, plus micro InvokeAdd.
    InvokeBackpressure,
    /// Every other registry variant, plus snapshot-verified twins.
    RegistryMix,
}

impl Mix {
    /// Rounds in a run of about `seconds` seconds on a 2-vCPU VM. A pure
    /// function of `seconds`, so the work of a run never depends on how
    /// fast the machine happens to be.
    pub fn rounds(self, seconds: u64) -> u64 {
        let round_s = match self {
            Mix::InvokeBackpressure => 2,
            Mix::RegistryMix => 9,
        };
        seconds.div_ceil(round_s).max(1)
    }
}

/// One timed simulation: a variant of a workload on a prepared input.
pub struct Job {
    /// Operation id (shared by the job's spans).
    pub id: u64,
    /// The input group, e.g. `phi16` or `hashtable`.
    pub group: &'static str,
    /// Variant label.
    pub label: &'static str,
    /// Runs with `RunEnv::snapshot_verify` (a twin of a plain job).
    pub verify: bool,
    /// The golden checksum the run must reproduce.
    pub golden: u64,
    run: Box<dyn Fn(&RunEnv) -> RunStatus>,
}

/// Builds one input and the jobs over it, timing the harness calls.
fn prepare<W>(
    w: &'static W,
    group: &'static str,
    scale: W::Scale,
    picks: &[(&'static str, bool)],
    next_id: &mut u64,
    tr: &mut Tracer,
) -> Vec<Job>
where
    W: Workload,
    W::Scale: 'static,
    W::Input: 'static,
{
    let input = Arc::new(tr.span("harness.build_input", *next_id + 1, || {
        w.build_input(&scale)
    }));
    let scale = Arc::new(scale);
    let variants = w.variants();
    picks
        .iter()
        .map(|&(label, verify)| {
            let v = variants
                .iter()
                .find(|(l, _)| *l == label)
                .unwrap_or_else(|| panic!("{group}: no variant {label:?}"))
                .1;
            *next_id += 1;
            let golden = tr.span("harness.golden", *next_id, || w.golden(v, &scale, &input));
            let (s, i) = (Arc::clone(&scale), Arc::clone(&input));
            Job {
                id: *next_id,
                group,
                label,
                verify,
                golden,
                run: Box::new(move |env| w.run(v, &s, &i, env)),
            }
        })
        .collect()
}

fn plain(labels: &[&'static str]) -> Vec<(&'static str, bool)> {
    labels.iter().map(|&l| (l, false)).collect()
}

/// Builds round `round`'s inputs and jobs (the round's set-up).
pub fn build_round(
    mix: Mix,
    seed: u64,
    round: u64,
    next_id: &mut u64,
    tr: &mut Tracer,
) -> Vec<Job> {
    let mut rng = SmallRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut jobs = Vec::new();
    let phi16 = |seed| PhiScale {
        tiles: 16,
        seed,
        ..PhiScale::test()
    };
    match mix {
        Mix::InvokeBackpressure => {
            jobs.extend(prepare(
                &PhiWorkload,
                "phi16",
                phi16(rng.next_u64()),
                &plain(&["Leviathan", "Ideal"]),
                next_id,
                tr,
            ));
            jobs.extend(prepare(
                &MicroWorkload,
                "micro",
                MicroScale {
                    seed: rng.next_u64(),
                    ..MicroScale::paper()
                },
                &plain(&["InvokeAdd"]),
                next_id,
                tr,
            ));
        }
        Mix::RegistryMix => {
            // Every group adds a snapshot-verified twin of its first
            // (baseline) job, so every round runs the same kinds of work
            // and rounds and runs weigh the same.
            let with_twin = |labels: &[&'static str]| {
                let mut p = plain(labels);
                p.push((labels[0], true));
                p
            };
            let ht = with_twin(&[
                "Baseline",
                "Leviathan",
                "w/o padding",
                "w/o LLC mapping",
                "Leviathan (DYNAMIC)",
                "Ideal",
            ]);
            jobs.extend(prepare(
                &HashtableWorkload,
                "hashtable",
                HtScale {
                    seed: rng.next_u64(),
                    ..HtScale::paper(64)
                },
                &ht,
                next_id,
                tr,
            ));
            let dec = with_twin(&["Baseline", "Offload (OL)", "Leviathan", "Ideal"]);
            jobs.extend(prepare(
                &DecompressWorkload,
                "decompress",
                DecompressScale {
                    seed: rng.next_u64(),
                    ..DecompressScale::paper()
                },
                &dec,
                next_id,
                tr,
            ));
            let hats = with_twin(&["Baseline", "SW BDFS", "tako", "Leviathan", "Ideal"]);
            jobs.extend(prepare(
                &HatsWorkload,
                "hats",
                HatsScale {
                    seed: rng.next_u64(),
                    ..HatsScale::test()
                },
                &hats,
                next_id,
                tr,
            ));
            let phi = with_twin(&["Baseline", "tako Fence", "tako Relax"]);
            jobs.extend(prepare(
                &PhiWorkload,
                "phi16",
                phi16(rng.next_u64()),
                &phi,
                next_id,
                tr,
            ));
            let micro = with_twin(&["Scan", "PtrChase"]);
            jobs.extend(prepare(
                &MicroWorkload,
                "micro",
                MicroScale {
                    seed: rng.next_u64(),
                    ..MicroScale::paper()
                },
                &micro,
                next_id,
                tr,
            ));
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// What one job produced.
pub struct JobResult {
    /// The round the job ran in.
    pub round: u64,
    /// Input group.
    pub group: &'static str,
    /// Variant label.
    pub label: &'static str,
    /// Ran snapshot-verified.
    pub verify: bool,
    /// Host nanoseconds inside `Workload::run`.
    pub ns: f64,
    /// Checksum equalled the golden and the run completed.
    pub ok: bool,
    /// Why the job failed, when it did.
    pub error: Option<String>,
    /// Exact simulated counts (all zero for a failed job).
    pub counts: Counts,
    /// Host time per simulator phase (empty unless the traced build).
    pub phases: PhaseProfile,
}

/// The exact simulated counts the ledger records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Core plus engine instructions.
    pub insts: u64,
    /// Invokes issued.
    pub invokes: u64,
    /// Invokes NACKed.
    pub invoke_nacks: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// NoC flit-hops.
    pub noc_flit_hops: u64,
}

impl Counts {
    /// The counts of a finished simulation.
    pub fn of(s: &Stats) -> Counts {
        Counts {
            cycles: s.cycles,
            insts: s.core_instrs + s.engine_instrs,
            invokes: s.invokes,
            invoke_nacks: s.invoke_nacks,
            llc_misses: s.llc.misses,
            dram_accesses: s.dram_accesses,
            noc_flit_hops: s.noc_flit_hops,
        }
    }

    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.insts += o.insts;
        self.invokes += o.invokes;
        self.invoke_nacks += o.invoke_nacks;
        self.llc_misses += o.llc_misses;
        self.dram_accesses += o.dram_accesses;
        self.noc_flit_hops += o.noc_flit_hops;
    }

    /// The ledger form: `cycles=.. insts=.. ...`.
    pub fn ledger(&self) -> String {
        let fields: Vec<String> = self
            .fields()
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        fields.join(" ")
    }

    /// `(name, value)` pairs, ledger order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("cycles", self.cycles),
            ("insts", self.insts),
            ("invokes", self.invokes),
            ("invoke_nacks", self.invoke_nacks),
            ("llc_misses", self.llc_misses),
            ("dram_accesses", self.dram_accesses),
            ("noc_flit_hops", self.noc_flit_hops),
        ]
    }
}

/// Runs one job on the calling thread and checks it against its golden.
pub fn run_job(job: &Job, round: u64, tr: &mut Tracer) -> JobResult {
    let env = RunEnv {
        snapshot_verify: job.verify,
        ..RunEnv::default()
    };
    tr.open("harness.run", job.id);
    let t = Instant::now();
    let status = catch_unwind(AssertUnwindSafe(|| (job.run)(&env)));
    let ns = t.elapsed().as_nanos() as f64;
    tr.close();
    let mut r = JobResult {
        round,
        group: job.group,
        label: job.label,
        verify: job.verify,
        ns,
        ok: false,
        error: None,
        counts: Counts::default(),
        phases: PhaseProfile::default(),
    };
    match status {
        Ok(RunStatus::Done(o)) if o.checksum == job.golden => {
            r.ok = true;
            r.counts = Counts::of(&o.metrics.stats);
            r.phases = o.metrics.stats.host_phases.clone();
        }
        Ok(RunStatus::Done(o)) => {
            r.error = Some(format!(
                "checksum {:#x} != golden {:#x}",
                o.checksum, job.golden
            ))
        }
        Ok(RunStatus::Unsupported(why)) => r.error = Some(format!("unsupported: {why}")),
        Err(_) => r.error = Some("panicked".into()),
    }
    r
}

/// Host time per phase summed over `results`, with the per-phase calls.
pub fn phase_totals<'a>(results: impl Iterator<Item = &'a JobResult>) -> PhaseProfile {
    let mut p = PhaseProfile::default();
    for r in results {
        p.merge(&r.phases);
    }
    p
}

/// The `host_phases` table of one group: ns and calls per phase, per
/// simulated instruction and per invoke.
pub fn phase_table(name: &str, p: &PhaseProfile, c: &Counts) -> String {
    let mut out = format!(
        "host_phases {name}: insts={} invokes={}\n  phase        ns/inst   calls/inst  calls/invoke\n",
        c.insts, c.invokes
    );
    let per = |x: u64, d: u64| if d == 0 { 0.0 } else { x as f64 / d as f64 };
    for ph in Phase::ALL {
        out.push_str(&format!(
            "  {:<8} {:>11.2} {:>12.4} {:>13.2}\n",
            ph.name(),
            per(p.ns(ph), c.insts),
            per(p.calls(ph), c.insts),
            per(p.calls(ph), c.invokes),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing(mix: Mix, seed: u64) -> Vec<(&'static str, &'static str, bool, u64)> {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let mut id = 0;
        build_round(mix, seed, 0, &mut id, &mut tr)
            .iter()
            .map(|j| (j.group, j.label, j.verify, j.golden))
            .collect()
    }

    #[test]
    fn same_seed_same_jobs_different_seed_different_inputs() {
        for mix in [Mix::InvokeBackpressure, Mix::RegistryMix] {
            assert_eq!(listing(mix, 11), listing(mix, 11));
            let goldens = |s| listing(mix, s).iter().map(|j| j.3).collect::<Vec<_>>();
            assert_ne!(
                goldens(11),
                goldens(12),
                "{mix:?}: the seed must change inputs"
            );
        }
    }

    /// Runs the round's cheap micro jobs (milliseconds each) and returns
    /// their ledger entries.
    fn micro_ledger(mix: Mix, seed: u64) -> Vec<(&'static str, bool, Counts)> {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let mut id = 0;
        build_round(mix, seed, 0, &mut id, &mut tr)
            .iter()
            .filter(|j| j.group == "micro")
            .map(|j| {
                let r = run_job(j, 0, &mut tr);
                assert!(r.ok, "{mix:?} seed {seed} {}: {:?}", j.label, r.error);
                (j.label, j.verify, r.counts)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_counts_and_every_seed_matches_golden() {
        for mix in [Mix::InvokeBackpressure, Mix::RegistryMix] {
            let a = micro_ledger(mix, 5);
            assert!(!a.is_empty());
            assert_eq!(a, micro_ledger(mix, 5), "{mix:?}: same seed, same counts");
            // Another seed: every golden still passes (checked inside
            // `micro_ledger`).
            micro_ledger(mix, 6);
        }
    }

    #[test]
    fn rounds_are_a_function_of_seconds_only() {
        assert_eq!(Mix::InvokeBackpressure.rounds(1), 1);
        assert_eq!(Mix::RegistryMix.rounds(18), 2);
        assert_eq!(Mix::RegistryMix.rounds(19), 3);
    }
}
