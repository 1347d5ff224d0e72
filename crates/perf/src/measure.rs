//! The repetition engine: warmup + measured repetitions grouped into
//! rounds, with robust statistics.
//!
//! Wall-clock benchmarks on a multi-tasking host are noisy; a single
//! number is worthless and a mean is fragile. Every benchmark here runs
//! `rounds × reps` measured repetitions (after warmup) and reports the
//! median, the median absolute deviation (MAD), the minimum, and one
//! median *per round* — the per-round medians are what regression gating
//! compares, so a regression must be confirmed by every round before it
//! counts (see `levi-bench perf compare`).
//!
//! Per-rep samples are also bucketed into the simulator's own log2
//! [`Histogram`] (re-exported by this crate), so host-time distributions
//! use the same machinery as simulated-latency distributions.

use levi_sim::{Histogram, PhaseProfile};
use std::time::Instant;

/// Repetition counts for one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Unmeasured warmup repetitions before any round.
    pub warmup: u32,
    /// Measurement rounds (each yields one gating median).
    pub rounds: u32,
    /// Measured repetitions per round.
    pub reps: u32,
}

impl BenchOpts {
    /// The full-fidelity default: 2 warmup, 3 rounds × 5 reps.
    pub fn full() -> Self {
        BenchOpts {
            warmup: 2,
            rounds: 3,
            reps: 5,
        }
    }

    /// Reduced counts for smoke runs: 1 warmup, 2 rounds × 3 reps.
    pub fn quick() -> Self {
        BenchOpts {
            warmup: 1,
            rounds: 2,
            reps: 3,
        }
    }

    /// Total measured repetitions.
    pub fn total_reps(&self) -> u32 {
        self.rounds * self.reps
    }
}

/// What one benchmark measured.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Stable benchmark id (`micro/cache_probe_hit`, `macro/phi`, ...).
    pub id: String,
    /// `"micro"` or `"macro"`.
    pub kind: &'static str,
    /// Unit of the value fields (`"ns/iter"` for micro, `"ns/run"` for
    /// macro).
    pub unit: &'static str,
    /// Median over all measured reps.
    pub median: f64,
    /// Median absolute deviation over all measured reps.
    pub mad: f64,
    /// Fastest rep (the least-noise estimate).
    pub min: f64,
    /// Mean over all measured reps.
    pub mean: f64,
    /// One median per round, in run order (regression gating compares
    /// these against the baseline median).
    pub rounds: Vec<f64>,
    /// Simulated cycles per rep (macro benches; 0 for micro).
    pub sim_cycles: u64,
    /// Simulated kilocycles per host second (macro benches; 0 for micro).
    pub kips: f64,
    /// Host-time phase attribution summed over measured reps (empty
    /// unless the `self-profile` feature is on).
    pub phases: PhaseProfile,
    /// Per-rep nanoseconds in the simulator's log2 buckets.
    pub hist: Histogram,
}

impl Measurement {
    fn from_samples(
        id: &str,
        kind: &'static str,
        unit: &'static str,
        samples: &[f64],
        reps_per_round: u32,
    ) -> Self {
        assert!(!samples.is_empty(), "benchmark {id} produced no samples");
        let med = median(samples);
        let mut hist = Histogram::new();
        for &s in samples {
            hist.record(s.max(0.0) as u64);
        }
        let rounds: Vec<f64> = samples
            .chunks(reps_per_round.max(1) as usize)
            .map(median)
            .collect();
        Measurement {
            id: id.to_string(),
            kind,
            unit,
            median: med,
            mad: median_abs_deviation(samples, med),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            rounds,
            sim_cycles: 0,
            kips: 0.0,
            phases: PhaseProfile::default(),
            hist,
        }
    }
}

/// Median of a sample set (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice or NaN samples.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `center`: the robust spread estimate
/// used instead of a standard deviation (one slow outlier rep must not
/// inflate it).
pub fn median_abs_deviation(xs: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&devs)
}

/// Runs a micro-benchmark: each rep is one timed batch of `iters` calls
/// to `f`; the value is nanoseconds per iteration.
pub fn bench_micro(id: &str, opts: BenchOpts, iters: u64, mut f: impl FnMut()) -> Measurement {
    for _ in 0..iters.min(1000) {
        f();
    }
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    for _ in 0..opts.warmup {
        batch();
    }
    let samples: Vec<f64> = (0..opts.total_reps()).map(|_| batch()).collect();
    Measurement::from_samples(id, "micro", "ns/iter", &samples, opts.reps)
}

/// One rep of a macro benchmark: the simulated cycles it covered plus the
/// phase profile its run drained into `Stats` (see
/// [`levi_sim::Stats::host_phases`]).
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Simulated cycles this rep executed.
    pub sim_cycles: u64,
    /// Phase attribution for this rep.
    pub phases: PhaseProfile,
}

/// Runs a macro benchmark: each rep is one call to `f` (a complete
/// simulated run); the value is nanoseconds per run. Fills in
/// [`Measurement::sim_cycles`], [`Measurement::kips`], and the summed
/// phase breakdown.
pub fn bench_macro(id: &str, opts: BenchOpts, mut f: impl FnMut() -> RepOutcome) -> Measurement {
    for _ in 0..opts.warmup {
        f();
    }
    let mut samples = Vec::with_capacity(opts.total_reps() as usize);
    let mut phases = PhaseProfile::default();
    let mut total_cycles = 0u64;
    let mut last_cycles = 0u64;
    for _ in 0..opts.total_reps() {
        let start = Instant::now();
        let rep = f();
        samples.push(start.elapsed().as_nanos() as f64);
        phases.merge(&rep.phases);
        total_cycles += rep.sim_cycles;
        last_cycles = rep.sim_cycles;
    }
    let mut m = Measurement::from_samples(id, "macro", "ns/run", &samples, opts.reps);
    m.sim_cycles = last_cycles;
    let total_ns: f64 = samples.iter().sum();
    if total_ns > 0.0 {
        // Simulated kilocycles per host second over the measured reps.
        m.kips = total_cycles as f64 / (total_ns / 1e9) / 1e3;
    }
    m.phases = phases;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One huge outlier moves the mean but not median/MAD.
        let xs = [10.0, 11.0, 10.5, 9.5, 1000.0];
        let med = median(&xs);
        assert_eq!(med, 10.5);
        assert!(median_abs_deviation(&xs, med) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_rejects_empty() {
        median(&[]);
    }

    #[test]
    fn micro_bench_produces_consistent_stats() {
        let opts = BenchOpts {
            warmup: 1,
            rounds: 2,
            reps: 3,
        };
        let mut acc = 0u64;
        let m = bench_micro("micro/test", opts, 1000, || {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(acc);
        });
        assert_eq!(m.kind, "micro");
        assert_eq!(m.unit, "ns/iter");
        assert_eq!(m.rounds.len(), 2);
        assert_eq!(m.hist.count(), u64::from(opts.total_reps()));
        assert!(m.min > 0.0 && m.min <= m.median, "{m:?}");
        assert!(m.median <= m.mean * 10.0, "{m:?}");
        assert_eq!(m.sim_cycles, 0);
        assert_eq!(m.kips, 0.0);
    }

    #[test]
    fn macro_bench_computes_kips() {
        let opts = BenchOpts {
            warmup: 0,
            rounds: 1,
            reps: 2,
        };
        let m = bench_macro("macro/test", opts, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            RepOutcome {
                sim_cycles: 1_000_000,
                phases: PhaseProfile::default(),
            }
        });
        assert_eq!(m.kind, "macro");
        assert_eq!(m.sim_cycles, 1_000_000);
        // 1M cycles in ~2ms ≈ 500,000 KIPS; allow a wide band.
        assert!(m.kips > 1_000.0 && m.kips < 5_000_000.0, "{}", m.kips);
        assert_eq!(m.rounds.len(), 1);
    }
}
