//! Shared reporting utilities for the benchmark harness.
//!
//! Every registry figure ([`figures::ALL`], run by `levi-bench run`)
//! regenerates one table or figure of the paper's evaluation and prints the measured values next to the paper's reported
//! numbers. We reproduce *shape* — who wins, by roughly what factor,
//! where crossovers fall — not absolute cycle counts (the substrate is a
//! from-scratch simulator, not the authors' testbed). See EXPERIMENTS.md
//! for the recorded comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;

use levi_sim::Histogram;
use levi_workloads::metrics::RunMetrics;

pub mod codec;
pub mod figures;
pub mod journal;
pub mod json;
pub mod out;
pub mod perf_cli;
pub mod runner;
pub mod serve;

/// True when `LEVI_BENCH_QUICK` is set: figures drop to reduced scales
/// (useful for smoke-testing the harness).
pub fn quick_mode() -> bool {
    std::env::var("LEVI_BENCH_QUICK").is_ok()
}

/// True when `LEVI_SWEEP_SERIAL` is set: [`Sweep`] runs its variants on
/// the calling thread instead of fanning out. The output is byte-identical
/// either way; the switch exists for debugging and for comparing
/// wall-clock times.
pub fn sweep_serial() -> bool {
    std::env::var("LEVI_SWEEP_SERIAL").is_ok()
}

/// A deterministic parallel experiment driver.
///
/// A `Sweep` holds a list of *named variants* — typically workload-variant
/// enums or `SystemConfig`s — and runs one simulation per variant. Each
/// simulated run is a pure function of its configuration and seed (the
/// simulator shares no global state), so the variants fan out over
/// [`std::thread::scope`] and the results are collected **in declaration
/// order**: a parallel sweep prints byte-identical tables to a serial one,
/// just sooner. Run functions must therefore not print; keep per-run
/// logging in the closure's return value and emit it after [`Sweep::run`]
/// returns.
///
/// ```no_run
/// use levi_bench::Sweep;
/// let results = Sweep::new()
///     .variant("small", 4u32)
///     .variant("large", 64u32)
///     .run(|_, &tiles| tiles * 2);
/// assert_eq!(results, [("small", 8), ("large", 128)]);
/// ```
pub struct Sweep<'a, C> {
    variants: Vec<(&'a str, C)>,
}

impl<'a, C> Default for Sweep<'a, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, C> Sweep<'a, C> {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep {
            variants: Vec::new(),
        }
    }

    /// Appends one named variant. Results come back in the order the
    /// variants were declared, regardless of which finishes first.
    pub fn variant(mut self, name: &'a str, cfg: C) -> Self {
        self.variants.push((name, cfg));
        self
    }

    /// Appends variants from an iterator.
    pub fn variants(mut self, it: impl IntoIterator<Item = (&'a str, C)>) -> Self {
        self.variants.extend(it);
        self
    }

    /// Runs `f(name, cfg)` for every variant — concurrently unless
    /// `LEVI_SWEEP_SERIAL` is set or there is at most one variant — and
    /// returns `(name, result)` pairs in declaration order.
    ///
    /// # Panics
    /// Every variant runs to completion even if some panic; if any did,
    /// this panics afterwards with a summary naming each failed variant.
    /// Use [`Sweep::try_run`] to handle per-variant panics as values.
    pub fn run<R, F>(self, f: F) -> Vec<(&'a str, R)>
    where
        C: Sync,
        R: Send,
        F: Fn(&str, &C) -> R + Sync,
    {
        let mut ok = Vec::new();
        let mut failed: Vec<VariantPanic> = Vec::new();
        for (name, result) in self.try_run(f) {
            match result {
                Ok(r) => ok.push((name, r)),
                Err(p) => failed.push(p),
            }
        }
        if !failed.is_empty() {
            let mut msg = format!("{} sweep variant(s) panicked:", failed.len());
            for p in &failed {
                msg.push_str(&format!("\n  {p}"));
            }
            panic!("{msg}");
        }
        ok
    }

    /// Like [`Sweep::run`], but a panicking variant becomes an
    /// `Err(`[`VariantPanic`]`)` in its slot instead of aborting the
    /// sweep: one poisoned configuration cannot take down the other
    /// variants' (possibly hours of) completed work. Results stay in
    /// declaration order.
    pub fn try_run<R, F>(self, f: F) -> Vec<(&'a str, Result<R, VariantPanic>)>
    where
        C: Sync,
        R: Send,
        F: Fn(&str, &C) -> R + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let guarded = |name: &str, cfg: &C| {
            catch_unwind(AssertUnwindSafe(|| f(name, cfg))).map_err(|p| VariantPanic {
                label: name.to_string(),
                message: panic_message(p.as_ref()),
            })
        };
        if sweep_serial() || self.variants.len() < 2 {
            return self
                .variants
                .iter()
                .map(|(name, cfg)| (*name, guarded(name, cfg)))
                .collect();
        }
        let guarded = &guarded;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .variants
                .iter()
                .map(|(name, cfg)| (*name, s.spawn(move || guarded(name, cfg))))
                .collect();
            handles
                .into_iter()
                .map(|(name, h)| {
                    let result = match h.join() {
                        Ok(r) => r,
                        // The closure catches its own panics; a join error
                        // would mean the thread died some other way.
                        Err(p) => Err(VariantPanic {
                            label: name.to_string(),
                            message: panic_message(p.as_ref()),
                        }),
                    };
                    (name, result)
                })
                .collect()
        })
    }
}

/// A sweep variant whose run panicked (see [`Sweep::try_run`]).
#[derive(Clone, Debug)]
pub struct VariantPanic {
    /// The variant's label.
    pub label: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl std::fmt::Display for VariantPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variant {:?} panicked: {}", self.label, self.message)
    }
}

impl std::error::Error for VariantPanic {}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Prints a figure/table header (via the [`crate::out`] seam, like all
/// figure output, so `levi-bench serve` captures it byte-identically).
pub fn header(title: &str, description: &str) {
    crate::outln!();
    crate::outln!("==================================================================");
    crate::outln!("{title}");
    crate::outln!("{description}");
    crate::outln!("==================================================================");
}

/// One measured variant row against the baseline, with the paper's numbers.
pub struct Row<'a> {
    /// Variant label.
    pub label: &'a str,
    /// Measured metrics.
    pub metrics: &'a RunMetrics,
    /// The paper's speedup for this bar (None if not reported).
    pub paper_speedup: Option<f64>,
    /// The paper's relative energy (1.0 = baseline) if reported.
    pub paper_energy: Option<f64>,
}

/// Prints a speedup/energy comparison table. `rows\[0\]` is the baseline.
pub fn speedup_table(rows: &[Row<'_>]) {
    let base = rows[0].metrics;
    crate::outln!(
        "{:<22} {:>12} {:>9} {:>9} {:>10} {:>10}",
        "variant",
        "cycles",
        "speedup",
        "(paper)",
        "energy",
        "(paper)"
    );
    for r in rows {
        let speedup = base.cycles as f64 / r.metrics.cycles as f64;
        let energy = r.metrics.energy.relative_to(&base.energy);
        crate::outln!(
            "{:<22} {:>12} {:>8.2}x {:>9} {:>9.0}% {:>10}",
            r.label,
            r.metrics.cycles,
            speedup,
            r.paper_speedup
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            energy * 100.0,
            r.paper_energy
                .map_or_else(|| "-".into(), |e| format!("{:.0}%", e * 100.0)),
        );
    }
}

/// Prints the speedup/energy table and, when `LEVI_BENCH_JSON=<path>` is
/// set, appends one machine-readable JSON line for the figure so the perf
/// trajectory across commits is diffable.
///
/// The JSON schema (one object per line, one line per figure run):
///
/// ```json
/// {"figure": "fig20_hats",
///  "rows": [{"label": "Baseline", "cycles": 1234, "speedup": 1.0,
///            "rel_energy": 1.0, "energy_uj": 5.6,
///            "invoke_rtt": {"count": 10, "p50": 32, "p90": 64, "p99": 64},
///            "load_to_use": {...}, "dram_queue": {...},
///            "stream_stall": {...}, "trace_dropped": 0}]}
/// ```
pub fn report(figure: &str, rows: &[Row<'_>]) {
    speedup_table(rows);
    emit_json_line(&figure_json(figure, rows));
}

/// Appends one line to the `LEVI_BENCH_JSON` report file, if the variable
/// is set (no-op otherwise). All machine-readable emission — figure rows,
/// table snapshots, the `all`-run manifest — funnels through here.
///
/// # Panics
/// Panics if the report file cannot be opened or written.
pub fn emit_json_line(json: &str) {
    let Ok(path) = std::env::var("LEVI_BENCH_JSON") else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("LEVI_BENCH_JSON={path}: {e}"));
    writeln!(f, "{json}").expect("write bench JSON");
}

/// Appends one pre-rendered telemetry block (JSON lines, newline-
/// terminated) to the `LEVI_TELEMETRY` dump file, if the variable is set
/// (no-op otherwise). `levi-bench run --telemetry PATH` truncates the
/// file and sets the variable; every run's
/// [`levi_sim::Telemetry::to_jsonl`] block funnels through here.
///
/// # Panics
/// Panics if the dump file cannot be opened or written.
pub fn emit_telemetry_block(block: &str) {
    let Ok(path) = std::env::var("LEVI_TELEMETRY") else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("LEVI_TELEMETRY={path}: {e}"));
    write!(f, "{block}").expect("write telemetry dump");
}

/// Renders one figure's rows as a single JSON object (no trailing newline).
pub fn figure_json(figure: &str, rows: &[Row<'_>]) -> String {
    let base = rows[0].metrics;
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.key("figure").str(figure);
    w.key("rows").begin_arr();
    for r in rows {
        let speedup = base.cycles as f64 / r.metrics.cycles as f64;
        let energy = r.metrics.energy.relative_to(&base.energy);
        w.begin_obj();
        w.key("label").str(r.label);
        w.key("cycles").u64(r.metrics.cycles);
        w.key("speedup").fixed(speedup, 6);
        w.key("rel_energy").fixed(energy, 6);
        w.key("energy_uj").fixed(r.metrics.energy.total_uj(), 3);
        for (name, h) in [
            ("invoke_rtt", &r.metrics.stats.invoke_rtt),
            ("load_to_use", &r.metrics.stats.load_to_use),
            ("dram_queue", &r.metrics.stats.dram_queue),
            ("stream_stall", &r.metrics.stats.stream_stall),
        ] {
            w.key(name);
            hist_json(&mut w, h);
        }
        w.key("trace_dropped").u64(r.metrics.stats.trace.dropped());
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn hist_json(w: &mut json::JsonWriter, h: &Histogram) {
    w.begin_obj();
    w.key("count").u64(h.count());
    w.key("p50").u64(h.p50());
    w.key("p90").u64(h.p90());
    w.key("p99").u64(h.p99());
    w.key("max").u64(h.max());
    w.end_obj();
}

/// Renders a generic column table as a single JSON object (no trailing
/// newline), mirroring [`figure_json`] for figures whose natural output is
/// a [`table`] rather than a speedup comparison:
///
/// ```json
/// {"figure": "fig22_invoke_buffer",
///  "table": {"headers": ["entries", ...], "rows": [["1", ...], ...]}}
/// ```
pub fn table_json(figure: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.key("figure").str(figure);
    w.key("table").begin_obj();
    w.key("headers").begin_arr();
    for h in headers {
        w.str(h);
    }
    w.end_arr();
    w.key("rows").begin_arr();
    for row in rows {
        w.begin_arr();
        for cell in row {
            w.str(cell);
        }
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Prints the table and, when `LEVI_BENCH_JSON` is set, appends its
/// [`table_json`] line — the table-shaped counterpart of [`report`].
pub fn table_report(figure: &str, headers: &[&str], rows: &[Vec<String>]) {
    table(headers, rows);
    emit_json_line(&table_json(figure, headers, rows));
}

/// Prints a generic column table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        crate::outln!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leviathan::{System, SystemConfig};

    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(0.064), "6.4%");
    }

    #[test]
    fn try_run_contains_panics_and_completes_the_other_variants() {
        let results = Sweep::new()
            .variant("ok-1", 1u32)
            .variant("boom", 2u32)
            .variant("ok-2", 3u32)
            .try_run(|name, &v| {
                assert!(name != "boom", "variant {v} is poisoned");
                v * 10
            });
        assert_eq!(results.len(), 3, "every variant reports, panicked or not");
        assert_eq!(results[0].0, "ok-1");
        assert_eq!(*results[0].1.as_ref().unwrap(), 10);
        let (name, err) = (&results[1].0, results[1].1.as_ref().unwrap_err());
        assert_eq!(*name, "boom");
        assert_eq!(err.label, "boom");
        assert!(
            err.message.contains("variant 2 is poisoned"),
            "payload text surfaces: {}",
            err.message
        );
        assert_eq!(results[2].0, "ok-2");
        assert_eq!(*results[2].1.as_ref().unwrap(), 30);
    }

    #[test]
    fn run_panics_with_a_summary_after_completing_all_variants() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let completed = AtomicU32::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Sweep::new()
                .variant("a", 0u32)
                .variant("bad", 1u32)
                .variant("c", 2u32)
                .run(|name, _| {
                    assert!(name != "bad", "injected failure");
                    completed.fetch_add(1, Ordering::SeqCst);
                })
        }));
        let msg = match caught {
            Ok(_) => panic!("run() must re-panic when a variant panicked"),
            Err(p) => *p.downcast::<String>().expect("summary is a String"),
        };
        assert_eq!(
            completed.load(Ordering::SeqCst),
            2,
            "the healthy variants still ran to completion"
        );
        assert!(
            msg.contains("1 sweep variant(s) panicked") && msg.contains("\"bad\""),
            "summary names the failed variant: {msg}"
        );
    }

    #[test]
    fn figure_json_contains_cycles_speedup_and_percentiles() {
        let sys = System::try_new(SystemConfig::small()).expect("small config is valid");
        let mut base = RunMetrics::capture("Baseline", &sys);
        base.cycles = 1000;
        base.stats.invoke_rtt.record(40);
        let mut levi = RunMetrics::capture("Leviathan", &sys);
        levi.cycles = 250;
        let rows = [
            Row {
                label: "Baseline",
                metrics: &base,
                paper_speedup: None,
                paper_energy: None,
            },
            Row {
                label: "Leviathan",
                metrics: &levi,
                paper_speedup: None,
                paper_energy: None,
            },
        ];
        let json = figure_json("fig_test", &rows);
        assert!(json.starts_with("{\"figure\":\"fig_test\""), "{json}");
        assert!(json.contains("\"cycles\":1000"), "{json}");
        assert!(json.contains("\"speedup\":4.000000"), "{json}");
        assert!(
            json.contains(
                "\"invoke_rtt\":{\"count\":1,\"p50\":32,\"p90\":32,\"p99\":32,\"max\":40}"
            ),
            "{json}"
        );
        assert!(json.contains("\"stream_stall\":{\"count\":0"), "{json}");
        assert!(json.contains("\"trace_dropped\":0"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn table_json_round_trips_headers_and_rows() {
        let json = table_json("t", &["a", "b"], &[vec!["1".into(), "x\"y".into()]]);
        assert_eq!(
            json,
            "{\"figure\":\"t\",\"table\":{\"headers\":[\"a\",\"b\"],\
             \"rows\":[[\"1\",\"x\\\"y\"]]}}"
        );
    }

    #[test]
    fn escape_handles_quotes() {
        let mut out = String::new();
        json::write_escaped(&mut out, "a\"b\\c");
        assert_eq!(out, "a\\\"b\\\\c");
    }

    #[test]
    fn sweep_collects_in_declaration_order() {
        // The slowest variant is declared first; a completion-order
        // collector would return it last.
        let results = Sweep::new()
            .variant("slow", 30u64)
            .variant("mid", 5u64)
            .variant("fast", 0u64)
            .run(|name, &ms| {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                format!("{name}:{ms}")
            });
        assert_eq!(
            results,
            [
                ("slow", "slow:30".to_string()),
                ("mid", "mid:5".to_string()),
                ("fast", "fast:0".to_string()),
            ]
        );
    }

    #[test]
    fn sweep_parallel_matches_serial_on_simulated_runs() {
        use levi_workloads::hashtable::{run_hashtable, HtScale, HtVariant};
        let scale = HtScale::test(64);
        let run = || {
            Sweep::new()
                .variant("Baseline", HtVariant::Baseline)
                .variant("Leviathan", HtVariant::Leviathan)
                .variant("Ideal", HtVariant::Ideal)
                .variant("Baseline2", HtVariant::Baseline)
                .run(|_, &v| {
                    let r = run_hashtable(v, &scale);
                    (r.metrics.cycles, r.checksum)
                })
        };
        let parallel = run();
        let serial: Vec<_> = [
            ("Baseline", HtVariant::Baseline),
            ("Leviathan", HtVariant::Leviathan),
            ("Ideal", HtVariant::Ideal),
            ("Baseline2", HtVariant::Baseline),
        ]
        .iter()
        .map(|&(n, v)| {
            let r = run_hashtable(v, &scale);
            (n, (r.metrics.cycles, r.checksum))
        })
        .collect();
        assert_eq!(parallel, serial);
        // Identical configs give identical runs even across threads.
        assert_eq!(parallel[0].1, parallel[3].1);
    }
}
