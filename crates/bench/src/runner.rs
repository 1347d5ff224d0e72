//! The unified figure runner: a registry of figure descriptors and the
//! shared machinery that drives [`levi_workloads::Workload`]s through
//! [`crate::Sweep`].
//!
//! Each figure of the paper's evaluation is one [`Figure`] descriptor in
//! [`crate::figures::ALL`]: a static id, a one-line summary, the registry
//! workloads it exercises, and a `run` function that prints the figure.
//! The `levi-bench` binary and `levi-bench serve` both dispatch through
//! [`run_figure`], so there is exactly one implementation of every figure
//! no matter how it is invoked.
//!
//! Shared plumbing lives here so descriptors stay declarative:
//!
//! * [`RunCtx`] — scale selection (`--quick`), variant filtering
//!   (`--filter`), and the [`RunEnv`] injected into every run
//!   (`--fault-plan`).
//! * [`sweep_variants`] / [`sweep_prepared`] — run a workload's variants
//!   through a parallel [`crate::Sweep`], print per-run progress, and
//!   check every supported variant against its golden model.
//! * [`report_figure`] — join measured outcomes with the paper's numbers
//!   by label and emit the standard speedup/energy report.

use levi_workloads::harness::{
    DynWorkload, PreparedRun, RunEnv, RunOutcome, RunStatus, ScaleKind, Workload,
};

use crate::{report, Row, Sweep};

/// Per-invocation context threaded into every figure's `run` function.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Run at reduced scale (`--quick` / `LEVI_BENCH_QUICK`).
    pub quick: bool,
    /// Case-insensitive substring filter on variant labels; the baseline
    /// (first) variant always runs so speedups stay well-defined.
    pub filter: Option<String>,
    /// Environment applied uniformly to every simulated run.
    pub env: RunEnv,
}

impl RunCtx {
    /// A context from the process environment, the defaults `levi-bench
    /// run` starts from before applying its flags: `LEVI_BENCH_QUICK`
    /// selects quick scale, `LEVI_CHECKPOINT_EVERY` /
    /// `LEVI_SNAPSHOT_VERIFY` arm the snapshot hook, no filter, default
    /// environment otherwise.
    pub fn from_env() -> Self {
        let mut env = RunEnv::default();
        if let Ok(v) = std::env::var("LEVI_CHECKPOINT_EVERY") {
            env.checkpoint_every = v.parse().unwrap_or_else(|_| {
                panic!("LEVI_CHECKPOINT_EVERY must be a cycle count, got {v:?}")
            });
        }
        env.snapshot_verify = std::env::var("LEVI_SNAPSHOT_VERIFY").is_ok_and(|v| v != "0");
        RunCtx {
            quick: crate::quick_mode(),
            env,
            ..RunCtx::default()
        }
    }

    /// The scale kind this context selects.
    pub fn kind(&self) -> ScaleKind {
        if self.quick {
            ScaleKind::Quick
        } else {
            ScaleKind::Paper
        }
    }

    /// Whether the variant at `index` with display `label` should run.
    pub fn keeps(&self, index: usize, label: &str) -> bool {
        index == 0
            || match &self.filter {
                None => true,
                Some(f) => label.to_ascii_lowercase().contains(&f.to_ascii_lowercase()),
            }
    }
}

/// Labelled outcomes of one variant sweep, in presentation order.
/// Unsupported variants are absent (they printed their reason instead).
pub struct Outcomes {
    entries: Vec<(&'static str, RunOutcome)>,
}

impl Outcomes {
    /// The outcome for the variant labelled `label`, if it ran.
    pub fn get(&self, label: &str) -> Option<&RunOutcome> {
        self.entries
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, o)| o)
    }

    /// Iterates `(label, outcome)` pairs in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &RunOutcome)> {
        self.entries.iter().map(|(l, o)| (*l, o))
    }

    /// How many variants actually ran.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no variant ran.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How the execution engine obtained (or failed to obtain) one
/// variant's outcome. This is the engine→shell interface of the sweep
/// path: [`execute_sweep`] produces these without printing a byte, and
/// the presentation shell ([`journaled_sweep`]) renders them — so the
/// CLI, journal resume, and `levi-bench serve` all drive one engine.
enum VariantRun {
    /// Loaded from the active journal instead of re-running.
    Resumed(RunOutcome),
    /// Freshly executed (and recorded in the journal, if one is active).
    Fresh(RunOutcome),
    /// The (variant, scale) combination is unsupported.
    Unsupported(&'static str),
    /// The variant's run panicked.
    Panicked(crate::VariantPanic),
}

/// The execution engine of the sweep path: partitions `labels` into
/// journal-resumed and pending, runs the pending set through
/// [`Sweep::try_run`] (one panicking variant cannot abort its siblings),
/// checks every outcome — resumed or fresh — against the golden model
/// (which also catches a stale journal from an older build), and records
/// every fresh completion in the journal *before* returning, so a
/// crashed or partly-failed invocation can be resumed without repeating
/// its finished work. Performs no output: presentation belongs to the
/// shell.
fn execute_sweep<F, G>(
    figure: &str,
    labels: &[&'static str],
    run: F,
    check: G,
) -> Vec<(&'static str, VariantRun)>
where
    F: Fn(&'static str) -> RunStatus + Sync,
    G: Fn(&str) -> u64,
{
    let sweep_idx = crate::journal::begin_sweep(figure);

    let mut resumed: std::collections::HashMap<&'static str, RunOutcome> =
        std::collections::HashMap::new();
    let mut pending: Vec<&'static str> = Vec::new();
    for &label in labels {
        match sweep_idx.and_then(|s| crate::journal::lookup(figure, s, label)) {
            Some(o) => {
                resumed.insert(label, o);
            }
            None => pending.push(label),
        }
    }

    let mut runs: std::collections::HashMap<&'static str, Result<RunStatus, crate::VariantPanic>> =
        Sweep::new()
            .variants(pending.iter().map(|&l| (l, l)))
            .try_run(|_, &label| run(label))
            .into_iter()
            .collect();

    labels
        .iter()
        .map(|&label| {
            if let Some(o) = resumed.remove(label) {
                assert_eq!(
                    o.checksum,
                    check(label),
                    "{label}: journaled outcome diverged from the golden model (stale journal?)"
                );
                return (label, VariantRun::Resumed(o));
            }
            let result = match runs.remove(label) {
                Some(r) => r,
                None => unreachable!("every label was partitioned into resumed or pending"),
            };
            match result {
                Ok(RunStatus::Done(o)) => {
                    assert_eq!(
                        o.checksum,
                        check(label),
                        "{label} diverged from the golden model"
                    );
                    if let Some(s) = sweep_idx {
                        crate::journal::record(figure, s, label, &o);
                    }
                    (label, VariantRun::Fresh(*o))
                }
                Ok(RunStatus::Unsupported(reason)) => (label, VariantRun::Unsupported(reason)),
                Err(p) => (label, VariantRun::Panicked(p)),
            }
        })
        .collect()
}

/// The presentation shell over [`execute_sweep`]: prints per-variant
/// progress (resumed vs fresh), unsupported notices, emits telemetry
/// blocks, and defers a panic summary until every variant has reported —
/// all through the [`crate::out`] seam, so the same bytes reach the
/// process streams in-process and the wire under `levi-bench serve`.
fn journaled_sweep<F, G>(labels: Vec<&'static str>, run: F, check: G) -> Outcomes
where
    F: Fn(&'static str) -> RunStatus + Sync,
    G: Fn(&str) -> u64,
{
    let figure = current_figure();
    let mut entries = Vec::new();
    let mut failed: Vec<crate::VariantPanic> = Vec::new();
    for (label, result) in execute_sweep(&figure, &labels, run, check) {
        match result {
            VariantRun::Resumed(o) => {
                crate::progressln!(
                    "  journal {:<14} {:>12} cycles (resumed)",
                    label,
                    o.metrics.cycles
                );
                emit_run_telemetry(&figure, label, &o.metrics.stats);
                entries.push((label, o));
            }
            VariantRun::Fresh(o) => {
                crate::progressln!("  ran {:<18} {:>12} cycles", label, o.metrics.cycles);
                emit_run_telemetry(&figure, label, &o.metrics.stats);
                entries.push((label, o));
            }
            VariantRun::Unsupported(reason) => {
                crate::outln!("{label:<22} UNSUPPORTED — {reason}");
            }
            VariantRun::Panicked(p) => failed.push(p),
        }
    }
    if !failed.is_empty() {
        let mut msg = format!("{} sweep variant(s) panicked:", failed.len());
        for p in &failed {
            msg.push_str(&format!("\n  {p}"));
        }
        panic!("{msg}");
    }
    Outcomes { entries }
}

/// Appends one run's registry dump to the `LEVI_TELEMETRY` file (no-op
/// when unset). The block's scope is `figure/label`, using the figure id
/// [`run_figure`] exported for the runs it drives.
fn emit_run_telemetry(figure: &str, label: &str, stats: &levi_sim::Stats) {
    if std::env::var("LEVI_TELEMETRY").is_err() {
        return;
    }
    let scope = if figure.is_empty() {
        label.to_string()
    } else {
        format!("{figure}/{label}")
    };
    crate::emit_telemetry_block(&levi_sim::Telemetry::new(stats).to_jsonl(&scope));
}

/// Runs the (filtered) variants of a typed workload at `scale` through a
/// parallel [`Sweep`], checking every supported variant against the
/// golden model. Figures that sweep scale knobs call [`Workload::run`]
/// directly instead; this helper covers the standard "all variants at one
/// scale" shape.
pub fn sweep_variants<W: Workload>(w: &W, scale: &W::Scale, ctx: &RunCtx) -> Outcomes {
    let input = w.build_input(scale);
    let variants: Vec<(&'static str, W::Variant)> = w
        .variants()
        .into_iter()
        .enumerate()
        .filter(|&(i, (label, _))| ctx.keeps(i, label))
        .map(|(_, pair)| pair)
        .collect();
    let env = &ctx.env;
    let input_ref = &input;
    let labels: Vec<&'static str> = variants.iter().map(|&(l, _)| l).collect();
    let variant_of = |label: &str| {
        variants
            .iter()
            .find(|(l, _)| *l == label)
            .expect("label came from this list")
            .1
    };
    journaled_sweep(
        labels,
        |label| w.run(variant_of(label), scale, input_ref, env),
        |label| w.golden(variant_of(label), scale, &input),
    )
}

/// Registry-path counterpart of [`sweep_variants`]: runs a
/// [`PreparedRun`]'s variants by label. This is how figures drive
/// workloads they only know by registry name.
pub fn sweep_prepared(w: &dyn DynWorkload, prepared: &dyn PreparedRun, ctx: &RunCtx) -> Outcomes {
    let labels: Vec<&'static str> = w
        .variant_labels()
        .into_iter()
        .enumerate()
        .filter(|&(i, label)| ctx.keeps(i, label))
        .map(|(_, label)| label)
        .collect();
    let env = &ctx.env;
    journaled_sweep(
        labels,
        |label| prepared.run(label, env),
        |label| prepared.golden(label),
    )
}

/// Emits the standard speedup/energy report for a variant sweep, joining
/// the paper's `(label, speedup, relative energy)` numbers by label.
/// Rows keep the sweep's presentation order; the first outcome is the
/// baseline.
pub fn report_figure(
    figure: &str,
    outcomes: &Outcomes,
    paper: &[(&str, Option<f64>, Option<f64>)],
) {
    let rows: Vec<Row<'_>> = outcomes
        .iter()
        .map(|(label, o)| {
            let (ps, pe) = paper
                .iter()
                .find(|(l, _, _)| *l == label)
                .map_or((None, None), |&(_, ps, pe)| (ps, pe));
            Row {
                label,
                metrics: &o.metrics,
                paper_speedup: ps,
                paper_energy: pe,
            }
        })
        .collect();
    report(figure, &rows);
}

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// Stable identifier (`fig05_phi`, `table04_area`, ...) — the name
    /// `levi-bench run` accepts and the `"figure"` key in report JSON.
    pub id: &'static str,
    /// One-line summary shown by `levi-bench list`.
    pub about: &'static str,
    /// Registry workloads this figure exercises (empty for figures that
    /// measure the substrate or print static configuration).
    pub workloads: &'static [&'static str],
    /// Prints the figure (and emits its report JSON) for a context.
    pub run: fn(&RunCtx),
}

/// Finds a figure by exact id, or by unique prefix.
pub fn find_figure(id: &str) -> Option<&'static Figure> {
    let all = crate::figures::ALL;
    if let Some(f) = all.iter().find(|f| f.id == id) {
        return Some(f);
    }
    let mut matches = all.iter().filter(|f| f.id.starts_with(id));
    match (matches.next(), matches.next()) {
        (Some(f), None) => Some(f),
        _ => None,
    }
}

thread_local! {
    /// The figure id the current thread is running (see [`run_figure`]).
    /// Thread-local — not the process environment the pre-serve harness
    /// used — because `levi-bench serve` executes different figures on
    /// different worker threads concurrently.
    static CURRENT_FIGURE: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// The figure id the current thread is running (empty outside
/// [`run_figure`]). Journal records and telemetry scopes use this.
pub fn current_figure() -> String {
    CURRENT_FIGURE.with(|f| f.borrow().clone())
}

/// Runs one figure under `ctx`, scoping [`current_figure`] to its id for
/// the duration so telemetry blocks and journal records emitted by the
/// runs it drives carry a `figure/variant` scope. A figure runs entirely
/// on the calling thread (only its inner sweeps fan out), so the scope
/// is thread-local and concurrent server jobs cannot race on it.
pub fn run_figure(fig: &Figure, ctx: &RunCtx) {
    struct Scope(String);
    impl Drop for Scope {
        fn drop(&mut self) {
            CURRENT_FIGURE.with(|f| *f.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let prev = CURRENT_FIGURE.with(|f| std::mem::replace(&mut *f.borrow_mut(), fig.id.to_string()));
    let _scope = Scope(prev);
    (fig.run)(ctx);
}

/// Renders the roll-up manifest emitted after `levi-bench run all`: which
/// figures ran, which registry workloads each exercises, and the full
/// registry, so report consumers can check coverage without compiling the
/// workspace.
pub fn manifest_json(quick: bool) -> String {
    let mut w = crate::json::JsonWriter::new();
    w.begin_obj();
    w.key("manifest").begin_obj();
    w.key("version").u64(1);
    w.key("quick").bool(quick);
    w.key("figures").begin_arr();
    for f in crate::figures::ALL {
        w.begin_obj();
        w.key("id").str(f.id);
        w.key("workloads").begin_arr();
        for name in f.workloads {
            w.str(name);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.key("workloads").begin_arr();
    for wl in levi_workloads::REGISTRY {
        w.str(wl.name());
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_are_unique_and_prefix_resolvable() {
        let mut ids: Vec<_> = crate::figures::ALL.iter().map(|f| f.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate figure ids");
        assert!(find_figure("fig05_phi").is_some());
        assert_eq!(find_figure("fig05").unwrap().id, "fig05_phi");
        assert!(
            find_figure("fig2").is_none(),
            "ambiguous prefix must not resolve"
        );
        assert!(find_figure("nope").is_none());
    }

    #[test]
    fn every_registry_workload_is_covered_by_some_figure() {
        for w in levi_workloads::REGISTRY {
            assert!(
                crate::figures::ALL
                    .iter()
                    .any(|f| f.workloads.contains(&w.name())),
                "workload {} appears in no figure",
                w.name()
            );
        }
        for f in crate::figures::ALL {
            for w in f.workloads {
                assert!(
                    levi_workloads::harness::find_workload(w).is_some(),
                    "figure {} names unregistered workload {w}",
                    f.id
                );
            }
        }
    }

    #[test]
    fn manifest_lists_every_figure_and_workload() {
        let m = manifest_json(true);
        for f in crate::figures::ALL {
            assert!(m.contains(&format!("\"id\":\"{}\"", f.id)), "{m}");
        }
        for w in levi_workloads::REGISTRY {
            assert!(m.contains(&format!("\"{}\"", w.name())), "{m}");
        }
        assert_eq!(m.matches('{').count(), m.matches('}').count());
    }

    #[test]
    fn filter_keeps_the_baseline() {
        let ctx = RunCtx {
            filter: Some("leviathan".into()),
            ..RunCtx::default()
        };
        assert!(ctx.keeps(0, "Baseline"));
        assert!(ctx.keeps(3, "Leviathan"));
        assert!(ctx.keeps(4, "Leviathan (DYNAMIC)"));
        assert!(!ctx.keeps(2, "tako Relax"));
        assert!(RunCtx::default().keeps(2, "tako Relax"));
    }
}
