//! # levi-perf — host-performance measurement for the simulator
//!
//! Execution-driven NDC evaluation lives or dies on simulator throughput,
//! so this crate makes host performance a measured, tracked quantity. It
//! is a hermetic, dependency-free benchmark harness (the workspace has no
//! crates.io dependencies) with three layers:
//!
//! * [`measure`] — the repetition engine: N warmup + M measured reps
//!   grouped into rounds, with robust statistics (median, MAD, min) so
//!   scheduler noise does not masquerade as signal. Samples are bucketed
//!   into the *same* log2 [`Histogram`] the simulator uses for latencies,
//!   so perf and sim distributions cannot drift apart.
//! * [`suite`] — the benchmark definitions: substrate micro-benchmarks
//!   (cache lookup, NoC flit hop, scoreboard issue, DRAM queue) and macro
//!   runs of every registry workload, reporting simulated kilocycles per
//!   host second (KIPS) and — when `levi-sim`'s `self-profile` feature is
//!   on — a per-phase host-time breakdown.
//! * [`report`] — the machine-readable report: one JSON document the
//!   `levi-bench perf` subcommands parse for baseline comparison and
//!   regression gating.
//!
//! Tracking and gating (baselines, thresholds, CI wiring) live in
//! `levi-bench`; this crate only measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod report;
pub mod suite;

pub use levi_sim::{Histogram, Phase, PhaseProfile};
pub use measure::{median, median_abs_deviation, BenchOpts, Measurement};
pub use report::{render_report, report_json};
pub use suite::{run_suite, PerfCfg};
