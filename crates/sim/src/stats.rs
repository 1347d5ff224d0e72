//! Execution statistics.
//!
//! A single [`Stats`] struct accumulates every counter the evaluation
//! needs: per-level cache hits/misses, NoC traffic, DRAM accesses (broken
//! down by workload *phase* for Fig. 21), branch predictor outcomes,
//! instruction counts, and NDC bookkeeping.
//!
//! The struct is declared by one table (`stats_table!`) whose rows, in
//! snapshot order, also drive snapshot serialization, [`Stats::digest`]
//! and the telemetry counter list; adding a counter means adding one row.

use std::fmt;

use levi_isa::codec::{CodecError, Reader, Writer};

use crate::hist::Histogram;
use crate::span::SpanTable;
use crate::trace::Tracer;

/// Slowest invokes listed by the `Display` critical-path report.
pub const TOP_SLOW_INVOKES: usize = 5;

/// Workload phase tag for phase-attributed counters (e.g. Fig. 21 splits
/// DRAM accesses between PageRank's edge and vertex phases).
pub const MAX_PHASES: usize = 4;

/// Per-cache-level access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines written back out of this level.
    pub writebacks: u64,
}

impl LevelStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in \[0, 1\]; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Declares [`Stats`] from one table of rows in snapshot order.
///
/// Each row is a field: its docs, visibility, name and type, plus an
/// optional telemetry name (the field name by default). The table
/// generates the struct and the two row visitors that snapshot
/// serialization, [`Stats::digest`] and [`crate::Telemetry`] iterate;
/// the row's type decides its encoding and exported counters (see
/// [`StatField`]). Adding a counter means adding one row. Fields after
/// the `;` are in the struct but neither serialized nor exported.
macro_rules! stats_table {
    (
        $( $(#[$doc:meta])* $vis:vis $field:ident : $ty:ty $(= $name:literal)?, )*
        ;
        $( $(#[$xdoc:meta])* $xvis:vis $xfield:ident : $xty:ty, )*
    ) => {
        /// All counters accumulated during a run.
        #[derive(Clone, Debug, Default)]
        pub struct Stats {
            $( $(#[$doc])* $vis $field: $ty, )*
            $( $(#[$xdoc])* $xvis $xfield: $xty, )*
        }

        impl Stats {
            /// Calls `f` with every table row and its telemetry name, in
            /// snapshot order.
            fn rows<'s>(&'s self, mut f: impl FnMut(&'static str, &'s dyn StatField)) {
                $( f(row_name!($field $(, $name)?), &self.$field); )*
            }

            /// Calls `f` with every table row, mutably, in snapshot order,
            /// stopping at the first error.
            fn rows_mut(
                &mut self,
                mut f: impl FnMut(&mut dyn StatField) -> Result<(), CodecError>,
            ) -> Result<(), CodecError> {
                $( f(&mut self.$field)?; )*
                Ok(())
            }
        }
    };
}

/// A row's telemetry name: the override when given, else the field name.
macro_rules! row_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $name:literal) => {
        $name
    };
}

stats_table! {
    /// Final simulated cycle (set when the run finishes).
    pub cycles: u64,
    /// Instructions retired by cores.
    pub core_instrs: u64,
    /// Instructions retired by engines (all contexts + inline actions).
    pub engine_instrs: u64,
    /// Directory lookups at the LLC.
    pub dir_lookups: u64,
    /// Invalidation messages sent to private caches.
    pub invalidations: u64,
    /// Cache-to-cache ownership transfers (the "ping-pong" the paper's
    /// task offload eliminates).
    pub ownership_transfers: u64,
    /// NoC messages sent.
    pub noc_messages: u64,
    /// NoC flit-hops (flits × hops), the traffic/energy metric.
    pub noc_flit_hops: u64,
    /// DRAM line accesses (reads + writes), total.
    pub dram_accesses: u64,
    /// Memory-controller FIFO-cache hits (avoided DRAM accesses).
    pub mc_cache_hits: u64,
    /// Conditional branches executed on cores.
    pub branches: u64,
    /// Mispredicted conditional branches on cores.
    pub mispredicts: u64,
    /// Memory fences executed (including fenced atomics' implied fences).
    pub fences: u64,
    /// Atomic RMWs executed by cores.
    pub core_rmws: u64,
    /// Tasks offloaded via `invoke`.
    pub invokes: u64,
    /// Invokes that were NACKed (engine context buffer full) and retried.
    pub invoke_nacks: u64,
    /// Invokes that executed on the local tile due to the 1/32 migrate-up
    /// policy.
    pub invoke_migrations: u64,
    /// Data-triggered constructor actions executed.
    pub ctor_actions: u64,
    /// Data-triggered destructor actions executed.
    pub dtor_actions: u64,
    /// Stream entries pushed by producers.
    pub stream_pushes: u64,
    /// Stream entries popped by consumers.
    pub stream_pops: u64,
    /// Cycles consumer loads stalled waiting for stream data.
    pub stream_stall_cycles: u64,
    /// L2 prefetches issued.
    pub prefetches: u64,
    /// Fault windows injected by the configured
    /// [`FaultPlan`](crate::fault::FaultPlan) (0 when no plan is set).
    pub faults_injected: u64,
    /// Invoke retries caused by fault-refused engines (backoff path).
    pub fault_nack_retries: u64,
    /// Invokes that exhausted the retry budget and fell back to executing
    /// on the issuing core.
    pub fault_fallbacks: u64,
    /// Extra cycles attributable to injected faults: backoff waits,
    /// squeeze stalls, NoC slowdown/outage delay, DRAM throttle delay.
    pub fault_degraded_cycles: u64,
    /// L1 data caches (cores).
    pub l1: LevelStats,
    /// Private L2 caches.
    pub l2: LevelStats,
    /// Shared LLC banks.
    pub llc: LevelStats,
    /// Engine L1d caches.
    pub engine_l1: LevelStats,
    /// DRAM accesses attributed per phase (see [`Stats::set_phase`]).
    pub dram_by_phase: [u64; MAX_PHASES] = "dram_phase",
    current_phase: PhaseIndex,
    /// Invoke round-trip latency (issue to acknowledgment) in cycles.
    pub invoke_rtt: Histogram,
    /// Load-to-use latency (issue of a core load to data return) in cycles.
    pub load_to_use: Histogram,
    /// DRAM controller queueing delay (arrival to service start) in cycles.
    pub dram_queue: Histogram,
    /// Duration of individual stream-pop stalls in cycles.
    pub stream_stall: Histogram,
    /// Backoff delay per fault-induced invoke retry, in cycles.
    pub fault_backoff: Histogram,
    /// Structured event recorder (off by default; see
    /// [`crate::config::MachineConfig::trace`]).
    pub trace: Tracer,
    /// Causal invoke-lifecycle spans for the critical-path analyzer (off
    /// by default; see
    /// [`crate::config::MachineConfig::trace_spans`]).
    pub spans: SpanTable,
    /// Periodic time-series sampler (off by default; see
    /// [`crate::config::MachineConfig::sample_interval`]).
    pub timeline: TimeSeries,
    /// TLB lookups that hit (0 unless translation is enabled; see
    /// [`crate::xlat`]).
    pub tlb_hits: u64,
    /// TLB lookups that missed and paid a page walk.
    pub tlb_misses: u64,
    /// Total cycles charged to page walks (NoC + DRAM + fixed per-level
    /// latency).
    pub tlb_walk_cycles: u64,
    /// Invokes NACKed by the tenant engine-slot quota (subset of
    /// `invoke_nacks`).
    pub tenant_quota_nacks: u64,
    /// Per-walk latency distribution (empty unless translation is on).
    pub xlat_walk: Histogram,
    /// LLC misses attributed to each tenant (empty unless tenancy is on).
    pub tenant_llc_misses: Vec<u64> = "llc_misses",
    /// Invokes issued by each tenant.
    pub tenant_invokes: Vec<u64> = "invokes",
    /// Latest core-thread finish cycle observed per tenant (a slowdown
    /// proxy: the spread shows inter-tenant interference).
    pub tenant_finish: Vec<u64> = "finish_cycles",
    ;
    /// Host wall-time attributed to simulator phases by the scoped
    /// profiler (see [`crate::perf`]). Empty unless the crate is built
    /// with the `self-profile` feature; [`crate::Machine::run`] drains the
    /// thread-local accumulator here when it returns. Never printed by
    /// `Display` or serialized — wall-clock nanoseconds are
    /// nondeterministic and must stay out of byte-identical outputs.
    pub host_phases: crate::perf::PhaseProfile,
}

/// The workload phase that phase-attributed counters charge (always
/// below [`MAX_PHASES`]; a snapshot holding a larger index is rejected).
#[derive(Clone, Copy, Debug, Default)]
struct PhaseIndex(usize);

/// How one [`Stats`] table row is serialized into snapshots and which
/// telemetry counters it exports. The encoding of every row type is part
/// of the snapshot format.
trait StatField {
    /// Appends the row to a snapshot.
    fn write(&self, w: &mut Writer);
    /// Replaces the row with the one [`StatField::write`] wrote.
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError>;
    /// Appends the row's telemetry counters, named after `name`.
    fn counters(&self, _name: &'static str, _out: &mut Vec<(String, u64)>) {}
    /// The row itself when it is a latency histogram.
    fn histogram(&self) -> Option<&Histogram> {
        None
    }
}

/// A scalar counter, exported under its own name.
impl StatField for u64 {
    fn write(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = r.u64()?;
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        out.push((name.to_string(), *self));
    }
}

/// A cache level, exported as `<name>_hits`, `_misses`, `_writebacks`.
impl StatField for LevelStats {
    fn write(&self, w: &mut Writer) {
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = LevelStats {
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
        };
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{name}_hits"), self.hits));
        out.push((format!("{name}_misses"), self.misses));
        out.push((format!("{name}_writebacks"), self.writebacks));
    }
}

/// Per-phase counters, exported as `<name>0` .. `<name>3`.
impl StatField for [u64; MAX_PHASES] {
    fn write(&self, w: &mut Writer) {
        for c in self {
            w.u64(*c);
        }
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        for c in self {
            *c = r.u64()?;
        }
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        for (i, &c) in self.iter().enumerate() {
            out.push((format!("{name}{i}"), c));
        }
    }
}

/// Per-tenant counters, exported as `tenant<i>_<name>`. Empty unless
/// tenancy is configured, so single-tenant dumps carry no tenant lines.
impl StatField for Vec<u64> {
    fn write(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for &c in self {
            w.u64(c);
        }
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        let n = r.count(8)?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            self.push(r.u64()?);
        }
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        for (i, &c) in self.iter().enumerate() {
            out.push((format!("tenant{i}_{name}"), c));
        }
    }
}

impl StatField for PhaseIndex {
    fn write(&self, w: &mut Writer) {
        w.u64(self.0 as u64);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        let phase = r.u64()? as usize;
        if phase >= MAX_PHASES {
            return Err(CodecError::Invalid("phase index"));
        }
        self.0 = phase;
        Ok(())
    }
}

impl StatField for Histogram {
    fn write(&self, w: &mut Writer) {
        self.snap_write(w);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = Histogram::snap_read(r)?;
        Ok(())
    }
    fn histogram(&self) -> Option<&Histogram> {
        Some(self)
    }
}

/// Exported as `<name>_events` and `<name>_dropped`.
impl StatField for Tracer {
    fn write(&self, w: &mut Writer) {
        self.snap_write(w);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = Tracer::snap_read(r)?;
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{name}_events"), self.len() as u64));
        out.push((format!("{name}_dropped"), self.dropped()));
    }
}

/// Exported as `<name>_recorded` and `<name>_dropped`.
impl StatField for SpanTable {
    fn write(&self, w: &mut Writer) {
        self.snap_write(w);
    }
    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        *self = SpanTable::snap_read(r)?;
        Ok(())
    }
    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{name}_recorded"), self.len() as u64));
        out.push((format!("{name}_dropped"), self.dropped()));
    }
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current workload phase for phase-attributed counters.
    ///
    /// # Panics
    /// Panics if `phase >= MAX_PHASES`.
    pub fn set_phase(&mut self, phase: usize) {
        assert!(phase < MAX_PHASES, "phase {phase} out of range");
        self.current_phase = PhaseIndex(phase);
    }

    /// The current phase index.
    pub fn phase(&self) -> usize {
        self.current_phase.0
    }

    /// Records one DRAM access in the current phase.
    pub(crate) fn count_dram(&mut self) {
        self.dram_accesses += 1;
        self.dram_by_phase[self.current_phase.0] += 1;
    }

    /// Branch misprediction rate in \[0, 1\].
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:            {}", self.cycles)?;
        writeln!(f, "core instrs:       {}", self.core_instrs)?;
        writeln!(f, "engine instrs:     {}", self.engine_instrs)?;
        writeln!(
            f,
            "L1  hits/misses:   {}/{} ({:.1}% miss)",
            self.l1.hits,
            self.l1.misses,
            self.l1.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "L2  hits/misses:   {}/{} ({:.1}% miss)",
            self.l2.hits,
            self.l2.misses,
            self.l2.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "LLC hits/misses:   {}/{} ({:.1}% miss)",
            self.llc.hits,
            self.llc.misses,
            self.llc.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "eL1 hits/misses:   {}/{} ({:.1}% miss)",
            self.engine_l1.hits,
            self.engine_l1.misses,
            self.engine_l1.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "writebacks:        L1 {} / L2 {} / LLC {} / eL1 {}",
            self.l1.writebacks, self.l2.writebacks, self.llc.writebacks, self.engine_l1.writebacks
        )?;
        writeln!(f, "DRAM accesses:     {}", self.dram_accesses)?;
        writeln!(f, "MC cache hits:     {}", self.mc_cache_hits)?;
        writeln!(f, "NoC flit-hops:     {}", self.noc_flit_hops)?;
        writeln!(
            f,
            "branches:          {} ({:.2}% mispredicted)",
            self.branches,
            self.mispredict_ratio() * 100.0
        )?;
        writeln!(f, "fences:            {}", self.fences)?;
        writeln!(
            f,
            "invokes:           {} ({} NACKed)",
            self.invokes, self.invoke_nacks
        )?;
        writeln!(
            f,
            "ctor/dtor actions: {}/{}",
            self.ctor_actions, self.dtor_actions
        )?;
        write!(
            f,
            "stream push/pop:   {}/{}",
            self.stream_pushes, self.stream_pops
        )?;
        if !self.invoke_rtt.is_empty() {
            write!(f, "\ninvoke RTT:        {}", self.invoke_rtt)?;
        }
        if !self.stream_stall.is_empty() {
            write!(f, "\nstream stall:      {}", self.stream_stall)?;
        }
        // Fault lines are emitted only when a plan injected something, so
        // unfaulted runs keep byte-identical output to pre-fault builds.
        if self.faults_injected > 0 {
            write!(
                f,
                "\nfaults:            {} injected; {} NACK-retries, {} core-fallbacks, {} degraded cycles",
                self.faults_injected,
                self.fault_nack_retries,
                self.fault_fallbacks,
                self.fault_degraded_cycles
            )?;
            if !self.fault_backoff.is_empty() {
                write!(f, "\nfault backoff:     {}", self.fault_backoff)?;
            }
        }
        // Translation and tenancy lines are likewise gated: runs with
        // both features off keep byte-identical output.
        if self.tlb_hits + self.tlb_misses > 0 {
            let total = self.tlb_hits + self.tlb_misses;
            write!(
                f,
                "\nTLB hits/misses:   {}/{} ({:.1}% hit); {} walk cycles",
                self.tlb_hits,
                self.tlb_misses,
                self.tlb_hits as f64 / total as f64 * 100.0,
                self.tlb_walk_cycles
            )?;
            if !self.xlat_walk.is_empty() {
                write!(f, "\nwalk latency:      {}", self.xlat_walk)?;
            }
        }
        if !self.tenant_finish.is_empty() {
            write!(f, "\ntenants:           {}", self.tenant_finish.len())?;
            for t in 0..self.tenant_finish.len() {
                write!(
                    f,
                    "\n  tenant {t}: {} LLC misses, {} invokes, finish @{}",
                    self.tenant_llc_misses.get(t).copied().unwrap_or(0),
                    self.tenant_invokes.get(t).copied().unwrap_or(0),
                    self.tenant_finish[t]
                )?;
            }
            if self.tenant_quota_nacks > 0 {
                write!(f, "\nquota NACKs:       {}", self.tenant_quota_nacks)?;
            }
        }
        // Dropped-event and span lines are gated the same way: runs
        // without tracing/spans keep byte-identical output.
        if self.trace.dropped() > 0 {
            write!(
                f,
                "\ntrace dropped:     {} events (ring capacity {} exceeded)",
                self.trace.dropped(),
                self.trace.len()
            )?;
        }
        if !self.spans.is_empty() || self.spans.dropped() > 0 {
            let cp = self.spans.critical_path(TOP_SLOW_INVOKES);
            write!(
                f,
                "\ninvoke spans:      {} recorded ({} complete, {} incomplete, {} dropped)",
                self.spans.len(),
                cp.completed,
                cp.incomplete,
                self.spans.dropped()
            )?;
            if cp.completed > 0 {
                write!(
                    f,
                    "\nspan stages:       {} (summed cycles; rtt {}, dominated by {})",
                    cp.totals,
                    cp.rtt_total,
                    cp.dominant_stage().0
                )?;
                for s in &cp.slowest {
                    write!(f, "\n  slow {}: rtt {} = {}", s.id, s.rtt, s.stages)?;
                    match s.target {
                        Some(t) => write!(f, " (tile {} -> {})", s.src_tile, t)?,
                        None => write!(f, " (tile {})", s.src_tile)?,
                    }
                }
            }
        }
        Ok(())
    }
}

/// One periodic snapshot of machine activity over a sampling interval.
///
/// Rate-like fields (`ipc`, miss ratios) and count fields are all computed
/// over the *interval* since the previous sample, not cumulatively, so a
/// plot of samples shows phase behavior directly (Fig. 21 style).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Simulated cycle the sample was taken at.
    pub cycle: u64,
    /// Instructions (core + engine) per cycle over the interval.
    pub ipc: f64,
    /// Core instructions retired in the interval.
    pub core_instrs: u64,
    /// Engine instructions retired in the interval.
    pub engine_instrs: u64,
    /// L1 miss ratio over the interval.
    pub l1_miss_ratio: f64,
    /// L2 miss ratio over the interval.
    pub l2_miss_ratio: f64,
    /// LLC miss ratio over the interval.
    pub llc_miss_ratio: f64,
    /// NoC flit-hops in the interval.
    pub noc_flit_hops: u64,
    /// DRAM line accesses in the interval.
    pub dram_accesses: u64,
    /// Engine task contexts in use at the sample instant (all engines).
    pub engine_ctxs: u32,
    /// Entries buffered in hardware streams at the sample instant.
    pub stream_depth: u64,
}

/// Counter snapshot used to compute per-interval deltas.
#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    cycle: u64,
    core_instrs: u64,
    engine_instrs: u64,
    l1: LevelStats,
    l2: LevelStats,
    llc: LevelStats,
    noc_flit_hops: u64,
    dram_accesses: u64,
}

/// Periodic time-series sampler: every `interval` cycles the machine
/// snapshots interval deltas of the headline counters into a [`Sample`].
/// Disabled when `interval == 0` (the default).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    interval: u64,
    next: u64,
    samples: Vec<Sample>,
    base: Baseline,
}

impl TimeSeries {
    /// Creates a sampler firing every `interval` cycles (0 disables it).
    pub fn new(interval: u64) -> Self {
        TimeSeries {
            interval,
            next: interval,
            samples: Vec::new(),
            base: Baseline::default(),
        }
    }

    /// True when sampling is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.interval != 0
    }

    /// True when the simulated clock has reached the next sample point.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        self.interval != 0 && now >= self.next
    }

    /// The configured sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

impl Stats {
    /// Takes one time-series sample at cycle `now`. `engine_ctxs` and
    /// `stream_depth` are instantaneous occupancy readings supplied by the
    /// caller ([`crate::hw::Hw::maybe_sample`]).
    pub(crate) fn take_sample(&mut self, now: u64, engine_ctxs: u32, stream_depth: u64) {
        let b = self.timeline.base;
        let dt = now.saturating_sub(b.cycle);
        let dc = self.core_instrs - b.core_instrs;
        let de = self.engine_instrs - b.engine_instrs;
        let delta = |cur: LevelStats, old: LevelStats| LevelStats {
            hits: cur.hits - old.hits,
            misses: cur.misses - old.misses,
            writebacks: cur.writebacks - old.writebacks,
        };
        let l1 = delta(self.l1, b.l1);
        let l2 = delta(self.l2, b.l2);
        let llc = delta(self.llc, b.llc);
        self.timeline.samples.push(Sample {
            cycle: now,
            ipc: if dt == 0 {
                0.0
            } else {
                (dc + de) as f64 / dt as f64
            },
            core_instrs: dc,
            engine_instrs: de,
            l1_miss_ratio: l1.miss_ratio(),
            l2_miss_ratio: l2.miss_ratio(),
            llc_miss_ratio: llc.miss_ratio(),
            noc_flit_hops: self.noc_flit_hops - b.noc_flit_hops,
            dram_accesses: self.dram_accesses - b.dram_accesses,
            engine_ctxs,
            stream_depth,
        });
        self.timeline.base = Baseline {
            cycle: now,
            core_instrs: self.core_instrs,
            engine_instrs: self.engine_instrs,
            l1: self.l1,
            l2: self.l2,
            llc: self.llc,
            noc_flit_hops: self.noc_flit_hops,
            dram_accesses: self.dram_accesses,
        };
        // Schedule the next sample strictly after `now`, skipping any
        // intervals the event-driven clock jumped over.
        let interval = self.timeline.interval;
        while self.timeline.next <= now {
            self.timeline.next += interval;
        }
    }
}

/// Sampler state, exported as `<name>_samples`.
impl StatField for TimeSeries {
    fn write(&self, w: &mut Writer) {
        w.u64(self.interval);
        w.u64(self.next);
        w.u64(self.base.cycle);
        w.u64(self.base.core_instrs);
        w.u64(self.base.engine_instrs);
        self.base.l1.write(w);
        self.base.l2.write(w);
        self.base.llc.write(w);
        w.u64(self.base.noc_flit_hops);
        w.u64(self.base.dram_accesses);
        w.u32(self.samples.len() as u32);
        for s in &self.samples {
            w.u64(s.cycle);
            w.f64(s.ipc);
            w.u64(s.core_instrs);
            w.u64(s.engine_instrs);
            w.f64(s.l1_miss_ratio);
            w.f64(s.l2_miss_ratio);
            w.f64(s.llc_miss_ratio);
            w.u64(s.noc_flit_hops);
            w.u64(s.dram_accesses);
            w.u32(s.engine_ctxs);
            w.u64(s.stream_depth);
        }
    }

    fn read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        self.interval = r.u64()?;
        self.next = r.u64()?;
        let b = &mut self.base;
        b.cycle = r.u64()?;
        b.core_instrs = r.u64()?;
        b.engine_instrs = r.u64()?;
        b.l1.read(r)?;
        b.l2.read(r)?;
        b.llc.read(r)?;
        b.noc_flit_hops = r.u64()?;
        b.dram_accesses = r.u64()?;
        let n = r.count(40)?;
        self.samples.clear();
        self.samples.reserve(n);
        for _ in 0..n {
            self.samples.push(Sample {
                cycle: r.u64()?,
                ipc: r.f64()?,
                core_instrs: r.u64()?,
                engine_instrs: r.u64()?,
                l1_miss_ratio: r.f64()?,
                l2_miss_ratio: r.f64()?,
                llc_miss_ratio: r.f64()?,
                noc_flit_hops: r.u64()?,
                dram_accesses: r.u64()?,
                engine_ctxs: r.u32()?,
                stream_depth: r.u64()?,
            });
        }
        Ok(())
    }

    fn counters(&self, name: &'static str, out: &mut Vec<(String, u64)>) {
        out.push((format!("{name}_samples"), self.samples.len() as u64));
    }
}

impl Stats {
    /// Serializes every table row (see [`crate::snapshot`]). `host_phases`
    /// is wall-clock data and is deliberately excluded: it is
    /// nondeterministic, never part of byte-identical outputs, and resets
    /// on restore.
    pub(crate) fn snap_write(&self, w: &mut Writer) {
        self.rows(|_, row| row.write(w));
    }

    /// Restores statistics written by [`Stats::snap_write`] into `self`,
    /// leaving `host_phases` untouched.
    pub(crate) fn snap_read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
        self.rows_mut(|row| row.read(r))
    }

    /// Every exported scalar counter as `(name, value)`, in table order
    /// (see [`crate::Telemetry::counters`]).
    pub(crate) fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.rows(|name, row| row.counters(name, &mut out));
        out
    }

    /// Every latency histogram as `(name, histogram)`, in table order.
    pub(crate) fn histograms(&self) -> Vec<(&'static str, &Histogram)> {
        let mut out = Vec::new();
        self.rows(|name, row| out.extend(row.histogram().map(|h| (name, h))));
        out
    }

    /// Serializes the statistics (everything the machine snapshot
    /// covers) into a standalone byte vector, for embedding in run
    /// journals and other external records.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.snap_write(&mut w);
        w.into_bytes()
    }

    /// Rebuilds statistics from [`Stats::to_snapshot_bytes`] output.
    ///
    /// # Errors
    /// Malformed bytes are rejected with a typed
    /// [`SnapshotError`](crate::snapshot::SnapshotError).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut r = Reader::new(bytes);
        let mut s = Stats::new();
        s.snap_read(&mut r)?;
        if !r.is_exhausted() {
            return Err(crate::snapshot::SnapshotError::Corrupted(
                "trailing bytes after stats",
            ));
        }
        Ok(s)
    }

    /// A deterministic digest of every serialized statistic — counters,
    /// histograms, traces, spans, and timeline (everything except the
    /// wall-clock `host_phases`). Two runs with equal digests observed
    /// identical simulated behavior; checkpoint verification compares the
    /// digest of a restored replica against the primary run.
    pub fn digest(&self) -> u64 {
        crate::snapshot::fnv1a(&self.to_snapshot_bytes())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every counter, level, TLB counter and tenant vector set to a
    /// distinct non-zero value, plus two records per histogram and one
    /// timeline sample.
    pub(crate) fn filled_stats() -> Stats {
        let mut s = Stats::new();
        let scalars: [&mut u64; 31] = [
            &mut s.cycles,
            &mut s.core_instrs,
            &mut s.engine_instrs,
            &mut s.dir_lookups,
            &mut s.invalidations,
            &mut s.ownership_transfers,
            &mut s.noc_messages,
            &mut s.noc_flit_hops,
            &mut s.dram_accesses,
            &mut s.mc_cache_hits,
            &mut s.branches,
            &mut s.mispredicts,
            &mut s.fences,
            &mut s.core_rmws,
            &mut s.invokes,
            &mut s.invoke_nacks,
            &mut s.invoke_migrations,
            &mut s.ctor_actions,
            &mut s.dtor_actions,
            &mut s.stream_pushes,
            &mut s.stream_pops,
            &mut s.stream_stall_cycles,
            &mut s.prefetches,
            &mut s.faults_injected,
            &mut s.fault_nack_retries,
            &mut s.fault_fallbacks,
            &mut s.fault_degraded_cycles,
            &mut s.tlb_hits,
            &mut s.tlb_misses,
            &mut s.tlb_walk_cycles,
            &mut s.tenant_quota_nacks,
        ];
        for (i, c) in scalars.into_iter().enumerate() {
            *c = 0x1000 + i as u64;
        }
        for (i, l) in [&mut s.l1, &mut s.l2, &mut s.llc, &mut s.engine_l1]
            .into_iter()
            .enumerate()
        {
            let i = i as u64;
            *l = LevelStats {
                hits: 0x2000 + 3 * i,
                misses: 0x2001 + 3 * i,
                writebacks: 0x2002 + 3 * i,
            };
        }
        for (i, p) in s.dram_by_phase.iter_mut().enumerate() {
            *p = 0x3000 + i as u64;
        }
        s.set_phase(2);
        s.tenant_llc_misses = vec![0x4000, 0x4001, 0x4002];
        s.tenant_invokes = vec![0x4100, 0x4101, 0x4102];
        s.tenant_finish = vec![0x4200, 0x4201, 0x4202];
        for (i, h) in [
            &mut s.invoke_rtt,
            &mut s.load_to_use,
            &mut s.dram_queue,
            &mut s.stream_stall,
            &mut s.fault_backoff,
            &mut s.xlat_walk,
        ]
        .into_iter()
        .enumerate()
        {
            h.record(10 + i as u64);
            h.record(1000 * (i as u64 + 1));
        }
        s.trace = Tracer::new(false, 64);
        s.spans = SpanTable::new(false, 64);
        s.timeline = TimeSeries::new(100);
        s.take_sample(100, 3, 5);
        s
    }

    #[test]
    fn filled_stats_keep_the_pinned_snapshot_bytes() {
        // Length and FNV-1a of the bytes the hand-written encoder produced
        // before the table existed: the table must keep the format.
        let s = filled_stats();
        let bytes = s.to_snapshot_bytes();
        assert_eq!(bytes.len(), 4038);
        assert_eq!(crate::snapshot::fnv1a(&bytes), 0x37bf_7e5a_4743_234c);
        assert_eq!(s.digest(), 0x37bf_7e5a_4743_234c);

        let back = Stats::from_snapshot_bytes(&bytes).expect("round trips");
        assert!(
            back.to_snapshot_bytes() == bytes,
            "restored stats re-encode differently"
        );
        assert_eq!(back.phase(), 2);
        assert_eq!(back.counters(), s.counters());
    }

    #[test]
    fn snapshot_rejects_an_out_of_range_phase() {
        let mut bytes = Stats::new().to_snapshot_bytes();
        // The phase index follows 27 scalars, 4 levels and 4 phase counters.
        let at = (27 + 4 * 3 + MAX_PHASES) * 8;
        bytes[at] = MAX_PHASES as u8;
        assert_eq!(
            Stats::from_snapshot_bytes(&bytes).err(),
            Some(crate::snapshot::SnapshotError::Corrupted("phase index"))
        );
    }

    #[test]
    fn telemetry_counters_name_every_row_exactly_once() {
        let s = filled_stats();
        let all = crate::Telemetry::new(&s).counters();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate counter names");

        let mut exported = 0;
        s.rows(|name, row| {
            let mut own = Vec::new();
            row.counters(name, &mut own);
            assert!(
                !own.is_empty() || row.histogram().is_some() || name == "current_phase",
                "row {name} exports nothing"
            );
            for c in &own {
                assert_eq!(all.iter().filter(|a| *a == c).count(), 1, "{c:?}");
            }
            exported += own.len();
        });
        assert_eq!(exported, all.len());

        // Same names and values as the hand-written list the table
        // replaced: 61 counters, pinned as FNV-1a over sorted lines.
        let mut lines: Vec<String> = all.iter().map(|(n, v)| format!("{n}={v}\n")).collect();
        lines.sort();
        assert_eq!(lines.len(), 61);
        assert_eq!(
            crate::snapshot::fnv1a(lines.concat().as_bytes()),
            0x68fb_1d7c_046f_4d69
        );
        let hists: Vec<&str> = s.histograms().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            hists,
            [
                "invoke_rtt",
                "load_to_use",
                "dram_queue",
                "stream_stall",
                "fault_backoff",
                "xlat_walk"
            ]
        );
    }

    #[test]
    fn phase_attribution() {
        let mut s = Stats::new();
        s.count_dram();
        s.set_phase(1);
        s.count_dram();
        s.count_dram();
        assert_eq!(s.dram_accesses, 3);
        assert_eq!(s.dram_by_phase[0], 1);
        assert_eq!(s.dram_by_phase[1], 2);
        assert_eq!(s.phase(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phase_bounds_checked() {
        Stats::new().set_phase(MAX_PHASES);
    }

    #[test]
    fn ratios() {
        let mut s = Stats::new();
        assert_eq!(s.mispredict_ratio(), 0.0);
        s.branches = 10;
        s.mispredicts = 3;
        assert!((s.mispredict_ratio() - 0.3).abs() < 1e-12);
        let lv = LevelStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert_eq!(lv.accesses(), 4);
        assert!((lv.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_nonempty() {
        let s = Stats::new();
        let text = s.to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("DRAM"));
    }

    #[test]
    fn display_includes_engine_l1_and_writebacks() {
        let mut s = Stats::new();
        s.engine_l1.hits = 7;
        s.engine_l1.misses = 3;
        s.l2.writebacks = 11;
        let text = s.to_string();
        assert!(
            text.contains("eL1 hits/misses:   7/3 (30.0% miss)"),
            "{text}"
        );
        assert!(
            text.contains("writebacks:        L1 0 / L2 11 / LLC 0 / eL1 0"),
            "{text}"
        );
    }

    #[test]
    fn display_shows_histograms_when_populated() {
        let mut s = Stats::new();
        assert!(!s.to_string().contains("invoke RTT"));
        s.invoke_rtt.record(40);
        s.stream_stall.record(9);
        let text = s.to_string();
        assert!(text.contains("invoke RTT:        n=1"), "{text}");
        assert!(text.contains("stream stall:      n=1"), "{text}");
    }

    #[test]
    fn display_fault_lines_gated_on_injection() {
        let mut s = Stats::new();
        // Degradation counters alone must not change the output: only an
        // actual injected plan unlocks the fault lines.
        s.fault_degraded_cycles = 7;
        assert!(!s.to_string().contains("faults:"), "{s}");
        s.faults_injected = 2;
        s.fault_nack_retries = 3;
        s.fault_fallbacks = 1;
        let text = s.to_string();
        assert!(
            text.contains("faults:            2 injected; 3 NACK-retries, 1 core-fallbacks, 7 degraded cycles"),
            "{text}"
        );
        assert!(!text.contains("fault backoff"), "{text}");
        s.fault_backoff.record(16);
        assert!(s.to_string().contains("fault backoff:     n=1"), "{s}");
    }

    #[test]
    fn sampler_deltas_and_schedule() {
        let mut s = Stats::new();
        s.timeline = TimeSeries::new(100);
        assert!(s.timeline.enabled());
        assert!(!s.timeline.due(99));
        assert!(s.timeline.due(100));

        s.core_instrs = 400;
        s.l1.hits = 90;
        s.l1.misses = 10;
        s.take_sample(100, 3, 5);
        // The clock can jump past several intervals; the next sample point
        // must land strictly after `now`.
        assert!(!s.timeline.due(100));
        assert!(s.timeline.due(200));

        s.core_instrs = 600;
        s.engine_instrs = 100;
        s.l1.hits = 90; // no L1 activity this interval
        s.take_sample(350, 0, 0);
        assert!(!s.timeline.due(350));
        assert!(s.timeline.due(400));

        let samples = s.timeline.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].cycle, 100);
        assert!((samples[0].ipc - 4.0).abs() < 1e-12);
        assert!((samples[0].l1_miss_ratio - 0.1).abs() < 1e-12);
        assert_eq!(samples[0].engine_ctxs, 3);
        assert_eq!(samples[0].stream_depth, 5);
        // Second sample covers only the interval since the first.
        assert_eq!(samples[1].core_instrs, 200);
        assert_eq!(samples[1].engine_instrs, 100);
        assert!((samples[1].ipc - 300.0 / 250.0).abs() < 1e-12);
        assert_eq!(samples[1].l1_miss_ratio, 0.0);
    }

    #[test]
    fn disabled_sampler_is_never_due() {
        let s = Stats::new();
        assert!(!s.timeline.enabled());
        assert!(!s.timeline.due(u64::MAX));
    }
}
