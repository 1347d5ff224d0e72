//! Metric definitions, the simulated-statistics ledger, and the final
//! JSON line.

use std::collections::BTreeMap;

use levi_sim::Phase;

use crate::sim::{phase_table, phase_totals, Counts, JobResult};
use crate::stats::{median, ns_per_inst, ns_per_inst_p50, Cost};
use crate::trace::{self_ns, Span};

/// End-to-end metrics (untraced build), with units. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ns_per_inst", "ns"),
    ("ns_per_inst.p50", "ns"),
    ("op_ms.p50", "ms"),
];

/// Per-layer metrics (traced build), with units. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.invoke.calls_per_invoke", "calls/invoke"),
    ("sim.invoke.ms", "ms"),
    ("sim.sched.ms", "ms"),
    ("sim.exec.ms", "ms"),
    ("sim.cache.ms", "ms"),
    ("sim.dram.ms", "ms"),
    ("sim.noc.ms", "ms"),
    ("sim.flush.ms", "ms"),
    ("sim.build.ms", "ms"),
    ("harness.build_input_ms", "ms"),
    ("harness.golden_ms", "ms"),
    ("snapshot.verify_ratio", "ratio"),
    ("figure.run_ms", "ms"),
    ("serve.exec_overhead_ms", "ms"),
    ("serve.cache.put_ms", "ms"),
    ("serve.cache.get_us", "us"),
    ("serve.cache_key_ms", "ms"),
    ("serve.protocol.us_per_line", "us"),
    ("serve.start_ms", "ms"),
    ("serve.hit_ms.p50", "ms"),
    ("serve.hit_ms.p90", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.hits", "count"),
    ("serve.executions", "count"),
    ("serve.coalesced", "count"),
    ("serve.failed", "count"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("sim.invokes", "count"),
    ("sim.invoke_nacks", "count"),
    ("sim.llc_misses", "count"),
    ("sim.dram_accesses", "count"),
    ("sim.noc_flit_hops", "count"),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Wall time of the timed work.
    pub wall_s: f64,
    /// Peak resident set.
    pub peak_rss_mb: f64,
    /// Every span recorded (traced build only).
    pub spans: Vec<Span>,
}

impl Report {
    /// True when every operation succeeded with a correct output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records the host time the simulator spent in `phase`.
    pub fn set_phase_ns(&mut self, phase: Phase, ns: u64) {
        let name = match phase {
            Phase::Build => "sim.build.ms",
            Phase::Sched => "sim.sched.ms",
            Phase::Exec => "sim.exec.ms",
            Phase::Cache => "sim.cache.ms",
            Phase::Noc => "sim.noc.ms",
            Phase::Dram => "sim.dram.ms",
            Phase::Invoke => "sim.invoke.ms",
            Phase::Flush => "sim.flush.ms",
        };
        self.layer.insert(name, ns as f64 / 1e6);
    }

    /// Fills the simulated counts of the ledger into the per-layer map.
    pub fn set_counts(&mut self, c: &Counts) {
        for (name, v) in c.fields() {
            let key = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("sim.") == Some(name))
                .expect("every ledger count is a per-layer metric")
                .0;
            self.layer.insert(key, v as f64);
        }
    }

    /// Fills in metrics of a simulation workload and prints its ledger.
    /// `setups` and `walls` hold each round's set-up and job time, s.
    pub fn sim(&mut self, setups: &[f64], walls: &[f64], results: &[JobResult]) {
        self.attempted = results.len() as u64;
        self.failed = results.iter().filter(|r| !r.ok).count() as u64;
        let costs: Vec<Cost> = results
            .iter()
            .filter(|r| r.ok)
            .map(|r| Cost {
                ns: r.ns,
                insts: r.counts.insts,
            })
            .collect();
        self.e2e.insert("setup_s", median(setups).unwrap_or(0.0));
        self.e2e
            .insert("ns_per_inst", ns_per_inst(&costs).unwrap_or(0.0));
        self.e2e
            .insert("ns_per_inst.p50", ns_per_inst_p50(&costs).unwrap_or(0.0));
        // The unit operation is a round: every round runs the same job
        // kinds, whereas single jobs differ in size by 50x.
        self.e2e
            .insert("op_ms.p50", median(walls).unwrap_or(0.0) * 1e3);

        // The ledger: exact simulated counts per job and in total. A
        // change that only speeds the simulator up leaves every line
        // identical.
        let mut total = Counts::default();
        let mut groups: BTreeMap<&str, (Counts, Vec<&JobResult>)> = BTreeMap::new();
        for r in results {
            println!(
                "ledger round={} {}/{}{} {}",
                r.round,
                r.group,
                r.label,
                if r.verify { " [verify]" } else { "" },
                r.counts.ledger()
            );
            total.add(&r.counts);
            let g = groups.entry(r.group).or_default();
            g.0.add(&r.counts);
            g.1.push(r);
        }
        println!("ledger total {}", total.ledger());
        self.set_counts(&total);

        if cfg!(feature = "trace") {
            for (name, (c, rs)) in &groups {
                print!(
                    "{}",
                    phase_table(name, &phase_totals(rs.iter().copied()), c)
                );
            }
            let p = phase_totals(results.iter());
            for ph in Phase::ALL {
                self.set_phase_ns(ph, p.ns(ph));
            }
            let calls = p.calls(Phase::Invoke) as f64;
            self.layer.insert(
                "sim.invoke.calls_per_invoke",
                if total.invokes == 0 {
                    0.0
                } else {
                    calls / total.invokes as f64
                },
            );
            let selfs = self_ns(&self.spans);
            let ms = |name| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6;
            self.layer
                .insert("harness.build_input_ms", ms("harness.build_input"));
            self.layer.insert("harness.golden_ms", ms("harness.golden"));
            // Verified twin vs its plain job of the same round and input.
            let (mut verified, mut plain) = (0.0, 0.0);
            for v in results.iter().filter(|r| r.verify && r.ok) {
                if let Some(p) = results.iter().find(|p| {
                    !p.verify && p.round == v.round && p.group == v.group && p.label == v.label
                }) {
                    verified += v.ns;
                    plain += p.ns;
                }
            }
            self.layer.insert(
                "snapshot.verify_ratio",
                if plain > 0.0 { verified / plain } else { 0.0 },
            );
        }
    }

    /// The final line: end-to-end metrics untraced, per-layer traced.
    pub fn json(&self, traced: bool) -> String {
        let mut e2e = self.e2e.clone();
        e2e.insert("wall_s", self.wall_s);
        e2e.insert("peak_rss_mb", self.peak_rss_mb);
        let (names, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.layer)
        } else {
            (&END_TO_END, &e2e)
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
