//! In-memory spans around the benchmark's calls into the program.
//!
//! Each span records one public call: its name, start and end on a clock
//! shared by every thread of the run, the span that caused it, and the
//! operation (job or request) it belongs to. Spans are only recorded in
//! the traced build; they stay in memory and are written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span on the same thread.
    pub parent: Option<u64>,
    /// The job or request this call serves.
    pub op: u64,
    /// The public function called, e.g. `harness.run`.
    pub name: &'static str,
    /// Nanoseconds since the run's clock started.
    pub start_ns: u64,
    /// Nanoseconds since the run's clock started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Threads of one run share `clock` and use
/// disjoint id ranges (`lane`), so their spans merge without renumbering.
pub struct Tracer {
    on: bool,
    clock: Instant,
    next: u64,
    open: Vec<(u64, u64, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `lane`, timing from `clock`; records nothing
    /// unless `on`.
    pub fn new(on: bool, clock: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            clock,
            next: lane << 40,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Opens a span; calls must nest (close the innermost first).
    pub fn open(&mut self, name: &'static str, op: u64) {
        if self.on {
            self.next += 1;
            let start = self.now();
            self.open.push((self.next, op, name, start));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let (id, op, name, start_ns) = self.open.pop().expect("close without an open span");
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|o| o.0),
            op,
            name,
            start_ns,
            end_ns: end,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, op);
        let r = f();
        self.close();
        r
    }

    /// Moves this recorder's spans into `all`.
    pub fn drain_into(&mut self, all: &mut Vec<Span>) {
        assert!(self.open.is_empty(), "spans left open");
        all.append(&mut self.spans);
    }
}

/// Self time per span name: each span's duration minus the time its
/// children cover, summed over spans of that name, in nanoseconds.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        *out.entry(s.name).or_default() += s.ns().saturating_sub(covered);
    }
    out
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// The span dump: one JSON object per line.
pub fn dump(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::new();
    for s in sorted {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            mk(1, None, "job", 0, 100),
            mk(2, Some(1), "run", 10, 40),
            mk(3, Some(1), "run", 50, 90),
            mk(4, Some(3), "inner", 60, 70),
        ];
        let s = self_ns(&spans);
        assert_eq!(s["job"], 30);
        assert_eq!(s["run"], 30 + 30);
        assert_eq!(s["inner"], 10);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let clock = Instant::now();
        let mut t = Tracer::new(true, clock, 1);
        t.open("outer", 7);
        t.span("inner", 7, || ());
        t.close();
        let mut all = Vec::new();
        t.drain_into(&mut all);
        assert_eq!(all.len(), 2);
        let outer = all
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer recorded");
        let inner = all
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(dump(&all).lines().count(), 2);

        let mut off = Tracer::new(false, clock, 2);
        off.span("x", 1, || ());
        let mut none = Vec::new();
        off.drain_into(&mut none);
        assert!(none.is_empty());
    }
}
