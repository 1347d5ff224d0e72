//! The levi-serve wire protocol and the content-addressed job identity.
//!
//! Everything on the wire is **one JSON object per line**, both
//! directions, written with [`crate::json::JsonWriter`] and read with
//! [`crate::json::parse`] — no async framing, no length prefixes, just
//! the line discipline the rest of the harness already speaks.
//!
//! A client sends exactly one request line per connection:
//!
//! ```json
//! {"v":1,"cmd":"run","figure":"fig05_phi","quick":true}
//! ```
//!
//! optionally carrying `"filter"`, `"fault_seed"` / `"fault_horizon"`,
//! and `"timeout_ms"`. The server answers with a stream of events:
//!
//! ```json
//! {"event":"start","figure":"fig05_phi","key":"91c2...","cached":false,"coalesced":false}
//! {"event":"line","stream":"progress","text":"  ran Baseline ..."}
//! {"event":"line","stream":"out","text":"variant  cycles ..."}
//! {"event":"done","cached":false,"lines":17}
//! ```
//!
//! or a single `{"event":"error","code":...,"message":...}` — the typed
//! codes are `bad_request`, `busy` (bounded-queue back-pressure),
//! `timeout` (the job's queue deadline expired before a worker picked it
//! up), and `failed` (the figure panicked).
//!
//! # The cache key
//!
//! [`Job::cache_key`] is the content address of a run's output: FNV-1a
//! (the same [`levi_sim::fnv1a`] the snapshot digests use) over
//!
//! 1. the levi-serve [`SCHEMA_VERSION`] — bump it and every old cache
//!    entry misses,
//! 2. the canonical job text ([`Job::canon`]: figure, scale, filter,
//!    fault recipe — everything that changes the bytes a run prints),
//! 3. the [`levi_sim::config_digest`] of the paper-default machine
//!    shape, so a substrate change that moves any modeled parameter
//!    invalidates the cache, and
//! 4. the golden checksum of every workload the figure exercises at the
//!    requested scale, so a workload or input-generation change does
//!    too.
//!
//! The job timeout is deliberately **not** part of the key: two requests
//! differing only in patience want the same bytes.

use levi_workloads::harness::{find_workload, FaultSpec, RunEnv, ScaleKind};

use crate::json::{parse, Json, JsonWriter};
use crate::out::Line;
use crate::runner::RunCtx;

/// Version of the wire protocol *and* of the cache's content addressing.
/// Incompatible evolution on either side bumps this.
pub const SCHEMA_VERSION: u32 = 1;

/// One experiment request: which figure, at which scale, under which
/// environment. This is the unit of execution, coalescing, and caching.
#[derive(Clone, Debug)]
pub struct Job {
    /// Figure id. Clients may send a prefix; the server canonicalizes it
    /// via [`crate::runner::find_figure`] before keying.
    pub figure: String,
    /// Reduced-scale run (`--quick`).
    pub quick: bool,
    /// Variant label filter (`--filter`).
    pub filter: Option<String>,
    /// Seeded fault-plan recipe (`--fault-plan`).
    pub fault: Option<FaultSpec>,
    /// Patience bound: if the job is still queued when this many
    /// milliseconds have passed, the server answers `timeout` instead of
    /// executing. Not part of the job's identity.
    pub timeout_ms: Option<u64>,
}

impl Job {
    /// A full-scale, unfiltered, unfaulted job for `figure`.
    pub fn new(figure: &str) -> Job {
        Job {
            figure: figure.to_string(),
            quick: false,
            filter: None,
            fault: None,
            timeout_ms: None,
        }
    }

    /// The canonical one-line text of everything that determines this
    /// job's output bytes. Two jobs with equal `canon` coalesce and hit
    /// the same cache entry; the timeout is excluded on purpose.
    pub fn canon(&self) -> String {
        format!(
            "figure={} quick={} filter={} fault={}",
            self.figure,
            u8::from(self.quick),
            self.filter
                .as_ref()
                .map_or_else(|| "-".to_string(), |f| format!("{f:?}")),
            self.fault
                .map_or_else(|| "-".to_string(), |f| format!("{}:{}", f.seed, f.horizon)),
        )
    }

    /// The scale this job selects.
    pub fn kind(&self) -> ScaleKind {
        if self.quick {
            ScaleKind::Quick
        } else {
            ScaleKind::Paper
        }
    }

    /// The [`RunCtx`] this job describes. Journal resume, telemetry
    /// export, and snapshot hooks are CLI-local concerns and stay off
    /// the wire in protocol v1.
    pub fn run_ctx(&self) -> RunCtx {
        RunCtx {
            quick: self.quick,
            filter: self.filter.clone(),
            env: RunEnv {
                fault: self.fault,
                ..RunEnv::default()
            },
        }
    }

    /// The content address of this job's result (see the module docs for
    /// the key recipe). Requires `figure` to be a canonical id.
    ///
    /// # Errors
    /// Unknown figure or workload names are errors (the server answers
    /// `bad_request`).
    pub fn cache_key(&self) -> Result<u64, String> {
        let fig = crate::runner::find_figure(&self.figure)
            .ok_or_else(|| format!("unknown figure {:?}", self.figure))?;
        let mut text = format!("levi-serve v{SCHEMA_VERSION}\n{}\n", self.canon());
        let digest = levi_sim::config_digest(&levi_sim::MachineConfig::paper_default());
        text.push_str(&format!("config {digest:016x}\n"));
        for name in fig.workloads {
            let w = find_workload(name)
                .ok_or_else(|| format!("figure {} names unknown workload {name:?}", fig.id))?;
            let prepared = w.prepare(self.kind());
            let labels = w.variant_labels();
            let baseline = labels
                .first()
                .ok_or_else(|| format!("workload {name:?} has no variants"))?;
            // The baseline golden covers the workload's input generation
            // and reference model; variant-specific goldens derive from
            // the same input, and the simulated runs are checked against
            // them at execution time anyway.
            text.push_str(&format!(
                "workload {name} golden {:016x}\n",
                prepared.golden(baseline)
            ));
        }
        Ok(levi_sim::fnv1a(text.as_bytes()))
    }

    /// Renders the request line (no trailing newline).
    pub fn request_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("v").u64(u64::from(SCHEMA_VERSION));
        w.key("cmd").str("run");
        w.key("figure").str(&self.figure);
        w.key("quick").bool(self.quick);
        if let Some(f) = &self.filter {
            w.key("filter").str(f);
        }
        if let Some(f) = &self.fault {
            w.key("fault_seed").u64(f.seed);
            w.key("fault_horizon").u64(f.horizon);
        }
        if let Some(t) = self.timeout_ms {
            w.key("timeout_ms").u64(t);
        }
        w.end_obj();
        w.finish()
    }

    /// Parses a request line.
    ///
    /// # Errors
    /// Malformed JSON, a version mismatch, an unknown command, and
    /// missing or mistyped fields are errors (answered as `bad_request`).
    pub fn parse_request(line: &str) -> Result<Job, String> {
        let doc = parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
        let version = doc
            .get("v")
            .and_then(Json::as_num)
            .ok_or("request without a version")?;
        if version != f64::from(SCHEMA_VERSION) {
            return Err(format!(
                "protocol version {version} (this server speaks {SCHEMA_VERSION})"
            ));
        }
        match doc.get("cmd").and_then(Json::as_str) {
            Some("run") => {}
            other => return Err(format!("unknown command {other:?}")),
        }
        let figure = doc
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("run request without a figure")?
            .to_string();
        let quick = doc.get("quick").and_then(Json::as_bool).unwrap_or(false);
        let filter = doc.get("filter").and_then(Json::as_str).map(str::to_string);
        // Integer fields are read exactly: a seed above 2^53 must not
        // round into another job's fault plan and cache key, and `-1` or
        // `1.5` are errors rather than saturated or truncated values.
        let uint = |key: &str| match doc.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{key} must be an unsigned integer, got {}", v.to_json())),
        };
        let horizon = uint("fault_horizon")?;
        let fault = match uint("fault_seed")? {
            Some(seed) => {
                let mut spec = FaultSpec::new(seed);
                if let Some(h) = horizon {
                    if h == 0 {
                        return Err("fault_horizon must be nonzero".into());
                    }
                    spec.horizon = h;
                }
                Some(spec)
            }
            None => None,
        };
        let timeout_ms = uint("timeout_ms")?;
        Ok(Job {
            figure,
            quick,
            filter,
            fault,
            timeout_ms,
        })
    }
}

/// One server→client event, the parsed form of a response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The job was accepted; output follows.
    Start {
        /// Canonical figure id (prefixes are resolved server-side).
        figure: String,
        /// The job's cache key, as 16 hex digits.
        key: String,
        /// True when the whole result replays from the cache.
        cached: bool,
        /// True when this request attached to an identical in-flight
        /// execution instead of starting its own.
        coalesced: bool,
    },
    /// One line of figure output, in emission order.
    Line(Line),
    /// The run completed; this is the final event of a success.
    Done {
        /// Whether the result came from the cache.
        cached: bool,
        /// How many output lines preceded this event.
        lines: u64,
    },
    /// The run failed; this is the final event of a failure.
    Error {
        /// Typed code: `bad_request`, `busy`, `timeout`, or `failed`.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Event {
    /// Renders the event as a response line (no trailing newline).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        match self {
            Event::Start {
                figure,
                key,
                cached,
                coalesced,
            } => {
                w.key("event").str("start");
                w.key("figure").str(figure);
                w.key("key").str(key);
                w.key("cached").bool(*cached);
                w.key("coalesced").bool(*coalesced);
            }
            Event::Line(line) => {
                w.key("event").str("line");
                w.key("stream")
                    .str(if line.is_out() { "out" } else { "progress" });
                w.key("text").str(line.text());
            }
            Event::Done { cached, lines } => {
                w.key("event").str("done");
                w.key("cached").bool(*cached);
                w.key("lines").u64(*lines);
            }
            Event::Error { code, message } => {
                w.key("event").str("error");
                w.key("code").str(code);
                w.key("message").str(message);
            }
        }
        w.end_obj();
        w.finish()
    }

    /// Parses a response line.
    ///
    /// # Errors
    /// Malformed JSON and unknown or incomplete events are errors.
    pub fn parse(line: &str) -> Result<Event, String> {
        let doc = parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
        let kind = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or("response without an event kind")?;
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} event without {k:?}"))
        };
        let bool_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("{kind} event without {k:?}"))
        };
        match kind {
            "start" => Ok(Event::Start {
                figure: str_field("figure")?,
                key: str_field("key")?,
                cached: bool_field("cached")?,
                coalesced: bool_field("coalesced")?,
            }),
            "line" => {
                let text = str_field("text")?;
                match doc.get("stream").and_then(Json::as_str) {
                    Some("out") => Ok(Event::Line(Line::Out(text))),
                    Some("progress") => Ok(Event::Line(Line::Progress(text))),
                    other => Err(format!("line event with unknown stream {other:?}")),
                }
            }
            "done" => Ok(Event::Done {
                cached: bool_field("cached")?,
                lines: doc
                    .get("lines")
                    .and_then(Json::as_num)
                    .ok_or("done event without \"lines\"")? as u64,
            }),
            "error" => Ok(Event::Error {
                code: str_field("code")?,
                message: str_field("message")?,
            }),
            other => Err(format!("unknown event kind {other:?}")),
        }
    }
}

/// Renders a cache key as the 16-hex-digit wire form.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let mut job = Job::new("fig05_phi");
        job.quick = true;
        job.filter = Some("levi \"x\"".into());
        job.fault = Some(FaultSpec {
            seed: 7,
            horizon: 50_000,
        });
        job.timeout_ms = Some(1500);
        let line = job.request_line();
        let back = Job::parse_request(&line).expect("round trips");
        assert_eq!(back.canon(), job.canon());
        assert_eq!(back.timeout_ms, Some(1500));

        let plain = Job::parse_request(&Job::new("table04_area").request_line()).unwrap();
        assert!(!plain.quick && plain.filter.is_none() && plain.fault.is_none());
        assert_eq!(plain.timeout_ms, None);
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        assert!(Job::parse_request("not json").is_err());
        assert!(
            Job::parse_request("{\"cmd\":\"run\"}").is_err(),
            "no version"
        );
        assert!(
            Job::parse_request("{\"v\":99,\"cmd\":\"run\",\"figure\":\"f\"}")
                .unwrap_err()
                .contains("version"),
        );
        assert!(Job::parse_request("{\"v\":1,\"cmd\":\"stop\"}").is_err());
        assert!(
            Job::parse_request("{\"v\":1,\"cmd\":\"run\"}").is_err(),
            "no figure"
        );
    }

    #[test]
    fn integer_fields_round_trip_exactly() {
        let mut job = Job::new("table04_area");
        job.fault = Some(FaultSpec {
            seed: (1 << 53) + 1,
            horizon: u64::MAX,
        });
        job.timeout_ms = Some((1 << 53) + 3);
        let back = Job::parse_request(&job.request_line()).expect("round trips");
        let recipe = |j: &Job| j.fault.map(|f| (f.seed, f.horizon));
        assert_eq!(recipe(&back), recipe(&job));
        assert_eq!(back.timeout_ms, job.timeout_ms);
        assert_eq!(back.canon(), job.canon());
        assert_eq!(back.cache_key().unwrap(), job.cache_key().unwrap());
    }

    #[test]
    fn inexact_integer_fields_are_rejected() {
        for field in ["fault_seed", "fault_horizon", "timeout_ms"] {
            for value in ["-1", "1.5", "1e30", "18446744073709551616", "\"7\"", "null"] {
                let line = format!(
                    "{{\"v\":1,\"cmd\":\"run\",\"figure\":\"table04_area\",\"{field}\":{value}}}"
                );
                let err = Job::parse_request(&line).expect_err(&line);
                assert!(err.contains(field), "{line}: {err}");
            }
        }
        assert!(Job::parse_request(
            "{\"v\":1,\"cmd\":\"run\",\"figure\":\"f\",\"fault_seed\":1,\"fault_horizon\":0}"
        )
        .unwrap_err()
        .contains("nonzero"));
    }

    #[test]
    fn canon_identifies_jobs_but_ignores_timeout() {
        let a = Job::new("fig05_phi");
        let mut b = Job::new("fig05_phi");
        b.timeout_ms = Some(10);
        assert_eq!(a.canon(), b.canon(), "patience is not identity");
        let mut c = Job::new("fig05_phi");
        c.quick = true;
        assert_ne!(a.canon(), c.canon());
        let mut d = Job::new("fig05_phi");
        d.filter = Some("ideal".into());
        assert_ne!(a.canon(), d.canon());
    }

    #[test]
    fn cache_key_tracks_figure_and_scale() {
        // Workload-less figures key on schema + canon + config digest
        // only, so they are fast to compute in tests.
        let area = Job::new("table04_area").cache_key().expect("known figure");
        let cfg = Job::new("table05_config").cache_key().unwrap();
        assert_ne!(area, cfg, "different figures, different addresses");
        let mut quick = Job::new("table04_area");
        quick.quick = true;
        assert_ne!(area, quick.cache_key().unwrap(), "scale is identity");
        assert_eq!(
            area,
            Job::new("table04_area").cache_key().unwrap(),
            "the key is a pure function of the job"
        );
        assert!(Job::new("nope").cache_key().is_err());
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Start {
                figure: "fig05_phi".into(),
                key: key_hex(0xdead_beef),
                cached: false,
                coalesced: true,
            },
            Event::Line(Line::Out("variant  cycles".into())),
            Event::Line(Line::Progress("  ran Baseline".into())),
            Event::Done {
                cached: true,
                lines: 17,
            },
            Event::Error {
                code: "busy".into(),
                message: "queue full (depth 8)".into(),
            },
        ];
        for e in events {
            let line = e.render();
            assert_eq!(Event::parse(&line).expect("round trips"), e, "{line}");
        }
        assert!(Event::parse("{\"event\":\"nope\"}").is_err());
        assert!(Event::parse("{\"event\":\"line\",\"text\":\"x\"}").is_err());
    }

    #[test]
    fn key_hex_is_16_digits() {
        assert_eq!(key_hex(0xab), "00000000000000ab");
    }
}
