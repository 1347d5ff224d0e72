#!/usr/bin/env bash
# Local CI: exactly what .github/workflows/ci.yml runs.
# Everything is offline — the workspace has no crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== module size guard =="
# The sim monolith was split into layered modules on purpose; keep it
# that way. Fails if any source file under a src/ tree reaches 1200 lines.
oversized=0
while IFS= read -r f; do
  lines=$(wc -l < "$f")
  if [ "$lines" -gt 1200 ]; then
    echo "FAIL: $f has $lines lines (limit 1200) — split it into modules"
    oversized=1
  fi
done < <(find . -path ./target -prune -o -path '*/src/*.rs' -print -o -path './src/*.rs' -print)
[ "$oversized" -eq 0 ]

echo "== fmt ==";    cargo fmt --all -- --check
echo "== clippy =="; cargo clippy --workspace --all-targets -- -D warnings
echo "== build ==";  cargo build --workspace --release
echo "== doc ==";    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "== test ==";   cargo test --workspace -q
echo "== fault smoke =="
# Fault injection must be a pure function of the seed: two runs with the
# same seed must print byte-identical output.
tmp="$(mktemp -d)"; trap 'rm -rf "$tmp"' EXIT
cargo run --release --quiet --example fault_demo -- 3 > "$tmp/a.txt"
cargo run --release --quiet --example fault_demo -- 3 > "$tmp/b.txt"
diff "$tmp/a.txt" "$tmp/b.txt"
echo "== bench runner =="
# Every figure must run end-to-end at quick scale and the JSON report
# must be complete (one line per figure + a manifest covering them all).
rm -f "$tmp/bench-report.json"
cargo run --release --quiet -p levi-bench -- run all --quick --json "$tmp/bench-report.json" \
  > "$tmp/all-parallel.txt"
cargo run --release --quiet -p levi-bench -- check-report "$tmp/bench-report.json"
echo "== determinism =="
# Every registry figure is deterministic: a serial run of the whole
# registry must print byte-identical output to the parallel run above.
# check-report already validated the levi-xlat figures' JSON lines and
# manifest coverage — assert they really are in the report to keep that
# honest.
for fig in ablation_translation ablation_tenancy; do
  grep -q "\"figure\":\"$fig\"" "$tmp/bench-report.json"
done
cargo run --release --quiet -p levi-bench -- run all --quick --serial \
  > "$tmp/all-serial.txt" 2> /dev/null
diff "$tmp/all-parallel.txt" "$tmp/all-serial.txt"
echo "== telemetry smoke =="
# --telemetry must be purely observational: one figure runs with and
# without the flag and must print byte-identical stdout, and the dump it
# produces must pass structural validation.
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  > "$tmp/fig05-plain.txt" 2> /dev/null
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --telemetry "$tmp/telemetry.jsonl" > "$tmp/fig05-telemetry.txt" 2> /dev/null
diff "$tmp/fig05-plain.txt" "$tmp/fig05-telemetry.txt"
cargo run --release --quiet -p levi-bench -- check-report "$tmp/telemetry.jsonl"
echo "== crash recovery smoke =="
# A journaled run that dies mid-sweep must resume to a byte-identical
# report: run a figure to completion under --resume, truncate its journal
# down to the header + one record + a torn half-written line (what a
# kill mid-append leaves behind), resume, and diff the two reports.
rm -f "$tmp/run.journal" "$tmp/resume-a.json" "$tmp/resume-b.json"
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --json "$tmp/resume-a.json" --resume "$tmp/run.journal" > /dev/null 2> /dev/null
head -n 2 "$tmp/run.journal" > "$tmp/dead.journal"
torn=$(sed -n '3p' "$tmp/run.journal")
printf '%s' "${torn:0:40}" >> "$tmp/dead.journal"
mv "$tmp/dead.journal" "$tmp/run.journal"
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --json "$tmp/resume-b.json" --resume "$tmp/run.journal" > /dev/null 2> "$tmp/resume.log"
grep -q "(resumed)" "$tmp/resume.log"
diff "$tmp/resume-a.json" "$tmp/resume-b.json"
echo "== snapshot verify smoke =="
# Periodic checkpointing + post-run replay verification must be purely
# observational: fig05 prints byte-identical stdout with both armed, and
# the verification replays must all pass.
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --snapshot-verify --checkpoint-every 50000 \
  > "$tmp/fig05-verified.txt" 2> /dev/null
diff "$tmp/fig05-plain.txt" "$tmp/fig05-verified.txt"
echo "== serve smoke =="
# The service layer must be invisible at the byte level: a run through
# `--server` must print exactly what the in-process run prints, and a
# repeated request must be served from the content-addressed cache
# without re-executing (the client reports the hit on stderr).
for fig in ablation_translation ablation_tenancy; do
  cargo run --release --quiet -p levi-bench -- run "$fig" --quick \
    > "$tmp/$fig-local.txt" 2> /dev/null
done
cargo run --release --quiet -p levi-bench -- serve \
  --addr 127.0.0.1:0 --cache "$tmp/serve.cache" > "$tmp/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true; rm -rf "$tmp"' EXIT
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^levi-serve listening on //p' "$tmp/serve.log")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ]
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --server "$addr" > "$tmp/fig05-remote1.txt" 2> /dev/null
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --server "$addr" > "$tmp/fig05-remote2.txt" 2> "$tmp/remote2.log"
cargo run --release --quiet -p levi-bench -- run ablation_translation --quick \
  --server "$addr" > "$tmp/xlat-remote.txt" 2> /dev/null
cargo run --release --quiet -p levi-bench -- run ablation_tenancy --quick \
  --server "$addr" > "$tmp/tenancy-remote.txt" 2> /dev/null
kill "$serve_pid"
grep -q "cache hit" "$tmp/remote2.log"
diff "$tmp/fig05-plain.txt" "$tmp/fig05-remote1.txt"
diff "$tmp/fig05-remote1.txt" "$tmp/fig05-remote2.txt"
diff "$tmp/ablation_translation-local.txt" "$tmp/xlat-remote.txt"
diff "$tmp/ablation_tenancy-local.txt" "$tmp/tenancy-remote.txt"
echo "== perf gate =="
# Host-performance smoke: measure, accept a machine-local baseline, then
# re-measure and compare against it. Gating is machine-local (wall-clock
# baselines do not transfer between hosts) with a generous threshold —
# this catches order-of-magnitude regressions and proves the run →
# accept → compare pipeline end to end. A dated BENCH_<date>.json
# trajectory file must come out of the run as well.
mkdir -p "$tmp/perf"
cargo run --release --quiet -p levi-bench -- perf run --quick \
  --json "$tmp/perf/report-a.json" > /dev/null
cargo run --release --quiet -p levi-bench -- perf accept \
  "$tmp/perf/report-a.json" --baseline "$tmp/perf/local-baseline.json"
cargo run --release --quiet -p levi-bench -- perf run --quick \
  --json "$tmp/perf/report-b.json" --trajectory "$tmp/perf" > /dev/null
cargo run --release --quiet -p levi-bench -- perf compare \
  "$tmp/perf/report-b.json" --baseline "$tmp/perf/local-baseline.json" --threshold 75
ls "$tmp"/perf/BENCH_*.json > /dev/null
echo "== alloc smoke =="
# The data-oriented substrate's core claim: once warm, the per-instruction
# hot path performs zero heap allocations. A counting global allocator
# (release build, so the measured path is the shipped one) enforces it.
cargo test --release -q -p levi-sim --test alloc_smoke
echo "== trajectory validation =="
# Both the fresh CI trajectory and the committed perf history must parse
# as perf reports and be chronological in filename order.
cargo run --release --quiet -p levi-bench -- perf trajectory "$tmp/perf"
cargo run --release --quiet -p levi-bench -- perf trajectory perf
echo "== ok =="
