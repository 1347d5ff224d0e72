#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds two binaries of the benchmark package (untraced and traced, into
`$CARGO_TARGET_DIR/plain` and `.../traced`; `.bench_build` by default),
then runs one. With `--trace 0` the untraced binary reports the
end-to-end metrics. With `--trace 1` the untraced binary runs first, the
traced binary second, and the traced run's per-layer metrics gain
`trace.overhead`: traced over untraced wall time of the same fixed work.
The last line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Both runs of a traced invocation share this budget.
RUN_BUDGET_S = 170


def build(target_root, traced):
    target = os.path.join(target_root, "traced" if traced else "plain")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    if traced:
        cmd += ["--features", "trace"]
    # Build output goes to stderr so standard output stays the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "perfbench")


def run(binary, args, out_dir, deadline):
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out-dir", out_dir,
    ]
    # At most two malloc arenas (one per vCPU): with glibc's default of up
    # to eight per CPU, peak RSS of the multi-threaded serve workload
    # depends on how many arenas short-lived threads happened to create.
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    wall = next(float(l.split()[1]) for l in lines if l.startswith("wall_s "))
    return lines[:-1], result, wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        plain = build(target_root, traced=False)
        traced = build(target_root, traced=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"build failed: {e}")
    out_dir = os.path.join(target_root, "run")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        lines, result, wall = run(plain, args, out_dir, deadline)
        if args.trace:
            print("\n".join(lines))
            untraced = result
            lines, result, traced_wall = run(traced, args, out_dir, deadline)
            result["correct"] = result["correct"] and untraced["correct"]
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
            result["metrics"]["trace.overhead"] = {
                "value": traced_wall / wall,
                "unit": "ratio",
            }
    except subprocess.TimeoutExpired as e:
        raise SystemExit(f"perfbench timed out: {e}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
