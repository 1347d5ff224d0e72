#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload W ...]

Runs `perfbench/run.py --trace 0` once per seed on each workload and
prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives them,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            assert result["correct"], f"{name} seed {seed}: incorrect run"
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
            print(f"{name} seed={seed} " + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"{name:20} {m['name']:16} median={med:.6g} spread={(q3 - q1) / med:.4f} bound={m['bound']}")


if __name__ == "__main__":
    main()
