#!/usr/bin/env python3
"""Steadiness check: runs one workload at several seeds and prints, per
end-to-end metric, the median and the inter-quartile spread as a share
of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload paper-star --seeds 1-10

A spread under a third of the bound is "steady"; under the bound, "ok".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics as m

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {x["name"]: [] for x in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(lines[-1])
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        print(f"seed {seed}: correct={result['correct']} run_s="
              f"{result['metrics']['run_s']['value']:.3f}", flush=True)

    for x in spec["end_to_end"]:
        vals = values[x["name"]]
        share = m.iqr_share(vals)
        verdict = ("steady" if share < x["bound"] / 3 else
                   "ok" if share <= x["bound"] else "SPREAD")
        print(f"{x['name']:16s} median {statistics.median(vals):<12.6g} "
              f"spread {share:.4f} bound {x['bound']:<5} {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
