"""Run the benchmark once per seed and print each metric's spread.

    python3 perfbench/steadiness.py --workload kv_get_knee --seeds 1-10

Runs ``run.py`` in a fresh process per seed, one after another, and
prints for every end-to-end metric its median and its inter-quartile
spread as a share of the median (the acceptance rule's statistic),
next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import rules  # noqa: E402


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(metrics.items()))),
            flush=True)
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        print("%-20s median %14.6g  spread %.4f  bound %.2f"
              % (entry["name"], statistics.median(series),
                 rules.relative_spread(series), entry["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
