#!/usr/bin/env python3
"""Checks that the fleet workloads' peak RSS does not depend on earlier runs.

    python3 bench/peak_rss_gate.py

Runs each fleet workload of perfbench at each seed twice through
perfbench/run.py: once for a single execution (--seconds 0) and once for
the benchmark's own loop of executions in one process (run_seconds in
BENCHMARK.json). The two peak_rss_mb readings must agree within
TOLERANCE_MB. A gap means memory freed by one execution is not reused by
the next -- a block recycled through the heap instead of returned to the
system, whose touched pages stay resident -- so the benchmark's peak
would depend on how long it ran. Seed 5 is here because a stranded
outcome block showed there, and only over the full loop, while seed 1
and shorter loops read clean. Prints both peaks per run and exits 1 if
any differ by more than the tolerance.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("fleet_churn", "fleet_10k")
SEEDS = (1, 5)
TOLERANCE_MB = 2.0


def loop_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def peak_rss_mb(workload, seed, seconds):
    """One run.py call; its last stdout line is the JSON record."""
    res = subprocess.run(
        [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        capture_output=True, text=True, check=True)
    record = json.loads(res.stdout.strip().splitlines()[-1])
    if not record["correct"]:
        raise SystemExit(f"{workload}: run.py reported a failed check")
    return record["metrics"]["peak_rss_mb"]["value"]


def main():
    seconds = loop_seconds()
    unstable = []
    for w in WORKLOADS:
        for seed in SEEDS:
            one = peak_rss_mb(w, seed, 0)
            loop = peak_rss_mb(w, seed, seconds)
            print(f"{w} seed {seed}: peak_rss_mb {one:.2f} after one "
                  f"execution, {loop:.2f} after a {seconds} s loop "
                  f"({loop - one:+.2f})", flush=True)
            if abs(loop - one) > TOLERANCE_MB:
                unstable.append(f"{w} seed {seed}")
    if unstable:
        print(f"peak RSS moves by more than {TOLERANCE_MB} MB with the "
              f"number of executions: {', '.join(unstable)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
