"""Run every workload through run.py several times and report how steady each
metric is.

    python3 bench/steady.py                     # 10 seeds per workload
    python3 bench/steady.py --runs 1            # one run each: the metrics
    python3 bench/steady.py --sets 2            # two sets, medians compared

Each run is a fresh process of run.py with --trace 0, run_seconds from
BENCHMARK.json and its own seed (1, 2, ...); the lines it prints are echoed,
indented, under it. Per workload and end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median, against the metric's bound in BENCHMARK.json. With
--sets 2 the whole round is repeated and each second median is compared with
the first: |second - first| / first must stay within the bound. The exit code
is 1 when a run failed, a spread exceeds its bound or the two sets differ by
more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines:  # the run's metric lines and its unscaled times
        if not line.startswith("{"):
            print(f"    {line}")
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def run_set(names: list[str], runs: int, seconds: int) -> dict[str, list[dict]]:
    results: dict[str, list[dict]] = {}
    for name in names:
        for seed in range(1, runs + 1):
            out = run_once(name, seed, seconds)
            results.setdefault(name, []).append(out)
            print(f"  {name} seed={seed} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']}", flush=True)
    return results


def summarise(results: dict[str, list[dict]], bounds: dict[str, dict]) -> tuple[dict, bool]:
    """Print one line per workload and metric; (medians, all spreads in bound)."""
    medians: dict[tuple[str, str], float] = {}
    steady = True
    for name, outs in results.items():
        metric_names = list(outs[0]["metrics"]) if outs and outs[0]["metrics"] else []
        for metric in metric_names:
            values = [o["metrics"][metric]["value"] for o in outs if metric in o["metrics"]]
            unit = outs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            medians[(name, metric)] = med
            line = f"{name:15s} {metric:16s} median {med:12.6g} {unit:13s}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f" q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%}"
                bound = bounds[metric]["bound"]
                verdict = ("steady" if spread < bound / 3 else
                           "within" if spread <= bound else "WIDE")
                line += f" bound {bound:.0%} {verdict}"
                steady = steady and verdict != "WIDE"
            print(line)
    return medians, steady


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"runs={args.runs} seconds={seconds}")
    ok = True
    first = None
    for k in range(args.sets):
        print(f"set {k + 1}:")
        results = run_set(names, args.runs, seconds)
        attempted = sum(o["attempted"] for outs in results.values() for o in outs)
        failed = sum(o["failed"] for outs in results.values() for o in outs)
        medians, steady = summarise(results, bounds)
        print(f"fail_ratio = {failed / attempted:.6g} failed/attempted "
              f"({failed} of {attempted} runs)")
        ok = ok and steady and failed == 0 and all(
            o["correct"] for outs in results.values() for o in outs)
        if first is not None:
            for key, med in medians.items():
                if not first.get(key):
                    continue
                bound = bounds[key[1]]["bound"]
                change = (med - first[key]) / first[key]
                verdict = "ok" if abs(change) <= bound else "APART"
                ok = ok and verdict == "ok"
                print(f"second/first {key[0]:15s} {key[1]:16s} "
                      f"{change:+8.2%} of first median, bound {bound:.0%} {verdict}")
        first = medians
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
