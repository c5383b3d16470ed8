"""vhosim benchmark: run one workload in this process and report its metrics.

    python3 bench/run.py --workload video-uplink --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off:
scaled_cpu_s, setup_s, peak_rss_mb and events_per_pkt. Both times are CPU
seconds scaled to a nominal host speed by the fixed loop in reference.py,
sampled during each piece of timed work. With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics and
trace_overhead. Each pass runs every config of the workload once through
vhosim.harness.run_experiment; passes repeat until --seconds have passed.
Every run's output is checked (checks.py); a run that raises or fails a check
is counted in "failed" and its pass gives no timing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every run was correct,
1 when one was not, and 2 when the checkout holds no vhosim sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference
import workloads
from tracer import Tracer, per_layer_metrics

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


@dataclass
class Pass:
    """One pass over a workload's configs."""
    cpu_s: float = 0.0  # summed CPU time inside run_experiment
    scaled_s: float = 0.0  # the same, each run scaled by reference.Sampler
    rows: list[str] = field(default_factory=list)
    failed: int = 0
    events: int = 0
    app_pkts: int = 0
    handovers: int = 0


def run_pass(cfgs, expected, require_digest: bool, tracer=None) -> Pass:
    from vhosim import harness

    p = Pass()
    for cfg in cfgs:
        try:
            # only run_experiment is traced, not the checks that follow it
            if tracer is not None:
                tracer.install()
            try:
                with reference.Sampler() as timed:
                    result = harness.run_experiment(cfg)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = checks.check_run(cfg, result, expected, require_digest)
        except Exception as exc:  # a failed run is counted, the pass goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            p.cpu_s += timed.cpu_s
            p.scaled_s += timed.scaled_s
            p.rows.append(checks.row_text(result.metrics))
            p.events += result.scenario.sim.executed
            p.app_pkts += sum(f.sent for f in result.scenario.flows.values())
            p.handovers += result.metrics.handover_count
            # keep only the row, and free the run's cyclic garbage now, so
            # one run's memory is held at a time
            del result
            gc.collect()
        if tracer is not None:
            tracer.end_run()
        if problems:
            p.failed += 1
            print(f"FAILED {workloads.label(cfg)}: {'; '.join(problems)}",
                  file=sys.stderr)
    return p


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(CPU seconds, scaled seconds) a fresh process takes to import vhosim
    and build the configs."""
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    cpu_s, scaled_s = proc.stdout.split()
    return float(cpu_s), float(scaled_s)


def measure(cfgs, seconds: float, expected, require_digest: bool, traced: bool,
            probe=None) -> tuple[list[Pass], list[Pass], list, list[tuple]]:
    """(untraced passes, traced passes, tracers, set-up probe results).

    The SETUP_PROBES probes are spread evenly over the run.
    """
    plain: list[Pass] = []
    with_trace: list[Pass] = []
    tracers = []
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:  # at least one pass, then until --seconds have passed
        plain.append(run_pass(cfgs, expected, require_digest))
        if traced:
            tr = Tracer()
            with_trace.append(run_pass(cfgs, expected, require_digest, tr))
            tracers.append(tr)
        elapsed = time.perf_counter() - start
        due = SETUP_PROBES * min(1.0, elapsed / seconds) if probe else 0
        while len(setup) < due:
            setup.append(probe())
        if elapsed >= seconds:
            return plain, with_trace, tracers, setup


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        workloads.import_vhosim()
    except workloads.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfgs = workloads.build_configs(args.workload, args.seed)
    expected = checks.load_expected()
    require_digest = args.seed == workloads.DEFAULT_SEED
    probe = None if args.trace else lambda: probe_setup(args.workload, args.seed)
    plain, traced, tracers, setup = measure(cfgs, args.seconds, expected,
                                            require_digest, bool(args.trace), probe)

    passes = plain + traced
    attempted = len(cfgs) * len(passes)
    failed = sum(p.failed for p in passes)
    # every pass runs the same configs, so every pass must give the same rows
    good_rows = [p.rows for p in passes if not p.failed]
    mismatched = sum(rows != good_rows[0] for rows in good_rows)
    if mismatched:
        print(f"FAILED: {mismatched} passes gave rows that differ from the "
              f"first pass (traced vs untraced, or run to run)", file=sys.stderr)
        failed += mismatched * len(cfgs)
    correct = failed == 0

    metrics: dict[str, dict] = {}
    good = [p for p in plain if not p.failed]
    good_traced = [(p, tr) for p, tr in zip(traced, tracers) if not p.failed]
    if good and not args.trace:
        metrics["scaled_cpu_s"] = _metric(statistics.median(p.scaled_s for p in good),
                                          "s")
        metrics["setup_s"] = _metric(statistics.median(s for _, s in setup), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(rss_kib / 1024.0, "MB")
        metrics["events_per_pkt"] = _metric(good[0].events / good[0].app_pkts,
                                            "events/packet")
        print(f"# unscaled: cpu_s {statistics.median(p.cpu_s for p in good):.6g} s, "
              f"setup_s {statistics.median(c for c, _ in setup):.6g} s")
    elif good and good_traced:
        per_pass = [per_layer_metrics(tr, p.events, p.app_pkts, p.handovers)
                    for p, tr in good_traced]
        for name, (_, unit) in per_pass[0].items():
            metrics[name] = _metric(statistics.median(m[name][0] for m in per_pass),
                                    unit)
        overhead = (statistics.median(p.scaled_s for p, _ in good_traced)
                    / statistics.median(p.scaled_s for p in good))
        metrics["trace_overhead"] = _metric(overhead, "x")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
