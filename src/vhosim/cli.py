"""Command-line front end: single runs and scheme/speed sweeps, CSV export."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

from .harness import (ConfigError, InvariantError, ScenarioConfig, emit_csv,
                      load_scenario, run_experiment, run_metadata, sweep)

SWEEP_SPEEDS = [1.0, 2.0, 4.0, 8.0, 10.0]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vhosim",
        description="Discrete-event simulation of MIPv6 vertical handover "
                    "(hard vs. soft make-before-break).")
    p.add_argument("--config", help="scenario config file (key = value)")
    p.add_argument("--scheme", choices=["hard", "soft"])
    p.add_argument("--app", choices=["video", "voip"], dest="application")
    p.add_argument("--rate", type=float, help="video sending rate in bits/second")
    p.add_argument("--speed", type=float, help="mobility speed in m/s")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV results path")
    p.add_argument("--sweep", action="store_true",
                   help="run speeds {1,2,4,8,10} x {hard,soft} for the selected app")
    p.add_argument("--event-log", help="write the per-run event log to this path")
    return p


def _resolve_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.config) if args.config else ScenarioConfig()
    overrides = {name: value for name, value in (
        ("scheme", args.scheme), ("application", args.application),
        ("video_rate_bps", args.rate), ("speed", args.speed), ("seed", args.seed))
        if value is not None}
    return replace(cfg, **overrides).validate()


def _flag_error(args, cfg: ScenarioConfig) -> Optional[str]:
    """Why a flag would be ignored in this mode, or could not be honoured
    once the run is over, naming the flag; None when every flag holds."""
    if args.rate is not None and cfg.application != "video":
        return f"--rate: sets the video rate, but the application is {cfg.application}"
    if args.sweep:
        for flag, value, why in (
                ("--speed", args.speed, "runs every speed of the sweep"),
                ("--scheme", args.scheme, "runs both schemes"),
                ("--event-log", args.event_log, "writes no event log")):
            if value is not None:
                return f"{flag}: --sweep {why}"
    for flag, path in (("--out", args.out), ("--event-log", args.event_log)):
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            return f"{flag}: {path} is a directory"
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            return f"{flag}: cannot write {path}: no writable directory {parent}"
    return None


def _rate(rate: Optional[float]) -> str:
    """A loss rate, or none for a flow that sent nothing."""
    return "none" if rate is None else f"{rate:.6f}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    error = _flag_error(args, cfg)
    if error is not None:
        print(f"usage error: {error}", file=sys.stderr)
        return 2

    try:
        if args.sweep:
            apps = [(cfg.application, cfg.video_rate_bps)]
            records, errors = sweep(cfg, SWEEP_SPEEDS, ["hard", "soft"], apps)
            for rec in records:
                print(f"{rec.scheme:4s} {rec.application:5s} speed={rec.speed:<4g} "
                      f"handovers={rec.handover_count} loss={_rate(rec.loss_rate)}"
                      + (f" mos={rec.mos:.3f}" if rec.mos is not None else ""))
            for err in errors:
                print(f"FAILED: {err}", file=sys.stderr)
            if args.out:
                emit_csv(records, args.out, metadata=run_metadata(cfg))
                print(f"wrote {args.out}")
            return 1 if errors else 0

        trace = [] if args.event_log else None
        result = run_experiment(cfg, trace_sink=trace)
        rec = result.metrics
        print(f"{rec.scheme} {rec.application} speed={rec.speed:g} "
              f"sim_time={rec.sim_time:g}s handovers={rec.handover_count}")
        print(f"  sent={rec.sent} received={rec.received} late={rec.late} "
              f"lost={rec.lost} loss_rate={_rate(rec.loss_rate)}")
        if rec.mos is not None:
            print(f"  mean_delay={rec.mean_delay * 1000:.3f}ms "
                  f"R={rec.r_factor:.2f} MOS={rec.mos:.3f}")
        if rec.gaps:
            print(f"  connectivity gaps: {['%.3f' % g for g in rec.gaps]}")
        if args.event_log:
            with open(args.event_log, "w") as fh:
                fh.write("\n".join(trace) + "\n")
            print(f"wrote {args.event_log}")
        if args.out:
            emit_csv([rec], args.out, metadata=run_metadata(cfg))
            print(f"wrote {args.out}")
        return 0
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
