"""Rebuild the golden outputs with the standard library alone, and compare.

    PYTHONPATH=src python tests/check_goldens.py [--write | --random N]

The package supports every Python from 3.10 on (pyproject.toml), and an
interpreter may have no pytest. This script needs none. It rebuilds the
bytes of tests/golden/grid.csv (the 70-run acceptance grid), the SHA-256
and line count of each event log in tests/golden/event_logs.json, the
digest in tests/golden/criterion10_log.sha256, the per-flow digests of
sink order in tests/golden/uplink_order.json and the --random 100
printout in tests/golden/random.json, prints one line per golden, and
exits 1 if any differs (0 if none does). The pytest suite checks the same
goldens from the definitions here (test_golden_grid_csv,
test_golden_random_configs, test_event_log_matches_golden,
test_criterion_10_byte_identical_reruns,
test_sinks_take_packets_in_golden_order).

With --write it rewrites every golden file from the rebuilt outputs
instead, after an intended change of output; say in CHANGES.md which bytes
changed and why.

With --random N it checks no golden: it prints, for each of N random
configs drawn from fixed seeds (AP positions, speeds, fields, beacon
intervals, miss thresholds, both schemes and applications), the event log's
SHA-256 and the CSV row. It runs each config untraced too, and exits 1,
naming the config, if that CSV row or any flow's counts differ from the
traced run's. Two trees print the same lines when their outputs agree on
every one of those configs, so a diff of the two printouts checks a
refactor that should change no byte beyond the goldens, on the traced and
the untraced path alike:

    PYTHONPATH=src python tests/check_goldens.py --random 500 > new.txt

The first RANDOM_GOLDEN of those configs are a golden too: random.json
maps each config's number to its line. A config whose untraced run
differs stops the compare, --write and the pytest check with its error.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from sink_tap import tapped_scenarios

from vhosim.harness import ScenarioConfig, emit_csv, run_experiment

GOLDEN = Path(__file__).parent / "golden"

# the acceptance grid: speeds x hard/soft x video 0.5M/video 2M/VoIP; the CBR
# video source is deterministic, the on/off VoIP source is sampled, so its
# curves are means over repeated runs with different seeds
SPEEDS = [1.0, 2.0, 4.0, 8.0, 10.0]
APPS = [("video", 0.5e6), ("video", 2e6), ("voip", 64000.0)]
SEEDS = {"video": [1], "voip": [1, 2, 3, 4, 5]}

CRITERION_10 = ScenarioConfig(scheme="hard", application="voip", speed=10.0, seed=5)


def grid_configs():
    """((app, rate, scheme, speed), config) of each grid run, in grid.csv order."""
    for app, rate in APPS:
        for scheme in ("hard", "soft"):
            for speed in SPEEDS:
                for seed in SEEDS[app]:
                    cfg = ScenarioConfig(scheme=scheme, application=app,
                                         speed=speed, seed=seed)
                    if app == "video":
                        cfg.video_rate_bps = rate
                    yield (app, rate, scheme, speed), cfg


def _churn(scheme: str, speed: float) -> ScenarioConfig:
    # as in the handover-churn benchmark workload at seed 1
    return ScenarioConfig(scheme=scheme, application="video",
                          video_rate_bps=64000.0, speed=speed, seed=1)


def random_config(i: int) -> ScenarioConfig:
    """Config number i of --random: the same for every tree and Python."""
    rng = random.Random(i)
    x1, y1 = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
    x2, y2 = x1 + rng.uniform(1.0, 400.0), y1 + rng.uniform(0.0, 100.0)
    return ScenarioConfig(
        scheme=rng.choice(["hard", "soft"]), application=rng.choice(["video", "voip"]),
        video_rate_bps=rng.choice([64000.0, 0.5e6, 2e6]), speed=rng.uniform(1.0, 20.0),
        sim_time=rng.choice([None, rng.uniform(10.0, 400.0)]), seed=rng.randint(1, 1000),
        field_x1=x1, field_y1=y1, field_x2=x2, field_y2=y2, row_count=rng.randint(1, 8),
        ap_home_x=rng.uniform(-200.0, 400.0), ap_home_y=rng.uniform(-150.0, 200.0),
        ap_foreign_x=rng.uniform(-200.0, 400.0), ap_foreign_y=rng.uniform(-150.0, 200.0),
        beacon_interval=rng.uniform(0.02, 0.6), miss_threshold=rng.randint(1, 5),
        foreign_link_delay=rng.uniform(0.0, 0.05), expected_handovers=None)


# the configs of event_logs.json; tests/test_event_logs.py says why each is there
EVENT_LOG_CONFIGS = {
    **{f"churn-{s}-{v:g}": _churn(s, v)
       for s in ("hard", "soft") for v in (8.0, 9.0, 10.0)},
    "voip-hard-2-seed1": ScenarioConfig(scheme="hard", application="voip",
                                        speed=2.0, seed=1),
    "voip-soft-2-seed1": ScenarioConfig(scheme="soft", application="voip",
                                        speed=2.0, seed=1),
    "voip-hard-4-fld0.05": ScenarioConfig(scheme="hard", application="voip",
                                          speed=4.0, foreign_link_delay=0.05),
    "voip-soft-4-fld0.05": ScenarioConfig(scheme="soft", application="voip",
                                          speed=4.0, foreign_link_delay=0.05),
    **{f"voip-{s}-4-spurt0.2": ScenarioConfig(scheme=s, application="voip", speed=4.0,
                                              voip_spurt_mean=0.2, voip_silence_mean=0.3)
       for s in ("hard", "soft")},
    "bitrate12800-hard": ScenarioConfig(scheme="hard", bitrate=12800.0),
    "bitrate12800-soft": ScenarioConfig(scheme="soft", bitrate=12800.0),
    "miss1-bi0.5-soft": ScenarioConfig(scheme="soft", miss_threshold=1,
                                       beacon_interval=0.5,
                                       expected_handovers=None),
    "foreignx150-hard": ScenarioConfig(scheme="hard", ap_foreign_x=150.0,
                                       expected_handovers=None),
    "foreignx150-soft": ScenarioConfig(scheme="soft", ap_foreign_x=150.0,
                                       expected_handovers=None),
    "foreignx185-soft": ScenarioConfig(scheme="soft", application="video",
                                       video_rate_bps=0.5e6, speed=10.0,
                                       ap_foreign_x=185.0, expected_handovers=None),
    "churn-hard-10-520s": replace(_churn("hard", 10.0), sim_time=520.0,
                                  expected_handovers=None),
    "homex-150-hard-40": ScenarioConfig(scheme="hard", application="video", speed=40.0,
                                        ap_home_x=-150.0, ap_home_y=0.0,
                                        expected_handovers=None),
    "random-1024": random_config(1024),
}


# the configs of uplink_order.json; tests/test_uplink_order.py says why each is there
UPLINK_ORDER_CONFIGS = {
    "video-2M-soft-4-fld0.02": ScenarioConfig(
        scheme="soft", application="video", video_rate_bps=2e6, speed=4.0,
        foreign_link_delay=0.02),
    "video-2M-hard-4-fld0.02": ScenarioConfig(
        scheme="hard", application="video", video_rate_bps=2e6, speed=4.0,
        foreign_link_delay=0.02),
    # a foreign link one 5 ms tick less the tunnel header's airtime: a
    # tunnelled packet reaches the HA at the very time of a native one
    "video-2M-soft-4-fld0.00484": ScenarioConfig(
        scheme="soft", application="video", video_rate_bps=2e6, speed=4.0,
        foreign_link_delay=0.00484),
    "voip-soft-4-fld0.05": ScenarioConfig(
        scheme="soft", application="voip", speed=4.0, foreign_link_delay=0.05),
    "voip-soft-2-seed1001": ScenarioConfig(
        scheme="soft", application="voip", speed=2.0, seed=1001),
    "voip-hard-4-fld0.05": ScenarioConfig(
        scheme="hard", application="voip", speed=4.0, foreign_link_delay=0.05),
    "voip-hard-2-seed1001": ScenarioConfig(
        scheme="hard", application="voip", speed=2.0, seed=1001),
    **{f"voip-{s}-4-spurt0.2": ScenarioConfig(
        scheme=s, application="voip", speed=4.0, voip_spurt_mean=0.2,
        voip_silence_mean=0.3) for s in ("hard", "soft")},
}


def outcome(result) -> tuple:
    """The CSV row of a run, and each flow's counts and delay sum: the row
    shows the downlink's losses only as a rate, not its drops."""
    return result.metrics.to_row(), [
        (f.flow_id, f.sent, f.received, f.late, f.lost, f.delay_sum.hex())
        for f in result.scenario.flows.values()]


RANDOM_GOLDEN = 100  # the configs of random.json


def random_line(i: int) -> str:
    """Config i's line of --random: its number, the event log's SHA-256 and
    the CSV row. Raises ValueError if the untraced run's CSV row or flow
    counts differ from the traced run's."""
    trace: list[str] = []
    traced = outcome(run_experiment(random_config(i), trace_sink=trace))
    if outcome(run_experiment(random_config(i))) != traced:
        raise ValueError(f"random config {i}: the untraced run's CSV row or flow "
                         "counts differ from the traced run's")
    text = "\n".join(trace) + "\n"
    return f"{i} {hashlib.sha256(text.encode()).hexdigest()} {','.join(traced[0])}"


def random_golden() -> dict[str, str]:
    """random.json's entries: config number -> its --random line. Raises
    ValueError, as random_line does, and so writes or passes no golden."""
    return {f"{i:03d}": random_line(i) for i in range(RANDOM_GOLDEN)}


def log_digest(cfg: ScenarioConfig) -> dict[str, object]:
    """SHA-256 and line count of the event log, as --event-log writes it."""
    trace: list[str] = []
    run_experiment(cfg, trace_sink=trace)
    text = "\n".join(trace) + "\n"
    return {"lines": len(trace), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def sink_order(cfg: ScenarioConfig) -> dict[str, list[tuple[int, str]]]:
    """flow -> [(seq, line)] in the order its sink took the packets."""
    calls: dict[str, list] = {}
    with tapped_scenarios(calls):
        run_experiment(cfg)
    return {flow: [(seq, f"{flow} {seq} {now!r} {verdict}") for seq, now, verdict in packets]
            for flow, packets in calls.items()}


def order_digests(calls: dict[str, list[tuple[int, str]]]) -> dict[str, str]:
    """flow -> SHA-256 of its lines of sink_order, as uplink_order.json holds them."""
    return {flow: hashlib.sha256("\n".join(line for _, line in lines).encode())
            .hexdigest() for flow, lines in sorted(calls.items())}


def grid_csv() -> bytes:
    """The bytes emit_csv writes for the grid's rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        emit_csv([run_experiment(cfg).metrics for _, cfg in grid_configs()], out)
        return out.read_bytes()


def rebuild() -> dict[str, object]:
    """Golden file name -> what this tree gives it: bytes, a digest, or a
    dict of the JSON golden's entries."""
    return {
        "grid.csv": grid_csv(),
        "event_logs.json": {name: log_digest(cfg) for name, cfg in EVENT_LOG_CONFIGS.items()},
        "uplink_order.json": {name: order_digests(sink_order(cfg))
                              for name, cfg in UPLINK_ORDER_CONFIGS.items()},
        "criterion10_log.sha256": log_digest(CRITERION_10)["sha256"],
        "random.json": random_golden(),
    }


def write(got: dict[str, object]) -> None:
    """Rewrite every golden file from rebuild()'s outputs."""
    for golden, value in got.items():
        path = GOLDEN / golden
        if isinstance(value, bytes):
            path.write_bytes(value)
        elif isinstance(value, dict):
            path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")
        else:
            path.write_text(value + "\n")
        print(f"wrote {path}")


def compare(got: dict[str, object]) -> list[str]:
    """Print one line per golden, or per entry of a JSON golden; the names
    of those that differ from the files."""
    differ = []
    for golden, value in got.items():
        path = GOLDEN / golden
        if isinstance(value, bytes):
            pairs = [(golden, value, path.read_bytes())]
        elif isinstance(value, dict):
            want = json.loads(path.read_text())
            pairs = [(f"{golden} {name}", value.get(name), want.get(name))
                     for name in sorted(set(want) | set(value))]
        else:
            pairs = [(golden, value, path.read_text().strip())]
        for name, have, want in pairs:
            same = have is not None and have == want
            print(f"{'ok     ' if same else 'DIFFERS'} {name}")
            if not same:
                differ.append(name)
    return differ


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--random" and argv[1].isdigit():
        for i in range(int(argv[1])):
            try:
                print(random_line(i), flush=True)
            except ValueError as err:
                print(err, file=sys.stderr)
                return 1
        return 0
    if argv not in ([], ["--write"]):
        print("usage: check_goldens.py [--write | --random N]", file=sys.stderr)
        return 2
    got = rebuild()
    if argv:
        write(got)
        return 0
    differ = compare(got)
    print(f"Python {sys.version.split()[0]}: "
          + (f"{len(differ)} golden(s) differ" if differ else "every golden matches"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
