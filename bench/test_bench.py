"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from tracer import Tracer, per_layer_metrics

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def churn():
    workloads.import_vhosim()
    return workloads.build_configs("handover-churn", workloads.DEFAULT_SEED)


def traced_pass(cfgs):
    tr = Tracer()
    p = run.run_pass(cfgs, checks.load_expected(), True, tr)
    return p, per_layer_metrics(tr, p.events, p.app_pkts, p.handovers)


def test_metric_names_are_well_formed(churn):
    _, emitted = traced_pass(churn)
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared + list(emitted))
    assert len(set(declared)) == len(declared)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(emitted) | {"trace_overhead"} == per_layer


def test_tracing_does_not_perturb_rows(churn):
    plain = run.run_pass(churn, checks.load_expected(), True)
    traced, _ = traced_pass(churn)
    assert plain.failed == traced.failed == 0
    assert plain.rows == traced.rows


def test_deterministic_counts_repeat(churn):
    first, a = traced_pass(churn)
    second, b = traced_pass(churn)
    assert first.events / first.app_pkts == second.events / second.app_pkts
    counts = [n for n, (_, unit) in a.items()
              if unit == "count" and (n.endswith(".calls") or n.startswith("engine.events"))]
    assert len(counts) > 20
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    # every executed event was attributed to a named handler
    assert a["engine.events.other"][0] == 0
    assert a["engine.events"][0] == first.events


def test_corrupted_digest_counts_as_failure(churn, monkeypatch, capsys):
    expected = checks.load_expected()
    victim = workloads.label(churn[2])
    expected[victim] = "0" * 64
    assert run.run_pass(churn, expected, True).failed == 1

    monkeypatch.setattr(checks, "load_expected", lambda: expected)
    code = run.main(["--workload", "handover-churn", "--seconds", "0.5"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1
    assert out["metrics"] == {}  # no speed is reported from a failed run


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "handover-churn", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
