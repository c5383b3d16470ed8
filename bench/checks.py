"""Output checks applied to every benchmark run.

For any seed, a run must keep the simulator's own invariants: exactly ten
handovers, exact packet conservation per flow (acceptance criterion 7) and no
connectivity gap under the soft scheme. FlowStats.in_flight is derived as
sent - received - late - lost, so conservation is checked through it and the
seq sets: 0 <= in_flight <= MAX_IN_FLIGHT, the delivered seqs number
received + late, the dropped seqs number lost, and no seq is in both. For the default seed, each run's CSV
row must also match the SHA-256 digest recorded in expected_rows.json.

Run this file to record the digests again after a change that alters output
bytes on purpose (say why in CHANGES.md):

    python3 bench/checks.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads

EXPECTED_FILE = Path(__file__).with_name("expected_rows.json")
EXPECTED_HANDOVERS = 10
MAX_IN_FLIGHT = 5  # packets a run end can cut off mid-path


def row_text(metrics) -> str:
    return ",".join(metrics.to_row())


def digest(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_FILE.read_text())


def check_run(cfg, result, expected: dict[str, str],
              require_digest: bool) -> list[str]:
    """Every way this finished run is wrong; empty when it is right."""
    problems = []
    m = result.metrics
    if m.handover_count != EXPECTED_HANDOVERS:
        problems.append(f"handover_count={m.handover_count}, "
                        f"expected {EXPECTED_HANDOVERS}")
    for flow in result.scenario.flows.values():
        name = flow.flow_id
        if not 0 <= flow.in_flight <= MAX_IN_FLIGHT:
            problems.append(f"{name}: in_flight={flow.in_flight}")
        if flow.received_seqs & flow.dropped_seqs:
            problems.append(f"{name}: packets both delivered and dropped")
        if len(flow.received_seqs) != flow.received + flow.late:
            problems.append(f"{name}: received seqs != received + late")
        if len(flow.dropped_seqs) != flow.lost:
            problems.append(f"{name}: dropped seqs != lost")
    if cfg.scheme == "soft" and m.gaps:
        problems.append(f"soft run with connectivity gaps {m.gaps}")
    want = expected.get(workloads.label(cfg))
    if want is None and require_digest:
        problems.append("no expected row digest recorded")
    elif want is not None and want != digest(row_text(m)):
        problems.append("CSV row differs from the expected digest")
    return problems


def record() -> dict[str, str]:
    """Digests of every workload's rows at the default seed."""
    workloads.import_vhosim()
    from vhosim.harness import run_experiment

    out = {}
    for name in workloads.WORKLOADS:
        for cfg in workloads.build_configs(name, workloads.DEFAULT_SEED):
            out[workloads.label(cfg)] = digest(row_text(run_experiment(cfg).metrics))
    return out


if __name__ == "__main__":
    digests = record()
    EXPECTED_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} row digests in {EXPECTED_FILE}", file=sys.stderr)
