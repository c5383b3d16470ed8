"""Golden of the order in which every sink takes its packets.

CSV rows cannot show a wrong delivery order: the counts stay the same, and so
may the delay sum. This file pins, for each flow of a few runs, the SHA-256
of the packets that flow's sink took, one line per packet in the order taken:
"flow seq repr(now) verdict". A sink takes a segment of packets per call;
tests/sink_tap.py gives each packet its line and checks the sink's counts.
The video runs and the first VoIP run use a foreign link slower than the
packet spacing, so reverse-tunnelled packets reach the correspondent after
native packets sent later. The VoIP runs pin the downlink too, in both
schemes; with the slow foreign link a tunnelled downlink packet is still on
its way when the next ones are sent, and with short talk spurts and
silences the two flows' spurts interleave densely.

The configs and the digest are defined in tests/check_goldens.py, which
checks this golden without pytest too and, with --write, refreshes it after
an intended change of order (say in CHANGES.md why the order changed).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from check_goldens import UPLINK_ORDER_CONFIGS as CONFIGS, order_digests, sink_order

GOLDEN = Path(__file__).parent / "golden" / "uplink_order.json"

# runs whose uplink must be committed out of sending order, or the golden
# would not tell arrival order from sending order
# (the hard scheme has one interface, so one uplink path and no reordering)
REORDERING = ("video-2M-soft-4-fld0.02", "voip-soft-4-fld0.05")


def reorders(lines: list[tuple[int, str]]) -> int:
    """Packets taken after a packet of the same flow with a higher seq."""
    count, top = 0, -1
    for seq, _ in lines:
        if seq < top:
            count += 1
        top = max(top, seq)
    return count


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sinks_take_packets_in_golden_order(name):
    calls = sink_order(CONFIGS[name])
    if name in REORDERING:
        ul = next(flow for flow in calls if flow.endswith("-ul"))
        assert reorders(calls[ul]) > 0, f"{name}: uplink arrived in sending order"
    want = json.loads(GOLDEN.read_text())[name]
    got = order_digests(calls)
    assert got == want, f"{name}: sink order differs from {GOLDEN.name}: {got}"
