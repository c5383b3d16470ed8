"""Golden of the order in which every sink takes its packets.

CSV rows cannot show a wrong delivery order: the counts stay the same, and so
may the delay sum. This file pins, for each flow of a few runs, the SHA-256
of the packets that flow's sink took, one line per packet in the order taken:
"flow seq repr(now) verdict". A sink takes a segment of packets per call;
tests/sink_tap.py gives each packet its line and checks the sink's counts.
The video runs and the first VoIP run use a foreign link slower than the
packet spacing, so reverse-tunnelled packets reach the correspondent after
native packets sent later. In one video run the foreign link is one packet
spacing less the tunnel header's airtime, so a tunnelled packet reaches the
HA at the very time of a native one sent a tick later. The VoIP runs pin the downlink too, in both
schemes; with the slow foreign link a tunnelled downlink packet is still on
its way when the next ones are sent, and with short talk spurts and
silences the two flows' spurts interleave densely.

The configs and the digest are defined in tests/check_goldens.py, which
checks this golden without pytest too and, with --write, refreshes it after
an intended change of order (say in CHANGES.md why the order changed).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from check_goldens import UPLINK_ORDER_CONFIGS as CONFIGS, order_digests, sink_order
from sink_tap import tapped_scenarios

from vhosim.harness import ScenarioConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "uplink_order.json"

# runs whose uplink must be committed out of sending order, or the golden
# would not tell arrival order from sending order
# (the hard scheme has one interface, so one uplink path and no reordering)
REORDERING = ("video-2M-soft-4-fld0.02", "voip-soft-4-fld0.05")

# runs whose tunnelled and native packets reach the HA at exactly one time:
# the foreign link is one or two 5 ms ticks less the tunnel header's airtime,
# or eight, for VoIP; in the last two, a tie cuts a run's commit short
TIES = {"fld0.00484": CONFIGS["video-2M-soft-4-fld0.00484"],
        "fld0.00984": replace(CONFIGS["video-2M-soft-4-fld0.00484"], foreign_link_delay=0.00984),
        "voip-fld0.03984": ScenarioConfig(scheme="soft", application="voip", speed=4.0,
                                          foreign_link_delay=0.03984)}


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


@pytest.mark.parametrize("name", sorted(TIES))
def test_the_cn_takes_packets_in_ha_arrival_order_through_exact_ties(name):
    # each packet's place at the HA, computed from the runs and hops the CN
    # queued: HA time, then sending order, as handle events there would run
    queued = []  # (run, hop, sending order of its first packet)

    def spy(scn):
        cn, arrive = scn.cn, scn.cn.arrive

        def spied(src, run, hop):
            queued.append((run, hop, cn._order))
            arrive(src, run, hop)
        cn.arrive = spied

    calls: dict[str, list] = {}
    cfg = TIES[name]
    with tapped_scenarios(calls, spy):
        run_experiment(cfg)
    # the run hands the sink what reaches the HA by its end
    places = sorted((x + hop, order + k, run.seq0 + k)
                    for run, hop, order in queued for k, x in enumerate(run.times)
                    if x + hop <= cfg.sim_time_resolved)
    ha = [t for t, _, _ in places]
    assert sum(a == b for a, b in zip(ha, ha[1:])) > 0, "no two packets tie at the HA"
    link = cfg.cn_link_delay
    ul = next(flow for flow in calls if flow.endswith("-ul"))
    assert [(seq, now) for seq, now, _ in calls[ul]] == \
        [(seq, t + link + 0.0) for t, _, seq in places]
