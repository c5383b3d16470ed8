"""Per-packet view of batched sink calls, for tests that pin delivery order.

A Sink takes packets a segment at a time (Sink.receive). A tapped sink also
hands each packet of a segment, in order, to a shadow: the one-packet
classification rule written out on its own (classify), with each delay
computed and added to the delay sum packet by packet. That gives the (seq,
now, verdict) of each packet; then the sink takes the segment itself. So a
tap also checks that the batch path counts what the rule counts packet by
packet.
"""

from __future__ import annotations

from contextlib import contextmanager

from vhosim.scenario import Scenario
from vhosim.traffic import Sink


def reference_state() -> dict:
    """The state of a shadow that has taken no packet."""
    return dict(seqs=set(), received=0, late=0, delay_sum=0.0, low=None, budget=None)


def classify(state: dict, playout: float, seq: int, delay: float, spurt: int) -> str:
    """The one-packet classification rule, written out on its own."""
    state["seqs"].add(seq)
    if spurt == 0:
        if state["low"] is None or delay < state["low"]:
            state["low"] = delay
    else:
        if state["budget"] is None:
            state["budget"] = (state["low"] if state["low"] is not None else delay) + playout
        if delay > state["budget"]:
            state["late"] += 1
            return "late"
    state["received"] += 1
    state["delay_sum"] += delay
    return "received"


def _state(sink: Sink) -> tuple:
    stats = sink.stats
    return (stats.received, stats.late, stats.delay_sum.hex(), len(stats.received_seqs),
            sink._budget, sink._first_spurt_min)


def _shadow_state(ref: dict) -> tuple:
    return (ref["received"], ref["late"], ref["delay_sum"].hex(), len(ref["seqs"]),
            ref["budget"], ref["low"])


def tap(sink: Sink, out: list):
    """Append (seq, now, verdict) to out for each packet sink takes from now
    on; returns a check that the shadow and the sink agree."""
    ref = reference_state()
    assert _shadow_state(ref) == _state(sink), "tap a sink before it takes packets"
    receive, playout = sink.receive, sink.playout_delay

    def batch(seq0, times, lo, hi, a, b, c, spurt=0):
        for k in range(lo, hi):
            now = times[k] + a + b + c
            out.append((seq0 + k, now, classify(ref, playout, seq0 + k, now - times[k], spurt)))
        receive(seq0, times, lo, hi, a, b, c, spurt)

    def check():
        assert _shadow_state(ref) == _state(sink), sink.stats.flow_id
        assert all(seq in sink.stats.received_seqs for seq in ref["seqs"])

    sink.receive = batch
    return check


@contextmanager
def tapped_scenarios(calls: dict[str, list], setup=None):
    """While open, every Scenario built taps each of its sinks into
    calls[flow], after setup(scenario) if given; on exit, checks each tap."""
    checks = []
    original = Scenario.__init__

    def build(scn, *args, **kwargs):
        original(scn, *args, **kwargs)
        if setup is not None:
            setup(scn)
        for sinks in (scn.cn.sinks, scn.mn.sinks):
            for flow, sink in sinks.items():
                checks.append(tap(sink, calls.setdefault(flow, [])))

    Scenario.__init__ = build
    try:
        yield
    finally:
        Scenario.__init__ = original
    for check in checks:
        check()
