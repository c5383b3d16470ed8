"""Per-packet view of batched sink calls, for tests that pin delivery order.

A Sink takes packets a segment at a time (Sink.receive). A tapped sink also
hands each packet of a segment, in order, to a shadow Sink's on_receive,
which gives the (seq, now, verdict) of that packet, then passes the segment
on to itself. The shadow takes the packets one by one, so a tap also checks
that the batch path counts what a run of one-packet calls counts.
"""

from __future__ import annotations

from contextlib import contextmanager

from vhosim.scenario import Scenario
from vhosim.traffic import FlowStats, Sink


def _state(sink: Sink) -> tuple:
    stats = sink.stats
    return (stats.received, stats.late, stats.delay_sum.hex(), len(stats.received_seqs),
            sink.duplicates, sink._budget, sink._first_spurt_min)


def tap(sink: Sink, out: list):
    """Append (seq, now, verdict) to out for each packet sink takes from now
    on; returns a check that the shadow and the sink agree."""
    shadow = Sink(FlowStats(sink.stats.flow_id), sink.kind, sink.playout_delay)
    assert _state(shadow) == _state(sink), "tap a sink before it takes packets"
    receive = sink.receive

    def batch(seq0, times, lo, hi, a, b, c, spurt=0):
        for k in range(lo, hi):
            now = times[k] + a + b + c
            out.append((seq0 + k, now, shadow.on_receive(seq0 + k, times[k], now, spurt)))
        return receive(seq0, times, lo, hi, a, b, c, spurt)

    def check():
        assert _state(shadow) == _state(sink), sink.stats.flow_id
        assert len(shadow.stats.received_seqs & sink.stats.received_seqs) == \
            len(sink.stats.received_seqs)

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
