"""A downlink run met by a control change while its packets are on their way.

Each case sends one run of ten VoIP ticks, 50.00 to 50.18 s, to a hard-scheme
MN that is registered at the foreign network (binding accepted at 44.35 s, in
range of the foreign AP until 93.95 s), over a 50 ms foreign link; no source
runs. A change mid-run cuts the run: a binding update processed at the HA, a
disassociation, or the expiry of the binding's lifetime.

One case sends the run to a soft-scheme MN instead, whose foreign radio
serves while its home radio is idle, and cuts it both ways: tunnelled
packets drop at the foreign AP while later native ones drop at the home AP,
so the two paths' stages cross in time.

Every case runs twice. Inline, the run is one emit at its last tick, as a
source sends it, and DownlinkRun.advance runs what stages it may inline. In
the event world, each tick is emitted from its own event and the ahead limit
is held at -inf, so that every stage runs from an event of its own at its own
time. Both must give the same sink calls, drop lines, event log and counts.
The last test draws whole VoIP runs, both flows under one source ticker, and
compares them with the event world in the same way.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sink_tap import tap, tapped_scenarios

from vhosim.harness import ScenarioConfig, run_experiment
from vhosim.ipv6 import IPV6_HEADER_BITS, Address, Packet
from vhosim.mipv6 import BU_BITS, BindingUpdate
from vhosim.radio import MAC_OVERHEAD_BITS
from vhosim.scenario import Scenario, downlink_stages
from vhosim.traffic import PacketRun, Ticks

TICKS = Ticks(0.02, [(50.0, 0, 10)])  # 50.0 + k * 0.02
BITS = 1280  # 64 kb/s for 20 ms


def _send(change, event_world: bool, scheme: str = "hard", **overrides):
    """(sink calls, drop lines, whole log, scenario) of one run of TICKS;
    change(scenario) runs at 49 s and may schedule the control change."""
    log: list[str] = []
    scn = Scenario(ScenarioConfig(scheme=scheme, application="voip", speed=4.0,
                                  foreign_link_delay=0.05, **overrides), trace_sink=log)
    sim = scn.sim
    if event_world:
        sim.ahead_limit = lambda: -math.inf
    sim.run_until(49.0)
    assert scn.ha.cache.lookup(scn.cn.hoa, sim.now) is not None
    change(scn)
    calls = []
    check = tap(scn.mn.sinks["voip-dl"], calls)
    run = PacketRun("voip-dl", 0, TICKS, BITS)
    scn.flows["voip-dl"].sent += len(TICKS)
    for lo, hi in ([(k, k + 1) for k in range(len(TICKS))] if event_world
                   else [(0, len(TICKS))]):
        sim.schedule_at(TICKS[hi - 1], scn.cn.send_run, run.part(lo, hi), scn.cn.hoa)
    sim.run_until(51.0)
    check()
    drops = [(float(line.split()[0]), int(line.rsplit("=", 1)[1]))
             for line in log if " traffic drop flow=voip-dl " in line]
    return calls, drops, log, scn


def _both(change, scheme: str = "hard", **overrides):
    """The inline run, checked against the event world."""
    calls, drops, log, scn = _send(change, False, scheme, **overrides)
    calls_ev, drops_ev, log_ev, scn_ev = _send(change, True, scheme, **overrides)
    assert calls == calls_ev
    assert log == log_ev
    stats, stats_ev = scn.flows["voip-dl"], scn_ev.flows["voip-dl"]
    assert (stats.received, stats.late, stats.lost) == (stats_ev.received, stats_ev.late,
                                                        stats_ev.lost)
    assert stats.sent == stats.received + stats.late + stats.lost
    # the inline run needs fewer events than one per stage and tick
    assert scn.sim.executed < scn_ev.sim.executed
    return [seq for seq, _, _ in calls], drops, scn


def _at_ha(k: int, cn_delay: float = 0.002) -> float:
    return TICKS[k] + cn_delay


def _at_foreign_ap(k: int) -> float:
    return _at_ha(k) + 0.05


def test_binding_update_processed_mid_run_sends_later_packets_home():
    # the packets reach the HA 100 ms after their ticks, 50.10 to 50.28 s; a
    # deregistration processed at 50.19 s leaves the HA no binding, so the
    # packets after it go native to the home AP, which the MN has left
    def deregister(scn):
        ha = scn.ha
        coa = ha.cache.lookup(scn.cn.hoa, scn.sim.now)
        bu = BindingUpdate(scn.cn.hoa, coa, seq=100, lifetime=0.0)
        scn.sim.schedule_at(50.19, scn.ha.handle, Packet(
            coa, ha.address, BU_BITS + IPV6_HEADER_BITS, payload=bu))

    received, drops, scn = _both(deregister, cn_link_delay=0.1)
    assert received == [0, 1, 2, 3, 4]
    assert drops == [(pytest.approx(_at_ha(k, 0.1), abs=1e-9), k) for k in range(5, 10)]
    assert scn.cn.hoa not in scn.ha.cache.entries


def test_disassociation_mid_run_drops_the_packets_still_on_their_way():
    # at 50.1925 s packet 7 has reached the foreign AP (50.192 s) but not the
    # MN (50.1931 s), and drops there; packets 8 and 9 reach the AP after the
    # station left it, at the instant its interface disassociated, and drop
    # at the AP
    def disassociate(scn):
        scn.sim.schedule_at(50.1925, scn.mn.llc.command_disassociate, "mn.wlan0")

    received, drops, _ = _both(disassociate)
    assert received == [0, 1, 2, 3, 4, 5, 6]
    air = (BITS + 2 * IPV6_HEADER_BITS + MAC_OVERHEAD_BITS) / 2e6
    assert drops == [(pytest.approx(_at_foreign_ap(7) + air, abs=1e-9), 7),
                     (pytest.approx(_at_foreign_ap(8), abs=1e-9), 8),
                     (pytest.approx(_at_foreign_ap(9), abs=1e-9), 9)]


def test_binding_expiring_mid_run_is_read_at_each_packets_time():
    # the packets reach the HA at 50.002 to 50.182 s, all of them before the
    # clock reaches the emit at 50.18 s; the binding lapses at 50.09 s, so
    # packet 5 (50.102 s) finds it expired and deletes it
    def shorten(scn):
        entry = scn.ha.cache.entries[scn.cn.hoa]
        entry.lifetime = 50.09 - entry.created_at

    received, drops, scn = _both(shorten)
    assert received == [0, 1, 2, 3, 4]
    assert drops == [(pytest.approx(_at_ha(k), abs=1e-9), k) for k in range(5, 10)]
    assert scn.cn.hoa not in scn.ha.cache.entries


def test_binding_holds_at_the_instant_its_lifetime_ends():
    # packet 4 reaches the HA at t with t - created_at == lifetime as floats;
    # a binding lapses only past its lifetime, so packet 4 still tunnels and
    # packet 5 goes native, to the home AP that the MN has left
    def expire_at_packet_4(scn):
        entry = scn.ha.cache.entries[scn.cn.hoa]
        entry.lifetime = _at_ha(4) - entry.created_at
        assert _at_ha(4) - entry.created_at == entry.lifetime
        assert _at_ha(5) - entry.created_at > entry.lifetime

    received, drops, scn = _both(expire_at_packet_4)
    assert received == [0, 1, 2, 3, 4]
    assert drops == [(pytest.approx(_at_ha(k), abs=1e-9), k) for k in range(5, 10)]
    assert scn.cn.hoa not in scn.ha.cache.entries


def test_tunnels_to_a_coa_the_mn_does_not_hold_drop_at_its_interface():
    # the packets reach the HA at 50.10 to 50.28 s; a binding update
    # processed at 50.19 s binds the home address to a CoA the MN does not
    # hold. Packets 0 to 4 tunnel to the MN's own CoA; packets 5 to 9 tunnel
    # to the stale one, cross the foreign AP to the MN's interface and drop
    # there
    def rebind_elsewhere(scn):
        ha = scn.ha
        coa = ha.cache.lookup(scn.cn.hoa, scn.sim.now)
        stale = Address(coa.prefix, coa.iid + 1)
        bu = BindingUpdate(scn.cn.hoa, stale, seq=100, lifetime=420.0)
        scn.sim.schedule_at(50.19, ha.handle, Packet(
            stale, ha.address, BU_BITS + IPV6_HEADER_BITS, payload=bu))

    received, drops, scn = _both(rebind_elsewhere, cn_link_delay=0.1)
    assert received == [0, 1, 2, 3, 4]
    air = (BITS + 2 * IPV6_HEADER_BITS + MAC_OVERHEAD_BITS) / 2e6
    assert drops == [(pytest.approx(_at_ha(k, 0.1) + 0.05 + air, abs=1e-9), k)
                     for k in range(5, 10)]
    assert scn.ha.cache.entries[scn.cn.hoa].coa != scn.mn.mip.current_coa()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(0.0, 1e5), st.builds(lambda k, dt: 5.0 + k * dt,
                                                 st.integers(0, 10**6), st.floats(1e-3, 0.1))),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 10**6), st.floats(1e3, 1e9))
@example(50.02, 0.002, 0.001, BITS, 2e6)
def test_stage_clocks_keep_the_grouping_of_the_stage_events(tick, delay, foreign_delay,
                                                            bits, bitrate):
    # each clock of the flow is the sum the stage events made, in their order
    air = (bits + MAC_OVERHEAD_BITS + IPV6_HEADER_BITS) / bitrate
    air_tunnelled = (bits + MAC_OVERHEAD_BITS + 2 * IPV6_HEADER_BITS) / bitrate
    want = [  # stage, its hops, the hops of the stage before
        (0, (delay, 0.0, 0.0), (0.0, 0.0, 0.0)),
        (1, (delay, foreign_delay, 0.0), (delay, 0.0, 0.0)),
        (2, (delay, 0.0, air), (delay, 0.0, 0.0)),
        (2, (delay, foreign_delay, air_tunnelled), (delay, foreign_delay, 0.0)),
    ]
    stages = downlink_stages(delay, foreign_delay, bits, bitrate)
    assert len(stages) == len(want)
    for (stage, at, before, hops), (n, (d, fd, a), (bd, bfd, ba)) in zip(stages, want):
        assert (stage, hops) == (n, (d, fd, a))
        assert at(tick) == ((tick + d) + fd) + a
        assert before(tick) == ((tick + bd) + bfd) + ba


def test_tunnelled_and_native_stages_cross_in_time():
    # soft scheme: wlan1 serves at the foreign AP and the home radio is
    # idle. The packets reach the HA at 50.10 to 50.28 s and the foreign AP
    # 50 ms (2.5 tick spacings) later. wlan1 leaves the foreign AP at
    # 50.195 s, so tunnelled packets from 3 on drop there; a deregistration
    # processed at 50.225 s sends packets 7 to 9 native, to the home AP,
    # which has no station, so they drop at their HA times. The drops of the
    # two paths, and the intercept lines, interleave in time
    def deregister_and_leave(scn):
        ha = scn.ha
        coa = ha.cache.lookup(scn.cn.hoa, scn.sim.now)
        bu = BindingUpdate(scn.cn.hoa, coa, seq=100, lifetime=0.0)
        scn.sim.schedule_at(50.225, scn.ha.handle, Packet(
            coa, ha.address, BU_BITS + IPV6_HEADER_BITS, payload=bu))
        scn.sim.schedule_at(50.195, scn.mn.llc.command_disassociate, "mn.wlan1")

    received, drops, scn = _both(deregister_and_leave, "soft", cn_link_delay=0.1)
    assert received == [0, 1, 2]
    tunnelled = [(pytest.approx(_at_ha(k, 0.1) + 0.05, abs=1e-9), k) for k in range(3, 7)]
    native = [(pytest.approx(_at_ha(k, 0.1), abs=1e-9), k) for k in range(7, 10)]
    assert drops == [tunnelled[0], tunnelled[1], native[0], tunnelled[2], native[1],
                     tunnelled[3], native[2]]
    _, _, log, _ = _send(deregister_and_leave, False, "soft", cn_link_delay=0.1)
    lines = ["intercept" if " intercept " in line else f"drop{line.rsplit('=', 1)[1]}"
             for line in log if " intercept " in line or " traffic drop flow=voip-dl " in line]
    assert lines == ["intercept"] * 6 + ["drop3", "intercept", "drop4", "drop7", "drop5",
                                         "drop8", "drop6", "drop9"]
    assert scn.cn.hoa not in scn.ha.cache.entries


def _sink_calls(cfg: ScenarioConfig, event_world: bool) -> tuple[dict, list[str], list, dict]:
    """(flow -> its sink calls in order, event log, CSV row, flow -> its
    dropped seqs) of one run."""
    calls: dict[str, list] = {}
    log: list[str] = []

    def setup(scn):
        if event_world:
            scn.sim.ahead_limit = lambda: -math.inf

    with tapped_scenarios(calls, setup):
        result = run_experiment(cfg, trace_sink=log)
    dropped = {}
    for flow, stats in result.scenario.flows.items():
        dropped[flow] = [seq for seq in range(stats.sent) if seq in stats.dropped_seqs]
        assert len(dropped[flow]) == len(stats.dropped_seqs) == stats.lost
        assert not any(seq in stats.received_seqs for seq in dropped[flow])
    return calls, log, result.metrics.to_row(), dropped


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(["hard", "soft"]),
       seed=st.integers(1, 10_000),
       cn_link_delay=st.one_of(st.sampled_from([0.0, 0.002, 0.02, 0.1]),
                               st.floats(0.0, 1.0)),
       foreign_link_delay=st.one_of(st.sampled_from([0.0, 0.02, 0.05]),
                                    st.floats(0.0, 1.0)),
       spurt_mean=st.floats(0.05, 2.0),
       silence_mean=st.floats(0.05, 2.0))
@example(scheme="hard", seed=3408, cn_link_delay=0.02, foreign_link_delay=0.02,
         spurt_mean=1.0, silence_mean=1.35)
# an event that ran the packet it was queued for, not the first pending one
# in stage-place order, logged an intercept at 37.765841611 before the drop
# of voip-dl seq 409 there, which the event world logs first
@example(scheme="hard", seed=697, cn_link_delay=0.5, foreign_link_delay=1.0,
         spurt_mean=1.125, silence_mean=1.5625)
def test_voip_runs_keep_the_order_of_the_event_world(scheme, seed, cn_link_delay,
                                                     foreign_link_delay, spurt_mean,
                                                     silence_mean):
    # 10 m/s for 45 s: two or three handovers. Link delays that are multiples
    # of the 20 ms packet spacing make stages of different packets fall at
    # one instant, where the order of their events decides the log; short
    # spurts and silences interleave the two flows' spurt starts and ticks
    cfg = ScenarioConfig(scheme=scheme, application="voip", speed=10.0, seed=seed,
                         sim_time=45.0, cn_link_delay=cn_link_delay,
                         foreign_link_delay=foreign_link_delay,
                         voip_spurt_mean=spurt_mean, voip_silence_mean=silence_mean,
                         expected_handovers=None)
    assert _sink_calls(cfg, False) == _sink_calls(cfg, True)
