"""End-to-end runs of the built scenario at the fastest (cheapest) speed."""

import inspect
import math
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vhosim.engine import Simulator
from vhosim.harness import ScenarioConfig, RunResult, run_experiment
from vhosim.ipv6 import Address, Packet, RouterAdvertisement, derive_iid
from vhosim.llc import VhoController
from vhosim.radio import BEACON_BITS, AccessPoint, Frame
from vhosim.scenario import CorrespondentNode, DownlinkRun, Scenario, WirelessInterface
from vhosim.traffic import PacketRun, Sink, Ticker, Ticks


class SpiedRun(NamedTuple):
    result: RunResult
    log: list[str]
    controller_arg_types: set[type]  # of every argument a controller method took


def _spied_run(cfg: ScenarioConfig) -> SpiedRun:
    """Run cfg with every VhoController method wrapped to record the types
    of the arguments it is handed."""
    seen: set[type] = set()

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.update(type(a) for a in (*args[1:], *kwargs.values()))
            return fn(*args, **kwargs)
        return wrapper

    log: list[str] = []
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in list(vars(VhoController).items()):
            if inspect.isfunction(fn):
                mp.setattr(VhoController, name, spy(fn))
        result = run_experiment(cfg, trace_sink=log)
    return SpiedRun(result, log, seen)


@pytest.fixture(scope="module")
def soft_voip_run():
    return _spied_run(ScenarioConfig(scheme="soft", application="voip", speed=10.0))


@pytest.fixture(scope="module")
def hard_video_run():
    return _spied_run(ScenarioConfig(scheme="hard", application="video", speed=10.0))


@pytest.fixture(scope="module")
def soft_voip(soft_voip_run):
    return soft_voip_run.result


@pytest.fixture(scope="module")
def hard_video(hard_video_run):
    return hard_video_run.result


def test_soft_run_has_ten_handovers_and_no_gap(soft_voip):
    llc = soft_voip.scenario.mn.llc
    assert llc.handover_count == 10
    assert llc.gap_intervals == []


@pytest.mark.parametrize("beacon_interval", [0.1, 0.5])
def test_one_missed_beacon_counts_whole_intervals(beacon_interval):
    # with miss_threshold = 1 a network is fresh after one missed beacon:
    # two heard beacons one interval apart never are, however the difference
    # of their arrival times rounds (it once gave 2,158 handovers at 0.1 s)
    cfg = ScenarioConfig(scheme="soft", miss_threshold=1, beacon_interval=beacon_interval)
    llc = run_experiment(cfg).scenario.mn.llc
    assert llc.handover_count == 10
    assert llc.gap_intervals == []


def test_soft_uplink_sees_no_loss(soft_voip):
    flow = soft_voip.scenario.flows["voip-ul"]
    assert flow.sent > 1000
    assert flow.lost == 0 and flow.late == 0


def test_correspondent_sees_home_address_on_every_packet(soft_voip):
    cn = soft_voip.scenario.cn
    assert cn.app_received > 0
    assert cn.app_src_matches == cn.app_received


def test_downlink_voip_flows_end_to_end(soft_voip):
    dl = soft_voip.scenario.flows["voip-dl"]
    assert dl.received > 1000
    # stale-binding windows during handover may cost a few packets, no more
    assert dl.lost <= 0.01 * dl.sent


def test_hard_run_has_ten_handovers_with_gaps(hard_video):
    llc = hard_video.scenario.mn.llc
    assert llc.handover_count == 10
    assert len(llc.gap_intervals) == 10  # one outage per boundary crossing
    assert all(b > a for a, b in llc.gap_intervals)


def test_hard_run_loses_packets_during_gaps(hard_video):
    flow = hard_video.scenario.flows["video-ul"]
    assert flow.lost > 0
    assert hard_video.metrics.loss_rate > 0.0


def test_binding_signaling_happened(soft_voip):
    mip = soft_voip.scenario.mn.mip
    registrations = [b for b in mip.bu_log if b[3] > 0]
    dereg = [b for b in mip.bu_log if b[3] == 0]
    assert len(registrations) >= 5  # one per foreign-ward crossing
    assert len(dereg) >= 5  # one per return home
    acks = [a for a in mip.ba_log if a[2] == "accepted"]
    assert acks


def test_controller_stays_out_of_the_data_plane(soft_voip_run, hard_video_run):
    for run in (soft_voip_run, hard_video_run):
        assert str in run.controller_arg_types  # the spy saw the calls
        assert not run.controller_arg_types & {Packet, PacketRun, Frame}


def test_an_untraced_run_formats_no_address(monkeypatch):
    # trace details are built only while tracing: an untraced VoIP run
    # renders no address, not even for the intercept of each tunnelled packet
    calls = []
    render = Address.__str__
    monkeypatch.setattr(Address, "__str__", lambda a: calls.append(a) or render(a))
    cfg = ScenarioConfig(scheme="soft", application="voip", speed=10.0)
    run_experiment(cfg)
    assert calls == []
    run_experiment(cfg, trace_sink=[])
    assert calls  # the wrapper sees the addresses a traced run renders


@pytest.mark.parametrize("scheme, events", [("hard", 115), ("soft", 92)],
                         ids=["voip-hard-2-seed1", "voip-soft-2-seed1"])
def test_voip_ticks_run_ahead_of_the_heap(scheme, events):
    # both flows tick under one heap entry, and only live events cut their
    # windows and downlink segments: 115 and 92 events for the 44,475 packets,
    # 0.0026 and 0.0021 per packet. The count is deterministic: this cannot flake
    result = run_experiment(ScenarioConfig(scheme=scheme, application="voip", speed=2.0,
                                           seed=1))
    sent = sum(flow.sent for flow in result.scenario.flows.values())
    assert sent == 44475
    assert result.scenario.sim.executed <= events


@pytest.mark.parametrize("scheme", ["hard", "soft"],
                         ids=["voip-hard-2-seed1", "voip-soft-2-seed1"])
def test_windows_and_segments_end_only_at_live_events(scheme):
    # every bound the ticker and the downlink read is the last float before
    # the first live heap entry, or the run_until end: a cancelled timer (a
    # BU retransmit after its BA, a refresh after a handover) cuts nothing.
    # The ticker meets bounds where a dead entry stood first; it drops them,
    # so the downlink, which reads after it, rarely does. Deterministic
    reader: list[str] = []
    reads, dead_first = Counter(), Counter()

    def reading(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            reader.append(f"{owner.__name__}.{name}")
            try:
                return fn(*args, **kwargs)
            finally:
                reader.pop()
        return wrapper

    ahead_limit = Simulator.ahead_limit

    def checked(sim):
        live = min((e[0] for e in sim._heap if e[2] is not None), default=math.inf)
        first = min((e[0] for e in sim._heap), default=math.inf)
        end = sim._end
        limit = ahead_limit(sim)
        if reader:
            assert limit == (math.nextafter(live, -math.inf) if live <= end else end)
            reads[reader[-1]] += 1
            dead_first[reader[-1]] += first < live and first <= end
        return limit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ticker, "run", reading(Ticker, "run"))
        mp.setattr(DownlinkRun, "advance", reading(DownlinkRun, "advance"))
        mp.setattr(Simulator, "ahead_limit", checked)
        run_experiment(ScenarioConfig(scheme=scheme, application="voip", speed=2.0, seed=1))
    assert set(reads) == {"Ticker.run", "DownlinkRun.advance"}
    assert dead_first["Ticker.run"] > 0, (reads, dead_first)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(scheme="hard", application="video", video_rate_bps=2e6, speed=4.0),
    ScenarioConfig(scheme="soft", application="voip", speed=4.0),
], ids=["video-2M-hard-4", "voip-soft-4"])
def test_sinks_take_a_call_per_segment_not_per_packet(cfg):
    # the correspondent hands its sink one call per stretch of a run that no
    # other run's packet interleaves, cut where a commit's bound falls; the
    # downlink one per slice of its stage-heap merge. The counts are
    # deterministic: this cannot flake
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((Sink, "on_receive"), (Sink, "receive"),
                            (CorrespondentNode, "arrive"), (CorrespondentNode, "commit"),
                            (DownlinkRun, "_receive")):
            mp.setattr(owner, name, counted(getattr(owner, name)))
        result = run_experiment(cfg)
    taken = sum(flow.received + flow.late for flow in result.scenario.flows.values())
    assert calls["on_receive"] == 0
    assert 0 < calls["receive"] <= calls["arrive"] + calls["commit"] + calls["_receive"]
    assert calls["receive"] * 10 <= taken, (calls, taken)


def test_each_released_interface_is_cleaned_up_once(soft_voip_run):
    # the old interface is released once per handover, when the candidate
    # is promoted; the promotion itself cleans up nothing more
    cleanups = [line for line in soft_voip_run.log if " ipv6 route_cleanup " in line]
    assert soft_voip_run.result.scenario.mn.llc.handover_count == 10
    assert len(cleanups) == 10


def test_the_topology_is_built_with_the_facts_the_config_fixes():
    # the home address is configured, as the CN knows it; each AP holds the
    # RA of its router, and its uplink ends at the HA past its wired delay
    cfg = ScenarioConfig(scheme="soft", foreign_link_delay=0.02)
    scn = Scenario(cfg)
    host = scn.mn.host
    assert host.home_address == scn.cn.hoa == Address(cfg.home_prefix, derive_iid("mn", 0))
    assert host.ha_address is None and scn.sim.now == 0.0
    ha_addr = Address(cfg.home_prefix, derive_iid("ha", 0))
    assert scn.ha.address == ha_addr
    assert scn.ap_home.ra == RouterAdvertisement(cfg.home_prefix, ha_addr, is_home_agent=True)
    assert scn.ap_foreign.ra == RouterAdvertisement(
        cfg.foreign_prefix, Address(cfg.foreign_prefix, derive_iid("fr", 0)))
    assert (scn.ap_home.ha, scn.ap_home.ha_delay) == (scn.ha, 0.0)
    assert (scn.ap_foreign.ha, scn.ap_foreign.ha_delay) == (scn.ha, 0.02)
    assert scn.medium.beacons.aps == [scn.ap_home, scn.ap_foreign]


def test_ra_landing_after_disassociation_is_ignored_at_the_interface(monkeypatch):
    scn = Scenario(ScenarioConfig(scheme="hard", application="video", speed=10.0))
    scn.sim.run_until(0.5)
    mn = scn.mn
    iface = mn.ifaces["mn.wlan0"]
    assert iface.ap is scn.ap_home
    ras = []
    monkeypatch.setattr(mn.host, "on_router_advertisement", lambda *a: ras.append(a))
    frame = Frame("data", BEACON_BITS, payload=scn.ap_home.ra)
    iface.on_frame(frame)
    assert len(ras) == 1
    mn.llc.command_disassociate(iface.iface_id)
    assert iface.ap is None and mn.host.routes.entries == []
    iface.on_frame(frame)  # sent before the disassociation, landing after it
    assert len(ras) == 1


@st.composite
def short_runs(draw) -> ScenarioConfig:
    """A random short hard or soft run of either application. The node
    leaves home after about 100 m of travel and is back after about 300 m,
    so half the runs see a deregistration and a handover back home."""
    speed = draw(st.floats(1.0, 10.0))
    travel = draw(st.one_of(st.floats(55.0, 300.0), st.floats(300.0, 450.0)))  # m
    return ScenarioConfig(scheme=draw(st.sampled_from(["hard", "soft"])),
                          application=draw(st.sampled_from(["video", "voip"])),
                          video_rate_bps=draw(st.sampled_from([0.5e6, 2e6])),
                          speed=speed, seed=draw(st.integers(1, 10_000)),
                          sim_time=travel / speed,
                          foreign_link_delay=draw(st.floats(0.0, 0.1)),
                          expected_handovers=None)


@settings(max_examples=20, deadline=None)
@given(short_runs())
def test_packet_conservation_on_random_short_runs(cfg):
    # a foreign link slower than the packet spacing keeps several downlink
    # packets of a run on their way at once, and interleaves their stages
    spacing = (cfg.voip_packetization if cfg.application == "voip"
               else cfg.video_packet_bits / cfg.video_rate_bps)
    for flow in run_experiment(cfg).scenario.flows.values():
        assert flow.sent == flow.received + flow.late + flow.lost + flow.in_flight
        # in flight: what the run end cut off mid-path, so one packet more
        # per packet spacing of the foreign link
        assert 0 <= flow.in_flight <= 5 + cfg.foreign_link_delay / spacing, flow.in_flight
        assert not (flow.received_seqs & flow.dropped_seqs)
        assert len(flow.received_seqs) == flow.received + flow.late
        assert len(flow.dropped_seqs) == flow.lost
        # with the lengths above, this holds only if every seq the sets keep
        # was sent, and the seqs neither set keeps are the in-flight ones
        settled = sum(1 for seq in range(flow.sent)
                      if seq in flow.received_seqs or seq in flow.dropped_seqs)
        assert settled == flow.sent - flow.in_flight


@settings(max_examples=20, deadline=None)
@given(short_runs())
@example(ScenarioConfig(scheme="hard", application="voip", speed=10.0, sim_time=60.0,
                        foreign_link_delay=0.05, expected_handovers=None))
@example(ScenarioConfig(scheme="soft", application="voip", speed=10.0, sim_time=60.0,
                        foreign_link_delay=0.05, expected_handovers=None))
def test_a_binding_ack_for_the_home_network_finds_no_binding(cfg):
    # HomeAgentNode.forward never tunnels a binding ack: one to a CoA goes
    # where its BU came from, and one to the home address answers the
    # deregistration that deleted the binding. Half the short runs return
    # home; each example does, once
    scn = Scenario(cfg)
    forward = scn.ha.forward

    def check(pkt):
        if pkt.dst.prefix != cfg.foreign_prefix:
            assert pkt.dst not in scn.ha.cache.entries, (scn.sim.now, pkt.payload)
        forward(pkt)

    scn.ha.forward = check
    scn.run()


@settings(max_examples=20, deadline=None)
@given(short_runs())
def test_an_ap_holds_only_a_station_tuned_to_it(cfg):
    # checked on entry to and exit from each act of an AP: an association
    # request, a binding-ack delivery, and a downlink run, whose stages at an
    # AP read state that changes only in events
    scn = Scenario(cfg)
    aps = (scn.ap_home, scn.ap_foreign)
    acts = []

    def check(what):
        for ap in aps:
            station = ap.station
            if station is not None:  # the ledger's current record for it
                listened = scn.medium.beacons._listening[station.iface_id][1][-1]
                assert listened is ap, (what, scn.sim.now, ap.cfg.ap_id, station.iface_id,
                                        listened and listened.cfg.ap_id)

    def act(fn):
        def wrapper(*args, **kwargs):
            acts.append(fn.__name__)
            check(fn.__name__)
            fn(*args, **kwargs)
            check(fn.__name__)
        return wrapper

    def disassociate(iface):
        WirelessInterface.disassociate(iface)
        assert all(ap.station is not iface for ap in aps), (scn.sim.now, iface.iface_id)

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((AccessPoint, "on_frame"), (AccessPoint, "deliver_packet"),
                            (DownlinkRun, "advance")):
            mp.setattr(owner, name, act(getattr(owner, name)))
        for iface in scn.mn.ifaces.values():
            mp.setattr(iface, "disassociate", disassociate.__get__(iface))
        scn.run()
    assert "on_frame" in acts


@settings(max_examples=20, deadline=None)
@given(short_runs())
def test_an_ra_delivered_again_changes_nothing_while_the_station_stays(cfg):
    # an AP sends its RA on association only. An unsolicited RA (RFC 4861
    # 6.2.4) after that one, at any event while the station stays, re-adds
    # the routes and prefix the interface holds, then finds its address
    # configured, or reports the global home address for an interface that
    # is no candidate
    scn = Scenario(cfg)
    sim, host, llc = scn.sim, scn.mn.host, scn.mn.llc
    took = {}  # interface id -> the AP whose RA it took since it joined there
    redelivered = []

    def state():
        return ([(e.prefix, repr(e.next_hop), e.out_iface) for e in host.routes.entries],
                dict(host.addresses), set(host.validated),
                repr(host.home_address), repr(host.ha_address), dict(host._dad_handles),
                llc.serving, llc.candidate)

    def again():
        for ap in (scn.ap_home, scn.ap_foreign):
            iface = ap.station
            if iface is not None and took.get(iface.iface_id) is ap:
                before = state()
                take_ra(iface.iface_id, ap.ra)
                assert state() == before, (sim.now, iface.iface_id)
                redelivered.append(iface.iface_id)

    take_ra, schedule_at = host.on_router_advertisement, sim.schedule_at

    def on_ra(iface_id, ra):
        take_ra(iface_id, ra)
        took[iface_id] = scn.mn.ifaces[iface_id].ap

    def schedule(fire_at, callback, *args, last=False):
        def event(*args):
            callback(*args)
            again()
        return schedule_at(fire_at, event, *args, last=last)

    for ap in (scn.ap_home, scn.ap_foreign):
        ap.leave = lambda iface, leave=ap.leave: (took.pop(iface.iface_id, None),
                                                  leave(iface))
    host.on_router_advertisement = on_ra
    sim.schedule_at = schedule
    scn.run()
    assert redelivered


@pytest.mark.parametrize("scheme", ["hard", "soft"])
def test_uplink_drops_at_its_ticks_until_the_home_address_is_valid(scheme):
    # the home address is tentative until its DAD ends at 1.000896 s, so
    # MobileNode.send_run drops the 26 video packets sent from 0.50 to
    # 1.00 s at their ticks, before they reach the radio
    log: list[str] = []
    result = run_experiment(ScenarioConfig(scheme=scheme, application="video", speed=10.0,
                                           traffic_start=0.5), trace_sink=log)
    drops = [(float(line.split()[0]), int(line.rsplit("=", 1)[1]))
             for line in log if " traffic drop flow=video-ul " in line]
    assert drops[:26] == [(pytest.approx(0.5 + 0.02 * k, abs=1e-9), k) for k in range(26)]
    dad_done = next(float(line.split()[0]) for line in log if " ipv6 dad_done " in line)
    assert 1.0 < dad_done < (drops[26][0] if len(drops) > 26 else math.inf)
    flow = result.scenario.flows["video-ul"]
    assert all(seq in flow.dropped_seqs for seq in range(26))
    assert flow.lost == len(drops) == len(flow.dropped_seqs)
    assert flow.sent == flow.received + flow.late + flow.lost


def test_a_run_dropped_twice_raises():
    # a packet meets one fate: a second drop of any packet of a run is a
    # fault, and leaves the flow's loss count and dropped set as they were
    scn = Scenario(ScenarioConfig(scheme="hard", application="video"))
    flow = scn.flows["video-ul"]
    scn._on_drop(PacketRun("video-ul", 10, Ticks(0.02, [(1.0, 0, 5)]), 10000))  # seqs 10..14
    with pytest.raises(ValueError, match="seq 10 "):
        scn._on_drop(PacketRun("video-ul", 10, Ticks(0.02, [(1.0, 0, 5)]), 10000))
    with pytest.raises(ValueError, match="seq 10 "):  # seqs 7..10: only the last repeats
        scn._on_drop(PacketRun("video-ul", 7, Ticks(0.02, [(0.94, 0, 4)]), 10000))
    assert flow.lost == len(flow.dropped_seqs) == 5
    assert [seq for seq in range(30) if seq in flow.dropped_seqs] == list(range(10, 15))


def test_uplink_drops_while_the_home_address_is_tentative_under_a_foreign_coa():
    # with the APs swapped the node starts in foreign-only coverage: its
    # foreign radio serves from 1.000896 s, before it hears a home RA at
    # 2.100896 s. The home address is tentative until its DAD ends 1 s
    # later, so MobileNode.send_run drops every packet up to then, although
    # a care-of address could reverse-tunnel them
    log: list[str] = []
    result = run_experiment(ScenarioConfig(scheme="soft", application="video", speed=10.0,
                                           ap_home_x=200.0, ap_foreign_x=0.0,
                                           traffic_start=0.5, sim_time=40.0,
                                           expected_handovers=None), trace_sink=log)

    def at(kind: str, iface: str) -> float:
        return next(float(line.split()[0]) for line in log
                    if f" {kind} iface={iface}" in line)

    serving, home_ra, hoa_valid = (at("promote", "mn.wlan1"), at("dad_start", "mn.wlan0"),
                                   at("dad_done", "mn.wlan0"))
    assert serving < home_ra < hoa_valid == at("promote", "mn.wlan0")
    drops = [(float(line.split()[0]), int(line.rsplit("=", 1)[1]))
             for line in log if " traffic drop flow=video-ul " in line]
    ticks = [0.5 + 0.02 * k for k in range(200)]
    dropped = sum(1 for t in ticks if t < hoa_valid)
    assert drops == [(pytest.approx(t, abs=1e-9), k) for k, t in enumerate(ticks[:dropped])]
    assert any(home_ra < t for t, _ in drops)  # the tentative address decides these
    flow = result.scenario.flows["video-ul"]
    assert flow.lost == len(drops) == len(flow.dropped_seqs)
    assert flow.sent == flow.received + flow.late + flow.lost
    assert result.scenario.cn.app_src_matches == result.scenario.cn.app_received == flow.received


def test_a_home_address_whose_first_dad_is_cut_short_is_validated_on_a_later_visit():
    # at 40 m/s the single radio leaves the home AP 0.85 s into the home
    # address's first DAD. The next home visit validates the home address
    # itself, so the uplink flows, and no later visit runs DAD on it again
    log: list[str] = []
    result = run_experiment(ScenarioConfig(scheme="hard", application="video", speed=40.0,
                                           ap_home_x=-150.0, ap_home_y=0.0,
                                           expected_handovers=None), trace_sink=log)
    hoa = f"addr={result.scenario.mn.host.home_address}"
    dad = [line.split()[3] for line in log if " ipv6 dad_" in line and line.endswith(hoa)]
    assert dad[:3] == ["dad_start", "dad_start", "dad_done"]  # the first was cut short
    assert dad.count("dad_start") == 2 and dad.count("dad_done") == 1
    flow = result.scenario.flows["video-ul"]
    assert flow.received > 0 and result.metrics.loss_rate < 1
