import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhosim.engine import Simulator
from vhosim.ipv6 import Packet
from vhosim.mobility import TractorPath
from vhosim.radio import (
    AccessPoint,
    ApConfig,
    Frame,
    Medium,
    fspl_db,
    rx_power_dbm,
)
from vhosim.traffic import PacketRun

# Frozen expected received powers, computed from the closed-form free-space
# path loss 20*log10(d) + 20*log10(f) + 20*log10(4*pi/c).
RX_CASES = [
    # (tx_dbm, distance_m, freq_hz, expected_dbm)
    (20.0, 100.0, 2.4e9, -60.05200805611548),
    (20.0, 1.0, 2.4e9, -20.052008056115483),
    (0.0, 176.72, 2.4e9, -84.99772211338305),
    (20.0, 10000.0, 2.4e9, -100.05200805611548),
    (14.0, 50.0, 5.8e9, -67.69574317986246),
]


@pytest.mark.parametrize("tx,d,f,want", RX_CASES)
def test_received_power_reference_points(tx, d, f, want):
    assert abs(rx_power_dbm(tx, d, f) - want) < 0.1


def test_near_field_clamps_to_reference_distance():
    assert rx_power_dbm(0.0, 0.01, 2.4e9) == rx_power_dbm(0.0, 1.0, 2.4e9)


def test_path_loss_monotone_in_distance_and_frequency():
    losses = [fspl_db(d, 2.4e9) for d in (1, 3, 10, 30, 100, 300)]
    assert losses == sorted(losses)
    assert fspl_db(100.0, 5.8e9) > fspl_db(100.0, 2.4e9)


def test_path_loss_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        fspl_db(0.0, 2.4e9)
    with pytest.raises(ValueError):
        fspl_db(10.0, -1.0)


def test_doubling_distance_adds_six_db():
    delta = fspl_db(200.0, 2.4e9) - fspl_db(100.0, 2.4e9)
    assert abs(delta - 20.0 * math.log10(2.0)) < 1e-9


class StubIface:
    def __init__(self, iface_id, pos, channel, allowed_ap=None):
        self.iface_id = iface_id
        self.pos = pos
        self.channel = channel
        self.allowed_ap = allowed_ap
        self.frames = []

    def listens(self, channel):
        return channel == self.channel

    def position(self, t):
        return self.pos

    def on_frame(self, frame):
        self.frames.append(frame)


def _medium(sim, drops=None):
    hook = drops.append if drops is not None else None
    return Medium(sim, drop_hook=hook)


def test_coverage_edge_at_default_budget():
    # 0 dBm tx, -85 dBm sensitivity, 2.4 GHz: edge is just under 176.8 m
    sim = Simulator()
    med = Medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    assert med.in_range(ap, (176.7, 0.0))
    assert not med.in_range(ap, (176.8, 0.0))


def test_broadcast_respects_channel_and_range():
    sim = Simulator()
    med = _medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    near = StubIface("near", (50.0, 0.0), 1)
    wrong_channel = StubIface("wrong", (50.0, 0.0), 6)
    far = StubIface("far", (400.0, 0.0), 1)
    for i in (near, wrong_channel, far):
        med.register_iface(i)
    med.broadcast(ap, Frame("beacon", "ap", 1, 640, payload=ap))
    sim.run_until(1.0)
    assert len(near.frames) == 1
    assert wrong_channel.frames == [] and far.frames == []


def test_broadcast_skips_an_interface_bound_to_another_ap():
    sim = Simulator()
    med = _medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    bound_here = StubIface("here", (50.0, 0.0), 1, allowed_ap="ap")
    bound_elsewhere = StubIface("elsewhere", (50.0, 0.0), 1, allowed_ap="other")
    for i in (bound_here, bound_elsewhere):
        med.register_iface(i)
    med.broadcast(ap, Frame("beacon", "ap", 1, 640, payload=ap))
    assert sim.run_until(1.0) == 1  # no event for the other AP's interface
    assert len(bound_here.frames) == 1 and bound_elsewhere.frames == []


def test_serialization_delay_at_two_megabits():
    sim = Simulator()
    med = _medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    iface = StubIface("i", (10.0, 0.0), 1)
    seen_at = []
    iface.on_frame = lambda frame: seen_at.append(sim.now)
    med.ap_to_iface(ap, iface, Frame("data", "ap", 1, 2000))
    sim.run_until(1.0)
    assert seen_at == [2000 / 2e6]  # 1 ms


def test_uplink_out_of_range_drops_payload():
    sim = Simulator()
    drops = []
    med = _medium(sim, drops)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    iface = StubIface("i", (500.0, 0.0), 1)
    med.iface_to_ap(iface, ap, Frame("data", "i", 1, 1000, payload="pkt"))
    sim.run_until(1.0)
    assert drops == ["pkt"]


def test_uplink_cross_channel_drops_payload():
    sim = Simulator()
    drops = []
    med = _medium(sim, drops)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 6), med, router=None)
    iface = StubIface("i", (10.0, 0.0), 1)
    med.iface_to_ap(iface, ap, Frame("data", "i", 1, 1000, payload="pkt"))
    sim.run_until(1.0)
    assert drops == ["pkt"]


def test_beacons_fire_on_strict_schedule():
    sim = Simulator()
    med = _medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1, beacon_interval=0.1),
                     med, router=None)
    iface = StubIface("i", (10.0, 0.0), 1)
    med.register_iface(iface)
    heard_at = []
    iface.on_frame = lambda frame: heard_at.append((sim.now, frame.kind))
    ap._beacon_tick(0)
    sim.run_until(1.0)
    # beacon k transmitted at k*interval, heard after serialization
    times = [0.1 * k + 640 / 2e6 for k in range(10)]
    assert heard_at == [(pytest.approx(t), "beacon") for t in times]


class PathIface(StubIface):
    """A listening interface carried along a field sweep at bounded speed."""

    def __init__(self, sim, path):
        super().__init__("i", None, 1)
        self.sim = sim
        self.path = path
        self.max_speed = path.speed

    def position(self, t):
        return self.path.position(t)


@settings(max_examples=300, deadline=None)
@given(speed=st.floats(0.1, 20.0),
       ap_xy=st.tuples(st.floats(-100.0, 300.0), st.floats(-100.0, 150.0)),
       steps=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=80))
def test_range_memo_agrees_with_uncached_check(speed, ap_xy, steps):
    sim = Simulator()
    med = Medium(sim)
    ap = AccessPoint(sim, ApConfig("ap", ap_xy[0], ap_xy[1], 1), med, router=None)
    iface = PathIface(sim, TractorPath(4.0, 0.0, 196.0, 50.0, 5, speed))
    t = 0.0
    for dt in steps:
        t += dt
        verdict, until = med.in_range_moving(ap, iface, t)
        assert verdict == med.in_range(ap, iface.position(t)), \
            f"t={t} pos={iface.position(t)}"
        # the verdict is claimed to hold until `until`
        mid = (t + until) / 2
        assert until >= t
        assert med.in_range(ap, iface.position(mid)) == verdict, f"t={t} mid={mid}"


class RunAp:
    """Records what the AP's uplink takes from a run."""

    def __init__(self):
        self.taken = []

    def __call__(self, pkt, run, hop):
        self.taken.append((pkt, run.seq0, run.times, hop))


def test_uplink_run_splits_at_the_coverage_edge():
    # 1 m/s along x from the AP: the edge (just under 176.8 m) is crossed
    # between t = 176.5 and t = 177.0, so the run's last two packets drop
    sim = Simulator()
    drops = []
    med = _medium(sim, drops)
    ap = AccessPoint(sim, ApConfig("ap", 0.0, 0.0, 1), med, router=None)
    ap.uplink_extra_delay = 0.001
    ap.uplink_run = RunAp()
    iface = PathIface(sim, TractorPath(0.0, 0.0, 1000.0, 0.0, 1, 1.0))
    times = [175.0, 175.5, 176.0, 176.5, 177.0, 177.5]
    run = PacketRun("f", 10, times, 10000)
    pkt = Packet(None, None, "app", 10320)
    med.uplink_run(iface, ap, pkt, run)
    # serialization of the datagram plus MAC overhead, the LAN hop, the extra hop
    hop = (10320 + 272) / 2e6 + 0.0005 + 0.001
    assert ap.uplink_run.taken == [(pkt, 10, times[:4], hop)]
    assert [(r.seq0, r.times) for r in drops] == [(14, times[4:])]
