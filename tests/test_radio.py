import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vhosim.engine import Simulator
from vhosim.harness import ScenarioConfig
from vhosim.ipv6 import Packet
from vhosim.mobility import TractorPath
from vhosim.radio import (
    ASSOC_BITS,
    BEACON_BITS,
    LAN_DELAY,
    MAC_OVERHEAD_BITS,
    AccessPoint,
    ApConfig,
    Frame,
    Medium,
    coverage_radius2,
    fspl_db,
    rx_power_dbm,
)
from vhosim.scenario import Scenario
from vhosim.traffic import PacketRun, Ticks

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
    assert abs(rx_power_dbm(tx, d, f, 1.0) - want) < 0.1


def test_near_field_clamps_to_reference_distance():
    assert rx_power_dbm(0.0, 0.01, 2.4e9, 1.0) == rx_power_dbm(0.0, 1.0, 2.4e9, 1.0)


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
    path = None  # stationary

    def __init__(self, iface_id, pos, allowed_ap=None):
        self.iface_id = iface_id
        self.pos = pos
        self.allowed_ap = allowed_ap
        self.frames = []

    def position(self, t):
        return self.pos

    def on_frame(self, frame):
        self.frames.append(frame)


def _medium(sim, drops=None, horizon=math.inf):
    """A medium of ScenarioConfig's radio defaults, with no horizon by default."""
    return Medium(sim, ([] if drops is None else drops).append, 2.4e9, -85.0, 2e6, 1.0,
                  horizon)


def _cfg(ap_id, x, y, beacon_interval=0.1):
    """An AP at ScenarioConfig's tx power and, by default, beacon interval."""
    return ApConfig(ap_id, x, y, 0.0, beacon_interval)


class StubHa:
    """Records what an AP's uplink hands the home agent, and when."""

    def __init__(self, sim):
        self.sim = sim
        self.handled = []  # (time, binding update)
        self.runs = []  # (datagram, first seq, send times, hop)

    def handle(self, pkt):
        self.handled.append((self.sim.now, pkt))

    def forward_run(self, pkt, run, hop):
        self.runs.append((pkt, run.seq0, list(run.times), hop))


def _ap(sim, med, cfg, ha=None, ha_delay=0.0):
    return AccessPoint(sim, cfg, med, "ra", ha, ha_delay)


def _deliver_heard(ledger, iface_id, until=math.inf):
    """Schedule the arrival of every beacon the ledger says the interface
    hears, up to the ledger's horizon or the arrival time until."""
    t = 0.0
    while (hit := ledger.next_beacon([iface_id], t, None)) is not None and hit[0] <= until:
        ledger.deliver(*hit)
        t = math.nextafter(hit[0], math.inf)


def test_coverage_edge_at_default_budget():
    # 0 dBm tx, -85 dBm sensitivity, 2.4 GHz: edge is just under 176.8 m
    sim = Simulator()
    med = _medium(sim)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0))
    assert med.in_range(ap, (176.7, 0.0))
    assert not med.in_range(ap, (176.8, 0.0))


def test_broadcast_respects_the_ap_listened_to_and_range():
    sim = Simulator()
    med = _medium(sim, horizon=0.0)  # the beacon sent at time 0 only
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0))
    other = _ap(sim, med, _cfg("other", 0.0, 0.0))
    med.beacons.add_ap(ap)
    near = StubIface("near", (50.0, 0.0))
    elsewhere = StubIface("elsewhere", (50.0, 0.0))
    far = StubIface("far", (400.0, 0.0))
    for i, listened in ((near, ap), (elsewhere, other), (far, ap)):
        med.beacons.add_iface(i)
        med.beacons.listen(i, listened)  # from time 0, so for the beacon sent then
        _deliver_heard(med.beacons, i.iface_id)
    sim.run_until(1.0)
    assert len(near.frames) == 1
    assert elsewhere.frames == [] and far.frames == []


def test_broadcast_skips_an_interface_bound_to_another_ap():
    sim = Simulator()
    med = _medium(sim, horizon=0.0)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0))
    med.beacons.add_ap(ap)
    bound_here = StubIface("here", (50.0, 0.0), allowed_ap="ap")
    bound_elsewhere = StubIface("elsewhere", (50.0, 0.0), allowed_ap="other")
    for i in (bound_here, bound_elsewhere):
        med.beacons.add_iface(i)
        _deliver_heard(med.beacons, i.iface_id)
    assert sim.run_until(1.0) == 1  # no event for the other AP's interface
    assert len(bound_here.frames) == 1 and bound_elsewhere.frames == []


def test_serialization_delay_at_two_megabits():
    sim = Simulator()
    med = _medium(sim)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0))
    iface = StubIface("i", (10.0, 0.0))
    seen_at = []
    iface.on_frame = lambda frame: seen_at.append(sim.now)
    med.ap_to_iface(ap, iface, Frame("data", 2000))
    sim.run_until(1.0)
    assert seen_at == [2000 / 2e6]  # 1 ms


BU = Packet(None, None, 1120)  # a binding update's datagram


def _send_control_packets(ap_pos, ha_delay=0.0):
    """(binding updates the HA got with their arrival times, frames the
    interface got, drop hook calls) for one binding update sent up at 0.25 s
    from an interface at (10, 0), and one binding ack sent down."""
    sim = Simulator()
    drops = []
    med = _medium(sim, drops)
    ha = StubHa(sim)
    ap = _ap(sim, med, _cfg("ap", ap_pos, 0.0), ha, ha_delay)
    iface = StubIface("i", (10.0, 0.0))
    sim.schedule_at(0.25, med.uplink, iface, ap, BU)
    sim.schedule_at(0.25, med.ap_to_iface, ap, iface, Frame("data", 1000, payload="ba"))
    sim.run_until(1.0)
    return ha.handled, iface.frames, drops


def test_uplink_out_of_range_drops_payload():
    # a lost binding update is not an app packet: the drop hook gets nothing
    assert _send_control_packets(500.0) == ([], [], [])


@pytest.mark.parametrize("ha_delay", [0.0, 0.001])
def test_binding_update_reaches_the_ha_after_one_uplink_hop(ha_delay):
    # serialization with MAC overhead, the LAN hop and the AP's wired delay
    # to the HA, added as the app packets' hop is (Medium.uplink_run)
    at = 0.25 + ((1120 + MAC_OVERHEAD_BITS) / 2e6 + LAN_DELAY + ha_delay)
    assert _send_control_packets(0.0, ha_delay) == (
        [(at, BU)], [Frame("data", 1000, "ba")], [])


def test_an_ap_sends_one_ra_per_association():
    # joins at 2.5 s, leaves at 4.5 s, rejoins at 7 s; no RA while it stays
    sim = Simulator()
    med = _medium(sim)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0))
    iface = StubIface("i", (10.0, 0.0))
    heard = []
    iface.on_frame = lambda frame: heard.append((sim.now, frame.kind, frame.payload))
    join = Frame("assoc_request", ASSOC_BITS, payload=iface)
    sim.schedule_at(2.5, ap.on_frame, join)
    sim.schedule_at(4.5, ap.leave, iface)
    sim.schedule_at(7.0, ap.on_frame, join)
    sim.run_until(10.5)
    assert sim.executed == 3 + 2 * 2  # joins and leave; a response and an RA per join
    ra_sent = [round(t - BEACON_BITS / 2e6, 9) for t, kind, ra in heard if kind == "data"]
    assert ra_sent == [2.5, 7.0]
    assert {ra for _, kind, ra in heard if kind == "data"} == {"ra"}
    assert [t for t, kind, _ in heard if kind == "assoc_response"] == [
        2.5 + ASSOC_BITS / 2e6, 7.0 + ASSOC_BITS / 2e6]


def test_beacons_fire_on_strict_schedule():
    sim = Simulator()
    med = _medium(sim)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0, beacon_interval=0.1))
    med.beacons.add_ap(ap)
    iface = StubIface("i", (10.0, 0.0))
    med.beacons.add_iface(iface)
    heard_at = []
    iface.on_frame = lambda frame: heard_at.append((sim.now, frame.kind))
    _deliver_heard(med.beacons, "i", until=1.0)
    sim.run_until(1.0)
    # beacon k transmitted at k*interval, heard after serialization
    times = [k * 0.1 + 640 / 2e6 for k in range(10)]
    assert heard_at == [(t, "beacon") for t in times]


class PathIface(StubIface):
    """A listening interface carried along a field sweep at bounded speed."""

    def __init__(self, sim, path):
        super().__init__("i", None)
        self.sim = sim
        self.path = path

    def position(self, t):
        return self.path.position(t)


@settings(max_examples=300, deadline=None)
@given(speed=st.floats(0.1, 20.0),
       ap_xy=st.tuples(st.floats(-100.0, 300.0), st.floats(-100.0, 150.0)),
       steps=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=80))
def test_range_memo_agrees_with_uncached_check(speed, ap_xy, steps):
    sim = Simulator()
    med = _medium(sim, horizon=sum(steps) + 60.0)
    ap = _ap(sim, med, _cfg("ap", ap_xy[0], ap_xy[1]))
    iface = PathIface(sim, TractorPath(4.0, 0.0, 196.0, 50.0, 5, speed))
    # a beacon-ledger lookahead first: it reads the same coverage table, and
    # must leave nothing there that answers the earlier queries below
    ledger = med.beacons
    ledger.add_ap(ap)
    ledger.add_iface(iface)
    ledger.next_beacon(["i"], sum(steps), None)
    ledger.next_beacon(["i"], sum(steps), 3)
    ledger.loss_time("i", sum(steps), 0.35)
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


@settings(max_examples=300, deadline=None)
@given(speed=st.floats(0.1, 20.0),
       ap_xy=st.tuples(st.floats(-100.0, 300.0), st.floats(-100.0, 150.0)),
       times=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=80))
# out of range at 89 s for longer than 89 s before, but in range at 0 s
@example(speed=20.0, ap_xy=(0.0, 0.0), times=[89.0, 0.0])
def test_range_memo_answers_queries_in_any_order(speed, ap_xy, times):
    # the two directions of a VoIP call query one (ap, iface) pair at times
    # that need not increase: one flow's run may reach past the other's
    sim = Simulator()
    med = _medium(sim, horizon=150.0)  # with none, every query is judged on its own
    ap = _ap(sim, med, _cfg("ap", ap_xy[0], ap_xy[1]))
    iface = PathIface(sim, TractorPath(4.0, 0.0, 196.0, 50.0, 5, speed))
    for t in times:
        assert med.in_range_moving(ap, iface, t)[0] == med.in_range(ap, iface.position(t)), \
            f"t={t} pos={iface.position(t)}"


R = math.sqrt(coverage_radius2(0.0, -85.0, 2.4e9, 1.0))  # coverage radius at the default budget


def _heard(med, ap, iface, changes, horizon):
    """Indices of the beacons of ap that the interface hears, by a scan over
    every beacon sent by the horizon; changes are (time, id of the AP
    listened to from then on, None: all)."""
    bi = ap.cfg.beacon_interval
    out = []
    k = 0
    while k * bi <= horizon:
        s = k * bi
        tuned = [ap_id for t, ap_id in changes if t <= s]
        if (iface.allowed_ap in (None, "ap") and (tuned[-1] if tuned else None) in (None, "ap")
                and med.in_range(ap, iface.position(s))):
            out.append(k)
        k += 1
    return out


def _fresh(heard, arrivals, start, misses):
    """The arrival of the first heard beacon arriving at or after start over
    misses beacon intervals after the heard one before it, if any."""
    for i, (k, a) in enumerate(zip(heard, arrivals)):
        if a >= start and (misses is None or i == 0 or k - heard[i - 1] > misses):
            return a
    return None


def _loss(arrivals, check, window):
    last = None
    for a in arrivals + [math.inf]:
        bound = check if last is None or last + window <= check else last + window
        if not a < bound:
            return bound
        last = a


@st.composite
def ledger_cases(draw):
    x1, y1 = draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 50.0))
    x2, y2 = x1 + draw(st.floats(20.0, 300.0)), y1 + draw(st.floats(0.0, 60.0))
    path = TractorPath(x1, y1, x2, y2, draw(st.integers(1, 5)), draw(st.floats(0.5, 20.0)))
    graze = y1 + R * (1 + draw(st.floats(-1e-4, 1e-4))) * draw(st.sampled_from([-1, 1]))
    ap_xy = draw(st.one_of(
        st.tuples(st.floats(-100.0, 400.0), st.floats(-100.0, 200.0)),
        # the first row grazes the coverage edge
        st.tuples(st.floats(x1, x2), st.just(graze)),
        # a row end just past the edge: the node leaves and comes back
        st.tuples(st.floats(x2 - R - 3.0, x2 - R + 1.0), st.floats(y1, y2))))
    horizon = draw(st.floats(5.0, 120.0))
    changes = sorted(draw(st.lists(st.tuples(st.floats(0.0, horizon),
                                             st.sampled_from([None, "ap", "other"])),
                                   max_size=6)),
                     key=lambda change: change[0])
    return (path, ap_xy, draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
            draw(st.sampled_from([None, "ap", "other"])), changes, horizon,
            draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=4)),
            draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(ledger_cases())
# the row end at x = 100 lies 0.2 m past the edge: the node is out of range
# for about 0.09 s, under two beacons, and back within the loss window
@example((TractorPath(0.0, 0.0, 100.0, 0.5, 2, 10.0), (100.0 - R - 0.2, 0.0), 0.05,
          None, [], 30.0, [0.0, 9.0], 3))
# the first row runs 1e-9 m inside the edge for its whole length
@example((TractorPath(0.0, 0.0, 200.0, 20.0, 2, 4.0), (100.0, R - 1e-9), 0.1,
          "ap", [(3.0, "other"), (7.5, None)], 60.0, [0.0, 20.0], 1))
# the whole path lies inside the disc
@example((TractorPath(0.0, 0.0, 100.0, 20.0, 2, 5.0), (50.0, 10.0), 0.1,
          None, [(4.0, "other"), (9.0, None)], 60.0, [0.0, 30.0], 2))
# the start vertex lies inside the disc and the far end outside: the node
# turns around in coverage at every period boundary (a period is 124 s)
@example((TractorPath(0.0, 0.0, 300.0, 20.0, 2, 10.0), (-100.0, 0.0), 0.1,
          None, [], 300.0, [0.0, 100.0, 240.0], 3))
# the first row passes through the AP
@example((TractorPath(0.0, 0.0, 400.0, 50.0, 2, 8.0), (200.0, 0.0), 0.05,
          None, [(20.0, "ap")], 120.0, [0.0, 60.0], 1))
# 4.5 periods of 10 s, entering and leaving coverage once in each
@example((TractorPath(0.0, 0.0, 100.0, 10.0, 1, 20.0), (250.0, 5.0), 0.1,
          "ap", [(12.0, None)], 45.0, [0.0, 10.0, 33.0], 3))
# a stationary interface, which has no path, and a path of no length
@example(((100.0, 0.0), (0.0, 0.0), 0.25, None, [(2.0, "other"), (6.0, "ap")],
          20.0, [0.0, 5.0], 2))
@example((TractorPath(10.0, 10.0, 10.0, 10.0, 1, 5.0), (0.0, 0.0), 0.25,
          None, [(2.0, "other"), (6.0, None)], 20.0, [0.0, 5.0], 2))
# a path retraced between two beacons, across the coverage edge
@example((TractorPath(0.0, 0.0, 1.0, 0.0, 1, 20.0), (R + 0.5, 0.0), 0.1,
          None, [(3.0, "other"), (4.0, None)], 30.0, [0.0, 10.0], 2))
def test_ledger_matches_a_scan_of_every_beacon(case):
    path, ap_xy, bi, allowed, changes, horizon, starts, m = case
    sim = Simulator()
    med = _medium(sim, horizon=horizon)
    ap = _ap(sim, med, _cfg("ap", ap_xy[0], ap_xy[1], beacon_interval=bi))
    iface = PathIface(sim, path) if isinstance(path, TractorPath) else StubIface("i", path)
    iface.allowed_ap = allowed
    listened = {None: None, "ap": ap,
                "other": _ap(sim, med, _cfg("other", 0.0, 0.0))}
    ledger = med.beacons
    ledger.add_ap(ap)
    ledger.add_iface(iface)
    for t, ap_id in changes:
        sim.run_until(t)
        ledger.listen(iface, listened[ap_id])
    heard = _heard(med, ap, iface, changes, horizon)
    arrivals = [k * bi + 640 / med.bitrate for k in heard]
    window = (m + 0.5) * bi
    for start in starts + arrivals[:3] + arrivals[-3:]:
        for misses in (None, m):
            want = _fresh(heard, arrivals, start, misses)
            got = ledger.next_beacon(["i"], start, misses)
            assert got == (None if want is None else (want, "i", ap)), (start, misses)
        want = _loss(arrivals, start + window, window)
        got = ledger.loss_time("i", start + window, window)
        # past the horizon the ledger need not know when the loss comes
        assert got == want or (got > horizon and want > horizon), start


@settings(max_examples=300, deadline=None)
@given(ledger_cases(), st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20))
# a path retraced between two beacons (2 m per interval over a 1 m field)
# that crosses the coverage edge at x = 0.5: one ring, every query judged alone
@example((TractorPath(0.0, 0.0, 1.0, 0.0, 1, 20.0), (R + 0.5, 0.0), 0.1,
          None, [], 30.0, [0.0], 1), [0.0, 0.01, 0.0125, 0.3, 1.0, 1.5])
# a stationary interface, which has no path, and a path of no length
@example(((100.0, 0.0), (0.0, 0.0), 0.25, None, [], 20.0, [0.0], 1), [0.0, 0.5, 1.5])
@example((TractorPath(10.0, 10.0, 10.0, 10.0, 1, 5.0), (R + 10.0, 10.0), 0.25,
          None, [], 20.0, [0.0], 1), [0.0, 1.0, 2.0])
def test_coverage_table_matches_exact_checks(case, fractions):
    # every range verdict the table gives, in a gap, in a ring or past the
    # horizon, is the exact check's at its time and at the middle of the
    # span it is said to hold over; so is each gap's, from end to end
    path, ap_xy, bi, _, _, horizon, _, _ = case
    sim = Simulator()
    med = _medium(sim, horizon=horizon)
    ap = _ap(sim, med, _cfg("ap", ap_xy[0], ap_xy[1], beacon_interval=bi))
    iface = PathIface(sim, path) if isinstance(path, TractorPath) else StubIface("i", path)

    def exact(t):
        return med.in_range(ap, iface.position(t))

    ends, verdicts = med.coverage(ap, iface)
    assert ends == sorted(ends) and ends[-1] == horizon
    for t in [f * horizon for f in fractions] + ends:
        verdict, until = med.in_range_moving(ap, iface, t)
        assert until >= t and verdict == exact(t) == exact((t + until) / 2), t
    for a, b, verdict in zip([0.0] + ends[1::2], ends[::2], verdicts):
        if a < b:
            assert all(exact(a + f * (b - a)) == verdict
                       for f in [0.0, 0.5, 1.0] + [f for f in fractions if f < 1.0]), (a, b)


def test_range_cuts_agree_with_the_exact_check_on_a_retraced_path():
    # a 1 m field across the coverage edge, retraced ten times a second: the
    # node stands exactly on the edge every 0.1 s, so each packet is judged
    # exactly (a verdict held for the node's distance to the edge over its
    # speed, as a range memo did, is wrong for 233 of these 59,000 packets)
    sim = Simulator()
    med = _medium(sim, horizon=300.0)
    ap = _ap(sim, med, _cfg("ap", 0.0, 20.0))
    iface = PathIface(sim, TractorPath(R - 0.5, 20.0, R + 0.5, 20.0, 1, 20.0))
    times = Ticks(0.005, [(5.0, 0, 59000)])
    pieces = med.range_cuts(ap, iface, times, 0, len(times), float)
    assert [k for a, b, inside in pieces for k in range(a, b)
            if med.in_range(ap, iface.position(times[k])) != inside] == []


def test_a_retraced_path_far_from_the_edge_has_no_ring():
    # a 1 m field retraced ten times a second, 1 m at most from the home AP
    # and 199 m at least from the foreign one: the field's bounding box lies
    # far inside the one coverage edge and far outside the other, so each
    # table is one gap whose verdict holds for the whole run
    scn = Scenario(ScenarioConfig(scheme="hard", application="video", video_rate_bps=2e6,
                                  field_x1=0.0, field_x2=1.0, field_y1=20.0, field_y2=20.0,
                                  row_count=1, speed=20.0, sim_time=300.0,
                                  expected_handovers=None))
    (iface,) = scn.mn.ifaces.values()
    assert scn.medium.coverage(scn.ap_home, iface) == ([300.0], [True])
    assert scn.medium.coverage(scn.ap_foreign, iface) == ([300.0], [False])


def test_ledger_ties_a_listening_change_and_a_loss_check_at_a_beacon_instant():
    # beacon 1 goes out at the instant the interface turns to another AP,
    # beacon 2 at the instant it turns back: each meets the new state. Arrival 2 lands
    # exactly one window after arrival 0 and so comes after the check there.
    sim = Simulator()
    med = _medium(sim, horizon=5.0)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0, beacon_interval=0.5))
    other = _ap(sim, med, _cfg("other", 0.0, 0.0))
    iface = StubIface("i", (10.0, 0.0))
    ledger = med.beacons
    ledger.add_ap(ap)
    ledger.add_iface(iface)
    for t, listened in ((0.5, other), (1.0, None)):
        sim.run_until(t)
        ledger.listen(iface, listened)
    a0, a2 = [k * 0.5 + 640 / 2e6 for k in (0, 2)]
    assert a0 + 1.0 == a2
    assert ledger.next_beacon(["i"], math.nextafter(a0, math.inf), None) == (a2, "i", ap)
    assert ledger.loss_time("i", a0 + 1.0, 1.0) == a0 + 1.0


def test_uplink_run_splits_at_the_coverage_edge():
    # 1 m/s along x from the AP: the edge (just under 176.8 m) is crossed
    # between t = 176.5 and t = 177.0, so the run's last two packets drop
    sim = Simulator()
    drops = []
    med = _medium(sim, drops)
    ha = StubHa(sim)
    ap = _ap(sim, med, _cfg("ap", 0.0, 0.0), ha, 0.001)
    iface = PathIface(sim, TractorPath(0.0, 0.0, 1000.0, 0.0, 1, 1.0))
    times = [175.0, 175.5, 176.0, 176.5, 177.0, 177.5]
    run = PacketRun("f", 10, Ticks(0.5, [(175.0, 0, len(times))]), 10000)
    assert list(run.times) == times
    pkt = Packet(None, None, 10320)
    med.uplink_run(iface, ap, pkt, run)
    # serialization of the datagram plus MAC overhead, the LAN hop, the HA hop
    hop = (10320 + 272) / 2e6 + 0.0005 + 0.001
    assert ha.runs == [(pkt, 10, times[:4], hop)]
    assert [(r.seq0, list(r.times)) for r in drops] == [(14, times[4:])]
