import math

import pytest

from vhosim.engine import Simulator
from vhosim.llc import VhoController


class ScriptedBeacons:
    """A beacon ledger whose arrivals the test writes down as it goes; it
    answers the controller's queries by scanning them. They come on the
    controller's grid of 0.1 s beacon intervals."""

    def __init__(self, sim):
        self.sim = sim
        self.ifaces = {}  # iface -> None, in the order of their first beacon
        self.heard = []  # (arrival, iface, (ap_id, ap)), in arrival order
        self.on_change = lambda: None
        self.on_beacon = None

    def hear(self, iface, ap_id, ap):
        self.ifaces.setdefault(iface)
        self.heard.append((self.sim.now, iface, (ap_id, ap)))
        self.on_change()

    def next_beacon(self, iface_ids, start, misses):
        for t, iface, ap in self.heard:
            if t < start or iface not in iface_ids:
                continue
            before = [u for u, i, a in self.heard if i == iface and a == ap and u < t]
            if misses is None or not before or round((t - before[-1]) / 0.1) > misses:
                return (t, iface, ap)
        return None

    def loss_time(self, iface_id, check, window):
        last = None
        for t in [t for t, i, _ in self.heard if i == iface_id] + [math.inf]:
            bound = check if last is None or last + window <= check else last + window
            if not t < bound:
                return bound
            last = t

    def deliver(self, at, iface_id, ap):
        return self.sim.schedule_at(at, self.on_beacon, iface_id, *ap, last=True)


class Rig:
    """Wires a controller to scripted callbacks and records every command."""

    def __init__(self):
        self.sim = Simulator()
        self.commands = []
        beacons = ScriptedBeacons(self.sim)
        # ScenarioConfig's beacon interval and miss threshold
        self.llc = VhoController(
            self.sim, "mn", 0.1, 3, beacons,
            lambda i, ap: self.commands.append(("assoc", i, ap)),
            lambda i: self.commands.append(("disassoc", i)),
            lambda i, p: self.commands.append(("promoted", i, p)))
        beacons.on_change = self.llc.replan
        beacons.on_beacon = self.llc.on_beacon

    def beacon(self, iface, ap_id, ap="AP"):
        """A beacon of ap_id reaches iface now: the ledger learns of it, and
        if it can act, its planned event runs now."""
        self.llc.beacons.hear(iface, ap_id, ap)
        self.sim.run_until(self.sim.now)

    def attach(self, iface, ap_id):
        """Full beacon -> associate -> confirm -> address-up sequence."""
        self.beacon(iface, ap_id)
        self.llc.on_association_confirmed(iface)
        self.llc.on_address_global(iface)


def test_first_beacon_makes_candidate_and_permits():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    assert rig.llc.candidate == "i1"
    assert rig.commands == [("assoc", "i1", "AP")]


def test_initial_attach_is_not_counted_as_handover():
    rig = Rig()
    rig.attach("i1", "ap-a")
    assert rig.llc.serving == "i1"
    assert rig.llc.handover_count == 0
    assert rig.commands[-1] == ("promoted", "i1", None)


def test_promotion_releases_previous_interface_after_switch():
    rig = Rig()
    rig.attach("i1", "ap-a")
    for k in range(1, 4):
        rig.sim.run_until(0.1 * k)
        rig.beacon("i1", "ap-a")
    rig.attach("i2", "ap-b")
    assert rig.llc.serving == "i2"
    assert rig.llc.handover_count == 1
    # break happens only after make: disassoc of i1 then promotion of i2
    assert rig.commands[-2:] == [("disassoc", "i1"), ("promoted", "i2", "i1")]


def test_repeated_beacons_from_serving_network_do_not_retrigger():
    rig = Rig()
    rig.attach("i1", "ap-a")
    for k in range(1, 11):
        rig.sim.run_until(0.1 * k)
        rig.beacon("i1", "ap-a")
    assert rig.llc.handover_count == 0
    assert [c for c in rig.commands if c[0] == "assoc"] == [("assoc", "i1", "AP")]


def test_steady_beacons_from_other_network_do_not_cause_pingpong():
    # i2's network never disappears, so after the first switch its beacons
    # are no longer "fresh appearances" and i1 stays untouched.
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.sim.run_until(1.0)
    rig.beacon("i2", "ap-b")  # fresh: becomes candidate
    for k in range(1, 6):
        rig.sim.run_until(1.0 + 0.1 * k)
        rig.beacon("i2", "ap-b")
        rig.beacon("i1", "ap-a")
    assert len([c for c in rig.commands if c[0] == "assoc"]) == 2
    rig.llc.on_association_confirmed("i2")
    rig.llc.on_address_global("i2")
    assert rig.llc.serving == "i2"
    # i1 beacons keep arriving but never re-promote
    for k in range(20):
        rig.sim.run_until(2.0 + 0.1 * k)
        rig.beacon("i1", "ap-a")
        rig.beacon("i2", "ap-b")
    assert rig.llc.handover_count == 1


def test_confirmation_without_permit_is_rejected():
    rig = Rig()
    with pytest.raises(RuntimeError):
        rig.llc.on_association_confirmed("i1")


def test_duplicate_confirmation_is_rejected():
    # the interface ignores a second association response, so a second
    # confirmation means the wiring is broken
    rig = Rig()
    rig.beacon("i1", "ap-a")
    rig.llc.on_association_confirmed("i1")
    with pytest.raises(RuntimeError):
        rig.llc.on_association_confirmed("i1")


def test_address_up_on_non_candidate_interface_is_ignored():
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.llc.on_address_global("i1")  # periodic RA repeat on the serving iface
    assert rig.llc.handover_count == 0


def test_single_candidate_at_a_time():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    rig.beacon("i2", "ap-b")  # deferred while i1 is in flight
    assert rig.llc.candidate == "i1"
    assert [c for c in rig.commands if c[0] == "assoc"] == [("assoc", "i1", "AP")]


def test_beacon_loss_on_serving_interface_detaches():
    rig = Rig()
    rig.attach("i1", "ap-a")
    # watchdog armed at confirm; no further beacons ever arrive
    rig.sim.run_until(5.0)
    assert rig.llc.serving is None
    assert ("disassoc", "i1") in rig.commands


def test_watchdog_tolerates_on_time_beacons():
    rig = Rig()
    rig.attach("i1", "ap-a")
    for k in range(1, 51):
        rig.sim.run_until(0.1 * k)
        rig.beacon("i1", "ap-a")
    rig.sim.run_until(5.2)
    assert rig.llc.serving == "i1"
    assert ("disassoc", "i1") not in rig.commands


def test_gap_intervals_recorded_between_attachments():
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.sim.run_until(3.0)
    rig.llc.on_link_down("i1")
    rig.sim.run_until(4.5)
    rig.beacon("i1", "ap-a")  # a fresh appearance: permitted again
    rig.llc.on_association_confirmed("i1")
    rig.sim.run_until(6.0)
    rig.llc.on_link_down("i1")
    rig.llc.close_gaps(7.0)
    assert rig.llc.gap_intervals == [(3.0, 4.5), (6.0, 7.0)]


def test_make_before_break_has_no_gap():
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.sim.run_until(2.0)
    rig.beacon("i2", "ap-b")
    rig.llc.on_association_confirmed("i2")
    rig.llc.on_address_global("i2")  # i1 released only now
    rig.llc.on_link_down("i1")
    rig.llc.close_gaps(10.0)
    assert rig.llc.gap_intervals == []
