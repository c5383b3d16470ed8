import pytest

from vhosim.engine import Simulator
from vhosim.llc import NetworkAttributes, VhoController


class Rig:
    """Wires a controller to scripted callbacks and records every command."""

    def __init__(self, mode="soft"):
        self.sim = Simulator()
        self.llc = VhoController(self.sim, mode)
        self.commands = []
        self.llc.command_associate = lambda i, ap: self.commands.append(("assoc", i, ap))
        self.llc.command_disassociate = lambda i: self.commands.append(("disassoc", i))
        self.llc.on_promoted = lambda i, p: self.commands.append(("promoted", i, p))

    def beacon(self, iface, ap_id, rss=-60.0, ap="AP"):
        attrs = NetworkAttributes(iface_id=iface, ap_id=ap_id, rss=rss)
        self.llc.on_beacon(iface, attrs, ap)
        return attrs

    def attach(self, iface, ap_id):
        """Full beacon -> associate -> confirm -> address-up sequence."""
        self.beacon(iface, ap_id)
        self.llc.on_link_up(iface)
        self.llc.on_association_confirmed(iface)
        self.llc.on_address_global(iface)


def test_mode_validation():
    with pytest.raises(ValueError):
        VhoController(Simulator(), "warm")


def test_first_beacon_makes_candidate_and_permits():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    assert rig.llc.candidate.iface_id == "i1"
    assert rig.commands == [("assoc", "i1", "AP")]


def test_initial_attach_is_not_counted_as_handover():
    rig = Rig()
    rig.attach("i1", "ap-a")
    assert rig.llc.serving_interface() == "i1"
    assert rig.llc.handover_count == 0
    assert rig.commands[-1] == ("promoted", "i1", None)


def test_promotion_releases_previous_interface_after_switch():
    rig = Rig()
    rig.attach("i1", "ap-a")
    for k in range(1, 4):
        rig.sim.run_until(0.1 * k)
        rig.beacon("i1", "ap-a")
    rig.attach("i2", "ap-b")
    assert rig.llc.serving_interface() == "i2"
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
    rig.llc.on_link_up("i2")
    rig.llc.on_association_confirmed("i2")
    rig.llc.on_address_global("i2")
    assert rig.llc.serving_interface() == "i2"
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


def test_duplicate_confirmation_is_noop():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    rig.llc.on_link_up("i1")
    rig.llc.on_association_confirmed("i1")
    rig.llc.on_association_confirmed("i1")  # must not raise


def test_stale_candidate_is_denied():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    rig.sim.run_until(1.0)  # well past miss_threshold * beacon_interval
    assert rig.llc.request_association("i1") == "deny"
    assert rig.llc.request_association("other") == "deny"


def test_address_up_on_non_candidate_interface_is_ignored():
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.llc.on_address_global("i1")  # periodic RA repeat on the serving iface
    assert rig.llc.handover_count == 0


def test_single_candidate_at_a_time():
    rig = Rig()
    rig.beacon("i1", "ap-a")
    rig.beacon("i2", "ap-b")  # deferred while i1 is in flight
    assert rig.llc.candidate.iface_id == "i1"
    assert [c for c in rig.commands if c[0] == "assoc"] == [("assoc", "i1", "AP")]


def test_beacon_loss_on_serving_interface_detaches():
    rig = Rig(mode="hard")
    rig.attach("i1", "ap-a")
    # watchdog armed at confirm; no further beacons ever arrive
    rig.sim.run_until(5.0)
    assert rig.llc.serving_interface() is None
    assert ("disassoc", "i1") in rig.commands


def test_watchdog_tolerates_on_time_beacons():
    rig = Rig(mode="hard")
    rig.attach("i1", "ap-a")
    for k in range(1, 51):
        rig.sim.run_until(0.1 * k)
        rig.beacon("i1", "ap-a")
    rig.sim.run_until(5.2)
    assert rig.llc.serving_interface() == "i1"
    assert ("disassoc", "i1") not in rig.commands


def test_gap_intervals_recorded_between_attachments():
    rig = Rig(mode="hard")
    rig.attach("i1", "ap-a")
    rig.sim.run_until(3.0)
    rig.llc.on_link_down("i1")
    rig.sim.run_until(4.5)
    rig.llc.on_link_up("i1")
    rig.sim.run_until(6.0)
    rig.llc.on_link_down("i1")
    rig.llc.close_gaps(7.0)
    assert rig.llc.gap_intervals == [(3.0, 4.5), (6.0, 7.0)]


def test_make_before_break_has_no_gap():
    rig = Rig(mode="soft")
    rig.attach("i1", "ap-a")
    rig.sim.run_until(2.0)
    rig.beacon("i2", "ap-b")
    rig.llc.on_link_up("i2")
    rig.llc.on_association_confirmed("i2")
    rig.llc.on_address_global("i2")  # i1 released only now
    rig.llc.on_link_down("i1")
    rig.llc.close_gaps(10.0)
    assert rig.llc.gap_intervals == []


def test_controller_never_sees_data_plane_kinds():
    rig = Rig()
    rig.attach("i1", "ap-a")
    rig.sim.run_until(5.0)
    assert rig.llc.handled_kinds <= {
        "beacon", "assoc_request", "assoc_confirmed", "addr_global", "beacon_loss",
    }
