import pytest

from vhosim.engine import Simulator
from vhosim.ipv6 import (
    Address,
    Ipv6Host,
    RouterAdvertisement,
    RoutingTable,
    derive_iid,
)

HOME = 0x20010DB800010000
FOREIGN = 0x20010DB800020000
CORE = 0x20010DB800030000
DAD_DURATION = 1.0  # ScenarioConfig's default
HOA = Address(HOME, derive_iid("mn", 0))  # configured, as Scenario does


def ha_ra():
    return RouterAdvertisement(HOME, Address(HOME, 1), is_home_agent=True)


def fr_ra():
    return RouterAdvertisement(FOREIGN, Address(FOREIGN, 1))


def make_host(sim, notifications):
    host = Ipv6Host(sim, "mn", HOA, notifications.append, DAD_DURATION)
    host.add_interface("wlan0", 0)
    host.add_interface("wlan1", 1)
    return host


def test_iid_is_stable_and_distinct_per_interface():
    assert derive_iid("mn", 0) == derive_iid("mn", 0)
    assert derive_iid("mn", 0) != derive_iid("mn", 1)
    assert derive_iid("mn", 0) != derive_iid("cn", 0)


def test_address_text_form():
    a = Address(HOME, 0x1)
    assert str(a) == "2001:db8:1:0:0:0:0:1"


def test_address_is_a_frozen_value():
    a = Address(HOME, 5)
    assert a == Address(HOME, 5) and len({a, Address(HOME, 5)}) == 1
    with pytest.raises(AttributeError):
        a.iid = 6
    assert a == Address(HOME, 5) and hash(a) == hash(Address(HOME, 5))


def test_home_ra_forms_tentative_home_address_and_starts_dad():
    # the home address is configured; the first home RA teaches the HA's
    # address and puts the home address, tentative, on the interface
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    assert host.home_address == HOA and host.ha_address is None
    sim.run_until(2.0)
    host.on_router_advertisement("wlan0", ha_ra())
    assert host.home_address == HOA and host.ha_address == Address(HOME, 1)
    assert host.addresses["wlan0"] == host.home_address
    assert host.home_address not in host.validated
    assert host.global_address("wlan0") is None
    assert notes == []
    sim.run_until(2.9)
    assert notes == []  # DAD still pending
    sim.run_until(3.0)  # exactly dad_duration later
    assert host.validated == {host.home_address}
    assert host.global_address("wlan0") == host.home_address
    assert notes == ["wlan0"]
    assert host.dad_log == [(3.0, "wlan0", host.home_address)]


def test_foreign_ra_triggers_slaac_with_fresh_dad():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    addr = host.addresses["wlan1"]
    assert addr == Address(FOREIGN, derive_iid("mn", 1))
    assert addr not in host.validated
    assert host.ha_address is None and host.home_address == HOA  # a foreign RA teaches neither
    sim.run_until(1.0)
    assert notes == ["wlan1"]
    assert host.global_address("wlan1") == addr


def test_repeated_ra_does_not_restart_dad_or_duplicate_address():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(0.5)
    host.on_router_advertisement("wlan1", fr_ra())  # a repeat mid-DAD
    sim.run_until(2.0)
    host.on_router_advertisement("wlan1", fr_ra())  # a repeat once validated
    sim.run_until(4.0)
    assert host.validated == {host.addresses["wlan1"]}
    assert len(host.dad_log) == 1
    assert notes == ["wlan1"]  # exactly one DAD completion


def test_interface_down_cancels_dad_and_drops_tentative():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(0.5)
    host.release_interface("wlan1")
    sim.run_until(5.0)
    assert notes == []
    assert host.addresses["wlan1"] is None
    assert host.validated == set()


def test_returning_to_known_prefix_skips_dad():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(1.0)
    assert notes == ["wlan0"]
    # leave home, come back: the validated address is reused immediately
    host.release_interface("wlan0")
    host.on_router_advertisement("wlan0", ha_ra())
    assert notes == ["wlan0", "wlan0"]
    assert host.global_address("wlan0") == host.home_address
    assert host.validated == {host.home_address}
    assert len(host.dad_log) == 1


def test_home_address_survives_a_first_dad_cut_short():
    # the link drops while the home address's first DAD runs; the next home
    # visit validates the home address itself, and a later one reuses it
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(0.5)
    host.release_interface("wlan0")
    hoa = host.home_address
    assert hoa not in host.validated
    host.on_router_advertisement("wlan0", ha_ra())
    assert host.addresses["wlan0"] == hoa
    sim.run_until(1.5)
    assert notes == ["wlan0"]
    assert host.home_address in host.validated
    assert host.global_address("wlan0") == host.home_address
    host.release_interface("wlan0")
    host.on_router_advertisement("wlan0", ha_ra())
    assert notes == ["wlan0", "wlan0"]  # at once, with no new DAD
    assert host.dad_log == [(1.5, "wlan0", hoa)]
    assert not host._dad_handles


def test_route_cleanup_after_handover():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(1.0)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(2.0)
    coa = host.addresses["wlan1"]
    removed = host.release_interface("wlan0")
    assert removed == 2  # on-link /64 plus default route
    assert host.routes.lookup(Address(CORE, 7)) == (Address(FOREIGN, 1), "wlan1")
    # the old interface keeps no address, and the home address stays
    # validated with the host
    assert host.addresses["wlan0"] is None
    assert host.validated == {host.home_address, coa}
    host.release_interface("wlan1")  # a care-of address goes with its link
    assert host.validated == {host.home_address}


def test_home_address_stays_on_the_old_interface_while_none_serves():
    # beacon loss: nothing serves. The interface's link and address go, but
    # the home address stays validated, so the interface takes it back on
    # its next home RA with no DAD
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(1.0)
    host.release_interface("wlan0")
    assert host.addresses["wlan0"] is None and host.global_address("wlan0") is None
    assert host.validated == {host.home_address}
    host.on_router_advertisement("wlan0", ha_ra())
    assert host.global_address("wlan0") == host.home_address
    assert notes == ["wlan0", "wlan0"] and len(host.dad_log) == 1


def test_route_lookup_prefers_on_link_then_default():
    rt = RoutingTable()
    rt.add(None, Address(HOME, 1), "wlan0")
    rt.add(FOREIGN, Address(FOREIGN, 1), "wlan1")
    rt.add(None, Address(FOREIGN, 1), "wlan1")
    assert rt.lookup(Address(FOREIGN, 9)) == (Address(FOREIGN, 1), "wlan1")
    assert rt.lookup(Address(CORE, 9)) == (Address(FOREIGN, 1), "wlan1")  # newest default
    assert rt.lookup(Address(CORE, 9), iface="wlan0") == (Address(HOME, 1), "wlan0")
    assert rt.lookup(Address(CORE, 9), iface="wlan9") is None
    assert RoutingTable().lookup(Address(CORE, 9)) is None


def test_route_add_is_idempotent_per_interface():
    rt = RoutingTable()
    rt.add(FOREIGN, Address(FOREIGN, 1), "wlan1")
    rt.add(FOREIGN, Address(FOREIGN, 2), "wlan1")  # refresh, not duplicate
    assert len(rt.entries) == 1
    assert rt.entries[0].next_hop == Address(FOREIGN, 2)
