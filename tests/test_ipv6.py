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


def ha_ra():
    return RouterAdvertisement(HOME, Address(HOME, 1), is_home_agent=True)


def fr_ra():
    return RouterAdvertisement(FOREIGN, Address(FOREIGN, 1))


def make_host(sim, notifications):
    host = Ipv6Host(sim, "mn", notifications.append)
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


def test_address_equality_ignores_scope():
    assert Address(HOME, 5, "tentative") == Address(HOME, 5, "global")
    assert len({Address(HOME, 5, "tentative"), Address(HOME, 5, "global")}) == 1


def test_home_ra_forms_tentative_home_address_and_starts_dad():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    sim.run_until(2.0)
    host.on_router_advertisement("wlan0", ha_ra())
    assert host.home_prefix == HOME
    assert host.home_address.scope == "tentative"
    assert host.global_address("wlan0") is None
    assert notes == []
    sim.run_until(2.9)
    assert notes == []  # DAD still pending
    sim.run_until(3.0)  # exactly dad_duration later
    assert host.home_address.scope == "global"
    assert notes == ["wlan0"]
    assert host.dad_log == [(3.0, "wlan0", host.home_address)]


def test_foreign_ra_triggers_slaac_with_fresh_dad():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    rec = host.records["wlan1"]
    assert rec.on_link_prefix == FOREIGN
    addr = rec.address_for_prefix(FOREIGN)
    assert addr.iid == derive_iid("mn", 1)
    assert addr.scope == "tentative"
    sim.run_until(1.0)
    assert notes == ["wlan1"]
    assert host.global_address("wlan1") == addr


def test_repeated_ra_does_not_restart_dad_or_duplicate_address():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(0.5)
    host.on_router_advertisement("wlan1", fr_ra())  # periodic repeat mid-DAD
    sim.run_until(2.0)
    rec = host.records["wlan1"]
    assert len(rec.addresses) == 1
    assert notes == ["wlan1"]  # exactly one DAD completion


def test_ra_on_downed_link_is_ignored():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra(), link_up=False)
    assert host.records["wlan1"].on_link_prefix is None
    assert host.routes.entries == []


def test_interface_down_cancels_dad_and_drops_tentative():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(0.5)
    host.on_interface_down("wlan1")
    sim.run_until(5.0)
    assert notes == []
    assert host.records["wlan1"].addresses == []


def test_returning_to_known_prefix_skips_dad():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.serving_iface = lambda: "wlan0"
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(1.0)
    assert notes == ["wlan0"]
    # leave home, come back: the validated address is reused immediately
    host.on_router_advertisement("wlan0", ha_ra())
    assert notes == ["wlan0", "wlan0"]
    assert host.home_address.scope == "global"
    assert len(host.records["wlan0"].addresses) == 1


def test_route_cleanup_after_handover():
    sim = Simulator()
    notes = []
    host = make_host(sim, notes)
    host.serving_iface = lambda: "wlan1"
    host.on_router_advertisement("wlan0", ha_ra())
    sim.run_until(1.0)
    host.on_router_advertisement("wlan1", fr_ra())
    sim.run_until(2.0)
    removed = host.update_routes_after_handover("wlan0")
    assert removed == 2  # on-link /64 plus default route
    assert host.routes.lookup(Address(CORE, 7)) == (Address(FOREIGN, 1), "wlan1")
    # home knowledge migrated to the new serving interface
    assert host.records["wlan1"].home_address == host.home_address
    assert host.records["wlan0"].home_address is None


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
