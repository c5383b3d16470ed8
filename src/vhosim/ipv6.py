"""Minimal IPv6 host plane: router advertisements, SLAAC, DAD, routing table.

Addresses are a 64-bit prefix plus a 64-bit interface identifier with a
tentative/global scope tag. DAD is a pure delay followed by the
tentative-to-global transition; no duplicate ever exists at this scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .engine import EventHandle, Simulator

IPV6_HEADER_BITS = 320


def derive_iid(node_id: str, iface_index: int) -> int:
    """Stable per-interface identifier, collision-free at scenario scale."""
    digest = hashlib.blake2b(f"{node_id}/{iface_index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass
class Address:
    prefix: int
    iid: int
    scope: str = "global"  # tentative | global

    def __eq__(self, other):
        return (isinstance(other, Address)
                and self.prefix == other.prefix and self.iid == other.iid)

    def __hash__(self):
        return hash((self.prefix, self.iid))

    def __str__(self):
        val = (self.prefix << 64) | self.iid
        groups = [f"{(val >> (112 - 16 * i)) & 0xFFFF:x}" for i in range(8)]
        return ":".join(groups)


@dataclass
class Packet:
    src: Address
    dst: Address
    kind: str  # app | bu | ba | tunnel
    size_bits: int
    payload: Any = None
    inner: Optional["Packet"] = None


@dataclass
class RouterAdvertisement:
    prefix: int
    router: Address
    is_home_agent: bool = False


@dataclass
class RouteEntry:
    prefix: Optional[int]  # None = default route
    next_hop: Address
    out_iface: str


class RoutingTable:
    def __init__(self):
        self.entries: list[RouteEntry] = []
        self.version = 0  # bumped on any change; lets callers cache lookups

    def add(self, prefix: Optional[int], next_hop: Address, out_iface: str) -> None:
        self.version += 1
        for e in self.entries:
            if e.prefix == prefix and e.out_iface == out_iface:
                e.next_hop = next_hop
                return
        self.entries.append(RouteEntry(prefix, next_hop, out_iface))

    def remove_for_iface(self, iface_id: str) -> int:
        self.version += 1
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.out_iface != iface_id]
        return before - len(self.entries)

    def lookup(self, dst: Address, iface: Optional[str] = None) -> Optional[tuple[Address, str]]:
        """Longest-prefix match (here: exact /64 beats default), newest wins ties."""
        prefix = dst.prefix
        default = None
        for e in reversed(self.entries):
            if iface is not None and e.out_iface != iface:
                continue
            if e.prefix == prefix:
                return (e.next_hop, e.out_iface)
            if default is None and e.prefix is None:
                default = (e.next_hop, e.out_iface)
        return default


@dataclass
class InterfaceRecord:
    iface_id: str
    addresses: list[Address] = field(default_factory=list)
    on_link_prefix: Optional[int] = None
    home_prefix: Optional[int] = None
    home_address: Optional[Address] = None

    def address_for_prefix(self, prefix: int) -> Optional[Address]:
        for a in self.addresses:
            if a.prefix == prefix:
                return a
        return None


class Ipv6Host:
    """Host-side IPv6 for the mobile node.

    on_address_global(iface_id) is invoked whenever an interface gains a
    usable global address for its on-link prefix (after DAD, or immediately
    when a previously validated address is reused on returning home).
    """

    def __init__(self, sim: Simulator, node_id: str,
                 on_address_global: Callable[[str], None],
                 dad_duration: float = 1.0,
                 serving_iface: Optional[Callable[[], Optional[str]]] = None):
        self.sim = sim
        self.node_id = node_id
        self.dad_duration = dad_duration
        self.notify_global = on_address_global
        self.serving_iface = serving_iface or (lambda: None)
        self.records: dict[str, InterfaceRecord] = {}
        self.routes = RoutingTable()
        self.home_prefix: Optional[int] = None
        self.home_address: Optional[Address] = None
        self.ha_address: Optional[Address] = None
        self._iface_index: dict[str, int] = {}
        self._dad_handles: dict[str, EventHandle] = {}
        self.dad_log: list[tuple[float, str, Address]] = []

    def add_interface(self, iface_id: str, index: int) -> InterfaceRecord:
        rec = InterfaceRecord(iface_id)
        self.records[iface_id] = rec
        self._iface_index[iface_id] = index
        return rec

    def iid(self, iface_id: str) -> int:
        return derive_iid(self.node_id, self._iface_index[iface_id])

    # -- neighbor discovery --------------------------------------------------

    def on_router_advertisement(self, iface_id: str, ra: RouterAdvertisement,
                                link_up: bool = True) -> None:
        if not link_up:
            return
        rec = self.records[iface_id]
        rec.on_link_prefix = ra.prefix
        self.routes.add(ra.prefix, ra.router, iface_id)
        self.routes.add(None, ra.router, iface_id)
        self.sim.trace(self.node_id, "ipv6", "ra", f"iface={iface_id} prefix={ra.prefix:#x}")

        if ra.is_home_agent and self.home_prefix is None:
            # first home RA: learn home network and form the home address (tentative)
            self.home_prefix = ra.prefix
            self.ha_address = ra.router
            addr = Address(ra.prefix, self.iid(iface_id), "tentative")
            self.home_address = addr
            rec.home_prefix = ra.prefix
            rec.home_address = addr
            rec.addresses.append(addr)
            self.start_dad(iface_id, addr)
            return

        existing = self._known_global(ra.prefix)
        if existing is not None:
            # a previously validated address (the HoA on returning home) is
            # reusable without a fresh DAD round
            if existing not in rec.addresses:
                rec.addresses.append(existing)
            self.notify_global(iface_id)
            return
        self.slaac_configure(iface_id, ra.prefix)

    def _known_global(self, prefix: int) -> Optional[Address]:
        if (self.home_address is not None and self.home_address.prefix == prefix
                and self.home_address.scope == "global"):
            return self.home_address
        for rec in self.records.values():
            a = rec.address_for_prefix(prefix)
            if a is not None and a.scope == "global":
                return a
        return None

    # -- address configuration -------------------------------------------------

    def slaac_configure(self, iface_id: str, prefix: int) -> None:
        rec = self.records[iface_id]
        if rec.address_for_prefix(prefix) is not None:
            return  # global: no DAD; tentative: DAD already running
        addr = Address(prefix, self.iid(iface_id), "tentative")
        rec.addresses.append(addr)
        self.sim.trace(self.node_id, "ipv6", "slaac", f"iface={iface_id} addr={addr}")
        self.start_dad(iface_id, addr)

    def start_dad(self, iface_id: str, addr: Address) -> None:
        if addr.scope != "tentative":
            raise ValueError("DAD requires a tentative address")
        self.sim.trace(self.node_id, "ipv6", "dad_start", f"iface={iface_id} addr={addr}")
        self._dad_handles[iface_id] = self.sim.schedule_in(
            self.dad_duration, self._dad_done, iface_id, addr)

    def _dad_done(self, iface_id: str, addr: Address) -> None:
        addr.scope = "global"
        self._dad_handles.pop(iface_id, None)
        self.dad_log.append((self.sim.now, iface_id, addr))
        self.sim.trace(self.node_id, "ipv6", "dad_done", f"iface={iface_id} addr={addr}")
        self.notify_global(iface_id)

    def on_interface_down(self, iface_id: str) -> None:
        """Link loss or disassociation: cancel DAD, drop tentative addresses."""
        handle = self._dad_handles.pop(iface_id, None)
        if handle is not None:
            self.sim.cancel(handle)
        rec = self.records[iface_id]
        rec.addresses = [a for a in rec.addresses if a.scope == "global"]

    # -- handover cleanup --------------------------------------------------------

    def update_routes_after_handover(self, prev_iface: str) -> int:
        removed = self.routes.remove_for_iface(prev_iface)
        rec = self.records.get(prev_iface)
        if rec is not None:
            rec.addresses = [a for a in rec.addresses
                             if rec.home_address is not None and a == rec.home_address]
            # home knowledge follows the node, not the interface
            serving = self.serving_iface()
            if rec.home_prefix is not None and serving is not None and serving != prev_iface:
                new_rec = self.records[serving]
                new_rec.home_prefix = rec.home_prefix
                new_rec.home_address = rec.home_address
                rec.home_prefix = None
                rec.home_address = None
                rec.addresses = []
        self.sim.trace(self.node_id, "ipv6", "route_cleanup",
                       f"iface={prev_iface} removed={removed}")
        return removed

    # -- forwarding helpers --------------------------------------------------------

    def global_address(self, iface_id: str) -> Optional[Address]:
        """The interface's usable address on its current link (the CoA, or HoA at home)."""
        rec = self.records[iface_id]
        if rec.on_link_prefix is None:
            return None
        a = rec.address_for_prefix(rec.on_link_prefix)
        if a is not None and a.scope == "global":
            return a
        return None
