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

    def add(self, prefix: Optional[int], next_hop: Address, out_iface: str) -> None:
        for e in self.entries:
            if e.prefix == prefix and e.out_iface == out_iface:
                e.next_hop = next_hop
                return
        self.entries.append(RouteEntry(prefix, next_hop, out_iface))

    def remove_for_iface(self, iface_id: str) -> int:
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
    addresses: list[Address] = field(default_factory=list)
    on_link_prefix: Optional[int] = None

    def address_for_prefix(self, prefix: Optional[int]) -> Optional[Address]:
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
                 dad_duration: float = 1.0):
        self.sim = sim
        self.node_id = node_id
        self.dad_duration = dad_duration
        self.notify_global = on_address_global
        self.records: dict[str, InterfaceRecord] = {}
        self.routes = RoutingTable()
        self.home_address: Optional[Address] = None
        self.ha_address: Optional[Address] = None
        self._iface_index: dict[str, int] = {}
        self._dad_handles: dict[str, EventHandle] = {}
        self.dad_log: list[tuple[float, str, Address]] = []

    def add_interface(self, iface_id: str, index: int) -> None:
        self.records[iface_id] = InterfaceRecord()
        self._iface_index[iface_id] = index

    def iid(self, iface_id: str) -> int:
        return derive_iid(self.node_id, self._iface_index[iface_id])

    # -- neighbor discovery --------------------------------------------------

    def on_router_advertisement(self, iface_id: str, ra: RouterAdvertisement) -> None:
        rec = self.records[iface_id]
        rec.on_link_prefix = ra.prefix
        self.routes.add(ra.prefix, ra.router, iface_id)
        self.routes.add(None, ra.router, iface_id)
        self.sim.trace(self.node_id, "ipv6", "ra", f"iface={iface_id} prefix={ra.prefix:#x}")

        if ra.is_home_agent and self.home_address is None:
            # first home RA: learn home network and form the home address (tentative)
            self.ha_address = ra.router
            addr = Address(ra.prefix, self.iid(iface_id), "tentative")
            self.home_address = addr
            rec.addresses.append(addr)
            self.start_dad(iface_id, addr)
            return

        hoa = self.home_address
        if hoa is not None and hoa.prefix == ra.prefix and hoa.scope == "global":
            # the validated home address is reusable on returning home
            # without a fresh DAD round; an address on any other prefix is
            # released with its link (release_interface)
            if hoa not in rec.addresses:
                rec.addresses.append(hoa)
            self.notify_global(iface_id)
            return
        self.slaac_configure(iface_id, ra.prefix)

    # -- address configuration -------------------------------------------------

    def slaac_configure(self, iface_id: str, prefix: int) -> None:
        rec = self.records[iface_id]
        if rec.address_for_prefix(prefix) is not None:
            return  # global: no DAD; tentative: DAD already running
        addr = Address(prefix, self.iid(iface_id), "tentative")
        rec.addresses.append(addr)
        if self.sim.tracing:
            self.sim.trace(self.node_id, "ipv6", "slaac", f"iface={iface_id} addr={addr}")
        self.start_dad(iface_id, addr)

    def start_dad(self, iface_id: str, addr: Address) -> None:
        if addr.scope != "tentative":
            raise ValueError("DAD requires a tentative address")
        if self.sim.tracing:
            self.sim.trace(self.node_id, "ipv6", "dad_start", f"iface={iface_id} addr={addr}")
        self._dad_handles[iface_id] = self.sim.schedule_in(
            self.dad_duration, self._dad_done, iface_id, addr)

    def _dad_done(self, iface_id: str, addr: Address) -> None:
        addr.scope = "global"
        self._dad_handles.pop(iface_id, None)
        self.dad_log.append((self.sim.now, iface_id, addr))
        if self.sim.tracing:
            self.sim.trace(self.node_id, "ipv6", "dad_done", f"iface={iface_id} addr={addr}")
        self.notify_global(iface_id)

    # -- interface release -------------------------------------------------------

    def release_interface(self, iface_id: str, serving: Optional[str]) -> int:
        """Link loss or disassociation: cancel DAD and drop the interface's
        routes and addresses. The global home address stays on it while no
        other interface serves."""
        handle = self._dad_handles.pop(iface_id, None)
        if handle is not None:
            self.sim.cancel(handle)
        removed = self.routes.remove_for_iface(iface_id)
        keep = self.home_address if serving in (None, iface_id) else None
        rec = self.records[iface_id]
        rec.addresses = [a for a in rec.addresses if a == keep and a.scope == "global"]
        self.sim.trace(self.node_id, "ipv6", "route_cleanup",
                       f"iface={iface_id} removed={removed}")
        return removed

    # -- forwarding helpers --------------------------------------------------------

    def global_address(self, iface_id: str) -> Optional[Address]:
        """The interface's usable address on its current link (the CoA, or HoA at home)."""
        rec = self.records[iface_id]  # no address has prefix None
        a = rec.address_for_prefix(rec.on_link_prefix)
        return a if a is not None and a.scope == "global" else None
