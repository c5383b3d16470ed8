"""Minimal IPv6 host plane: router advertisements, SLAAC, DAD, routing table.

An address is a 64-bit prefix plus a 64-bit interface identifier and
carries nothing else: whether DAD validated it is the host's to know
(Ipv6Host.validated). DAD is a pure delay; no duplicate ever exists at
this scale.
"""

from __future__ import annotations

from _blake2 import blake2b  # the standard blake2b, imported without loading OpenSSL
from typing import Any, Callable, NamedTuple, Optional

from .engine import EventHandle, Simulator

IPV6_HEADER_BITS = 320


def derive_iid(node_id: str, iface_index: int) -> int:
    """Stable per-interface identifier, collision-free at scenario scale."""
    digest = blake2b(f"{node_id}/{iface_index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class Address(NamedTuple):
    prefix: int
    iid: int

    def __str__(self):
        val = (self.prefix << 64) | self.iid
        groups = [f"{(val >> (112 - 16 * i)) & 0xFFFF:x}" for i in range(8)]
        return ":".join(groups)


class Packet(NamedTuple):
    src: Address
    dst: Address
    size_bits: int
    payload: Any = None
    inner: Optional[Packet] = None


class RouterAdvertisement(NamedTuple):
    prefix: int
    router: Address
    is_home_agent: bool = False


class RouteEntry(NamedTuple):
    prefix: Optional[int]  # None = default route
    next_hop: Address
    out_iface: str


class RoutingTable:
    def __init__(self):
        self.entries: list[RouteEntry] = []

    def add(self, prefix: Optional[int], next_hop: Address, out_iface: str) -> None:
        entry = RouteEntry(prefix, next_hop, out_iface)
        for i, e in enumerate(self.entries):
            if e.prefix == prefix and e.out_iface == out_iface:
                self.entries[i] = entry
                return
        self.entries.append(entry)

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


class Ipv6Host:
    """Host-side IPv6 for the mobile node, and the one owner of address
    validity.

    The home address is configured (RFC 6275 assumes it); the first home RA
    teaches the home agent's address. Each interface holds at most one
    address, on its current link: the home address on the home prefix, else
    the RA's prefix plus the interface's identifier. `validated` holds the
    addresses DAD validated, the home address too, on the home link. An
    interface's own address leaves it when its link is released; the home
    address stays in it for good, so a return home reuses it without DAD.

    on_address_global(iface_id) is invoked whenever an interface gains a
    validated address on its link (after DAD, or at once when the validated
    home address is reused on returning home).
    """

    def __init__(self, sim: Simulator, node_id: str, home_address: Address,
                 on_address_global: Callable[[str], None], dad_duration: float):
        self.sim = sim
        self.node_id = node_id
        self.dad_duration = dad_duration
        self.notify_global = on_address_global
        self.addresses: dict[str, Optional[Address]] = {}
        self.validated: set[Address] = set()
        self.routes = RoutingTable()
        self.home_address = home_address
        self.ha_address: Optional[Address] = None
        self._iface_index: dict[str, int] = {}
        self._dad_handles: dict[str, EventHandle] = {}
        self.dad_log: list[tuple[float, str, Address]] = []

    def add_interface(self, iface_id: str, index: int) -> None:
        self.addresses[iface_id] = None
        self._iface_index[iface_id] = index

    def iid(self, iface_id: str) -> int:
        return derive_iid(self.node_id, self._iface_index[iface_id])

    # -- neighbor discovery and address configuration ---------------------------

    def on_router_advertisement(self, iface_id: str, ra: RouterAdvertisement) -> None:
        self.routes.add(ra.prefix, ra.router, iface_id)
        self.routes.add(None, ra.router, iface_id)
        self.sim.trace(self.node_id, "ipv6", "ra", f"iface={iface_id} prefix={ra.prefix:#x}")

        hoa = self.home_address
        first = ra.is_home_agent and self.ha_address is None
        if first:  # the first home RA: learn the home agent
            self.ha_address = ra.router
        addr = hoa if hoa.prefix == ra.prefix else Address(ra.prefix, self.iid(iface_id))
        if addr == hoa and addr in self.validated:
            # a return home reuses the validated home address without DAD
            self.addresses[iface_id] = addr
            self.notify_global(iface_id)
        elif self.addresses[iface_id] != addr:  # else validated, or its DAD is running
            self.addresses[iface_id] = addr
            if self.sim.tracing and not first:
                self.sim.trace(self.node_id, "ipv6", "slaac", f"iface={iface_id} addr={addr}")
            self.start_dad(iface_id, addr)

    def start_dad(self, iface_id: str, addr: Address) -> None:
        if addr in self.validated:
            raise ValueError("DAD requires an address not yet validated")
        if self.sim.tracing:
            self.sim.trace(self.node_id, "ipv6", "dad_start", f"iface={iface_id} addr={addr}")
        self._dad_handles[iface_id] = self.sim.schedule_in(
            self.dad_duration, self._dad_done, iface_id, addr)

    def _dad_done(self, iface_id: str, addr: Address) -> None:
        self.validated.add(addr)
        self._dad_handles.pop(iface_id, None)
        self.dad_log.append((self.sim.now, iface_id, addr))
        if self.sim.tracing:
            self.sim.trace(self.node_id, "ipv6", "dad_done", f"iface={iface_id} addr={addr}")
        self.notify_global(iface_id)

    # -- interface release -------------------------------------------------------

    def release_interface(self, iface_id: str) -> int:
        """Link loss or disassociation: cancel DAD and drop the interface's
        routes and address. Only the home address stays validated."""
        handle = self._dad_handles.pop(iface_id, None)
        if handle is not None:
            self.sim.cancel(handle)
        removed = self.routes.remove_for_iface(iface_id)
        addr, self.addresses[iface_id] = self.addresses[iface_id], None
        if addr != self.home_address:
            self.validated.discard(addr)
        self.sim.trace(self.node_id, "ipv6", "route_cleanup",
                       f"iface={iface_id} removed={removed}")
        return removed

    # -- forwarding helpers --------------------------------------------------------

    def global_address(self, iface_id: str) -> Optional[Address]:
        """The interface's validated address on its current link (the CoA, or
        HoA at home)."""
        addr = self.addresses[iface_id]
        return addr if addr in self.validated else None
