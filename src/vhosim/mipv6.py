"""MIPv6 mobility plane: binding cache, BU/BA signaling, bidirectional tunneling.

MN-initiated sessions put the home address in the inner datagram source so
the correspondent node always replies through the home network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import EventHandle, Simulator
from .ipv6 import IPV6_HEADER_BITS, Address, Packet

BU_BITS = 800
BA_BITS = 800
DEFAULT_BINDING_LIFETIME = 420.0
BU_RETRANSMIT_INTERVAL = 1.0
BU_MAX_ATTEMPTS = 3


class TunnelError(Exception):
    pass


@dataclass
class BindingUpdate:
    hoa: Address
    coa: Address
    seq: int
    lifetime: float  # 0 = deregistration


@dataclass
class BindingAck:
    hoa: Address
    seq: int
    status: str  # accepted | rejected-stale


@dataclass
class BindingCacheEntry:
    hoa: Address
    coa: Address
    seq: int
    lifetime: float
    created_at: float


def encapsulate(pkt: Packet, outer_src: Address, outer_dst: Address) -> Packet:
    return Packet(outer_src, outer_dst, "tunnel",
                  pkt.size_bits + IPV6_HEADER_BITS, inner=pkt)


def decapsulate(pkt: Packet) -> Packet:
    if pkt.inner is None:
        raise TunnelError("packet carries no inner datagram")
    return pkt.inner


class BindingCache:
    """HA-side HoA->CoA table with strictly increasing sequence numbers."""

    def __init__(self):
        self.entries: dict[Address, BindingCacheEntry] = {}
        self._last_seq: dict[Address, int] = {}

    def process(self, bu: BindingUpdate, now: float) -> BindingAck:
        last = self._last_seq.get(bu.hoa)
        if last is not None and bu.seq <= last:
            return BindingAck(bu.hoa, bu.seq, "rejected-stale")
        self._last_seq[bu.hoa] = bu.seq
        if bu.lifetime <= 0:
            self.entries.pop(bu.hoa, None)
        else:
            self.entries[bu.hoa] = BindingCacheEntry(
                bu.hoa, bu.coa, bu.seq, bu.lifetime, now)
        return BindingAck(bu.hoa, bu.seq, "accepted")

    def lookup(self, hoa: Address, now: float) -> Optional[Address]:
        entry = self.entries.get(hoa)
        if entry is None:
            return None
        if now - entry.created_at > entry.lifetime:
            del self.entries[hoa]
            return None
        return entry.coa


class HomeAgentCore:
    """Binding management and interception, independent of topology wiring."""

    def __init__(self, address: Address, home_prefix: int):
        self.address = address
        self.home_prefix = home_prefix
        self.cache = BindingCache()

    def process_bu(self, bu: BindingUpdate, now: float) -> BindingAck:
        return self.cache.process(bu, now)

    def intercept(self, pkt: Packet, now: float) -> tuple[str, Packet]:
        """Route a packet addressed into the home prefix.

        Returns ("tunnel", encapsulated) when a binding exists for the
        destination, otherwise ("native", pkt) for on-link delivery; a native
        delivery to an absent node drops at the radio and is counted there.
        """
        coa = self.cache.lookup(pkt.dst, now)
        if coa is not None:
            return ("tunnel", encapsulate(pkt, self.address, coa))
        return ("native", pkt)


class MnBindingManager:
    """MN-side registration: BU emission with retransmission, tunnel wrap/unwrap."""

    def __init__(self, sim: Simulator, host, llc, send_packet: Callable[[Packet], None],
                 node_id: str = "mn", lifetime: float = DEFAULT_BINDING_LIFETIME):
        self.sim = sim
        self.host = host  # Ipv6Host: home/HA knowledge, addresses
        self.llc = llc
        self.send_packet = send_packet
        self.node_id = node_id
        self.lifetime = lifetime
        self.seq = 0
        self.binding_active = False
        self._awaiting: Optional[BindingUpdate] = None
        self._attempts = 0
        self._retransmit: Optional[EventHandle] = None
        self._refresh: Optional[EventHandle] = None
        self.bu_log: list[tuple[float, int, Address, float]] = []
        self.ba_log: list[tuple[float, int, str]] = []

    # -- state queries -------------------------------------------------------

    def current_coa(self) -> Optional[Address]:
        iface = self.llc.serving_interface()
        return None if iface is None else self.host.global_address(iface)

    def at_home(self) -> bool:
        coa = self.current_coa()
        return (coa is not None and self.host.home_prefix is not None
                and coa.prefix == self.host.home_prefix)

    # -- registration ----------------------------------------------------------

    def on_serving_changed(self) -> None:
        """Called after a promotion; registers or deregisters as needed."""
        coa = self.current_coa()
        if coa is None or self.host.home_prefix is None or self.host.ha_address is None:
            return  # deferred until the next promotion provides an address
        if coa.prefix == self.host.home_prefix:
            if self.binding_active or self._awaiting is not None:
                self._send_bu(coa, 0.0)
        else:
            self._send_bu(coa, self.lifetime)

    def _send_bu(self, coa: Address, lifetime: float) -> None:
        self._cancel_timers()
        self.seq += 1
        self._awaiting = BindingUpdate(self.host.home_address, coa, self.seq, lifetime)
        self._attempts = 0
        self._transmit()

    def _transmit(self) -> None:
        bu = self._awaiting
        if bu is None:
            return
        if self._attempts >= BU_MAX_ATTEMPTS:
            self.sim.trace(self.node_id, "mipv6", "bu_giveup", f"seq={bu.seq}")
            self._awaiting = None
            return
        self._attempts += 1
        pkt = Packet(bu.coa, self.host.ha_address, "bu", BU_BITS + IPV6_HEADER_BITS,
                     payload=bu)
        self.bu_log.append((self.sim.now, bu.seq, bu.coa, bu.lifetime))
        self.sim.trace(self.node_id, "mipv6", "bu_send",
                       f"seq={bu.seq} coa={bu.coa} lifetime={bu.lifetime}")
        self.send_packet(pkt)
        self._retransmit = self.sim.schedule_in(BU_RETRANSMIT_INTERVAL, self._transmit)

    def on_binding_ack(self, ba: BindingAck) -> None:
        self.ba_log.append((self.sim.now, ba.seq, ba.status))
        self.sim.trace(self.node_id, "mipv6", "ba_recv", f"seq={ba.seq} {ba.status}")
        bu = self._awaiting
        if bu is None or ba.seq != bu.seq or ba.status != "accepted":
            return
        self._cancel_timers()
        self._awaiting = None
        self.binding_active = bu.lifetime > 0
        if self.binding_active:
            self._refresh = self.sim.schedule_in(bu.lifetime / 2.0, self._refresh_binding)

    def _refresh_binding(self) -> None:
        self._refresh = None
        coa = self.current_coa()
        if self.binding_active and coa is not None and not self.at_home():
            self._send_bu(coa, self.lifetime)

    def _cancel_timers(self) -> None:
        if self._retransmit is not None:
            self.sim.cancel(self._retransmit)
            self._retransmit = None
        if self._refresh is not None:
            self.sim.cancel(self._refresh)
            self._refresh = None

    # -- data plane --------------------------------------------------------------

    def wrap_outgoing(self, inner: Packet) -> Optional[Packet]:
        """Reverse tunnel to the HA while away; native with src=HoA at home."""
        coa = self.current_coa()
        if coa is None:
            return None
        if coa.prefix == self.host.home_prefix:
            return inner
        return encapsulate(inner, coa, self.host.ha_address)

    def unwrap_incoming(self, pkt: Packet) -> Optional[Packet]:
        """Decapsulate an HA tunnel addressed to one of our current addresses."""
        if pkt.inner is None:
            raise TunnelError("packet carries no inner datagram")
        coa = self.current_coa()
        if coa is None or pkt.dst != coa or pkt.src != self.host.ha_address:
            return None  # stale CoA or unexpected tunnel endpoint
        return decapsulate(pkt)
