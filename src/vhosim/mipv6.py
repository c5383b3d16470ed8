"""MIPv6 mobility plane: binding cache, BU/BA signaling, bidirectional tunneling.

MN-initiated sessions put the home address in the inner datagram source so
the correspondent node always replies through the home network.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .engine import EventHandle, Simulator
from .ipv6 import IPV6_HEADER_BITS, Address, Packet
from .traffic import Ticks

BU_BITS = 800
BA_BITS = 800
BINDING_LIFETIME = 420.0
BU_RETRANSMIT_INTERVAL = 1.0
BU_MAX_ATTEMPTS = 3


class TunnelError(Exception):
    pass


class BindingUpdate(NamedTuple):
    hoa: Address
    coa: Address
    seq: int
    lifetime: float  # 0 = deregistration


class BindingAck(NamedTuple):
    hoa: Address
    seq: int
    status: str  # accepted | rejected-stale


class BindingCacheEntry:
    def __init__(self, coa: Address, lifetime: float, created_at: float):
        self.coa = coa
        self.lifetime = lifetime
        self.created_at = created_at


def encapsulate(pkt: Packet, outer_src: Address, outer_dst: Address) -> Packet:
    return Packet(outer_src, outer_dst, pkt.size_bits + IPV6_HEADER_BITS, inner=pkt)


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
            self.entries[bu.hoa] = BindingCacheEntry(bu.coa, bu.lifetime, now)
        return BindingAck(bu.hoa, bu.seq, "accepted")

    def lookup(self, hoa: Address, now: float) -> Optional[Address]:
        """The CoA bound to hoa at now; an expired entry is deleted."""
        coa, found = self.lookup_run(hoa, Ticks(1.0, [(now, 0, 1)]), 0, 1, float)
        return coa if found else None

    def lookup_run(self, hoa: Address, times: Ticks, lo: int, hi: int,
                   at: Callable[[float], float]) -> tuple[Optional[Address], int]:
        """lookup(hoa, at(times[k])) for k = lo..hi-1 in turn, at not
        decreasing: the CoA, and the first k that finds none. An entry
        expires once now - created_at > lifetime."""
        entry = self.entries.get(hoa)
        if entry is None:
            return None, lo
        end = times.bisect(entry.lifetime, lo, hi, lambda x: at(x) - entry.created_at,
                           right=True)
        if end < hi:
            del self.entries[hoa]
        return entry.coa, end


class MnBindingManager:
    """MN-side registration: BU emission with retransmission, reverse-tunnel wrap."""

    def __init__(self, sim: Simulator, node_id: str, host, llc,
                 send_packet: Callable[[Packet], None]):
        self.sim = sim
        self.node_id = node_id
        self.host = host  # Ipv6Host: home/HA knowledge, addresses
        self.llc = llc
        self.send_packet = send_packet
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
        iface = self.llc.serving
        return None if iface is None else self.host.global_address(iface)

    # -- registration ----------------------------------------------------------

    def on_serving_changed(self) -> None:
        """Called after a promotion; registers or deregisters as needed."""
        coa = self.current_coa()
        if coa is None or self.host.ha_address is None:
            return  # deferred until the next promotion provides an address
        if coa.prefix == self.host.home_address.prefix:
            if self.binding_active or self._awaiting is not None:
                self._send_bu(coa, 0.0)
        else:
            self._send_bu(coa, BINDING_LIFETIME)

    def _send_bu(self, coa: Address, lifetime: float) -> None:
        self._cancel_timers()
        self.seq += 1
        self._awaiting = BindingUpdate(self.host.home_address, coa, self.seq, lifetime)
        self._attempts = 0
        self._transmit()

    def _transmit(self) -> None:
        bu = self._awaiting
        if self._attempts >= BU_MAX_ATTEMPTS:
            self.sim.trace(self.node_id, "mipv6", "bu_giveup", f"seq={bu.seq}")
            self._awaiting = None
            return
        self._attempts += 1
        pkt = Packet(bu.coa, self.host.ha_address, BU_BITS + IPV6_HEADER_BITS, payload=bu)
        self.bu_log.append((self.sim.now, bu.seq, bu.coa, bu.lifetime))
        if self.sim.tracing:
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
        if self.binding_active and coa is not None:
            self._send_bu(coa, BINDING_LIFETIME)

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
        if coa.prefix == self.host.home_address.prefix:
            return inner
        return encapsulate(inner, coa, self.host.ha_address)
