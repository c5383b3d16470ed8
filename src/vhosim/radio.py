"""Free-space propagation, access-point beaconing, channel-gated frame delivery.

No MAC contention, fading or interference: the scenario uses orthogonal
channels in free space, so delivery is deterministic range + channel gating
at a fixed bitrate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .engine import Simulator

SPEED_OF_LIGHT = 299_792_458.0
_FSPL_CONST_DB = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)

BEACON_BITS = 640
ASSOC_BITS = 512
DISASSOC_BITS = 256
MAC_OVERHEAD_BITS = 272


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB."""
    if distance_m <= 0:
        raise ValueError("distance must be > 0")
    if frequency_hz <= 0:
        raise ValueError("frequency must be > 0")
    return 20.0 * math.log10(distance_m) + 20.0 * math.log10(frequency_hz) + _FSPL_CONST_DB


def rx_power_dbm(tx_power_dbm: float, distance_m: float, frequency_hz: float,
                 d_ref: float = 1.0) -> float:
    """Received power; distances below d_ref clamp to d_ref (near field)."""
    return tx_power_dbm - fspl_db(max(distance_m, d_ref), frequency_hz)


@dataclass
class ApConfig:
    ap_id: str
    x: float
    y: float
    channel: int
    tx_power_dbm: float = 0.0
    beacon_interval: float = 0.1


@dataclass
class Frame:
    kind: str  # beacon | assoc_request | assoc_response | disassoc | data
    src: str
    channel: int
    size_bits: int
    payload: Any = None


class Medium:
    """Shared wireless medium: range checks and serialization-delayed delivery."""

    def __init__(self, sim: Simulator, frequency_hz: float = 2.4e9,
                 sensitivity_dbm: float = -85.0, bitrate: float = 2e6,
                 d_ref: float = 1.0,
                 drop_hook: Optional[Callable[[Any], None]] = None):
        self.sim = sim
        self.frequency_hz = frequency_hz
        self.sensitivity_dbm = sensitivity_dbm
        self.bitrate = bitrate
        self.d_ref = d_ref
        self.drop_hook = drop_hook
        self.ifaces: list = []  # mobile-node interfaces listening on the medium
        # (ap, iface) -> (verdict, valid_until): a range verdict cannot flip
        # before the node has covered the distance margin to the coverage edge
        self._range_verdicts: dict[tuple[int, int], tuple[bool, float]] = {}

    def register_iface(self, iface) -> None:
        self.ifaces.append(iface)

    def coverage_radius2(self, tx_power_dbm: float) -> float:
        """Squared closed-form coverage radius: cheaper to compare against on
        every packet than a full path-loss evaluation."""
        budget = tx_power_dbm - self.sensitivity_dbm
        d_max = 10.0 ** ((budget - 20.0 * math.log10(self.frequency_hz)
                          - _FSPL_CONST_DB) / 20.0)
        # inside d_ref the received power clamps; below-sensitivity there
        # means below-sensitivity everywhere
        return d_max * d_max if d_max >= self.d_ref else -1.0

    def in_range(self, ap: "AccessPoint", pos: tuple[float, float]) -> bool:
        dx = pos[0] - ap.cfg.x
        dy = pos[1] - ap.cfg.y
        return dx * dx + dy * dy <= ap.radius2

    def in_range_moving(self, ap: "AccessPoint", iface, t: float) -> tuple[bool, float]:
        """Range verdict at time t for a node of bounded speed, and the time
        until which it holds: the node cannot cross the coverage edge before
        it has covered its distance to it. Memoized per (ap, iface) for
        queries at non-decreasing times."""
        key = (id(ap), id(iface))
        cached = self._range_verdicts.get(key)
        if cached is not None and t < cached[1]:
            return cached
        pos = iface.position(t)
        dx = pos[0] - ap.cfg.x
        dy = pos[1] - ap.cfg.y
        d2 = dx * dx + dy * dy
        r2 = ap.radius2
        speed = getattr(iface, "max_speed", 0.0)
        if speed > 0.0 and r2 > 0.0:
            margin = abs(math.sqrt(d2) - math.sqrt(r2))
            cached = self._range_verdicts[key] = (d2 <= r2, t + margin / speed)
            return cached
        return (d2 <= r2, t)

    def _drop(self, frame: Frame) -> None:
        if self.drop_hook is not None:
            self.drop_hook(frame.payload)

    def broadcast(self, ap: "AccessPoint", frame: Frame) -> None:
        """Beacons to the interfaces in range, on the AP's channel and not
        bound to another AP (WirelessInterface.allowed_ap)."""
        delay = frame.size_bits / self.bitrate
        for iface in self.ifaces:
            if iface.allowed_ap not in (None, ap.cfg.ap_id):
                continue
            if not iface.listens(frame.channel):
                continue
            if not self.in_range(ap, iface.position(self.sim.now)):
                continue
            self.sim.schedule_in(delay, iface.on_frame, frame)

    def ap_to_iface(self, ap: "AccessPoint", iface, frame: Frame) -> None:
        if not iface.listens(frame.channel):
            self._drop(frame)
            return
        if not self.in_range_moving(ap, iface, self.sim.now)[0]:
            self._drop(frame)
            return
        self.sim.schedule_in(frame.size_bits / self.bitrate, iface.on_frame, frame)

    def iface_to_ap(self, iface, ap: "AccessPoint", frame: Frame) -> None:
        # symmetric link budget: the AP hears the node iff the node hears the AP
        if (frame.channel != ap.cfg.channel
                or not self.in_range_moving(ap, iface, self.sim.now)[0]):
            self._drop(frame)
            return
        delay = frame.size_bits / self.bitrate
        if frame.kind == "data":
            # bridging is the AP's only action on uplink data; hand the packet
            # down its wired path directly after serialization plus the hops
            at = self.sim.now + (delay + ap.lan_delay + ap.uplink_extra_delay)
            self.sim.schedule_at(at, ap.uplink_handler or ap.router.handle,
                                 frame.payload)
        else:
            self.sim.schedule_in(delay, ap.on_frame, frame)

    def uplink_run(self, iface, ap: "AccessPoint", pkt, run) -> None:
        """Uplink data for a run of app packets on the AP's channel.

        pkt is the datagram every packet of the run travels in, so the
        delay to the AP's wired side is the same for all of them, grouped as
        iface_to_ap groups it. Each packet in range at its tick goes on to
        ap.uplink_run; the others drop, in tick order.
        """
        hop = ((pkt.size_bits + MAC_OVERHEAD_BITS) / self.bitrate
               + ap.lan_delay + ap.uplink_extra_delay)
        times = run.times
        n = len(times)
        lo = i = 0
        inside, until = self.in_range_moving(ap, iface, times[0])
        while True:
            i = bisect_left(times, until, i + 1)  # first tick the verdict may not cover
            if i == n:
                break
            verdict, until = self.in_range_moving(ap, iface, times[i])
            if verdict != inside:
                self._pass_run(ap, pkt, run.part(lo, i), inside, hop)
                lo, inside = i, verdict
        self._pass_run(ap, pkt, run if lo == 0 else run.part(lo, n), inside, hop)

    def _pass_run(self, ap: "AccessPoint", pkt, run, inside: bool, hop: float) -> None:
        if inside:
            ap.uplink_run(pkt, run, hop)
        elif self.drop_hook is not None:
            self.drop_hook(run)


class AccessPoint:
    """802.11-style AP: periodic beacons, association handling, station delivery.

    The AP bridges its radio side to a router object exposing handle(pkt) and
    advertisement(); router advertisements are relayed to associated stations
    periodically and immediately upon association.
    """

    def __init__(self, sim: Simulator, cfg: ApConfig, medium: Medium, router,
                 ra_interval: float = 1.0, lan_delay: float = 0.0005):
        self.sim = sim
        self.cfg = cfg
        self.medium = medium
        self.router = router
        self.ra_interval = ra_interval
        self.lan_delay = lan_delay
        self.radius2 = medium.coverage_radius2(cfg.tx_power_dbm)
        self.stations: dict[str, Any] = {}  # iface_id -> interface
        # static uplink data path (handler, extra wired delay beyond the LAN
        # hop); defaults to the attached router, may be pointed past it when
        # the topology makes the next hop unconditional
        self.uplink_handler: Optional[Callable[[Any], None]] = None
        self.uplink_extra_delay: float = 0.0
        # (datagram, run, hop) -> None: takes the packets of a run of app
        # packets, packet k reaching the wired side at times[k] + hop
        self.uplink_run: Optional[Callable[[Any, Any, float], None]] = None

    def start(self) -> None:
        self._beacon_tick(0)
        self._ra_tick(0)

    def _beacon_tick(self, k: int) -> None:
        frame = Frame("beacon", self.cfg.ap_id, self.cfg.channel, BEACON_BITS,
                      payload=self)
        self.medium.broadcast(self, frame)
        self.sim.schedule_at((k + 1) * self.cfg.beacon_interval, self._beacon_tick, k + 1)

    def _ra_tick(self, k: int) -> None:
        for iface in self.stations.values():
            self.send_ra(iface)
        self.sim.schedule_at((k + 1) * self.ra_interval, self._ra_tick, k + 1)

    def send_ra(self, iface) -> None:
        frame = Frame("data", self.cfg.ap_id, self.cfg.channel, BEACON_BITS,
                      payload=self.router.advertisement())
        self.medium.ap_to_iface(self, iface, frame)

    def on_frame(self, frame: Frame) -> None:
        if frame.kind == "assoc_request":
            iface = frame.payload
            self.stations[frame.src] = iface
            self.sim.trace(self.cfg.ap_id, "radio", "assoc", f"station={frame.src}")
            resp = Frame("assoc_response", self.cfg.ap_id, self.cfg.channel,
                         ASSOC_BITS, payload=self)
            self.medium.ap_to_iface(self, iface, resp)
            self.send_ra(iface)
        elif frame.kind == "disassoc":
            self.stations.pop(frame.src, None)
            self.sim.trace(self.cfg.ap_id, "radio", "disassoc", f"station={frame.src}")

    def deliver_packet(self, pkt) -> None:
        """Downlink: radio delivery to the (single) associated station, if any."""
        if not self.stations:
            if self.medium.drop_hook is not None:
                self.medium.drop_hook(pkt)
            return
        for iface in self.stations.values():
            frame = Frame("data", self.cfg.ap_id, self.cfg.channel,
                          pkt.size_bits + MAC_OVERHEAD_BITS, payload=pkt)
            self.medium.ap_to_iface(self, iface, frame)
