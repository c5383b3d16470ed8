"""Free-space propagation, access-point beaconing, range-gated frame delivery.

No MAC contention, fading or interference: the two networks use
non-overlapping radio channels in free space, so delivery is a deterministic
range check at a fixed bitrate, and the beacons an interface hears are known
in advance. An interface hears the beacons of the AP it listens to (of every
AP while it listens to none); other frames pass between an AP and its station.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Callable, NamedTuple, Optional

from .engine import EventHandle, Simulator, first_tick
from .traffic import Ticks

SPEED_OF_LIGHT = 299_792_458.0
_FSPL_CONST_DB = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)

BEACON_BITS = 640
ASSOC_BITS = 512
MAC_OVERHEAD_BITS = 272
LAN_DELAY = 0.0005  # an AP's wired hop to its router


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB."""
    if distance_m <= 0:
        raise ValueError("distance must be > 0")
    if frequency_hz <= 0:
        raise ValueError("frequency must be > 0")
    return 20.0 * math.log10(distance_m) + 20.0 * math.log10(frequency_hz) + _FSPL_CONST_DB


def rx_power_dbm(tx_power_dbm: float, distance_m: float, frequency_hz: float,
                 d_ref: float) -> float:
    """Received power; distances below d_ref clamp to d_ref (near field)."""
    return tx_power_dbm - fspl_db(max(distance_m, d_ref), frequency_hz)


def coverage_radius2(tx_power_dbm: float, sensitivity_dbm: float, frequency_hz: float,
                     d_ref: float) -> float:
    """Squared closed-form coverage radius of a radio budget: cheaper to
    compare against on every packet than a full path-loss evaluation."""
    budget = tx_power_dbm - sensitivity_dbm
    d_max = 10.0 ** ((budget - 20.0 * math.log10(frequency_hz) - _FSPL_CONST_DB) / 20.0)
    # inside d_ref the received power clamps; below-sensitivity there
    # means below-sensitivity everywhere
    return d_max * d_max if d_max >= d_ref else -1.0


class ApConfig(NamedTuple):
    ap_id: str
    x: float
    y: float
    tx_power_dbm: float
    beacon_interval: float


class Frame(NamedTuple):
    kind: str  # beacon | assoc_request | assoc_response | data
    size_bits: int
    payload: Any = None  # the AP (beacon, response), the interface (request), a datagram or an RA


class Medium:
    """Shared wireless medium: range checks and serialization-delayed delivery."""

    def __init__(self, sim: Simulator, drop_hook: Callable[[Any], None],
                 frequency_hz: float, sensitivity_dbm: float, bitrate: float,
                 d_ref: float, horizon: float):
        self.sim = sim
        self.frequency_hz = frequency_hz
        self.sensitivity_dbm = sensitivity_dbm
        self.bitrate = bitrate
        self.d_ref = d_ref
        self.drop_hook = drop_hook  # takes the runs of app packets lost out of range
        self.horizon = horizon  # the end of the run
        self.beacons = BeaconLedger(self)
        self._coverage: dict[tuple, tuple[list[float], list]] = {}  # (ap, iface) -> table

    def in_range(self, ap: "AccessPoint", pos: tuple[float, float]) -> bool:
        dx = pos[0] - ap.cfg.x
        dy = pos[1] - ap.cfg.y
        return dx * dx + dy * dy <= ap.radius2

    def coverage(self, ap: "AccessPoint", iface) -> tuple[list[float], list]:
        """Where the interface hears ap up to the horizon, solved once per run:
        the ends of the rings, the intervals in which the node is within a
        margin of the coverage edge, in order and then the horizon; and the
        verdict of each gap before, between and after them (None if empty),
        Medium.in_range at its midpoint. The margin, 1e-9 of the sum of the
        radius, the distance travelled and the absolute AP and field-corner
        coordinates, lies far beyond rounding: in a gap the verdict cannot flip.
        A stationary node has no ring, nor has a node whose field's bounding
        box lies inside the margin's inner circle or outside its outer one.
        Any other path retraced between two beacons (speed times
        beacon_interval at least its length), or with no horizon, is one
        ring: its periods are too many to unfold."""
        if (ap, iface) in self._coverage:
            return self._coverage[ap, iface]
        path, h = iface.path, self.horizon
        if path is None or path.length == 0.0:
            rings = []
        else:
            x, y = ap.cfg.x, ap.cfg.y
            r = math.sqrt(max(ap.radius2, 0.0))
            m = 1e-9 * (r + abs(x) + abs(y) + abs(path.x1) + abs(path.x2)
                        + abs(path.y1) + abs(path.y2) + path.speed * h)
            # the field's bounding box as offsets from the AP, per axis
            xa, xb = sorted((path.x1 - x, path.x2 - x))
            ya, yb = sorted((path.y1 - y, path.y2 - y))
            near = math.hypot(max(xa, -xb, 0.0), max(ya, -yb, 0.0))
            far = math.hypot(max(-xa, xb), max(-ya, yb))
            if far < r - m or near > r + m:
                rings = []
            elif h == math.inf or path.speed * ap.cfg.beacon_interval >= path.length:
                rings = [(0.0, h)]
            else:
                rings = path.ring_times(x, y, r - m, r + m, h)
        ends = [t for ring in rings for t in ring] + [h]
        verdicts = [self.in_range(ap, iface.position((a + b) / 2)) if a < b else None
                    for a, b in zip([0.0] + ends[1::2], ends[::2])]
        self._coverage[ap, iface] = ends, verdicts
        return ends, verdicts

    def in_range_moving(self, ap: "AccessPoint", iface, t: float) -> tuple[bool, float]:
        """Range verdict at time t and the time until which it holds, read
        from the coverage table: in a gap, the gap's verdict until its end; in
        a ring or from the horizon on, Medium.in_range judged at t, until t."""
        ends, verdicts = self.coverage(ap, iface)
        i = bisect_right(ends, t)
        if i % 2:
            return self.in_range(ap, iface.position(t)), t
        return verdicts[i // 2], ends[i]

    def ap_to_iface(self, ap: "AccessPoint", iface, frame: Frame) -> None:
        if self.in_range_moving(ap, iface, self.sim.now)[0]:
            self.sim.schedule_in(frame.size_bits / self.bitrate, iface.on_frame, frame)

    def iface_to_ap(self, iface, ap: "AccessPoint", frame: Frame) -> None:
        """An association request, the only frame an AP receives."""
        # symmetric link budget: the AP hears the node iff the node hears the AP
        if self.in_range_moving(ap, iface, self.sim.now)[0]:
            self.sim.schedule_in(frame.size_bits / self.bitrate, ap.on_frame, frame)

    def _hop(self, ap: "AccessPoint", pkt) -> float:
        """Serialization, the LAN hop and the AP's wired delay on to the HA."""
        return (pkt.size_bits + MAC_OVERHEAD_BITS) / self.bitrate + LAN_DELAY + ap.ha_delay

    def uplink(self, iface, ap: "AccessPoint", pkt) -> None:
        """A binding update: bridging is the AP's only action on uplink
        data, so it goes straight on to the HA, if the AP hears it."""
        if self.in_range_moving(ap, iface, self.sim.now)[0]:
            self.sim.schedule_at(self.sim.now + self._hop(ap, pkt), ap.ha.handle, pkt)

    def uplink_run(self, iface, ap: "AccessPoint", pkt, run) -> None:
        """Uplink data for a run of app packets to the AP.

        pkt is the datagram every packet of the run travels in, so the
        delay to the HA is the same for all of them, grouped as uplink
        groups it. Each packet in range at its tick goes on to
        ap.ha.forward_run; the others drop, in tick order.
        """
        hop = self._hop(ap, pkt)
        n = len(run.times)
        for lo, hi, inside in self.range_cuts(ap, iface, run.times, 0, n, float):
            part = run if hi - lo == n else run.part(lo, hi)
            if inside:
                ap.ha.forward_run(pkt, part, hop)
            else:
                self.drop_hook(part)

    def range_cuts(self, ap: "AccessPoint", iface, times: Ticks, lo: int, hi: int,
                   at: Callable[[float], float]) -> list[tuple[int, int, bool]]:
        """Packets lo..hi-1 of a run as (first, end, in range) pieces, cut
        where the range verdict at a packet's time at(times[k]) changes; at
        must not decrease. The coverage table is read once per gap, at the
        first packet past the one before, found in closed form, and once per
        packet in a ring."""
        inside, until = self.in_range_moving(ap, iface, at(times[lo]))
        pieces = []
        first = i = lo
        while True:
            i = times.bisect(until, i + 1, hi, at)  # the first the verdict may not cover
            if i == hi:
                break
            verdict, until = self.in_range_moving(ap, iface, at(times[i]))
            if verdict != inside:
                pieces.append((first, i, inside))
                first, inside = i, verdict
        pieces.append((first, hi, inside))
        return pieces


class AccessPoint:
    """802.11-style AP: beacons, association handling, station delivery.

    Every uplink datagram ends at the home agent ha, ha_delay of wired delay
    past the LAN hop (Medium.uplink, Medium.uplink_run). The AP has one
    station slot (one radio in hard mode, one radio per AP in soft mode),
    filled when an association request arrives and emptied the instant that
    interface disassociates, heard or not: an inactivity timeout of zero. So
    the station is always tuned to this AP. It gets one RA, ra, on
    association: an unsolicited RA after that (RFC 4861 6.2.4) would re-add
    the routes and prefix it already holds.
    """

    def __init__(self, sim: Simulator, cfg: ApConfig, medium: Medium, ra, ha,
                 ha_delay: float):
        self.sim = sim
        self.cfg = cfg
        self.medium = medium
        self.ra = ra
        self.ha = ha
        self.ha_delay = ha_delay
        self.radius2 = coverage_radius2(cfg.tx_power_dbm, medium.sensitivity_dbm,
                                        medium.frequency_hz, medium.d_ref)
        self.station = None  # the associated interface, if any

    def on_frame(self, frame: Frame) -> None:
        """An association request, the only frame an AP receives."""
        iface = self.station = frame.payload
        self.sim.trace(self.cfg.ap_id, "radio", "assoc", f"station={iface.iface_id}")
        self.medium.ap_to_iface(self, iface, Frame("assoc_response", ASSOC_BITS, payload=self))
        self.medium.ap_to_iface(self, iface, Frame("data", BEACON_BITS, payload=self.ra))

    def leave(self, iface) -> None:
        self.station = None
        self.sim.trace(self.cfg.ap_id, "radio", "disassoc", f"station={iface.iface_id}")

    def deliver_packet(self, pkt) -> None:
        """Downlink binding acks: radio delivery to the station, if any."""
        if self.station is not None:
            frame = Frame("data", pkt.size_bits + MAC_OVERHEAD_BITS, payload=pkt)
            self.medium.ap_to_iface(self, self.station, frame)


class BeaconLedger:
    """The beacons each interface hears, computed on demand: beacon k of an
    added AP is sent at k * beacon_interval and arrives BEACON_BITS /
    bitrate later at each interface that, at the send time, may associate
    with the AP, listens to it or to every AP (a change at that instant
    counts) and is in range, as the medium's coverage table says. Searches
    stop at the medium's horizon, the end of the run."""

    def __init__(self, medium: Medium):
        self.medium = medium
        self.aps: list[AccessPoint] = []  # in the order they beacon at one instant
        self.ifaces: dict[str, Any] = {}  # iface_id -> interface, in the order beacons reach them
        # iface_id -> (times, AP listened to from each on; None: all)
        self._listening: dict[str, tuple[list[float], list[Optional[AccessPoint]]]] = {}

    def add_ap(self, ap: "AccessPoint") -> None:
        self.aps.append(ap)

    def add_iface(self, iface) -> None:
        self.ifaces[iface.iface_id] = iface
        self._listening[iface.iface_id] = ([-math.inf], [None])

    def listen(self, iface, ap: Optional[AccessPoint]) -> None:
        """Record the AP the interface listens to from now on (None: all)."""
        times, aps = self._listening[iface.iface_id]
        times.append(self.medium.sim.now)
        aps.append(ap)

    def arrival(self, ap: "AccessPoint", k: int) -> float:
        return k * ap.cfg.beacon_interval + BEACON_BITS / self.medium.bitrate

    def _index(self, ap: "AccessPoint", t: float) -> int:
        """The first beacon of ap arriving after t."""
        return first_tick(math.nextafter(t, math.inf), ap.cfg.beacon_interval,
                          BEACON_BITS / self.medium.bitrate)

    def _seek(self, iface, ap: "AccessPoint", k: int, heard: bool = True) -> Optional[int]:
        """The first beacon of ap from index k on that the interface hears
        (misses, if not heard), or None if none is sent by the horizon. It
        steps from one listening change or gap of the coverage table to the next."""
        bi = ap.cfg.beacon_interval
        times, aps = self._listening[iface.iface_id]
        while k < math.inf and k * bi <= self.medium.horizon:
            i = bisect_right(times, k * bi)
            hi = first_tick(times[i], bi) if i < len(times) else math.inf
            if iface.allowed_ap in (None, ap.cfg.ap_id) and aps[i - 1] in (None, ap):
                inside, until = self.medium.in_range_moving(ap, iface, k * bi)
                if inside == heard:
                    return k
                if until < hi * bi:  # the first beacon from until on, past k
                    hi = max(k + 1, first_tick(until, bi))
            elif not heard:
                return k
            k = hi
        return None

    def _appearance(self, iface, ap: "AccessPoint", start: float,
                    misses: Optional[int]) -> Optional[int]:
        """The first beacon of ap heard at or after start over misses beacon
        intervals after the previous heard beacon (or with none before it)."""
        k0 = self._index(ap, math.nextafter(start, -math.inf))
        # only a beacon heard at most misses intervals before k0 leaves one stale
        p, k = None, self._seek(iface, ap, k0 if misses is None else max(0, k0 - misses))
        while k is not None and (k < k0 or misses is not None and p is not None
                                 and not k - p > misses):
            # a run of heard beacons is one interval apart: only its first may be fresh
            u = self._seek(iface, ap, k + 1, heard=False)
            p, k = (k, None) if u is None else (u - 1, self._seek(iface, ap, u))
        return k

    def next_beacon(self, iface_ids, start: float, misses: Optional[int]):
        """(arrival, iface_id, ap) of the first beacon arriving at or after
        start on one of the interfaces that heard its AP last over misses
        beacon intervals before (or never; any if misses is None), or None.
        Beacons arriving together go in AP order, then interface order."""
        return min(((self.arrival(ap, k), iface_id, ap) for ap in self.aps
                    for iface_id, iface in self.ifaces.items() if iface_id in iface_ids
                    and (k := self._appearance(iface, ap, start, misses)) is not None),
                   default=None, key=lambda hit: hit[0])

    def loss_time(self, iface_id: str, check: float, window: float) -> float:
        """When a watchdog looking at check, then window after the last arrival
        each look found, first finds no arrival (inf if not by the horizon).
        The window must span at least 1.5 beacon intervals of every AP, as the
        controller's (miss_threshold + 0.5) intervals do: then the rest of a
        run of heard beacons comes within it."""
        iface = self.ifaces[iface_id]
        last, t = None, check - 2 * window  # an earlier one leaves check empty
        while True:
            bound = check if last is None or last + window <= check else last + window
            hit = min(((self.arrival(ap, k), ap, k) for ap in self.aps
                       if (k := self._seek(iface, ap, self._index(ap, t))) is not None),
                      default=None, key=lambda hit: hit[0])
            if hit is None or not hit[0] < bound:
                return bound
            _, ap, k = hit  # the rest of ap's run of heard beacons follows within window
            u = self._seek(iface, ap, k + 1, False)
            if u is None:
                return math.inf
            last = t = self.arrival(ap, u - 1)

    def deliver(self, at: float, iface_id: str, ap: "AccessPoint") -> EventHandle:
        """Schedule the beacon of ap arriving at the interface at `at`."""
        frame = Frame("beacon", BEACON_BITS, payload=ap)
        return self.medium.sim.schedule_at(at, self.ifaces[iface_id].on_frame, frame, last=True)
