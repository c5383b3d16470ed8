"""Topology construction and node wiring for the two-network roaming scenario.

One mobile node sweeps a field between a home network (router doubling as
home agent) and a foreign network, each fronted by one 802.11 access point.
The correspondent node hangs off the home agent's core link.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Callable, Optional

from .engine import Simulator
from .ipv6 import (IPV6_HEADER_BITS, Address, Ipv6Host, Packet,
                   RouterAdvertisement, derive_iid)
from .llc import VhoController
from .mipv6 import BA_BITS, BindingCache, MnBindingManager, decapsulate
from .mobility import TractorPath
from .radio import MAC_OVERHEAD_BITS, AccessPoint, ApConfig, ASSOC_BITS, Frame, Medium
from .traffic import FlowStats, PacketRun, Sink, Ticker, VideoSource, VoipSource

CORE_PREFIX = 0x20010DB800030000  # the correspondent's network, behind the home agent


class WirelessInterface:
    """One MN radio: association state machine driven by the handover controller."""

    def __init__(self, mn: "MobileNode", iface_id: str, medium: Medium,
                 allowed_ap: Optional[str]):
        self.mn = mn
        self.iface_id = iface_id
        self.medium = medium
        self.allowed_ap = allowed_ap  # ap_id this interface may associate with
        self.path = mn.path  # read by the medium's coverage table
        self.ap: Optional[AccessPoint] = None  # set while associated
        medium.beacons.add_iface(self)

    def position(self, t: float) -> tuple[float, float]:
        return self.mn.position(t)

    # -- commands from the controller -----------------------------------------

    def begin_association(self, ap: AccessPoint) -> None:
        """Listen to ap alone and ask it to associate."""
        self.medium.beacons.listen(self, ap)
        self.medium.iface_to_ap(self, ap, Frame("assoc_request", ASSOC_BITS, payload=self))

    def disassociate(self) -> None:
        """Leave the AP at once, whether or not it is in range to hear, and
        listen to every AP."""
        ap, self.ap = self.ap, None
        self.medium.beacons.listen(self, None)
        ap.leave(self)
        self.mn.llc.on_link_down(self.iface_id)

    # -- radio receive path -------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        if frame.kind == "beacon":
            ap: AccessPoint = frame.payload
            self.mn.llc.on_beacon(self.iface_id, ap.cfg.ap_id, ap)
        elif frame.kind == "assoc_response":  # from the AP listened to, to its request
            self.ap = frame.payload
            self.mn.llc.on_association_confirmed(self.iface_id)
        elif self.ap is None:  # data that landed after disassociation
            return
        elif isinstance(frame.payload, RouterAdvertisement):
            self.mn.host.on_router_advertisement(self.iface_id, frame.payload)
        else:  # a binding ack, never tunnelled (app packets come in DownlinkRun)
            self.mn.mip.on_binding_ack(frame.payload.payload)


class MobileNode:
    def __init__(self, sim: Simulator, node_id: str, path: TractorPath, medium: Medium,
                 iface_specs: list[Optional[str]], home_address: Address,
                 dad_duration: float, beacon_interval: float, miss_threshold: int,
                 drop_hook):
        self.path = path
        self.drop = drop_hook
        self.medium = medium
        self.sinks: dict[str, Sink] = {}

        self.llc = VhoController(sim, node_id, beacon_interval, miss_threshold,
                                 medium.beacons,
                                 lambda i, ap: self.ifaces[i].begin_association(ap),
                                 self._teardown_iface,
                                 lambda i, p: self.mip.on_serving_changed())
        self.host = Ipv6Host(sim, node_id, home_address, self.llc.on_address_global,
                             dad_duration)
        self.mip = MnBindingManager(sim, node_id, self.host, self.llc, self.send_routed)
        self.ifaces: dict[str, WirelessInterface] = {}
        for idx, allowed in enumerate(iface_specs):
            iface_id = f"{node_id}.wlan{idx}"
            self.ifaces[iface_id] = WirelessInterface(self, iface_id, medium, allowed)
            self.host.add_interface(iface_id, idx)

    def position(self, t: float) -> tuple[float, float]:
        return self.path.position(t)

    # -- controller wiring ------------------------------------------------------

    def _teardown_iface(self, iface_id: str) -> None:
        self.ifaces[iface_id].disassociate()
        self.host.release_interface(iface_id)

    # -- data plane ----------------------------------------------------------------

    def _uplink_iface(self, dst: Address) -> Optional[WirelessInterface]:
        """The interface that serves and routes to dst, if any; a serving
        interface is associated."""
        iface_id = self.llc.serving
        if iface_id is None or self.host.routes.lookup(dst, iface_id) is None:
            return None
        return self.ifaces[iface_id]

    def send_routed(self, pkt: Packet) -> None:
        """Emit a binding update through the serving interface, if one routes."""
        iface = self._uplink_iface(pkt.dst)
        if iface is None:
            return
        self.medium.uplink(iface, iface.ap, pkt)

    def send_run(self, run: PacketRun, dst: Address) -> None:
        """The uplink: send a run of app packets to dst.

        No control state changes inside a run, so its fate up to the radio
        is decided once: home address, tunnel wrap, serving interface and
        route. Medium.range_cuts judges range once per gap of the coverage table.
        """
        hoa = self.host.home_address
        if hoa not in self.host.validated:
            self.drop(run)
            return
        pkt = self.mip.wrap_outgoing(Packet(hoa, dst, run.bits + IPV6_HEADER_BITS))
        iface = None if pkt is None else self._uplink_iface(pkt.dst)
        if iface is None:
            self.drop(run)
            return
        self.medium.uplink_run(iface, iface.ap, pkt, run)


class HomeAgentNode:
    """Home-network router and MIPv6 home agent with static core forwarding."""

    def __init__(self, sim: Simulator, address: Address, foreign_prefix: int,
                 foreign_delay: float, drop_hook):
        self.sim = sim
        self.address = address
        self.cache = BindingCache()
        self.foreign_prefix = foreign_prefix
        self.foreign_delay = foreign_delay
        self.drop = drop_hook
        self.home_ap: Optional[AccessPoint] = None
        self.foreign_router: Optional["ForeignRouterNode"] = None
        self.cn: Optional["CorrespondentNode"] = None

    def handle(self, pkt) -> None:
        """A binding update, the only packet addressed to the HA, or a
        DownlinkRun with a stage due now: it runs that stage and what the
        ahead limit allows. Uplink app packets take forward_run."""
        if isinstance(pkt, DownlinkRun):
            pkt.advance(event=True)
            return
        ba = self.cache.process(pkt.payload, self.sim.now)
        self.sim.trace("ha", "mipv6", "bu_processed", f"seq={ba.seq} {ba.status}")
        self.forward(Packet(self.address, pkt.src, BA_BITS + IPV6_HEADER_BITS, payload=ba))

    def forward_run(self, pkt: Packet, run: PacketRun, hop: float) -> None:
        """Take a run of uplink app packets for the CN, native or
        reverse-tunnelled in pkt, packet k arriving here at times[k] + hop.

        They read no mutable state here or at the CN, so they need no
        event: the CN queues them by arrival time.
        """
        if pkt.dst == self.address:
            pkt = decapsulate(pkt)
        self.cn.arrive(pkt.src, run, hop)

    def forward(self, pkt: Packet) -> None:
        """A binding ack, never tunnelled: to the CoA its BU came from (RFC
        6275 6.1.8), or to the home address after the deregistration that
        deleted the binding."""
        if pkt.dst.prefix != self.foreign_prefix:
            self.home_ap.deliver_packet(pkt)
            return
        self.sim.schedule_in(self.foreign_delay, self.foreign_router.handle, pkt)


class ForeignRouterNode:
    """Foreign-network router: downlink only, since the foreign AP sends its
    uplink straight on to the HA (AccessPoint.ha)."""

    def __init__(self):
        self.ap: Optional[AccessPoint] = None

    def handle(self, pkt: Packet) -> None:
        self.ap.deliver_packet(pkt)


class CorrespondentNode:
    def __init__(self, address: Address, ha: HomeAgentNode, link_delay: float,
                 hoa: Address):
        self.address = address
        self.ha = ha
        self.link_delay = link_delay
        self.hoa = hoa  # the MN's, for the reverse-tunnel check and the downlink
        self.stages: tuple = ()  # the downlink flow's clocks, set when its traffic is wired
        self.sinks: dict[str, Sink] = {}
        self.app_received = 0
        self.app_src_matches = 0
        # uplink runs on their way, each a list [HA arrival time of its next
        # packet, sending order of that packet, its index, run, hop, sink,
        # source is the HoA]; heap order is the order handle events at the HA
        # would have delivered the packets in
        self._arrivals: list[list] = []
        self._order = 0

    def arrive(self, src: Address, run: PacketRun, hop: float) -> None:
        """Queue a run from src whose packet k reaches the HA at
        times[k] + hop and here link_delay after that."""
        # every packet that reaches the HA before this run's first is in the
        # queue already; commit them so that the queue stays short
        arrivals = self._arrivals
        first = run.times[0]
        if arrivals and arrivals[0][0] <= first:
            self.commit(first)
        heapq.heappush(arrivals, [
            first + hop, self._order, 0, run, hop,
            self.sinks[run.flow_id],
            src == self.hoa])
        self._order += len(run.times)

    def commit(self, until: float) -> None:
        """Hand the sinks, in order, the queued packets that reach the HA by
        until, each with its arrival time here."""
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] <= until:
            entry = arrivals[0]
            _, order, i, run, hop, sink, from_hoa = entry
            # this run's packets go first while they precede the next run's:
            # packet i, then those that reach the HA by the bound, where a
            # tie with the next run goes by sending order
            next_ha, next_order = min(arrivals[1:3])[:2] if len(arrivals) > 1 else (math.inf, 0)
            times = run.times
            n = len(times)
            bound = until if until < next_ha else next_ha
            j = times.bisect(bound, i + 1, n, hop.__add__, right=True)  # x + hop, commuted
            if bound == next_ha and j > i + 1 and times[j - 1] + hop == next_ha:
                ties = times.bisect(next_ha, i + 1, j, hop.__add__)
                j = max(ties, min(j, i + next_order - order))
            sink.receive(run.seq0, times, i, j, hop, self.link_delay, 0.0, run.spurt)
            self.app_received += j - i
            if from_hoa:
                self.app_src_matches += j - i
            if j == n:
                heapq.heappop(arrivals)
            else:
                entry[0], entry[1], entry[2] = times[j] + hop, order + j - i, j
                heapq.heapreplace(arrivals, entry)

    def send_run(self, run: PacketRun, dst: Address) -> None:
        """The downlink: packet k reaches the HA link_delay after its tick."""
        DownlinkRun(self.ha, run, dst, self.stages).advance()


def downlink_stages(delay: float, foreign_delay: float, bits: int, bitrate: float) -> tuple:
    """A downlink flow's stages 0, 1 (tunnelled), 2 native and 2 tunnelled,
    each (stage, at, before, hops): hops (d, fd, air) take a tick to the
    stage, 0.0 for a hop it lacks, at(tick) is ((tick + d) + fd) + air as the
    stage events added them, and before(tick) the time at the stage before."""
    def stage(n: int, d: float, fd: float, air: float, before: Callable) -> tuple:
        return n, (lambda x: x + d + fd + air), before, (d, fd, air)

    air = [(bits + MAC_OVERHEAD_BITS + h * IPV6_HEADER_BITS) / bitrate for h in (1, 2)]
    stage0 = stage(0, delay, 0.0, 0.0, lambda x: x + 0.0 + 0.0 + 0.0)
    stage1 = stage(1, delay, foreign_delay, 0.0, stage0[1])
    return (stage0, stage1, stage(2, delay, 0.0, air[0], stage0[1]),
            stage(2, delay, foreign_delay, air[1], stage1[1]))


class DownlinkRun:
    """A run of downlink app packets on its way from the HA to the MN's sink.

    At the HA (stage 0) a packet is tunnelled while a binding holds and is
    delivered at the foreign AP foreign_delay later (stage 1), else at the
    home AP; it reaches the AP's station, if in range, size / bitrate later
    (stage 2), and drops there if the station has left or, tunnelled, its
    CoA is stale. A stage runs inline if run_ahead allows its time; any
    other gets an event of its own, HomeAgentNode.handle(self), queued when
    the stage before it ran.

    Control state changes only in events, so the stages one advance runs
    all read one binding, station, association and CoA. It decides them per
    segment: consecutive packets at one stage of one path, cut where the
    range verdict changes (Medium.range_cuts) and at the first packet whose
    HA time finds the binding expired (BindingCache.lookup_run), at stage
    times from the flow's clocks (downlink_stages). Packets reach the sink,
    and drop and intercept lines go out, in the order a heap of the stages
    would pop them: by time, then time of the stage before, packet and
    stage, as their events would have run. The sink takes one call per
    slice of that order that stays in one segment.
    """

    __slots__ = ("ha", "run", "dst", "stages", "_pending")

    def __init__(self, ha: HomeAgentNode, run: PacketRun, dst: Address, stages: tuple):
        self.ha, self.run, self.dst, self.stages = ha, run, dst, stages
        # segments [stage, first, end, CoA (None: native), interface] of packets
        # that wait at one stage of one path, each with an event queued
        self._pending: list[list] = []

    def _place(self, seg: list, k: int) -> tuple:
        """Packet k's place in the stage heap at the stage of segment seg."""
        stage, at, before, _ = seg[0]
        x = self.run.times[k]
        return at(x), before(x), k, stage

    def advance(self, event: bool = False) -> None:
        """Run the stage of this event, if any, and every stage run_ahead
        allows; queue an event for each other stage reached here."""
        ha, run, stages = self.ha, self.run, self.stages
        sim, times = ha.sim, run.times
        limit = sim.ahead_limit()
        # work: (stage, first, end, CoA, interface, time bound)
        if not event:  # the emit
            work = [(stages[0], 0, len(times), None, None, limit)]
        else:  # the first pending packet in stage-place order runs alone: one
            # emit queues its stage events in work-list order, not in the order
            # the event world would queue them, so this need not be the packet
            # the event was queued for; every other pending packet has an event
            # queued, so lies past the limit
            seg = min(self._pending, key=lambda s: self._place(s, s[1]))
            st, lo, hi, coa, iface = seg
            seg[1] += 1
            if seg[1] == hi:
                self._pending.remove(seg)
            work = [(st, lo, lo + 1, coa, iface, math.inf)]  # runs now, unbounded
        sinks: list[list] = []  # [stage 2, first, end, interface]
        lines: list[list] = []  # [stage, first, end, "drop" or "intercept"]
        while work:
            st, lo, hi, coa, iface, upto = work.pop()
            stage, at = st[0], st[1]
            m = times.bisect(upto, lo, hi, at, right=True)  # lo..m-1 run now
            if m < hi:
                self._pending.append([st, m, hi, coa, iface])
                for x in times[m:hi]:
                    sim.schedule_at(at(x), ha.handle, self)
            if m == lo:
                continue
            if stage == 2:  # drops if disassociated or, tunnelled, the CoA is stale
                if iface.ap is not None and (coa is None or iface.mn.mip.current_coa() == coa):
                    sinks.append([st, lo, m, iface])
                else:
                    lines.append([st, lo, m, "drop"])
                continue
            if stage == 0:
                coa, e = ha.cache.lookup_run(self.dst, times, lo, m, at)
                if e > lo:
                    lines.append([st, lo, e, "intercept"])
                    work.append((stages[1], lo, e, coa, None, limit))
                lo, coa, ap, nxt = e, None, ha.home_ap, stages[2]
            else:  # delivery at the foreign AP past the router
                ap, nxt = ha.foreign_router.ap, stages[3]
            if lo == m:
                continue
            iface = ap.station
            for a, b, inside in ([(lo, m, False)] if iface is None else
                                 ap.medium.range_cuts(ap, iface, times, lo, m, at)):
                if inside:
                    work.append((nxt, a, b, coa, iface, limit))
                else:
                    lines.append([st, a, b, "drop"])
        self._merge(sinks, self._receive)
        if sim.tracing:
            self._merge(lines, self._log)
        else:  # only their count shows
            for _, lo, hi, kind in lines:
                if kind == "drop":
                    ha.drop(run.part(lo, hi))

    def _merge(self, streams: list[list], out: Callable[[list, int, int], None]) -> None:
        """Hand out(stream, first, end) the packets of the streams in the
        order of the stage heap; each stream is in that order already, so
        places are compared only where two or more streams meet."""
        while len(streams) > 1:
            streams.sort(key=lambda s: self._place(s, s[1]))
            s, head = streams[0], self._place(streams[1], streams[1][1])
            end = bisect_left(range(s[2]), head, s[1], s[2], key=lambda k: self._place(s, k))
            out(s, s[1], end)
            s[1] = end
            if end == s[2]:
                streams.pop(0)
        for s in streams:
            out(s, s[1], s[2])

    def _receive(self, stream: list, lo: int, hi: int) -> None:
        run = self.run
        stream[3].mn.sinks[run.flow_id].receive(run.seq0, run.times, lo, hi,
                                                *stream[0][3], run.spurt)

    def _log(self, stream: list, lo: int, hi: int) -> None:
        at, kind = stream[0][1], stream[3]
        if kind == "drop":
            self.ha.drop(self.run.part(lo, hi), at)
            return
        for x in self.run.times[lo:hi]:
            self.ha.sim.trace("ha", "mipv6", "intercept", f"dst={self.dst}", at=at(x))


class Scenario:
    """Builds the full node graph from a resolved configuration and runs it."""

    def __init__(self, cfg, trace_sink: Optional[list[str]] = None):
        self.cfg = cfg
        sim = Simulator(seed=cfg.seed, trace_sink=trace_sink)
        self.sim = sim
        self.flows: dict[str, FlowStats] = {}

        self.medium = Medium(sim, self._on_drop, cfg.frequency_hz, cfg.sensitivity_dbm,
                             cfg.bitrate, cfg.d_ref, cfg.sim_time_resolved)

        ha_addr = Address(cfg.home_prefix, derive_iid("ha", 0))
        fr_addr = Address(cfg.foreign_prefix, derive_iid("fr", 0))
        cn_addr = Address(CORE_PREFIX, derive_iid("cn", 0))
        self.ha = HomeAgentNode(sim, ha_addr, cfg.foreign_prefix,
                                cfg.foreign_link_delay, self._on_drop)
        self.fr = ForeignRouterNode()
        mn_id = "mn"
        hoa = Address(cfg.home_prefix, derive_iid(mn_id, 0))  # the MN's, configured
        self.cn = CorrespondentNode(cn_addr, self.ha, cfg.cn_link_delay, hoa)
        self.ha.foreign_router = self.fr
        self.ha.cn = self.cn

        def access_point(ap_id: str, x: float, y: float, ra: RouterAdvertisement,
                         ha_delay: float) -> AccessPoint:
            ap = AccessPoint(sim, ApConfig(ap_id, x, y, cfg.tx_power_dbm, cfg.beacon_interval),
                             self.medium, ra, self.ha, ha_delay)
            self.medium.beacons.add_ap(ap)
            return ap

        # both uplink paths end at the HA: the foreign AP's crosses the
        # foreign link, with no event at the foreign router
        self.ap_home = access_point("ap-home", cfg.ap_home_x, cfg.ap_home_y,
                                    RouterAdvertisement(cfg.home_prefix, ha_addr, True), 0.0)
        self.ap_foreign = access_point("ap-foreign", cfg.ap_foreign_x, cfg.ap_foreign_y,
                                       RouterAdvertisement(cfg.foreign_prefix, fr_addr),
                                       cfg.foreign_link_delay)
        self.ha.home_ap = self.ap_home
        self.fr.ap = self.ap_foreign

        path = TractorPath(cfg.field_x1, cfg.field_y1, cfg.field_x2, cfg.field_y2,
                           cfg.row_count, cfg.speed)
        iface_specs = ["ap-home", "ap-foreign"] if cfg.scheme == "soft" else [None]
        self.mn = MobileNode(sim, mn_id, path, self.medium, iface_specs, hoa,
                             cfg.dad_duration, cfg.beacon_interval,
                             cfg.miss_threshold, self._on_drop)
        self.mn.llc.replan()

        self._build_traffic()

    # -- traffic ----------------------------------------------------------------

    def _build_traffic(self) -> None:
        cfg = self.cfg
        sim = self.sim
        ticker = self.ticker = Ticker(sim)
        start, stop = cfg.traffic_start, cfg.sim_time_resolved

        def mn_emit(run: PacketRun) -> None:
            self.flows[run.flow_id].sent += len(run.times)
            self.mn.send_run(run, self.cn.address)

        def cn_emit(run: PacketRun) -> None:
            self.flows[run.flow_id].sent += len(run.times)
            self.cn.send_run(run, self.cn.hoa)

        if cfg.application == "video":
            stats = FlowStats("video-ul")
            self.flows["video-ul"] = stats
            self.cn.sinks["video-ul"] = Sink(stats, cfg.voip_playout)
            VideoSource(ticker, "video-ul", cfg.video_rate_bps, cfg.video_packet_bits,
                        mn_emit, start, stop)
        elif cfg.application == "voip":
            ul = FlowStats("voip-ul")
            dl = FlowStats("voip-dl")
            self.flows["voip-ul"] = ul
            self.flows["voip-dl"] = dl
            self.cn.sinks["voip-ul"] = Sink(ul, cfg.voip_playout)
            self.mn.sinks["voip-dl"] = Sink(dl, cfg.voip_playout)
            for flow_id, emit in (("voip-ul", mn_emit), ("voip-dl", cn_emit)):
                src = VoipSource(ticker, flow_id, cfg.voip_packetization, cfg.voip_codec_rate,
                                 cfg.voip_spurt_mean, cfg.voip_silence_mean,
                                 sim.rng(flow_id), emit, start, stop)
            # src is the downlink's, built last
            self.cn.stages = downlink_stages(cfg.cn_link_delay, cfg.foreign_link_delay,
                                             src.packet_bits, cfg.bitrate)
        else:
            raise ValueError(f"unknown application {cfg.application!r}")

    def _on_drop(self, run: PacketRun, at: Optional[Callable[[float], float]] = None) -> None:
        """Count the app packets of run as lost and log each at its drop
        time: its send time, or at(send time). A packet drops once: one
        dropped already raises ValueError (SeqSet.add)."""
        stats = self.flows[run.flow_id]
        n = len(run.times)
        stats.dropped_seqs.add(run.seq0, run.seq0 + n)
        stats.lost += n
        if self.sim.tracing:
            for seq, t in enumerate(run.times, run.seq0):
                self.sim.trace("net", "traffic", "drop", f"flow={run.flow_id} seq={seq}",
                               at=t if at is None else at(t))

    # -- execution ---------------------------------------------------------------

    def run(self) -> None:
        self.ticker.start()
        self.sim.run_until(self.cfg.sim_time_resolved)
        self.cn.commit(self.cfg.sim_time_resolved)
        self.mn.llc.close_gaps(self.cfg.sim_time_resolved)

    @property
    def primary_flow(self) -> FlowStats:
        return self.flows["video-ul" if self.cfg.application == "video" else "voip-ul"]
