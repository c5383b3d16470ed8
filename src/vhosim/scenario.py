"""Topology construction and node wiring for the two-network roaming scenario.

One mobile node sweeps a field between a home network (router doubling as
home agent) and a foreign network, each fronted by one 802.11 access point on
its own channel. The correspondent node hangs off the home agent's core link.
"""

from __future__ import annotations

from typing import Any, Optional

from .engine import Simulator
from .ipv6 import (IPV6_HEADER_BITS, Address, Ipv6Host, Packet,
                   RouterAdvertisement, derive_iid)
from .llc import NetworkAttributes, VhoController
from .mipv6 import BA_BITS, HomeAgentCore, MnBindingManager, decapsulate
from .mobility import TractorPath
from .radio import (MAC_OVERHEAD_BITS, AccessPoint, ApConfig, ASSOC_BITS,
                    DISASSOC_BITS, Frame, Medium)
from .traffic import (AppPacket, FlowStats, Sink, VideoSource, VoipConfig,
                      VoipSource)


class WirelessInterface:
    """One MN radio: association state machine driven by the handover controller."""

    def __init__(self, mn: "MobileNode", iface_id: str, medium: Medium,
                 allowed_ap: Optional[str] = None):
        self.mn = mn
        self.iface_id = iface_id
        self.medium = medium
        self.allowed_ap = allowed_ap  # ap_id this interface may associate with
        self.max_speed = mn.path.speed  # bound used by the medium's range memo
        self.associated = False
        self.ap: Optional[AccessPoint] = None
        self._target: Optional[AccessPoint] = None
        medium.register_iface(self)

    def position(self) -> tuple[float, float]:
        return self.mn.position()

    def listens(self, channel: int) -> bool:
        if self.associated:
            return self.ap is not None and channel == self.ap.cfg.channel
        if self._target is not None:
            return channel == self._target.cfg.channel
        return True  # unassociated interface scans; the allowed-AP filter is upstream

    # -- commands from the controller -----------------------------------------

    def begin_association(self, ap: AccessPoint) -> None:
        self._target = ap
        frame = Frame("assoc_request", self.iface_id, ap.cfg.ap_id,
                      ap.cfg.channel, ASSOC_BITS, payload=self)
        self.medium.iface_to_ap(self, ap, frame)

    def disassociate(self) -> None:
        if self.ap is not None:
            frame = Frame("disassoc", self.iface_id, self.ap.cfg.ap_id,
                          self.ap.cfg.channel, DISASSOC_BITS)
            self.medium.iface_to_ap(self, self.ap, frame)
        was = self.associated
        self.associated = False
        self.ap = None
        self._target = None
        if was:
            self.mn.on_iface_down(self.iface_id)

    # -- radio receive path -------------------------------------------------------

    def on_frame(self, frame: Frame, rss: float = 0.0) -> None:
        if frame.kind == "beacon":
            ap: AccessPoint = frame.payload
            if self.allowed_ap is not None and ap.cfg.ap_id != self.allowed_ap:
                return
            attrs = NetworkAttributes(self.iface_id, ap.cfg.ap_id, rss)
            self.mn.llc.on_beacon(self.iface_id, attrs, ap)
        elif frame.kind == "assoc_response":
            if self.associated:
                return
            self.associated = True
            self.ap = frame.payload
            self._target = None
            self.mn.on_iface_up(self.iface_id)
        elif frame.kind == "data":
            if isinstance(frame.payload, RouterAdvertisement):
                self.mn.host.on_router_advertisement(self.iface_id, frame.payload,
                                                     link_up=self.associated)
            elif not self.associated:
                self.mn.drop(frame.payload)  # frame landed after disassociation
            else:
                self.mn.receive_packet(frame.payload, self.iface_id)

    # -- radio transmit path ---------------------------------------------------------

    def send_packet(self, pkt: Packet) -> None:
        if not self.associated or self.ap is None:
            self.mn.drop(pkt)
            return
        frame = Frame("data", self.iface_id, self.ap.cfg.ap_id,
                      self.ap.cfg.channel, pkt.size_bits + MAC_OVERHEAD_BITS,
                      payload=pkt)
        self.medium.iface_to_ap(self, self.ap, frame)


class MobileNode:
    def __init__(self, sim: Simulator, path: TractorPath, medium: Medium,
                 scheme: str, iface_specs: list[Optional[str]],
                 dad_duration: float, beacon_interval: float, miss_threshold: int,
                 drop_hook, node_id: str = "mn"):
        self.sim = sim
        self.path = path
        self.drop = drop_hook
        self.sinks: dict[str, Sink] = {}
        self._route_ver = -1
        self._route_ok: dict[tuple[str, int], bool] = {}

        self.llc = VhoController(sim, scheme, node_id,
                                 beacon_interval=beacon_interval,
                                 miss_threshold=miss_threshold)
        self.host = Ipv6Host(sim, node_id, self.llc.on_address_global,
                             dad_duration=dad_duration,
                             serving_iface=self.llc.serving_interface)
        self.mip = MnBindingManager(sim, self.host, self.llc, self.send_routed,
                                    node_id=node_id)
        self.ifaces: dict[str, WirelessInterface] = {}
        for idx, allowed in enumerate(iface_specs):
            iface_id = f"{node_id}.wlan{idx}"
            self.ifaces[iface_id] = WirelessInterface(self, iface_id, medium, allowed)
            self.host.add_interface(iface_id, idx)

        self.llc.command_associate = lambda i, ap: self.ifaces[i].begin_association(ap)
        self.llc.command_disassociate = self._teardown_iface
        self.llc.on_promoted = self._on_promoted

    def position(self) -> tuple[float, float]:
        return self.path.position(self.sim.now)

    # -- controller wiring ------------------------------------------------------

    def _teardown_iface(self, iface_id: str) -> None:
        self.ifaces[iface_id].disassociate()
        self.host.on_interface_down(iface_id)
        self.host.update_routes_after_handover(iface_id)

    def _on_promoted(self, iface_id: str, prev_iface: Optional[str]) -> None:
        if prev_iface is not None:
            self.host.update_routes_after_handover(prev_iface)
        self.mip.on_serving_changed()

    def on_iface_up(self, iface_id: str) -> None:
        self.llc.on_link_up(iface_id)
        self.llc.on_association_confirmed(iface_id)

    def on_iface_down(self, iface_id: str) -> None:
        self.llc.on_link_down(iface_id)

    # -- data plane ----------------------------------------------------------------

    def send_routed(self, pkt: Packet) -> None:
        """Emit through the serving interface; unroutable packets drop and count."""
        iface_id = self.llc.serving_interface()
        if iface_id is None:
            self.drop(pkt)
            return
        # routability per (iface, dst prefix) only changes when the routing
        # table does, so cache the verdict between changes
        routes = self.host.routes
        if self._route_ver != routes.version:
            self._route_ver = routes.version
            self._route_ok.clear()
        key = (iface_id, pkt.dst.prefix)
        ok = self._route_ok.get(key)
        if ok is None:
            ok = routes.lookup(pkt.dst, iface_id) is not None
            self._route_ok[key] = ok
        if not ok:
            self.drop(pkt)
            return
        self.ifaces[iface_id].send_packet(pkt)

    def send_app(self, app_pkt: AppPacket, dst: Address) -> None:
        hoa = self.host.home_address
        if hoa is None or hoa.scope != "global":
            self.drop_app(app_pkt)
            return
        inner = Packet(hoa, dst, "app", app_pkt.size_bits + IPV6_HEADER_BITS,
                       payload=app_pkt)
        wrapped = self.mip.wrap_outgoing(inner)
        if wrapped is None:
            self.drop_app(app_pkt)
            return
        self.send_routed(wrapped)

    def drop_app(self, app_pkt: AppPacket) -> None:
        self.drop(Packet(self.host.home_address or Address(0, 0),
                         Address(0, 0), "app", app_pkt.size_bits, payload=app_pkt))

    def receive_packet(self, pkt: Packet, iface_id: str) -> None:
        if pkt.kind == "tunnel" or pkt.inner is not None:
            inner = self.mip.unwrap_incoming(pkt)
            if inner is None:
                self.drop(pkt)  # stale CoA or unexpected endpoint
                return
            pkt = inner
        if pkt.kind == "ba":
            self.mip.on_binding_ack(pkt.payload)
        elif pkt.kind == "app":
            sink = self.sinks.get(pkt.payload.flow_id)
            if sink is not None:
                sink.on_receive(pkt.payload, self.sim.now)


class HomeAgentNode:
    """Home-network router and MIPv6 home agent with static core forwarding."""

    def __init__(self, sim: Simulator, core: HomeAgentCore, home_prefix: int,
                 foreign_prefix: int, core_prefix: int, cn_delay: float,
                 foreign_delay: float, drop_hook):
        self.sim = sim
        self.core = core
        self.home_prefix = home_prefix
        self.foreign_prefix = foreign_prefix
        self.core_prefix = core_prefix
        self.cn_delay = cn_delay
        self.foreign_delay = foreign_delay
        self.drop = drop_hook
        self.home_ap: Optional[AccessPoint] = None
        self.foreign_router: Optional["ForeignRouterNode"] = None
        self.cn: Optional["CorrespondentNode"] = None

    def advertisement(self) -> RouterAdvertisement:
        return RouterAdvertisement(self.home_prefix, self.core.address,
                                   is_home_agent=True)

    def handle(self, pkt: Packet) -> None:
        if pkt.dst == self.core.address:
            if pkt.inner is not None:
                self.forward(decapsulate(pkt))  # reverse-tunnel uplink
            elif pkt.kind == "bu":
                ba = self.core.process_bu(pkt.payload, self.sim.now)
                self.sim.trace("ha", "mipv6", "bu_processed",
                               f"seq={ba.seq} {ba.status}")
                self.forward(Packet(self.core.address, pkt.src, "ba",
                                    BA_BITS + IPV6_HEADER_BITS, payload=ba))
            else:
                self.drop(pkt)
        else:
            self.forward(pkt)

    def forward(self, pkt: Packet) -> None:
        prefix = pkt.dst.prefix
        if prefix == self.core_prefix:
            # the CN is a pure endpoint (nothing downstream of it schedules),
            # so deliver synchronously with the arrival timestamp spelled out
            self.cn.receive(pkt, at=self.sim.now + self.cn_delay)
        elif prefix == self.foreign_prefix:
            self.sim.schedule_in(self.foreign_delay, self.foreign_router.handle, pkt)
        elif prefix == self.home_prefix:
            action, out = self.core.intercept(pkt, self.sim.now)
            if action == "tunnel":
                self.sim.trace("ha", "mipv6", "intercept", f"dst={pkt.dst}")
                self.forward(out)
            else:
                self.home_ap.deliver_packet(pkt)
        else:
            self.drop(pkt)


class ForeignRouterNode:
    def __init__(self, sim: Simulator, address: Address, prefix: int,
                 ha: HomeAgentNode, uplink_delay: float):
        self.sim = sim
        self.address = address
        self.prefix = prefix
        self.ha = ha
        self.uplink_delay = uplink_delay
        self.ap: Optional[AccessPoint] = None

    def advertisement(self) -> RouterAdvertisement:
        return RouterAdvertisement(self.prefix, self.address)

    def handle(self, pkt: Packet) -> None:
        if pkt.dst.prefix == self.prefix:
            self.ap.deliver_packet(pkt)
        else:
            self.sim.schedule_in(self.uplink_delay, self.ha.handle, pkt)


class CorrespondentNode:
    def __init__(self, sim: Simulator, address: Address, ha: HomeAgentNode,
                 link_delay: float, expected_src: Optional[Address] = None):
        self.sim = sim
        self.address = address
        self.ha = ha
        self.link_delay = link_delay
        self.expected_src = expected_src  # the MN's HoA, set once known
        self.sinks: dict[str, Sink] = {}
        self.app_received = 0
        self.app_src_matches = 0

    def receive(self, pkt: Packet, at: Optional[float] = None) -> None:
        if pkt.kind != "app":
            return
        self.app_received += 1
        if self.expected_src is not None and pkt.src == self.expected_src:
            self.app_src_matches += 1
        sink = self.sinks.get(pkt.payload.flow_id)
        if sink is not None:
            sink.on_receive(pkt.payload, self.sim.now if at is None else at)

    def send_app(self, app_pkt: AppPacket, dst: Address) -> None:
        pkt = Packet(self.address, dst, "app",
                     app_pkt.size_bits + IPV6_HEADER_BITS, payload=app_pkt)
        self.sim.schedule_in(self.link_delay, self.ha.handle, pkt)


def _innermost_app(pkt: Any) -> Optional[AppPacket]:
    while isinstance(pkt, Packet):
        if isinstance(pkt.payload, AppPacket):
            return pkt.payload
        pkt = pkt.inner
    return None


class Scenario:
    """Builds the full node graph from a resolved configuration and runs it."""

    def __init__(self, cfg, trace_sink: Optional[list[str]] = None):
        self.cfg = cfg
        sim = Simulator(seed=cfg.seed, trace_sink=trace_sink)
        self.sim = sim
        self.flows: dict[str, FlowStats] = {}

        self.medium = Medium(sim, frequency_hz=cfg.frequency_hz,
                             sensitivity_dbm=cfg.sensitivity_dbm,
                             bitrate=cfg.bitrate, d_ref=cfg.d_ref,
                             drop_hook=self._on_drop)

        ha_addr = Address(cfg.home_prefix, derive_iid("ha", 0))
        fr_addr = Address(cfg.foreign_prefix, derive_iid("fr", 0))
        cn_addr = Address(cfg.core_prefix, derive_iid("cn", 0))
        self.ha = HomeAgentNode(sim, HomeAgentCore(ha_addr, cfg.home_prefix),
                                cfg.home_prefix, cfg.foreign_prefix, cfg.core_prefix,
                                cfg.cn_link_delay, cfg.foreign_link_delay,
                                self._on_drop)
        self.fr = ForeignRouterNode(sim, fr_addr, cfg.foreign_prefix, self.ha,
                                    cfg.foreign_link_delay)
        self.cn = CorrespondentNode(sim, cn_addr, self.ha, cfg.cn_link_delay)
        self.ha.foreign_router = self.fr
        self.ha.cn = self.cn

        home_ap_cfg = ApConfig("ap-home", cfg.ap_home_x, cfg.ap_home_y,
                               cfg.ap_home_channel, cfg.home_prefix,
                               tx_power_dbm=cfg.tx_power_dbm,
                               beacon_interval=cfg.beacon_interval)
        foreign_ap_cfg = ApConfig("ap-foreign", cfg.ap_foreign_x, cfg.ap_foreign_y,
                                  cfg.ap_foreign_channel, cfg.foreign_prefix,
                                  tx_power_dbm=cfg.tx_power_dbm,
                                  beacon_interval=cfg.beacon_interval)
        self.ap_home = AccessPoint(sim, home_ap_cfg, self.medium, self.ha,
                                   ra_interval=cfg.ra_interval)
        self.ap_foreign = AccessPoint(sim, foreign_ap_cfg, self.medium, self.fr,
                                      ra_interval=cfg.ra_interval)
        self.ha.home_ap = self.ap_home
        self.fr.ap = self.ap_foreign
        # everything bridged up at the foreign AP crosses the foreign-HA link;
        # skipping the intermediate router event keeps the timing identical
        self.ap_foreign.uplink_handler = self.ha.handle
        self.ap_foreign.uplink_extra_delay = cfg.foreign_link_delay

        path = TractorPath(cfg.field_x1, cfg.field_y1, cfg.field_x2, cfg.field_y2,
                           cfg.row_count, cfg.speed)
        if cfg.scheme == "soft":
            iface_specs = ["ap-home", "ap-foreign"]
        else:
            iface_specs = [None]
        self.mn = MobileNode(sim, path, self.medium, cfg.scheme, iface_specs,
                             cfg.dad_duration, cfg.beacon_interval,
                             cfg.miss_threshold, self._on_drop)
        # the CN's view of the MN identity (used for the reverse-tunnel check)
        self.cn.expected_src = Address(cfg.home_prefix,
                                       derive_iid("mn", 0), "global")

        self._build_traffic()

    # -- traffic ----------------------------------------------------------------

    def _build_traffic(self) -> None:
        cfg = self.cfg
        sim = self.sim
        start, stop = cfg.traffic_start, cfg.sim_time_resolved

        def mn_emit(app_pkt: AppPacket) -> None:
            self.flows[app_pkt.flow_id].sent += 1
            self.mn.send_app(app_pkt, self.cn.address)

        def cn_emit(app_pkt: AppPacket) -> None:
            self.flows[app_pkt.flow_id].sent += 1
            self.cn.send_app(app_pkt, self.mn.host.home_address
                             or self.cn.expected_src)

        self.sources = []
        if cfg.application == "video":
            stats = FlowStats("video-ul")
            self.flows["video-ul"] = stats
            self.cn.sinks["video-ul"] = Sink(stats, "video")
            self.sources.append(VideoSource(sim, "video-ul", cfg.video_rate_bps,
                                            cfg.video_packet_bits, mn_emit,
                                            start=start, stop=stop))
        elif cfg.application == "voip":
            voip = VoipConfig(cfg.voip_packetization, cfg.voip_playout,
                              cfg.voip_spurt_mean, cfg.voip_silence_mean,
                              cfg.voip_codec_rate)
            ul = FlowStats("voip-ul")
            dl = FlowStats("voip-dl")
            self.flows["voip-ul"] = ul
            self.flows["voip-dl"] = dl
            self.cn.sinks["voip-ul"] = Sink(ul, "voip", voip.playout_delay)
            self.mn.sinks["voip-dl"] = Sink(dl, "voip", voip.playout_delay)
            self.sources.append(VoipSource(sim, "voip-ul", voip, sim.rng("voip-ul"),
                                           mn_emit, start=start, stop=stop))
            self.sources.append(VoipSource(sim, "voip-dl", voip, sim.rng("voip-dl"),
                                           cn_emit, start=start, stop=stop))
        else:
            raise ValueError(f"unknown application {cfg.application!r}")

    def _on_drop(self, payload: Any) -> None:
        app = _innermost_app(payload)
        if app is None:
            return
        stats = self.flows.get(app.flow_id)
        if stats is not None:
            stats.lost += 1
            stats.dropped_seqs.add(app.seq)
            self.sim.trace("net", "traffic", "drop",
                           f"flow={app.flow_id} seq={app.seq}")

    # -- execution ---------------------------------------------------------------

    def run(self) -> None:
        self.ap_home.start()
        self.ap_foreign.start()
        for src in self.sources:
            src.start()
        self.sim.run_until(self.cfg.sim_time_resolved)
        self.mn.llc.close_gaps(self.cfg.sim_time_resolved)

    @property
    def primary_flow(self) -> FlowStats:
        return self.flows["video-ul" if self.cfg.application == "video" else "voip-ul"]
