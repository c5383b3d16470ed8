"""Link-layer handover controller.

A control-plane-only entity that grants or denies interface association,
tracks serving/candidate interface records, executes
make-before-break switching and exposes the serving interface to the upper
layers. It exchanges only beacons, association signaling and notifications;
it never touches data packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Simulator


@dataclass
class NetworkAttributes:
    """Per-interface record of the related network, refreshed on each beacon."""
    iface_id: str
    ap_id: str
    rss: float
    last_update: float = 0.0


class VhoController:
    """Serving / candidate role machine for multi-interface handover.

    mode="soft": make-before-break — the old interface is released only once
    the new one is associated, configured and holds a global address.
    mode="hard": single interface — the old link is torn down on beacon loss
    and the node stays unattached until a new network is heard.
    """

    def __init__(self, sim: Simulator, mode: str, node_id: str = "mn",
                 beacon_interval: float = 0.1, miss_threshold: int = 3):
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown handover mode {mode!r}")
        self.sim = sim
        self.mode = mode
        self.node_id = node_id
        self.beacon_interval = beacon_interval
        self.miss_threshold = miss_threshold

        self.serving: Optional[NetworkAttributes] = None
        self.candidate: Optional[NetworkAttributes] = None
        self.records: dict[str, NetworkAttributes] = {}

        # wiring set by the scenario builder
        self.command_associate: Callable[[str, object], None] = lambda i, ap: None
        self.command_disassociate: Callable[[str], None] = lambda i: None
        self.on_promoted: Callable[[str, Optional[str]], None] = lambda i, p: None

        self._last_beacon: dict[tuple[str, str], float] = {}  # (iface, ap) -> time
        self._assoc_set: set[str] = set()
        self._confirmed: set[str] = set()
        self._ever_attached = False
        self._gap_open: Optional[float] = None
        self._pending_ap: dict[str, object] = {}
        self._watchdogs: dict[str, object] = {}

        self.promotions: list[tuple[float, str, Optional[str]]] = []
        self.gap_intervals: list[tuple[float, float]] = []
        self.handled_kinds: set[str] = set()

    # -- queries ------------------------------------------------------------

    def serving_interface(self) -> Optional[str]:
        return self.serving.iface_id if self.serving is not None else None

    @property
    def handover_count(self) -> int:
        """Promotions excluding the initial attach."""
        return max(0, len(self.promotions) - 1)

    # -- beacon path ----------------------------------------------------------

    def on_beacon(self, iface_id: str, attrs: NetworkAttributes, ap) -> None:
        self.handled_kinds.add("beacon")
        attrs.last_update = self.sim.now
        key = (iface_id, attrs.ap_id)
        previous_seen = self._last_beacon.get(key)
        self._last_beacon[key] = self.sim.now
        self.records[iface_id] = attrs

        if iface_id in self._assoc_set:
            if self.serving is not None and self.serving.iface_id == iface_id:
                self.serving = attrs
            return

        fresh_appearance = (previous_seen is None or
                            self.sim.now - previous_seen >
                            self.miss_threshold * self.beacon_interval)
        if self.candidate is not None:
            return  # single in-flight candidate; attributes stored, action deferred
        if self.serving is not None and not fresh_appearance:
            return
        if iface_id in self._pending_ap:
            return
        self.candidate = attrs
        self.sim.trace(self.node_id, "llc", "candidate",
                       f"iface={iface_id} ap={attrs.ap_id}")
        verdict = self.request_association(iface_id)
        if verdict == "permit":
            self._pending_ap[iface_id] = ap
            self.command_associate(iface_id, ap)
        else:
            self.candidate = None

    def request_association(self, iface_id: str) -> str:
        """'permit' or 'deny'; a permit lets the interface associate with its AP."""
        self.handled_kinds.add("assoc_request")
        cand = self.candidate
        if cand is None or cand.iface_id != iface_id:
            return "deny"
        if self.sim.now - cand.last_update >= self.miss_threshold * self.beacon_interval:
            self.sim.trace(self.node_id, "llc", "deny", f"iface={iface_id} stale")
            return "deny"
        # a fresh candidate always wins over the serving network
        self.sim.trace(self.node_id, "llc", "permit", f"iface={iface_id}")
        return "permit"

    # -- association lifecycle -----------------------------------------------

    def on_link_up(self, iface_id: str) -> None:
        if not self._assoc_set and self._gap_open is not None:
            self.gap_intervals.append((self._gap_open, self.sim.now))
            self._gap_open = None
        self._assoc_set.add(iface_id)
        self._ever_attached = True

    def on_link_down(self, iface_id: str) -> None:
        self._assoc_set.discard(iface_id)
        self._confirmed.discard(iface_id)
        if not self._assoc_set and self._ever_attached and self._gap_open is None:
            self._gap_open = self.sim.now
        handle = self._watchdogs.pop(iface_id, None)
        if handle is not None:
            self.sim.cancel(handle)

    def on_association_confirmed(self, iface_id: str) -> None:
        self.handled_kinds.add("assoc_confirmed")
        if iface_id in self._confirmed:
            return  # duplicate confirmation is a no-op
        if iface_id not in self._pending_ap:
            raise RuntimeError(f"association confirmed without permit on {iface_id}")
        self._confirmed.add(iface_id)
        self._pending_ap.pop(iface_id, None)
        self.sim.trace(self.node_id, "llc", "assoc_confirmed", f"iface={iface_id}")
        self._arm_watchdog(iface_id)
        # network-layer configuration proceeds when the first RA arrives;
        # serving traffic, if any, continues untouched on the old interface

    def on_address_global(self, iface_id: str) -> None:
        self.handled_kinds.add("addr_global")
        cand = self.candidate
        if cand is None or cand.iface_id != iface_id:
            self.sim.trace(self.node_id, "llc", "addr_global_ignored", f"iface={iface_id}")
            return
        prev = self.serving
        self.serving = cand
        self.candidate = None
        prev_id = prev.iface_id if prev is not None else None
        self.promotions.append((self.sim.now, iface_id, prev_id))
        self.sim.trace(self.node_id, "llc", "promote",
                       f"iface={iface_id} prev={prev_id}")
        if prev_id is not None:
            self.command_disassociate(prev_id)
        self.on_promoted(iface_id, prev_id)

    # -- beacon-loss detection ---------------------------------------------------

    def _arm_watchdog(self, iface_id: str) -> None:
        window = (self.miss_threshold + 0.5) * self.beacon_interval
        self._watchdogs[iface_id] = self.sim.schedule_in(
            window, self._watchdog_check, iface_id)

    def _watchdog_check(self, iface_id: str) -> None:
        self._watchdogs.pop(iface_id, None)
        if iface_id not in self._assoc_set:
            return
        attrs = self.records.get(iface_id)
        last = attrs.last_update if attrs is not None else 0.0
        rearm_at = last + (self.miss_threshold + 0.5) * self.beacon_interval
        if rearm_at <= self.sim.now:
            self.on_beacon_loss(iface_id)
        else:
            self._watchdogs[iface_id] = self.sim.schedule_at(
                rearm_at, self._watchdog_check, iface_id)

    def on_beacon_loss(self, iface_id: str) -> None:
        self.handled_kinds.add("beacon_loss")
        self.sim.trace(self.node_id, "llc", "beacon_loss", f"iface={iface_id}")
        if self.serving is not None and self.serving.iface_id == iface_id:
            self.serving = None
            self.command_disassociate(iface_id)
            # soft mode: a candidate mid-handover keeps going; the gap lasts
            # until its promotion
        elif self.candidate is not None and self.candidate.iface_id == iface_id:
            self.candidate = None
            self._pending_ap.pop(iface_id, None)
            self.command_disassociate(iface_id)
        # released / idle interfaces: nothing to do

    # -- run-end bookkeeping ------------------------------------------------------

    def close_gaps(self, end: float) -> None:
        if self._gap_open is not None:
            self.gap_intervals.append((self._gap_open, end))
            self._gap_open = None
