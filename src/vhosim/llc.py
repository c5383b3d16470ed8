"""Link-layer handover controller.

A control-plane-only entity that grants or denies interface association,
tracks which interface serves and which is the candidate, executes
make-before-break switching and exposes the serving interface to the upper
layers. It exchanges only beacons, association signaling and notifications;
it never touches data packets. Its beacon events are only those that act.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Simulator


class VhoController:
    """Serving / candidate role machine for multi-interface handover.

    Both roles are interface ids. A beacon on an unassociated interface,
    with no candidate in flight, makes it the candidate and permits it to
    associate when nothing serves or its network appears fresh (its AP unheard
    there for over miss_threshold beacon intervals). The candidate is promoted
    once it is associated, configured and holds a global address; the old
    interface is released then. Hard and soft differ only in the
    interface list Scenario builds. Soft (make-before-break) gives the node
    one radio per AP, so the candidate comes up while the serving link still
    carries traffic. Hard gives it one radio, which hears the new network
    only after beacon loss has torn the old link down.
    """

    def __init__(self, sim: Simulator, node_id: str, beacon_interval: float,
                 miss_threshold: int, beacons,
                 command_associate: Callable[[str, object], None],
                 command_disassociate: Callable[[str], None],
                 on_promoted: Callable[[str, Optional[str]], None]):
        self.sim = sim
        self.node_id = node_id
        self.beacon_interval = beacon_interval
        self.miss_threshold = miss_threshold
        self.beacons = beacons  # ledger of the beacons the interfaces hear
        self.command_associate = command_associate
        self.command_disassociate = command_disassociate
        self.on_promoted = on_promoted

        self.serving: Optional[str] = None
        self.candidate: Optional[str] = None

        self._associated: set[str] = set()
        self._gap_open: Optional[float] = None
        # iface -> (time of its association, its beacon-loss event)
        self._watchdogs: dict[str, tuple[float, object]] = {}
        self._next_beacon = None  # event of the next beacon that can act

        self.promotions: list[tuple[float, str, Optional[str]]] = []
        self.gap_intervals: list[tuple[float, float]] = []

    # -- queries ------------------------------------------------------------

    @property
    def handover_count(self) -> int:
        """Promotions excluding the initial attach."""
        return max(0, len(self.promotions) - 1)

    # -- beacon path ----------------------------------------------------------

    def replan(self) -> None:
        """Recompute the beacon events: the ledger learned of new beacons."""
        for iface_id, (since, handle) in list(self._watchdogs.items()):
            self.sim.cancel(handle)
            self._arm_watchdog(iface_id, since)
        self._plan_beacon()

    def _plan_beacon(self) -> None:
        """Keep one event pending, for the next beacon that can act: the
        first to reach an unassociated interface while no candidate is in
        flight, if nothing serves or its network appears fresh."""
        plan = None
        if self.candidate is None:
            plan = self.beacons.next_beacon(
                [i for i in self.beacons.ifaces if i not in self._associated], self.sim.now,
                None if self.serving is None else self.miss_threshold)
        if self._next_beacon is not None:
            self.sim.cancel(self._next_beacon)
        self._next_beacon = None if plan is None else self.beacons.deliver(*plan)

    def on_beacon(self, iface_id: str, ap_id: str, ap) -> None:
        """The planned beacon arrived: its interface becomes the candidate."""
        if self.candidate is not None or iface_id in self._associated:
            raise RuntimeError(f"beacon on {iface_id} cannot act")
        self._next_beacon = None
        self.candidate = iface_id
        self.sim.trace(self.node_id, "llc", "candidate",
                       f"iface={iface_id} ap={ap_id}")
        # a fresh candidate always wins over the serving network
        self.sim.trace(self.node_id, "llc", "permit", f"iface={iface_id}")
        self.command_associate(iface_id, ap)

    # -- association lifecycle -----------------------------------------------

    def on_association_confirmed(self, iface_id: str) -> None:
        if iface_id != self.candidate:
            raise RuntimeError(f"association confirmed without permit on {iface_id}")
        if iface_id in self._associated:
            raise RuntimeError(f"association confirmed twice on {iface_id}")
        if not self._associated and self._gap_open is not None:
            self.gap_intervals.append((self._gap_open, self.sim.now))
            self._gap_open = None
        self._associated.add(iface_id)
        self.sim.trace(self.node_id, "llc", "assoc_confirmed", f"iface={iface_id}")
        self._arm_watchdog(iface_id, self.sim.now)
        # network-layer configuration proceeds when the first RA arrives;
        # serving traffic, if any, continues untouched on the old interface

    def on_link_down(self, iface_id: str) -> None:
        """The interface lost its association; it was confirmed before."""
        self._associated.discard(iface_id)
        if not self._associated and self._gap_open is None:
            self._gap_open = self.sim.now
        watchdog = self._watchdogs.pop(iface_id, None)
        if watchdog is not None:
            self.sim.cancel(watchdog[1])
        self._plan_beacon()

    def on_address_global(self, iface_id: str) -> None:
        if self.candidate != iface_id:
            self.sim.trace(self.node_id, "llc", "addr_global_ignored", f"iface={iface_id}")
            return
        prev_id = self.serving
        self.serving = iface_id
        self.candidate = None
        self.promotions.append((self.sim.now, iface_id, prev_id))
        self.sim.trace(self.node_id, "llc", "promote",
                       f"iface={iface_id} prev={prev_id}")
        if prev_id is not None:
            self.command_disassociate(prev_id)  # its link-down plans the next beacon
        else:
            self._plan_beacon()
        self.on_promoted(iface_id, prev_id)

    # -- beacon-loss detection ---------------------------------------------------

    def _arm_watchdog(self, iface_id: str, since: float) -> None:
        """Schedule the beacon loss of an interface associated at `since`."""
        window = (self.miss_threshold + 0.5) * self.beacon_interval
        self._watchdogs[iface_id] = (since, self.sim.schedule_at(
            self.beacons.loss_time(iface_id, since + window, window),
            self._watchdog_check, iface_id))

    def _watchdog_check(self, iface_id: str) -> None:
        del self._watchdogs[iface_id]
        self.on_beacon_loss(iface_id)

    def on_beacon_loss(self, iface_id: str) -> None:
        self.sim.trace(self.node_id, "llc", "beacon_loss", f"iface={iface_id}")
        if self.serving == iface_id:
            self.serving = None
            self.command_disassociate(iface_id)
            # soft mode: a candidate mid-handover keeps going; the gap lasts
            # until its promotion
        elif self.candidate == iface_id:
            self.candidate = None
            self.command_disassociate(iface_id)
        # released / idle interfaces: nothing to do

    # -- run-end bookkeeping ------------------------------------------------------

    def close_gaps(self, end: float) -> None:
        if self._gap_open is not None:
            self.gap_intervals.append((self._gap_open, end))
            self._gap_open = None
