"""Application sources and sinks: CBR video, on/off VoIP, loss and MOS metrics."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import SchedulingError, Simulator


@dataclass(slots=True)
class PacketRun:
    """Consecutive packets of one flow, one per source tick: packet k has
    seq seq0 + k and is sent at times[k]."""
    flow_id: str
    seq0: int
    times: list[float]
    bits: int
    spurt: int = 0  # talk-spurt index, VoIP only

    def part(self, lo: int, hi: int) -> "PacketRun":
        """Packets lo..hi-1 as a run of their own."""
        return PacketRun(self.flow_id, self.seq0 + lo, self.times[lo:hi],
                         self.bits, self.spurt)


@dataclass
class VoipConfig:
    packetization_interval: float = 0.020
    playout_delay: float = 0.005
    spurt_mean: float = 1.0
    silence_mean: float = 1.35
    codec_rate: float = 64000.0

    def __post_init__(self):
        for name in ("packetization_interval", "playout_delay", "spurt_mean",
                     "silence_mean", "codec_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class SeqSet:
    """Set of a flow's sequence numbers, one flag byte per seq.

    A flow numbers its packets 0, 1, 2, ... so a bytearray indexed by seq
    holds the set in at most one byte per packet sent, whatever the order in
    which seqs are added.
    """

    __slots__ = ("_flags", "_len")

    def __init__(self):
        self._flags = bytearray()
        self._len = 0

    def add(self, seq: int) -> bool:
        """Add seq; True iff it was not in the set yet."""
        flags = self._flags
        end = len(flags)
        if seq == end:  # in-order arrival
            flags.append(1)
        elif seq > end:
            flags.extend(bytes(seq - end))
            flags.append(1)
        elif seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        elif flags[seq]:
            return False
        else:
            flags[seq] = 1
        self._len += 1
        return True

    def __contains__(self, seq: int) -> bool:
        return 0 <= seq < len(self._flags) and self._flags[seq] == 1

    def __len__(self) -> int:
        return self._len

    def __and__(self, other: "SeqSet") -> set[int]:
        """The seqs in both sets."""
        return {seq for seq, (a, b) in enumerate(zip(self._flags, other._flags))
                if a and b}


@dataclass
class FlowStats:
    flow_id: str
    sent: int = 0
    received: int = 0
    late: int = 0
    lost: int = 0
    delay_sum: float = 0.0  # one-way delays of the received packets, added in order
    received_seqs: SeqSet = field(default_factory=SeqSet)  # received or late
    dropped_seqs: SeqSet = field(default_factory=SeqSet)

    @property
    def in_flight(self) -> int:
        return self.sent - self.received - self.late - self.lost

    @property
    def mean_delay(self) -> float:
        return self.delay_sum / self.received if self.received else 0.0


@dataclass
class MosReport:
    r_factor: float
    mos: float
    mean_delay: float
    effective_loss: float


def packet_loss_rate(stats: FlowStats) -> float:
    """Fraction of sent packets not received in time; late packets count as lost."""
    if stats.sent == 0:
        raise ValueError(f"flow {stats.flow_id}: no packets sent")
    return (stats.sent - stats.received) / stats.sent


def compute_mos(stats: FlowStats) -> MosReport:
    """Simplified ITU-T G.107 E-model with G.711 impairment defaults."""
    loss = packet_loss_rate(stats)
    mean_delay = stats.mean_delay
    d_ms = mean_delay * 1000.0
    i_d = 0.024 * d_ms
    if d_ms > 177.3:
        i_d += 0.11 * (d_ms - 177.3)
    ie, bpl = 0.0, 25.1
    ppl = loss * 100.0
    ie_eff = ie + (95.0 - ie) * ppl / (ppl + bpl)
    r = 93.2 - i_d - ie_eff
    mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    mos = min(4.5, max(1.0, mos))
    return MosReport(r, mos, mean_delay, loss)


class _Source:
    """Emission shared by the sources: ticks go to emit as runs.

    A tick that would be the next event anyway runs inline instead, in one
    run with the due tick and every tick after it that may run inline too.
    A run's emit runs with the clock at the run's last tick. It must not
    schedule an event at or before that tick, except in a run of one tick:
    such an event would have come before a later tick of the run.
    """

    packet_bits: int

    def __init__(self, sim: Simulator, flow_id: str, emit: Callable[[PacketRun], None],
                 start: float, stop: Optional[float]):
        self.sim = sim
        self.flow_id = flow_id
        self.emit = emit
        self.start_at = start
        self.stop = math.inf if stop is None else stop
        self.seq = 0

    def _ticks(self, t0: float, k: int, dt: float, until: float,
               spurt: int = 0) -> tuple[int, bool]:
        """Emit the due tick t0 + k*dt and every later tick before until
        that may run inline, as one run.

        Returns the index of the first tick not emitted and whether it runs
        now (it is at or after until); if not, it needs an event.
        """
        sim = self.sim
        t = t0 + k * dt
        limit = max(t, sim.ahead_limit())  # the due tick runs now in any case
        times = []
        while t <= limit and t < until:
            times.append(t)
            k += 1
            t = t0 + k * dt
        if times:
            last = times[-1]
            if last > sim.now:  # the clock is at the due tick already
                sim.run_ahead(last)
            seq = self.seq
            self.seq = seq + len(times)
            self.emit(PacketRun(self.flow_id, seq, times, self.packet_bits, spurt))
            # the next tick is judged against the heap as this emit left it
            limit = sim.ahead_limit()
            if limit < last and len(times) > 1:
                raise SchedulingError(f"{self.flow_id}: the emit of a run scheduled "
                                      f"an event at or before its last tick t={last}")
        return k, t <= limit


class VideoSource(_Source):
    """Constant-bit-rate stream: one packet of packet_bits every packet_bits/rate."""

    def __init__(self, sim: Simulator, flow_id: str, rate_bps: float, packet_bits: int,
                 emit: Callable[[PacketRun], None], start: float = 0.0,
                 stop: Optional[float] = None):
        if rate_bps <= 0:
            raise ValueError("rate must be > 0")
        super().__init__(sim, flow_id, emit, start, stop)
        self.interval = packet_bits / rate_bps
        self.packet_bits = packet_bits

    def start(self) -> None:
        self.sim.schedule_at(self.start_at, self._tick, 0)

    def _tick(self, k: int) -> None:
        k, now = self._ticks(self.start_at, k, self.interval, self.stop)
        if not now:
            self.sim.schedule_at(self.start_at + k * self.interval, self._tick, k)


class VoipSource(_Source):
    """On/off voice: exponentially distributed talk spurts and silences."""

    def __init__(self, sim: Simulator, flow_id: str, cfg: VoipConfig,
                 rng: random.Random, emit: Callable[[PacketRun], None],
                 start: float = 0.0, stop: Optional[float] = None):
        super().__init__(sim, flow_id, emit, start, stop)
        self.cfg = cfg
        self.rng = rng
        self.spurt_idx = -1
        self.packet_bits = int(cfg.codec_rate * cfg.packetization_interval)

    def start(self) -> None:
        self.sim.schedule_at(self.start_at, self._begin_spurt)

    def _begin_spurt(self) -> None:
        if self.sim.now >= self.stop:
            return
        self.spurt_idx += 1
        duration = self.rng.expovariate(1.0 / self.cfg.spurt_mean)
        self._tick(self.sim.now, 0, self.sim.now + duration)

    def _tick(self, spurt_start: float, k: int, spurt_end: float) -> None:
        sim = self.sim
        interval = self.cfg.packetization_interval
        k, now = self._ticks(spurt_start, k, interval, min(spurt_end, self.stop),
                             self.spurt_idx)
        t = spurt_start + k * interval
        if not now:
            sim.schedule_at(t, self._tick, spurt_start, k, spurt_end)
            return
        silence = self.rng.expovariate(1.0 / self.cfg.silence_mean)
        sim.schedule_at(t + silence, self._begin_spurt)


class Sink:
    """Receiver-side classification into received / late / duplicate.

    VoIP packets are late when their one-way delay exceeds the playout budget:
    the minimum delay observed over the flow's first talk spurt plus the fixed
    playout delay. Video has no deadline.
    """

    def __init__(self, stats: FlowStats, kind: str, playout_delay: float = 0.005):
        self.stats = stats
        self.kind = kind
        self.playout_delay = playout_delay
        self._budget: Optional[float] = None
        self._first_spurt_min: Optional[float] = None
        self.duplicates = 0

    def on_receive(self, seq: int, sent_at: float, now: float, spurt: int = 0) -> str:
        """Classify packet seq, sent at sent_at and arriving at now."""
        stats = self.stats
        if not stats.received_seqs.add(seq):
            self.duplicates += 1
            return "duplicate"
        delay = now - sent_at
        if self.kind == "voip":
            if spurt == 0:
                if self._first_spurt_min is None or delay < self._first_spurt_min:
                    self._first_spurt_min = delay
            else:
                if self._budget is None:
                    self._budget = (self._first_spurt_min if self._first_spurt_min is not None
                                    else delay) + self.playout_delay
                if delay > self._budget:
                    stats.late += 1
                    return "late"
        stats.received += 1
        stats.delay_sum += delay
        return "received"
