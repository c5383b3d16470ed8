"""Application sources and sinks: CBR video, on/off VoIP, loss and MOS metrics."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional

from .engine import SchedulingError, Simulator, first_tick


_FIRST = (0,)  # Ticks._starts of one part


class Ticks:
    """The read-only ticks of parts (t0, k0, n), n >= 1, in part order:
    t0 + k*dt for k = k0..k0+n-1, each computed by that float expression
    when read. dt > 0, and no part starts below the last tick of the part
    before, so no tick is below the one before. A source's run holds a
    part per talk spurt of its window (_Source.take). The first part is
    also kept in t0, k0 and n0, so that a read inside it needs no search
    over the parts: most runs, and every video run, are one part."""

    __slots__ = ("dt", "parts", "t0", "k0", "n0", "_starts", "_n")

    def __init__(self, dt: float, parts: list[tuple[float, int, int]]):
        self.dt = dt
        self.parts = parts
        self.t0, self.k0, n = parts[0] if parts else (0.0, 0, 0)
        self.n0 = n
        self._starts = _FIRST  # the index of each part's first tick
        if len(parts) > 1:
            self._starts = starts = []
            n = 0
            for _, _, m in parts:
                starts.append(n)
                n += m
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(self._n)
            if step != 1:
                raise ValueError("ticks slice with a step")
            if lo < hi <= self.n0:
                return Ticks(self.dt, [(self.t0, self.k0 + lo, hi - lo)])
            return Ticks(self.dt, [(t0, k0 + a - s, b - a)
                                   for (t0, k0, m), s in zip(self.parts, self._starts)
                                   if (a := max(lo, s)) < (b := min(hi, s + m))])
        if 0 <= i < self.n0:
            return self.t0 + (self.k0 + i) * self.dt
        n = self._n
        if not -n <= i < n:
            raise IndexError(f"tick {i} of {n}")
        i %= n
        starts = self._starts
        j = bisect_right(starts, i) - 1
        t0, k0, _ = self.parts[j]
        return t0 + (k0 + i - starts[j]) * self.dt

    def __iter__(self):
        dt = self.dt
        return (t0 + k * dt for t0, k0, m in self.parts for k in range(k0, k0 + m))

    def bisect(self, x: float, lo: int, hi: int, key: Callable[[float], float],
               right: bool = False) -> int:
        """bisect.bisect_left(self, x, lo, hi, key=key), or bisect_right: key
        must not decrease, and key(t) - t be near constant. The last tick is
        probed first: hi, the common answer, takes one key call. Else a
        bisect over the parts by their last ticks finds the first part that
        reaches x, and a closed form the answer inside it."""
        if lo >= hi:
            return lo
        dt, starts = self.dt, self._starts
        j = bisect_right(starts, hi - 1) - 1  # the part of the last tick
        t0, k0, _ = self.parts[j]
        s = starts[j]
        k0 -= s  # tick i of the part, from index s on, is t0 + (k0 + i) * dt
        y = key(last := t0 + (k0 + hi - 1) * dt)
        if not (y > x if right else y >= x):  # no tick reaches x
            return hi
        if lo < s:  # the first part whose last tick reaches x holds the answer
            parts = self.parts

            def reaches(p: int) -> bool:
                t0, k0, m = parts[p]
                y = key(t0 + (k0 + m - 1) * dt)
                return y > x if right else y >= x

            p = bisect_left(range(j), True, bisect_right(starts, lo) - 1, j, key=reaches)
            if p < j:
                t0, k0, m = parts[p]
                s = starts[p]
                k0 -= s
                hi = s + m
                y = key(last := t0 + (k0 + hi - 1) * dt)
            lo = max(lo, s)

        def past(i: int) -> bool:  # false below the answer, true from it on
            y = key(t0 + (k0 + i) * dt)
            return y > x if right else y >= x

        # the answer is below hi; guess it from key(t) - t at the last tick, then fix up
        q = (x - (y - last) - t0) / dt - k0
        g = lo if not q > lo else hi - 1 if not q < hi - 1 else math.ceil(q)
        while g > lo and past(g - 1):
            g -= 1
        while g < hi - 1 and not past(g):
            g += 1
        return g


class PacketRun:
    """Consecutive packets of one flow, one per source tick: packet k has
    seq seq0 + k and is sent at times[k]. spurt is the talk-spurt index of
    the first packet of the run its source took (VoIP only), which a part
    keeps; a run holds packets of spurt 0 only or of later spurts only,
    which is all a Sink reads of it."""

    __slots__ = ("flow_id", "seq0", "times", "bits", "spurt")

    def __init__(self, flow_id: str, seq0: int, times: Ticks, bits: int, spurt: int = 0):
        self.flow_id = flow_id
        self.seq0 = seq0
        self.times = times
        self.bits = bits
        self.spurt = spurt

    def part(self, lo: int, hi: int) -> "PacketRun":
        """Packets lo..hi-1 as a run of their own."""
        return PacketRun(self.flow_id, self.seq0 + lo, self.times[lo:hi],
                         self.bits, self.spurt)


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

    def add(self, lo: int, hi: int) -> None:
        """Add lo..hi-1, 0 <= lo < hi, none of which may be in the set: a
        seq that is raises ValueError, and leaves the set as it was."""
        flags = self._flags
        end = len(flags)
        if lo == end < hi:  # in-order arrival
            flags += b"\x01" * (hi - lo)
            self._len += hi - lo
            return
        if not 0 <= lo < hi:
            raise ValueError(f"seqs [{lo}, {hi}): must be a non-empty range from 0 up")
        m = flags.find(1, lo, hi)
        if m >= 0:
            raise ValueError(f"seq {m} is in the set already")
        if hi > end:
            flags.extend(bytes(hi - end))
        flags[lo:hi] = b"\x01" * (hi - lo)
        self._len += hi - lo

    def __contains__(self, seq: int) -> bool:
        return 0 <= seq < len(self._flags) and self._flags[seq] == 1

    def __len__(self) -> int:
        return self._len

    def __and__(self, other: "SeqSet") -> set[int]:
        """The seqs in both sets."""
        return {seq for seq, (a, b) in enumerate(zip(self._flags, other._flags))
                if a and b}


class FlowStats:
    def __init__(self, flow_id: str, sent: int = 0, received: int = 0, late: int = 0,
                 lost: int = 0, delay_sum: float = 0.0):
        self.flow_id = flow_id
        self.sent = sent
        self.received = received
        self.late = late
        self.lost = lost
        # the float that adding each received packet's one-way delay in order
        # leaves; Sink.receive adds a piece of equal delays with repeat_add
        self.delay_sum = delay_sum
        self.received_seqs = SeqSet()  # received or late
        self.dropped_seqs = SeqSet()

    @property
    def in_flight(self) -> int:
        return self.sent - self.received - self.late - self.lost

    @property
    def mean_delay(self) -> float:
        return self.delay_sum / self.received if self.received else 0.0


class MosReport(NamedTuple):
    r_factor: float
    mos: float


def packet_loss_rate(stats: FlowStats) -> float:
    """Fraction of sent packets not received in time; late packets count as lost."""
    if stats.sent == 0:
        raise ValueError(f"flow {stats.flow_id}: no packets sent")
    return (stats.sent - stats.received) / stats.sent


def compute_mos(stats: FlowStats) -> MosReport:
    """Simplified ITU-T G.107 E-model with G.711 impairment defaults; R
    maps to MOS as in G.107 Annex B."""
    loss = packet_loss_rate(stats)
    d_ms = stats.mean_delay * 1000.0
    i_d = 0.024 * d_ms
    if d_ms > 177.3:
        i_d += 0.11 * (d_ms - 177.3)
    ie, bpl = 0.0, 25.1
    ppl = loss * 100.0
    ie_eff = ie + (95.0 - ie) * ppl / (ppl + bpl)
    r = 93.2 - i_d - ie_eff
    if r < 0.0:  # G.107 Annex B: the cubic holds only for 0 <= R <= 100
        mos = 1.0
    elif r > 100.0:
        mos = 4.5
    else:
        mos = min(4.5, max(1.0, 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)))
    return MosReport(r, mos)


class Ticker:
    """The one clock of a run's sources, each registered at its construction:
    one heap entry, at the earliest next action of any source, scheduled as
    that source's _tick. When it fires, each source takes its actions up to
    the ahead limit, the due source's next one in any case, as one run of
    every spurt it ticks in (two if spurt 0 ends), and the runs go to the
    emits in the order of their last ticks (README "Determinism")."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.sources: list[_Source] = []

    def start(self) -> None:
        """Queue the first entry: at the earliest first action, the first
        source's on ties."""
        due = min(self.sources, key=lambda src: src.next_at)
        self.sim.schedule_at(due.next_at, due._tick)

    def run(self, due: "_Source") -> None:
        """Emit every source's actions up to the ahead limit."""
        sim = self.sim
        limit = sim.ahead_limit()
        runs: list[tuple[float, int, PacketRun]] = []  # (last tick, source, run)
        nxt = None  # the source with the earliest next action, the first on ties
        for i, src in enumerate(self.sources):
            src.take(src.next_at if src is due and limit < src.next_at else limit, i, runs)
            if nxt is None or src.next_at < nxt.next_at:
                nxt = src
        if runs:
            many = len(runs) > 1
            if many:
                runs.sort()
            last = runs[-1][0]
            held = [[] for _ in self.sources] if many and sim.tracing else None
            writer = None  # the source whose emits scheduled events
            for end, i, run in runs:
                if end > sim.now:
                    sim.run_ahead(end)
                if held is not None:
                    sim.held = held[i]
                scheduled = sim.scheduled
                self.sources[i].emit(run)
                # an event at or before the last tick of a window of more than one
                # tick would have come before one of its ticks
                if sim.ahead_limit() < last and (many or len(run.times) > 1):
                    raise SchedulingError(f"{run.flow_id}: an emit scheduled an event at "
                                          f"or before t={last}, the last tick of its window")
                if many and sim.scheduled != scheduled:
                    if writer not in (None, i):
                        raise SchedulingError(f"{run.flow_id}: emits of two sources of the "
                                              f"window to t={last} scheduled events")
                    writer = i
            if held is not None:
                sim.release_trace(held)
        if nxt.next_at < math.inf:
            sim.schedule_at(nxt.next_at, nxt._tick)


class _Source:
    """A flow's ticks, in spurts: a spurt starting at t0 ticks at t0 + k*dt
    while before its end, and ends at the first tick past that."""

    def __init__(self, ticker: Ticker, flow_id: str, emit: Callable[[PacketRun], None],
                 start: float, stop: float, interval: float, packet_bits: int):
        self.ticker = ticker
        self.flow_id = flow_id
        self.emit = emit
        self.stop = stop
        self.interval = interval
        self.packet_bits = packet_bits
        self.seq = 0
        self.spurt = -1  # index of the current spurt
        self.t0 = self.latest = start  # the spurt's first tick; the last float before its end
        self.k = -1  # the next tick's index in the spurt; -1: a spurt starts next
        self.next_at = start  # time of the next action
        ticker.sources.append(self)

    def _length(self, talk: bool) -> float:
        """Duration of the next talk spurt, or silence: one spurt by default."""
        return math.inf

    def take(self, limit: float, index: int, runs: list) -> None:
        """Add (last tick, index, run) to runs for the ticks up to limit: one
        run with a part per spurt, but spurt 0 ends a run of its own, since a
        Sink reads a run as spurt 0 or later."""
        t, k, dt = self.next_at, self.k, self.interval
        seq0, parts, spurt = self.seq, [], self.spurt  # spurt: of the run's first part
        while t <= limit:
            if k < 0:  # a spurt starts at t
                if t >= self.stop:
                    t = math.inf
                    break
                if self.spurt == 0 and parts:  # a second take makes the next run
                    break
                self.spurt += 1
                self.t0, k = t, 0
                self.latest = math.nextafter(min(t + self._length(True), self.stop), -math.inf)
            t0, latest = self.t0, self.latest
            end = latest if latest < limit else limit  # a tick up to end is taken
            if t <= end:
                past = first_tick(math.nextafter(end, math.inf), dt, t0)  # the first past end
                if not parts:
                    spurt = self.spurt
                parts.append((t0, k, past - k))
                self.seq += past - k
                k = past
                t = t0 + k * dt
            if latest < t <= limit:  # the spurt ends; the next starts after a silence
                t, k = t + self._length(False), -1
        self.next_at, self.k = t, k
        if parts:
            t0, k0, n = parts[-1]
            runs.append((t0 + (k0 + n - 1) * dt, index, PacketRun(
                self.flow_id, seq0, Ticks(dt, parts), self.packet_bits, spurt)))
            if t <= limit:  # the loop stopped where spurt 1 starts
                self.take(limit, index, runs)


class VideoSource(_Source):
    """Constant-bit-rate stream: one packet of packet_bits every packet_bits/rate."""

    def __init__(self, ticker: Ticker, flow_id: str, rate_bps: float, packet_bits: int,
                 emit: Callable[[PacketRun], None], start: float, stop: float):
        if rate_bps <= 0:
            raise ValueError("rate must be > 0")
        super().__init__(ticker, flow_id, emit, start, stop, packet_bits / rate_bps,
                         packet_bits)

    def _tick(self) -> None:
        self.ticker.run(self)


class VoipSource(_Source):
    """On/off voice: a packet of codec_rate * interval bits every interval
    during talk spurts; spurts and silences are exponentially distributed."""

    def __init__(self, ticker: Ticker, flow_id: str, interval: float, codec_rate: float,
                 spurt_mean: float, silence_mean: float, rng: random.Random,
                 emit: Callable[[PacketRun], None], start: float, stop: float):
        for name, value in (("interval", interval), ("codec_rate", codec_rate),
                            ("spurt_mean", spurt_mean), ("silence_mean", silence_mean)):
            if value <= 0:
                raise ValueError(f"{name} must be > 0")
        super().__init__(ticker, flow_id, emit, start, stop, interval,
                         int(codec_rate * interval))
        self.spurt_mean = spurt_mean
        self.silence_mean = silence_mean
        self.rng = rng

    def _length(self, talk: bool) -> float:
        return self.rng.expovariate(1.0 / (self.spurt_mean if talk else self.silence_mean))

    def _tick(self) -> None:
        self.ticker.run(self)


_HUGE = 2.0 ** 1023  # the least float whose binade ends in an overflow
_TOP = 2.0 ** 53  # a binade holds the multiples k * ulp with k below this


def delay_pieces(times: Ticks, lo: int, hi: int, a: float, b: float,
                 c: float) -> list[tuple[float, int]]:
    """The delays ((x + a) + b) + c - x of ticks x = times[lo..hi-1], in
    order, as (delay, count) pieces: each is a run of ticks of one delay.

    Let a, b, c >= 0 and x > 0 lie in the binade [2**(e-1), 2**e), of ulp
    u = 2**(e-53) (below 2**-1021: [0, 2**-1021), of ulp 2**-1074), and
    none of a, b, c be an odd multiple of u/2, which would make a rounding
    tie. While x + delay stays below 2**e, each partial sum is x plus a
    multiple of u that does not depend on x, and the final - x is exact:
    every such tick has the delay of the first, whatever part of times or
    talk spurt it is in. Any other tick (0, one whose sum reaches the next
    binade, a tie) is a piece of its own.
    """
    binade_rule = a >= 0.0 and b >= 0.0 and c >= 0.0
    pieces = []
    k = lo
    while k < hi:
        x = times[k]
        s = x + a + b + c
        d, n = s - x, 1
        if binade_rule and 0.0 < x < _HUGE:
            u = math.ulp(x)
            top = u * _TOP  # 2**e
            if s < top and (a / u) % 1.0 != 0.5 and (b / u) % 1.0 != 0.5 \
                    and (c / u) % 1.0 != 0.5:
                # the last tick first: a segment is almost always one piece;
                # else the piece ends at the first tick x with x + d >= 2**e
                last = times[hi - 1]
                n = (hi if last + a + b + c < top else times.bisect(top - d, k + 1, hi, float)) - k
        pieces.append((d, n))
        k += n
    return pieces


def repeat_add(total: float, d: float, n: int) -> float:
    """The float that n times `total += d` leaves.

    While the sum stays in total's binade, of ulp v, an add moves the
    integer t = total / v by d / v rounded to the nearest integer; on a tie,
    an add makes t even, and from an even t it moves by m + (m & 1), where
    m = floor(d / v). So the adds that stay in the binade are taken at once
    in integers, and the one that leaves it as a float: for d >= 0 and
    total + d > 0, a few steps per binade crossed. Any other total or d
    takes one add a step.
    """
    while n > 0:
        total += d  # as a float: the first add, an add to an even t or across a binade
        n -= 1
        if n == 0:
            break
        v = math.ulp(total)
        q = d / v
        if 0.0 < total < _HUGE and 0.0 <= q < _TOP:
            # t, m, r, k and the sums below are integers up to 2**53, on
            # which float arithmetic is exact
            t, f = total / v, q % 1.0
            m = q - f
            if f != 0.5 or t % 2.0 == 0.0:  # else the next add makes t even
                r = m + (f > 0.5 if f != 0.5 else m % 2.0)
                # the adds from t + i*r, i < k, sum below 2**53 * v; m <= r, so k >= 0
                k = (_TOP - 1.0 - m - t) // r + 1.0 if r else n
                if k > n:
                    k = n
                total = (t + k * r) * v
                n -= int(k)
    return total


class Sink:
    """Receiver-side classification into received / late.

    A packet of a later talk spurt than the first is late when its one-way
    delay exceeds the playout budget: the minimum delay observed over the
    flow's first spurt (spurt 0) plus the fixed playout delay. A video flow
    is one spurt, so it has no deadline. A packet takes one path, so a sink
    takes it once: a repeated seq raises ValueError (SeqSet.add).
    """

    def __init__(self, stats: FlowStats, playout_delay: float):
        self.stats = stats
        self.playout_delay = playout_delay
        self._budget: Optional[float] = None
        self._first_spurt_min: Optional[float] = None

    def receive(self, seq0: int, times: Ticks, lo: int, hi: int,
                a: float, b: float, c: float, spurt: int = 0) -> None:
        """Classify packets lo..hi-1 of a run, lo < hi, in this order: packet
        k has seq seq0 + k, was sent at times[k] and arrives at
        ((times[k] + a) + b) + c."""
        stats = self.stats
        stats.received_seqs.add(seq0 + lo, seq0 + hi)
        total, late = stats.delay_sum, 0
        pieces = delay_pieces(times, lo, hi, a, b, c)
        if spurt == 0:
            low = self._first_spurt_min
            for d, n in pieces:
                if low is None or d < low:
                    low = d
                total = repeat_add(total, d, n)
            self._first_spurt_min = low
        else:
            budget = self._budget
            if budget is None:  # set by the first packet of a later spurt
                low = self._first_spurt_min
                if low is None:
                    low = pieces[0][0]
                budget = self._budget = low + self.playout_delay
            for d, n in pieces:
                if d > budget:
                    late += n
                else:
                    total = repeat_add(total, d, n)
        stats.delay_sum = total
        stats.received += hi - lo - late
        stats.late += late

    def on_receive(self, seq: int, sent_at: float, now: float, spurt: int = 0) -> str:
        """Classify packet seq, sent at sent_at and arriving at now: receive
        of one packet sent at 0.0, whose delay ((0.0 + now) + -sent_at) + 0.0
        - 0.0 is now - sent_at. Returns "received" or "late"."""
        late = self.stats.late
        self.receive(seq, Ticks(1.0, [(0.0, 0, 1)]), 0, 1, now, -sent_at, 0.0, spurt)
        return "late" if self.stats.late > late else "received"
