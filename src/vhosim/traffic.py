"""Application sources and sinks: CBR video, on/off VoIP, loss and MOS metrics."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional

from .engine import SchedulingError, Simulator, first_tick


class Ticks:
    """Ticks lo..lo+n-1 of a schedule: parts (t0, k0, m), m >= 1, in part
    order, part j holding ticks starts[j]..starts[j]+m-1, of which tick
    starts[j] + i is t0 + (k0 + i)*dt, computed by that float expression
    when read. dt > 0, and no part starts below the last tick of the part
    before, so no tick is below the one before. Ticks(dt, parts) is every
    tick of the parts. A source's runs are views of its one schedule, a
    part per talk spurt (_Source), and so are their slices: a view shares
    its schedule's lists, so making one costs the same whatever its length.
    The view's first part, from tick lo on, is also kept in t0, k0 and n0,
    so that a read inside it needs no search over the parts: most runs,
    and every video run, are one part."""

    __slots__ = ("dt", "_parts", "_starts", "_lo", "_n", "_j", "t0", "k0", "n0")

    def __init__(self, dt: float, parts: list[tuple[float, int, int]],
                 starts: Optional[list[int]] = None, lo: int = 0, n: int = 0, j: int = 0):
        """The n ticks from tick lo on, tick lo being in part j; without
        starts, every tick of the parts, whose starts are counted here."""
        if starts is None:
            starts = []
            for _, _, m in parts:
                starts.append(n)
                n += m
        self.dt, self._parts, self._starts = dt, parts, starts
        self._lo, self._n, self._j = lo, n, j
        if n:
            self.t0, k0, m = parts[j]
            s = lo - starts[j]
            self.k0 = k0 + s
            self.n0 = n if n < m - s else m - s  # the ticks of part j from lo on
        else:
            self.t0, self.k0, self.n0 = 0.0, 0, 0

    @property
    def parts(self) -> list[tuple[float, int, int]]:
        """The view's own parts: the first from tick lo on, the last up to
        its last tick."""
        out = [(self.t0, self.k0, self.n0)] if self._n else []
        left, j = self._n - self.n0, self._j
        while left > 0:
            j += 1
            t0, k0, m = self._parts[j]
            out.append((t0, k0, min(m, left)))
            left -= m
        return out

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            lo, hi, step = i.indices(self._n)
            if step != 1:
                raise ValueError("ticks slice with a step")
            if hi <= lo:
                return Ticks(self.dt, self._parts, self._starts, self._lo, 0, self._j)
            j = self._j
            if lo >= self.n0:
                j = bisect_right(self._starts, self._lo + lo, j + 1) - 1
            return Ticks(self.dt, self._parts, self._starts, self._lo + lo, hi - lo, j)
        if not 0 <= i < self.n0:
            n = self._n
            if not -n <= i < n:
                raise IndexError(f"tick {i} of {n}")
            i %= n
            if i >= self.n0:
                starts = self._starts
                i += self._lo
                j = bisect_right(starts, i, self._j + 1) - 1
                t0, k0, _ = self._parts[j]
                return t0 + (k0 + i - starts[j]) * self.dt
        return self.t0 + (self.k0 + i) * self.dt

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
        dt = self.dt
        if hi <= self.n0:  # the view's first part holds every tick of lo..hi-1
            t0, k0, s = self.t0, self.k0, 0
        else:
            off, starts, parts = self._lo, self._starts, self._parts
            j = bisect_right(starts, off + hi - 1, self._j + 1) - 1  # the part of the last tick
            t0, k0, _ = parts[j]
            s = starts[j] - off
            k0 -= s  # tick i of the view, from index s on, is t0 + (k0 + i) * dt
        y = key(last := t0 + (k0 + hi - 1) * dt)
        if not (y > x if right else y >= x):  # no tick reaches x
            return hi
        if lo < s:  # the first part whose last tick reaches x holds the answer

            def reaches(p: int) -> bool:
                t0, k0, m = parts[p]
                y = key(t0 + (k0 + m - 1) * dt)
                return y > x if right else y >= x

            p = bisect_left(range(j), True, bisect_right(starts, off + lo, self._j + 1, j) - 1,
                            j, key=reaches)
            if p < j:
                t0, k0, m = parts[p]
                s = starts[p] - off
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
    seq seq0 + k and is sent at times[k]. A source's run is the view of its
    schedule from tick seq0 on (_Source.take), and a part of a run a view of
    that, so neither copies a part. spurt is the talk-spurt index of the
    first packet of the run its source took (VoIP only), which a part
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
    the ahead limit, the due source's next one in any case, as one view of
    its schedule (two if spurt 0 ends in it), and the runs go to the emits
    in the order of their last ticks (README "Determinism")."""

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


# the ticks of a spurt with no end, or with too many to count: more than a run reads
_ENDLESS = 1 << 62


class _Source:
    """A flow's ticks, from its one schedule: its talk spurts in order, each
    the ticks t0 + k*dt before the spurt's end, k = 0..n-1, and a part
    (t0, 0, n) of the schedule if n >= 1. starts holds each part's first
    tick, counted over the schedule, and spurts its spurt index. The next
    spurt starts a silence after t0 + n*dt, the spurt's first tick past its
    end, unless that is at or after stop. The schedule grows by whole
    spurts up to each take's limit (_extend), so a source without stop
    works too, and a run is a view of it: a packet's seq is its tick's index
    in the schedule. Each take drops the parts wholly taken before it,
    which the views that read them keep, so a source holds the parts of one
    window at most. This source is one spurt, from start up to stop."""

    def __init__(self, ticker: Ticker, flow_id: str, emit: Callable[[PacketRun], None],
                 start: float, stop: float, interval: float, packet_bits: int):
        self.ticker = ticker
        self.flow_id = flow_id
        self.emit = emit
        self.stop = stop
        self.interval = interval
        self.packet_bits = packet_bits
        self.seq = 0  # the next tick to take
        self.next_at = start  # time of the next action: a tick or a spurt start
        self.parts: list[tuple[float, int, int]] = []
        self.starts: list[int] = []
        self.spurts: list[int] = []
        self.total = 0  # ticks in the schedule
        self.at = start  # start of the first spurt not in the schedule; inf: there is none
        ticker.sources.append(self)

    def _extend(self, limit: float) -> None:
        """Add the spurts that start up to limit to the schedule: here the
        one spurt, whose end is stop."""
        t, stop, dt = self.at, self.stop, self.interval
        self.at = math.inf
        if t < stop:
            n = first_tick(stop, dt, t) if (stop - t) / dt < _ENDLESS else _ENDLESS
            self.parts.append((t, 0, n))
            self.starts.append(0)
            self.spurts.append(0)
            self.total = n

    def take(self, limit: float, index: int, runs: list) -> None:
        """Add (last tick, index, run) to runs for the ticks up to limit: one
        view of the schedule, but spurt 0 ends a run of its own, since a Sink
        reads a run as spurt 0 or later. Every spurt of the schedule starts
        by limit, so its ticks past limit are in the last part. The next
        action is the next tick, else the next spurt's start."""
        if self.next_at > limit:
            return
        seq = self.seq
        j = len(self.parts) - (seq < self.total)  # the part of tick seq: the last, or the next
        if j:  # the parts before it are taken
            self.parts, self.starts, self.spurts = self.parts[j:], self.starts[j:], self.spurts[j:]
        if self.at <= limit:
            self._extend(limit)
        parts, hi, dt = self.parts, self.total, self.interval
        if parts and parts[-1][0] + (parts[-1][2] - 1) * dt > limit:  # ticks past limit
            t0, _, m = parts[-1]
            k = first_tick(math.nextafter(limit, math.inf), dt, t0)
            hi += k - m
            self.next_at = t0 + k * dt
        else:
            self.next_at = self.at
        if hi > seq:
            starts, spurts = self.starts, self.spurts
            self.seq, j = hi, 0  # tick seq is in the first part
            if not spurts[0] and hi > (n := parts[0][2]):  # spurt 0, ticks 0..n-1, ends inside
                runs.append((parts[0][0] + (n - 1) * dt, index, PacketRun(
                    self.flow_id, seq, Ticks(dt, parts, starts, seq, n - seq), self.packet_bits)))
                seq, j = n, 1
            runs.append((parts[-1][0] + (hi - 1 - starts[-1]) * dt, index, PacketRun(
                self.flow_id, seq, Ticks(dt, parts, starts, seq, hi - seq, j),
                self.packet_bits, spurts[j])))


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
        self.spurt = 0  # the next spurt's index

    def _extend(self, limit: float) -> None:
        """Add the spurts that start up to limit to the schedule, in one loop
        over the source's stream: per spurt its length, then the silence
        after it, each -log(1 - random()) / (1 / mean), as
        rng.expovariate(1 / mean) draws it on Python 3.10 to 3.13, and its
        ticks by engine.first_tick(end, dt, t), inline. The stream has no
        other reader, so drawing ahead of the ticker changes no draw."""
        t, stop, dt = self.at, self.stop, self.interval
        parts, starts, spurts = self.parts, self.starts, self.spurts
        total, spurt = self.total, self.spurt
        draw, on, off = self.rng.random, 1.0 / self.spurt_mean, 1.0 / self.silence_mean
        log, ceil, inf = math.log, math.ceil, math.inf
        while t <= limit:
            if t >= stop:
                t = inf
                break
            end = t + -log(1.0 - draw()) / on
            if end > stop:
                end = stop
            if (q := (end - t) / dt) < _ENDLESS:  # n = first_tick(end, dt, t)
                n = ceil(q)
                while n and t + (n - 1) * dt >= end:
                    n -= 1
                while t + n * dt < end:
                    n += 1
                past = t + n * dt  # the first tick past the end
            else:
                n, past = _ENDLESS, inf
            if n:
                parts.append((t, 0, n))
                starts.append(total)
                spurts.append(spurt)
                total += n
            spurt += 1
            t = past + -log(1.0 - draw()) / off
        self.at, self.total, self.spurt = t, total, spurt

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
