"""Deterministic discrete-event core: clock, ordered event queue, named RNG streams."""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable


class SchedulingError(Exception):
    """An event was scheduled in the past, or the clock was asked to go backwards."""


def first_tick(t: float, step: float, offset: float = 0.0) -> int:
    """The least k >= 0 with k * step + offset >= t as the floats compare."""
    k = max(0, math.ceil((t - offset) / step))
    while k > 0 and (k - 1) * step + offset >= t:
        k -= 1
    while k * step + offset < t:
        k += 1
    return k


# A scheduled event is the bare heap entry [fire_at, seq, callback, args];
# it doubles as the cancellation handle. callback=None marks it dead: it
# stays in the heap until it reaches the top, where it is dropped.
EventHandle = list


class Simulator:
    """Single-threaded event loop with an exact, reproducible execution order.

    Times are seconds (float). Events with equal fire time execute in
    scheduling order (a monotone sequence number breaks ties), those
    scheduled with last=True after the others, so a fixed
    program yields a bit-identical event order on every run. Schedulers must
    derive fire times arithmetically (t0 + k*dt), never by accumulating
    increments.
    """

    def __init__(self, seed: int = 1, trace_sink: list[str] | None = None):
        self.now = 0.0
        self.seed = seed
        self.executed = 0
        self._heap: list[list] = []
        self.scheduled = 0  # entries scheduled so far; each one's tie-break number
        self._end = -math.inf  # bound of the run_until call in progress
        self._rngs: dict[str, random.Random] = {}
        self._trace = trace_sink
        self.tracing = trace_sink is not None  # check before building a trace detail
        self.held: list[tuple[float, str]] | None = None  # set: trace() keeps lines here

    # -- random streams ----------------------------------------------------

    def rng(self, stream_id: str) -> random.Random:
        """One independent generator per consumer.

        The same (seed, stream_id) pair yields the identical draw sequence,
        and adding a new consumer never perturbs existing streams.
        """
        r = self._rngs.get(stream_id)
        if r is None:
            r = random.Random(f"{self.seed}/{stream_id}")
            self._rngs[stream_id] = r
        return r

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, fire_at: float, callback: Callable, *args: Any,
                    last: bool = False) -> EventHandle:
        """last: run after the events at fire_at scheduled without it."""
        if fire_at < self.now:
            raise SchedulingError(f"schedule at t={fire_at} in the past (now={self.now})")
        entry = [fire_at, self.scheduled + (1 << 62 if last else 0), callback, args]
        self.scheduled += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_in(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        return self.schedule_at(self.now + delay, callback, *args)

    def cancel(self, handle: EventHandle) -> bool:
        """True iff the event was still pending and is now removed."""
        if handle[2] is None:
            return False
        handle[2] = None
        handle[3] = ()
        return True

    def ahead_limit(self) -> float:
        """The latest time t for which run_ahead(t) would hold now.

        That is the bound of the run_until call in progress, or the last float
        before the first live heap entry, if that comes first: a new entry
        loses every tie. Cancelled entries on top of the heap are dropped
        first, as run_until would skip them. -inf outside run_until.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if heap and heap[0][0] <= self._end:
            return math.nextafter(heap[0][0], -math.inf)
        return self._end

    def run_ahead(self, t: float) -> bool:
        """Move the clock to t iff an event scheduled now for t would run next,
        before every live entry; a cancelled one never runs and bars nothing.

        On True the caller does the work of that event inline; it is not
        counted in executed.
        """
        if t < self.now:
            raise SchedulingError(f"run ahead to t={t} in the past (now={self.now})")
        if t > self.ahead_limit():
            return False
        self.now = t
        return True

    def run_until(self, end: float) -> int:
        """Execute all events with fire_at <= end; afterwards now == end."""
        if end < self.now:
            raise SchedulingError(f"run_until({end}) behind clock {self.now}")
        self._end = end
        count = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= end:
            entry = pop(heap)
            callback = entry[2]
            if callback is None:  # cancelled
                continue
            entry[2] = None  # consumed; the handle is no longer pending
            self.now = entry[0]
            callback(*entry[3])
            count += 1
        self.now = end
        self._end = -math.inf
        self.executed += count
        return count

    # -- event log ---------------------------------------------------------

    def trace(self, node: str, module: str, kind: str, detail: str = "",
              at: float | None = None) -> None:
        """Log a line stamped with the clock, or with at: a packet of a run
        is handled at its own tick, which the clock does not step through."""
        if self._trace is not None:
            t = self.now if at is None else at
            line = f"{t:.9f} {node} {module} {kind}"
            if detail:
                line = f"{line} {detail}"
            if self.held is None:
                self._trace.append(line)
            else:
                self.held.append((t, line))

    def release_trace(self, held: list[list[tuple[float, str]]]) -> None:
        """Log the (time, line) pairs kept in the lists of held in time order;
        lines of one time in the order of the lists, then as they came."""
        self.held = None
        pairs = sorted((pair for kept in held for pair in kept), key=lambda pair: pair[0])
        self._trace.extend(line for _, line in pairs)
