"""A fixed reference loop that gauges how fast the host runs Python right now.

The box the benchmark runs on is shared. Its speed changes by up to 1.7x
within seconds, and its mean speed drifts by tens of per cent over an hour,
as other tenants' load comes and goes. So while a piece of work is timed, a
Sampler interrupts it every INTERVAL_S of process CPU time and times this
loop, and once more right before and right after it. The work's CPU time,
less the samples', is then scaled as

    scaled = seconds * NOMINAL_S / mean(sample times)

which is the time the work would take on a host that runs this loop in
NOMINAL_S throughout. Samples are spaced evenly in CPU time, so their mean
weights the host's speed as the work's own CPU time does. The loop is written
here and never touches vhosim, so no change to vhosim can move it. It does
what vhosim's hot path does: a heap of events, small objects, set and dict
traffic and method calls, in a few KB. The samples change no simulation
state, so they leave the simulation's output as it is; run.py checks that.

CPU times are the thread's (time.thread_time): the benchmark runs in one
thread, and while a process-wide CPU timer is armed Linux advances the
process CPU clock only at scheduler ticks.

Do not change the loop, SAMPLE_EVENTS or NOMINAL_S: every time the benchmark
reports is scaled by them.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

SAMPLE_EVENTS = 500
NOMINAL_S = 0.0006  # about one sample's CPU time on the 2-core box, typical load
INTERVAL_S = 0.01  # process CPU time between samples


class _Node:
    __slots__ = ("seen", "held")

    def __init__(self):
        self.seen: set[int] = set()
        self.held: dict[int, float] = {}

    def deliver(self, seq: int, now: float) -> None:
        self.seen.add(seq & 255)
        self.held[seq & 63] = now


def loop(events: int = SAMPLE_EVENTS) -> None:
    """Run a small event loop of `events` events."""
    nodes = [_Node() for _ in range(8)]
    heap = [(k * 0.001, k, k % 8) for k in range(64)]
    heapq.heapify(heap)
    seq = 64
    while seq < events + 64:
        now, s, dst = heapq.heappop(heap)
        nodes[dst].deliver(s, now)
        heapq.heappush(heap, (now + 0.001 + (s % 7) * 1e-4, seq, (dst + s) % 8))
        seq += 1


def time_loop() -> float:
    """CPU seconds one run of the loop takes."""
    t0 = time.thread_time()
    loop()
    return time.thread_time() - t0


loop()  # the first call in a fresh process is slow; take it here, untimed


class Sampler:
    """Context manager: the CPU time of its body, unscaled and scaled.

    On exit, cpu_s is the body's CPU time less the samples taken
    during it, and scaled_s is cpu_s scaled as the module docstring says.
    """

    def __enter__(self) -> "Sampler":
        self.samples = [time_loop()]
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._start = time.thread_time()
        return self

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        # a sample still pending ran above, inside the interval it is taken from
        self.cpu_s = time.thread_time() - self._start - sum(self.samples[1:])
        self.samples.append(time_loop())
        self.scaled_s = self.cpu_s * NOMINAL_S / statistics.fmean(self.samples)
