"""Field-sweep mobility: boustrophedon rows with ping-pong retrace at the path ends."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional


class TractorPath:
    """Piecewise-linear path over a rectangular field.

    The node traverses a row from x1 to x2 at y1, steps by (y2-y1)/row_count,
    traverses back, and so on for row_count rows. Past the last vertex the
    path is retraced in reverse (ping-pong), so the position is defined for
    arbitrarily long runs.
    """

    def __init__(self, x1: float, y1: float, x2: float, y2: float, row_count: int,
                 speed: float):
        if row_count < 1:
            raise ValueError("row_count must be >= 1")
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2
        self.row_count, self.speed = row_count, speed
        dy = (y2 - y1) / row_count
        pts = [(x1, y1)]
        xa, xb = x1, x2
        y = y1
        for r in range(row_count):
            pts.append((xb, y))
            if r < row_count - 1:
                y += dy
                pts.append((xb, y))
            xa, xb = xb, xa
        self._vertices: list[tuple[float, float]] = pts
        cum = [0.0]
        for (ax, ay), (bx, by) in zip(pts, pts[1:]):
            cum.append(cum[-1] + math.hypot(bx - ax, by - ay))
        self._cum: list[float] = cum

    @property
    def length(self) -> float:
        """One-way path length in meters."""
        return self._cum[-1]

    def position(self, t: float) -> tuple[float, float]:
        if t < 0:
            raise ValueError("t must be >= 0")
        total = self._cum[-1]
        if total == 0.0:
            return self._vertices[0]
        s = math.fmod(self.speed * t, 2.0 * total)
        if s > total:
            s = 2.0 * total - s
        i = bisect_right(self._cum, s) - 1
        if i >= len(self._vertices) - 1:
            return self._vertices[-1]
        (ax, ay), (bx, by) = self._vertices[i], self._vertices[i + 1]
        seg = self._cum[i + 1] - self._cum[i]
        f = (s - self._cum[i]) / seg
        return (ax + f * (bx - ax), ay + f * (by - ay))

    def ring_times(self, cx: float, cy: float, inner: float, outer: float,
                   horizon: float) -> list[tuple[float, float]]:
        """The time intervals, in order and merged, in which the node on a path of
        positive length is inner to outer away from (cx, cy), up to a finite horizon:
        the spans of one way in the ring, each leg reached solved once, unfolded."""
        total, reach, spans, times = self._cum[-1], self.speed * horizon, [], []
        for i in range(min(bisect_right(self._cum, reach), len(self._cum) - 1)):
            a, b = self._vertices[i], self._vertices[i + 1]
            if (out := leg_chord(*a, *b, cx, cy, outer)) is not None:
                hole = leg_chord(*a, *b, cx, cy, inner) or (out[1], out[1])  # no hole: all of it
                spans += [(self._cum[i] + p, self._cum[i] + q)
                          for p, q in ((out[0], hole[0]), (hole[1], out[1])) if p < q]
        for n in range(int(reach / (2 * total)) + 2 if spans else 0):  # out and back
            for a, b in spans + [(2 * total - b, 2 * total - a) for a, b in spans[::-1]]:
                a, b = (2 * n * total + a) / self.speed, (2 * n * total + b) / self.speed
                times.append((times.pop()[0] if times and a <= times[-1][1] else a, b))
        return [(a, min(b, horizon)) for a, b in times if a <= horizon]


def leg_chord(ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
              radius: float) -> Optional[tuple[float, float]]:
    """The part of the leg a-b within radius of c, as distances from a, or None.
    The miss distance is a cross product: it keeps its precision however far c lies."""
    dx, dy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    seg = math.hypot(dx, dy)
    miss = abs(wx * dy - wy * dx) / seg if seg else math.inf
    if not miss <= radius:
        return None
    along, half = (wx * dx + wy * dy) / seg, math.sqrt((radius - miss) * (radius + miss))
    lo, hi = max(along - half, 0.0), min(along + half, seg)
    return (lo, hi) if lo <= hi else None
