import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhosim.mobility import TractorPath

MM = 1e-3


def reference_position(x1, y1, x2, y2, rows, speed, t):
    """Straightforward segment walk, written independently of TractorPath."""
    dy = (y2 - y1) / rows
    verts = [(x1, y1)]
    left, right = x1, x2
    y = y1
    for r in range(rows):
        # traverse the row
        if r % 2 == 0:
            verts.append((right, y))
        else:
            verts.append((left, y))
        if r != rows - 1:
            y = y + dy
            verts.append((verts[-1][0], y))
    total = sum(math.dist(a, b) for a, b in zip(verts, verts[1:]))
    s = (speed * t) % (2 * total)
    if s > total:
        s = 2 * total - s
    for a, b in zip(verts, verts[1:]):
        seg = math.dist(a, b)
        if s <= seg:
            f = s / seg if seg else 0.0
            return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
        s -= seg
    return verts[-1]


def test_position_at_time_zero_is_start():
    p = TractorPath(4.0, 0.0, 196.0, 50.0, 5, 1.0)
    assert p.position(0.0) == (4.0, 0.0)


def test_first_row_end_reached_at_row_length_over_speed():
    p = TractorPath(0.0, 0.0, 100.0, 100.0, 5, 2.0)
    x, y = p.position(50.0)  # 100 m at 2 m/s
    assert abs(x - 100.0) < MM and abs(y - 0.0) < MM


def test_midrow_example():
    # (0,0) -> (100,100), 5 rows, 2 m/s: after 30 s the node has covered 60 m
    # of the first row.
    p = TractorPath(0.0, 0.0, 100.0, 100.0, 5, 2.0)
    x, y = p.position(30.0)
    assert abs(x - 60.0) < MM and abs(y - 0.0) < MM


def test_one_way_length_of_standard_field():
    p = TractorPath(4.0, 0.0, 196.0, 50.0, 5, 1.0)
    assert abs(p.length - 1000.0) < MM  # 5*192 + 4*10


@pytest.mark.parametrize("speed", [1.0, 2.0, 4.0, 8.0, 10.0])
def test_positions_match_reference_walker(speed):
    p = TractorPath(4.0, 0.0, 196.0, 50.0, 5, speed)
    for k in range(20):
        t = 13.7 * k + 0.311  # irregular sample times, several sweeps deep
        got = p.position(t)
        want = reference_position(4.0, 0.0, 196.0, 50.0, 5, speed, t)
        assert math.dist(got, want) < MM, (t, got, want)


_coord = st.floats(-500.0, 500.0)


@settings(max_examples=300, deadline=None)
@given(corners=st.tuples(_coord, _coord, _coord, _coord), rows=st.integers(1, 8),
       speed=st.floats(0.1, 20.0), t=st.floats(0.0, 5000.0))
def test_position_matches_reference_walker_on_random_fields(corners, rows, speed, t):
    x1, y1, x2, y2 = corners
    p = TractorPath(x1, y1, x2, y2, rows, speed)
    got = p.position(t)
    if p.length == 0.0:  # a point field: the walker has no path to walk
        assert got == (x1, y1)
        return
    want = reference_position(x1, y1, x2, y2, rows, speed, t)
    assert math.dist(got, want) < MM, (got, want)


def test_pingpong_retrace_returns_to_start():
    p = TractorPath(4.0, 0.0, 196.0, 50.0, 5, 1.0)
    x, y = p.position(2000.0)  # out and back
    assert math.dist((x, y), (4.0, 0.0)) < MM


def test_position_is_continuous():
    p = TractorPath(4.0, 0.0, 196.0, 50.0, 5, 10.0)
    prev = p.position(0.0)
    dt = 0.01
    for k in range(1, 40001):  # 400 s, two full sweeps
        cur = p.position(k * dt)
        assert math.dist(prev, cur) <= 10.0 * dt + 1e-9
        prev = cur


def test_constructor_validation():
    with pytest.raises(ValueError):
        TractorPath(0, 0, 1, 1, 0, 1.0)
    with pytest.raises(ValueError):
        TractorPath(0, 0, 1, 1, 5, 0.0)
    p = TractorPath(0, 0, 1, 1, 5, 1.0)
    with pytest.raises(ValueError):
        p.position(-1.0)
