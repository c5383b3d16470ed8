import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vhosim.engine import Simulator
from vhosim.traffic import (
    FlowStats,
    PacketRun,
    SeqSet,
    Sink,
    Ticker,
    Ticks,
    VideoSource,
    VoipSource,
    _Source,
    compute_mos,
    delay_pieces,
    packet_loss_rate,
    repeat_add,
)

from sink_tap import classify, reference_state, tap

# VoipSource's interval, codec rate and spurt and silence means: ScenarioConfig's defaults
VOIP = (0.020, 64000.0, 1.0, 1.35)
PLAYOUT = 0.005  # ScenarioConfig's voip_playout


def _voip(sim, emit):
    """A VoIP source from time 0 on, started on a ticker of its own."""
    ticker = Ticker(sim)
    VoipSource(ticker, "voip", *VOIP, sim.rng("voip"), emit, 0.0, math.inf)
    ticker.start()


# Frozen expectations for the simplified E-model, computed independently from
# R = 93.2 - Id(d) - Ie_eff(loss) and the cubic R-to-MOS mapping.
MOS_GRID = [
    # (loss_fraction, one_way_delay_s, expected_mos)
    (0.00, 0.0, 4.409285824),
    (0.00, 0.1, 4.358103616),
    (0.00, 0.3, 3.712088177627311),
    (0.05, 0.0, 3.9228389925748117),
    (0.05, 0.1, 3.822700993799875),
    (0.05, 0.3, 2.928955947326534),
    (0.20, 0.0, 2.6313200804901156),
    (0.20, 0.1, 2.505388316686555),
    (0.20, 0.3, 1.624530909220995),
]


def stats_for(loss, delay, sent=1000):
    received = round((1.0 - loss) * sent)
    s = FlowStats("f")
    s.sent = sent
    s.received = received
    s.lost = sent - received
    s.delay_sum = delay * received
    return s


@pytest.mark.parametrize("loss,delay,want", MOS_GRID)
def test_mos_reference_grid(loss, delay, want):
    report = compute_mos(stats_for(loss, delay))
    assert abs(report.mos - want) < 0.01


def test_mos_clamps_at_total_loss():
    report = compute_mos(stats_for(1.0, 0.0))
    assert report.mos == pytest.approx(1.1768624064914488)


def test_mos_monotone_in_loss_and_delay():
    for delay in (0.0, 0.05, 0.15, 0.3):
        mos = [compute_mos(stats_for(l, delay)).mos
               for l in (0.0, 0.02, 0.05, 0.1, 0.2, 0.4)]
        assert mos == sorted(mos, reverse=True)
    for loss in (0.0, 0.05, 0.2):
        mos = [compute_mos(stats_for(loss, d)).mos
               for d in (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0)]
        assert mos == sorted(mos, reverse=True)


@pytest.mark.parametrize("delay", [1.0, 1.5, 3.0])
def test_mos_is_one_for_r_below_zero(delay):
    # G.107 Annex B: MOS 1 for R < 0; the cubic there gives 1.72 at 1.0 s
    # and 4.5 (clamped) at 1.2 s, from R = -21.3 and -48.1
    report = compute_mos(stats_for(0.0, delay))
    assert report.r_factor < 0
    assert report.mos == 1.0


def test_mos_is_four_and_a_half_for_r_above_100():
    # only a negative delay lifts R past 93.2; the cubic gives 4.30 at R = 117
    report = compute_mos(stats_for(0.0, -1.0))
    assert report.r_factor > 100
    assert report.mos == 4.5


def test_loss_rate_counts_late_packets_as_lost():
    s = FlowStats("f", sent=100, received=90, late=6, lost=4)
    assert packet_loss_rate(s) == pytest.approx(0.1)


def test_loss_rate_requires_traffic():
    with pytest.raises(ValueError):
        packet_loss_rate(FlowStats("f"))


def packets(runs: list[PacketRun]) -> list[PacketRun]:
    """Every packet of the runs, in emission order, as a run of one."""
    return [run.part(k, k + 1) for run in runs for k in range(len(run.times))]


# Large t0 and tiny dt make ticks that round, or that several k share.
_t0 = st.one_of(st.sampled_from([0.0, 5.0, 1999.98]), st.floats(0.0, 100.0),
                st.floats(1e5, 1e9))
_dt = st.one_of(st.sampled_from([0.02, 0.005, 0.1, 1 / 3]), st.floats(1e-9, 2.0))
_near = st.sampled_from([-1, 0, 0, 1])  # a limit just below, on or just above a tick


def _nudge(t: float, way: int) -> float:
    return t if way == 0 else math.nextafter(t, way * math.inf)


@settings(max_examples=300, deadline=None)
@given(_t0, _dt, st.lists(st.tuples(st.integers(0, 80), _near), min_size=1, max_size=4))
@example(5.0, 0.02, [(3, 0), (0, 0), (7, 1)])
@example(0.0, 0.02, [(40, 0), (5, 0)])  # (t0 + 46 dt - (t0 + 41 dt)) / dt is below 5
@example(0.0, 1 / 3, [(20, 0), (41, 0)])
@example(1e9, 1e-9, [(50, 0), (40, -1)])  # about 120 ticks share each float
def test_take_ends_a_window_where_the_append_loop_did(t0, dt, cuts):
    src = _Source(Ticker(Simulator()), "f", None, t0, math.inf, dt, 1)
    k, t, want, got, limit = 0, t0, [], [], -math.inf
    for ahead, way in cuts:
        limit = max(limit, _nudge(t0 + (k + ahead) * dt, way))
        while t <= limit:  # the loop take used to run, one float per tick
            want.append(t)
            k += 1
            t = t0 + k * dt
        runs = []
        src.take(limit, 0, runs)
        got += [x for last, _, run in runs for x in run.times]
        assert [last for last, _, _ in runs] == [run.times[-1] for _, _, run in runs]
        assert got == want and src.next_at == t and src.seq == len(want)


_keys = st.one_of(st.just(float), st.builds(lambda h: h.__add__, st.floats(0.0, 0.1)),
                  st.builds(lambda a, b, c: lambda x: x + a + b + c, st.floats(0.0, 1.0),
                            st.floats(0.0, 0.1), st.floats(0.0, 0.01)),
                  st.builds(lambda a, e: lambda x: x + a - e, st.floats(0.0, 1.0),
                            st.floats(0.0, 1e3)))


@st.composite
def piecewise_ticks(draw) -> Ticks:
    """Ticks of one to five parts: the first may start mid-spurt (k0 > 0),
    each later one starts a spurt at or after the last tick before it; a
    part may be one tick long."""
    dt, t0 = draw(_dt), draw(_t0)
    parts = [(t0, draw(st.integers(0, 50)), draw(st.one_of(st.just(1), st.integers(1, 120))))]
    for _ in range(draw(st.integers(0, 4))):
        last = t0 + (parts[-1][1] + parts[-1][2] - 1) * dt
        t0 = last + draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 10.0)))
        parts.append((t0, 0, draw(st.one_of(st.just(1), st.integers(1, 40)))))
    return Ticks(dt, parts)


def _check_ticks(ticks: Ticks, values: list[float], data) -> None:
    """ticks reads as the list values: length, iteration, parts, indexing,
    slices and bisect. Without data, each tick is a tie of a probe."""
    n = len(values)
    assert len(ticks) == n and list(ticks) == values
    assert all(m >= 1 for _, _, m in ticks.parts) and sum(m for _, _, m in ticks.parts) == n
    assert [ticks[i] for i in range(-n, n)] == values + values
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            ticks[i]
    starts = [0]
    for _, _, m in ticks.parts:
        starts.append(starts[-1] + m)
    # slices inside one part, across parts, and empty ones
    cuts = [(0, n), (n, n), (3, 2), (starts[max(0, len(starts) - 2)], n)]
    cuts += list(zip(starts, starts[1:]))
    if data is not None:
        cuts.append((data.draw(st.integers(-n - 2, n + 2)), data.draw(st.integers(-n - 2, n + 2))))
    for lo, hi in cuts:
        part = ticks[lo:hi]
        assert list(part) == values[lo:hi] and len(part) == len(values[lo:hi])
        assert all(m >= 1 for _, _, m in part.parts)
        assert [part[i] for i in range(len(part))] == values[lo:hi]
    if data is None:  # a tie at every tick, over the whole list
        probes = [(key, x, 0, n) for key in (float, (0.25).__add__) for x in map(key, values)]
    else:
        key = data.draw(_keys)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        x = data.draw(st.one_of(
            st.builds(lambda i, way: _nudge(key(values[i]), way), st.integers(0, n - 1), _near),
            st.floats(-10.0, 2e9)) if n else st.floats(-10.0, 2e9))
        probes = [(key, x, lo, hi)]
    for key, x, lo, hi in probes:
        assert ticks.bisect(x, lo, hi, key) == bisect_left(values, x, lo, hi, key=key)
        assert ticks.bisect(x, lo, hi, key, right=True) == bisect_right(values, x, lo, hi,
                                                                         key=key)


@settings(max_examples=500, deadline=None)
@given(piecewise_ticks(), st.data())
@example(Ticks(0.1, [(0.0, 0, 10)]), None)
@example(Ticks(0.125, [(5.0, 3, 4), (5.75, 0, 1), (5.75, 0, 3)]), None)  # parts at the last tick
def test_ticks_bisect_is_bisect_over_their_list(ticks, data):
    values = [t0 + k * ticks.dt for t0, k0, n in ticks.parts for k in range(k0, k0 + n)]
    n = len(values)
    _check_ticks(ticks, values, data)
    # views, as a source's runs are of its schedule: from any tick of any part
    # on, slices of those, and empty ones
    if data is None:
        views = [(lo, hi, 1, -1) for lo in range(n) for hi in (n, lo + 2)]
    else:
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        views = [(lo, hi, data.draw(st.integers(0, hi - lo)), data.draw(st.integers(0, hi - lo)))]
    views += [(n, n, 0, 0), (0, n, n, n)]
    for lo, hi, lo2, hi2 in views:
        view = ticks[lo:hi]
        _check_ticks(view, values[lo:hi], data)
        _check_ticks(view[lo2:hi2], values[lo:hi][lo2:hi2], data)


@settings(max_examples=300, deadline=None)
@given(piecewise_ticks(), _keys, st.one_of(st.just(0.0), st.floats(0.0, 1e3)), st.data())
@example(Ticks(0.02, [(5.0, 0, 50)]), float, 0.0, None)
def test_ticks_bisect_that_answers_hi_calls_its_key_once(ticks, key, above, data):
    # the common search: no tick of lo..hi-1 reaches x, so the answer is hi
    n = len(ticks)
    if data is None:
        lo, hi = 0, n
    else:
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
    top = key(ticks[hi - 1]) + above  # at or above the key of every tick in lo..hi-1
    calls = []

    def counted(t: float) -> float:
        calls.append(t)
        return key(t)

    for x, right in ((math.nextafter(top, math.inf), False), (top, True)):
        calls.clear()
        assert ticks.bisect(x, lo, hi, counted, right=right) == hi
        assert calls == [ticks[hi - 1]]


def test_video_source_cadence_and_sizes():
    sim = Simulator()
    ticker = Ticker(sim)
    out = []
    VideoSource(ticker, "v", rate_bps=0.5e6, packet_bits=10000, emit=out.append,
                start=5.0, stop=math.inf)
    ticker.start()
    sim.run_until(5.99)
    # 10000 bits at 0.5 Mbps: one packet every 20 ms, 50 packets in [5, 5.99]
    pkts = packets(out)
    assert len(pkts) == 50
    assert [p.times[0] for p in pkts[:3]] == [5.0, 5.02, 5.04]
    assert all(p.bits == 10000 for p in pkts)
    assert [p.seq0 for p in pkts] == list(range(50))
    # the due tick and the ticks that run inline after it make one run
    assert [len(run.times) for run in out] == [50]


def test_video_source_stop_time():
    sim = Simulator()
    ticker = Ticker(sim)
    out = []
    VideoSource(ticker, "v", 2e6, 10000, out.append, start=0.0, stop=0.1)
    ticker.start()
    sim.run_until(1.0)
    assert len(packets(out)) == 20  # 5 ms interval, [0, 0.1)


def _voip_reference(until: float, seed: int = 1, interval: float = VOIP[0],
                    spurt_mean: float = VOIP[2], silence_mean: float = VOIP[3],
                    start: float = 0.0, stop: float = math.inf) -> list[tuple[int, float]]:
    """(spurt, tick) of each packet a VoIP source sends by until, spurt by
    spurt from the "voip" stream of the seed: a spurt starting at s, if
    before stop, ticks at s + k*interval up to its end or stop, and the next
    starts a silence after its first tick past that."""
    rng = Simulator(seed).rng("voip")
    out, spurt = [], 0
    while start <= until and start < stop:
        latest = math.nextafter(min(start + rng.expovariate(1.0 / spurt_mean), stop),
                                -math.inf)
        k = 0
        while (x := start + k * interval) <= latest and x <= until:
            out.append((spurt, x))
            k += 1
        start = start + k * interval + rng.expovariate(1.0 / silence_mean)
        spurt += 1
    return out


def _assert_runs_match(runs: list[PacketRun], ref: list[tuple[int, float]]) -> None:
    """The runs are the packets of ref, seqs running on from 0: a run's
    ticks are those of its seqs, its spurt is its first packet's, spurt 0
    has runs of its own, and its parts are its spurts."""
    seq = 0
    for run in runs:
        n = len(run.times)
        ours = ref[seq:seq + n]
        spurts = [spurt for spurt, _ in ours]
        assert run.seq0 == seq and n >= 1 and list(run.times) == [x for _, x in ours]
        assert run.spurt == spurts[0] and (0 not in spurts or set(spurts) == {0})
        assert [m for _, _, m in run.times.parts] == [len(list(g)) for _, g in groupby(spurts)]
        seq += n
    assert seq == len(ref)


class _Counted(random.Random):
    """A random stream that counts its random() draws."""

    draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()


def _voip_runs(until: float, cuts=(), seed: int = 1, interval: float = VOIP[0],
               spurt_mean: float = VOIP[2], silence_mean: float = VOIP[3],
               start: float = 0.0, stop: float = math.inf) -> tuple[list[PacketRun], int]:
    """The runs a VoIP source on a ticker of its own emits before until, with
    a no-op event at each cut time before it to end a window there, and the
    draws its stream made."""
    sim = Simulator(seed)
    for t in cuts:
        if t <= until:
            sim.schedule_at(t, lambda: None)
    ticker = Ticker(sim)
    rng = _Counted(f"{seed}/voip")  # sim.rng("voip"), counted
    out = []
    VoipSource(ticker, "voip", interval, VOIP[1], spurt_mean, silence_mean, rng, out.append,
               start, stop)
    ticker.start()
    sim.run_until(until)
    return out, rng.draws


def test_voip_packets_carry_spurt_index_and_fixed_size():
    sim = Simulator()
    out = []
    _voip(sim, out.append)
    sim.run_until(60.0)
    pkts = packets(out)
    assert all(p.bits == 1280 for p in pkts)  # 64 kbps * 20 ms
    # the ticks are those of an independent spurt-by-spurt reference; a run
    # may hold many spurts, and a spurt may have no tick, so a run's parts
    # do not name its packets' spurts: the reference does
    ref = _voip_reference(60.0)
    assert [p.times[0] for p in pkts] == [x for _, x in ref]
    spurt_of = [spurt for spurt, _ in ref]
    spurts = sorted(set(spurt_of))
    assert spurts == list(range(len(spurts))) and len(spurts) > 10
    # within a spurt, packets are spaced exactly one packetization interval
    for spurt in spurts:
        ticks = [x for s, x in ref if s == spurt]
        assert {round(b - a, 9) for a, b in zip(ticks, ticks[1:])} <= {0.02}
    # seqs run on from run to run; a run names the spurt of its first packet,
    # and spurt 0 never shares a run with a later spurt
    assert any(len(run.times.parts) > 1 for run in out)
    _assert_runs_match(out, ref)


def test_voip_runs_carry_their_spurt_where_events_cut_the_windows():
    # alone, a source's windows end only at the run's end; no-op events end
    # them anywhere: mid-spurt, mid-silence, and at many spurts from 1 on
    rng = random.Random(29)
    cuts = sorted(rng.uniform(0.0, 60.0) for _ in range(300))
    out, _ = _voip_runs(60.0, cuts)
    ref = _voip_reference(60.0)
    _assert_runs_match(out, ref)
    assert len(out) > 100 and len({run.spurt for run in out}) > 20


_seed = st.integers(0, 2 ** 32)
# a tiny spurt mean makes spurts of one tick, from 0, or none, past 0; silences
# stay long enough to bound the spurts of a run
_spurt_mean = st.one_of(st.sampled_from([1.0, 1e-9, 1e-300]), st.floats(1e-4, 3.0))
_silence_mean = st.one_of(st.just(1.35), st.floats(1e-2, 3.0))
_interval = st.one_of(st.sampled_from([0.02, 0.03]), st.floats(1e-3, 0.1))
_stop = st.one_of(st.just(math.inf), st.floats(0.0, 30.0))
_cuts = st.lists(st.floats(0.0, 40.0), max_size=40)


@settings(max_examples=150, deadline=None)
@given(_seed, _interval, _spurt_mean, _silence_mean, st.floats(0.0, 10.0), _stop, _cuts)
@example(1, *VOIP[:1], *VOIP[2:], 0.0, 2.0, [0.5, 1.5, 1.9])  # stop inside spurt 1, at 1.88 s
@example(1, *VOIP[:1], 1e-300, VOIP[3], 0.0, math.inf, [])  # spurts of no tick after spurt 0
@example(1, *VOIP[:1], 1.7e308, VOIP[3], 0.0, math.inf, [0.5])  # a spurt too long to count
def test_voip_schedule_is_the_spurt_by_spurt_reference(seed, interval, spurt_mean,
                                                       silence_mean, start, stop, cuts):
    params = (seed, interval, spurt_mean, silence_mean, start, start + stop)
    out, _ = _voip_runs(40.0, sorted(cuts), *params)
    _assert_runs_match(out, _voip_reference(40.0, *params))


@settings(max_examples=100, deadline=None)
@given(_seed, _interval, _spurt_mean, _silence_mean, st.floats(0.0, 10.0), _stop, _cuts)
def test_voip_draws_do_not_depend_on_the_windows(seed, interval, spurt_mean, silence_mean,
                                                 start, stop, cuts):
    params = (seed, interval, spurt_mean, silence_mean, start, start + stop)
    one, one_draws = _voip_runs(40.0, (), *params)
    many, many_draws = _voip_runs(40.0, sorted(cuts), *params)
    assert one_draws == many_draws
    assert [x for run in one for x in run.times] == [x for run in many for x in run.times]


def test_voip_long_run_talk_fraction():
    sim = Simulator(seed=11)
    out = []
    _voip(sim, out.append)
    sim.run_until(2000.0)
    talk_fraction = len(packets(out)) * 0.020 / 2000.0
    # exponential on/off with means 1.0 / 1.35 -> duty cycle 1/2.35
    assert abs(talk_fraction - 1.0 / 2.35) < 0.03


def test_voip_source_reproducible_per_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        out = []
        _voip(sim, out.append)
        sim.run_until(50.0)
        return [(p.seq0, p.times[0]) for p in packets(out)]

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_voip_source_validation():
    sim = Simulator()
    for i, name in enumerate(("interval", "codec_rate", "spurt_mean", "silence_mean")):
        for bad in (0.0, -1.0):
            args = list(VOIP)
            args[i] = bad
            with pytest.raises(ValueError, match=name):
                VoipSource(Ticker(sim), "voip", *args, sim.rng("voip"), [].append, 0.0,
                           math.inf)


def test_sink_late_classification_uses_first_spurt_budget():
    stats = FlowStats("voip")
    sink = Sink(stats, PLAYOUT)
    # first spurt establishes the 10 ms floor -> budget 15 ms
    for seq, delay in enumerate((0.012, 0.010, 0.011)):
        sink.on_receive(seq, sent_at=0.0, now=delay, spurt=0)
    assert stats.received == 3 and stats.late == 0
    assert sink.on_receive(3, 2.0, 2.014, spurt=1) == "received"
    assert sink.on_receive(4, 2.02, 2.040, spurt=1) == "late"
    assert stats.received == 4 and stats.late == 1


def test_sink_video_has_no_deadline():
    # a video flow is one spurt, spurt 0, which sets the budget and meets none
    stats = FlowStats("v")
    sink = Sink(stats, PLAYOUT)
    assert sink.on_receive(0, 0.0, now=0.001) == "received"
    assert sink.on_receive(1, 1.0, now=10.0) == "received"
    assert stats.received == 2 and stats.late == 0


def test_sink_rejects_a_repeated_seq():
    # a packet takes one path, so a sink that takes it twice is a fault
    stats = FlowStats("voip")
    sink = Sink(stats, PLAYOUT)
    assert sink.on_receive(0, 0.0, 0.01) == "received"
    sink.receive(3, Ticks(0.02, [(1.0, 0, 4)]), 0, 4, 0.01, 0.0, 0.0, spurt=0)  # seqs 3..6

    def state():
        return (stats.received, stats.late, stats.delay_sum.hex(), len(stats.received_seqs),
                sink._budget, sink._first_spurt_min, [s in stats.received_seqs for s in range(9)])

    before = state()
    with pytest.raises(ValueError, match="seq 0 "):
        sink.on_receive(0, 0.0, 0.02)
    # a later spurt's segment whose last seq repeats: its first packet would set the budget
    with pytest.raises(ValueError, match="seq 3 "):
        sink.receive(1, Ticks(0.02, [(3.0, 0, 3)]), 0, 3, 0.5, 0.0, 0.0, spurt=1)  # seqs 1..3
    assert state() == before


@st.composite
def sink_segments(draw) -> list[tuple]:
    """Calls (seq0, times, lo, hi, a, b, c, spurt) of one sink: segments of
    disjoint seqs, which may leave gaps, taken in seq order or reordered;
    spurts start at 0 or later and grow from call to call. Ticks and offsets
    are often dyadic, so that delays tie the budget; some segments are long
    and cross a power of two."""
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 100.0))
    step = st.one_of(st.sampled_from([0.125, 0.5, 1.0]), st.floats(1e-3, 10.0))
    offset = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0.0, 1.0))
    segments, end = [], 0
    for _ in range(draw(st.integers(1, 12))):
        first = end + draw(st.one_of(st.just(0), st.integers(0, 4)))
        lo = draw(st.integers(0, 2))
        if draw(st.integers(0, 3)):
            n, k0 = draw(st.integers(1, 8)), draw(st.integers(0, 3))
            t0 = draw(value)
            times = Ticks(draw(step), [(t0, k0, lo + n + draw(st.integers(0, 2)))])
        else:  # long, from just below a power of two
            n, dt = draw(st.integers(9, 400)), draw(st.floats(1e-3, 0.1))
            t0 = 2.0 ** draw(st.integers(-1, 11)) - dt * draw(st.integers(0, 40))
            times = Ticks(dt, [(t0, 0, lo + n + draw(st.integers(0, 2)))])
        segments.append((first - lo, times, lo, lo + n, draw(offset), draw(offset),
                         draw(offset)))
        end = first + n
    order = draw(st.one_of(st.just(range(len(segments))),
                           st.permutations(range(len(segments)))))
    calls, spurt = [], draw(st.integers(0, 1))
    for i in order:
        calls.append((*segments[i], spurt))
        spurt += draw(st.sampled_from([0, 0, 1]))
    return calls


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.0, 0.005, 0.25]), sink_segments())
@example(0.25, [(0, Ticks(1.0, [(1.0, 0, 1)]), 0, 1, 0.25, 0.0, 0.0, 0),  # budget 0.5
                        (1, Ticks(1.0, [(2.0, 0, 2)]), 0, 2, 0.5, 0.0, 0.0, 1),  # delays at it
                        (3, Ticks(1.0, [(4.0, 0, 1)]), 0, 1, 0.5, 0.125, 0.0, 1)])  # past: late
@example(0.005, [(2, Ticks(1.0, [(1.0, 0, 2)]), 0, 2, 0.25, 0.0, 0.0, 1),  # no spurt 0
                         (0, Ticks(1.0, [(0.0, 0, 2)]), 0, 2, 0.5, 0.0, 0.0, 2)])  # 0, 1 after 2, 3
# x + 0.25 + 2**-53 ties in [1, 2): its rounding follows the parity of x
@example(0.0, [(0, Ticks(3 * 2.0 ** -52, [(1.0, 0, 64)]), 0, 64, 0.25 + 2.0 ** -53, 0.0,
                         0.0, 0)])
# the ticks cross 1.0, the sum of the tick 0.98 first; then they cross 2.0
@example(0.005, [(0, Ticks(0.02, [(0.0, 40, 30)]), 0, 30, 0.03, 0.001, 0.0, 0),
                         (30, Ticks(0.02, [(1.5, 0, 40)]), 0, 40, 0.03, 0.001, 0.0, 1)])
def test_sink_batch_counts_as_one_packet_calls(playout, calls):
    batch, single = Sink(FlowStats("b"), playout), Sink(FlowStats("s"), playout)
    ref = reference_state()
    for seq0, times, lo, hi, a, b, c, spurt in calls:
        late = 0
        for k in range(lo, hi):
            now = times[k] + a + b + c
            verdict = single.on_receive(seq0 + k, times[k], now, spurt)
            assert verdict == classify(ref, playout, seq0 + k, now - times[k], spurt)
            late += verdict == "late"
        before = batch.stats.late
        batch.receive(seq0, times, lo, hi, a, b, c, spurt)
        assert batch.stats.late - before == late
    for sink in (batch, single):
        stats = sink.stats
        assert (stats.received, stats.late, sink._budget, sink._first_spurt_min,
                len(stats.received_seqs)) == \
            (ref["received"], ref["late"], ref["budget"], ref["low"], len(ref["seqs"]))
        assert stats.delay_sum.hex() == ref["delay_sum"].hex()
        assert all((seq in stats.received_seqs) == (seq in ref["seqs"])
                   for seq in range(max(ref["seqs"]) + 2))


@st.composite
def sink_windows(draw) -> list[tuple]:
    """Calls (seq0, times, a, b, c, spurt) of one sink, as a source's
    windows reach it: a run of spurt 0, of one part that may start
    mid-spurt, then runs of later spurts of one to four parts each, seqs
    running on. Ticks start near a power of two or anywhere; offsets are
    any, dyadic, or an odd multiple of half the ulp of the run's first
    tick, which ties."""
    dt = draw(st.one_of(st.sampled_from([0.02, 0.125, 3 * 2.0 ** -52]), st.floats(1e-3, 0.1)))
    t = draw(st.one_of(st.sampled_from([0.5, 1.0, 255.9, 511.5]), st.floats(0.0, 300.0)))
    calls, seq, spurt = [], 0, 0
    for run in range(draw(st.integers(1, 4))):
        parts = []
        for _ in range(1 if run == 0 else draw(st.integers(1, 4))):
            k0, n = (draw(st.integers(0, 3)) if not parts else 0), draw(st.integers(1, 30))
            parts.append((t, k0, n))
            t = t + (k0 + n - 1) * dt + draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        times = Ticks(dt, parts)
        half_ulp = math.ulp(times[0]) / 2
        offset = st.one_of(st.sampled_from([0.0, 0.125, 0.25]), st.floats(0.0, 0.1),
                           st.integers(0, 10 ** 6).map(lambda i: (2 * i + 1) * half_ulp))
        calls.append((seq, times, draw(offset), draw(offset), draw(offset), spurt))
        seq += len(times)
        spurt += draw(st.integers(1, 3))
    return calls


def _sink_state(sink: Sink) -> tuple:
    stats = sink.stats
    return (stats.received, stats.late, stats.delay_sum.hex(), sink._budget,
            sink._first_spurt_min, len(stats.received_seqs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0.0, 0.005, 0.25]), sink_windows())
# a window whose ticks cross 256: the sums of its later ticks round to another ulp
@example(0.005, [(0, Ticks(0.02, [(255.0, 0, 10)]), 0.03, 0.001, 0.0, 0),
                 (10, Ticks(0.02, [(255.9, 0, 8), (256.25, 0, 6), (257.5, 0, 3)]),
                  0.03, 0.001, 0.0, 1)])
# x + 0.25 + 2**-53 ties in [1, 2): its rounding follows the parity of x
@example(0.0, [(0, Ticks(3 * 2.0 ** -52, [(1.0, 2, 4)]), 0.25, 0.0, 0.0, 0),
               (4, Ticks(3 * 2.0 ** -52, [(1.0 + 2.0 ** -40, 0, 20), (1.5, 0, 20)]),
                0.25 + 2.0 ** -53, 0.0, 0.0, 1)])
# a late window: 0.26 s of delay against a budget of 0.015 s
@example(0.005, [(0, Ticks(0.02, [(1.0, 0, 5)]), 0.01, 0.0, 0.0, 0),
                 (5, Ticks(0.02, [(3.0, 0, 5), (4.0, 0, 5)]), 0.01, 0.0, 0.25, 2)])
def test_sink_receive_is_the_same_whatever_the_chunking(playout, calls):
    whole, by_part, by_packet = (Sink(FlowStats(f), playout) for f in ("w", "s", "p"))
    check = tap(whole, [])  # and a packet-by-packet shadow of the whole calls
    for seq0, times, a, b, c, spurt in calls:
        whole.receive(seq0, times, 0, len(times), a, b, c, spurt)
        lo = 0
        for _, _, n in times.parts:  # a spurt, or the part of one in the window
            by_part.receive(seq0, times, lo, lo + n, a, b, c, spurt)
            lo += n
        for k in range(len(times)):
            by_packet.receive(seq0, times, k, k + 1, a, b, c, spurt)
    check()
    assert _sink_state(whole) == _sink_state(by_part) == _sink_state(by_packet)


def _added(total: float, d: float, n: int) -> float:
    for _ in range(n):
        total += d
    return total


@st.composite
def additions(draw) -> tuple[float, float, int]:
    """(total, d, n) of repeat_add: total 0, tiny or large; d 0, an odd
    multiple of half total's ulp (a tie) or any; n up to 10**5, so that the
    sum often crosses several binades."""
    total = draw(st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 2.0 ** -1022]),
                           st.floats(0.0, 1e3), st.floats(1e12, 1e300)))
    half_ulp = math.ulp(total) / 2
    d = draw(st.one_of(st.just(0.0), st.integers(0, 2 ** 20).map(lambda i: (2 * i + 1) * half_ulp),
                       st.floats(0.0, 10.0), st.floats(0.0, 1e-9)))
    return total, d, draw(st.integers(0, 10 ** 5))


@settings(max_examples=200, deadline=None)
@given(additions())
@example((0.0, 0.1, 10 ** 5))  # from 0 across 14 binades
@example((1.0, 2.0 ** -53, 10 ** 5))  # a tie, m = 0: t goes even, then stays
@example((1.0 + 2.0 ** -52, 3 * 2.0 ** -53, 10 ** 5))  # a tie from an odd t, m = 1
@example((2.0 ** 53 - 2.0, 1.0, 10))  # ties once the ulp is 2
@example((2.0 ** 53 - 1.0, 3.0, 10))  # ties once the ulp is 2, from an odd t
@example((5e-324, 5e-324, 10 ** 5))  # subnormal
@example((1e300, 1e290, 10 ** 5))
@example((0.5, 0.0, 7))
@example((-0.0, -0.0, 3))  # stays -0.0
@example((1.0, -0.001, 5000))  # d < 0: one add a step
@example((-1.0, 0.001, 5000))  # total < 0: one add a step
def test_repeat_add_equals_the_loop(case):
    total, d, n = case
    assert repeat_add(total, d, n).hex() == _added(total, d, n).hex()


@st.composite
def tick_segments(draw) -> tuple:
    """(times, lo, hi, a, b, c) of delay_pieces: ticks from just below 0.5,
    1, 1024 or 2048, from t0 = 0 with k0 = 0, or from anywhere; offsets any,
    or an odd multiple of half the ulp of the first tick, which ties."""
    dt = draw(st.one_of(st.sampled_from([0.02, 0.125, 3 * 2.0 ** -52]), st.floats(1e-4, 0.5)))
    start = draw(st.sampled_from(["below", "zero", "any"]))
    if start == "below":
        power = draw(st.sampled_from([0.5, 1.0, 1024.0, 2048.0]))
        t0, k0 = power - dt * draw(st.integers(0, 30)), 0
    elif start == "zero":
        t0, k0 = 0.0, 0
    else:
        t0, k0 = draw(st.floats(0.0, 3000.0)), draw(st.integers(0, 5))
    n = draw(st.integers(1, 300))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    half_ulp = math.ulp(t0 + (k0 + lo) * dt) / 2
    offset = st.one_of(st.just(0.0), st.floats(0.0, 0.1),
                       st.integers(0, 10 ** 6).map(lambda i: (2 * i + 1) * half_ulp))
    return Ticks(dt, [(t0, k0, n)]), lo, hi, draw(offset), draw(offset), draw(offset)


@settings(max_examples=300, deadline=None)
@given(tick_segments())
@example((Ticks(0.02, [(0.0, 0, 60)]), 0, 60, 0.03, 0.001, 0.0))  # from 0, across 0.5 and 1
@example((Ticks(3 * 2.0 ** -52, [(1.0, 0, 9)]), 0, 9, 2.0 ** -53, 0.0, 0.0))  # ties
@example((Ticks(0.5, [(-1.0, 0, 9)]), 0, 9, 0.25, 0.0, 0.0))  # ticks below 0
@example((Ticks(5e-324, [(0.0, 0, 9)]), 0, 9, 1.5e-323, 0.0, 0.0))  # subnormal ticks
@example((Ticks(0.125, [(1.0, 0, 6)]), 0, 6, -0.5, -0.1, 0.0))  # sums below the binade
def test_delay_pieces_give_each_ticks_delay(case):
    times, lo, hi, a, b, c = case
    pieces = delay_pieces(times, lo, hi, a, b, c)
    assert all(n >= 1 for _, n in pieces) and sum(n for _, n in pieces) == hi - lo
    each = [d.hex() for d, n in pieces for _ in range(n)]
    assert each == [(x + a + b + c - x).hex() for x in times[lo:hi]]


def test_delay_pieces_cut_a_segment_only_near_a_power_of_two():
    (d, n), = delay_pieces(Ticks(0.02, [(10.0, 0, 200)]), 0, 200, 0.003, 0.001, 0.0)
    assert n == 200 and d == 10.0 + 0.003 + 0.001 - 10.0
    # across 16.0: the ticks below it, the one whose sum reaches it, those past it
    assert [n for _, n in delay_pieces(Ticks(0.02, [(15.0, 0, 100)]), 0, 100, 0.03, 0.0, 0.0)] == \
        [49, 1, 50]


@st.composite
def disjoint_ranges(draw) -> list[tuple[int, int]]:
    """(lo, hi) ranges of seqs that share none: runs of 1 to 30 seqs with
    gaps of up to 9 between them, in seq order or reordered."""
    ranges, end = [], 0
    for _ in range(draw(st.integers(0, 20))):
        lo = end + draw(st.one_of(st.just(0), st.integers(0, 9)))
        end = lo + draw(st.integers(1, 30))
        ranges.append((lo, end))
    return draw(st.one_of(st.just(ranges), st.permutations(ranges)))


def _fill(ranges):
    ours, ref = SeqSet(), set()
    for lo, hi in ranges:
        ours.add(lo, hi)
        ref.update(range(lo, hi))
    return ours, ref


@settings(max_examples=300, deadline=None)
@given(disjoint_ranges(), disjoint_ranges())
def test_seq_set_agrees_with_builtin_set(ranges_a, ranges_b):
    ours_a, ref_a = _fill(ranges_a)
    ours_b, ref_b = _fill(ranges_b)
    assert len(ours_a) == len(ref_a) and len(ours_b) == len(ref_b)
    probe = range(-2, max(ref_a | ref_b, default=0) + 3)
    assert [s in ours_a for s in probe] == [s in ref_a for s in probe]
    assert (ours_a & ours_b) == (ref_a & ref_b)
    assert (ours_b & ours_a) == (ref_a & ref_b)


@settings(max_examples=300, deadline=None)
@given(disjoint_ranges(), st.lists(st.tuples(st.integers(0, 80), st.integers(1, 30)),
                                   max_size=30))
def test_seq_set_range_add_agrees_with_per_seq_add(ranges, tries):
    bulk, single = SeqSet(), SeqSet()
    for lo, hi in ranges:
        bulk.add(lo, hi)
        for seq in range(lo, hi):
            single.add(seq, seq + 1)
        assert len(bulk) == len(single)
    probe = range(-2, 800)  # past every range drawn
    assert [s in bulk for s in probe] == [s in single for s in probe]
    # then ranges that may overlap the set: an overlap raises, naming the
    # first seq in the set, and changes nothing
    ref = {s for s in probe if s in bulk}
    for lo, n in tries:
        overlap = ref.intersection(range(lo, lo + n))
        if overlap:
            with pytest.raises(ValueError, match=f"seq {min(overlap)} "):
                bulk.add(lo, lo + n)
        else:
            bulk.add(lo, lo + n)
            ref.update(range(lo, lo + n))
        assert len(bulk) == len(ref)
        assert [s in bulk for s in probe] == [s in ref for s in probe]


def test_seq_set_rejects_negative_seq():
    seqs = SeqSet()
    for lo, hi in ((-1, 0), (-1, 2), (0, 0), (3, 1)):  # negative, or empty
        with pytest.raises(ValueError, match=rf"seqs \[{lo}, {hi}\): must be a non-empty"):
            seqs.add(lo, hi)
    assert len(seqs) == 0 and -1 not in seqs and 0 not in seqs


@pytest.mark.parametrize("flow", ["video", "voip"])
def test_sink_memory_does_not_grow_per_packet(flow):
    """A delivered packet costs the sink one flag byte, not a set entry, an
    int and a float. A video flow is one spurt; VoIP spurts are 50 packets."""
    n = 100_000
    per_spurt = n if flow == "video" else 50
    stats = FlowStats("f")
    sink = Sink(stats, PLAYOUT)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seq in range(n):
            sent_at = seq * 0.02
            sink.on_receive(seq, sent_at, sent_at + 0.003, spurt=seq // per_spurt)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stats.received == n and len(stats.received_seqs) == n
    assert grown <= 2 * n, f"{grown / n:.1f} bytes per packet"
