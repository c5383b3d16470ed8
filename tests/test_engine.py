import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vhosim.engine import SchedulingError, Simulator
from vhosim.traffic import Ticker, VideoSource, VoipSource


def test_schedule_at_clock_boundary_fires_first():
    sim = Simulator()
    order = []
    sim.schedule_at(0.0, order.append, "boundary")
    sim.schedule_at(1.0, order.append, "later")
    sim.run_until(2.0)
    assert order == ["boundary", "later"]


def test_equal_time_events_execute_in_scheduling_order():
    sim = Simulator()
    order = []
    sim.schedule_at(5.0, order.append, "A")
    sim.schedule_at(5.0, order.append, "B")
    sim.run_until(5.0)
    assert order == ["A", "B"]


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.run_until(2.0)
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(10.0) == 0
    assert sim.now == 10.0


def test_run_until_boundary_exclusion():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda: None)
    assert sim.run_until(2.5) == 2
    assert sim.now == 2.5


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.run_until(4.0)


def test_cancel_semantics():
    sim = Simulator()
    fired = []
    h1 = sim.schedule_at(1.0, fired.append, 1)
    h2 = sim.schedule_at(2.0, fired.append, 2)
    assert sim.cancel(h1) is True
    assert sim.cancel(h1) is False  # cancel twice
    sim.run_until(3.0)
    assert fired == [2]
    assert sim.cancel(h2) is False  # already fired


def test_executed_fire_times_non_decreasing():
    sim = Simulator()
    seen = []
    for t in (3.0, 1.0, 2.0, 1.0):
        sim.schedule_at(t, lambda: seen.append(sim.now))
    sim.run_until(5.0)
    assert seen == sorted(seen)


def _run_program(seed):
    log = []
    sim = Simulator(seed=seed, trace_sink=log)
    rng = sim.rng("jitter")

    def tick(k):
        sim.trace("node", "test", "tick", f"k={k} draw={rng.random():.12f}")
        if k < 20:
            sim.schedule_in(rng.random(), tick, k + 1)

    sim.schedule_at(0.0, tick, 0)
    sim.run_until(100.0)
    return log


def test_identical_seed_gives_identical_event_log():
    assert _run_program(42) == _run_program(42)
    assert _run_program(42) != _run_program(43)


def test_rng_streams_are_independent_and_reproducible():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert [a.rng("x").random() for _ in range(5)] == \
           [b.rng("x").random() for _ in range(5)]
    # draws on one stream never perturb another
    c = Simulator(seed=7)
    c.rng("y").random()
    assert c.rng("x").random() == Simulator(seed=7).rng("x").random()


# -- run_ahead ----------------------------------------------------------------


def _probe_at(sim, t0, *targets):
    """run_ahead(t) for each target, asked from inside an event at t0."""
    got = []
    sim.schedule_at(t0, lambda: got.extend(sim.run_ahead(t) for t in targets))
    return got


def test_run_ahead_moves_the_clock_when_nothing_is_due_first():
    sim = Simulator()
    got = _probe_at(sim, 0.5, 0.75)
    sim.schedule_at(1.0, lambda: None)
    sim.run_until(2.0)
    assert got == [True]
    assert sim.executed == 2  # the inline step is not an event


def test_run_ahead_refuses_a_tie_with_a_pending_entry():
    sim = Simulator()
    got = _probe_at(sim, 0.5, 1.0)
    sim.schedule_at(1.0, lambda: None)
    sim.run_until(2.0)
    assert got == [False]


def test_run_ahead_passes_a_cancelled_entry_at_the_heap_top():
    sim = Simulator()
    fired = []
    got = _probe_at(sim, 0.5, 1.0, 1.5)
    sim.cancel(sim.schedule_at(1.0, fired.append, 1.0))
    sim.run_until(2.0)
    assert got == [True, True]  # a dead entry never runs, so bars nothing
    assert fired == []
    assert sim.executed == 1  # the probe; neither the inline steps nor the dead entry


def test_ahead_limit_drops_stacked_cancelled_entries_up_to_the_first_live_one():
    sim = Simulator()
    fired = []
    got = []

    def probe():
        got.extend((sim.ahead_limit(), sim.run_ahead(1.5), sim.run_ahead(2.0)))

    sim.schedule_at(0.5, probe)
    for t in (0.75, 1.0, 1.0, 1.25, 2.0):  # the dead one at 2.0 comes first on the tie
        sim.cancel(sim.schedule_at(t, fired.append, t))
    sim.schedule_at(2.0, fired.append, 2.0)
    sim.run_until(3.0)
    assert got == [math.nextafter(2.0, 0.0), True, False]  # the live tie still refuses
    assert fired == [2.0]
    assert sim.executed == 2


def test_run_ahead_refuses_a_time_past_the_run_until_end():
    sim = Simulator()
    got = _probe_at(sim, 0.5, 2.5, 2.0)
    sim.run_until(2.0)
    assert got == [False, True]  # the end itself is still inside the run


def test_run_ahead_refuses_outside_run_until():
    sim = Simulator()
    assert sim.run_ahead(0.0) is False
    sim.run_until(1.0)
    assert sim.run_ahead(1.0) is False
    with pytest.raises(SchedulingError):
        sim.run_ahead(0.5)


def test_ahead_limit_is_the_last_time_run_ahead_accepts():
    sim = Simulator()
    got = []

    def probe():
        limit = sim.ahead_limit()
        got.append(limit)
        assert sim.run_ahead(limit) and not sim.run_ahead(math.nextafter(limit, 9.0))

    sim.schedule_at(0.5, probe)
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(1.5, probe)
    sim.run_until(2.0)
    assert got == [math.nextafter(1.0, 0.0), 2.0]
    assert sim.ahead_limit() == -math.inf  # outside run_until


def test_a_cancelled_event_cuts_no_ticker_window():
    # the due tick at 0 runs the video source to 5 s past the dead shot at
    # 2 s; a dead entry that bounded the window would split it at 2 s
    sim = Simulator()
    runs = []
    ticker = Ticker(sim)
    VideoSource(ticker, "v", 1.0, 1, lambda run: runs.append(list(run.times)), 0.0, math.inf)
    ticker.start()
    sim.cancel(sim.schedule_at(2.0, lambda: None))
    sim.run_until(5.0)
    assert runs == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]
    assert sim.executed == 1


def _video_run_program(offset):
    """A 1 s video source held back by an event at 5.5 s, whose emit of a
    run of more than one tick schedules an event offset after its first."""
    sim = Simulator()
    runs = []

    def emit(run):
        runs.append(list(run.times))
        if len(run.times) > 1:
            sim.schedule_at(run.times[0] + offset, lambda: None)

    ticker = Ticker(sim)
    VideoSource(ticker, "v", 1.0, 1, emit, 0.0, math.inf)
    ticker.start()
    sim.schedule_at(5.5, lambda: None)
    return sim, runs


@pytest.mark.parametrize("offset", [0.5, 4.0])
def test_emit_that_schedules_into_its_own_run_raises(offset):
    # the run from the due tick at 0 holds the ticks 0..5; an event at
    # 0.5 s or 4 s would have come before one of them
    sim, runs = _video_run_program(offset)
    with pytest.raises(SchedulingError):
        sim.run_until(10.0)
    assert runs == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]]


def test_emit_that_schedules_past_its_run_keeps_the_run():
    sim, runs = _video_run_program(5.25)  # at 5.25 s, after the run's last tick
    sim.run_until(7.0)
    assert runs == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0]]
    sim, runs = _video_run_program(5.25)
    sim.run_until(3.0)
    assert runs == [[0.0, 1.0, 2.0, 3.0]]  # cut at the run_until end


# Times on a grid of quarter seconds are exact in binary floating point, so
# ticks land exactly on pending entries, tombstones and run_until ends.
_quarter = st.integers(0, 24).map(lambda q: q / 4)
_action = st.one_of(st.just(("none",)),
                    st.tuples(st.just("spawn"), _quarter),
                    st.tuples(st.just("cancel"), st.integers(0, 30)))


def _run_schedule(shots, tombstones, sources, ends, heap_ticks=None):
    """Event log of one program (a line per shot, tick and run_until end),
    the log span (start, end) of each emit that spawned an event into its
    own window of ticks or in a window where another source's emit did,
    whether the run raised SchedulingError, and the (time, flow, seq) of each
    tick emitted. heap_ticks=None pushes every source tick through the heap;
    else heap_ticks are the ticks of that run, from which each window's ticks
    are told. A shot may cancel any event; a source, a shot of the setup, one
    that a shot spawned, or one its own emits spawned: emits of two sources
    share no state."""
    log = []
    sim = Simulator(seed=3, trace_sink=log)
    if heap_ticks is None:
        sim.ahead_limit = lambda: -math.inf
    handles = []  # every event, by id
    shot_handles = []  # the events of the setup and those shots spawned, never an emit
    into_own_run = []
    emitted = []
    spawns = []  # (time, emit's log span) of each event the window's emits spawned
    spawners = []  # per window of ticks, the sources whose emits spawned events

    def act(action, now, own, targets):
        """Spawn an event and add it to own, or cancel one of targets; True iff it spawned."""
        if action[0] == "spawn":
            own.append(schedule(now + action[1], ("none",)))
            return True
        if action[0] == "cancel" and targets:
            sim.cancel(targets[action[1] % len(targets)])
        return False

    def fire(eid, action):
        sim.trace(f"shot{eid}", "test", "fire")
        act(action, sim.now, shot_handles, handles)

    def schedule(t, action):
        handles.append(sim.schedule_at(t, fire, len(handles), action))
        return handles[-1]

    for t, action in shots:
        shot_handles.append(schedule(t, action))
    for j in tombstones:
        if handles:
            sim.cancel(handles[j % len(handles)])
    ticker = Ticker(sim)
    for i, (kind, start, step, every, action) in enumerate(sources):
        own = []  # the events this source's emits spawned

        def emit(run, every=every, action=action, own=own):
            assert sim.now == run.times[-1]  # the clock is at the run's last tick
            start = len(log)  # a window of runs of two sources holds its lines back
            span = (start, start + len(run.times))
            for k, t in enumerate(run.times):
                seq = run.seq0 + k
                emitted.append((t, run.flow_id, seq))
                sim.trace(f"{run.flow_id}:{seq}", "test", "tick", at=t)
                if seq % every == 0:
                    if action[0] == "spawn":
                        spawns.append((t + action[1], span))
                    if act(action, t, own, shot_handles + own):
                        spawners[-1].add(run.flow_id)
                        if len(spawners[-1]) > 1:
                            into_own_run.append(span)
        if kind == "video":  # step quarters per packet
            VideoSource(ticker, f"v{i}", 4.0, step, emit, start, 5.5)
        else:
            VoipSource(ticker, f"a{i}", step / 4, 64000.0, 1.0, 1.35, sim.rng(f"a{i}"),
                       emit, start, 5.5)
    run_window = ticker.run

    def window(due):
        """Run one window of ticks; a spawn at or before its last tick, if it
        holds more than one, goes into it. Its ticks are the heap run's ticks
        not yet emitted up to the ahead limit, or else the due source's next."""
        bound = -math.inf
        if heap_ticks is not None:
            limit = sim.ahead_limit()
            done = set(emitted)
            pending = [tick for tick in heap_ticks if tick not in done]
            ticks = ([t for t, _, _ in pending if t <= limit]
                     or [t for t, flow, _ in pending if flow == due.flow_id][:1])
            if len(ticks) > 1:
                bound = max(ticks)
        spawners.append(set())
        spawns.clear()
        try:
            run_window(due)
        finally:  # also when the window raised
            into_own_run.extend(span for t, span in spawns if t <= bound)
    ticker.run = window
    ticker.start()
    try:
        for end in sorted(ends):
            sim.run_until(end)
            sim.trace("end", "test", "end")
    except SchedulingError:
        return log, into_own_run, True, emitted
    return log, into_own_run, False, emitted


@settings(max_examples=150, deadline=None)
@given(shots=st.lists(st.tuples(_quarter, _action), max_size=12),
       tombstones=st.lists(st.integers(0, 30), max_size=4),
       sources=st.lists(st.tuples(st.sampled_from(["video", "voip"]), _quarter,
                                  st.integers(1, 4), st.integers(1, 5), _action),
                        min_size=1, max_size=3),
       ends=st.lists(_quarter, min_size=1, max_size=4))
@example(shots=[(1.0, ("none",)), (1.5, ("none",))], tombstones=[1],
         sources=[("video", 0.0, 1, 1, ("none",))], ends=[2.0, 6.0])
@example(shots=[(0.5, ("spawn", 0.0))], tombstones=[],
         sources=[("video", 0.25, 1, 2, ("spawn", 0.25)),
                  ("voip", 0.0, 1, 3, ("cancel", 0))],
         ends=[0.75, 6.0])  # the voip tick at 0 cancels the shot at 0.5 s
@example(shots=[], tombstones=[], sources=[("video", 0.0, 1, 3, ("spawn", 0.5))],
         ends=[6.0])  # the due tick 0 opens a run and spawns into it at 0.5
@example(shots=[], tombstones=[], sources=[("video", 0.0, 1, 3, ("spawn", 0.5))],
         ends=[0.5, 6.0])  # ... at 0.5, the run's last tick
@example(shots=[(0.5, ("none",))], tombstones=[],
         sources=[("video", 0.0, 1, 3, ("spawn", 1.0))],
         ends=[6.0])  # each run's spawn lands after its last tick
@example(shots=[], tombstones=[],
         sources=[("video", 0.0, 2, 1, ("none",)), ("video", 0.25, 2, 1, ("none",))],
         ends=[6.0])  # two sources tick in turn, in one window
@example(shots=[(2.0, ("none",)), (3.5, ("cancel", 0))], tombstones=[],
         sources=[("voip", 0.0, 1, 2, ("none",)), ("video", 0.25, 2, 3, ("none",)),
                  ("video", 0.0, 3, 1, ("none",))],
         ends=[1.0, 6.0])  # three sources, ties at 0, 0.75 and 2.25 s, cut by events
@example(shots=[], tombstones=[],
         sources=[("video", 5.0, 1, 1, ("spawn", 0.25)), ("video", 0.0, 1, 1, ("none",))],
         ends=[6.0])  # the run [5.0] spawns into the other source's run [0 .. 5.25]
@example(shots=[], tombstones=[],
         sources=[("video", 0.0, 4, 1, ("spawn", 0.0)), ("voip", 0.0, 4, 1, ("none",))],
         ends=[0.0, 6.0])  # a spawn at its own tick, a window of two ticks at 0
@example(shots=[], tombstones=[],
         sources=[("video", 0.5, 4, 2, ("spawn", 3.0)), ("video", 0.0, 1, 1, ("spawn", 3.5))],
         ends=[3.0, 6.0])  # both spawn at 3.5 s, from ticks 0.5 s and 0 s of one window
@example(shots=[], tombstones=[], sources=[("video", 0.0, 4, 1, ("spawn", 1.25))],
         ends=[1.5, 6.0])  # the run [0, 1] spawns at 1.25 s, after it, before the limit
@example(shots=[], tombstones=[],
         sources=[("video", 0.0, 4, 1, ("spawn", 1.5)), ("voip", 0.25, 4, 1, ("none",))],
         ends=[1.5, 6.0])  # ... and in a window of two sources to 1.25 s, at 1.5 s
@example(shots=[(1.0, ("none",))], tombstones=[0],
         sources=[("video", 0.0, 2, 1, ("none",)), ("video", 0.25, 2, 1, ("none",))],
         ends=[6.0])  # a window of two sources runs past the tombstone at 1.0 s
def test_run_ahead_keeps_the_order_of_the_heap(shots, tombstones, sources, ends):
    heap, _, heap_raised, heap_ticks = _run_schedule(shots, tombstones, sources, ends)
    assert not heap_raised
    inline, into_own_run, raised, _ = _run_schedule(shots, tombstones, sources, ends,
                                                    heap_ticks)
    # an emit that spawns into its own window of ticks, or in a window where
    # another source's emit spawned, breaks the window, and must say so
    # before anything after that emit runs; up to that window, the order holds
    assert raised == bool(into_own_run)
    if raised:
        start, end = into_own_run[0]
        assert len(inline) <= end and inline[:start] == heap[:start]
    else:
        assert inline == heap
