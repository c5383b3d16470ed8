"""Outside-in layer tracing for vhosim, installed by wrapping from this file.

Every function and method defined in one of the layer modules is replaced by
a wrapper for the lifetime of a ``Tracer`` installation; ``uninstall`` puts
the originals back. A wrapper called from its own layer only counts the call
(per caller -> callee edge). A wrapper called from another layer, including
an engine-invoked event callback, also records a span: (function, start, end,
parent span). Spans of one simulation run are kept in memory together and
reduced to per-function and per-layer totals when the run ends.

Code that no wrapper covers (lambdas and closures created at run time, such as
the traffic emit callbacks wired up in ``Scenario``) runs inside the span of
its caller and is attributed to the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("engine", "radio", "llc", "ipv6", "mipv6", "mobility", "traffic",
          "scenario", "harness")
PACKAGE = "vhosim"
BENCH = "bench"  # function id 0: the benchmark itself, outside every layer

# every callback the engine can execute, as in engine.events.<qualname>
HANDLERS = (
    "HomeAgentNode.handle", "ForeignRouterNode.handle",
    "WirelessInterface.on_frame", "AccessPoint.on_frame",
    "AccessPoint._beacon_tick", "AccessPoint._ra_tick",
    "VhoController._watchdog_check", "Ipv6Host._dad_done",
    "MnBindingManager._transmit", "MnBindingManager._refresh_binding",
    "VideoSource._tick", "VoipSource._begin_spurt", "VoipSource._tick",
)


def _own_functions(module):
    """(owner, attribute, function, kind) for each function written in module."""
    path = module.__file__

    def own(fn):
        return inspect.isfunction(fn) and fn.__code__.co_filename == path

    for name, obj in vars(module).items():
        if own(obj):
            yield module, name, obj, "function"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, val in vars(obj).items():
                if own(val):
                    yield obj, attr, val, "function"
                elif isinstance(val, property) and own(val.fget):
                    yield obj, attr, val.fget, "property"
                elif (isinstance(val, (classmethod, staticmethod))
                      and own(val.__func__)):
                    yield obj, attr, val.__func__, type(val)


class Tracer:
    """Spans and call counts for one traced pass over a workload's runs."""

    def __init__(self):
        self.names = [BENCH]  # function id -> "<layer>.<qualname>"
        self.layer_of = [-1]  # function id -> index into LAYERS
        self.counts = {"engine.peak_heap": 0, "engine.cancelled": 0,
                       "radio.uplink_data_frames": 0, "radio.uplink_bypassed": 0,
                       "scenario.cn_receives": 0, "scenario.cn_sync": 0}
        self._cur = [-1, -1, 0]  # current layer, span index, function id
        self._sp_fn = array("i")
        self._sp_parent = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")

        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        targets = [(layer, owner, attr, fn, kind)
                   for layer, module in enumerate(modules)
                   for owner, attr, fn, kind in _own_functions(module)]
        for layer, _owner, _attr, fn, _kind in targets:
            self.names.append(f"{LAYERS[layer]}.{fn.__qualname__}")
            self.layer_of.append(layer)
        n = len(self.names)
        self._edges = [0] * (n * n)  # caller id * n + callee id -> calls
        # reduced over finished runs
        self.spans_into = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n  # read for Scenario.__init__ (scenario.build_s)
        self.handler_events: dict[str, int] = {}
        self.post_s = 0.0
        self._run_until = self.names.index("engine.Simulator.run_until")
        self._scenario_run = self.names.index("scenario.Scenario.run")

        # (owner, attribute, original, replacement)
        self._patches: list[tuple[object, str, object, object]] = []
        replaced = {}
        for fid, (layer, owner, attr, fn, kind) in enumerate(targets, start=1):
            wrapper = self._wrap(self._probe(self.names[fid], fn), fid, layer)
            replaced[id(fn)] = wrapper
            old = vars(owner)[attr]
            if kind == "property":
                new = property(wrapper, old.fset, old.fdel, old.__doc__)
            elif kind == "function":
                new = wrapper
            else:
                new = kind(wrapper)
            self._patches.append((owner, attr, old, new))
        # names bound by "from .x import f" still point at the originals
        done = {(id(owner), attr) for owner, attr, _old, _new in self._patches}
        for module in modules + [importlib.import_module(PACKAGE)]:
            for name, val in vars(module).items():
                if id(val) in replaced and (id(module), name) not in done:
                    self._patches.append((module, name, val, replaced[id(val)]))

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> "Tracer":
        for owner, attr, _old, new in self._patches:
            setattr(owner, attr, new)
        return self

    def uninstall(self) -> None:
        for owner, attr, old, _new in reversed(self._patches):
            setattr(owner, attr, old)

    def _wrap(self, fn, fid: int, layer: int):
        cur = self._cur
        edges = self._edges
        n = len(self.names)
        sp_end = self._sp_end
        sp_len = self._sp_fn.__len__
        add_fn = self._sp_fn.append
        add_parent = self._sp_parent.append
        add_start = self._sp_start.append
        add_end = sp_end.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller_layer, caller_span, caller_fn = cur
            edges[caller_fn * n + fid] += 1
            if caller_layer == layer:
                cur[2] = fid
                try:
                    return fn(*args, **kwargs)
                finally:
                    cur[2] = caller_fn
            i = sp_len()
            add_fn(fid)
            add_parent(caller_span)
            add_end(0.0)
            cur[0] = layer
            cur[1] = i
            cur[2] = fid
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                sp_end[i] = clock()
                cur[0] = caller_layer
                cur[1] = caller_span
                cur[2] = caller_fn

        return functools.wraps(fn)(traced)

    def _probe(self, name: str, fn):
        """Counters read at the engine's and the shortcuts' public entry points."""
        counts = self.counts
        if name == "engine.Simulator.schedule_at":
            def schedule_at(sim, *args, **kwargs):
                handle = fn(sim, *args, **kwargs)
                # the engine exposes no queue length; read its heap
                if len(sim._heap) > counts["engine.peak_heap"]:
                    counts["engine.peak_heap"] = len(sim._heap)
                return handle
            return schedule_at
        if name == "engine.Simulator.cancel":
            def cancel(sim, handle):
                removed = fn(sim, handle)
                counts["engine.cancelled"] += removed
                return removed
            return cancel
        if name == "radio.Medium.iface_to_ap":
            def iface_to_ap(medium, iface, ap, frame):
                if frame.kind == "data":
                    counts["radio.uplink_data_frames"] += 1
                    counts["radio.uplink_bypassed"] += ap.uplink_handler is not None
                return fn(medium, iface, ap, frame)
            return iface_to_ap
        if name == "scenario.CorrespondentNode.receive":
            def receive(cn, pkt, at=None):
                counts["scenario.cn_receives"] += 1
                counts["scenario.cn_sync"] += at is not None
                return fn(cn, pkt, at)
            return receive
        return fn

    # -- runs ----------------------------------------------------------------

    def end_run(self) -> None:
        """Reduce the finished run's spans into the totals, then drop them."""
        run_until, scenario_run = self._run_until, self._scenario_run
        into, self_s, total_s = self.spans_into, self.self_s, self.total_s
        handler_spans = [0] * len(self.names)
        sp_fn, sp_parent = self._sp_fn, self._sp_parent
        sp_start, sp_end = self._sp_start, self._sp_end
        for i, f in enumerate(sp_fn):
            d = sp_end[i] - sp_start[i]
            into[f] += 1
            total_s[f] += d
            self_s[f] += d
            p = sp_parent[i]
            if p >= 0:
                pf = sp_fn[p]
                self_s[pf] -= d
                if pf == run_until:
                    handler_spans[f] += 1
                elif f == scenario_run:
                    self.post_s += sp_end[p] - sp_end[i]
        for f, count in enumerate(handler_spans):
            if count:
                name = self.names[f].split(".", 1)[1]
                self.handler_events[name] = self.handler_events.get(name, 0) + count
        for arr in (sp_fn, sp_parent, sp_start, sp_end):
            del arr[:]

    # -- queries -------------------------------------------------------------

    def calls(self, name: str, caller: str | None = None) -> int:
        """Calls of a function, from any caller or from one named caller."""
        n = len(self.names)
        f = self.names.index(name)
        if caller is not None:
            return self._edges[self.names.index(caller) * n + f]
        return sum(self._edges[c * n + f] for c in range(n))

    def calls_from_layer(self, name: str, layer: str) -> int:
        n = len(self.names)
        f = self.names.index(name)
        li = LAYERS.index(layer)
        return sum(self._edges[c * n + f] for c in range(n)
                   if self.layer_of[c] == li)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (spans entering it, self time in seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for f in range(1, len(self.names)):
            entry = out[LAYERS[self.layer_of[f]]]
            entry[0] += self.spans_into[f]
            entry[1] += self.self_s[f]
        return {k: (c, s) for k, (c, s) in out.items()}


# shortcut -> (metric stem, function that holds it, slow path it skips on a hit)
SHORTCUTS = (
    ("radio.range_memo", "radio.Medium.in_range_moving",
     "scenario.WirelessInterface.position"),
    ("scenario.route_cache", "scenario.MobileNode.send_routed",
     "ipv6.RoutingTable.lookup"),
    ("mipv6.coa_cache", "mipv6.MnBindingManager.current_coa",
     "ipv6.Ipv6Host.global_address"),
    ("mobility.position_memo", "scenario.MobileNode.position",
     "mobility.TractorPath.position"),
)


def _share(part: int, base: int) -> float:
    return part / base if base else 0.0


def per_layer_metrics(tr: Tracer, events: int, app_pkts: int,
                      handovers: int) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced pass; see README.md for each."""
    m: dict[str, tuple[float, str]] = {}
    for layer, (spans, self_s) in tr.layer_totals().items():
        m[f"{layer}.calls"] = (spans, "count")
        m[f"{layer}.self_s"] = (self_s, "s")

    m["engine.events"] = (events, "count")
    m["engine.cancelled"] = (tr.counts["engine.cancelled"], "count")
    m["engine.peak_heap"] = (tr.counts["engine.peak_heap"], "count")
    for handler in HANDLERS:
        m[f"engine.events.{handler}"] = (tr.handler_events.get(handler, 0), "count")
    m["engine.events.other"] = (events - sum(tr.handler_events.get(h, 0)
                                             for h in HANDLERS), "count")

    calls = tr.calls
    m["traffic.app_pkts"] = (app_pkts, "count")
    m["traffic.sink_receives"] = (calls("traffic.Sink.on_receive"), "count")
    m["scenario.drops"] = (calls("scenario.Scenario._on_drop"), "count")
    m["mipv6.encaps"] = (calls("mipv6.encapsulate"), "count")
    m["ipv6.route_lookups"] = (calls("ipv6.RoutingTable.lookup"), "count")
    m["radio.range_checks"] = (calls("radio.Medium.in_range")
                               + calls("radio.Medium.in_range_moving"), "count")
    m["radio.drops"] = (tr.calls_from_layer("scenario.Scenario._on_drop", "radio"),
                        "count")

    m["llc.beacons"] = (calls("llc.VhoController.on_beacon"), "count")
    m["llc.handovers"] = (handovers, "count")
    m["ipv6.ra"] = (calls("ipv6.Ipv6Host.on_router_advertisement"), "count")
    m["ipv6.dad"] = (calls("ipv6.Ipv6Host.start_dad"), "count")
    m["mipv6.bu_sent"] = (calls("scenario.MobileNode.send_routed",
                                caller="mipv6.MnBindingManager._transmit"), "count")
    m["mobility.position_evals"] = (calls("mobility.TractorPath.position"), "count")

    scenario_init = tr.names.index("scenario.Scenario.__init__")
    m["scenario.build_s"] = (tr.total_s[scenario_init], "s")
    m["harness.post_s"] = (tr.post_s, "s")

    for stem, holder, slow in SHORTCUTS:
        base = calls(holder)
        m[f"{stem}_lookups"] = (base, "count")
        m[f"{stem}_hit_ratio"] = (_share(base - calls(slow, caller=holder), base),
                                  "ratio")
    frames = tr.counts["radio.uplink_data_frames"]
    m["radio.uplink_data_frames"] = (frames, "count")
    m["radio.uplink_bypass_share"] = (_share(tr.counts["radio.uplink_bypassed"],
                                             frames), "ratio")
    receives = tr.counts["scenario.cn_receives"]
    m["scenario.cn_receives"] = (receives, "count")
    m["scenario.cn_sync_share"] = (_share(tr.counts["scenario.cn_sync"], receives),
                                   "ratio")
    return m
