"""Span recorder the traced benchmark run wraps around each layer.

:func:`install` replaces each layer entry point with a timing wrapper
at every place it is bound: the defining module, every ``repro`` module
that imported it by name, or the class that owns it.  Lazy imports
inside functions (as in ``repro.exec.dag``) read the defining module at
call time, so they see the wrapper too.

A span's self time is its duration minus the spans it encloses.
``top_ns`` sums the outermost spans, so plan time minus ``top_ns`` is
the time spent outside every layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Recorder:
    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.top_ns = 0
        self._stack: list[list[int]] = []
        self._active: Counter = Counter()
        # Outermost results of some layers, inspected after the plan ran.
        self.emitted: list = []
        self.routed: list = []
        self.sim_cycles = 0

    def wrap(self, name: str, fn, on_result=None, probe=None):
        """``fn`` under a span called ``name`` (layer = prefix before '.').

        ``probe()`` runs before the call, outside the span;
        ``on_result(args, kwargs, result, probed)`` runs after it, for
        the outermost span of the layer only.
        """
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probed = probe() if probe is not None else None
            frame = [0]
            self._stack.append(frame)
            self._active[layer] += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._active[layer] -= 1
                self._stack.pop()
                self.self_ns[name] += dt - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_ns += dt
            if on_result is not None and not self._active[layer]:
                on_result(args, kwargs, result, probed)
            return result

        return wrapper

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in self.calls.items() if n.split(".")[0] == layer)

    def layer_self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Recorder:
    """Wrap every layer entry point the benchmark reports on."""
    from repro.api.registry import AlgorithmSpec
    from repro.core.metrics import TraceMetrics
    from repro.exec import store
    from repro.machine import folding
    from repro.networks import routing
    from repro.sim import engine

    rec = Recorder()

    def emitted(args, kwargs, result, probed):
        rec.emitted.append(result)

    def routed(args, kwargs, result, misses_before):
        if routing.route_cache_stats()["misses"] > misses_before:
            trace, topo = args[0], args[1]
            rec.routed.append((trace, topo))

    def simulated(args, kwargs, result, probed):
        profiles = result if isinstance(result, list) else [result]
        rec.sim_cycles += sum(int(prof.total_cycles) for prof in profiles)

    for cls, attr, name, hook in [
        (AlgorithmSpec, "run", "algorithms.emit", emitted),
        (TraceMetrics, "H", "metrics", None),
        (TraceMetrics, "D_machine", "metrics", None),
        (store.ResultStore, "get_many", "store.get", None),
        (store.ResultStore, "put_many", "store.put", None),
    ]:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), hook))

    for module, attr, name, hook, probe in [
        (folding, "fold_trace", "folding", None, None),
        (folding, "F_vector", "folding", None, None),
        (folding, "S_vector", "folding", None, None),
        (folding, "fold_message_counts", "folding", None, None),
        (routing, "route_trace", "routing", routed,
         lambda: routing.route_cache_stats()["misses"]),
        (engine, "simulate_trace", "sim", simulated, None),
        (engine, "simulate_many", "sim.batch", simulated, None),
        (store, "cell_key", "store.key", None, None),
    ]:
        original = getattr(module, attr)
        _rebind(original, rec.wrap(name, original, hook, probe))
    return rec


def fused_routings(routed: list) -> int:
    """How many routed profiles the fuse gate let through.

    Mirrors ``route_trace``'s gate test, ``messages <= supersteps *
    ceiling``, against the ceilings this process measured; evaluated
    after the plan ran, on the unwrapped fold.
    """
    from repro.networks.routing import fuse_gate_stats
    from repro.machine import folding

    fold = folding.fold_trace.__wrapped__  # set by functools.wraps in Recorder.wrap
    ceilings = fuse_gate_stats()
    fused = 0
    for trace, topo in routed:
        ceiling = ceilings.get((topo.name, topo.p))
        if ceiling is None:
            continue
        cols = fold(trace, topo.p, keep_empty=True).columns()
        if cols.num_supersteps > 1 and cols.num_messages <= cols.num_supersteps * ceiling:
            fused += 1
    return fused
