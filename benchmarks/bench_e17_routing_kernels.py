"""E17 — routing-kernel throughput: vectorized vs per-message reference.

The E11 reality check routes every superstep of a folded trace on a
concrete topology.  Before the columnar routing engine, each message was
walked edge by edge in Python; now whole traces go through each
topology's one fused kernel, ``route_loads_multi`` (interval-delta
cumsum / level-synchronous ascent over flat (superstep, edge) keys), in
cache-sized superstep chunks.  This bench times both paths on the same trace-scale
workload across every shipped topology, asserts they produce identical
totals, and doubles as the perf tripwire for ``BENCH_baseline.json``
(``record_baseline.py`` records the vectorized and reference seconds and
their ratio).
"""

import time

import numpy as np

from _util import emit_table
from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.networks import (
    TOPOLOGIES,
    ValiantPolicy,
    by_name,
    clear_route_cache,
    route_trace,
)

#: Trace-scale workload: thousands of supersteps' worth of messages folded
#: onto a 64-processor machine — the regime where per-message Python
#: routing dominates E11-style sweeps.
SCALE = dict(v=512, supersteps=250, msgs=500, p=64)
QUICK = dict(v=128, supersteps=60, msgs=40, p=16)


def make_trace(v: int, supersteps: int, msgs: int, seed: int = 17) -> Trace:
    """A legal random trace, drawn in one batch (cluster-respecting)."""
    rng = np.random.default_rng(seed)
    logv = int(np.log2(v))
    labels = rng.integers(0, logv, size=supersteps)
    src = rng.integers(0, v, size=(supersteps, msgs))
    shift = (logv - labels)[:, None]
    low = rng.integers(0, v, size=(supersteps, msgs)) & ((1 << shift) - 1)
    dst = (src >> shift << shift) | low
    trace = Trace(v)
    for s in range(supersteps):
        trace.append(int(labels[s]), src[s], dst[s])
    return trace


#: Workloads are memoised per configuration so construction (the trace
#: append loop, topology setup) stays outside every timed region —
#: ``record_baseline.py`` then measures the same pure-routing seconds the
#: in-test speedup assertion does.
_workloads: dict[tuple, tuple] = {}


def _workload(cfg):
    key = tuple(sorted(cfg.items()))
    if key not in _workloads:
        trace = make_trace(cfg["v"], cfg["supersteps"], cfg["msgs"])
        topos = [by_name(name, cfg["p"]) for name in TOPOLOGIES]
        _workloads[key] = (trace, topos)
    return _workloads[key]


def run_sweep(cfg=SCALE, workload=None):
    """Columnar path: route the whole trace on every topology."""
    clear_route_cache()  # a fresh trace defeats the memo anyway; be explicit
    trace, topos = workload if workload is not None else _workload(cfg)
    rows = []
    for topo in topos:
        prof = route_trace(trace, topo)
        rows.append(
            [
                topo.name,
                round(prof.total_time, 1),
                round(prof.max_congestion, 1),
                prof.max_dilation,
            ]
        )
    return rows


def run_sweep_reference(cfg=SCALE, workload=None):
    """Pre-engine path: per-message reference routers over the records view."""
    trace, topos = workload if workload is not None else _workload(cfg)
    rows = []
    for topo in topos:
        folded = fold_trace(trace, topo.p, keep_empty=True)
        caps = topo.edge_capacities()
        total = 0.0
        for rec in folded.records:
            if rec.src.size == 0:
                total += 1.0
                continue
            seg = np.zeros(rec.src.size, dtype=np.int64)
            loads, dil = topo.route_loads_multi_reference(rec.src, rec.dst, seg, 1)
            total += float((loads[0] / caps).max()) + int(dil[0]) + 1.0
        rows.append([topo.name, round(total, 1)])
    return rows


def test_e17_routing_kernels(benchmark, quick):
    cfg = QUICK if quick else SCALE

    def both():
        # One shared workload: both paths time pure routing, and the
        # valiant profile below reuses the same trace and topologies.
        workload = _workload(cfg)
        t0 = time.perf_counter()
        vec = run_sweep(cfg, workload)
        t_vec = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = run_sweep_reference(cfg, workload)
        t_ref = time.perf_counter() - t0
        return workload, vec, ref, t_vec, t_ref

    workload, vec, ref, t_vec, t_ref = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    speedup = t_ref / t_vec if t_vec > 0 else float("inf")
    rows = [
        [v_row[0], v_row[1], r_row[1], v_row[2], v_row[3]]
        for v_row, r_row in zip(vec, ref)
    ]
    # A valiant profile on one topology, to exercise the policy path at scale.
    trace, topos = workload
    valiant = route_trace(trace, topos[0], ValiantPolicy(0))
    rows.append(["ring+valiant", round(valiant.total_time, 1), "-", "-", "-"])
    rows.append(["speedup", round(speedup, 1), "-", "-", "-"])
    emit_table(
        "e17_routing_kernels",
        f"E17  trace-scale routing: vectorized {t_vec:.3f}s vs reference "
        f"{t_ref:.3f}s ({speedup:.1f}x)",
        ["topology", "routed (vec)", "routed (ref)", "max cong", "max dil"],
        rows,
    )
    # The two paths must agree on every topology's total routed time.
    for v_row, r_row in zip(vec, ref):
        assert v_row[1] == r_row[1], (v_row[0], v_row[1], r_row[1])
    # Valiant's two phases cost more than direct routing but stay bounded.
    direct_ring = vec[0][1]
    assert direct_ring < valiant.total_time < 10 * direct_ring
    if not quick:
        # Acceptance floor for the columnar engine at trace scale.
        assert speedup >= 5.0, f"vectorized routing only {speedup:.1f}x faster"
