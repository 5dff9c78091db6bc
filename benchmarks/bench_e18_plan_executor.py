"""E18 — plan-executor throughput: in-line stage waves vs worker pools.

A portability study is a grid: one trace priced on every (topology,
policy, p) cell.  Every plan runs as deduplicated stage waves; the
executor only picks the substrate the waves run on.  This bench runs a
24-cell grid several ways:

* ``run_sweep`` — ``ExperimentPlan.run(executor="serial")``: waves
  in-line, routed by the fused multi-superstep kernels;
* ``run_sweep_thread`` — the same plan on the ``thread`` substrate
  (a pool sharing the in-process LRUs);
* ``run_sweep_shm`` — the persistent zero-copy worker pool
  (``SharedMemoryBackend``, pool forced on so single-CPU recordings
  measure the real dispatch path rather than the serial downgrade);
* ``run_sweep_store_cold`` / ``run_sweep_store_warm`` — the persistent
  cell-hash result store on a *declarative* grid (``@``-sourced plans
  are uncacheable by design): cold pays emission + folds + routes into
  a fresh sqlite file, warm reads every row back without computing
  anything;
* ``run_sweep_stages`` / ``run_sweep_stages_shm`` — a multi-algorithm
  shared-stage grid (each source priced on six topologies in both
  analytic and sim mode, so >60% of planned stage references hit a
  shared node) in-line and over the forced shm pool; the frame's dedup
  counters show each shared stage executing once.

All executor paths must produce bit-identical cell values.
``record_baseline.py`` records the timings; the headline ratio is
store-warm-vs-cold (the caching win), while the pool ratios reflect
however many cores the host actually grants (1 core => ~1x or below).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _util import emit_table
from repro.api import ExperimentPlan
from repro.exec import SharedMemoryBackend
from repro.machine.folding import clear_fold_cache
from repro.networks import clear_route_cache
from repro.util.caches import clear_caches

#: The (n,1)-stencil is the many-small-supersteps regime (n=256 folds to
#: ~1200 supersteps of a few hundred messages each), where the router's
#: chunked whole-trace kernel calls replace per-superstep overhead.
SCALE = dict(algorithm="stencil1d", n=256, ps=(16, 32, 64))
QUICK = dict(algorithm="stencil1d", n=64, ps=(8, 16))

TOPOLOGIES = ("ring", "torus2d", "hypercube", "butterfly")
POLICIES = ("dimension-order", "valiant")

#: Pre-emitted traces per configuration: emission (the algorithm run) is
#: identical in every path and stays outside the timed regions.
_sources: dict[tuple, object] = {}


def _plan(cfg) -> ExperimentPlan:
    key = tuple(sorted(cfg.items()))
    if key not in _sources:
        from repro.api import run

        _sources[key] = run(cfg["algorithm"], n=cfg["n"]).trace
    return ExperimentPlan.from_trace(
        _sources[key],
        ps=list(cfg["ps"]),
        topologies=TOPOLOGIES,
        policies=POLICIES,
        name="e18",
    )


def _cold() -> None:
    # Routed profiles (and folds) are memoised module-wide; every timed
    # run must price the grid from scratch or the comparison is bogus.
    clear_route_cache()
    clear_fold_cache()


def run_sweep(cfg=SCALE):
    """In-line stage waves over the fused routing engine."""
    _cold()
    return _plan(cfg).run(executor="serial")


def run_sweep_thread(cfg=SCALE):
    """Stage waves on a thread pool sharing the in-process LRUs."""
    _cold()
    return _plan(cfg).run(executor="thread", max_workers=4)


def run_sweep_shm(cfg=SCALE):
    """The persistent zero-copy shared-memory pool (forced on, so a
    one-core recording measures the pool rather than the downgrade)."""
    _cold()
    return _plan(cfg).run(executor=SharedMemoryBackend(force=True))


#: Store workloads run a declarative grid (``from_trace`` plans hold an
#: in-memory ``@`` source, which the store refuses to cache) and pay for
#: emission inside the timed region — exactly the cost a warm store run
#: skips.
def _grid_plan(cfg) -> ExperimentPlan:
    return ExperimentPlan.grid(
        algorithms=[cfg["algorithm"]],
        ns=[cfg["n"]],
        ps=list(cfg["ps"]),
        topologies=TOPOLOGIES,
        policies=POLICIES,
        name="e18-store",
    )


_warm_store: dict[tuple, Path] = {}


def run_sweep_store_cold(cfg=SCALE):
    """Declarative grid into a fresh sqlite store: every cell misses."""
    clear_caches()
    fd, path = tempfile.mkstemp(suffix=".db", prefix="e18-cold-")
    os.close(fd)
    try:
        return _grid_plan(cfg).run(store=path)
    finally:
        os.unlink(path)


def run_sweep_store_warm(cfg=SCALE):
    """The same grid against an already-primed store: every cell hits,
    so no emission, fold, route or sim runs at all."""
    key = tuple(sorted(cfg.items()))
    if key not in _warm_store:
        fd, path = tempfile.mkstemp(suffix=".db", prefix="e18-warm-")
        os.close(fd)
        _warm_store[key] = Path(path)
        _grid_plan(cfg).run(store=path)  # prime once, outside best-of-N
    clear_caches()
    return _grid_plan(cfg).run(store=_warm_store[key])


#: The shared-stage workload: a declarative multi-algorithm grid whose
#: cells overlap heavily — every (source, p, topology, policy) route is
#: shared by its analytic and sim cells, every (source, p) fold by all
#: twelve topology/policy pairs, every emitted source by all its cells.
DAG_SOURCES = (("fft", 64), ("fft", 256), ("broadcast", 4096), ("prefix", 256))
DAG_SOURCES_QUICK = (("fft", 64), ("broadcast", 4096))
DAG_TOPOLOGIES = (
    "ring", "mesh2d", "torus2d", "hypercube", "fat-tree", "butterfly"
)


def _stages_plan(quick: bool = False) -> ExperimentPlan:
    sources = DAG_SOURCES_QUICK if quick else DAG_SOURCES
    cells: list = []
    for algorithm, n in sources:
        cells.extend(
            ExperimentPlan.grid(
                algorithms=[algorithm],
                ns=[n],
                ps=[8, 16],
                topologies=DAG_TOPOLOGIES,
                policies=POLICIES,
                modes=["analytic", "sim"],
            ).cells
        )
    return ExperimentPlan(cells, name="e18-stages")


def run_sweep_stages(quick: bool = False):
    """The shared-stage grid, waves executed in-line."""
    clear_caches()
    return _stages_plan(quick).run(executor="serial")


def run_sweep_stages_shm(quick: bool = False):
    """The shared-stage grid's waves dispatched through the forced shm
    pool (cold-pool cost included, so one-core recordings price the real
    dispatch path)."""
    clear_caches()
    return _stages_plan(quick).run(executor=SharedMemoryBackend(force=True))


def test_e18_plan_executor(benchmark, quick):
    cfg = QUICK if quick else SCALE

    def both():
        _plan(cfg)  # emit the source trace outside every timed region
        t0 = time.perf_counter()
        serial = run_sweep(cfg)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        thread = run_sweep_thread(cfg)
        t_thread = time.perf_counter() - t0
        return serial, thread, t_serial, t_thread

    serial, thread, t_serial, t_thread = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    cells = len(serial)
    assert cells >= (8 if quick else 24)
    # Executors must agree bit-for-bit on every cell.
    assert serial.rows == thread.rows

    vs_serial = t_serial / t_thread if t_thread > 0 else float("inf")
    routed = serial.column("routed_time")
    rows = [
        ["cells", cells, "-"],
        ["serial", round(t_serial, 3), "1.0x"],
        ["thread pool", round(t_thread, 3), f"{vs_serial:.2f}x vs serial"],
        ["sum routed_time", round(float(np.sum(routed)), 1), "-"],
    ]
    emit_table(
        "e18_plan_executor",
        f"E18  {cells}-cell grid: serial {t_serial:.3f}s, "
        f"thread pool {t_thread:.3f}s",
        ["path", "seconds", "ratio"],
        rows,
    )


def test_e18_shm_and_store(benchmark, quick):
    cfg = QUICK if quick else SCALE
    serial = run_sweep(cfg)

    def shm_and_store():
        _plan(cfg)  # emit the @-source outside the shm timed region
        run_sweep_store_warm(cfg)  # prime the warm store outside timing
        t0 = time.perf_counter()
        shm = run_sweep_shm(cfg)
        t_shm = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = run_sweep_store_cold(cfg)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_sweep_store_warm(cfg)
        t_warm = time.perf_counter() - t0
        return shm, cold, warm, t_shm, t_cold, t_warm

    shm, cold, warm, t_shm, t_cold, t_warm = benchmark.pedantic(
        shm_and_store, rounds=1, iterations=1
    )
    # The pool is bit-identical to serial; the store replays its own
    # cold rows exactly and reports a full hit sweep.
    assert shm.rows == serial.rows
    assert shm.metadata["executor_effective"] == "shm"
    assert warm.rows == cold.rows
    assert warm.metadata["store_hits"] == len(cold)
    assert warm.metadata["store_misses"] == 0

    warm_vs_cold = t_cold / t_warm if t_warm > 0 else float("inf")
    shm_vs_serial_note = f"{t_shm:.3f}s on {os.cpu_count() or 1} core(s)"
    emit_table(
        "e18_shm_and_store",
        f"E18b  shm pool {shm_vs_serial_note}; store warm "
        f"{t_warm:.3f}s vs cold {t_cold:.3f}s ({warm_vs_cold:.1f}x)",
        ["path", "seconds", "note"],
        [
            ["shm pool", round(t_shm, 3), shm_vs_serial_note],
            ["store cold", round(t_cold, 3), "fresh sqlite, all misses"],
            ["store warm", round(t_warm, 3), f"{warm_vs_cold:.1f}x vs cold"],
        ],
    )
    if not quick:
        # Warm hits skip emission, folds, routes and sims entirely.
        assert warm_vs_cold > 5.0, f"warm store only {warm_vs_cold:.2f}x"


def test_e18_stage_dedup(benchmark, quick):
    def inline_and_shm():
        t0 = time.perf_counter()
        inline = run_sweep_stages(quick)
        t_inline = time.perf_counter() - t0
        t0 = time.perf_counter()
        shm = run_sweep_stages_shm(quick)
        t_shm = time.perf_counter() - t0
        return inline, shm, t_inline, t_shm

    inline, shm, t_inline, t_shm = benchmark.pedantic(
        inline_and_shm, rounds=1, iterations=1
    )
    # Bit-identical frames on both substrates, and each shared stage
    # executed once (the dedup counters land in the frame metadata).
    assert shm.rows == inline.rows
    planned = inline.metadata["dag_stages_planned"]
    unique = inline.metadata["dag_stages_unique"]
    assert planned == 4 * len(inline)
    assert unique < planned / 2

    emit_table(
        "e18_stage_dedup",
        f"E18c  {len(inline)}-cell shared-stage grid: in-line "
        f"{t_inline:.3f}s, shm {t_shm:.3f}s on {os.cpu_count() or 1} "
        f"core(s); {planned} planned stages -> {unique} unique",
        ["path", "seconds", "note"],
        [
            ["in-line waves", round(t_inline, 3), "-"],
            ["shm waves", round(t_shm, 3), f"{os.cpu_count() or 1} core(s)"],
            ["stages planned", planned, "-"],
            ["stages unique", unique, f"shared {1 - unique / planned:.2f}"],
        ],
    )
