"""Zero-copy shared-memory stage waves on a persistent worker pool.

A fork-per-run pool pays its lifecycle on every ``plan.run``: a fresh
pool, cold fold/route/sim LRUs in each worker, and results trickling
back through many small pickles.  On a one- or two-core container that
overhead eats the parallelism.  :class:`SharedMemoryBackend`
restructures the data flow instead:

* **one persistent worker pool per process** — created on first use,
  reused by every subsequent run (workers keep their warm numpy import
  and their own fold/route/sim LRUs across runs);
* **sources ship once, zero-copy** — every prepared source's columnar
  ``TraceColumns`` (labels / offsets / src / dst, all ``int64``) is
  packed into a single ``multiprocessing.shared_memory`` block; workers
  map it and rebuild read-only numpy *views* (no per-node pickling, no
  copies — ``Trace.from_columns`` over a contiguous view is free);
* **waves shard contiguously** — each worker receives one slice of a
  wave's cold stage nodes as small specs and returns the artifacts,
  which the parent seeds into its own LRUs; sim waves also receive the
  routed profiles they price against as one zero-copy block.

Degradation is graceful and *recorded*: on a single-CPU host, for tiny
plans, or when the plan is not shippable (foreign trace-like sources,
unpicklable machine builders), the waves run in-line and the frame
metadata says so (``executor_effective: "serial"`` plus the reason) —
results are bit-identical either way.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Iterator

import numpy as np

from repro.exec.base import ExecutorBackend
from repro.exec.dag import Substrate, _route_stage, _sim_stage
from repro.exec.local import default_workers
from repro.exec.registry import register_executor

__all__ = ["SharedMemoryBackend", "shutdown_pool"]


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_atexit_registered = False


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide pool, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS, _atexit_registered
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    _POOL_WORKERS = workers
    if not _atexit_registered:
        _atexit_registered = True
        atexit.register(shutdown_pool)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (tests, interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: One attached plan per worker: token -> (SharedMemory, runtime).  A new
#: token closes the previous mapping, so a long-lived worker holds at
#: most one plan's segment open.
_WORKER_STATE: dict[str, object] = {"token": None, "shm": None, "runtime": None}


def _attach_untracked(name: str) -> SharedMemory:
    """Attach to the parent's segment without resource-tracker custody.

    The parent owns the segment's lifetime (it unlinks after the run);
    a worker registering its *attachment* would make the tracker — which
    fork-context workers share with the parent — unlink or complain a
    second time.  Python 3.13 spells this ``SharedMemory(track=False)``;
    for older interpreters, registration is suppressed around the
    attach.
    """
    try:
        return SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


def _attach_runtime(payload: dict) -> Any:
    """(Re)build this worker's plan runtime from the shipped payload."""
    if _WORKER_STATE["token"] == payload["token"]:
        return _WORKER_STATE["runtime"]
    # Imported lazily: workers under a spawn context import this module
    # before the package; and at parent import time repro.api is still
    # mid-initialisation.
    from repro.api.plan import ExperimentPlan, _PlanRuntime
    from repro.core.metrics import TraceMetrics
    from repro.machine.trace import Trace

    old = _WORKER_STATE["shm"]
    if old is not None:
        # Worker processes are forked/spawned single-threaded; their
        # private state needs no lock.
        _WORKER_STATE.update(token=None, shm=None, runtime=None)  # repro: noqa[RPR004]
        old.close()
    shm = _attach_untracked(payload["shm"])
    flat = np.ndarray((payload["total"],), dtype=np.int64, buffer=shm.buf)
    flat.setflags(write=False)
    tms = {}
    for key, (v, spans) in payload["manifest"].items():
        labels, offsets, src, dst = (flat[a:b] for a, b in spans)
        tms[key] = TraceMetrics(Trace.from_columns(v, labels, offsets, src, dst))
    plan = ExperimentPlan(
        payload["cells"], name=payload["name"], machines=payload["machines"]
    )
    runtime = _PlanRuntime(plan, check=payload["check"])
    runtime._tms = tms
    runtime._denoms = payload["denoms"]
    runtime._checks = payload["checks"]
    _WORKER_STATE.update(token=payload["token"], shm=shm, runtime=runtime)  # repro: noqa[RPR004]
    return runtime


def _route_shard(payload: dict, specs: list[tuple]) -> list:
    """Worker entry: route nodes against zero-copy shared trace columns."""
    runtime = _attach_runtime(payload)
    return [
        _route_stage(runtime._tms[skey].trace, runtime.topology(topo_name, p), policy)
        for skey, topo_name, p, policy in specs
    ]


def _sim_shard(payload: dict, profile_block: dict, specs: list[tuple]) -> list:
    """Worker entry: sim nodes, seeding routes from the shared profile block.

    ``profile_block`` carries the routed profiles these sims price
    against as zero-copy shared arrays; seeding them into this worker's
    route LRU means the sim stages' profile assembly never re-routes.
    """
    from repro.networks import seed_route_cache

    runtime = _attach_runtime(payload)
    for (skey, topo_name, p, policy), profile in _attach_profiles(profile_block):
        trace = runtime._tms[skey].trace
        seed_route_cache(trace, runtime.topology(topo_name, p), policy, profile)
    return [
        _sim_stage(
            runtime._tms[skey].trace, runtime.topology(topo_name, p), policy,
            arb, aseed, flits,
        )
        for skey, topo_name, p, policy, arb, aseed, flits in specs
    ]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _pack_sources(runtime: Any) -> tuple[dict, SharedMemory]:
    """Pack every prepared source's columns into one shared block.

    Returns the worker payload (manifest of ``(v, spans)`` per source
    key + the small plan state) and the owning :class:`SharedMemory`;
    the caller unlinks it after the run.
    """
    manifest: dict = {}
    blocks: list[np.ndarray] = []
    total = 0
    for key, tm in runtime._tms.items():
        cols = tm.trace.columns()
        spans = []
        for arr in (cols.labels, cols.offsets, cols.src, cols.dst):
            a = np.ascontiguousarray(arr, dtype=np.int64)
            spans.append((total, total + a.size))
            blocks.append(a)
            total += a.size
        manifest[key] = (tm.trace.v, tuple(spans))
    shm = SharedMemory(create=True, size=max(8, total * 8))
    flat = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
    pos = 0
    for a in blocks:
        flat[pos : pos + a.size] = a
        pos += a.size
    payload = {
        "token": shm.name,
        "shm": shm.name,
        "total": total,
        "manifest": manifest,
        "cells": runtime.cells,
        "name": runtime.plan.name,
        "machines": runtime.plan.machines,
        "denoms": runtime._denoms,
        "checks": runtime._checks,
        "check": runtime.check,
    }
    return payload, shm


def _pack_profiles(results: list[tuple]) -> tuple[dict, SharedMemory]:
    """Pack routed profiles into one shared block (mixed-dtype, zero-copy).

    ``results`` pairs each route-stage spec with its
    :class:`~repro.networks.routing.RoutedProfile`.  The profile's four
    arrays (``labels``/``dilation`` int64, ``congestion``/``time``
    float64) are laid out back to back, 8-byte aligned, in one
    ``SharedMemory`` block; the returned payload carries the byte spans
    so :func:`_attach_profiles` can rebuild read-only views without
    copying.
    """
    entries = []
    blocks: list[np.ndarray] = []
    offset = 0
    for spec, profile in results:
        spans = []
        for arr in (profile.labels, profile.congestion,
                    profile.dilation, profile.time):
            a = np.ascontiguousarray(arr)
            spans.append((str(a.dtype), offset, a.size))
            blocks.append(a)
            offset += a.nbytes
        entries.append(
            (spec, (profile.topology, profile.policy, profile.p), tuple(spans))
        )
    shm = SharedMemory(create=True, size=max(8, offset))
    for (_dtype, start, _size), a in zip(
        (span for _spec, _names, spans in entries for span in spans), blocks
    ):
        view = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf, offset=start)
        view[...] = a
    return {"shm": shm.name, "entries": entries}, shm


def _attach_profiles(payload: dict) -> "Iterator[tuple[tuple, Any]]":
    """Rebuild the packed routed profiles as zero-copy read-only views.

    Yields ``(spec, RoutedProfile)`` pairs.  The mapping is attached
    without resource-tracker custody (the parent owns the block) and is
    deliberately kept open for the worker's lifetime: the profile views
    borrow its buffer.
    """
    from repro.networks.routing import RoutedProfile

    shm = _attach_untracked(payload["shm"])
    # Single-threaded worker private state, like _attach_runtime's.
    _WORKER_STATE.setdefault("profile_blocks", []).append(shm)  # type: ignore[union-attr]  # repro: noqa[RPR004]
    for spec, (topo_name, policy_name, p), spans in payload["entries"]:
        arrays = []
        for dtype, start, size in spans:
            view = np.ndarray((size,), dtype=dtype, buffer=shm.buf, offset=start)
            view.setflags(write=False)
            arrays.append(view)
        labels, congestion, dilation, time = arrays
        yield spec, RoutedProfile(
            topology=topo_name,
            policy=policy_name,
            p=p,
            labels=labels,
            congestion=congestion,
            dilation=dilation,
            time=time,
        )


def _shards(items: list, workers: int) -> list[list]:
    """Split ``items`` into ``workers`` near-equal contiguous slices."""
    n = len(items)
    base, extra = divmod(n, workers)
    out, pos = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        if size:
            out.append(items[pos : pos + size])
        pos += size
    return out


class _ShmSubstrate(Substrate):
    """Dispatch wave shards through the persistent shared-memory pool."""

    def __init__(self, payload: dict, block: SharedMemory, workers: int) -> None:
        super().__init__("shm", shm_workers=workers)
        self.pool = _ensure_pool(workers)
        self.payload = payload
        self.block = block
        self.workers = workers

    def _map(self, fn: Callable, specs: list, *args: Any) -> list:
        futures = [
            self.pool.submit(fn, self.payload, *args, shard)
            for shard in _shards(specs, min(self.workers, len(specs)))
        ]
        return [out for future in futures for out in future.result()]

    def routes(self, cold: list[tuple[tuple, tuple]]) -> None:
        from repro.networks import seed_route_cache

        if not cold:
            return
        specs = [(key[0], key[1], key[2], node[2]) for key, node in cold]
        for (_key, node), profile in zip(cold, self._map(_route_shard, specs)):
            seed_route_cache(*node, profile)

    def sims(self, cold: list[tuple[tuple, tuple]]) -> None:
        from repro.networks import peek_route_cache
        from repro.sim.engine import seed_sim_cache

        if not cold:
            return
        routed: dict[tuple, tuple] = {}
        for key, (trace, topo, policy, *_rest) in cold:
            if key[:4] not in routed:
                profile = peek_route_cache(trace, topo, policy)
                if profile is not None:
                    routed[key[:4]] = ((key[0], key[1], key[2], policy), profile)
        profile_block, profile_shm = _pack_profiles(list(routed.values()))
        specs = [
            (key[0], key[1], key[2], node[2], *node[3:]) for key, node in cold
        ]
        try:
            profiles = self._map(_sim_shard, specs, profile_block)
        finally:
            profile_shm.close()
            profile_shm.unlink()
        for (_key, node), profile in zip(cold, profiles):
            seed_sim_cache(*node, profile)

    def close(self) -> None:
        self.block.close()
        self.block.unlink()


class SharedMemoryBackend(ExecutorBackend):
    """Shard stage waves across a persistent pool over zero-copy sources.

    Parameters
    ----------
    workers:
        Pool size override (default: the plan's ``max_workers`` or
        min(8, cells, cores)).
    min_cells:
        Plans smaller than this run in-line — pool dispatch cannot
        amortise on a cell or two.
    force:
        Skip the single-CPU/tiny-plan viability gates (tests exercise
        the real pool on one-core containers this way).  Shippability
        gates (unpicklable plans) still apply.
    """

    name = "shm"

    def __init__(
        self, *, workers: int | None = None, min_cells: int = 4, force: bool = False
    ) -> None:
        self.workers = workers
        self.min_cells = min_cells
        self.force = force

    def _downgrade_reason(self, indices: list[int]) -> str | None:
        if not self.force:
            if (os.cpu_count() or 1) <= 1:
                return "single-CPU host"
            if len(indices) < self.min_cells:
                return f"plan smaller than {self.min_cells} cells"
        return None

    def substrate(
        self, runtime: Any, indices: list[int], max_workers: int | None
    ) -> Substrate:
        reason = self._downgrade_reason(indices)
        if reason is not None:
            return Substrate(executor_downgrade=reason)
        try:
            payload, block = _pack_sources(runtime)
        except Exception as err:  # e.g. a foreign trace-like source
            return Substrate(executor_downgrade=f"unshippable sources ({err})")
        try:
            pickle.dumps(payload)
        except Exception as err:
            block.close()
            block.unlink()
            return Substrate(executor_downgrade=f"unpicklable plan ({err})")
        workers = self.workers or max(
            2 if self.force else 1, default_workers(len(indices), max_workers)
        )
        return _ShmSubstrate(payload, block, workers)


register_executor("shm", SharedMemoryBackend)
