"""Pluggable plan-execution backends behind one registry.

Every plan runs through one scheduler — the stage-graph waves of
:mod:`repro.exec.dag` — and one narrow contract
(:class:`ExecutorBackend`) names the *substrate* those waves run on::

    cells -> emit -> fold -> route -> sim/metrics -> assemble
                      (waves on a substrate)

    executor registry (by_executor, mirroring networks.by_name)
        serial                      (waves in-line on the calling thread)
        thread                      (a thread pool sharing the LRUs)
        shm                         (persistent pool, zero-copy shared
                                     sources and routed profiles)
        + CachedBackend(store=...)  (persistent sqlite cell-hash store
                                     wrapping any inner backend)

All registered backends produce bit-identical
:class:`~repro.api.frame.ResultFrame` rows (property-tested); they only
differ in throughput and in the metadata they record on the frame
(effective substrate, downgrade reasons, store hit counts).
"""

from repro.exec.base import ExecutorBackend
from repro.exec.dag import (
    StageGraph,
    Substrate,
    clear_dag_stats,
    dag_stats,
    stage_kernel,
)
from repro.exec.local import SerialBackend, ThreadBackend
from repro.exec.registry import EXECUTORS, by_executor, executors, register_executor
from repro.exec.shm import SharedMemoryBackend, shutdown_pool
from repro.exec.store import (
    CachedBackend,
    ResultStore,
    cell_key,
    clear_store_stats,
    store_cache_stats,
)

__all__ = [
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "SharedMemoryBackend",
    "Substrate",
    "StageGraph",
    "stage_kernel",
    "dag_stats",
    "clear_dag_stats",
    "CachedBackend",
    "ResultStore",
    "cell_key",
    "register_executor",
    "by_executor",
    "executors",
    "EXECUTORS",
    "shutdown_pool",
    "store_cache_stats",
    "clear_store_stats",
]
