"""The in-process substrates: ``serial`` and ``thread``.

* :class:`SerialBackend` — run every wave in-line on the calling thread
  (the reference every other backend is tested against);
* :class:`ThreadBackend` — map each wave's cold nodes over a
  ``ThreadPoolExecutor``; workers share the in-process fold/route/sim
  LRUs, so the pool parallelises the numpy kernels' release of the GIL
  and nothing needs shipping back.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.exec.base import ExecutorBackend
from repro.exec.dag import Substrate, _route_stage, _sim_stage
from repro.exec.registry import register_executor

__all__ = ["SerialBackend", "ThreadBackend", "default_workers"]


def default_workers(num_cells: int, max_workers: int | None) -> int:
    """The historical pool-size default: min(8, cells, cores)."""
    if max_workers is not None:
        return max(1, max_workers)
    return min(8, max(1, num_cells), os.cpu_count() or 1)


class SerialBackend(ExecutorBackend):
    """Run every wave in-line on the calling thread."""

    name = "serial"

    def substrate(
        self, runtime: Any, indices: list[int], max_workers: int | None
    ) -> Substrate:
        return Substrate()


class _ThreadSubstrate(Substrate):
    """One thread pool per run, sharing the in-process LRUs."""

    def __init__(self, workers: int) -> None:
        super().__init__("thread")
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def routes(self, cold: list[tuple[tuple, tuple]]) -> None:
        list(self.pool.map(lambda item: _route_stage(*item[1]), cold))

    def sims(self, cold: list[tuple[tuple, tuple]]) -> None:
        list(self.pool.map(lambda item: _sim_stage(*item[1]), cold))

    def close(self) -> None:
        self.pool.shutdown(wait=True)


class ThreadBackend(ExecutorBackend):
    """Map each wave over a thread pool sharing the in-process LRUs."""

    name = "thread"

    def substrate(
        self, runtime: Any, indices: list[int], max_workers: int | None
    ) -> Substrate:
        return _ThreadSubstrate(default_workers(len(indices), max_workers))


register_executor("serial", SerialBackend)
register_executor("thread", ThreadBackend)
