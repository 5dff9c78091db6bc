"""The :class:`ExecutorBackend` contract every plan executor implements.

Every plan runs through one scheduler: the stage-graph waves of
:mod:`repro.exec.dag`.  A backend only names the *substrate* those
waves execute on, so new execution substrates — worker pools, future
MPI/GPU backends — drop in without touching plan code:

* ``substrate(runtime, indices, max_workers)`` opens a
  :class:`~repro.exec.dag.Substrate` for one run.  A backend that
  cannot run here returns the in-line base substrate and records why in
  its ``meta`` (``executor_downgrade``);
* ``run(runtime, max_workers=..., indices=...)`` returns
  ``(rows, meta)`` — one row tuple per requested cell index, in index
  order, plus a metadata dict recorded on the resulting
  :class:`~repro.api.frame.ResultFrame` (at minimum
  ``executor_effective``, the substrate that *actually* ran the waves).
  The default schedules the waves; wrappers such as the result store
  override it;
* every backend must produce **bit-identical** rows for the same plan:
  rows are assembled by the same per-cell evaluator against the same
  stage artifacts, a backend only chooses where those are computed
  (property-tested across all registered backends).

The runtime duck-type a backend may rely on: ``runtime.cells`` (the
plan's cell tuple), ``runtime.plan``, ``runtime.check``,
``runtime.prepare(indices)`` (materialise the sources those cells need,
serially, before any worker starts) and ``runtime.eval_cell(i)`` (the
pure per-cell evaluator, and the oracle the scheduler is tested
against).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.exec.dag import Substrate, run_stage_waves

__all__ = ["ExecutorBackend"]


class ExecutorBackend(ABC):
    """One substrate for a plan's stage waves (see module docstring)."""

    #: Registry key; also the frame's ``executor`` metadata.
    name: str = "?"

    def run(
        self,
        runtime: Any,
        *,
        max_workers: int | None = None,
        indices: Sequence[int] | None = None,
    ) -> tuple[list[tuple], dict]:
        """Prepare the needed sources and run the cells as stage waves."""
        return run_stage_waves(
            self, runtime, max_workers=max_workers, indices=indices
        )

    @abstractmethod
    def substrate(
        self, runtime: Any, indices: list[int], max_workers: int | None
    ) -> Substrate:
        """Open the substrate one run's waves execute on."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
