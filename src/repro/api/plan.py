"""Declarative experiment plans: grids of cells run as stage waves.

An :class:`ExperimentPlan` is a list of :class:`PlanCell` measurements —
(algorithm, size, p, sigma, topology, policy, machine) — expanded from a
grid or loaded from JSON, executed as deduplicated stage waves
(:mod:`repro.exec.dag`), and collected into a
:class:`~repro.api.frame.ResultFrame`.  Each distinct (algorithm, size,
seed) source is materialised exactly once (before any worker starts);
the cells then share the folding and routing LRUs, so a whole
topology x policy x p grid prices one trace with zero re-execution::

    plan = ExperimentPlan.grid(
        algorithms=["fft"], ns=[1024], ps=[4, 16],
        topologies=["torus2d", "hypercube"],
        policies=["dimension-order", "valiant"],
    )
    frame = plan.run(executor="shm", store="results.db")

Execution is pluggable: ``executor`` names the substrate the waves run
on, a backend in the :mod:`repro.exec` registry (``serial``,
``thread``, ``shm``, or any :class:`~repro.exec.ExecutorBackend`
instance — the ``REPRO_EXECUTOR`` environment variable overrides the
default) and ``store`` wraps it in the persistent sqlite result store,
so repeated sweeps across processes and CI runs hit warm rows instead
of re-simulating.  Backends return bit-identical frames: every cell
computes the same deterministic quantities, the backend only changes
where; what actually ran is recorded in the frame's ``meta``
(``executor_effective``, downgrade reasons, store hit counts).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.metrics import TraceMetrics
from repro.machine.trace import Trace
from repro.models.presets import PRESETS
from repro.networks import RoutingPolicy, by_policy, fit, route_trace
from repro.networks import by_name as topology_by_name
from repro.sim import ARBITERS, simulate_trace

from repro.api import registry
from repro.api.frame import RESULT_COLUMNS, ResultFrame
from repro.api.pipeline import Pipeline

__all__ = ["PlanCell", "ExperimentPlan"]


@dataclass(frozen=True)
class PlanCell:
    """One measurement of one algorithm at one operating point.

    ``algorithm`` names a registry spec, or — prefixed with ``@`` — a
    plan-provided source (an existing trace/result, see
    :meth:`ExperimentPlan.from_trace`).  Optional fields select what the
    cell measures: ``sigma`` an H(n, p, sigma) evaluation, ``machine`` a
    D-BSP preset evaluation, ``topology``/``policy`` a routed profile
    (``relative_to_dbsp`` divides by the fitted D-BSP prediction).  A
    topology cell with ``mode="sim"`` additionally runs the
    cycle-accurate simulator (:mod:`repro.sim`) under ``arbiter`` —
    serialising each message into ``flits_per_message`` flits — and
    reports measured cycles next to the analytic price, so one frame
    sweeps analytic-vs-measured.
    """

    algorithm: str
    n: int | None = None
    p: int | None = None
    sigma: float | None = None
    topology: str | None = None
    policy: str | RoutingPolicy | None = None
    policy_seed: int = 0
    machine: str | None = None
    relative_to_dbsp: bool = False
    mode: str = "analytic"
    arbiter: str = "fifo"
    arbiter_seed: int = 0
    flits_per_message: int = 1
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready dict (drops defaults; rejects non-declarative cells)."""
        if isinstance(self.policy, RoutingPolicy):
            raise TypeError(
                "cannot serialise a cell holding a RoutingPolicy instance; "
                "use a policy name + policy_seed"
            )
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "params":
                if value:
                    out["params"] = dict(value)
                continue
            if value != f.default:
                out[f.name] = value
        out["algorithm"] = self.algorithm
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PlanCell":
        d = dict(d)
        params = d.pop("params", None)
        if params:
            d["params"] = tuple(sorted(params.items()))
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown PlanCell fields: {sorted(unknown)}")
        return cls(**d)


class _PlanRuntime:
    """Prepared sources + cell evaluator (shared by every executor)."""

    def __init__(self, plan: "ExperimentPlan", *, check: bool = False):
        self.plan = plan
        self.cells = plan.cells
        self.check = check
        self._tms: dict[tuple, TraceMetrics] = {}
        # Plan-level shared state the legacy sweep loops hoisted out of
        # their policy loops: one Topology instance per (name, p) — its
        # edge_capacities cache then serves every cell — and one fitted
        # D-BSP denominator per (source, topology, p).
        self._topos: dict[tuple, Any] = {}
        self._denoms: dict[tuple, float] = {}
        # check=True: per-source correctness verdicts from the specs'
        # ``adapt`` oracles, computed once at prepare time.
        self._checks: dict[tuple, bool | None] = {}

    # -- sources -------------------------------------------------------
    def _source_key(self, cell: PlanCell) -> tuple:
        if cell.algorithm.startswith("@"):
            return ("@", cell.algorithm[1:])
        spec = registry.by_name(cell.algorithm)
        p = cell.p if spec.needs_p else None
        return (cell.algorithm, cell.n, cell.seed, cell.params, p)

    def topology(self, name: str, p: int):
        """The shared :class:`Topology` instance for ``(name, p)``.

        Built lazily and memoised per runtime: its ``edge_capacities``
        cache then serves every cell (threads share the dict; a benign
        duplicate construction under a race is identical, last wins).
        """
        key = (name, p)
        topo = self._topos.get(key)
        if topo is None:
            topo = self._topos[key] = topology_by_name(name, p)
        return topo

    def prepare(self, indices: Sequence[int] | None = None) -> None:
        """Materialise every distinct source the cells need, serially.

        Runs before any worker starts: the traces (and their
        ``TraceMetrics``) are plan-level shared state — threads see the
        same objects, forked processes inherit them copy-on-write.
        ``indices`` restricts preparation to those cells (the cached
        backend prepares only its store misses); default is all.
        """
        cells = (
            self.cells
            if indices is None
            else [self.cells[i] for i in indices]
        )
        for cell in cells:
            key = self._source_key(cell)
            if key in self._tms:
                continue
            if key[0] == "@":
                name = key[1]
                if name not in self.plan.sources:
                    raise KeyError(
                        f"plan has no provided source named {name!r}; "
                        f"available: {sorted(self.plan.sources)}"
                    )
                pipe = _as_pipeline(self.plan.sources[name], label=f"@{name}")
            else:
                spec = registry.by_name(cell.algorithm)
                params = dict(cell.params)
                if spec.needs_p:
                    params["p"] = cell.p
                pipe = Pipeline("run", None, _plan_source(spec, cell, params))
                result = pipe.result  # materialise before workers start
                if self.check:
                    # The spec's adapt oracle (numpy reference check)
                    # turns the grid into a correctness sweep; specs
                    # without one report None, never a false pass.
                    verdict = (spec.adapt or (lambda r: {}))(result)
                    self._checks[key] = verdict.get("correct")
            self._tms[key] = pipe.trace_metrics
        for cell in cells:
            if cell.topology is None:
                continue
            key = self._source_key(cell)
            tm = self._tms[key]
            p = cell.p if cell.p is not None else tm.v
            topo = self.topology(cell.topology, p)
            dkey = (key, cell.topology, p)
            if cell.relative_to_dbsp and dkey not in self._denoms:
                self._denoms[dkey] = tm.D_machine(fit(topo))

    # -- cells ---------------------------------------------------------
    def eval_cell(self, i: int) -> tuple:
        """Row tuple (RESULT_COLUMNS order) for cell ``i`` — pure given
        the prepared sources, so it can run on any worker."""
        cell = self.cells[i]
        key = self._source_key(cell)
        tm = self._tms[key]
        trace = tm.trace
        label = cell.algorithm
        row: dict[str, Any] = {
            "algorithm": label,
            "n": cell.n,
            "v": tm.v,
            "p": cell.p,
            "sigma": cell.sigma,
            "supersteps": trace.num_supersteps,
            "messages": trace.total_messages,
        }
        if cell.sigma is not None:
            p = cell.p if cell.p is not None else tm.v
            row["H"] = tm.H(p, cell.sigma)
        if cell.machine is not None:
            build = (self.plan.machines or PRESETS).get(cell.machine)
            if build is None:
                raise KeyError(f"unknown machine preset {cell.machine!r}")
            p = cell.p if cell.p is not None else tm.v
            row["machine"] = cell.machine
            row["D"] = tm.D_machine(build(p))
        if cell.topology is not None:
            p = cell.p if cell.p is not None else tm.v
            topo = self.topology(cell.topology, p)
            policy = cell.policy if cell.policy is not None else "dimension-order"
            if not isinstance(policy, RoutingPolicy):
                policy = by_policy(policy, cell.policy_seed)
            profile = route_trace(trace, topo, policy)
            routed = profile.total_time
            row.update(
                topology=cell.topology,
                policy=policy.name,
                mode=cell.mode,
                routed_time=routed,
                max_congestion=profile.max_congestion,
                max_dilation=profile.max_dilation,
            )
            if cell.mode == "sim":
                sim = simulate_trace(
                    trace, topo, policy, cell.arbiter,
                    seed=cell.arbiter_seed,
                    flits_per_message=cell.flits_per_message,
                )
                row.update(
                    arbiter=sim.arbiter,
                    sim_cycles=sim.total_cycles,
                    sim_over_cd=sim.overall_ratio,
                )
            if cell.relative_to_dbsp:
                denom = self._denoms[(key, cell.topology, p)]
                row["routed_over_dbsp"] = routed / denom if denom else float("inf")
        if self.check:
            row["correct"] = self._checks.get(key)
        return tuple(row.get(c) for c in RESULT_COLUMNS)


def _plan_source(spec, cell: PlanCell, params: dict):
    from repro.api.pipeline import _Source

    return _Source(spec, spec.name, cell.n, cell.seed, tuple(sorted(params.items())))


def _as_pipeline(obj, *, label: str) -> Pipeline:
    if isinstance(obj, Pipeline):
        return obj
    if isinstance(obj, (Trace, TraceMetrics)):
        return Pipeline.from_trace(obj, label=label)
    return Pipeline.from_result(obj, label=label)


class ExperimentPlan:
    """A named list of cells plus how to source and execute them.

    Parameters
    ----------
    cells:
        The measurements, run in order (the frame preserves it).
    name:
        Frame/report title.
    sources:
        Plan-provided traces/results for ``@name`` cells.
    machines:
        Optional mapping for ``machine`` cells (defaults to
        ``models.PRESETS``); custom builders price any machine family.
    """

    def __init__(
        self,
        cells: Iterable[PlanCell],
        *,
        name: str = "plan",
        sources: Mapping[str, Any] | None = None,
        machines: Mapping[str, Callable[[int], Any]] | None = None,
    ):
        self.cells: tuple[PlanCell, ...] = tuple(cells)
        self.name = name
        self.sources = dict(sources or {})
        self.machines = dict(machines) if machines is not None else None

    def __len__(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        algorithms: Sequence[str],
        ns: Sequence[int | None] = (None,),
        ps: Sequence[int | None] = (None,),
        sigmas: Sequence[float] = (),
        topologies: Sequence[str] = (),
        policies: Sequence[str | RoutingPolicy] = ("dimension-order",),
        machines: Sequence[str] = (),
        modes: Sequence[str] = ("analytic",),
        *,
        relative_to_dbsp: bool = False,
        policy_seed: int = 0,
        arbiter: str = "fifo",
        arbiter_seed: int = 0,
        flits_per_message: int = 1,
        seed: int = 0,
        params: Mapping[str, Any] | None = None,
        name: str = "grid",
        sources: Mapping[str, Any] | None = None,
        machine_builders: Mapping[str, Callable[[int], Any]] | None = None,
    ) -> "ExperimentPlan":
        """Expand a full product grid into cells (p-major, like the sweeps).

        For every (algorithm, n, p): one H cell per ``sigma``, one routed
        cell per topology x policy x mode (``modes=("analytic", "sim")``
        prices and simulates each network cell side by side), one D cell
        per machine preset; a bare structural cell when nothing else is
        requested.
        """
        frozen = tuple(sorted((params or {}).items()))
        cells: list[PlanCell] = []
        for alg in algorithms:
            for n in ns:
                for p in ps:
                    base = PlanCell(
                        algorithm=alg, n=n, p=p, seed=seed, params=frozen
                    )
                    emitted = False
                    for sigma in sigmas:
                        cells.append(replace(base, sigma=sigma))
                        emitted = True
                    for machine in machines:
                        cells.append(replace(base, machine=machine))
                        emitted = True
                    for topology in topologies:
                        for policy in policies:
                            for mode in modes:
                                cells.append(
                                    replace(
                                        base,
                                        topology=topology,
                                        policy=policy,
                                        policy_seed=policy_seed,
                                        relative_to_dbsp=relative_to_dbsp,
                                        mode=mode,
                                        arbiter=arbiter,
                                        arbiter_seed=arbiter_seed,
                                        flits_per_message=flits_per_message,
                                    )
                                )
                                emitted = True
                    if not emitted:
                        cells.append(base)
        return cls(
            cells, name=name, sources=sources, machines=machine_builders
        )

    @classmethod
    def from_trace(
        cls, trace: Trace | TraceMetrics, *, label: str = "trace", **grid_kwargs
    ) -> "ExperimentPlan":
        """Grid plan over one existing trace (no registry involved)."""
        grid_kwargs.setdefault("name", f"plan[{label}]")
        return cls.grid(
            algorithms=[f"@{label}"], sources={label: trace}, **grid_kwargs
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise the plan (cells only — sources are not declarative)."""
        if self.sources:
            raise TypeError("cannot serialise a plan with in-memory sources")
        text = json.dumps(
            {"name": self.name, "cells": [c.as_dict() for c in self.cells]},
            indent=2,
        )
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ExperimentPlan":
        """Load a plan from a JSON string, file path, or ``grid`` spec.

        Accepts either ``{"cells": [...]}`` (explicit) or
        ``{"grid": {"algorithms": [...], "ns": [...], ...}}`` (expanded
        via :meth:`grid`), plus an optional ``"name"``.
        """
        text = source
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        data = json.loads(text)
        name = data.get("name", "plan")
        if "grid" in data:
            spec = dict(data["grid"])
            return cls.grid(name=name, **spec)
        cells = [PlanCell.from_dict(d) for d in data.get("cells", [])]
        return cls(cells, name=name)

    def validate(self) -> None:
        """Validate every cell's size/params against the registry, eagerly."""
        for cell in self.cells:
            if cell.mode not in ("analytic", "sim"):
                raise ValueError(
                    f"unknown cell mode {cell.mode!r}; choose analytic or sim"
                )
            if cell.mode == "sim":
                if cell.topology is None:
                    raise ValueError(
                        "mode='sim' needs a topology: the simulator measures "
                        "a routed cell, not a structural one"
                    )
                if cell.arbiter not in ARBITERS:
                    raise KeyError(
                        f"unknown arbiter {cell.arbiter!r}; "
                        f"choose from {sorted(ARBITERS)}"
                    )
            if cell.flits_per_message < 1:
                raise ValueError(
                    f"flits_per_message must be >= 1, got {cell.flits_per_message}"
                )
            if cell.algorithm.startswith("@"):
                if cell.algorithm[1:] not in self.sources:
                    raise KeyError(f"no source for {cell.algorithm!r}")
                continue
            spec = registry.by_name(cell.algorithm)
            params = dict(cell.params)
            if spec.needs_p:
                params["p"] = cell.p
            if cell.n is None:
                raise ValueError(f"{cell.algorithm}: cell needs a problem size n")
            spec.validate(cell.n, **params)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        executor: "str | Any | None" = None,
        max_workers: int | None = None,
        check: bool = False,
        store: "str | Path | Any | None" = None,
    ) -> ResultFrame:
        """Execute every cell and collect the frame (always cell order).

        Cells run as deduplicated stage waves (:mod:`repro.exec.dag`):
        each unique emit/fold/route/sim stage executes once, then every
        row is assembled by the per-cell evaluator.  ``executor`` names
        the substrate the waves run on, a backend in the
        :mod:`repro.exec` registry — ``"serial"`` (in-line),
        ``"thread"`` (a pool sharing the in-process fold/route/sim
        LRUs) or ``"shm"`` (persistent worker pool over zero-copy
        shared-memory sources) — or is an
        :class:`~repro.exec.ExecutorBackend` instance.  Default: the
        ``REPRO_EXECUTOR`` environment variable, else ``"serial"``.
        All backends produce bit-identical rows; the frame's ``meta``
        records what actually ran (``executor_effective`` — backends
        degrade gracefully and say so), the stage dedup counters and
        any store statistics.

        ``store`` — a path or :class:`~repro.exec.ResultStore` — wraps
        the backend in the persistent cell-hash result cache: warm cells
        skip emission, folding, routing and simulation entirely.

        ``check=True`` additionally runs every registry source through
        its spec's ``adapt`` numpy oracle and reports the verdict in the
        frame's ``correct`` column (``None`` for sources without an
        oracle) — the grid doubles as a correctness sweep.
        """
        from repro.exec import CachedBackend, ExecutorBackend, by_executor

        self.validate()
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR") or "serial"
        backend = (
            executor
            if isinstance(executor, ExecutorBackend)
            else by_executor(executor)
        )
        info: dict[str, Any] = {"executor": backend.name}
        if store is not None:
            backend = CachedBackend(store, backend)
        runtime = _PlanRuntime(self, check=check)
        rows, meta = backend.run(runtime, max_workers=max_workers)
        info.update(meta)
        return ResultFrame(
            RESULT_COLUMNS,
            tuple(rows),
            name=self.name,
            meta=tuple(info.items()),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentPlan({self.name!r}, cells={len(self.cells)})"
