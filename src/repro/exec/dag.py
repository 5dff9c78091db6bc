"""Stage-graph plan scheduling: execute shared work once, not per cell.

An :class:`~repro.api.plan.ExperimentPlan` is a grid, and grid cells
share almost everything: every (topology, policy, p) pair re-prices the
same emitted trace, every arbiter re-simulates the same routed fold.
Every plan run therefore goes through one scheduler,
:func:`run_stage_waves`.  Planning turns the cell list into a
deduplicated DAG of *stage nodes* —

    emit(algorithm, n, seed)
      -> fold(trace, p)
        -> route(fold, topology, policy)
          -> sim(route, arbiter, seed, flits)   [mode="sim" cells]
          -> metrics(route, sigma, ...)         [analytic cells]

— keyed by the same identity tuples the fold/route/sim LRUs use, so
each unique stage executes exactly once per run.  The scheduler then
batches ready nodes into waves:

* the **emit wave** is ``runtime.prepare`` (already deduplicated);
* each **route wave** executes the LRU-cold route nodes of one chunk —
  folds run inside their route stage — on the backend's
  :class:`Substrate` (in-line, a thread pool, or the persistent
  shared-memory pool with zero-copy trace columns);
* each **sim wave** executes the cold sim nodes hanging off that route
  chunk, again on the substrate;
* **assembly** evaluates each dependent cell with
  ``runtime.eval_cell`` against the now-warm LRUs.  Rows are therefore
  bit-identical to per-cell evaluation by construction: ``eval_cell``
  performs the very same lookups, it just never misses.

Route chunks hold at most the route LRU's capacity and sim waves at
most the sim LRU's, and every chunk's cells are assembled before the
next chunk runs — so no wave can evict a profile its own cells still
need, and every stage is computed once however large the plan.

Worker-computed artifacts are re-inserted into the parent's LRUs via
the ``seed_*_cache`` hooks (:func:`repro.networks.routing.seed_route_cache`,
:func:`repro.sim.engine.seed_sim_cache`) — pickling drops numpy's
read-only flag, so seeding re-freezes every array before insertion.

Dedup counters (stage references planned vs unique nodes vs executed vs
LRU-warm) are recorded on the frame's metadata and aggregate process-wide
under ``repro.cache_stats()["dag"]``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, Sequence

from repro.util import sanitize
from repro.util.caches import register_cache

__all__ = [
    "Substrate",
    "StageGraph",
    "run_stage_waves",
    "stage_kernel",
    "STAGE_KERNELS",
    "dag_stats",
    "clear_dag_stats",
]


# ----------------------------------------------------------------------
# Stage kernels
# ----------------------------------------------------------------------
#: kind -> the pure function executing one stage node.  Lint's RPR007
#: holds every registered kernel to the stage-purity contract: results
#: may depend only on the arguments (and the registered LRUs the kernels
#: ride), never on other module-level mutable state — the same node must
#: compute the same artifact in the parent, a thread or a shared-memory
#: worker.
STAGE_KERNELS: dict[str, Callable] = {}

_kernel_lock = threading.Lock()


def stage_kernel(kind: str) -> Callable:
    """Register a function as the executor of one DAG stage kind."""

    def deco(fn: Callable) -> Callable:
        with _kernel_lock:
            STAGE_KERNELS[kind] = fn
        return fn

    return deco


@stage_kernel("route")
def _route_stage(trace: Any, topo: Any, policy: Any) -> Any:
    """Execute one route node (folding on demand); memoised in-process."""
    from repro.networks import route_trace

    return route_trace(trace, topo, policy)


@stage_kernel("sim")
def _sim_stage(
    trace: Any, topo: Any, policy: Any, arbiter: str, arbiter_seed: int, flits: int
) -> Any:
    """Execute one sim node through the per-trace entry point."""
    from repro.sim.engine import simulate_trace

    return simulate_trace(
        trace, topo, policy, arbiter,
        seed=arbiter_seed, flits_per_message=flits,
    )


# ----------------------------------------------------------------------
# Process-wide dedup counters (the "dag" cache_stats provider)
# ----------------------------------------------------------------------
_stats_lock = threading.Lock()
_totals = {
    "runs": 0,
    "stages_planned": 0,
    "stages_unique": 0,
    "stages_executed": 0,
    "stages_cache_hit": 0,
}


def dag_stats() -> dict[str, int]:
    """Aggregate scheduler counters across every plan run."""
    with _stats_lock:
        return dict(_totals)


def clear_dag_stats() -> None:
    """Reset the aggregate counters (wired into ``repro.clear_caches``)."""
    with _stats_lock:
        for key in _totals:
            _totals[key] = 0


def _accumulate(counters: dict) -> None:
    with _stats_lock:
        _totals["runs"] += 1
        for key in ("planned", "unique", "executed", "cache_hit"):
            _totals[f"stages_{key}"] += counters[key]


register_cache("dag", dag_stats, clear_dag_stats)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class StageGraph:
    """The deduplicated stage DAG of one plan run over ``indices``.

    Built after ``runtime.prepare`` (node identity needs each source's
    virtual processor count for cells with ``p=None``).  Holds the
    unique route/sim nodes with their live arguments, the cells and sim
    nodes hanging off every route node, and the dedup counters.
    """

    def __init__(self, runtime: Any, indices: Sequence[int]) -> None:
        from repro.networks import RoutingPolicy, by_policy

        #: route_key -> (trace, topo, policy)
        self.route_nodes: dict[tuple, tuple] = {}
        #: sim_key -> (trace, topo, policy, arbiter, arbiter_seed, flits)
        self.sim_nodes: dict[tuple, tuple] = {}
        #: route_key -> analytic cells assembled once the route exists
        self.cells_by_route: dict[tuple, list[int]] = {}
        #: route_key -> sim keys simulated against that route
        self.sims_by_route: dict[tuple, list[tuple]] = {}
        #: sim_key -> cell indices assembled once the node's profile exists
        self.cells_by_sim: dict[tuple, list[int]] = {}
        #: cells with no route dependency (structural, H and D cells)
        self.plain_cells: list[int] = []
        emit_keys: set = set()
        fold_keys: set = set()
        metrics_keys: set = set()
        planned = 0
        policies: dict[tuple, Any] = {}
        for i in indices:
            cell = runtime.cells[i]
            skey = runtime._source_key(cell)
            planned += 1  # one emit reference per cell
            emit_keys.add(skey)
            if cell.topology is None:
                self.plain_cells.append(i)
                continue
            tm = runtime._tms[skey]
            p = cell.p if cell.p is not None else tm.v
            policy = cell.policy if cell.policy is not None else "dimension-order"
            if not isinstance(policy, RoutingPolicy):
                pkey = (policy, cell.policy_seed)
                policy = policies.get(pkey)
                if policy is None:
                    policy = policies[pkey] = by_policy(*pkey)
            route_key = (skey, cell.topology, p, policy.cache_key())
            planned += 3  # fold + route + (sim | metrics) references
            fold_keys.add((skey, p))
            if route_key not in self.route_nodes:
                self.route_nodes[route_key] = (
                    tm.trace, runtime.topology(cell.topology, p), policy
                )
                self.cells_by_route[route_key] = []
                self.sims_by_route[route_key] = []
            if cell.mode != "sim":
                metrics_keys.add(route_key + (cell.sigma, cell.relative_to_dbsp))
                self.cells_by_route[route_key].append(i)
                continue
            sim_key = route_key + (
                cell.arbiter, cell.arbiter_seed, cell.flits_per_message
            )
            if sim_key not in self.sim_nodes:
                self.sim_nodes[sim_key] = self.route_nodes[route_key] + (
                    cell.arbiter, cell.arbiter_seed, cell.flits_per_message
                )
                self.sims_by_route[route_key].append(sim_key)
                self.cells_by_sim[sim_key] = []
            self.cells_by_sim[sim_key].append(i)
        unique = (
            len(emit_keys) + len(fold_keys) + len(self.route_nodes)
            + len(self.sim_nodes) + len(metrics_keys)
        )
        self.counters = {
            "planned": planned,
            "unique": unique,
            "executed": 0,
            "cache_hit": 0,
            "emit_nodes": len(emit_keys),
            "fold_nodes": len(fold_keys),
            "route_nodes": len(self.route_nodes),
            "sim_nodes": len(self.sim_nodes),
            "metrics_nodes": len(metrics_keys),
        }


# ----------------------------------------------------------------------
# Substrates
# ----------------------------------------------------------------------
class Substrate:
    """Where one plan run executes its waves of cold stage nodes.

    This base runs every wave in-line on the calling thread, so the
    artifacts land in the LRUs directly; it is the ``serial`` substrate
    and the fallback a backend degrades to.  Subclasses override
    :meth:`routes`/:meth:`sims` (and :meth:`close`).  ``effective``
    names what actually ran; ``meta`` carries run facts for the frame
    (a downgrade reason, a pool size).

    A wave is a list of ``(key, node)`` pairs: ``key`` is the
    :class:`StageGraph` node key and ``node`` the stage kernel's
    arguments.  When a wave returns, every node's artifact must be in
    this process's LRU.
    """

    def __init__(self, effective: str = "serial", **meta: Any) -> None:
        self.effective = effective
        self.meta = meta

    def routes(self, cold: list[tuple[tuple, tuple]]) -> None:
        for _key, node in cold:
            _route_stage(*node)

    def sims(self, cold: list[tuple[tuple, tuple]]) -> None:
        for _key, node in cold:
            _sim_stage(*node)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
def _chunks(items: list, size: int) -> Iterator[list]:
    for lo in range(0, len(items), size):
        yield items[lo : lo + size]


def run_stage_waves(
    backend: Any,
    runtime: Any,
    *,
    max_workers: int | None = None,
    indices: Sequence[int] | None = None,
) -> tuple[list[tuple], dict]:
    """Run ``indices`` (default: every cell) as stage waves on the
    substrate ``backend.substrate(...)`` opens; ``(rows, meta)``."""
    from repro.networks import peek_route_cache
    from repro.networks.routing import _CACHE_MAX as ROUTE_LRU_SIZE
    from repro.sim.engine import _CACHE_MAX as SIM_LRU_SIZE
    from repro.sim.engine import peek_sim_cache

    indices = list(range(len(runtime.cells)) if indices is None else indices)
    sources_before = len(runtime._tms)
    runtime.prepare(indices)
    graph = StageGraph(runtime, indices)
    counters = graph.counters
    counters["executed"] += len(runtime._tms) - sources_before

    def cold(items: list, peek: Callable) -> list:
        out = [item for item in items if peek(*item[1]) is None]
        counters["cache_hit"] += len(items) - len(out)
        counters["executed"] += len(out)
        return out

    rows = {i: _eval(runtime, i) for i in graph.plain_cells}
    substrate = backend.substrate(runtime, indices, max_workers)
    try:
        for chunk in _chunks(list(graph.route_nodes.items()), ROUTE_LRU_SIZE):
            substrate.routes(cold(chunk, peek_route_cache))
            sims = [
                (sk, graph.sim_nodes[sk])
                for rkey, _node in chunk
                for sk in graph.sims_by_route[rkey]
            ]
            for sim_chunk in _chunks(sims, SIM_LRU_SIZE):
                substrate.sims(cold(sim_chunk, peek_sim_cache))
                for sk, _node in sim_chunk:
                    for i in graph.cells_by_sim[sk]:
                        rows[i] = _eval(runtime, i)
            for rkey, _node in chunk:
                for i in graph.cells_by_route[rkey]:
                    rows[i] = _eval(runtime, i)
    finally:
        substrate.close()
    _accumulate(counters)
    meta = dict(substrate.meta)
    meta.update(
        executor_effective=substrate.effective,
        dag_stages_planned=counters["planned"],
        dag_stages_unique=counters["unique"],
        dag_stages_executed=counters["executed"],
        dag_stages_cache_hit=counters["cache_hit"],
    )
    return [rows[i] for i in indices], meta


def _eval(runtime: Any, i: int) -> tuple:
    """Assemble one cell row off the warm LRUs (sampled cross-check
    against a fresh, cache-bypassing per-cell recompute under
    ``REPRO_SANITIZE=1``)."""
    row: tuple = runtime.eval_cell(i)
    if sanitize.enabled() and sanitize.should_spotcheck():
        sanitize.check_row_parity(row, _fresh_eval(runtime, i), f"dag cell {i}")
    return row


def _fresh_eval(runtime: Any, i: int) -> tuple:
    """Re-evaluate cell ``i`` from a fresh clone of its source trace.

    The clone gets a new cache token, so folding, routing and (for sim
    cells) the cycle loop all recompute from scratch instead of hitting
    the artifacts the waves produced — a genuinely independent per-cell
    reference row for :func:`sanitize.check_row_parity`.
    """
    from repro.api.plan import _PlanRuntime
    from repro.core.metrics import TraceMetrics
    from repro.machine.trace import Trace

    cell = runtime.cells[i]
    skey = runtime._source_key(cell)
    tm = runtime._tms[skey]
    cols = tm.trace.columns()
    clone = Trace.from_columns(
        tm.trace.v, cols.labels, cols.offsets, cols.src, cols.dst
    )
    fresh = _PlanRuntime(runtime.plan, check=runtime.check)
    fresh._tms = dict(runtime._tms)
    fresh._tms[skey] = TraceMetrics(clone)
    fresh._denoms = dict(runtime._denoms)
    fresh._checks = dict(runtime._checks)
    row: tuple = fresh.eval_cell(i)
    return row
