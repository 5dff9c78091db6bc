"""The stage-graph plan scheduler (``repro.exec.dag``).

The contract under test: every ``plan.run`` schedules its cells as
deduplicated stage waves, and the frame is bit-identical to the
per-cell oracle ``[runtime.eval_cell(i) for i in ...]`` on every
substrate (serial, thread, shm) with and without the result store,
while each unique emit/fold/route/sim stage executes once — the dedup
counters recorded in frame metadata and aggregated under
``repro.cache_stats()["dag"]`` pin that down, also for plans larger
than the route LRU.  Cell order must not matter, and repeated thread
runs must agree row for row.
"""

from __future__ import annotations

import warnings

import pytest

from repro import cache_stats, clear_caches
from repro.api import ExperimentPlan, run
from repro.api.plan import PlanCell, _PlanRuntime
from repro.exec import (
    ResultStore,
    SharedMemoryBackend,
    StageGraph,
    clear_dag_stats,
    dag_stats,
    shutdown_pool,
)

TOPOLOGIES = ("ring", "mesh2d", "torus2d", "hypercube", "fat-tree", "butterfly")


def _shared_grid(name="dag-grid"):
    """A grid whose cells share most stage work: one emitted source,
    routes shared across modes, sims shared across nothing else."""
    return ExperimentPlan.grid(
        algorithms=["fft"],
        ns=[64],
        ps=[4, 8],
        topologies=["ring", "hypercube"],
        policies=["dimension-order", "valiant"],
        modes=["analytic", "sim"],
        name=name,
    )


def _mixed_plan():
    """Every kind of cell in one plan: structural, H, D-preset,
    ``@source``, ``relative_to_dbsp``, analytic and sim cells (with a
    dynamic arbiter and two flits per message)."""
    cells = [
        PlanCell("fft", n=64),
        PlanCell("fft", n=64, p=8, sigma=2.0),
        PlanCell("fft", n=64, p=8, machine="hypercube"),
        PlanCell("@src", p=4, sigma=0.0),
    ]
    cells += ExperimentPlan.grid(
        algorithms=["fft", "stencil1d"],
        ns=[64],
        ps=[4, 8],
        topologies=["ring", "mesh2d"],
        policies=["dimension-order", "valiant"],
        relative_to_dbsp=True,
    ).cells
    cells += ExperimentPlan.grid(
        algorithms=["fft"],
        ns=[64],
        ps=[8],
        topologies=["ring", "hypercube"],
        modes=["sim"],
    ).cells
    cells += ExperimentPlan.grid(
        algorithms=["fft"],
        ns=[64],
        ps=[8],
        topologies=["ring", "hypercube"],
        modes=["sim"],
        arbiter="random",
        arbiter_seed=3,
        flits_per_message=2,
    ).cells
    cells += ExperimentPlan.grid(
        algorithms=["@src"],
        ps=[4, 8],
        topologies=["hypercube"],
        modes=["analytic", "sim"],
    ).cells
    return ExperimentPlan(
        cells, name="mixed", sources={"src": run("prefix", n=64).trace}
    )


def _oracle(plan, *, check=False):
    runtime = _PlanRuntime(plan, check=check)
    runtime.prepare()
    return tuple(runtime.eval_cell(i) for i in range(len(plan)))


@pytest.fixture(autouse=True)
def _default_executor(monkeypatch):
    # These tests pick their substrate explicitly, so the session-level
    # REPRO_EXECUTOR of a CI matrix leg must not leak in.
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)


# ----------------------------------------------------------------------
# Bit-identity: the core scheduler property
# ----------------------------------------------------------------------
_SUBSTRATES = {
    "serial": lambda: "serial",
    "thread": lambda: "thread",
    "shm": lambda: SharedMemoryBackend(workers=2, force=True),
}


class TestParity:
    @pytest.fixture(scope="class")
    def mixed(self):
        plan = _mixed_plan()
        return plan, _oracle(plan, check=True)

    @pytest.mark.parametrize("substrate", sorted(_SUBSTRATES))
    @pytest.mark.parametrize("store_mode", ["none", "cold", "warm"])
    def test_frame_equals_per_cell_oracle(
        self, mixed, substrate, store_mode, tmp_path
    ):
        plan, reference = mixed
        kwargs: dict = {"max_workers": 2, "check": True}
        if store_mode != "none":
            store = ResultStore(tmp_path / "results.db")
            kwargs["store"] = store
            if store_mode == "warm":
                plan.run(**kwargs)
        frame = plan.run(executor=_SUBSTRATES[substrate](), **kwargs)
        assert frame.rows == reference
        meta = frame.metadata
        if store_mode == "warm":
            # Only the uncacheable @-sourced cells reach the scheduler.
            at_cells = sum(c.algorithm.startswith("@") for c in plan.cells)
            assert meta["store_misses"] == at_cells
        assert meta["executor_effective"] == substrate
        shutdown_pool()

    def test_cell_order_does_not_matter(self):
        plan = _shared_grid()
        flipped = ExperimentPlan(plan.cells[::-1])
        assert flipped.run().rows == plan.run().rows[::-1]

    def test_multi_worker_runs_do_not_warn(self):
        plan = _shared_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan.run(executor="thread", max_workers=2)


class TestDagEquivalence:
    def test_dag_serial_bit_identical(self):
        plan = _shared_grid()
        frame = plan.run()
        assert frame.rows == _oracle(plan)
        assert frame.metadata["executor_effective"] == "serial"
        assert frame.columns == plan.run(executor="serial").columns

    def test_dag_over_every_substrate_bit_identical(self):
        plan = _shared_grid()
        reference = _oracle(plan)
        thread = plan.run(executor="thread", max_workers=2)
        assert thread.rows == reference
        assert thread.metadata["executor_effective"] == "thread"
        shm = plan.run(executor=SharedMemoryBackend(workers=2, force=True))
        assert shm.rows == reference
        assert shm.metadata["executor_effective"] == "shm"
        shutdown_pool()

    def test_dag_with_store_cold_and_warm(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        plan = _shared_grid()
        reference = _oracle(plan)
        cold = plan.run(store=store)
        assert cold.rows == reference
        assert cold.metadata["store_misses"] == len(plan)
        warm = plan.run(store=store)
        assert warm.rows == reference
        assert warm.metadata["store_hits"] == len(plan)

    def test_dynamic_arbiter_and_flits(self):
        plan = ExperimentPlan.grid(
            algorithms=["fft"],
            ns=[64],
            ps=[4, 8],
            topologies=["ring", "mesh2d"],
            modes=["sim"],
            arbiter="random",
            arbiter_seed=3,
            flits_per_message=2,
        )
        assert plan.run().rows == _oracle(plan)


class TestThreadStress:
    def test_repeated_thread_runs_agree(self):
        plan = ExperimentPlan.grid(
            algorithms=["fft", "prefix"],
            ns=[64],
            ps=[4, 8],
            topologies=["ring", "torus2d", "hypercube"],
            policies=["dimension-order", "valiant"],
            modes=["analytic", "sim"],
        )
        reference = _oracle(plan)
        for attempt in range(20):
            if attempt % 4 == 0:
                clear_caches()
            frame = plan.run(executor="thread", max_workers=4)
            assert frame.rows == reference, attempt


# ----------------------------------------------------------------------
# Dedup accounting
# ----------------------------------------------------------------------
class TestDedupCounters:
    def test_frame_metadata_records_counters(self):
        clear_caches()
        plan = _shared_grid()
        frame = plan.run()
        meta = frame.metadata
        planned = meta["dag_stages_planned"]
        unique = meta["dag_stages_unique"]
        assert planned > unique > 0
        assert meta["dag_stages_executed"] > 0
        assert meta["dag_stages_cache_hit"] >= 0
        assert meta["executor_effective"] == "serial"
        # Every cell references emit+fold+route+(sim|metrics) stages.
        assert planned == 4 * len(plan)

    def test_shared_source_emitted_once(self):
        # Every cell of the grid shares one emitted trace: the graph
        # plans len(plan) emit references but a single emit node.
        plan = _shared_grid()
        runtime = _PlanRuntime(plan, check=False)
        indices = list(range(len(plan)))
        runtime.prepare(indices)
        graph = StageGraph(runtime, indices)
        assert graph.counters["emit_nodes"] == 1
        assert graph.counters["sim_nodes"] == 8  # 2 ps x 2 topos x 2 pols
        assert graph.counters["route_nodes"] == 8  # shared across modes
        assert graph.counters["fold_nodes"] == 2  # one per p

    def test_warm_lrus_are_counted_not_recomputed(self):
        # A stable in-memory trace keeps its LRU identity across runs:
        # the second run must count cache hits instead of executing.
        trace = run("fft", n=64).trace
        plan = ExperimentPlan.from_trace(
            trace,
            ps=[4, 8],
            topologies=["ring", "hypercube"],
            modes=["analytic", "sim"],
        )
        clear_caches()
        cold = plan.run()
        warm = plan.run()
        assert warm.rows == cold.rows
        assert warm.metadata["dag_stages_cache_hit"] > 0
        assert (
            warm.metadata["dag_stages_executed"]
            < cold.metadata["dag_stages_executed"]
        )

    def test_cache_stats_gains_dag_provider(self):
        clear_dag_stats()
        assert dag_stats()["stages_planned"] == 0
        frame = _shared_grid().run()
        stats = cache_stats()["dag"]
        assert stats["stages_planned"] == frame.metadata["dag_stages_planned"]
        assert stats["stages_unique"] == frame.metadata["dag_stages_unique"]
        assert stats["runs"] == 1
        clear_caches()
        assert dag_stats()["stages_planned"] == 0

    def test_plans_larger_than_the_route_lru_route_each_node_once(
        self, monkeypatch
    ):
        # 8 sources x 3 ps x 6 topologies x 2 policies = 288 route nodes,
        # more than the route LRU holds: waves must assemble their cells
        # before later waves evict the profiles, so no route runs twice.
        # REPRO_SANITIZE=1 deliberately re-routes sampled cells on cloned
        # traces; pin it off so the miss count is the invariant tested.
        from repro.networks.routing import _CACHE_MAX

        monkeypatch.setenv("REPRO_SANITIZE", "0")
        cells: list = []
        for seed in range(8):
            cells += ExperimentPlan.grid(
                algorithms=["fft"],
                ns=[64],
                ps=[4, 16, 64],
                topologies=TOPOLOGIES,
                policies=["dimension-order", "valiant"],
                seed=seed,
            ).cells
        plan = ExperimentPlan(cells)
        assert len(plan) > _CACHE_MAX
        clear_caches()
        frame = plan.run()
        route = cache_stats()["route"]
        assert route["misses"] == len(plan)
        meta = frame.metadata
        assert meta["dag_stages_executed"] == 8 + route["misses"]
        assert meta["dag_stages_cache_hit"] == 0

    def test_plans_larger_than_the_sim_lru_simulate_each_node_once(
        self, monkeypatch
    ):
        # 6 sources x 2 ps x 6 topologies x 2 policies = 144 sim nodes in
        # one route chunk, more than the sim LRU holds.
        from repro.sim.engine import _CACHE_MAX

        monkeypatch.setenv("REPRO_SANITIZE", "0")
        cells: list = []
        for seed in range(6):
            cells += ExperimentPlan.grid(
                algorithms=["fft"],
                ns=[16],
                ps=[4, 16],
                topologies=TOPOLOGIES,
                policies=["dimension-order", "valiant"],
                modes=["sim"],
                seed=seed,
            ).cells
        plan = ExperimentPlan(cells)
        assert len(plan) > _CACHE_MAX
        clear_caches()
        frame = plan.run()
        stats = cache_stats()
        assert stats["sim"]["misses"] == len(plan)
        assert stats["route"]["misses"] == len(plan)
        assert frame.metadata["dag_stages_executed"] == 6 + 2 * len(plan)
