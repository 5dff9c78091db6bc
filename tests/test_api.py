"""Tests for the unified experiment API: registry, pipeline, plan, CLI."""

import json

import numpy as np
import pytest

import repro
import repro.api as api
from repro.api import (
    AlgorithmSpec,
    ExperimentPlan,
    Pipeline,
    PlanCell,
    ResultFrame,
    algorithms,
    by_name,
    register,
    run,
    unregister,
)
from repro.api.frame import RESULT_COLUMNS
from repro.core.metrics import TraceMetrics
from repro.machine.folding import clear_fold_cache, fold_cache_stats, fold_trace
from repro.networks import by_policy, fit, route_trace
from repro.networks import by_name as topo_by_name
from repro.networks.routing import clear_route_cache, route_cache_stats


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_shipped_algorithms_registered(self):
        names = algorithms()
        for expected in (
            "matmul", "matmul-space", "fft", "sort", "stencil1d",
            "stencil2d", "broadcast", "prefix",
            "bsp-matmul-2d", "bsp-matmul-3d", "bsp-fft", "bsp-sort",
            "bsp-broadcast",
        ):
            assert expected in names

    def test_kind_filter_partitions(self):
        obl = algorithms(kind="oblivious")
        base = algorithms(kind="baseline")
        assert set(obl) | set(base) == set(algorithms())
        assert set(obl).isdisjoint(base)
        assert all(n.startswith("bsp-") for n in base)

    def test_by_name_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            by_name("nope")

    @pytest.mark.parametrize(
        "name,n,params",
        [
            ("matmul", 15, {}),          # not a square of a power of two
            ("matmul", 4, {}),           # too small
            ("fft", 100, {}),            # not a power of two
            ("sort", 0, {}),
            ("stencil1d", 2, {}),
            ("broadcast", 64, {"kappa": 3}),
            ("bsp-fft", 64, {"p": 16}),  # p^2 > n
            ("bsp-matmul-3d", 256, {"p": 4}),  # p not a cube
            ("bsp-sort", 64, {}),        # baseline without p
        ],
    )
    def test_validate_rejects(self, name, n, params):
        with pytest.raises(ValueError):
            by_name(name).validate(n, **params)

    @pytest.mark.parametrize(
        "name,n,params",
        [
            ("matmul", 64, {}),
            ("matmul-space", 64, {}),
            ("fft", 64, {}),
            ("sort", 64, {}),
            ("stencil1d", 16, {}),
            ("stencil2d", 4, {}),
            ("broadcast", 64, {}),
            ("prefix", 64, {}),
            ("bsp-matmul-2d", 256, {"p": 4}),
            ("bsp-matmul-3d", 256, {"p": 8}),
            ("bsp-fft", 256, {"p": 4}),
            ("bsp-sort", 256, {"p": 4}),
            ("bsp-broadcast", 64, {"sigma": 4.0}),
        ],
    )
    def test_every_spec_runs(self, name, n, params):
        spec = by_name(name)
        result = spec.run(n, seed=1, **params)
        assert result.trace.total_messages > 0
        desc = spec.describe(result)
        assert desc["algorithm"] == name
        assert desc["v"] == result.v

    def test_spec_runs_are_seed_deterministic(self):
        a = by_name("sort").run(64, seed=7)
        b = by_name("sort").run(64, seed=7)
        assert np.array_equal(a.trace.columns().src, b.trace.columns().src)
        assert np.array_equal(a.output, b.output)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
@pytest.fixture
def counting_spec():
    calls = {"n": 0}

    def emit(n, rng):
        calls["n"] += 1
        from repro.algorithms import fft

        return fft.run(rng.random(n))

    spec = AlgorithmSpec(
        name="_counting",
        summary="test spec",
        kind="oblivious",
        section="test",
        emit=emit,
        check=lambda n: None,
        default_sizes=(64,),
    )
    register(spec)
    yield calls
    unregister("_counting")


class TestPipeline:
    def test_construction_is_lazy(self, counting_spec):
        pipe = run("_counting", n=64)
        chain = pipe.fold(8).route("ring")
        assert counting_spec["n"] == 0
        assert "lazy" in repr(chain)

    def test_source_materialises_exactly_once(self, counting_spec):
        pipe = run("_counting", n=64)
        f1 = pipe.fold(8)
        f2 = pipe.fold(16)
        r1 = f1.route("ring")
        r2 = f1.route("hypercube")
        for stage in (f1, f2, r1, r2):
            stage.metrics(sigma=1.0)
        assert counting_spec["n"] == 1
        assert pipe.result is r1.result

    def test_run_validates_eagerly(self):
        with pytest.raises(ValueError):
            run("matmul", n=15)

    def test_metrics_row_matches_direct_computation(self):
        pipe = run("matmul", n=64, seed=3)
        row = pipe.fold(16).route("torus2d", policy="valiant").metrics(sigma=2.0)
        tm = TraceMetrics(pipe.trace)
        assert row.H == tm.H(16, 2.0)
        profile = route_trace(pipe.trace, topo_by_name("torus2d", 16),
                              by_policy("valiant", 0))
        assert row.routed_time == profile.total_time
        assert row.max_congestion == profile.max_congestion
        assert row.topology == "torus2d" and row.policy == "valiant"
        assert row.p == 16 and row.v == 64
        d = row.as_dict()
        assert d["H"] == row.H and d["routed_time"] == row.routed_time

    def test_fold_stage_trace_is_folded(self):
        pipe = run("fft", n=64)
        assert pipe.fold(8).trace.v == 8
        assert pipe.trace.v == 64

    def test_route_defaults_to_chain_fold_p(self):
        pipe = run("fft", n=64)
        assert pipe.fold(8).route("ring").profile.p == 8
        assert pipe.route("ring").profile.p == 64
        assert pipe.route("ring", p=4).profile.p == 4

    def test_H_and_D_helpers(self):
        pipe = run("fft", n=64)
        tm = TraceMetrics(pipe.trace)
        assert pipe.fold(8).H(sigma=1.0) == tm.H(8, 1.0)
        from repro.models import PRESETS

        assert pipe.fold(8).D("hypercube") == tm.D_machine(PRESETS["hypercube"](8))

    def test_from_trace_pipeline(self):
        trace = run("fft", n=64).trace
        pipe = Pipeline.from_trace(trace, label="mine")
        row = pipe.fold(8).metrics(sigma=0.0)
        assert row.algorithm == "mine"
        assert row.H == TraceMetrics(trace).H(8, 0.0)
        with pytest.raises(AttributeError):
            pipe.result

    def test_mid_chain_reuse_hits_caches_only(self):
        """A reused fold/route stage performs zero re-folds/re-routes."""
        pipe = run("matmul", n=64, seed=5)
        base = pipe.fold(16)
        base.trace  # materialise the fold once
        r1 = base.route("torus2d")
        r1.profile  # materialise the route once

        fold_before = fold_cache_stats()
        route_before = route_cache_stats()
        # New chain objects over the same source: all work must be LRU hits.
        pipe.fold(16).trace
        pipe.fold(16).route("torus2d").profile
        fold_after = fold_cache_stats()
        route_after = route_cache_stats()
        assert fold_after["misses"] == fold_before["misses"]
        assert route_after["misses"] == route_before["misses"]
        assert route_after["hits"] > route_before["hits"]


# ----------------------------------------------------------------------
# Cache observability: hits, misses *and* evictions
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_route_cache_reports_evictions(self, monkeypatch):
        import repro.networks.routing as routing

        clear_route_cache()
        monkeypatch.setattr(routing, "_CACHE_MAX", 2)
        trace = run("prefix", n=64, seed=1).trace
        for name in ("ring", "mesh2d", "hypercube", "butterfly"):
            route_trace(trace, topo_by_name(name, 8))
        stats = route_cache_stats()
        assert stats["misses"] == 4 and stats["evictions"] == 2
        # Hitting a surviving entry adds a hit, never an eviction.
        route_trace(trace, topo_by_name("butterfly", 8))
        after = route_cache_stats()
        assert after["hits"] == stats["hits"] + 1
        assert after["evictions"] == stats["evictions"]
        clear_route_cache()
        assert route_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_fold_cache_reports_evictions(self, monkeypatch):
        import repro.machine.folding as folding

        clear_fold_cache()
        monkeypatch.setattr(folding, "_CACHE_MAX", 2)
        trace = run("prefix", n=64, seed=2).trace
        before = fold_cache_stats()
        for p in (2, 4, 8, 16):
            folding.fold_degrees(trace, p)
        stats = fold_cache_stats()
        assert stats["misses"] >= before["misses"] + 4
        assert stats["evictions"] >= 2
        clear_fold_cache()
        assert fold_cache_stats() == {"hits": 0, "misses": 0, "evictions": 0}


# ----------------------------------------------------------------------
# ExperimentPlan
# ----------------------------------------------------------------------
class TestExperimentPlan:
    def _grid(self):
        return ExperimentPlan.grid(
            algorithms=["fft"],
            ns=[256],
            ps=[4, 16],
            topologies=["ring", "torus2d", "hypercube"],
            policies=["dimension-order", "valiant"],
        )

    def test_grid_cell_count_and_order(self):
        plan = self._grid()
        assert len(plan) == 2 * 3 * 2
        first = plan.cells[0]
        assert (first.p, first.topology, first.policy) == (
            4, "ring", "dimension-order",
        )

    def test_parallel_executors_bit_identical_to_serial(self):
        plan = self._grid()
        serial = plan.run(executor="serial")
        thread = plan.run(executor="thread", max_workers=4)
        assert serial.rows == thread.rows
        shm = plan.run(executor="shm", max_workers=2)
        assert serial.rows == shm.rows

    def test_parallel_executor_cold_caches_identical(self):
        plan = self._grid()
        serial = plan.run(executor="serial")
        clear_fold_cache()
        clear_route_cache()
        shm = plan.run(executor="shm", max_workers=2)
        assert serial.rows == shm.rows

    def test_mixed_cells_and_baselines(self):
        plan = ExperimentPlan.grid(
            algorithms=["bsp-fft"],
            ns=[256],
            ps=[4],
            sigmas=[0.0, 2.0],
            machines=["hypercube"],
        )
        frame = plan.run()
        rows = frame.as_dicts()
        assert len(rows) == 3
        assert rows[0]["H"] is not None
        assert rows[2]["machine"] == "hypercube" and rows[2]["D"] > 0

    def test_unknown_algorithm_fails_fast(self):
        plan = ExperimentPlan([PlanCell(algorithm="nope", n=4)])
        with pytest.raises(KeyError):
            plan.run()

    def test_invalid_size_fails_fast_without_running(self):
        plan = ExperimentPlan([PlanCell(algorithm="matmul", n=15)])
        with pytest.raises(ValueError):
            plan.run()

    def test_json_roundtrip(self, tmp_path):
        plan = self._grid()
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = ExperimentPlan.from_json(path)
        assert loaded.cells == plan.cells
        assert loaded.run().rows == plan.run().rows

    def test_grid_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "g",
            "grid": {"algorithms": ["matmul"], "ns": [64], "ps": [4],
                     "sigmas": [0.0]},
        }))
        frame = ExperimentPlan.from_json(path).run()
        assert len(frame) == 1
        assert frame.as_dicts()[0]["H"] == TraceMetrics(
            run("matmul", n=64).trace
        ).H(4, 0.0)

    def test_frame_exports(self, tmp_path):
        frame = self._grid().run()
        csv_text = frame.to_csv(tmp_path / "f.csv")
        assert csv_text.splitlines()[0] == ",".join(RESULT_COLUMNS)
        assert len(csv_text.splitlines()) == len(frame) + 1
        data = json.loads(frame.to_json(tmp_path / "f.json"))
        assert len(data["rows"]) == len(frame)
        assert (tmp_path / "f.csv").exists() and (tmp_path / "f.json").exists()

    def test_pivot(self):
        frame = self._grid().run()
        table = frame.pivot("p", "topology", "routed_time")
        assert table.index == (4, 16)
        assert table.columns == ("ring", "torus2d", "hypercube")


# ----------------------------------------------------------------------
# The classic sweep layouts, as plans + pivot, bit-identically
# ----------------------------------------------------------------------
class TestPlanLayouts:
    @pytest.fixture
    def trace(self):
        return run("fft", n=256, seed=2).trace

    def test_network_grid_bit_identical_to_direct_routing(self, trace):
        ps = [4, 16]
        topologies = ("ring", "torus2d", "hypercube")
        policies = ("dimension-order", "valiant")
        frame = ExperimentPlan.from_trace(
            trace, ps=ps, topologies=topologies, policies=policies
        ).run()
        resolved = [by_policy(p, 0) for p in policies]
        assert frame.column("routed_time") == [
            route_trace(trace, topo_by_name(t, p), pol).total_time
            for p in ps
            for t in topologies
            for pol in resolved
        ]
        table = ExperimentPlan.from_trace(
            trace, ps=ps, topologies=topologies
        ).run().pivot("p", "topology", "routed_time")
        assert table.index == tuple(ps)
        assert table.columns == topologies
        assert table.rows == tuple(
            tuple(
                route_trace(trace, topo_by_name(t, p), resolved[0]).total_time
                for t in topologies
            )
            for p in ps
        )

    def test_network_grid_distinct_same_named_policies(self, trace):
        """Two ValiantPolicy seeds share the name 'valiant' but keep
        their own cells."""
        from repro.networks import ValiantPolicy

        pols = [ValiantPolicy(0), ValiantPolicy(7)]
        frame = ExperimentPlan.from_trace(
            trace, ps=[16], topologies=("torus2d",), policies=pols
        ).run()
        expected = [
            route_trace(trace, topo_by_name("torus2d", 16), pol).total_time
            for pol in pols
        ]
        assert frame.column("routed_time") == expected
        assert expected[0] != expected[1]  # seeds actually differ

    def test_network_grid_relative_mode(self, trace):
        table = ExperimentPlan.from_trace(
            trace, ps=[16], topologies=("torus2d",), relative_to_dbsp=True
        ).run().pivot("p", "topology", "routed_over_dbsp")
        tm = TraceMetrics(trace)
        topo = topo_by_name("torus2d", 16)
        expected = route_trace(trace, topo).total_time / tm.D_machine(fit(topo))
        assert table.rows == ((expected,),)

    def test_h_grid_bit_identical(self, trace):
        tm = TraceMetrics(trace)
        table = ExperimentPlan.from_trace(
            trace, ps=[4, 16], sigmas=(0.0, 2.0)
        ).run().pivot("p", "sigma", "H")
        assert table.rows == tuple(
            tuple(tm.H(p, s) for s in (0.0, 2.0)) for p in (4, 16)
        )

    def test_removed_sweeps_are_gone(self):
        import repro.analysis

        for name in ("h_sweep", "d_sweep", "optimality_sweep", "network_sweep"):
            assert not hasattr(repro.analysis, name)


# ----------------------------------------------------------------------
# Public surface / CLI
# ----------------------------------------------------------------------
class TestPublicSurface:
    def test_repro_all_consistent(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        for name in (
            "algorithms", "baselines", "networks", "analysis", "api",
            "fold_trace", "route_trace", "Pipeline", "ExperimentPlan",
            "ResultFrame",
        ):
            assert name in repro.__all__

    def test_api_all_consistent(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_fold_route_reexports_are_canonical(self):
        assert repro.fold_trace is fold_trace
        assert repro.route_trace is route_trace


class TestCLI:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "torus2d" in out and "valiant" in out

    def test_plan(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "grid": {"algorithms": ["matmul"], "ns": [64], "ps": [4],
                     "topologies": ["ring"]},
        }))
        csv_out = tmp_path / "out.csv"
        assert main(["plan", str(path), "--csv", str(csv_out)]) == 0
        assert "routed_time" in capsys.readouterr().out
        assert csv_out.exists()


# ----------------------------------------------------------------------
# ResultFrame unit behaviour
# ----------------------------------------------------------------------
class TestResultFrame:
    def test_pivot_missing_cell_raises(self):
        frame = ResultFrame(("a", "b", "v"), ((1, "x", 1.0), (2, "y", 2.0)))
        with pytest.raises(ValueError, match="missing cell"):
            frame.pivot("a", "b", "v")

    def test_as_dicts_drop_none(self):
        frame = ResultFrame(("a", "b"), ((1, None),))
        assert frame.as_dicts(drop_none=True) == [{"a": 1}]
