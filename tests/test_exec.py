"""The execution-backend registry, shm backend, and the result store.

Covers the ExecutorBackend contract (every registered backend produces
bit-identical rows), the recorded degradation paths (shm -> serial on
one CPU or for tiny plans), the persistent cell-hash result
store (warm runs do zero folds/routes/sims; version bumps invalidate),
and the aggregated ``repro.cache_stats()`` registry.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import cache_stats, clear_caches
from repro.api import ExperimentPlan, run
from repro.api.plan import PlanCell
from repro.exec import (
    CachedBackend,
    ResultStore,
    SharedMemoryBackend,
    by_executor,
    cell_key,
    executors,
    shutdown_pool,
)


def _grid(name="exec-grid"):
    return ExperimentPlan.grid(
        algorithms=["stencil1d"],
        ns=[256],
        ps=[4, 16],
        topologies=["ring", "hypercube"],
        policies=["dimension-order", "valiant"],
        name=name,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_backends_registered(self):
        assert set(executors()) >= {"serial", "thread", "shm"}
        assert not {"process", "dag"} & set(executors())

    def test_by_executor_builds_fresh_instances(self):
        a, b = by_executor("serial"), by_executor("serial")
        assert a is not b and a.name == "serial"

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ValueError, match="unknown executor"):
            by_executor("nope")
        with pytest.raises(ValueError, match="nope"):
            ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4]).run(
                executor="nope"
            )

    def test_removed_executor_names_fail_fast(self):
        # "process" and "dag" were removed in 2.0; asking for them must
        # fail before any work runs and name the substrates that remain.
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        for name in ("process", "dag"):
            with pytest.raises(ValueError, match="serial, shm, thread"):
                plan.run(executor=name)

    def test_env_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        frame = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4]).run()
        assert frame.metadata["executor"] == "thread"
        assert frame.metadata["executor_effective"] == "thread"

    def test_cached_backend_is_registered(self, tmp_path):
        # Regression (RPR005): CachedBackend defined `name = "cached"` but
        # was never registered, so by_executor("cached") raised.
        assert "cached" in executors()
        backend = by_executor("cached", store=tmp_path / "r.sqlite")
        assert backend.name == "cached" and backend.inner.name == "serial"

    def test_concurrent_registration_is_safe(self):
        # Regression (RPR004): register_executor mutated EXECUTORS unlocked.
        import threading

        from repro.exec.registry import EXECUTORS, register_executor

        names = [f"_lint_tmp_{i}" for i in range(32)]
        try:
            threads = [
                threading.Thread(target=register_executor, args=(n, object))
                for n in names
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert set(names) <= set(executors())
        finally:
            for n in names:
                EXECUTORS.pop(n, None)


# ----------------------------------------------------------------------
# Backend equivalence: the core ExecutorBackend property
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    def test_every_backend_bit_identical_to_serial(self):
        plan = _grid()
        serial = plan.run(executor="serial")
        assert serial.metadata["executor_effective"] == "serial"
        thread = plan.run(executor="thread", max_workers=2)
        assert thread.rows == serial.rows
        # The real pool, even on a single-CPU container.
        shm = plan.run(executor=SharedMemoryBackend(workers=2, force=True))
        assert shm.rows == serial.rows
        assert shm.metadata["executor_effective"] == "shm"
        assert shm.metadata["shm_workers"] == 2
        shutdown_pool()

    def test_shm_downgrades_recorded_on_small_hosts(self, monkeypatch):
        import repro.exec.shm as shm_mod

        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 1)
        frame = _grid().run(executor="shm")
        assert frame.metadata["executor"] == "shm"
        assert frame.metadata["executor_effective"] == "serial"
        assert frame.metadata["executor_downgrade"] == "single-CPU host"
        assert frame.rows == _grid().run().rows

    def test_shm_downgrades_on_tiny_plans(self, monkeypatch):
        import repro.exec.shm as shm_mod

        monkeypatch.setattr(shm_mod.os, "cpu_count", lambda: 8)
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4])
        frame = plan.run(executor="shm")
        assert frame.metadata["executor_effective"] == "serial"
        assert "smaller than" in frame.metadata["executor_downgrade"]

    def test_shm_downgrades_unpicklable_plans(self):
        from repro.models.presets import PRESETS

        plan = ExperimentPlan.grid(
            ["stencil1d"],
            ns=[64],
            ps=[4, 8],
            machines=["custom"],
            machine_builders={"custom": lambda p: PRESETS["hypercube"](p)},
        )
        frame = plan.run(executor=SharedMemoryBackend(workers=2, force=True))
        assert frame.metadata["executor_effective"] == "serial"
        assert frame.metadata["executor_downgrade"].startswith("unpicklable plan")
        assert frame.rows == plan.run(executor="serial").rows

    def test_frame_meta_survives_json(self, tmp_path):
        frame = _grid().run(executor="serial")
        data = json.loads(frame.to_json(tmp_path / "f.json"))
        assert dict(data["meta"])["executor_effective"] == "serial"


# ----------------------------------------------------------------------
# Cell hashing
# ----------------------------------------------------------------------
class TestCellKey:
    def test_key_is_stable_and_field_sensitive(self):
        cell = PlanCell(algorithm="fft", n=256, p=4, topology="ring")
        assert cell_key(cell) == cell_key(cell)
        changed = PlanCell(algorithm="fft", n=256, p=8, topology="ring")
        assert cell_key(cell) != cell_key(changed)

    def test_version_and_check_are_part_of_the_key(self):
        cell = PlanCell(algorithm="fft", n=256, p=4)
        assert cell_key(cell, version="1.0") != cell_key(cell, version="2.0")
        assert cell_key(cell, check=True) != cell_key(cell, check=False)

    def test_non_declarative_cells_are_uncacheable(self):
        from repro.networks import by_policy

        assert cell_key(PlanCell(algorithm="@trace", n=None)) is None
        policy = by_policy("valiant", 0)
        assert (
            cell_key(PlanCell(algorithm="fft", n=256, policy=policy)) is None
        )
        weird = PlanCell(algorithm="fft", n=256, params=(("f", object()),))
        assert cell_key(weird) is None


# ----------------------------------------------------------------------
# The persistent result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_warm_run_hits_everything_and_computes_nothing(
        self, tmp_path, monkeypatch
    ):
        # Under REPRO_SANITIZE=1 a sample of warm hits is deliberately
        # re-derived end to end (the store spot-check); pin it off so
        # "computes nothing" is the invariant actually under test.
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        store = ResultStore(tmp_path / "results.db")
        plan = _grid()
        cold = plan.run(executor="serial", store=store)
        assert cold.metadata["store_misses"] == len(plan)
        assert len(store) == len(plan)

        # A warm run must not fold, route or simulate anything: clear the
        # in-memory LRUs and check their counters stay at zero.
        clear_caches()
        warm = plan.run(executor="serial", store=store)
        assert warm.rows == cold.rows
        assert warm.metadata["store_hits"] == len(plan)
        assert warm.metadata["store_misses"] == 0
        stats = cache_stats()
        for lru in ("fold", "route", "sim"):
            assert stats[lru]["misses"] == 0, lru
            assert stats[lru]["hits"] == 0, lru
        assert stats["store"]["hits"] >= len(plan)

    def test_store_path_accepted_directly(self, tmp_path):
        path = tmp_path / "results.db"
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        cold = plan.run(store=path)
        warm = plan.run(store=str(path))
        assert warm.rows == cold.rows
        assert warm.metadata["store_hits"] == len(plan)

    def test_store_wraps_any_inner_backend(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        plan = _grid()
        serial = plan.run()
        cold = plan.run(executor="thread", store=store, max_workers=2)
        assert cold.rows == serial.rows
        assert cold.metadata["executor_effective"] == "thread"
        warm = plan.run(executor="thread", store=store)
        assert warm.rows == serial.rows
        # All-hit runs never touch the inner backend.
        assert warm.metadata["store_hits"] == len(plan)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "results.db")
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        plan.run(store=store)
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        stale = plan.run(store=store)
        assert stale.metadata["store_hits"] == 0
        assert stale.metadata["store_misses"] == len(plan)

    def test_at_cells_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "results.db")
        trace = run("stencil1d", n=64).trace
        plan = ExperimentPlan.from_trace(trace, ps=[4, 8], topologies=["ring"])
        first = plan.run(store=store)
        second = plan.run(store=store)
        assert first.rows == second.rows
        assert len(store) == 0  # nothing of unknown provenance was stored
        assert second.metadata["store_hits"] == 0

    def test_lru_eviction_by_access(self, tmp_path):
        store = ResultStore(tmp_path / "results.db", max_rows=3)
        store.put_many({f"k{i}": (i,) for i in range(3)})
        store.get_many(["k0"])  # refresh k0; k1 is now the oldest
        store.put_many({"k3": (3,)})
        assert len(store) == 3
        assert store.get_many(["k0", "k1", "k3"]) == {"k0": (0,), "k3": (3,)}
        assert store.evictions == 1

    def test_cached_backend_composes_explicitly(self, tmp_path):
        plan = ExperimentPlan.grid(["stencil1d"], ns=[64], ps=[4, 8])
        backend = CachedBackend(tmp_path / "results.db", inner="serial")
        frame = plan.run(executor=backend)
        assert frame.metadata["executor"] == "cached"
        assert frame.metadata["store_misses"] == len(plan)


# ----------------------------------------------------------------------
# The aggregate cache registry
# ----------------------------------------------------------------------
class TestCacheRegistry:
    def test_aggregate_names_and_shape(self):
        from repro.util.caches import registered_caches

        assert set(registered_caches()) >= {"fold", "route", "sim", "store"}
        stats = cache_stats()
        for name in ("fold", "route", "sim", "store"):
            assert {"hits", "misses", "evictions"} <= set(stats[name])

    def test_clear_caches_resets_every_counter(self):
        run("stencil1d", n=64).fold(4).trace  # force some fold traffic
        clear_caches()
        stats = cache_stats()
        for name in ("fold", "route", "sim", "store"):
            assert stats[name]["hits"] == 0
            assert stats[name]["misses"] == 0
