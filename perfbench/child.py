"""One plan run in a fresh interpreter, as ``python -m repro plan`` runs one.

Started by ``run.py``, once per timed iteration, with ``src`` on
``PYTHONPATH`` and no ``REPRO_*`` variable set.  It times ``import
repro`` plus building and validating the plan (set-up), then
``ExperimentPlan.run`` with no ``executor=`` or ``scheduler=`` argument,
and a fixed host reference kernel before and after the plan.  It prints
one JSON object on stdout.

``--trace`` wraps the layers first (see ``spans.py``); ``--prime``
runs the workload's priming plan into ``--store`` and measures nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads


def host_reference_samples(count: int = 4) -> list[float]:
    """Timings of a fixed host kernel, about 20 ms each.

    It mixes what plan runs spend time on: a numpy sort, an integer loop,
    and building and sorting dicts of small tuples and strings.
    """
    import numpy as np

    data = np.random.default_rng(12345).random(400_000)
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        np.sort(data)
        acc = 0
        for i in range(200_000):
            acc += i & 7
        for r in range(15):  # small tables, so the kernel leaves no RSS mark
            table = {}
            for i in range(1_000):
                key = (i * 7919 + r) % 100_003
                table[key] = (i, str(key))
            sorted(table.items())
        samples.append(time.perf_counter() - t0)
    return samples


def layer_report(rec, plan_s: float, before: dict, after: dict, meta: dict) -> dict:
    """Per-layer numbers of one traced plan run (names as in README.md)."""
    import spans

    def delta(cache: str, key: str) -> int:
        return after[cache][key] - before[cache][key]

    def ratio(cache: str) -> float:
        hits, misses = delta(cache, "hits"), delta(cache, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    sim_self = rec.layer_self_s("sim", "sim.batch")
    return {
        "algorithms.emit_s": rec.layer_self_s("algorithms.emit"),
        "algorithms.emit_calls": rec.calls["algorithms.emit"],
        "algorithms.messages": sum(int(r.trace.total_messages) for r in rec.emitted),
        "folding.self_s": rec.layer_self_s("folding"),
        "folding.calls": rec.calls["folding"],
        "folding.hit_ratio": ratio("fold"),
        "routing.self_s": rec.layer_self_s("routing"),
        "routing.calls": rec.calls["routing"],
        "routing.hit_ratio": ratio("route"),
        "routing.fused_calls": spans.fused_routings(rec.routed),
        "sim.self_s": sim_self,
        "sim.calls": rec.calls["sim"],
        "sim.batch_calls": rec.calls["sim.batch"],
        "sim.hit_ratio": ratio("sim"),
        "sim.cycles": rec.sim_cycles,
        "sim.host_ns_per_cycle": sim_self * 1e9 / rec.sim_cycles if rec.sim_cycles else 0.0,
        "metrics.self_s": rec.layer_self_s("metrics"),
        "metrics.calls": rec.calls["metrics"],
        "store.key_s": rec.layer_self_s("store.key"),
        "store.get_s": rec.layer_self_s("store.get"),
        "store.put_s": rec.layer_self_s("store.put"),
        "store.hits": delta("store", "hits"),
        "store.misses": delta("store", "misses"),
        "exec.self_s": plan_s - rec.top_ns / 1e9,
        "exec.dag_stages_planned": int(meta.get("dag_stages_planned", 0)),
        "exec.dag_stages_unique": int(meta.get("dag_stages_unique", 0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro
    from repro.api import ExperimentPlan
    from repro.networks.routing import fuse_gate_stats

    plan = workloads.build_plan(ExperimentPlan, args.workload, args.seed, primed=args.prime)
    plan.validate()
    setup_s = time.perf_counter() - t0
    if args.prime:
        plan.run(store=args.store)
        print(json.dumps({"primed": len(plan)}))
        return 0

    host_ref = host_reference_samples()
    rec = None
    if args.trace:
        import spans

        rec = spans.install()
    before = repro.cache_stats()
    kwargs = {"store": args.store} if args.store else {}
    t1 = time.perf_counter()
    frame = plan.run(**kwargs)
    plan_s = time.perf_counter() - t1
    after = repro.cache_stats()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host_ref += host_reference_samples()
    meta = frame.metadata

    import numpy

    out = {
        "setup_s": setup_s,
        "plan_s": plan_s,
        "cells": len(plan),
        "digest": workloads.frame_digest(plan.cells, frame.rows),
        "peak_rss_mb": peak_rss_mb,
        # Sampled before and after the plan, so it brackets the plan run.
        "host_ref_s": statistics.median(host_ref),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "executor_effective": meta.get("executor_effective"),
            "scheduler": meta.get("scheduler"),
        },
        "fuse_gate": sorted(
            [topo, p, ceiling]
            for (topo, p), ceiling in fuse_gate_stats().items()
        ),
    }
    if rec is not None:
        out["layers"] = layer_report(rec, plan_s, before, after, meta)
        out["layer_spans"] = {
            layer: rec.layer_calls(layer)
            for layer in ("algorithms", "folding", "routing", "sim", "metrics", "store")
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
