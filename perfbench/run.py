"""Plan benchmark driver: fresh-interpreter ``ExperimentPlan.run`` iterations.

Usage, from the repository root::

    python3 perfbench/run.py --workload portability-analytic --seed 1 \\
        --seconds 36 --trace 0

Launches ``child.py`` one iteration at a time until ``--seconds`` of
iterations have run, checks every frame against ``reference.json``, and
prints one JSON result as the last line of stdout.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics.  The full
per-iteration record (environment, fuse-gate tables, layer numbers) is
written to ``.perfbench_work/<workload>-trace<0|1>.json``.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Whole-invocation ceiling; no iteration starts that could overrun it.
BUDGET_S = 170.0

#: Nominal time of one ``child.host_reference_samples`` sample; end-to-end
#: times are rescaled to a host where it takes this long (see end_to_end).
HOST_REF_NOMINAL_S = 0.02

#: Per-layer numbers that are deterministic and must repeat exactly
#: across iterations.  ``routing.fused_calls`` is missing on purpose:
#: the fuse gate is a wall-clock measurement.
EXACT = (
    "algorithms.emit_calls", "algorithms.messages", "folding.calls",
    "folding.hit_ratio", "routing.calls", "routing.hit_ratio", "sim.calls",
    "sim.batch_calls", "sim.hit_ratio", "sim.cycles", "metrics.calls",
    "store.hits", "store.misses", "exec.dag_stages_planned",
    "exec.dag_stages_unique",
)


def child_env() -> dict:
    """The caller's environment minus ``REPRO_*``, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Driver:
    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float,
                 digest: str):
        self.workload = workload
        self.digest = digest
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.primed_store: Path | None = None

    def launch(self, *extra: str) -> tuple[dict | None, str]:
        """Run ``child.py`` once; (parsed result or None, error text)."""
        timeout = self.deadline - time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), ""
        except (json.JSONDecodeError, IndexError):
            return None, f"unreadable output: {proc.stdout[-500:]!r}"

    def prime(self) -> None:
        if self.workload not in workloads.PRIMED:
            return
        self.primed_store = self.workdir / "primed.db"
        out, err = self.launch("--prime", "--store", str(self.primed_store))
        if out is None:
            raise RuntimeError(f"priming the result store failed: {err}")

    def iteration(self, traced: bool, index: int) -> dict:
        """One plan run; the child's record plus ``ok``/``error``."""
        extra = ["--trace"] if traced else []
        store = self.workdir / f"iter{index}.db"
        if self.primed_store is not None:
            shutil.copyfile(self.primed_store, store)
            extra += ["--store", str(store)]
        out, err = self.launch(*extra)
        store.unlink(missing_ok=True)
        if out is None:
            return {"ok": False, "traced": traced, "error": err}
        out["traced"] = traced
        out["ok"], out["error"] = True, ""
        if out["digest"] != self.digest:
            out["ok"], out["error"] = False, "frame digest differs from reference.json"
        elif out["env"]["executor_effective"] != "serial":
            out["ok"], out["error"] = False, (
                f"executor_effective is {out['env']['executor_effective']!r}, not 'serial'"
            )
        return out


def completed(runs: list[dict]) -> list[dict]:
    """Iterations that returned timings, whether or not their frame passed."""
    return [r for r in runs if "plan_s" in r]


def end_to_end(runs: list[dict]) -> dict:
    """End-to-end metrics, each time rescaled to the nominal host speed.

    A shared 2-vCPU VM was seen to change speed by up to 1.75x over
    minutes, and every timing in a child moves with it, so raw seconds
    from two sets of runs minutes apart disagree.  Each iteration's
    times are multiplied by ``HOST_REF_NOMINAL_S / host_ref_s`` of the
    same child: they read as seconds on a host where the reference
    kernel takes the nominal time.
    """
    done = completed(runs)
    plan = [r["plan_s"] * HOST_REF_NOMINAL_S / r["host_ref_s"] for r in done]
    setup = [r["setup_s"] * HOST_REF_NOMINAL_S / r["host_ref_s"] for r in done]
    return {
        "plan_s_p50": (statistics.median(plan), "s"),
        "cells_per_s": (sum(r["cells"] for r in done) / sum(plan), "cells/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
        "frames_ok": (sum(r["ok"] for r in runs) / len(runs), "ratio"),
    }


def per_layer(workload: str, runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced iterations, plus check failures."""
    traced = [r for r in completed(runs) if r["traced"]]
    plain = [r for r in completed(runs) if not r["traced"]]
    problems = []
    for r in traced:
        for layer in workloads.EXPECTED_LAYERS[workload]:
            if not r["layer_spans"][layer]:
                problems.append(f"layer {layer!r} recorded no span")
    names = list(traced[0]["layers"])
    for name in EXACT:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            problems.append(f"{name} did not repeat: {sorted(values)}")
    units = {"_s": "s", "_ratio": "ratio", "_per_cycle": "ns"}
    metrics = {}
    for name in names:
        if name in EXACT:
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    if plain:
        # Host-normalised like end_to_end(), so a speed swing between
        # the two halves of the run is not read as tracing overhead.
        overhead = statistics.median(
            r["plan_s"] / r["host_ref_s"] for r in traced
        ) / statistics.median(r["plan_s"] / r["host_ref_s"] for r in plain)
    else:
        overhead = 0.0
        problems.append("no untraced iteration completed")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["host.ref_s"] = (statistics.median(r["host_ref_s"] for r in completed(runs)), "s")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2

    reference = json.loads((HERE / "reference.json").read_text())
    start = time.monotonic()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    driver = Driver(args.workload, args.seed, workdir, start + BUDGET_S,
                    reference[args.workload]["digest"])
    runs: list[dict] = []
    try:
        driver.prime()
        t0 = time.monotonic()
        walls: list[float] = []
        while True:
            # One untraced iteration, then (traced runs) one traced one.
            modes = [False, True] if args.trace else [False]
            step = statistics.median(walls) if walls else 0.0
            now = time.monotonic()
            if runs and (now - t0 + step > args.seconds or now + 2 * step > driver.deadline):
                break
            began = time.monotonic()
            for traced in modes:
                runs.append(driver.iteration(traced, len(runs)))
            walls.append(time.monotonic() - began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in runs if not r["ok"]]
    for r in failed:
        print(f"iteration failed: {r['error']}", file=sys.stderr)
    done = completed(runs)
    if not done or (args.trace and not any(r["traced"] for r in done)):
        print("error: no iteration completed", file=sys.stderr)
        return 1
    problems: list[str] = []
    if args.trace:
        metrics, problems = per_layer(args.workload, runs)
    else:
        metrics = end_to_end(runs)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(runs),
        "env": done[0]["env"],
        "raw_plan_s_p50": statistics.median(r["plan_s"] for r in done),
        "raw_setup_s": statistics.median(r["setup_s"] for r in done),
        "host.ref_s": statistics.median(r["host_ref_s"] for r in done),
    }
    print(json.dumps(info))
    (work_root / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**info, "runs": runs}, indent=1)
    )
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
