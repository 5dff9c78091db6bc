"""The plan benchmark's workloads and the frame digest that checks them.

Each workload is a list of *blocks*: keyword arguments for one
``ExperimentPlan.grid`` call over a single (algorithm, n) source.  A
plan is the concatenation of its blocks' cells.  ``--seed`` becomes
every cell's ``seed``, the seed of the algorithms' input data.  The
paper's algorithms are network-oblivious and static: which processor
sends to which depends on n alone, never on the data.  So every seed
must give the same rows, and one reference digest per workload checks
them all.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from numbers import Integral, Real

TOPOLOGIES = ["butterfly", "fat-tree", "hypercube", "mesh2d", "ring", "torus2d"]
POLICIES = ["dimension-order", "valiant"]
PRESETS = ["fat-tree", "flat-bsp", "hypercube", "mesh1d", "mesh2d", "mesh3d"]


def _portability_analytic() -> list[dict]:
    blocks = []
    for alg, n in [
        ("fft", 4096),
        ("sort", 1024),
        ("matmul", 4096),
        ("matmul-space", 1024),
        ("stencil1d", 128),
    ]:
        blocks.append(
            dict(
                algorithms=[alg], ns=[n], ps=[4, 16, 64],
                topologies=TOPOLOGIES, policies=POLICIES,
            )
        )
    return blocks


def _sim_validate() -> list[dict]:
    blocks = []
    for alg, n in [("fft", 256), ("broadcast", 4096), ("prefix", 1024), ("matmul", 1024)]:
        for arbiter, flits in [("fifo", 1), ("farthest-to-go", 2)]:
            blocks.append(
                dict(
                    algorithms=[alg], ns=[n], ps=[16],
                    topologies=TOPOLOGIES, policies=POLICIES, modes=["sim"],
                    arbiter=arbiter, flits_per_message=flits,
                )
            )
    return blocks


#: evaluate-resweep sources: (algorithm, smaller size, larger size).  The
#: store is primed with the smaller size; the timed plan adds the larger.
_RESWEEP_SOURCES = [
    ("fft", 4096, 16384),
    ("sort", 256, 1024),
    ("matmul", 1024, 4096),
    ("matmul-space", 1024, 4096),
    ("stencil1d", 64, 128),
    ("stencil2d", 8, 16),
]


def _resweep_block(alg: str, n: int) -> dict:
    return dict(
        algorithms=[alg], ns=[n], ps=[1, 2, 4, 8, 16, 32, 64],
        sigmas=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], machines=PRESETS,
    )


def _evaluate_resweep() -> list[dict]:
    return [
        _resweep_block(alg, n)
        for alg, small, large in _RESWEEP_SOURCES
        for n in (small, large)
    ]


def _evaluate_resweep_primed() -> list[dict]:
    return [_resweep_block(alg, small) for alg, small, _ in _RESWEEP_SOURCES]


#: name -> blocks of the timed plan.
WORKLOADS = {
    "portability-analytic": _portability_analytic,
    "sim-validate": _sim_validate,
    "evaluate-resweep": _evaluate_resweep,
}

#: name -> blocks written to the result store before any timed run.
PRIMED = {"evaluate-resweep": _evaluate_resweep_primed}

#: Layers each workload must exercise; a traced run that records no
#: span for one of them fails.
EXPECTED_LAYERS = {
    "portability-analytic": ("algorithms", "folding", "routing"),
    "sim-validate": ("algorithms", "routing", "sim"),
    "evaluate-resweep": ("algorithms", "folding", "metrics", "store"),
}


def build_plan(plan_cls, workload: str, seed: int, *, primed: bool = False):
    """The workload's ``ExperimentPlan`` on input data seeded by ``seed``."""
    cells = []
    for block in (PRIMED if primed else WORKLOADS)[workload]():
        cells.extend(plan_cls.grid(**block, seed=seed).cells)
    return plan_cls(cells, name=workload)


def _canon(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        return float(value).hex()
    raise TypeError(f"unexpected frame value {value!r}")


def frame_digest(cells, rows) -> str:
    """sha256 over the sorted (cell, row) pairs, floats exact.

    The cell's input-data ``seed`` is left out (see the module doc).
    Independent of cell order, and of whether a number came back from
    the result store's JSON or straight from the computation.
    """
    if len(cells) != len(rows):
        raise ValueError(f"{len(rows)} rows for {len(cells)} cells")
    lines = sorted(
        json.dumps(
            [{k: v for k, v in cell.as_dict().items() if k != "seed"},
             [_canon(v) for v in row]],
            sort_keys=True,
        )
        for cell, row in zip(cells, rows)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
