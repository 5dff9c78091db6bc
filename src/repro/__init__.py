"""repro — Network-Oblivious Algorithms (Bilardi et al., IPDPS'07 / JACM'16).

A complete Python reproduction of the network-oblivious algorithms
framework: the M(v) specification machine, the M(p, sigma) evaluation
model, the D-BSP(p, g, ell) execution model, the optimality theorem
(Theorem 3.4) and ascend–descend protocol (Section 5), plus
network-oblivious algorithms for matrix multiplication, FFT, sorting,
stencil computations and broadcast, parameter-aware baselines, DAG and
network substrates, and the full experiment harness.

Quickstart
----------
>>> from repro.algorithms import matmul
>>> from repro import TraceMetrics
>>> import numpy as np
>>> result = matmul.run(np.eye(4), np.eye(4))
>>> bool(np.allclose(result.product, np.eye(4)))
True
>>> TraceMetrics(result.trace).H(p=4, sigma=1.0) > 0
True
"""

from repro import core, machine, models
from repro.core import TraceMetrics
from repro.machine import Machine, Trace
from repro.machine.folding import fold_trace
from repro.models import DBSP, EvaluationModel

# The subpackages below import the ones above; order matters.
from repro import algorithms, api, baselines, networks, sim
from repro import exec as exec_backends
from repro import analysis
from repro.api import ExperimentPlan, Pipeline, ResultFrame
from repro.api import run as run_pipeline
from repro.exec import ExecutorBackend, ResultStore
from repro.networks import route_trace
from repro.sim import SimProfile, simulate_trace, validate_bound
from repro.util.caches import cache_stats, clear_caches

__version__ = "2.0.0"

__all__ = [
    "machine",
    "models",
    "core",
    "algorithms",
    "baselines",
    "networks",
    "sim",
    "analysis",
    "api",
    "Machine",
    "Trace",
    "TraceMetrics",
    "DBSP",
    "EvaluationModel",
    "fold_trace",
    "route_trace",
    "simulate_trace",
    "validate_bound",
    "SimProfile",
    "Pipeline",
    "ExperimentPlan",
    "ResultFrame",
    "run_pipeline",
    "exec_backends",
    "ExecutorBackend",
    "ResultStore",
    "cache_stats",
    "clear_caches",
    "__version__",
]
