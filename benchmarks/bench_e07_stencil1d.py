"""E07 — Theorem 4.11: (n,1)-stencil / diamond DAG evaluation.

Regenerates ``H_1-stencil(n, p, sigma) = O(n * 4^{sqrt(log n)})`` (note:
independent of p!) and the Omega(1/4^{sqrt(log n)})-optimality ratio
against Lemma 4.10's Omega(n) bound — the ratio is *allowed* to grow like
4^{sqrt(log n)}, which is the paper's own gap.
"""

import numpy as np

from _util import emit_table, geometric
from repro.algorithms import stencil1d
from repro.core import TraceMetrics
from repro.core.lower_bounds import stencil_lower_bound
from repro.core.theory import h_stencil1_closed, stencil_k


def run_sweep(ns=(32, 64, 128, 256)):
    rng = np.random.default_rng(7)
    rows = []
    for n in ns:
        res = stencil1d.run(rng.random(n))
        tm = TraceMetrics(res.trace)
        for p in geometric(4, n, 4):
            h = tm.H(p, 0.0)
            rows.append(
                [
                    n,
                    stencil_k(n),
                    p,
                    int(h),
                    round(h_stencil1_closed(n, p), 1),
                    round(h / h_stencil1_closed(n, p), 2),
                    round(h / stencil_lower_bound(n, 1, p), 2),
                ]
            )
    return rows


def test_e07_stencil1d_scaling(benchmark, quick):
    ns = (32, 64) if quick else (32, 64, 128, 256)
    rows = benchmark.pedantic(run_sweep, args=(ns,), rounds=1, iterations=1)
    emit_table(
        "e07_stencil1d",
        "E07  Theorem 4.11: H_1-stencil vs n*4^{sqrt(log n)} (p-independent)",
        ["n", "k", "p", "H", "closed", "H/closed", "H/Omega(n)"],
        rows,
    )
    # Envelope: H stays within a small factor of the closed form (the
    # residual drift at tiny p reflects constants the Theta() hides).
    assert max(r[5] for r in rows) < 16.0
    # At full parallelism the envelope is tight.
    full = [r[5] for r in rows if r[2] == r[0]]
    assert max(full) <= 2.0
    # The gap to the Omega(n) lower bound grows sub-polynomially
    # (4^{sqrt(log n)}): check it is well below sqrt(n).
    for r in rows:
        n = r[0]
        assert r[6] <= 12 * (4 ** np.sqrt(np.log2(n)))
