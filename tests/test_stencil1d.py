"""Tests for the (n,1)-stencil / diamond DAG evaluation (Section 4.4.1)."""

import numpy as np
import pytest

from repro.algorithms import stencil1d
from repro.core import TraceMetrics, measured_alpha
from repro.core.lower_bounds import stencil_lower_bound
from repro.core.theory import h_stencil1_closed, stencil_k
from repro.dag.stencil_dag import evaluate_stencil_1d


class TestSquareCorrectness:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_matches_sequential_sweep(self, rng, n):
        x0 = rng.random(n)
        res = stencil1d.run(x0)
        ref = evaluate_stencil_1d(x0, n)
        assert np.allclose(res.grid, ref)

    def test_custom_rule(self, rng):
        n = 16
        x0 = rng.random(n)
        rule = lambda l, c, r: np.maximum(np.maximum(l, c), r)
        res = stencil1d.run(x0, rule=rule)
        ref = evaluate_stencil_1d(x0, n, rule=rule)
        assert np.allclose(res.grid, ref)

    def test_custom_fill(self, rng):
        n = 16
        x0 = rng.random(n)
        res = stencil1d.run(x0, fill=1.0)
        ref = evaluate_stencil_1d(x0, n, fill=1.0)
        assert np.allclose(res.grid, ref)

    def test_final_row_exposed(self, rng):
        res = stencil1d.run(rng.random(16))
        assert np.allclose(res.final, res.grid[-1])

    def test_trace_legal(self, rng):
        stencil1d.run(rng.random(32)).trace.validate()

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            stencil1d.run(np.zeros(2))


class TestDiamondCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matches_sequential_diamond(self, n):
        res = stencil1d.evaluate_diamond(n, seed=1.0)
        res.trace.validate()
        nx = 2 * n - 1
        g = np.full((nx, nx), np.nan)
        g[0, n - 1] = 1.0
        for t in range(1, nx):
            half = min(t, 2 * (n - 1) - t)
            lo, hi = (n - 1) - half, (n - 1) + half
            ph = min(t - 1, 2 * (n - 1) - (t - 1))
            plo, phi = (n - 1) - ph, (n - 1) + ph
            prev = g[t - 1]

            def pv(px):
                out = np.zeros(px.shape)
                ok = (px >= plo) & (px <= phi)
                out[ok] = prev[px[ok]]
                return out

            x = np.arange(lo, hi + 1)
            g[t, lo : hi + 1] = (pv(x - 1) + pv(x) + pv(x + 1)) / 3.0
        mask = ~np.isnan(g)
        assert np.allclose(res.grid[mask], g[mask])

    def test_custom_k(self):
        r1 = stencil1d.evaluate_diamond(16, k=2)
        r2 = stencil1d.evaluate_diamond(16, k=4)
        # different recursion fan-outs, same values
        m = ~np.isnan(r1.grid)
        assert np.allclose(r1.grid[m], r2.grid[m])

    def test_phases_per_level(self):
        res = stencil1d.evaluate_diamond(16)
        assert res.phases_per_level == 2 * res.k - 1


class TestStructure:
    def test_five_stages(self, rng):
        assert stencil1d.run(rng.random(16)).stages == 5

    def test_k_default(self):
        assert stencil_k(256) == 2 ** int(np.ceil(np.sqrt(8)))

    def test_static_structure(self, rng):
        t1 = stencil1d.run(rng.random(16)).trace
        t2 = stencil1d.run(np.zeros(16)).trace
        assert [r.label for r in t1.records] == [r.label for r in t2.records]


class TestCommunication:
    def test_H_within_theorem_4_11_envelope(self, rng):
        """H(n, n, 0) / (n 4^{sqrt log n}) stays bounded as n grows."""
        ratios = []
        for n in (16, 32, 64, 128):
            res = stencil1d.run(rng.random(n))
            tm = TraceMetrics(res.trace)
            ratios.append(tm.H(n, 0.0) / h_stencil1_closed(n, n))
        assert max(ratios) <= 2.0
        # and coarse folds stay within a constant of the envelope too
        n = 128
        tm = TraceMetrics(stencil1d.run(rng.random(n)).trace)
        for p in (4, 16, 64):
            assert tm.H(p, 0.0) <= 8 * h_stencil1_closed(n, n)

    def test_above_lemma_4_10(self, rng):
        n = 64
        res = stencil1d.run(rng.random(n))
        tm = TraceMetrics(res.trace)
        # The lower bound Omega(n) must of course be respected from below:
        # measured H at p=n exceeds the LB (sanity of the experiment's axes).
        assert tm.H(n, 0.0) >= stencil_lower_bound(n, 1, n) / 4

    def test_wiseness(self, rng):
        res = stencil1d.run(rng.random(64))
        assert measured_alpha(TraceMetrics(res.trace), 64) >= 0.2


# ----------------------------------------------------------------------
# The fan-out k: only powers of two >= 2 are accepted, for both stencils
# ----------------------------------------------------------------------
class _Deadline:
    """Raise ``TimeoutError`` if the block runs longer than ``seconds``
    (k = 1 used to recurse forever, so these cases must not hang)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        import signal

        def expire(signum, frame):
            raise TimeoutError(f"still running after {self.seconds}s")

        self._previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


BAD_K = [0, 1, 3, -2]


class TestStencilFanoutValidation:
    @pytest.mark.parametrize("algorithm", ["stencil1d", "stencil2d"])
    @pytest.mark.parametrize("k", BAD_K)
    def test_plan_validate_rejects_bad_k(self, algorithm, k):
        from repro.api import ExperimentPlan

        plan = ExperimentPlan.grid([algorithm], ns=[8], ps=[4], params={"k": k})
        with _Deadline(10), pytest.raises(ValueError, match="power of two >= 2"):
            plan.validate()

    @pytest.mark.parametrize("k", BAD_K + [True, 2.0])
    def test_entry_points_reject_bad_k(self, k):
        from repro.algorithms import stencil2d

        with _Deadline(10):
            with pytest.raises(ValueError, match="power of two >= 2"):
                stencil1d.run(np.ones(8), k=k)
            with pytest.raises(ValueError, match="power of two >= 2"):
                stencil1d.evaluate_diamond(8, k=k)
            with pytest.raises(ValueError, match="power of two >= 2"):
                stencil2d.generate(8, k=k)

    @pytest.mark.parametrize("algorithm", ["stencil1d", "stencil2d"])
    @pytest.mark.parametrize("k", [None, 2, 4])
    def test_valid_k_runs_correct(self, algorithm, k):
        from repro.api import ExperimentPlan

        params = {} if k is None else {"k": k}
        plan = ExperimentPlan.grid([algorithm], ns=[8], ps=[4], params=params)
        plan.validate()
        frame = plan.run(executor="serial", check=True)
        assert frame.column("correct") == [True]
