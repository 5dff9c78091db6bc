"""Tests for the network substrate: topologies, policies, routing, D-BSP fitting.

The columnar routing engine's contract mirrors the folding kernels':
every topology's fused ``route_loads_multi`` kernel is property-tested
**bit-identical** to its retained per-message
``route_loads_multi_reference`` oracle on random segmented endpoint
batches, and the routing invariants (load conservation, dilation =
longest path, free self-messages, barrier-only empty supersteps) hold
for every topology including the new ``torus2d``/``butterfly``.
"""

import numpy as np
import pytest

from repro.machine.trace import Trace
from repro.networks import (
    TOPOLOGIES,
    Butterfly,
    DimensionOrderPolicy,
    FatTree,
    Hypercube,
    Mesh2D,
    Ring,
    Torus2D,
    ValiantPolicy,
    by_name,
    by_policy,
    clear_route_cache,
    compare_with_dbsp,
    fit,
    route_trace,
    routed_time,
    superstep_time,
)
from repro.util.intmath import ilog2

from conftest import random_trace

ALL = list(TOPOLOGIES)


def random_endpoints(p, rng, n=None):
    n = int(rng.integers(1, 200)) if n is None else n
    return rng.integers(0, p, size=n), rng.integers(0, p, size=n)


class TestTopologies:
    @pytest.mark.parametrize("name", ALL)
    def test_construct(self, name):
        topo = by_name(name, 16)
        assert topo.p == 16

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            by_name("torus9", 16)

    @pytest.mark.parametrize("name", ALL)
    def test_empty_routing(self, name):
        topo = by_name(name, 16)
        cost = superstep_time(topo, np.empty(0, np.int64), np.empty(0, np.int64))
        assert cost.congestion == 0.0

    @pytest.mark.parametrize("name", ALL)
    def test_self_messages_free(self, name):
        topo = by_name(name, 16)
        idx = np.arange(16, dtype=np.int64)
        cost = superstep_time(topo, idx, idx)
        assert cost.congestion == 0.0
        assert cost.time == 1.0  # barrier only

    def test_ring_dilation(self):
        topo = Ring(16)
        cost = superstep_time(topo, np.array([0]), np.array([8]))
        assert cost.dilation == 8
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 1  # wraps the short way

    def test_hypercube_dilation_is_hamming(self):
        topo = Hypercube(16)
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 4

    def test_mesh_dilation_is_manhattan(self):
        topo = Mesh2D(16)
        # Morton 0 = (0,0), Morton 15 = (3,3).
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 6

    def test_torus_wraps_both_axes(self):
        topo = Torus2D(16)
        # Morton 0 = (0,0), Morton 15 = (3,3): one wrap hop per axis.
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 2

    def test_torus_never_longer_than_mesh(self, rng):
        src, dst = random_endpoints(64, rng, n=300)
        torus, mesh = Torus2D(64), Mesh2D(64)
        assert (torus.pair_distance(src, dst) <= mesh.pair_distance(src, dst)).all()

    def test_fat_tree_dilation_height(self):
        topo = FatTree(16)
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 8  # up 4 + down 4

    def test_butterfly_dilation_is_msb(self):
        topo = Butterfly(16)
        cost = superstep_time(topo, np.array([0]), np.array([15]))
        assert cost.dilation == 4  # highest differing bit index + 1
        cost = superstep_time(topo, np.array([0]), np.array([1]))
        assert cost.dilation == 1

    @pytest.mark.parametrize("name", ALL)
    def test_congestion_counts_bottleneck(self, name):
        topo = by_name(name, 8)
        # All-to-one: the edge into node 0 is a bottleneck everywhere.
        src = np.arange(1, 8, dtype=np.int64)
        dst = np.zeros(7, dtype=np.int64)
        cost = superstep_time(topo, src, dst)
        assert cost.congestion >= 2.0

    @pytest.mark.parametrize("name", ALL)
    def test_edge_capacities_cached_and_frozen(self, name):
        topo = by_name(name, 32)
        caps = topo.edge_capacities()
        assert topo.edge_capacities() is caps
        assert not caps.flags.writeable
        assert caps.shape == (topo.num_edges(),)
        assert (caps >= 1.0).all()

    def test_fat_tree_capacities_match_heap_depths(self):
        topo = FatTree(16)
        caps = topo.edge_capacities()
        # Edge above node 1 (depth 1, roots 8 leaves): capacity sqrt(8).
        assert caps[0] == pytest.approx(8**0.5)
        # Leaf edges (depth log p, one leaf below): capacity 1.
        assert (caps[-16:] == 1.0).all()


class TestVectorizedRouters:
    """The fused kernels against the per-message reference oracles."""

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("p", [8, 64])
    def test_bit_identical_on_random_batches(self, name, p, rng):
        topo = by_name(name, p)
        for _ in range(8):
            src, dst = random_endpoints(p, rng)
            segs = int(rng.integers(1, 6))
            seg = np.sort(rng.integers(0, segs, size=src.size))
            grid = topo.route_loads_multi(src, dst, seg, segs)
            ref_grid, ref_dil = topo.route_loads_multi_reference(src, dst, seg, segs)
            assert grid.shape == (segs, topo.num_edges())
            assert np.array_equal(grid, ref_grid)
            dil = np.zeros(segs, dtype=np.int64)
            np.maximum.at(dil, seg, topo.pair_distance(src, dst))
            assert np.array_equal(dil, ref_dil)

    @pytest.mark.parametrize("name", ALL)
    def test_route_loads_is_one_segment(self, name, rng):
        topo = by_name(name, 32)
        for _ in range(5):
            src, dst = random_endpoints(32, rng)
            loads, dil = topo.route_loads(src, dst)
            zeros = np.zeros(src.size, dtype=np.int64)
            ref_loads, ref_dil = topo.route_loads_multi_reference(src, dst, zeros, 1)
            assert np.array_equal(loads, ref_loads[0])
            assert dil == ref_dil[0]

    @pytest.mark.parametrize("name", ALL)
    def test_load_conservation(self, name, rng):
        """Total load equals the sum of routed path lengths."""
        topo = by_name(name, 32)
        for _ in range(5):
            src, dst = random_endpoints(32, rng)
            loads, dil = topo.route_loads(src, dst)
            dist = topo.pair_distance(src, dst)
            assert loads.sum() == dist.sum()
            assert dil == int(dist.max(initial=0))

    @pytest.mark.parametrize("name", ALL)
    def test_adversarial_batches(self, name):
        """Degenerate patterns: all-self, single pair, antipodal blast."""
        p = 16
        topo = by_name(name, p)
        idx = np.arange(p, dtype=np.int64)
        for src, dst in [
            (idx, idx),
            (np.array([3]), np.array([12])),
            (idx, idx[::-1].copy()),
            (idx, (idx + p // 2) % p),
        ]:
            loads, dil = topo.route_loads(src, dst)
            zeros = np.zeros(src.size, dtype=np.int64)
            ref_loads, ref_dil = topo.route_loads_multi_reference(src, dst, zeros, 1)
            assert np.array_equal(loads, ref_loads[0])
            assert dil == ref_dil[0]


class TestDBSPFit:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("p", [8, 64])
    def test_fitted_machine_admissible(self, name, p):
        fit(by_name(name, p)).validate()

    def test_ring_g_linear(self):
        m = fit(Ring(64))
        assert m.g[0] / m.g[3] == pytest.approx(8.0)

    def test_hypercube_g_constant(self):
        m = fit(Hypercube(64))
        assert max(m.g) == pytest.approx(min(m.g))

    def test_mesh_g_sqrt(self):
        m = fit(Mesh2D(256))
        assert m.g[0] / m.g[2] == pytest.approx(2.0)

    @pytest.mark.parametrize("name", ALL)
    def test_cluster_geometry_consistent(self, name):
        """Diameters shrink and bisections stay positive level by level."""
        topo = by_name(name, 64)
        logp = ilog2(topo.p)
        diams = [topo.diameter_of_cluster(i) for i in range(logp)]
        bisecs = [topo.bisection_of_cluster(i) for i in range(logp)]
        assert all(d >= 1 for d in diams)
        assert all(a >= b for a, b in zip(diams, diams[1:]))
        assert all(b > 0 for b in bisecs)

    def test_torus_diameter_half_of_mesh(self):
        # Full torus: wraparound halves each axis' worst case.
        assert Torus2D(64).diameter_of_cluster(0) == 8
        assert Mesh2D(64).diameter_of_cluster(0) == 14


class TestPolicies:
    def test_by_policy_registry(self):
        assert by_policy("dimension-order").name == "dimension-order"
        assert by_policy("valiant", 7).cache_key() == ("valiant", 7)
        with pytest.raises(KeyError):
            by_policy("hot-potato")

    def test_valiant_reproducible(self, rng):
        topo = Hypercube(16)
        src = rng.integers(0, 16, size=50)
        a = ValiantPolicy(seed=5).intermediates(topo, 3, 1, src)
        b = ValiantPolicy(seed=5).intermediates(topo, 3, 1, src)
        c = ValiantPolicy(seed=6).intermediates(topo, 3, 1, src)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_valiant_respects_clusters(self, rng):
        """Intermediates stay in the source's i-cluster, so legs stay legal."""
        p, label = 64, 2
        topo = Hypercube(p)
        shift = ilog2(p) - label
        src = rng.integers(0, p, size=200)
        mid = ValiantPolicy(seed=0).intermediates(topo, 0, label, src)
        assert np.array_equal(src >> shift, mid >> shift)

    def test_valiant_two_phases_cover_endpoints(self, rng):
        topo = Ring(16)
        src = rng.integers(0, 16, size=40)
        dst = rng.integers(0, 16, size=40)
        phases = list(ValiantPolicy(0).phases(topo, 0, 0, src, dst))
        assert len(phases) == 2
        (s1, d1), (s2, d2) = phases
        assert np.array_equal(s1, src)
        assert np.array_equal(d1, s2)
        assert np.array_equal(d2, dst)

    def test_dimension_order_single_phase(self, rng):
        topo = Ring(16)
        src, dst = random_endpoints(16, rng)
        phases = list(DimensionOrderPolicy().phases(topo, 0, 0, src, dst))
        assert len(phases) == 1


class TestRouteTrace:
    @pytest.mark.parametrize("name", ALL)
    def test_profile_matches_per_superstep_costs(self, name, rng):
        """The columnar pass equals superstep-by-superstep routing."""
        from repro.machine.folding import fold_trace

        t = random_trace(64, 8, rng, max_messages=64)
        topo = by_name(name, 16)
        profile = route_trace(t, topo)
        folded = fold_trace(t, 16, keep_empty=True)
        assert profile.num_supersteps == folded.num_supersteps
        for s, rec in enumerate(folded.records):
            cost = superstep_time(topo, rec.src, rec.dst)
            assert profile.congestion[s] == cost.congestion
            assert profile.dilation[s] == cost.dilation
            assert profile.time[s] == cost.time
        assert profile.total_time == pytest.approx(
            sum(superstep_time(topo, r.src, r.dst).time for r in folded.records)
        )

    def test_empty_supersteps_cost_one_barrier(self):
        t = Trace(16)
        t.append(0, np.empty(0, np.int64), np.empty(0, np.int64))
        t.append(0, np.array([0]), np.array([8]))
        t.append(1, np.empty(0, np.int64), np.empty(0, np.int64))
        profile = route_trace(t, Ring(16))
        assert profile.num_supersteps == 3
        assert profile.time[0] == 1.0
        assert profile.time[2] == 1.0
        assert profile.time[1] > 1.0

    def test_profile_memoised(self, rng):
        t = random_trace(32, 5, rng)
        topo = Ring(8)
        assert route_trace(t, topo) is route_trace(t, topo)
        # Different policy, different entry.
        v = route_trace(t, topo, ValiantPolicy(1))
        assert v is not route_trace(t, topo)
        assert v is route_trace(t, topo, ValiantPolicy(1))
        # Mutating the trace invalidates.
        before = route_trace(t, topo)
        t.append(0, np.array([0]), np.array([1]))
        assert route_trace(t, topo) is not before

    def test_profile_arrays_read_only(self, rng):
        t = random_trace(32, 5, rng)
        profile = route_trace(t, Hypercube(8))
        with pytest.raises(ValueError):
            profile.time[0] = 99.0

    def test_valiant_costs_more_but_bounded(self, rng):
        t = random_trace(64, 10, rng, max_messages=128)
        for name in ALL:
            topo = by_name(name, 16)
            direct = route_trace(t, topo).total_time
            valiant = route_trace(t, topo, ValiantPolicy(0)).total_time
            assert direct <= valiant <= 10 * direct


class TestSimulation:
    @pytest.mark.parametrize("name", ALL)
    def test_dbsp_predicts_routed_time(self, name, rng):
        """E11: routed-vs-predicted ratio within a modest constant."""
        t = random_trace(64, 10, rng, max_messages=128)
        topo = by_name(name, 16)
        cmp = compare_with_dbsp(t, topo)
        assert 0.05 <= cmp.ratio <= 20.0

    def test_routed_time_additive_over_supersteps(self, rng):
        topo = Ring(8)
        t1 = random_trace(8, 1, rng)
        t2 = Trace(8)
        t2.records.extend(t1.records)
        t2.records.extend(t1.records)
        assert routed_time(t2, topo) == pytest.approx(2 * routed_time(t1, topo))

    def test_hypercube_beats_ring_on_global_pattern(self, rng):
        t = Trace(16)
        src = np.arange(16, dtype=np.int64)
        t.append(0, src, (src + 8) % 16)
        assert routed_time(t, Hypercube(16)) < routed_time(t, Ring(16))

    def test_torus_beats_mesh_on_wrap_pattern(self):
        t = Trace(16)
        src = np.arange(16, dtype=np.int64)
        t.append(0, src, (src + 8) % 16)
        assert routed_time(t, Torus2D(16)) <= routed_time(t, Mesh2D(16))

    def test_comparison_carries_policy(self, rng):
        t = random_trace(32, 4, rng)
        cmp = compare_with_dbsp(t, Ring(8), ValiantPolicy(2))
        assert cmp.policy == "valiant"


class TestNetworkGrid:
    def test_grid_shape_and_values(self, rng):
        from repro.api import ExperimentPlan

        t = random_trace(64, 6, rng, max_messages=32)
        frame = ExperimentPlan.from_trace(
            t,
            ps=[8, 16],
            topologies=("ring", "torus2d"),
            policies=("dimension-order", "valiant"),
        ).run()
        assert frame.column("p") == [8] * 4 + [16] * 4
        pairs = list(zip(frame.column("topology"), frame.column("policy")))
        assert pairs[:4] == [
            ("ring", "dimension-order"),
            ("ring", "valiant"),
            ("torus2d", "dimension-order"),
            ("torus2d", "valiant"),
        ]
        assert all(np.isfinite(x) and x > 0 for x in frame.column("routed_time"))

    def test_relative_mode_is_e11_band(self, rng):
        from repro.api import ExperimentPlan

        t = random_trace(64, 10, rng, max_messages=64)
        frame = ExperimentPlan.from_trace(
            t,
            ps=[16],
            topologies=("ring", "mesh2d", "torus2d", "hypercube", "fat-tree",
                        "butterfly"),
            relative_to_dbsp=True,
        ).run()
        table = frame.pivot("p", "topology", "routed_over_dbsp")
        assert all(0.05 <= x <= 20.0 for x in table.rows[0])
