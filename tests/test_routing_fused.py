"""Property tests: ``route_trace``'s one routing path against a per-superstep
oracle, on every topology, under every policy.

The oracle is assembled here from the public pieces the router must agree
with: ``policy.phases`` applied superstep by superstep, each phase priced
by the topology's per-message ``route_loads_multi_reference`` walk.
"""

import numpy as np
import pytest

from repro.machine.folding import fold_trace
from repro.networks import by_name, by_policy, clear_route_cache, route_trace
from repro.networks.policy import RoutingPolicy
from repro.networks.routing import _CHUNK_CELLS
from repro.networks.topology import TOPOLOGIES, Topology

from conftest import random_trace

TOPOLOGY_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")


def oracle_profile(trace, topo, policy):
    """Per-superstep (congestion, dilation, time) from the reference walks."""
    cols = fold_trace(trace, topo.p, keep_empty=True).columns()
    caps = topo.edge_capacities()
    S = cols.num_supersteps
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    for s in range(S):
        lo, hi = int(cols.offsets[s]), int(cols.offsets[s + 1])
        src, dst = cols.src[lo:hi], cols.dst[lo:hi]
        for ph_src, ph_dst in policy.phases(topo, s, int(cols.labels[s]), src, dst):
            cross = ph_src != ph_dst
            if not cross.any():
                continue
            seg = np.zeros(int(cross.sum()), dtype=np.int64)
            loads, dil = topo.route_loads_multi_reference(
                ph_src[cross], ph_dst[cross], seg, 1
            )
            congestion[s] += float((loads[0] / caps).max())
            dilation[s] += dil[0]
    return congestion, dilation, congestion + dilation + 1.0


def assert_matches_oracle(trace, topo, policy):
    clear_route_cache()
    profile = route_trace(trace, topo, policy)
    expected = oracle_profile(trace, topo, policy)
    got = (profile.congestion, profile.dilation, profile.time)
    for a, b, what in zip(got, expected, ("congestion", "dilation", "time")):
        assert np.array_equal(a, b), (topo.name, topo.p, policy.name, what)


@pytest.fixture(scope="module")
def traces():
    from repro.api import run

    return {
        "matmul": run("matmul", n=64, seed=0).trace,
        "fft": run("fft", n=256, seed=1).trace,
        "prefix": run("prefix", n=64, seed=2).trace,
        "broadcast": run("broadcast", n=64, seed=3).trace,
    }


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("p", [4, 16, 64])
def test_route_trace_matches_oracle(traces, topo_name, policy_name, p):
    topo = by_name(topo_name, p)
    policy = by_policy(policy_name, seed=5)
    for trace in traces.values():
        assert_matches_oracle(trace, topo, policy)


@pytest.mark.parametrize("topo_name", ["butterfly", "hypercube"])
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_trace_spanning_several_chunks(topo_name, policy_name):
    from repro.api import run

    trace = run("stencil1d", n=64, seed=0).trace
    topo = by_name(topo_name, 64)
    supersteps = fold_trace(trace, 64, keep_empty=True).num_supersteps
    assert supersteps > 2 * (_CHUNK_CELLS // topo.num_edges())
    assert_matches_oracle(trace, topo, by_policy(policy_name, seed=1))


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_empty_supersteps_cost_one_barrier(topo_name, policy_name, rng):
    trace = random_trace(16, 12, rng, max_messages=40)
    empty = np.empty(0, dtype=np.int64)
    trace.append(0, empty, empty)
    trace.append(2, np.arange(16), np.arange(16))  # self-messages only
    for rec in random_trace(16, 3, rng).records:
        trace.append(rec.label, rec.src, rec.dst)
    topo = by_name(topo_name, 16)
    assert_matches_oracle(trace, topo, by_policy(policy_name, seed=3))
    profile = route_trace(trace, topo, by_policy(policy_name, seed=3))
    assert profile.time[12] == profile.time[13] == 1.0


class Star(Topology):
    """Hub-and-spoke: every message crosses its src spoke, then its dst spoke.

    Defines only the fused kernel and path lengths — everything else
    (``route_loads``, whole-trace routing) comes from the base class.
    """

    def __init__(self, p):
        super().__init__(p)
        self.name = "star"

    def num_edges(self):
        return self.p

    def pair_distance(self, src, dst):
        return np.where(src == dst, 0, 2)

    def route_loads_multi(self, src, dst, seg, num_segs):
        move = src != dst
        keys = np.concatenate([(seg * self.p + src)[move], (seg * self.p + dst)[move]])
        loads = np.bincount(keys, minlength=num_segs * self.p)
        return loads.reshape(num_segs, self.p).astype(np.float64)


def test_custom_topology_routes_through_base_methods(traces):
    star = Star(16)
    loads, dil = star.route_loads(np.array([0, 3, 5]), np.array([1, 3, 1]))
    assert dil == 2
    assert loads.tolist() == [1, 2] + [0] * 3 + [1] + [0] * 10

    trace = traces["prefix"]
    profile = route_trace(trace, star)
    cols = fold_trace(trace, 16, keep_empty=True).columns()
    for s in range(cols.num_supersteps):
        lo, hi = int(cols.offsets[s]), int(cols.offsets[s + 1])
        loads, dil = star.route_loads(cols.src[lo:hi], cols.dst[lo:hi])
        assert profile.congestion[s] == loads.max(initial=0.0)
        assert profile.dilation[s] == dil
        assert profile.time[s] == loads.max(initial=0.0) + dil + 1.0


class ReversePolicy(RoutingPolicy):
    """Defines only ``phases``: out to the mirror node, then on to dst —
    and a single phase on even supersteps, to exercise uneven phase counts."""

    name = "reverse"

    def phases(self, topo, step, label, src, dst):
        if step % 2 == 0:
            yield src, dst
            return
        shift = topo.p.bit_length() - 1 - label
        mirror = (src >> shift << shift) | (((1 << shift) - 1) & ~src)
        yield src, mirror
        yield mirror, dst


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
def test_policy_with_only_phases_derives_legs(traces, topo_name):
    policy = ReversePolicy()
    topo = by_name(topo_name, 16)
    for trace in traces.values():
        assert_matches_oracle(trace, topo, policy)


def test_valiant_legs_are_the_default_derivation(traces):
    """``ValiantPolicy`` keeps no ``phase_legs`` of its own."""
    policy = by_policy("valiant", seed=9)
    assert type(policy).phase_legs is RoutingPolicy.phase_legs
    cols = fold_trace(traces["fft"], 16, keep_empty=True).columns()
    (s1, d1), (s2, d2) = policy.phase_legs(
        by_name("ring", 16), cols.labels, cols.offsets, cols.src, cols.dst
    )
    assert np.array_equal(s1, cols.src)
    assert np.array_equal(d1, s2)
    assert np.array_equal(d2, cols.dst)
