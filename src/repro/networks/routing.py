"""Timing h-relations on explicit networks: congestion + dilation.

For a superstep's message set routed along fixed paths, any schedule
needs at least ``max(congestion, dilation)`` steps and O(congestion +
dilation) suffices (store-and-forward with random ranks — Leighton,
Maggs & Rao).  We charge::

    time(superstep) = max_e load(e)/capacity(e)  +  max path length  +  1

which is the standard proxy the D-BSP parameters compress into
``h * g_i + ell_i``: congestion tracks ``h * g_i`` (bandwidth), dilation
tracks ``ell_i`` (latency), the +1 the barrier.  Multi-phase policies
(:class:`~repro.networks.policy.ValiantPolicy`) sum congestion and
dilation over their phases and still pay one barrier.

Whole traces are routed by :func:`route_trace`: each policy leg of the
folded trace's columnar endpoints goes through the topology's one fused
kernel, ``route_loads_multi``, in cache-sized superstep chunks (no
per-record objects), with the resulting :class:`RoutedProfile` memoised
exactly like the fold kernels — keyed by (trace identity+version,
topology, policy), since network sweeps route the same trace on many
machines.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.machine.folding import fold_trace
from repro.machine.trace import Trace, TraceColumns
from repro.networks.policy import DimensionOrderPolicy, RoutingPolicy
from repro.networks.topology import Topology
from repro.util import sanitize
from repro.util.caches import register_cache

__all__ = [
    "superstep_time",
    "RoutedCost",
    "RoutedProfile",
    "route_trace",
    "peek_route_cache",
    "seed_route_cache",
    "clear_route_cache",
    "route_cache_stats",
    "fuse_gate_stats",
]

_DIRECT = DimensionOrderPolicy()

_CACHE_MAX = 256
_cache: OrderedDict[tuple, "RoutedProfile"] = OrderedDict()
#: Guards the LRU only (lookups and insertions, never the routing work
#: itself) so plan executors may route cells from many threads at once.
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0

#: Chunk budgets of :func:`_profile_arrays`.  A leg's supersteps are
#: routed through ``route_loads_multi`` in chunks of whole supersteps
#: holding at most ``_CHUNK_CELLS`` dense (superstep, edge) load cells
#: and, unless one superstep alone exceeds it, ``_CHUNK_MESSAGES``
#: messages, so the load grid and the per-message temporaries stay
#: cache-resident.  Far smaller chunks pay per-call overhead instead.
_CHUNK_CELLS = 1 << 16
_CHUNK_MESSAGES = 1 << 13


def clear_route_cache() -> None:
    """Drop memoised routed profiles (mainly for tests and benchmarks)."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


def route_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the routed-profile LRU (reset with
    :func:`clear_route_cache`) — the observability hook the pipeline
    cache-sharing tests assert against."""
    with _cache_lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "evictions": _cache_evictions,
        }


register_cache("route", route_cache_stats, clear_route_cache)


def fuse_gate_stats() -> dict[tuple[str, int], int]:
    """Always ``{}``: routing no longer has a timing-based fuse gate.

    Every trace takes the one fused path; the function remains so
    callers that still record gate tables keep working.
    """
    return {}


@dataclass(frozen=True)
class RoutedCost:
    congestion: float
    dilation: int
    time: float


@dataclass(frozen=True)
class RoutedProfile:
    """Columnar routing record of one folded trace on one topology.

    Parallel per-superstep arrays: ``congestion[s]`` is the bottleneck
    ``load/capacity`` (summed over policy phases), ``dilation[s]`` the
    longest path, ``time[s] = congestion[s] + dilation[s] + 1`` (the +1
    is the barrier — an empty superstep still costs exactly 1).
    """

    topology: str
    policy: str
    p: int
    labels: np.ndarray
    congestion: np.ndarray
    dilation: np.ndarray
    time: np.ndarray

    @property
    def num_supersteps(self) -> int:
        return int(self.labels.shape[0])

    @property
    def total_time(self) -> float:
        return float(self.time.sum())

    @property
    def max_congestion(self) -> float:
        return float(self.congestion.max(initial=0.0))

    @property
    def max_dilation(self) -> int:
        return int(self.dilation.max(initial=0))

    def superstep(self, s: int) -> RoutedCost:
        """The classic per-superstep cost triple (compatibility view)."""
        return RoutedCost(
            float(self.congestion[s]), int(self.dilation[s]), float(self.time[s])
        )


def superstep_time(
    topo: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    policy: RoutingPolicy | None = None,
    *,
    step: int = 0,
    label: int = 0,
) -> RoutedCost:
    """Routed time of one superstep's messages on ``topo``.

    When passing a policy for a *folded i-superstep*, supply ``step`` and
    ``label``: the defaults describe a lone global (label-0) superstep,
    under which :class:`~repro.networks.policy.ValiantPolicy` draws its
    intermediates machine-wide — correct for label 0, cluster-violating
    for finer labels.  :func:`route_trace` passes the true per-superstep
    values and is the canonical whole-trace path.
    """
    policy = policy or _DIRECT
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    caps = topo.edge_capacities()
    congestion, dilation = 0.0, 0
    if src.size:
        for ph_src, ph_dst in policy.phases(topo, step, label, src, dst):
            cross = ph_src != ph_dst  # policy legs may introduce self-messages
            if not cross.any():
                continue
            loads, dil = topo.route_loads(ph_src[cross], ph_dst[cross])
            congestion += float((loads / caps).max())
            dilation += dil
    return RoutedCost(congestion, dilation, congestion + dilation + 1.0)


def _profile_arrays(
    topo: Topology, policy: RoutingPolicy, cols: TraceColumns
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-superstep (congestion, dilation, time) of a folded trace.

    Each policy leg is routed through the topology's ``route_loads_multi``
    kernel in chunks of whole supersteps (see :data:`_CHUNK_CELLS`).
    ``superstep_index()`` is non-decreasing, so one ``searchsorted``
    finds every chunk's message range.  Dilations come from
    ``pair_distance`` (the routed path length, pinned to the per-message
    oracles by the property tests).  Congestion and dilation are summed
    over legs; an empty superstep costs the barrier alone.
    """
    S = cols.num_supersteps
    caps = topo.edge_capacities()
    span = max(1, _CHUNK_CELLS // topo.num_edges())
    sidx = cols.superstep_index()
    congestion = np.zeros(S)
    dilation = np.zeros(S, dtype=np.int64)
    legs = policy.phase_legs(topo, cols.labels, cols.offsets, cols.src, cols.dst)
    for leg_src, leg_dst in legs:
        src, dst, seg = leg_src, leg_dst, sidx
        keep = src != dst  # policy legs may introduce self-messages
        if not keep.all():
            src, dst, seg = src[keep], dst[keep], seg[keep]
        starts = np.union1d(np.arange(0, S, span), seg[::_CHUNK_MESSAGES])
        bounds = np.append(starts, S)
        cuts = np.searchsorted(seg, bounds).tolist()
        bounds = bounds.tolist()
        for lo, hi, a, b in zip(bounds, bounds[1:], cuts, cuts[1:]):
            if a == b:
                continue
            c_src, c_dst, c_seg = src[a:b], dst[a:b], seg[a:b] - lo
            loads = topo.route_loads_multi(c_src, c_dst, c_seg, hi - lo)
            congestion[lo:hi] += (loads / caps).max(axis=1)
            # The first message of each superstep present in the chunk.
            first = np.flatnonzero(c_seg[1:] != c_seg[:-1]) + 1
            first = np.concatenate(([0], first))
            dist = topo.pair_distance(c_src, c_dst)
            dilation[lo + c_seg[first]] += np.maximum.reduceat(dist, first)
    return congestion, dilation, congestion + dilation + 1.0


def route_trace(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> RoutedProfile:
    """Route an entire trace, folded onto ``topo.p``, in one columnar pass.

    The fold (``keep_empty=True`` — surviving supersteps that lost all
    their messages still cost a barrier) comes from the memoised folding
    kernels; every policy leg is then routed by the topology's fused
    ``route_loads_multi`` kernel in cache-sized superstep chunks (see
    :func:`_profile_arrays`).  The profile is memoised per (trace,
    topology, policy); cached arrays are read-only.
    """
    policy = policy or _DIRECT
    global _cache_hits, _cache_misses, _cache_evictions
    token = getattr(trace, "cache_token", None)
    key = None
    if token is not None:
        key = (token, topo.name, topo.p, policy.cache_key())
        with _cache_lock:
            cached = _cache.get(key)
            if cached is not None:
                _cache.move_to_end(key)
                _cache_hits += 1
                return cached
            _cache_misses += 1

    folded = fold_trace(trace, topo.p, keep_empty=True)
    cols = folded.columns()
    congestion, dilation, time = _profile_arrays(topo, policy, cols)
    for arr in (congestion, dilation, time):
        arr.setflags(write=False)
    profile = RoutedProfile(
        topology=topo.name,
        policy=policy.name,
        p=topo.p,
        labels=cols.labels,
        congestion=congestion,
        dilation=dilation,
        time=time,
    )
    if key is not None:
        sanitize.guard_cached(profile, "route")
        with _cache_lock:
            sanitize.assert_locked(_cache_lock, "route cache insert")
            _cache[key] = profile
            if len(_cache) > _CACHE_MAX:
                _cache.popitem(last=False)
                _cache_evictions += 1
    return profile


def peek_route_cache(
    trace: Trace, topo: Topology, policy: RoutingPolicy | None = None
) -> "RoutedProfile | None":
    """The memoised profile, or ``None`` — without counting a miss.

    A scheduler probe: the DAG planner uses it to split a wave into
    LRU-warm and cold nodes before dispatching, and the eventual
    assembly lookup (not the probe) is what the hit counters record.
    """
    policy = policy or _DIRECT
    token = getattr(trace, "cache_token", None)
    if token is None:
        return None
    key = (token, topo.name, topo.p, policy.cache_key())
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
        return cached


def seed_route_cache(
    trace: Trace,
    topo: Topology,
    policy: RoutingPolicy | None,
    profile: "RoutedProfile",
) -> "RoutedProfile":
    """Insert a worker-computed profile under this process's cache key.

    The DAG scheduler's parent-side re-insertion hook: pickling drops
    numpy's read-only flag, so every array is re-frozen before the
    profile enters the shared LRU.  A concurrently inserted profile for
    the same key wins (the values are bit-identical by construction).
    """
    global _cache_evictions
    policy = policy or _DIRECT
    token = getattr(trace, "cache_token", None)
    if token is None:
        return profile
    for arr in (profile.labels, profile.congestion, profile.dilation, profile.time):
        arr.setflags(write=False)
    key = (token, topo.name, topo.p, policy.cache_key())
    sanitize.guard_cached(profile, "route")
    with _cache_lock:
        sanitize.assert_locked(_cache_lock, "route cache insert")
        if key in _cache:
            _cache.move_to_end(key)
            return _cache[key]
        _cache[key] = profile
        if len(_cache) > _CACHE_MAX:
            _cache.popitem(last=False)
            _cache_evictions += 1
    return profile
