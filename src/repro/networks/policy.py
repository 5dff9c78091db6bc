"""Pluggable routing policies: how endpoint batches become routed paths.

The timing model routes every superstep's message batch along the
topology's deterministic dimension-order paths.  A *routing policy*
rewrites the endpoint batch before that load accounting, turning the
choice of paths into a first-class, swappable component (motivated by
the oblivious-routing literature — Valiant & Brebner '81, and the
random-walk / compact oblivious-routing lines in PAPERS.md):

* :class:`DimensionOrderPolicy` — the identity: one phase, the
  topology's own deterministic dimension-order paths.  Worst-case
  patterns (e.g. a transpose on a mesh) can concentrate load.
* :class:`ValiantPolicy` — two-phase randomized oblivious routing: every
  message first travels to a random intermediate node, then on to its
  destination.  The intermediate is drawn *inside the message's
  i-cluster*, so a cluster-legal superstep stays cluster-legal and the
  policy composes with D-BSP folding.  Draws are a pure function of
  ``(seed, superstep ordinal)`` — profiles are reproducible and safe to
  memoise.

Policies yield *phases*: each phase is an endpoint batch routed
independently; the engine sums congestion and dilation over phases and
charges one barrier per superstep (Valiant's two phases model its two
store-and-forward rounds).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.networks.topology import Topology
from repro.util.intmath import ilog2

__all__ = [
    "RoutingPolicy",
    "DimensionOrderPolicy",
    "ValiantPolicy",
    "by_policy",
    "POLICIES",
]

Phase = tuple[np.ndarray, np.ndarray]


class RoutingPolicy:
    """Base: rewrite one superstep's endpoint batch into routing phases."""

    name: str = "policy"

    def cache_key(self) -> tuple:
        """Hashable identity used to memoise routed profiles."""
        return (self.name,)

    def phases(
        self,
        topo: Topology,
        step: int,
        label: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> Iterator[Phase]:
        """Yield the (src, dst) batches to route for superstep ``step``.

        ``label`` is the superstep's cluster label on the folded machine
        (messages connect processors sharing ``label`` leading bits).
        Implementations must be deterministic in ``(self, step, label,
        src, dst)`` so memoised profiles stay reproducible.
        """
        raise NotImplementedError

    def phase_legs(
        self,
        topo: Topology,
        labels: np.ndarray,
        offsets: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Whole-trace phase legs for the fused multi-superstep router.

        ``src``/``dst`` are the flat endpoint columns of a folded trace
        (superstep ``s`` owns ``[offsets[s], offsets[s+1])``).  Returns
        one ``(src, dst)`` pair per phase, each aligned with the flat
        message order.  The default applies :meth:`phases` superstep by
        superstep (each phase aligned with its batch); a superstep with
        fewer phases than another leaves self-messages in the missing
        legs, which route for free.  Overrides must agree with it
        message for message.
        """
        legs: list[tuple[np.ndarray, np.ndarray]] = []
        for s in range(int(labels.shape[0])):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi == lo:
                continue
            phases = self.phases(topo, s, int(labels[s]), src[lo:hi], dst[lo:hi])
            for k, (ph_src, ph_dst) in enumerate(phases):
                if k == len(legs):
                    legs.append((src.copy(), src.copy()))
                legs[k][0][lo:hi] = ph_src
                legs[k][1][lo:hi] = ph_dst
        return legs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class DimensionOrderPolicy(RoutingPolicy):
    """Deterministic single-phase routing along the topology's own paths."""

    name = "dimension-order"

    def phases(self, topo, step, label, src, dst):
        yield src, dst

    def phase_legs(self, topo, labels, offsets, src, dst):
        return [(src, dst)]


class ValiantPolicy(RoutingPolicy):
    """Valiant-style two-phase randomized oblivious routing.

    Phase 1 sends each message to a uniformly random intermediate inside
    its superstep's i-cluster (the cluster of the *source*; src and dst
    share it by cluster legality); phase 2 delivers it.  Randomizing the
    middle spreads any fixed adversarial pattern into two near-random
    h-relations at the cost of (at most) doubling the total load.
    """

    name = "valiant"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def cache_key(self) -> tuple:
        return (self.name, self.seed)

    def intermediates(
        self, topo: Topology, step: int, label: int, src: np.ndarray
    ) -> np.ndarray:
        """The random intermediate of every message (reproducible)."""
        shift = max(0, ilog2(topo.p) - label)
        if shift == 0:
            return src
        rng = np.random.default_rng((0xB11A2D1, self.seed, step))
        low = rng.integers(0, 1 << shift, size=src.size, dtype=np.int64)
        return (src >> shift << shift) | low

    def phases(self, topo, step, label, src, dst):
        mid = self.intermediates(topo, step, label, src)
        yield src, mid
        yield mid, dst


#: Registry of shipped policies (name -> constructor taking a seed).
POLICIES = {
    "dimension-order": lambda seed=0: DimensionOrderPolicy(),
    "valiant": ValiantPolicy,
}


def by_policy(name: str, seed: int = 0) -> RoutingPolicy:
    """Construct a routing policy by preset name."""
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return POLICIES[name](seed)
