"""Network-oblivious (n,1)-stencil computation (Section 4.4.1, Figure 1).

The (n,1)-stencil problem evaluates an ``n x n`` grid DAG: node
``(x, t)`` (cell x at timestep t) feeds ``(x + delta, t + 1)`` for
``delta in {0, +-1}``; row ``t = 0`` is the input.  The paper reduces it
to *diamond DAG* evaluations: in the rotated coordinates

    ``u = x + t``,   ``w = x - t + (n - 1)``,

dependencies flow from smaller-or-equal ``u`` / larger-or-equal ``w``
(preds of ``(u, w)`` sit at ``(u-2, w), (u-1, w+1), (u, w+2)``), a diamond
of side ``m`` is an axis-aligned ``(2m-1) x (2m-1)`` box, and the square
grid splits into **five full or truncated diamonds** evaluated in order:

    BL (x+t < n/2),  BR (x-t >= n/2),  C (the centre diamond),
    TL (t-x >= n/2),  TR (x+t > 2(n-1) - n/2).

Each diamond is evaluated by the recursive stripe decomposition of
Figure 1: with ``k = 2^{ceil(sqrt(log n))}``, the bounding box splits
into ``k x k`` sub-boxes grouped into ``2k - 1`` anti-diagonal stripes;
stripe ``r``'s sub-diamonds are evaluated in parallel by the ``k``
disjoint VP sub-segments, each phase opening with an input-routing
superstep of the *parent* level's label (``(i-1) log k`` at level ``i``)
that delivers every cross-boundary predecessor value directly to the VP
that will consume it.  When the sub-box side drops below ``k`` the
diamond is evaluated by a wavefront of ``2 n_tau - 1`` supersteps of
label ``tau log k`` (each VP owning a bounded number of ``u``-columns).

Theorem 4.11: ``H_1-stencil(n, p, sigma) = O(n * 4^{sqrt(log n)})`` for
``sigma = O(n/p)`` — within a ``4^{sqrt(log n)}`` factor of Lemma 4.10's
``Omega(n)`` bound; Corollary 4.12 transfers this to admissible D-BSPs.

Implementation notes
--------------------
All boxes of one recursion level have the same extent, so they are held
as ``seg``/``u0``/``w0`` arrays, and the stage regions as per-row
``lo``/``hi`` arrays built once per stage.  Each stripe phase's routing
superstep is built once over every ``(task, row)``, and each base-case
call builds all its wavefront rows' messages at once and evaluates one
row per step over all tasks.  Message order within a superstep is a
contract (traces keep it, the simulator's FIFO arbiters read it): task,
then row, then predecessor direction ``(-1, 0, +1)``, then x.  A stable
sort on ``task * 3 + direction`` restores it from the whole-array build.
``rule`` is called once per wavefront row on the concatenated nodes of
all tasks, so it **must be elementwise**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
from repro.core.theory import resolve_stencil_k
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2

__all__ = ["run", "evaluate_diamond", "Stencil1DResult", "DiamondResult", "heat_rule"]


def heat_rule(left: np.ndarray, centre: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Default stencil update: three-point average (explicit heat step)."""
    return (left + centre + right) / 3.0


@dataclass
class Stencil1DResult(AlgorithmResult):
    """Result of the 5-stage (n,1)-stencil evaluation."""

    grid: np.ndarray = None  # grid[t, x]: every node value
    final: np.ndarray = None  # grid[n-1]
    stages: int = 5


@dataclass
class DiamondResult(AlgorithmResult):
    """Result of a single diamond-DAG evaluation (Theorem 4.11's object)."""

    grid: np.ndarray = None
    k: int = 0
    phases_per_level: int = 0  # 2k - 1 (Figure 1)


#: Predecessor directions ``(dx, du, dw)``: node ``(x, t)`` reads
#: ``(x + dx, t - 1)``, which sits at ``(u + du, w + dw)``.  Messages of a
#: superstep are ordered by task, then direction in this order, then x.
_DX = np.array([-1, 0, 1], dtype=np.int64)[:, None]
_DU = np.array([-2, -1, 0], dtype=np.int64)[:, None]
_DW = np.array([0, 1, 2], dtype=np.int64)[:, None]


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten intervals ``[lo, hi]`` (empty when ``hi == lo - 1``) into
    ``(span index, x)`` arrays, span-major and x ascending."""
    lengths = hi - lo + 1
    span = np.repeat(np.arange(lo.size, dtype=np.int64), lengths)
    start = np.cumsum(lengths) - lengths
    x = lo[span] + np.arange(span.size, dtype=np.int64) - start[span]
    return span, x


def _ordered(keys: np.ndarray, mask: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Selected ``(src, dst)`` of a ``(direction, node)`` grid, stably
    sorted by ``keys`` (a group number, e.g. the task, times 3 plus the
    direction), so each group lists its directions in turn, x ascending."""
    order = np.argsort(keys[mask], kind="stable")
    return src[mask][order], dst[mask][order]


class _Ctx:
    """Shared state of one stencil evaluation.

    ``grid_t x grid_x`` value and owner arrays, the stencil rule, the
    stage's per-row x-intervals, and the schedule builder the supersteps
    are emitted into.
    """

    def __init__(self, machine, grid, owner, rule, fill, wise, k):
        self.machine = machine  # ScheduleBuilder (Machine-compatible recorder)
        self.grid = grid
        self.owner = owner
        self.rule = rule
        self.fill = fill
        self.wise = wise
        self.k = k
        self.nt, self.nx = grid.shape
        self.noff = self.nx - 1  # w = x - t + noff
        # Stage region (who is evaluated *now*): per-row x-interval.
        self.row_lo, self.row_hi = self.intervals(lambda t: (0, -1))
        # Global DAG region (which nodes exist at all): per-row x-interval.
        # Predecessor *values* are read against this; predecessor *messages*
        # are stage-local (earlier stages were delivered at stage opening).
        self.global_lo, self.global_hi = self.intervals(lambda t: (0, self.nx - 1))

    def intervals(self, interval: Callable[[int], tuple[int, int]]):
        """Per-row ``lo``/``hi`` arrays of an x-interval function, clipped
        to the grid (rows with ``lo > hi`` are empty)."""
        lo = np.empty(self.nt, dtype=np.int64)
        hi = np.empty(self.nt, dtype=np.int64)
        for t in range(self.nt):
            lo[t], hi[t] = interval(t)
        return np.maximum(lo, 0), np.minimum(hi, self.nx - 1)

    def label_for(self, seg_size: int) -> int:
        v = self.machine.v
        return ilog2(v // seg_size) if seg_size < v else 0

    # -- geometry (vectorised over same-extent boxes) -------------------
    def box_interval(self, t, u0, w0, ext: int):
        """x-interval of boxes ``u in [u0, u0+ext), w in [w0, w0+ext)`` at
        rows ``t``, intersected with the stage region and the grid."""
        lo = np.maximum(np.maximum(self.row_lo[t], u0 - t), w0 - self.noff + t)
        hi = np.minimum(
            np.minimum(self.row_hi[t], u0 + ext - 1 - t), w0 + ext - 1 - self.noff + t
        )
        return lo, hi

    def t_range(self, u0, w0, ext: int):
        """Global time rows intersecting each box (clipped to the grid)."""
        t_lo = np.maximum(0, (u0 - (w0 + ext - 1) + self.noff + 1) // 2)
        t_hi = np.minimum(self.nt - 1, (u0 + ext - 1 - w0 + self.noff) // 2)
        return t_lo, t_hi

    def box_rows(self, u0, w0, ext: int):
        """Every non-empty ``(box, row)`` of the boxes, box-major and t
        ascending: ``(box index, t, lo, hi)`` arrays."""
        t_lo, t_hi = self.t_range(u0, w0, ext)
        box, t = _spans(t_lo, np.maximum(t_hi, t_lo - 1))
        lo, hi = self.box_interval(t, u0[box], w0[box], ext)
        keep = lo <= hi
        return box[keep], t[keep], lo[keep], hi[keep]

    def box_nodes(self, u0, w0, ext: int):
        """Nodes of the boxes' non-input rows as ``(row, box, t, x)``
        arrays, ordered box, t, then x; ``row`` numbers the ``(box, t)``
        pairs in that order."""
        box, t, lo, hi = self.box_rows(u0, w0, ext)
        live = t > 0
        row, x = _spans(lo[live], hi[live])
        return row, box[live][row], t[live][row], x

    def pred_value(self, tm1: np.ndarray, px: np.ndarray) -> np.ndarray:
        """Values of nodes ``(px, tm1)``; ``fill`` outside the DAG region."""
        ok = (px >= self.global_lo[tm1]) & (px <= self.global_hi[tm1])
        out = np.full(px.shape, self.fill, dtype=float)
        out[ok] = self.grid[tm1[ok], px[ok]]
        return out


def _paint(ctx: _Ctx, seg, u0, w0, P: int, m: int) -> None:
    """Assign owners: VP ``seg + (u - u0) // (2m/P)`` owns node (x, t)."""
    k = ctx.k
    if m <= k or P <= k:
        cols = max(1, (2 * m) // P)
        box, t, lo, hi = ctx.box_rows(u0, w0, 2 * m)
        row, x = _spans(lo, hi)
        box, t = box[row], t[row]
        ctx.owner[t, x] = seg[box] + (x + t - u0[box]) // cols
        return
    sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
    a = np.arange(k, dtype=np.int64)
    shape = (seg.size, k, k)
    _paint(
        ctx,
        np.broadcast_to((seg[:, None] + a * sub_P)[:, :, None], shape).reshape(-1),
        np.broadcast_to((u0[:, None] + a * L)[:, :, None], shape).reshape(-1),
        np.broadcast_to((w0[:, None] + a * L)[:, None, :], shape).reshape(-1),
        sub_P,
        sub_m,
    )


def _pred_messages(ctx: _Ctx, u0, w0, ext: int, parents):
    """Messages delivering predecessor values produced *outside* each
    task's box directly to the VPs that will consume them.

    ``parents``: ``(pu0, pw0, pext)`` of each task's parent box; preds
    beyond it were already routed at an earlier phase, so only preds
    *inside* it are sent.  Ordered by task, row, direction, then x.
    """
    row, box, t, x = ctx.box_nodes(u0, w0, ext)
    tm1 = t - 1
    px = x + _DX
    pu, pw = x + t + _DU, x - t + ctx.noff + _DW
    sel = (px >= ctx.row_lo[tm1]) & (px <= ctx.row_hi[tm1])
    sel &= (pu < u0[box]) | (pw >= w0[box] + ext)
    pu0, pw0, pext = parents
    sel &= (pu >= pu0[box]) & (pw < pw0[box] + pext)
    src = ctx.owner[tm1, np.where(sel, px, 0)]
    dst = np.broadcast_to(ctx.owner[t, x], sel.shape)
    return _ordered(row * 3 + np.arange(3)[:, None], sel, src, dst)


def _emit(ctx: _Ctx, label: int, src, dst) -> None:
    buf = SendBuffer()
    move = src != dst
    src, dst = src[move], dst[move]
    buf.add(src, dst)
    if ctx.wise:
        # "Suitable dummy messages are added in each superstep to make each
        # VP exchange the same number of messages" (Sec. 4.4.1): match the
        # superstep's actual maximum degree.
        mult = 1
        if src.size:
            mult = int(
                max(
                    np.bincount(src, minlength=1).max(),
                    np.bincount(dst, minlength=1).max(),
                )
            )
        add_wiseness_dummies(buf, ctx.machine.v, label, mult)
    buf.flush(ctx.machine, label)


def _eval_base(ctx: _Ctx, u0, w0, P: int, m: int) -> None:
    """Wavefront evaluation of side-<=k diamonds: 2m-1 row supersteps.

    Local row ``rho`` of every task is one superstep: its nodes are
    evaluated with one ``rule`` call over all tasks (same-stripe boxes
    are independent), and its messages carry in-box, current-stage
    predecessors across VP owners.  Earlier-stage predecessors arrived
    at the stage-opening superstep.  Messages depend on n alone, so all
    rows' messages are built at once and split by ``rho``.
    """
    label = ctx.label_for(P)
    ext = 2 * m
    t_lo, _ = ctx.t_range(u0, w0, ext)
    # t == 0 rows are inputs: values preassigned, no evaluation.
    _, task, t, x = ctx.box_nodes(u0, w0, ext)
    rho = t - t_lo[task]
    tm1 = t - 1
    px = x + _DX
    pu, pw = x + t + _DU, x - t + ctx.noff + _DW
    sel = (px >= ctx.row_lo[tm1]) & (px <= ctx.row_hi[tm1])
    sel &= (pu >= u0[task]) & (pw < w0[task] + ext)
    src = ctx.owner[tm1, np.where(sel, px, 0)]
    dst = np.broadcast_to(ctx.owner[t, x], sel.shape)
    sel &= src != dst
    key = (rho * u0.size + task) * 3 + np.arange(3)[:, None]
    src, dst = _ordered(key, sel, src, dst)
    msg_rho = np.sort(np.broadcast_to(rho, sel.shape)[sel])

    by_row = np.argsort(rho, kind="stable")  # rho, then task, then x
    rows, first = np.unique(rho[by_row], return_index=True)
    node_bounds = np.append(first, rho.size)
    msg_bounds = np.searchsorted(msg_rho, np.append(rows, ext))
    for i in range(rows.size):
        nodes = by_row[node_bounds[i] : node_bounds[i + 1]]
        tn, xn = tm1[nodes], x[nodes]
        ctx.grid[tn + 1, xn] = ctx.rule(
            ctx.pred_value(tn, xn - 1), ctx.pred_value(tn, xn), ctx.pred_value(tn, xn + 1)
        )
        lo, hi = msg_bounds[i], msg_bounds[i + 1]
        _emit(ctx, label, src[lo:hi], dst[lo:hi])


def _eval_box(ctx: _Ctx, u0, w0, P: int, m: int) -> None:
    """Recursive stripe-phase evaluation (Figure 1) of same-level boxes.

    VP segments need no tracking here: ``_paint`` already fixed every
    node's owner."""
    k = ctx.k
    if m <= k or P <= k:
        _eval_base(ctx, u0, w0, P, m)
        return
    sub_m, sub_P, L = m // k, P // k, 2 * (m // k)
    parent_label = ctx.label_for(P)
    for r in range(2 * k - 1):
        # Stripe r: sub-boxes (a, b = k-1-(r-a)), task-major then a.
        a = np.arange(max(0, r - (k - 1)), min(r, k - 1) + 1, dtype=np.int64)
        b = k - 1 - (r - a)
        sub_u0 = (u0[:, None] + a * L).reshape(-1)
        sub_w0 = (w0[:, None] + b * L).reshape(-1)
        parents = (np.repeat(u0, a.size), np.repeat(w0, a.size), 2 * m)
        src, dst = _pred_messages(ctx, sub_u0, sub_w0, 2 * sub_m, parents)
        _emit(ctx, parent_label, src, dst)
        _eval_box(ctx, sub_u0, sub_w0, sub_P, sub_m)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def _stage_regions(n: int):
    """The five-stage partition (region name, row-interval fn, box).

    ``h = n/2``; boxes are (u0, w0, half-side m) with extent 2m = n.
    Regions are x-intervals per row t; together they tile the grid and
    respect the dependency order BL, BR, C, TL, TR.
    """
    h = n // 2
    noff = n - 1
    return [
        ("BL", lambda t: (0, h - 1 - t), (0, noff - (h - 1) - 1, h)),
        ("BR", lambda t: (h + t, n - 1), (h - 1, 2 * h, h)),
        ("C", lambda t: (max(h - t, t - (h - 1)), min(h - 1 + t, noff + h - 1 - t)),
         (h - 1, h - 1, h)),
        ("TL", lambda t: (0, t - h), (h - 1, -h, h)),
        ("TR", lambda t: (2 * noff - (h - 1) - t, n - 1), (2 * h - 1, h - 1, h)),
    ]


def run(
    x0: np.ndarray,
    *,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
) -> Stencil1DResult:
    """Evaluate ``n`` timesteps of a 3-point stencil on ``n`` cells.

    ``x0`` (power-of-two length ``n``) is row ``t = 0``; rows
    ``1..n-1`` are computed as ``rule(left, centre, right)`` with ``fill``
    substituted at the grid edges.  ``rule`` must be elementwise: it is
    applied to arrays holding nodes of many boxes at once.  ``k`` is the
    stripe fan-out (default :func:`~repro.core.theory.stencil_k`); it must
    be a power of two ``>= 2``.  The evaluation follows the paper's
    five-diamond decomposition on ``M(n)``; ``grid`` matches a sequential
    row sweep exactly.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    ilog2(n)
    if n < 4:
        raise ValueError("need n >= 4")
    kk = resolve_stencil_k(n, k)
    builder = ScheduleBuilder(n)
    grid = np.full((n, n), np.nan)
    grid[0] = x0
    owner = np.zeros((n, n), dtype=np.int64)
    ctx = _Ctx(builder, grid, owner, rule, fill, wise, kk)

    root = np.zeros(1, dtype=np.int64)
    prev_regions = []
    for name, interval, (u0, w0, m) in _stage_regions(n):
        ctx.row_lo, ctx.row_hi = region = ctx.intervals(interval)
        bu0, bw0 = root + u0, root + w0
        _paint(ctx, root, bu0, bw0, n, m)
        # Stage-opening 0-superstep: inputs (row 0 holders = VP x) and
        # cross-stage predecessor values, delivered to consuming owners.
        srcs, dsts = [], []
        # row-0 nodes of this stage: value moves from its initial VP.
        (lo,), (hi,) = ctx.box_interval(root, bu0, bw0, 2 * m)
        if lo <= hi:
            x = np.arange(lo, hi + 1)
            srcs.append(x)
            dsts.append(ctx.owner[0, lo : hi + 1])
        # preds computed in earlier stages.
        for prev in prev_regions:
            s, d = _cross_stage_messages(ctx, bu0, bw0, 2 * m, prev)
            srcs.append(s)
            dsts.append(d)
        _emit(ctx, 0, np.concatenate(srcs), np.concatenate(dsts))
        _eval_box(ctx, bu0, bw0, n, m)
        prev_regions.append(region)

    return Stencil1DResult.from_schedule(
        builder.build(), n, grid=grid, final=grid[n - 1].copy()
    )


def _cross_stage_messages(ctx: _Ctx, u0, w0, ext: int, prev):
    """Arcs from an earlier stage's nodes (per-row ``prev`` = ``(lo, hi)``
    arrays) into the current stage's box; ordered t, direction, then x."""
    row, _, t, x = ctx.box_nodes(u0, w0, ext)
    plo, phi = prev
    px = x + _DX
    sel = (px >= plo[t - 1]) & (px <= phi[t - 1])
    src = ctx.owner[t - 1, np.where(sel, px, 0)]
    dst = np.broadcast_to(ctx.owner[t, x], sel.shape)
    return _ordered(row * 3 + np.arange(3)[:, None], sel, src, dst)


def evaluate_diamond(
    n: int,
    *,
    seed: float = 1.0,
    rule: Callable = heat_rule,
    fill: float = 0.0,
    wise: bool = True,
    k: int | None = None,
) -> DiamondResult:
    """Evaluate one full diamond DAG of side ``n`` on ``M(n)``.

    This is the object Theorem 4.11's analysis centres on ("let us then
    concentrate on the communication complexity for one diamond DAG
    evaluation").  The diamond is embedded in a ``(2n-1)``-cell grid; its
    bottom node ``(n-1, 0)`` is the single input (value ``seed``), and
    nodes whose predecessors fall outside the diamond use ``fill``.
    ``rule`` and ``k`` are as in :func:`run`.
    """
    ilog2(n)
    if n < 2:
        raise ValueError("need n >= 2")
    kk = resolve_stencil_k(n, k)
    nx = 2 * n - 1
    builder = ScheduleBuilder(n)
    grid = np.full((nx, nx), np.nan)
    owner = np.zeros((nx, nx), dtype=np.int64)
    ctx = _Ctx(builder, grid, owner, rule, fill, wise, kk)
    # Diamond of side n centred at x = n-1: |x - (n-1)| <= min(t, 2(n-1)-t).
    ctx.row_lo, ctx.row_hi = ctx.global_lo, ctx.global_hi = ctx.intervals(
        lambda t: (
            (n - 1) - min(t, 2 * (n - 1) - t),
            (n - 1) + min(t, 2 * (n - 1) - t),
        )
    )
    grid[0, n - 1] = seed
    # Box covering the diamond: u, w both span [n-1, 3n-3] (extent 2n).
    root, corner = np.zeros(1, dtype=np.int64), np.full(1, n - 1, dtype=np.int64)
    _paint(ctx, root, corner, corner, n, n)
    # Input superstep: the seed moves from VP n-1 to its owner.
    _emit(ctx, 0, np.array([n - 1]), np.array([owner[0, n - 1]]))
    _eval_box(ctx, corner, corner, n, n)
    return DiamondResult.from_schedule(
        builder.build(), n, grid=grid, k=kk, phases_per_level=2 * kk - 1
    )


# ----------------------------------------------------------------------
# Registry spec (repro.api): n cells evaluated for n timesteps.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402


def _api_check(n: int, *, wise: bool = True, k: int | None = None) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError(f"(n,1)-stencil needs power-of-two n >= 4, got n={n}")
    resolve_stencil_k(n, k)


def _api_emit(n: int, rng, *, wise: bool = True, k: int | None = None):
    x0 = rng.random(n)
    result = run(x0, wise=wise, k=k)
    result.oracle_input = x0  # adapt runs the row sweep lazily
    return result


def _api_adapt(result: Stencil1DResult) -> dict:
    x0 = getattr(result, "oracle_input", None)
    if x0 is None:  # result not emitted through the registry
        return {}
    # Sequential row sweep with the default rule/fill the registry emits.
    n = x0.shape[0]
    row = np.asarray(x0, dtype=float)
    for _t in range(1, n):
        left = np.concatenate(([0.0], row[:-1]))
        right = np.concatenate((row[1:], [0.0]))
        row = heat_rule(left, row, right)
    return {"correct": bool(np.allclose(result.final, row))}


register(
    AlgorithmSpec(
        name="stencil1d",
        summary="(n,1)-stencil via the five-diamond decomposition",
        kind="oblivious",
        section="4.4.1",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(16, 64, 256),
    )
)
