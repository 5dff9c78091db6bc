"""Network-oblivious matrix multiplication (Section 4.1).

The n-MM problem multiplies two ``sqrt(n) x sqrt(n)`` matrices using only
semiring operations.  The network-oblivious algorithm is specified on
``M(n)`` — one VP per matrix entry — and recurses as follows (quoting the
paper's three steps):

1. Partition the VPs into eight segments ``S_hkl`` of equal size;
   replicate/distribute the inputs so the entries of ``A_hl`` and
   ``B_kl`` are evenly spread among the VPs of ``S_hkl``.
2. In parallel, recursively compute ``M_hkl = A_hl * B_kl`` within each
   segment.
3. The VP responsible for ``C[i,j]`` collects the two partial products
   and computes ``C[i,j] = M_hk0[i',j'] + M_hk1[i',j']``.

At recursion level ``i`` the algorithm runs ``8^i`` independent
``(n/4^i)``-MM subproblems on disjoint ``M(n/8^i)`` segments, using O(1)
supersteps of label ``3i`` in which every VP sends/receives ``O(2^i)``
messages; wiseness dummies (Section 4.1) make it ((1), n)-wise.
Communication complexity: ``H_MM(n,p,sigma) = O(n/p^{2/3} + sigma log p)``
(Theorem 4.2), Theta(1)-optimal by Lemma 4.1 and, via Theorem 3.4, on all
admissible D-BSP machines (Corollary 4.3).

Implementation notes
--------------------
Matrices are stored as Morton-ordered vectors so that each quadrant is a
contiguous index range and "segment ``S_hkl`` holds quadrants ``(h,l)`` of
A and ``(k,l)`` of B" is contiguous-block arithmetic.  The invariant at
every recursion level: a task over segment ``[seg, seg+m)`` with operand
size ``q`` keeps entry ``j`` (task-local Morton index) of each operand on
VP ``seg + j // (q/m)``.

Every task of a recursion level has the same ``m`` and ``q``, and task
``i`` runs on segment ``[i*m, (i+1)*m)``.  So a level is held as ``(tasks,
q)`` operand arrays, and each superstep is built once per level: one
task's endpoint pattern on segment ``[0, m)``, broadcast over every
task's segment offset.  The messages of a superstep are in task-major
order (task, then the per-task send order); this order is a contract,
since traces keep it and the simulator's FIFO arbiters read it.  The
base case moves all tasks' operands to dense layout with one indexing
op through the Morton permutation and calls
``semiring.matmul`` once per task on 2-D blocks.

Sizes: ``n`` must be a power of 4 (square matrices of power-of-two side),
``n >= 16``.  The 8-way split runs while the segment is divisible by 8;
the paper's base case (one VP per ``n^{1/3}``-MM) is reached exactly when
``n`` is a power of 64, otherwise a 1-2 level all-gather base (segments of
2 or 4 VPs, constant degree ratio) finishes the recursion with the same
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms._common import AlgorithmResult, SendBuffer, add_wiseness_dummies
from repro.algorithms.semiring import STANDARD, Semiring
from repro.machine.program import ScheduleBuilder
from repro.util.intmath import ilog2
from repro.util.morton import dense_to_morton, morton_order, morton_to_dense

__all__ = ["run", "MatMulResult", "specification_size"]


@dataclass
class MatMulResult(AlgorithmResult):
    """Result of the network-oblivious n-MM run."""

    product: np.ndarray = None  # dense sqrt(n) x sqrt(n) matrix


def specification_size(side: int) -> int:
    """Number of VPs the algorithm is specified on: ``v(n) = n = side**2``."""
    return side * side


# Task (h, k, l) of a split computes M_hkl = A_hl * B_lk, so that
# C_hk = M_hk0 + M_hk1.  Entry i lists the Morton quadrant (2*row + col)
# of each operand for task i = 4h + 2k + l.
_A_QUADRANT = np.array([2 * h + l for h in (0, 1) for k in (0, 1) for l in (0, 1)])
_B_QUADRANT = np.array([2 * l + k for h in (0, 1) for k in (0, 1) for l in (0, 1)])


def _emit_level(machine: ScheduleBuilder, label: int, tasks: int, m: int,
                pattern: tuple[np.ndarray, np.ndarray], wise: bool, mult: int) -> None:
    """One superstep for a whole level: a task-local endpoint ``pattern``
    on segment ``[0, m)``, shifted to every task's segment and flattened
    task-major (task, then the pattern's own order)."""
    seg = np.arange(tasks, dtype=np.int64) * m
    src, dst = (
        (seg.reshape((-1,) + (1,) * part.ndim) + part).reshape(-1) for part in pattern
    )
    buf = SendBuffer()
    buf.add(src, dst)
    if wise:
        add_wiseness_dummies(buf, machine.v, label, mult)
    buf.flush(machine, label)


def _replication_pattern(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Step 1 endpoints of one task on segment ``[0, m)``: its four
    quadrant-routing sends, each over the ``q`` operand entries."""
    epv = q // m  # entries per VP at this level (2^i)
    sub_m = m // 8
    sub_epv = 2 * epv  # (q/4) / (m/8)
    j = np.arange(q, dtype=np.int64)
    src = j // epv
    quad = j // (q // 4)  # Morton quadrant (two top bits) of each entry
    jp = j % (q // 4)  # index within the quadrant
    hi = quad >> 1
    lo = quad & 1
    sub = jp // sub_epv
    dst = np.stack(
        # A quadrant (row, col) = (hi, lo) is A_hl with h = hi, l = lo:
        # needed by segments S_{hi, k, lo} for k = 0, 1.
        [(hi * 4 + k * 2 + lo) * sub_m + sub for k in (0, 1)]
        # B quadrant (row, col) = (hi, lo) is B_lk with l = hi, k = lo:
        # needed by segments S_{h, lo, hi} for h = 0, 1.
        + [(h * 4 + lo * 2 + hi) * sub_m + sub for h in (0, 1)]
    )
    return np.broadcast_to(src, dst.shape), dst


def _combine_pattern(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Step 3 endpoints of one task on segment ``[0, m)``: ``M_hkl``'s
    entries travel to the owners of C quadrant ``(h, k)``, in (h, k, l)
    order."""
    epv = q // m
    sub_m = m // 8
    sub_epv = 2 * epv
    quarter = q // 4
    jp = np.arange(quarter, dtype=np.int64)
    hkl = np.arange(8, dtype=np.int64)[:, None]
    src = hkl * sub_m + jp // sub_epv
    dst = ((hkl >> 1) * quarter + jp) // epv  # C quadrant 2h + k == hkl >> 1
    return src, dst


def _allgather_pattern(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Base all-gather endpoints of one task on segment ``[0, m)``: every
    entry of A' and B' goes once to each other VP of the segment."""
    src = np.arange(q, dtype=np.int64) // (q // m)
    srcs, dsts = [], []
    for other in range(m):
        keep = src != other
        # Two operands: send each entry of A' and B' once per peer.
        srcs += [src[keep], src[keep]]
        dsts += [np.full(int(keep.sum()), other, dtype=np.int64)] * 2
    return np.concatenate(srcs), np.concatenate(dsts)


def _base_case(a: np.ndarray, b: np.ndarray, m: int, machine: ScheduleBuilder,
               label: int, sr: Semiring, wise: bool, epv: int) -> np.ndarray:
    """Solve the remaining tasks (rows of ``a``/``b``) on segments of 1, 2
    or 4 VPs.

    For ``m == 1`` the VP multiplies its ``n^{1/3}``-MM locally (the
    paper's base case).  For ``m in (2, 4)`` (n not a power of 64) the
    segment all-gathers both operands — a constant-degree-ratio superstep
    — and each VP computes its share of C.
    """
    tasks, q = a.shape
    if m > 1:
        _emit_level(machine, label, tasks, m, _allgather_pattern(m, q), wise, epv)
    side = int(round(q**0.5))
    order = morton_order(side)
    a_dense = np.empty_like(a)
    b_dense = np.empty_like(b)
    a_dense[:, order] = a
    b_dense[:, order] = b
    a_dense = a_dense.reshape(tasks, side, side)
    b_dense = b_dense.reshape(tasks, side, side)
    prods = np.stack([sr.matmul(a_dense[i], b_dense[i]) for i in range(tasks)])
    return prods.reshape(tasks, q)[:, order]


def _solve(a: np.ndarray, b: np.ndarray, m: int, level: int,
           machine: ScheduleBuilder, sr: Semiring, wise: bool) -> np.ndarray:
    """Multiply every task of one recursion level at once.

    Row ``i`` of ``a``/``b`` is task ``i``'s Morton-ordered operand; the
    task runs on segment ``[i*m, (i+1)*m)``.  Returns C, row per task.
    """
    tasks, q = a.shape
    if m < 8:
        label = ilog2(machine.v // m) if m > 1 else 0
        return _base_case(a, b, m, machine, label, sr, wise, max(1, q // m))

    label = 3 * level
    quarter = q // 4
    _emit_level(machine, label, tasks, m, _replication_pattern(m, q), wise, 1 << level)

    # Subtask 8i + (4h + 2k + l) runs on segment seg_i + (4h + 2k + l) m/8.
    sub_a = a.reshape(tasks, 4, quarter)[:, _A_QUADRANT].reshape(8 * tasks, quarter)
    sub_b = b.reshape(tasks, 4, quarter)[:, _B_QUADRANT].reshape(8 * tasks, quarter)
    products = _solve(sub_a, sub_b, m // 8, level + 1, machine, sr, wise)

    _emit_level(machine, label, tasks, m, _combine_pattern(m, q), wise, 1 << level)
    # products[i] viewed as (h, k, l, entry): C_hk = M_hk0 + M_hk1.
    p = products.reshape(tasks, 2, 2, 2, quarter)
    c = np.empty((tasks, q), dtype=np.result_type(a, b))
    c.reshape(tasks, 2, 2, quarter)[...] = sr.add(p[:, :, :, 0], p[:, :, :, 1])
    return c


def run(
    A: np.ndarray,
    B: np.ndarray,
    *,
    semiring: Semiring = STANDARD,
    wise: bool = True,
) -> MatMulResult:
    """Multiply ``A @ B`` with the network-oblivious n-MM algorithm.

    Parameters
    ----------
    A, B:
        Dense square matrices of power-of-two side ``>= 4``.
    semiring:
        The semiring to compute over (default the standard ring).
    wise:
        Emit the paper's wiseness dummy messages (default), making the
        trace ((1), n)-wise; disable to measure the raw pattern.

    Returns
    -------
    MatMulResult with the dense ``product`` and the specification trace on
    ``M(n)``, ``n = side**2``.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    side = A.shape[0]
    if A.shape != (side, side) or B.shape != (side, side):
        raise ValueError(f"need equal square matrices, got {A.shape} and {B.shape}")
    n = side * side
    ilog2(side)
    if n < 16:
        raise ValueError("n-MM needs side >= 4 (n >= 16)")

    builder = ScheduleBuilder(n)
    c_morton = _solve(
        dense_to_morton(A)[None], dense_to_morton(B)[None], n, 0, builder, semiring, wise
    )
    product = morton_to_dense(c_morton[0])
    return MatMulResult.from_schedule(builder.build(), n, product=product)


# ----------------------------------------------------------------------
# Registry spec (repro.api): n is the number of matrix entries, side**2.
# ----------------------------------------------------------------------
from repro.api.registry import AlgorithmSpec, register  # noqa: E402
from repro.util.intmath import square_side  # noqa: E402


def _api_check(n: int, *, wise: bool = True) -> None:
    square_side(n, 4, what="n-MM")


def _api_emit(n: int, rng, *, wise: bool = True) -> MatMulResult:
    side = square_side(n, 4, what="n-MM")
    A, B = rng.random((side, side)), rng.random((side, side))
    result = run(A, B, wise=wise)
    result.oracle_input = (A, B)  # adapt computes the reference lazily
    return result


def _api_adapt(result: MatMulResult) -> dict:
    inputs = getattr(result, "oracle_input", None)
    if inputs is None:  # result not emitted through the registry
        return {}
    A, B = inputs
    return {"correct": bool(np.allclose(result.product, A @ B))}


register(
    AlgorithmSpec(
        name="matmul",
        summary="n-MM, 8-way recursive network-oblivious matrix multiply",
        kind="oblivious",
        section="4.1",
        emit=_api_emit,
        check=_api_check,
        adapt=_api_adapt,
        default_sizes=(64, 256, 1024),
    )
)
