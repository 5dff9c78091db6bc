"""Closed-form / recurrence predictions of the Section-4 theorems.

For each algorithm the paper derives a recurrence for the communication
complexity on ``M(p, sigma)`` and unrolls it to a closed form.  We expose
both: the *recurrence evaluators* mirror the paper's unrolling step by
step (useful to predict exact superstep structure), while the *closed
forms* are the headline expressions the benchmarks compare measured data
against.

Theorem 4.2 :  ``H_MM      = O(n/p^{2/3} + sigma log p)``
Sec. 4.1.1  :  ``H_MM-space = O(n/sqrt(p) + sigma sqrt(p))``
Theorem 4.5 :  ``H_FFT     = O((n/p + sigma) log n / log(n/p))``
Theorem 4.8 :  ``H_sort    = O((n/p + sigma) (log n / log(n/p))^{log_{3/2} 4})``
Theorem 4.11:  ``H_1-stencil = O(n 4^{sqrt(log n)})``     for sigma = O(n/p)
Theorem 4.13:  ``H_2-stencil = O(n^2/sqrt(p) 8^{sqrt(log n)})`` for sigma = O(n^2/p)
"""

from __future__ import annotations

import math
import numbers

from repro.util.intmath import ceil_log2, paper_log

__all__ = [
    "h_mm_recurrence",
    "h_mm_closed",
    "h_mm_space_recurrence",
    "h_mm_space_closed",
    "h_fft_recurrence",
    "h_fft_closed",
    "h_sort_recurrence",
    "h_sort_closed",
    "stencil_k",
    "resolve_stencil_k",
    "h_stencil1_closed",
    "h_stencil2_closed",
    "sort_exponent",
]

#: The Columnsort recursion-tree exponent log_{3/2} 4 ~ 3.419 (Theorem 4.8).
sort_exponent = math.log(4) / math.log(1.5)


def h_mm_recurrence(n: float, p: float, sigma: float, c: float = 1.0) -> float:
    """Theorem 4.2's recurrence ``H(n,p) = H(n/4, p/8) + c (n/p + sigma)``.

    Unrolled iteratively until the machine shrinks to one processor (the
    paper's base case ``H = 0`` for ``p <= 1``).
    """
    total = 0.0
    while p > 1:
        total += c * (n / p + sigma)
        n /= 4.0
        p /= 8.0
    return total


def h_mm_closed(n: float, p: float, sigma: float) -> float:
    """Theorem 4.2 closed form ``n/p^{2/3} + sigma log p``."""
    return n / p ** (2.0 / 3.0) + sigma * paper_log(p)


def h_mm_space_recurrence(n: float, p: float, sigma: float, c: float = 1.0) -> float:
    """Sec. 4.1.1 recurrence ``H(n,p) = 2 H(n/4, p/4) + c (n/p + sigma)``."""
    total = 0.0
    mult = 1.0
    while p > 1:
        total += mult * c * (n / p + sigma)
        n /= 4.0
        p /= 4.0
        mult *= 2.0
    return total


def h_mm_space_closed(n: float, p: float, sigma: float) -> float:
    """Sec. 4.1.1 closed form ``n/sqrt(p) + sigma sqrt(p)``."""
    return n / math.sqrt(p) + sigma * math.sqrt(p)


def h_fft_recurrence(n: float, p: float, sigma: float, c: float = 1.0) -> float:
    """Theorem 4.5 recurrence ``H(n,p) = 2 H(sqrt(n), p/sqrt(n)) + c (n/p + sigma)``.

    Note ``n/p`` is invariant along the recursion, so the unrolled sum is
    a geometric series in the branching factor 2.
    """
    total = 0.0
    mult = 1.0
    while p > 1:
        total += mult * c * (n / p + sigma)
        rt = math.sqrt(n)
        p /= rt
        n = rt
        mult *= 2.0
    return total


def h_fft_closed(n: float, p: float, sigma: float) -> float:
    """Theorem 4.5 closed form ``(n/p + sigma) log n / log(n/p)``."""
    return (n / p + sigma) * paper_log(n) / paper_log(n / p)


def h_sort_recurrence(n: float, p: float, sigma: float, c: float = 1.0) -> float:
    """Theorem 4.8 recurrence ``H(n,p) = 4 H(n^{2/3}, p/n^{1/3}) + c (n/p + sigma)``."""
    total = 0.0
    mult = 1.0
    while p > 1:
        total += mult * c * (n / p + sigma)
        r = n ** (2.0 / 3.0)
        p /= n / r
        n = r
        mult *= 4.0
    return total


def h_sort_closed(n: float, p: float, sigma: float) -> float:
    """Theorem 4.8 closed form ``(n/p + sigma)(log n / log(n/p))^{log_{3/2} 4}``."""
    return (n / p + sigma) * (paper_log(n) / paper_log(n / p)) ** sort_exponent


def stencil_k(n: int) -> int:
    """The stencil recursion fan-out ``k = 2^{ceil(sqrt(log n))}``.

    Section 4.4 sets ``k = 2^{sqrt(log n)}``; we take the ceiling of the
    exponent so k is a power of two for every power-of-two n.
    """
    if n < 2:
        return 2
    return 1 << max(1, math.ceil(math.sqrt(ceil_log2(n))))


def resolve_stencil_k(n: int, k: int | None) -> int:
    """The fan-out a stencil run uses: ``k`` itself, or :func:`stencil_k`.

    The stripe recursion splits each box ``k`` ways per axis, so ``k``
    must be a power of two ``>= 2``; anything else raises ``ValueError``
    (``k = 1`` would never shrink a box, ``k = 0`` divides by zero).
    """
    if k is None:
        return stencil_k(n)
    if (
        isinstance(k, bool)
        or not isinstance(k, numbers.Integral)
        or k < 2
        or k & (k - 1)
    ):
        raise ValueError(f"stencil fan-out k must be a power of two >= 2, got k={k!r}")
    return int(k)


def h_stencil1_closed(n: float, p: float, sigma: float = 0.0) -> float:
    """Theorem 4.11 closed form ``n * 4^{sqrt(log n)}`` (sigma = O(n/p) regime).

    Remarkably independent of p: the recursion-tree overhead ``(2k)^{log_k p}``
    exactly cancels the ``n/p`` per-level cost.
    """
    return n * 4.0 ** math.sqrt(paper_log(n))


def h_stencil2_closed(n: float, p: float, sigma: float = 0.0) -> float:
    """Theorem 4.13 closed form ``(n^2/sqrt(p)) * 8^{sqrt(log n)}``."""
    return (n * n / math.sqrt(p)) * 8.0 ** math.sqrt(paper_log(n))
