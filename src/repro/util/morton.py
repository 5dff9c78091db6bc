"""Morton (Z-order) index encoding for recursive matrix layouts.

The paper's recursive matrix-multiplication algorithms (Sections 4.1 and
4.1.1) repeatedly split matrices into quadrants and VP segments into
consecutive sub-segments.  Storing a ``s x s`` matrix in Morton order makes
each quadrant a *contiguous* range of one quarter of the indices, so
"replicate quadrant ``A_hl`` into segment ``S_hkl``" becomes contiguous
range arithmetic — exactly mirroring the paper's segment bookkeeping.

Morton index bit layout (row bit above column bit, MSB first)::

    m = r_{k-1} c_{k-1} r_{k-2} c_{k-2} ... r_0 c_0

so the two top bits of ``m`` are ``(h, k)`` — the quadrant coordinates.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "morton_encode",
    "morton_decode",
    "morton_quadrant",
    "morton_order",
    "dense_to_morton",
    "morton_to_dense",
]


def _part_bits(x: np.ndarray, bits: int) -> np.ndarray:
    """Spread the low ``bits`` bits of ``x`` so bit ``b`` moves to ``2b``."""
    x = x.astype(np.int64)
    out = np.zeros_like(x)
    for b in range(bits):
        out |= ((x >> b) & 1) << (2 * b)
    return out


def _unpart_bits(m: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`_part_bits`: gather every other bit of ``m``."""
    m = m.astype(np.int64)
    out = np.zeros_like(m)
    for b in range(bits):
        out |= ((m >> (2 * b)) & 1) << b
    return out


def morton_encode(row, col, side: int):
    """Morton index of entry ``(row, col)`` of a ``side x side`` matrix.

    ``side`` must be a power of two.  Accepts scalars or numpy arrays.
    """
    from repro.util.intmath import ilog2

    bits = ilog2(side)
    r = np.asarray(row)
    c = np.asarray(col)
    m = (_part_bits(r, bits) << 1) | _part_bits(c, bits)
    return int(m) if m.ndim == 0 else m


def morton_decode(m, side: int):
    """Inverse of :func:`morton_encode`: returns ``(row, col)``."""
    from repro.util.intmath import ilog2

    bits = ilog2(side)
    mm = np.asarray(m)
    r = _unpart_bits(mm >> 1, bits)
    c = _unpart_bits(mm, bits)
    if mm.ndim == 0:
        return int(r), int(c)
    return r, c


def morton_quadrant(m: int, size: int) -> tuple[int, int]:
    """Quadrant coordinates ``(h, k)`` of Morton index ``m`` in ``[0, size)``.

    ``size`` is the number of matrix entries (a power of 4 for square
    power-of-two matrices); the quadrant is encoded by the two most
    significant bits of ``m``.
    """
    q = m // (size // 4)
    return q >> 1, q & 1


def morton_order(side: int) -> np.ndarray:
    """Row-major dense index of every Morton index of a ``side x side`` matrix.

    ``morton_order(side)[m] == r * side + c`` where ``(r, c)`` is
    ``morton_decode(m, side)``, so each layout conversion is one gather or
    scatter through it.
    """
    rows, cols = morton_decode(np.arange(side * side, dtype=np.int64), side)
    return rows * side + cols


def dense_to_morton(a: np.ndarray) -> np.ndarray:
    """Flatten a square matrix into a Morton-ordered vector."""
    side = a.shape[0]
    if a.shape != (side, side):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a.reshape(side * side)[morton_order(side)]


def morton_to_dense(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dense_to_morton`."""
    n = vec.shape[0]
    side = int(round(n**0.5))
    if side * side != n:
        raise ValueError(f"vector length {n} is not a perfect square")
    out = np.empty(n, dtype=vec.dtype)
    out[morton_order(side)] = vec
    return out.reshape(side, side)
