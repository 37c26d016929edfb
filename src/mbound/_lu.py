"""Hand-rolled dense elimination for desk-scale matrices.

Two kernels live here.  ``lu_factor`` eliminates with partial pivoting
and serves general matrices; ``inverse`` reads its factors.  ``m_factor``/
``m_inverse`` eliminate Z-matrices without pivoting: that is the
nonsingular M-matrix gate (all pivots positive) and, from the same packed
factors, an inverse that is entrywise >= 0 with exact structural zeros.
They take a (k, n, n) stack, loop over the pivot index and vectorize over
k; a single matrix is a stack of one.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# |pivot| <= PIVOT_REL * max|entry| declares the matrix singular
PIVOT_REL = 1e-13
# an unpivoted M-matrix pivot must exceed M_PIVOT_REL * its own a_kk
M_PIVOT_REL = 1e-12


def _pivot_floor(a: np.ndarray) -> float:
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return PIVOT_REL * max(scale, 1e-300)


def lu_factor(a: np.ndarray):
    """Factor PA = LU; returns (lu, perm).

    ``lu`` packs L (unit lower, implicit diagonal) and U; row k of PA is
    row perm[k] of a.  Raises SingularMatrixError at the first pivot below
    the relative floor.
    """
    n = a.shape[0]
    lu = a.astype(np.float64, copy=True)
    perm = np.arange(n)
    floor = _pivot_floor(a)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= floor:
            raise SingularMatrixError("matrix is singular within pivot tolerance")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        piv = lu[k, k]
        lu[k + 1:, k] /= piv
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def inverse(a: np.ndarray) -> np.ndarray:
    """A^-1 via LU solves against the identity columns."""
    lu, perm = lu_factor(a)
    n = a.shape[0]
    inv = np.empty((n, n), dtype=np.float64)
    for col in range(n):
        b = np.zeros(n)
        b[np.where(perm == col)[0][0]] = 1.0
        # forward substitution (unit lower)
        y = b.copy()
        for i in range(1, n):
            y[i] -= lu[i, :i] @ y[:i]
        # back substitution
        x = y
        for i in range(n - 1, -1, -1):
            if i + 1 < n:
                x[i] -= lu[i, i + 1:] @ x[i + 1:]
            x[i] /= lu[i, i]
        inv[:, col] = x
    return inv


def _m_eliminate(a: np.ndarray):
    """``m_factor``'s elimination: (lu, ok, lost), with ``lost`` listing
    the slices that failed at a non-finite pivot."""
    n = a.shape[1]
    lu = a.astype(np.float64, copy=True)
    floor = M_PIVOT_REL * np.diagonal(a, axis1=1, axis2=2)
    ok = ~np.any((lu > 0.0) & ~np.eye(n, dtype=bool), axis=(1, 2))
    lost = []
    live = np.flatnonzero(ok)
    work = lu[live]
    for j in range(n):
        piv = work[:, j, j]
        passed = piv > floor[live, j]
        if not passed.all():
            ok[live[~passed]] = False
            lost += live[~passed & ~np.isfinite(piv)].tolist()
            live, work, piv = live[passed], work[passed], piv[passed]
        work[:, j + 1:, j] /= piv[:, None]
        work[:, j + 1:, j + 1:] -= (work[:, j + 1:, j, None]
                                    * work[:, j, None, j + 1:])
    lu[live] = work
    return lu, ok, lost


def m_factor(a: np.ndarray):
    """Unpivoted A = LU of each slice of a (k, n, n) stack of Z-matrices.

    Returns (lu, ok, d): ``lu`` packs each slice's factors and ``ok[i]``
    says whether slice i is a nonsingular M-matrix.  A Z-matrix is one iff
    elimination without pivoting meets only positive pivots (Berman &
    Plemmons, ch. 6, Thm 2.3).  Each pivot is compared with M_PIVOT_REL
    times its row's original diagonal entry, so the test is dimensionless.
    A slice with a positive off-diagonal entry or a failed pivot leaves
    the stack and no further arithmetic touches it; its ``lu`` slice is
    the input.  Schur complements of a Z-matrix are Z-matrices, so L and
    the off-diagonal of U stay <= 0 in floating point as well.

    The pivot test does not change under a positive row scaling, but the
    multipliers of a badly row-scaled slice can leave float64 range.  A
    slice that fails at a non-finite pivot is eliminated again, once, as
    D⁻¹A with D its diagonal: its ``lu`` packs the factors of D⁻¹A and its
    row of ``d`` is that diagonal, so A⁻¹ is the inverse from ``lu`` with
    column j divided by d_j (a retried slice that fails keeps D⁻¹A as its
    ``lu``).  Every other row of ``d`` is ones.  No floating-point warning
    is raised.

    The elimination is elementwise, so every slice gets the same bits as
    a stack of one.
    """
    d = np.ones(a.shape[:2])
    with np.errstate(all="ignore"):
        lu, ok, lost = _m_eliminate(a)
        if lost:
            d[lost] = np.diagonal(a[lost], axis1=1, axis2=2)
            lu[lost], ok[lost], _ = _m_eliminate(a[lost] / d[lost, :, None])
    return lu, ok, d


def m_inverse(lu: np.ndarray) -> np.ndarray:
    """Inverses from a stack of ``m_factor``'s packed factors, all columns
    at once.

    Every substitution step adds a product of two nonpositive numbers to a
    nonnegative one, so no cancellation occurs: each result is entrywise
    >= 0 and is exactly zero where the digraph of A has no path i -> j.
    """
    n = lu.shape[1]
    x = np.broadcast_to(np.eye(n), lu.shape).copy()
    for i in range(1, n):  # L Y = I, L unit lower
        x[:, i] -= (lu[:, i, None, :i] @ x[:, :i])[:, 0]
    for i in range(n - 1, -1, -1):  # U X = Y
        x[:, i] -= (lu[:, i, None, i + 1:] @ x[:, i + 1:])[:, 0]
        x[:, i] /= lu[:, i, i, None]
    return x
