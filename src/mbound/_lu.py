"""Hand-rolled dense elimination for desk-scale matrices.

Two kernels live here.  ``lu_factor`` eliminates with partial pivoting
and serves general matrices; ``inverse`` reads its factors.  ``m_factor``/
``m_inverse`` eliminate Z-matrices without pivoting, each one equilibrated
as E·A·E with E a diagonal of powers of two: that is the nonsingular
M-matrix gate (all pivots positive) at every scale and, from the same
packed factors, an inverse that is entrywise >= 0 with exact structural
zeros.  They take a (k, n, n) stack, loop over the pivot index and
vectorize over k; a single matrix is a stack of one.
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


def m_factor(a: np.ndarray):
    """Unpivoted LU of E·A·E for each slice A of a (k, n, n) stack of
    Z-matrices, with E = diag(a_ii)^(-1/2) rounded to powers of two.

    Returns (lu, ok, e): ``lu`` packs the factors of E·A·E, ``ok[i]`` says
    whether slice i is a nonsingular M-matrix, and ``e`` holds each
    slice's E.  A Z-matrix is one iff elimination without pivoting meets
    only positive pivots (Berman & Plemmons, ch. 6, Thm 2.3), and E·A·E is
    one iff A is.  Each pivot must exceed M_PIVOT_REL times its own
    diagonal entry, which lies in [1/4, 1), so the test is dimensionless.
    A row or column scaling S of A acts on E·A·E as a diagonal similarity
    by about S^(1/2): the pivots stay, and each multiplier and update
    moves by at most the square root of the scale ratios, so a badly
    scaled A neither overflows nor underflows where its own elimination
    would.  Scaling by powers of two is exact, so where A's own elimination
    stays in range these factors are its factors scaled by E, bit for bit.
    A slice with a positive off-diagonal entry, a nonpositive diagonal
    entry or a failed pivot leaves the stack.  Schur complements of a
    Z-matrix are Z-matrices, so L and the off-diagonal of U stay <= 0 in
    floating point as well.  No floating-point warning is raised, and
    every slice gets the same bits as a stack of one.
    """
    n = a.shape[1]
    # a Z-matrix with a positive diagonal: a > 0 exactly on the diagonal
    ok = ~np.any((a > 0.0) != np.eye(n, dtype=bool), axis=(1, 2))
    e = np.ldexp(1.0, np.frexp(np.diagonal(a, axis1=1, axis2=2))[1] // -2)
    with np.errstate(all="ignore"):
        lu = a * e[:, :, None] * e[:, None, :]
        floor = M_PIVOT_REL * np.diagonal(lu, axis1=1, axis2=2)
        live = np.flatnonzero(ok)
        work = lu[live]
        for j in range(n):
            piv = work[:, j, j]
            passed = piv > floor[live, j]
            if not passed.all():
                ok[live[~passed]] = False
                live, work, piv = live[passed], work[passed], piv[passed]
            work[:, j + 1:, j] /= piv[:, None]
            work[:, j + 1:, j + 1:] -= (work[:, j + 1:, j, None]
                                        * work[:, j, None, j + 1:])
    lu[live] = work
    return lu, ok, e


def m_inverse(lu: np.ndarray, e: np.ndarray) -> np.ndarray:
    """A⁻¹ = E·(E·A·E)⁻¹·E for each slice of a stack of ``m_factor``'s
    packed factors and scalings, all columns at once.

    Every substitution step adds a product of two nonpositive numbers to a
    nonnegative one, so no cancellation occurs: each result is entrywise
    >= 0 and is exactly zero where the digraph of A has no path i -> j.
    An entry beyond float64 range comes out non-finite, without a warning.
    """
    n = lu.shape[1]
    x = np.eye(n) * e[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):  # L Y = E, L unit lower
            x[:, i] -= (lu[:, i, None, :i] @ x[:, :i])[:, 0]
        for i in range(n - 1, -1, -1):  # U X = Y
            x[:, i] -= (lu[:, i, None, i + 1:] @ x[:, i + 1:])[:, 0]
            x[:, i] /= lu[:, i, i, None]
        return x * e[:, :, None]
