"""Perron roots, minimum M-matrix eigenvalues and Jacobi matrices.

The spectral radius of a nonnegative matrix is computed by power iteration
with a Collatz–Wielandt bracket; no library eigensolver is involved, so the
test suite can cross-check against one independently.

``solve`` takes a list of problems, ρ of a nonnegative matrix or τ of a
nonsingular M-matrix, and solves all those of one order as one (k, n, n)
stack: one stacked elimination and inverse (``_lu.m_factor``/``m_inverse``)
for the τ problems, then one stacked Perron iteration for the ρ problems
and the τ inverses together.  Every slice gets the same bits as a stack of
one, and an error belongs to its own problem.  ``rho_nonnegative`` and
``tau_m_matrix`` are stacks of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lu
from .core import _by_order, _scc_blocks, as_matrix
from .errors import ClassMismatchError, ConvergenceError, unwrap

__all__ = [
    "SpectralResult",
    "rho_nonnegative",
    "tau_m_matrix",
    "solve",
]


REL_TOL = 1e-12
MAX_ITER = 100000


@dataclass(frozen=True)
class SpectralResult:
    """An eigen-extremum with convergence metadata.

    ``eigenvector`` is present only when the input was irreducible; it is
    strictly positive and normalized to max-norm 1.
    """

    value: float
    eigenvector: Optional[np.ndarray]
    iterations: int
    residual: float


_SQUARINGS = 6  # power-iterate m^(2^6): same bracket, 64x the convergence rate


@np.errstate(divide="ignore", invalid="ignore")
def _power_perron(a: np.ndarray, below=None):
    """Power iteration on the primitive shift a + cI, c = max entry of a,
    for each slice of a (k, n, n) stack.

    The shift scales with a, so the iteration count and the relative
    accuracy do not depend on the scale of the input (each slice is
    irreducible of order >= 2 here, so c > 0).

    Returns per slice (rho, vector, iterations, residual), or a
    ConvergenceError carrying the best estimate when the slice has not
    converged after MAX_ITER rounds.  The shifted matrix is squared
    _SQUARINGS times first (with max-entry normalization against
    overflow); its Perron vector is unchanged and the Collatz–Wielandt
    ratios still bracket the root, which the original root is recovered
    from by a 2^k-th root.  Convergence needs both the bracket width and
    the step change below REL_TOL relative to the returned value, and the
    reported residual is the final bracket width on that scale.  A slice
    also stops once its upper bracket, mapped back to a's root, is
    strictly below its entry of ``below``: a's root then cannot be the
    larger one.  A slice whose bracket width is NaN stops with a
    ConvergenceError at once: an entry of its iterate left float64 range,
    and no later round can recover it.  Slices that stop leave the stack.
    The logarithms are taken per slice with ``math``, and everything else
    is elementwise or a per-slice product, so each slice gets the same bits
    as a stack of one.
    """
    k, n, _ = a.shape
    c = a.max(axis=(1, 2))
    m_pow = a + c[:, None, None] * np.eye(n)
    # invariant: rho(m) = exp(log_scale) * rho(m_pow)^(1/2^e)
    maxima = []
    for e in range(_SQUARINGS):
        s = m_pow.max(axis=(1, 2))
        scaled = m_pow / s[:, None, None]
        m_pow = scaled @ scaled
        maxima.append(s)
    log_scale = []
    for row in np.array(maxima).T.tolist():
        acc = 0.0
        for e, s in enumerate(row):
            acc += math.log(s) / 2.0 ** e
        log_scale.append(acc)
    c = c.tolist()
    scale2 = 2.0 ** _SQUARINGS

    def root(i, h):  # the root of slice i that the ratio h of m_pow stands for
        return math.exp(log_scale[i] + math.log(h) / scale2) - c[i]

    width_tol = REL_TOL * scale2
    out = [None] * k
    live = np.arange(k)
    v = np.ones((k, n))
    lam_prev = np.full(k, np.inf)
    for it in range(1, MAX_ITER + 1):
        w = (m_pow @ v[:, :, None])[:, :, 0]
        ratios = w / v  # v > 0 unless an entry underflowed
        hi = ratios.max(axis=1)
        width = (hi - ratios.min(axis=1)) / hi
        # a NaN width stops the slice too
        stop = ~((width > width_tol)
                 | (np.abs(hi - lam_prev) > width_tol * hi))
        if below is not None:
            for j, i in enumerate(live.tolist()):
                stop[j] |= root(i, float(hi[j])) < below[i]
        top = w.max(axis=1)
        if stop.any():
            for j in np.flatnonzero(stop).tolist():
                i = int(live[j])
                out[i] = (ConvergenceError(f"power iteration left float64 "
                                           f"range in round {it}",
                                           root(i, float(lam_prev[j])))
                          if math.isnan(width[j]) else
                          (root(i, float(hi[j])), w[j] / top[j], it,
                           float(width[j]) / scale2))
            keep = ~stop
            live, m_pow, w, hi, top = (live[keep], m_pow[keep], w[keep],
                                       hi[keep], top[keep])
            if not live.size:
                return out
        lam_prev = hi
        v = w / top[:, None]
    for j, i in enumerate(live.tolist()):
        out[i] = ConvergenceError(
            f"power iteration did not converge in {MAX_ITER} iterations",
            best_estimate=root(i, float(hi[j])),
        )
    return out


def _block_split(a: np.ndarray, blocks) -> SpectralResult:
    """Perron root of a reducible matrix from its strongly connected
    blocks: the 1x1 blocks go first, so a larger block whose bracket falls
    below the best root so far is abandoned early; the residual is then
    the bracket width of the block that holds the root."""
    best = 0.0
    iters = 0
    width = 0.0
    for idx in sorted(blocks, key=len):
        if len(idx) == 1:
            best = max(best, float(a[idx[0], idx[0]]))
            continue
        r = _power_perron(a[np.ix_(idx, idx)][None], [best])[0]
        if isinstance(r, ConvergenceError):
            return r
        iters += r[2]
        if r[0] > best:
            best, width = r[0], r[3]
    return SpectralResult(best, None, iters, width)


def _rho_stack(a: np.ndarray) -> list:
    """Per slice of a (k, n, n) stack of finite matrices, its Perron root
    as a SpectralResult, or the error it raises.

    Irreducible slices get the positive eigenvector as well and go through
    one stacked iteration; reducible ones are split into strongly
    connected blocks (``_block_split``) and get no vector.
    """
    k, n, _ = a.shape
    out = [None] * k
    negative = np.any(a < 0.0, axis=(1, 2))
    for i in np.flatnonzero(negative).tolist():
        out[i] = ClassMismatchError("not nonnegative")
    idx = np.flatnonzero(~negative).tolist()
    if n == 1:
        for i in idx:
            val = float(a[i, 0, 0])
            out[i] = SpectralResult(val, np.ones(1) if val != 0.0 else None,
                                    0, 0.0)
        return out
    whole = []
    for i, blocks in zip(idx, _scc_blocks(a[idx])):
        if len(blocks) == 1:
            whole.append(i)
        else:
            out[i] = _block_split(a[i], blocks)
    if whole:
        for i, r in zip(whole, _power_perron(a[whole])):
            out[i] = r if isinstance(r, ConvergenceError) else SpectralResult(*r)
    return out


def _m_inverses(a: np.ndarray) -> list:
    """Per slice of a (k, n, n) stack, its inverse from the unpivoted
    elimination that is also the M-matrix gate (entrywise >= 0, exactly 0
    wherever the digraph of the slice has no path), or the error it
    raises: ClassMismatchError for a slice that fails the gate, ValueError
    for an inverse that overflows float64."""
    lu, ok, e = _lu.m_factor(a)
    inv = _lu.m_inverse(lu[ok], e[ok])
    finite = np.isfinite(inv).all(axis=(1, 2)).tolist()
    out = []
    j = 0
    for good in ok.tolist():
        if not good:
            out.append(ClassMismatchError("not a nonsingular M-matrix"))
            continue
        out.append(inv[j] if finite[j] else
                   ValueError("the inverse of this M-matrix overflows float64"))
        j += 1
    return out


def solve(problems) -> list:
    """Solve spectral problems, each ("rho", a) for the Perron root of a
    nonnegative a or ("tau", a) for the minimum eigenvalue of a
    nonsingular M-matrix a, with a a finite square float64 array.

    Returns per problem, in order, its SpectralResult, or the exception it
    raises when solved alone (see ``errors.unwrap``).  The problems of one
    order are one stack: the τ problems are factored and inverted
    together, and their inverses join the ρ problems in one Perron
    iteration.  τ(a) is 1/ρ(a⁻¹); a⁻¹ is entrywise >= 0, so its Perron
    vector is the eigenvector of a.
    """
    out = [None] * len(problems)
    for idx in _by_order([a for _, a in problems]).values():
        slots, stack = [], []
        taus = [i for i in idx if problems[i][0] == "tau"]
        if taus:
            for i, inv in zip(taus, _m_inverses(np.stack([problems[i][1]
                                                         for i in taus]))):
                if isinstance(inv, Exception):
                    out[i] = inv
                else:
                    slots.append(i)
                    stack.append(inv)
        for i in idx:
            if problems[i][0] == "rho":
                slots.append(i)
                stack.append(problems[i][1])
        if not stack:
            continue
        for i, r in zip(slots, _rho_stack(np.stack(stack))):
            if problems[i][0] == "tau" and isinstance(r, SpectralResult):
                r = SpectralResult(1.0 / r.value, r.eigenvector, r.iterations,
                                   r.residual)
            out[i] = r
    return out


def rho_nonnegative(a) -> SpectralResult:
    """Perron root of a nonnegative matrix.

    Irreducible inputs get the positive eigenvector as well; reducible ones
    are split into strongly connected blocks and the maximum block root is
    returned without a vector.
    """
    return unwrap(solve([("rho", as_matrix(a))])[0])


def tau_m_matrix(a) -> SpectralResult:
    """Minimum eigenvalue of a nonsingular M-matrix, as 1/rho(a^-1)."""
    return unwrap(solve([("tau", as_matrix(a))])[0])


def _jacobi_matrix(a: np.ndarray) -> np.ndarray:
    """I - D^-1 A (D = diagonal part); ValueError on a zero diagonal entry."""
    d = np.diag(a)
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry")
    j = -a / d[:, None]
    np.fill_diagonal(j, 0.0)
    return j
