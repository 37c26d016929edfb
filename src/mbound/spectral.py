"""Perron roots, minimum M-matrix eigenvalues and Jacobi matrices.

The spectral radius of a nonnegative matrix is computed by power iteration
with a Collatz–Wielandt bracket; no library eigensolver is involved, so the
test suite can cross-check against one independently.

``solve`` takes a list of problems of any orders, ρ of a nonnegative matrix
or τ of a nonsingular M-matrix.  Every stack is padded to its bucket order
N = 4·⌈n/4⌉ (``core._stacks``), so orders 1–4, 5–8 and 9–12 share a
stack.  The τ problems of one bucket are one stacked elimination and
inverse (``_lu.m_factor``/``m_inverse``) with an identity pad.  Their
inverses and the ρ problems go to one Perron driver (``_perron``), which
iterates every irreducible matrix and every strongly connected block of a
reducible one in one zero-padded stack per bucket and wave.  A block's
bucket depends only on its own order, so every block gets the same bits
in any call as a stack of one, and an error belongs to its own problem.
``rho_nonnegative`` and ``tau_m_matrix`` are stacks of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lu
from .core import _scc_blocks, _stacks, as_matrix
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
def _power_perron(a: np.ndarray, orders, below):
    """Power iteration on the primitive shift a + cI, c = max entry of a,
    for each slice of a (k, N, N) stack whose slice i is a zero-padded
    irreducible matrix of order ``orders[i]`` (``core._stacks``).

    The shift goes on the slice's own diagonal only, and the pad entries
    of the iterate start at 0, so they stay 0: the pad never feeds the
    slice's own rows.  A mask keeps their ratios (0/0) out of the
    Collatz–Wielandt bracket, and the vector is cut back to order
    ``orders[i]``.

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
    as a stack of one.  ``below`` holds a floor or None per slice.
    """
    k, n, _ = a.shape
    real = np.arange(n) < np.asarray(orders)[:, None]  # (k, N)
    c = a.max(axis=(1, 2))
    m_pow = a + c[:, None, None] * (np.eye(n) * real[:, None, :])
    # invariant: rho(m) = exp(log_scale) * rho(m_pow)^(1/2^e)
    maxima = []
    for e in range(_SQUARINGS):
        s = np.maximum.reduce(m_pow, axis=(1, 2))
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
    floored = np.array([f is not None for f in below])
    any_floor = bool(floored.any())
    out = [None] * k
    live = np.arange(k)
    v = real.astype(float)
    lam_prev = np.full(k, np.inf)
    for it in range(1, MAX_ITER + 1):
        w = (m_pow @ v[:, :, None])[:, :, 0]
        ratios = w / v  # v > 0 unless an entry underflowed; 0/0 on the pad
        hi = np.maximum.reduce(ratios, axis=1, where=real, initial=-np.inf)
        lo = np.minimum.reduce(ratios, axis=1, where=real, initial=np.inf)
        width = (hi - lo) / hi
        # a NaN width stops the slice too
        stop = ~((width > width_tol)
                 | (np.abs(hi - lam_prev) > width_tol * hi))
        if any_floor:
            for j in np.flatnonzero(floored).tolist():
                stop[j] |= root(live[j], float(hi[j])) < below[live[j]]
        top = np.maximum.reduce(w, axis=1)
        if stop.any():
            for j in np.flatnonzero(stop).tolist():
                i = int(live[j])
                out[i] = (ConvergenceError(f"power iteration left float64 "
                                           f"range in round {it}",
                                           root(i, float(lam_prev[j])))
                          if math.isnan(width[j]) else
                          (root(i, float(hi[j])), w[j, :orders[i]] / top[j],
                           it, float(width[j]) / scale2))
            keep = ~stop
            live, m_pow, w, hi, top, floored, real = (
                live[keep], m_pow[keep], w[keep], hi[keep], top[keep],
                floored[keep], real[keep])
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


def _root(a: np.ndarray, blocks):
    """Perron root of a from its strongly connected blocks, as a generator
    that yields each block of order >= 2 with its floor and is sent that
    block's ``_power_perron`` outcome.  One block is a itself, with no
    floor.  Otherwise the floor is the best root so far, from the largest
    1x1 block and 0.0 on; blocks go in order of size, so one whose bracket
    falls below it is abandoned early.  The root then has no vector, and
    the residual is its block's bracket width.  A ConvergenceError ends it."""
    if len(blocks) == 1:
        r = yield a, None
        return r if isinstance(r, ConvergenceError) else SpectralResult(*r)
    best = max([0.0] + [float(a[b[0], b[0]]) for b in blocks if len(b) == 1])
    iters, width = 0, 0.0
    for idx in sorted(blocks, key=len):
        if len(idx) > 1:
            ix = np.array(idx)
            r = yield a[ix[:, None], ix], best
            if isinstance(r, ConvergenceError):
                return r
            iters += r[2]
            if r[0] > best:
                best, width = r[0], r[3]
    return SpectralResult(best, None, iters, width)


def _perron(mats) -> list:
    """Per finite square array of ``mats``, of any orders, its Perron root
    as a SpectralResult, or the error it raises.

    The arrays are gated and split into blocks in one zero-padded stack
    per bucket order.  The blocks of all arrays (``_root``) go in waves:
    wave 0 holds every irreducible array and the first block of each
    reducible one, wave w the w-th block of each reducible array still
    running.  Each bucket of block orders in a wave is one
    ``_power_perron`` stack.
    """
    out = [None] * len(mats)
    wave = []  # (array index, its generator, what to send it)
    for idx, orders, a in _stacks(mats):
        good = []
        for j, (i, n, negative) in enumerate(zip(
                idx, orders, np.any(a < 0.0, axis=(1, 2)).tolist())):
            if negative:
                out[i] = ClassMismatchError("not nonnegative")
            elif n > 1:
                good.append(j)
            else:
                val = float(a[j, 0, 0])
                out[i] = SpectralResult(
                    val, np.ones(1) if val != 0.0 else None, 0, 0.0)
        for j, blocks in zip(good, _scc_blocks(a[good],
                                               [orders[j] for j in good])):
            wave.append((idx[j], _root(mats[idx[j]], blocks), None))
    while wave:
        jobs = []  # (array index, generator, block, floor)
        for i, gen, sent in wave:
            try:
                jobs.append((i, gen, *gen.send(sent)))
            except StopIteration as done:
                out[i] = done.value
        wave = []
        for group, orders, a in _stacks([job[2] for job in jobs]):
            res = _power_perron(a, orders, [jobs[g][3] for g in group])
            wave += [(*jobs[g][:2], r) for g, r in zip(group, res)]
    return out


def _m_inverses(mats) -> list:
    """Per square array of ``mats``, of any orders, its inverse from the
    unpivoted elimination that is also the M-matrix gate (entrywise >= 0,
    exactly 0 wherever the digraph of the array has no path), or the error
    it raises: ClassMismatchError for an array that fails the gate,
    ValueError for an inverse that overflows float64.  Each bucket order
    is one identity-padded stack (``core._stacks``): the pad passes the
    gate, and the leading block of the inverse is the array's inverse."""
    out = [None] * len(mats)
    for idx, orders, a in _stacks(mats, diag=1.0):
        lu, ok, e = _lu.m_factor(a, max(orders))
        inv = _lu.m_inverse(lu[ok], e[ok], max(orders))
        finite = np.isfinite(inv).all(axis=(1, 2)).tolist()
        j = 0
        for i, n, good in zip(idx, orders, ok.tolist()):
            if not good:
                out[i] = ClassMismatchError("not a nonsingular M-matrix")
                continue
            out[i] = (inv[j, :n, :n] if finite[j] else ValueError(
                "the inverse of this M-matrix overflows float64"))
            j += 1
    return out


def solve(problems) -> list:
    """Solve spectral problems, each ("rho", a) for the Perron root of a
    nonnegative a or ("tau", a) for the minimum eigenvalue of a
    nonsingular M-matrix a, with a a finite square float64 array.

    Returns per problem, in order, its SpectralResult, or the exception it
    raises when solved alone (see ``errors.unwrap``).  The τ problems of
    one bucket order (4·⌈n/4⌉) are factored and inverted as one stack,
    and their inverses join the ρ problems of every order in one
    ``_perron`` call.  τ(a) is 1/ρ(a⁻¹); a⁻¹ is entrywise >= 0, so its
    Perron vector is the eigenvector of a.
    """
    out = [a for _, a in problems]
    taus = [i for i, (kind, _) in enumerate(problems) if kind == "tau"]
    for i, inv in zip(taus, _m_inverses([out[i] for i in taus])):
        out[i] = inv
    good = [i for i, a in enumerate(out) if not isinstance(a, Exception)]
    for i, r in zip(good, _perron([out[i] for i in good])):
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
