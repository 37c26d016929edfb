"""Perron roots, minimum M-matrix eigenvalues, Jacobi radii and inverses.

The spectral radius of a nonnegative matrix is computed by power iteration
with a Collatz–Wielandt bracket; no library eigensolver is involved, so the
test suite can cross-check against one independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lu
from .core import _scc_blocks, as_matrix
from .errors import ClassMismatchError, ConvergenceError

__all__ = [
    "SpectralConfig",
    "SpectralResult",
    "rho_nonnegative",
    "tau_m_matrix",
    "inverse",
    "jacobi_radius",
]


@dataclass(frozen=True)
class SpectralConfig:
    rel_tol: float = 1e-12
    max_iter: int = 100000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_CONFIG = SpectralConfig()


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


def _power_perron(a: np.ndarray, cfg: SpectralConfig, below: float = -math.inf):
    """Power iteration on the primitive shift a + cI, c = max entry of a.

    The shift scales with a, so the iteration count and the relative
    accuracy do not depend on the scale of the input (a is irreducible of
    order >= 2 here, so c > 0).

    Returns (rho, vector, iterations, residual).  The shifted matrix is
    squared _SQUARINGS times first (with max-entry normalization against
    overflow); its Perron vector is unchanged and the Collatz–Wielandt
    ratios still bracket the root, which the original root is recovered
    from by a 2^k-th root.  Convergence needs both the bracket width and
    the step change below rel_tol relative to the returned value, and the
    reported residual is the final bracket width on that scale.  The
    iteration also stops once the upper bracket, mapped back to a's root,
    is strictly below ``below``: a's root then cannot be the larger one.
    """
    n = a.shape[0]
    c = float(a.max())
    m = a + c * np.eye(n)
    # invariant: rho(m) = exp(log_scale) * rho(m_pow)^(1/2^e)
    log_scale = 0.0
    m_pow = m
    for e in range(_SQUARINGS):
        s = float(m_pow.max())
        scaled = m_pow / s
        m_pow = scaled @ scaled
        log_scale += math.log(s) / 2.0 ** e
    scale2 = 2.0 ** _SQUARINGS

    def root(h):  # the root of a that the ratio h of m_pow stands for
        return math.exp(log_scale + math.log(h) / scale2) - c

    width_tol = cfg.rel_tol * scale2
    v = np.ones(n)
    lam_prev = np.inf
    hi = 1.0
    width = np.inf
    for k in range(1, cfg.max_iter + 1):
        w = m_pow @ v
        ratios = w / v  # v stays > 0: positive diagonal
        hi = float(ratios.max())
        lo = float(ratios.min())
        width = (hi - lo) / hi
        if (width <= width_tol and abs(hi - lam_prev) <= width_tol * hi
                or root(hi) < below):
            return root(hi), w / w.max(), k, width / scale2
        lam_prev = hi
        v = w / float(w.max())
    raise ConvergenceError(
        f"power iteration did not converge in {cfg.max_iter} iterations",
        best_estimate=root(hi),
    )


def rho_nonnegative(a, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralResult:
    """Perron root of a nonnegative matrix.

    Irreducible inputs get the positive eigenvector as well; reducible ones
    are split into strongly connected blocks and the maximum block root is
    returned without a vector.  The 1x1 blocks go first, so a larger block
    whose bracket falls below the best root so far is abandoned early; the
    residual is then the bracket width of the block that holds the root.
    """
    a = as_matrix(a)
    if np.any(a < 0.0):
        raise ClassMismatchError("not nonnegative")
    n = a.shape[0]
    if n == 1:
        val = float(a[0, 0])
        vec = np.ones(1) if val != 0.0 else None
        return SpectralResult(val, vec, 0, 0.0)
    blocks = _scc_blocks(a)
    if len(blocks) == 1:
        rho, vec, iters, width = _power_perron(a, cfg)
        return SpectralResult(rho, vec, iters, width)
    best = 0.0
    iters = 0
    width = 0.0
    for idx in sorted(blocks, key=len):
        if len(idx) == 1:
            best = max(best, float(a[idx[0], idx[0]]))
            continue
        r, _, k, w = _power_perron(a[np.ix_(idx, idx)], cfg, best)
        iters += k
        if r > best:
            best, width = r, w
    return SpectralResult(best, None, iters, width)


def inverse(a) -> np.ndarray:
    """Matrix inverse via LU with partial pivoting."""
    return _lu.inverse(as_matrix(a))


def tau_m_matrix(a, cfg: SpectralConfig = DEFAULT_CONFIG) -> SpectralResult:
    """Minimum eigenvalue of a nonsingular M-matrix, as 1/rho(a^-1).

    One unpivoted elimination is both the class gate and the factorization
    the inverse is formed from; that inverse is entrywise nonnegative by
    construction, so the Perron machinery applies and its eigenvector
    doubles as the eigenvector here.
    """
    lu = _lu.m_factor(as_matrix(a))
    if lu is None:
        raise ClassMismatchError("not a nonsingular M-matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _lu.m_inverse(lu)
    if not np.all(np.isfinite(inv)):
        raise ValueError("the inverse of this M-matrix overflows float64")
    r = rho_nonnegative(inv, cfg)
    return SpectralResult(1.0 / r.value, r.eigenvector, r.iterations, r.residual)


def jacobi_radius(a, cfg: SpectralConfig = DEFAULT_CONFIG) -> float:
    """Spectral radius of I - D^-1 A (D = diagonal part).

    Needs nonzero diagonal; for matrices with nonpositive off-diagonal and
    positive diagonal the iteration matrix is nonnegative.
    """
    a = as_matrix(a)
    d = np.diag(a)
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry")
    j = -a / d[:, None]
    np.fill_diagonal(j, 0.0)
    return rho_nonnegative(j, cfg).value
