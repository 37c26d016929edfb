"""Dense square matrices, entrywise products, and structural classification.

Matrices are plain float64 numpy arrays of shape (n, n).  ``as_matrix`` is
the single validation gate, run where input enters: every public operation
routes its inputs through it, and the private kernels (``_hadamard``,
``_fan_product``, ``_fan_power``, ``_scale_similarity``) take arrays that
are already checked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lu

__all__ = [
    "MatrixClassification",
    "as_matrix",
    "hadamard",
    "fan_product",
    "fan_power",
    "classify",
    "cyclic_permutation",
    "perturb_cyclic",
]


@dataclass(frozen=True)
class MatrixClassification:
    """Structural predicate bundle for one matrix."""

    nonnegative: bool
    z_matrix: bool
    nonsingular_m_matrix: bool
    irreducible: bool
    strictly_row_dd: bool


def as_matrix(obj) -> np.ndarray:
    """Validate and normalize to a square, finite float64 array.

    Accepts anything ``np.asarray`` does.  Raises ValueError for non-square
    shapes or non-finite entries.
    """
    a = np.array(obj, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _same_order(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError("order mismatch")


def _finite(out: np.ndarray, what: str) -> np.ndarray:
    """out, or a ValueError naming ``what`` when out left float64 range."""
    if not np.isfinite(out).all():
        raise ValueError(f"the {what} overflows float64")
    return out


def _hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _same_order(a, b)
    with np.errstate(over="ignore"):
        out = a * b
    return _finite(out, "Hadamard product")


def hadamard(a, b) -> np.ndarray:
    """Entrywise product a_ij * b_ij."""
    return _hadamard(as_matrix(a), as_matrix(b))


def _fan_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _same_order(a, b)
    with np.errstate(over="ignore"):
        out = -(a * b)
        np.fill_diagonal(out, np.diag(a) * np.diag(b))
    return _finite(out, "Fan product")


def fan_product(a, b) -> np.ndarray:
    """Diagonal a_ii*b_ii, off-diagonal -a_ij*b_ij.

    Meaningful when both inputs have nonpositive off-diagonals (the result
    then keeps that sign pattern); not enforced here.
    """
    return _fan_product(as_matrix(a), as_matrix(b))


def _fan_power(a: np.ndarray, p: int) -> np.ndarray:
    if p == 1:
        return a.copy()
    with np.errstate(over="ignore"):
        out = -np.abs(a) ** p
        np.fill_diagonal(out, np.diag(a) ** p)
    return _finite(out, f"Fan power of order {p}")


def fan_power(a, p: int) -> np.ndarray:
    """p-fold self fan product: diagonal a_ii**p, off-diagonal -|a_ij|**p.

    p == 1 returns an exact copy (no arithmetic touches the entries).
    """
    a = as_matrix(a)
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError("exponent must be a positive integer")
    return _fan_power(a, p)


def _offdiag_abs(a: np.ndarray) -> np.ndarray:
    """|a| with a zero diagonal, for a matrix or each slice of a stack: the
    off-diagonal magnitudes that row sums, row maxima and dominance tests
    read."""
    off = np.abs(a)
    idx = np.arange(a.shape[-1])
    off[..., idx, idx] = 0.0
    return off


def _scc_blocks(a: np.ndarray):
    """Per slice of a (k, n, n) stack, the strongly connected components of
    the off-diagonal nonzero digraph (exact zero threshold), as sorted
    index lists ordered by first index.  This is the package's one graph
    routine: irreducibility and the block split of a reducible Perron root
    both come from it.

    Boolean squaring of I + adjacency reaches the transitive closure of
    every slice in about log2(n) stacked products; i and j share a block
    iff each reaches the other.  A slice whose closure is full is one
    block.
    """
    n = a.shape[1]
    reach = (a != 0.0) | np.eye(n, dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            break
        reach = nxt
    out = []
    for r, full in zip(reach, reach.all(axis=(1, 2))):
        if full:
            out.append([list(range(n))])
            continue
        mutual = r & r.T
        blocks = []
        seen = np.zeros(n, dtype=bool)
        for i in range(n):
            if not seen[i]:
                members = np.flatnonzero(mutual[i])
                seen[members] = True
                blocks.append(members.tolist())
        out.append(blocks)
    return out


def _by_order(mats):
    """{n: indices} of a list of square arrays, grouping those of one order
    so that each group can be stacked."""
    groups = {}
    for i, a in enumerate(mats):
        groups.setdefault(a.shape[0], []).append(i)
    return groups


def classify(a) -> MatrixClassification:
    """Compute all structural predicates for one matrix.

    The M-matrix test requires nonpositive off-diagonals plus positive
    pivots in the unpivoted elimination of the equilibrated E·A·E
    (``_lu.m_factor``), each pivot measured against its own diagonal
    entry, so the verdict does not change when the matrix, its rows or its
    columns are scaled.
    """
    a = as_matrix(a)
    n = a.shape[0]
    nonnegative = bool(np.all(a >= 0.0))
    z_matrix = bool(np.all((a <= 0.0) | np.eye(n, dtype=bool)))
    m_matrix = z_matrix and bool(_lu.m_factor(a[None])[1][0])
    strictly_dd = bool(np.all(np.abs(np.diag(a))
                              > _offdiag_abs(a).sum(axis=1)))
    return MatrixClassification(
        nonnegative=nonnegative,
        z_matrix=z_matrix,
        nonsingular_m_matrix=m_matrix,
        irreducible=(bool(a[0, 0] != 0.0) if n == 1
                     else len(_scc_blocks(a[None])[0]) == 1),
        strictly_row_dd=strictly_dd,
    )


def _scale_similarity(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D^-1 A D of a matrix, or of each slice of a stack with d one row
    per slice."""
    return a * (d[..., None, :] / d[..., :, None])


def cyclic_permutation(n: int) -> np.ndarray:
    """The permutation matrix with ones at (1,2),(2,3),...,(n,1)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    p = np.zeros((n, n))
    for i in range(n):
        p[i, (i + 1) % n] = 1.0
    return p


def perturb_cyclic(a, eps: float, sign: int = 1) -> np.ndarray:
    """a + sign*eps*P with P the cyclic permutation; irreducible for eps>0, n>=2."""
    a = as_matrix(a)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return a + sign * eps * cyclic_permutation(a.shape[0])
