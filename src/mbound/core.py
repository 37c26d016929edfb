"""Dense square matrices, entrywise products, and structural classification.

Matrices are plain float64 numpy arrays of shape (n, n).  ``as_matrix`` is
the single validation gate, run where input enters: the public functions
and ``harness.Family.evaluate`` route their inputs through it.  The
products (``_hadamard``, ``_fan_product``, ``_fan_power``) and
``_scale_similarity`` take arrays that are already checked; the products
reach users only through ``harness.FAMILIES``.  ``_scc_blocks`` is the
package's one graph routine: irreducibility and the block split of a
reducible Perron root both come from the strongly connected blocks it
finds for a whole stack at once.  ``_stacks`` pads the arrays of a list
to their bucket orders, so that the spectral solvers and the ladders and
checks of a suite stack orders 1–4, 5–8 and 9–12 together.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lu

__all__ = [
    "MatrixClassification",
    "as_matrix",
    "classify",
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


def _fan_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _same_order(a, b)
    with np.errstate(over="ignore"):
        out = -(a * b)
        np.fill_diagonal(out, np.diag(a) * np.diag(b))
    return _finite(out, "Fan product")


def _fan_power(a: np.ndarray, p: int) -> np.ndarray:
    if p == 1:
        return a.copy()
    with np.errstate(over="ignore"):
        out = -np.abs(a) ** p
        np.fill_diagonal(out, np.diag(a) ** p)
    return _finite(out, f"Fan power of order {p}")


def _offdiag_abs(a: np.ndarray) -> np.ndarray:
    """|a| with a zero diagonal, for a matrix or each slice of a stack: the
    off-diagonal magnitudes that row sums, row maxima and dominance tests
    read."""
    off = np.abs(a)
    idx = np.arange(a.shape[-1])
    off[..., idx, idx] = 0.0
    return off


def _scc_blocks(a: np.ndarray, orders=None):
    """Per slice of a (k, N, N) stack, the strongly connected components of
    the off-diagonal nonzero digraph (exact zero threshold) of its leading
    block of order ``orders[i]`` (N when orders is None), as sorted index
    lists ordered by first index.  The rest of a slice is a zero pad
    (``_stacks``): its nodes have no edges, so they change no path between
    the slice's own nodes and are dropped.

    Boolean squaring of I + adjacency reaches the transitive closure of
    every slice in about log2(N) stacked products; i and j share a block
    iff each reaches the other, and each node is labelled by the first
    node it mutually reaches.  A slice whose closure is full on its own
    nodes is one block.
    """
    k, n, _ = a.shape
    reach = (a != 0.0) | np.eye(n, dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            break
        reach = nxt
    labels = (reach & reach.transpose(0, 2, 1)).argmax(axis=2).tolist()
    out = []
    # a pad node reaches only itself, so a slice's closure is full on its
    # own m nodes iff it holds m·m + (N − m) pairs
    for pairs, m, row in zip(reach.sum(axis=(1, 2)).tolist(),
                             [n] * k if orders is None else orders, labels):
        if pairs == m * m + n - m:
            out.append([list(range(m))])
            continue
        blocks = {}  # first node -> block, in order of first node
        for i, first in enumerate(row[:m]):
            blocks.setdefault(first, []).append(i)
        out.append(list(blocks.values()))
    return out


PAD = 4  # a stack of ``_stacks`` has an order that is a multiple of PAD


def _stacks(mats, diag: float = 0.0):
    """The square arrays of a list, of any orders, as stacks: per bucket
    order N = PAD·⌈n/PAD⌉, (indices, orders, (k, N, N) stack), each array in
    the leading block of its slice and ``diag`` on the rest of the
    diagonal.  A zero pad (diag 0) adds nodes without edges and keeps the
    Perron root; an identity pad (diag 1) keeps the M-matrix class, and
    the inverse's leading block is the array's inverse.  The bucket of an
    array depends only on its own order, so each slice gets the same bits
    in any call as alone."""
    groups = {}
    for i, a in enumerate(mats):
        groups.setdefault(-(-a.shape[0] // PAD) * PAD, []).append(i)
    for size, idx in groups.items():
        orders = [mats[i].shape[0] for i in idx]
        stack = np.zeros((len(idx), size, size))
        if diag:
            stack[:] = diag * np.eye(size)  # each array overwrites its block
        for s, i, n in zip(stack, idx, orders):
            s[:n, :n] = mats[i]
        yield idx, orders, stack


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
