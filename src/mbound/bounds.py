"""Every bound formula: upper bounds on rho of a Hadamard product of
nonnegative matrices, lower bounds on tau of Fan products and of A∘B⁻¹ for
M-matrices, the multi-matrix Hölder-exponent bound, the auxiliary row-chain
quantities, and ovals-of-Cassini membership.

Bound naming scheme (also the ``BoundResult.name`` strings):

====================  ======================================================
rho_product           rho(A)·rho(B)
rho_affine            max_i affine diagonal correction
rho_oval_deficit      pairwise oval with full spectral deficits
rho_oval_rowmax       pairwise oval, off-diagonal row maxima in the radicand
tau_product           tau(A)·tau(B)
tau_affine            min_i affine diagonal correction
tau_oval_deficit      pairwise oval with full tau deficits
tau_oval_rowmax       pairwise oval, off-diagonal row maxima
tau_hinv_diag_floor   tau(A)·min beta_ii
tau_hinv_jacobi_ratio Jacobi-contraction times min diagonal ratio
tau_hinv_chain        row-chain bound on the dominance-scaled denominator
tau_hinv_jacobi_oval  pairwise oval with Jacobi-radius cross term
tau_hinv_deficit_oval pairwise oval with tau deficits (two variants)
tau_multi_fan         Hölder-exponent bound for an m-fold Fan product
====================  ======================================================

Every oval rung is one pairwise form (``_oval``) whose radicand factors as
4·u_i·v_j, with u and v one entry per index; the scan runs over ordered
pairs i != j in row-major order, and ties keep the first pair.

No formula loops over matrix indices.  Every off-diagonal sum or maximum
reads one magnitude, |A| with a zero diagonal (``core._offdiag_abs``), and
the row chain's sum over k != j, i is one rank-one identity:
Σ_{k≠j,i} |a_jk| r_k = (|A|_off · r)_j − |a_ji| r_i.

There is one clamp rule, ``_clamp_nonneg``: a quantity that is nonnegative
in exact arithmetic (the oval factors u and v, the multi-Fan deficit
brackets) is clamped at zero per index, and logged only when it is below
rounding on the scale of its own terms, so the rule does not depend on the
scale of the input.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import _offdiag_abs, _pair, as_matrix, classify, scale_similarity

__all__ = [
    "BoundResult",
    "AuxChain",
    "DominanceScaling",
    "HolderExponents",
    "aux_chain",
    "dominance_scaling",
    "inverse_column_caps",
    "rho_bound_product",
    "rho_bound_affine",
    "rho_bound_oval_deficit",
    "rho_bound_oval_rowmax",
    "tau_bound_product",
    "tau_bound_affine",
    "tau_bound_oval_deficit",
    "tau_bound_oval_rowmax",
    "tau_hinv_diag_floor",
    "tau_hinv_jacobi_ratio",
    "tau_hinv_chain",
    "tau_hinv_jacobi_oval",
    "tau_hinv_deficit_oval",
    "tau_multi_fan",
    "cassini_contains",
]

log = logging.getLogger("mbound.bounds")

# warn only when the clamped magnitude is beyond accumulated-rounding scale
CLAMP_WARN = 1e-10


def _clamp_nonneg(w: np.ndarray, scale: float) -> np.ndarray:
    """w, nonnegative in exact arithmetic, with negative entries set to
    zero; an entry below −CLAMP_WARN·scale is beyond rounding dust and is
    logged."""
    if w.min() < -CLAMP_WARN * scale:
        log.warning("clamping negative deficit %.6e to zero", w.min())
    return np.maximum(w, 0.0)


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: ``direction`` is "upper" or "lower"; components
    carries the intermediate quantities for report transparency."""

    name: str
    direction: str
    value: float
    components: dict


@dataclass(frozen=True)
class AuxChain:
    """Row-chain quantities of one matrix.

    r_pair[l, i] = |a_li| / (|a_ll| − Σ_{k≠l,i} |a_lk|)   (l ≠ i)
    r[i]         = max_{l≠i} r_pair[l, i]
    s_pair[j, i] = (|a_ji| + Σ_{k≠j,i} |a_jk|·r[k]) / |a_jj|
    s[i]         = max_{j≠i} s_pair[j, i]

    Defined only when every denominator is positive (guaranteed for
    strictly row diagonally dominant matrices).
    """

    r_pair: np.ndarray
    r: np.ndarray
    s_pair: np.ndarray
    s: np.ndarray


def _offdiag_rowmax(a: np.ndarray) -> np.ndarray:
    """Per-row maxima of the off-diagonal magnitudes; n = 1 gives zero."""
    return _offdiag_abs(a).max(axis=1)


def aux_chain(a) -> AuxChain:
    """The row chain of a; raises ValueError at the first row-major pair
    (l, i) whose r denominator is nonpositive.  The sum over k != j, i in
    s_pair is (|A|_off · r)_j − |a_ji| r_i, since |A|_off has a zero
    diagonal."""
    a = as_matrix(a)
    n = a.shape[0]
    off = _offdiag_abs(a)
    dg = np.abs(np.diag(a))
    den = dg[:, None] - (off.sum(axis=1)[:, None] - off)
    np.fill_diagonal(den, 1.0)  # off is 0 there, so r_pair's diagonal is 0
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        l, i = divmod(int(bad[0]), n)
        raise ValueError(f"denominator nonpositive at row {l}, column {i}")
    r_pair = off / den
    r = r_pair.max(axis=0)  # entries >= 0, so the zero diagonal never wins
    acc = (off @ r)[:, None] - off * r
    s_pair = np.divide(off + acc, dg[:, None], out=np.zeros((n, n)),
                       where=~np.eye(n, dtype=bool))
    return AuxChain(r_pair=r_pair, r=r, s_pair=s_pair, s=s_pair.max(axis=0))


def inverse_column_caps(a, chain: Optional[AuxChain] = None) -> np.ndarray:
    """Entrywise caps on the inverse of a strictly row-dominant M-matrix.

    Returns C with inv(a)[j, i] <= C[j, i] * inv(a)[i, i] for all j != i.
    The cap fixes the column's r value inside the row sum:

        C[j, i] = (|a_ji| + r[i] * Sum_{k != j,i} |a_jk|) / a_jj

    which, unlike the per-k chained form, survives adversarial patterns
    (the per-k form undershoots on some dominant matrices).  Diagonal
    entries are set to 1.
    """
    a = as_matrix(a)
    if chain is None:
        chain = aux_chain(a)
    n = a.shape[0]
    off = _offdiag_abs(a)
    caps = off + chain.r * (off.sum(axis=1)[:, None] - off)
    return np.divide(caps, np.abs(np.diag(a))[:, None], out=np.eye(n),
                     where=~np.eye(n, dtype=bool))


def _oval(x, u, v, upper: bool):
    """(value, (i, j)): over ordered pairs i != j, the largest upper root
    (upper=True) or the smallest lower root of the pairwise oval
    0.5 (x_i + x_j ± sqrt((x_i − x_j)² + 4 u_i v_j)); the first row-major
    pair wins ties.  u and v are clamped at zero on the scale of x, and the
    root is formed as a hypot of x_i − x_j and 2 √u_i √v_j, so no
    intermediate leaves float64 range before the root does."""
    n = len(x)
    if n == 1:
        return float(x[0]), (0, 0)
    sign = 1.0 if upper else -1.0
    scale = np.abs(x).max()
    cross = (2.0 * np.sqrt(_clamp_nonneg(u, scale))[:, None]
             * np.sqrt(_clamp_nonneg(v, scale)))
    roots = 0.5 * (x[:, None] + x + sign * np.hypot(x[:, None] - x, cross))
    np.fill_diagonal(roots, -sign * np.inf)
    k = int(np.argmax(sign * roots))
    return float(roots.flat[k]), divmod(k, n)


# ----------------------------------------------------------------------
# upper bounds on rho of a Hadamard product of nonnegative matrices
# ----------------------------------------------------------------------

def rho_bound_product(rho_a: float, rho_b: float) -> BoundResult:
    """rho(A)*rho(B)."""
    if rho_a < 0.0 or rho_b < 0.0:
        raise ValueError("spectral radii must be nonnegative")
    return BoundResult(
        "rho_product", "upper", rho_a * rho_b,
        {"rho_a": rho_a, "rho_b": rho_b},
    )


def rho_bound_affine(a, b, rho_a: float, rho_b: float) -> BoundResult:
    """max_i {2 a_ii b_ii + rho(A)rho(B) − b_ii rho(A) − a_ii rho(B)}."""
    a, b = _pair(a, b)
    da, db = np.diag(a), np.diag(b)
    vals = 2.0 * da * db + rho_a * rho_b - db * rho_a - da * rho_b
    i = int(np.argmax(vals))
    return BoundResult(
        "rho_affine", "upper", float(vals[i]),
        {"rho_a": rho_a, "rho_b": rho_b, "argmax": i},
    )


def rho_bound_oval_deficit(a, b, rho_a: float, rho_b: float) -> BoundResult:
    """Pairwise oval form whose radicand uses the full spectral deficits
    (rho(A)−a_ii)(rho(B)−b_ii)(rho(A)−a_jj)(rho(B)−b_jj)."""
    a, b = _pair(a, b)
    da, db = np.diag(a), np.diag(b)
    u = (rho_a - da) * (rho_b - db)
    value, arg = _oval(da * db, u, u, upper=True)
    return BoundResult(
        "rho_oval_deficit", "upper", value,
        {"rho_a": rho_a, "rho_b": rho_b, "argmax_pair": arg},
    )


def rho_bound_oval_rowmax(a, b, rho_a: float, rho_b: float) -> BoundResult:
    """Pairwise oval form with off-diagonal row maxima in the radicand:
    4 t_i s_j (rho(A)−a_ii)(rho(B)−b_jj), s rows of A, t rows of B."""
    a, b = _pair(a, b)
    s, t = _offdiag_rowmax(a), _offdiag_rowmax(b)
    da, db = np.diag(a), np.diag(b)
    value, arg = _oval(da * db, t * (rho_a - da), s * (rho_b - db),
                       upper=True)
    return BoundResult(
        "rho_oval_rowmax", "upper", value,
        {
            "rho_a": rho_a, "rho_b": rho_b, "argmax_pair": arg,
            "s": tuple(map(float, s)), "t": tuple(map(float, t)),
        },
    )


# ----------------------------------------------------------------------
# lower bounds on tau of a Fan product of M-matrices
# ----------------------------------------------------------------------

def tau_bound_product(tau_a: float, tau_b: float) -> BoundResult:
    """tau(A)*tau(B)."""
    if tau_a <= 0.0 or tau_b <= 0.0:
        raise ValueError("tau values must be positive")
    return BoundResult(
        "tau_product", "lower", tau_a * tau_b,
        {"tau_a": tau_a, "tau_b": tau_b},
    )


def tau_bound_affine(a, b, tau_a: float, tau_b: float) -> BoundResult:
    """min_i {b_ii tau(A) + a_ii tau(B) − tau(A)tau(B)}."""
    a, b = _pair(a, b)
    da, db = np.diag(a), np.diag(b)
    vals = db * tau_a + da * tau_b - tau_a * tau_b
    i = int(np.argmin(vals))
    return BoundResult(
        "tau_affine", "lower", float(vals[i]),
        {"tau_a": tau_a, "tau_b": tau_b, "argmin": i},
    )


def tau_bound_oval_deficit(a, b, tau_a: float, tau_b: float) -> BoundResult:
    """Pairwise oval with full tau deficits in the radicand."""
    a, b = _pair(a, b)
    da, db = np.diag(a), np.diag(b)
    u = (da - tau_a) * (db - tau_b)
    value, arg = _oval(da * db, u, u, upper=False)
    return BoundResult(
        "tau_oval_deficit", "lower", value,
        {"tau_a": tau_a, "tau_b": tau_b, "argmin_pair": arg},
    )


def tau_bound_oval_rowmax(a, b, tau_a: float, tau_b: float) -> BoundResult:
    """Pairwise oval with 4 t_i s_j (a_ii−tau(A))(b_jj−tau(B)) radicand."""
    a, b = _pair(a, b)
    s, t = _offdiag_rowmax(a), _offdiag_rowmax(b)
    da, db = np.diag(a), np.diag(b)
    value, arg = _oval(da * db, t * (da - tau_a), s * (db - tau_b),
                       upper=False)
    return BoundResult(
        "tau_oval_rowmax", "lower", value,
        {
            "tau_a": tau_a, "tau_b": tau_b, "argmin_pair": arg,
            "s": tuple(map(float, s)), "t": tuple(map(float, t)),
        },
    )


# ----------------------------------------------------------------------
# lower bounds on tau(A ∘ B^-1) for M-matrices A, B
# ----------------------------------------------------------------------

def tau_hinv_diag_floor(tau_a: float, binv) -> BoundResult:
    """tau(A) * min_i beta_ii."""
    binv = as_matrix(binv)
    beta = np.diag(binv)
    i = int(np.argmin(beta))
    return BoundResult(
        "tau_hinv_diag_floor", "lower", float(tau_a * beta[i]),
        {"tau_a": tau_a, "min_beta": float(beta[i]), "argmin": i},
    )


def tau_hinv_jacobi_ratio(a, b, rho_ja: float, rho_jb: float) -> BoundResult:
    """(1 − rho(J_A)rho(J_B)) / (1 + rho(J_B)^2) * min_i a_ii/b_ii.

    The ratio runs a_ii over b_ii; the flipped orientation fails validity
    on desk checks, so only this one is offered.
    """
    a, b = _pair(a, b)
    da, db = np.diag(a), np.diag(b)
    ratios = da / db
    i = int(np.argmin(ratios))
    contraction = (1.0 - rho_ja * rho_jb) / (1.0 + rho_jb ** 2)
    return BoundResult(
        "tau_hinv_jacobi_ratio", "lower", float(contraction * ratios[i]),
        {
            "rho_ja": rho_ja, "rho_jb": rho_jb,
            "contraction": float(contraction),
            "min_ratio": float(ratios[i]), "argmin": i,
            "ratio": "a_ii/b_ii",
        },
    )


@dataclass(frozen=True)
class DominanceScaling:
    """D⁻¹ B D made strictly row dominant, and the row chain of it.

    d = B⁻¹ · 1 keeps the diagonal and, for M-matrices, guarantees strict
    dominance of D⁻¹ B D; when B is already dominant, d = 1 and
    ``applied`` is False.  One scaling serves every hinv rung that needs it.
    """

    scaled: np.ndarray
    d: np.ndarray
    applied: bool
    chain: AuxChain


def dominance_scaling(b, binv) -> DominanceScaling:
    """The scaling of b, with d formed from the given inverse binv of b."""
    b = as_matrix(b)
    if classify(b).strictly_row_dd:
        scaled, d, applied = b, np.ones(b.shape[0]), False
    else:
        d = as_matrix(binv) @ np.ones(b.shape[0])
        scaled, applied = scale_similarity(b, d), True
    return DominanceScaling(scaled, d, applied, aux_chain(scaled))


def tau_hinv_chain(a, b, scaling: DominanceScaling) -> BoundResult:
    """min_i (a_ii − s'_i · Σ_{j≠i}|a_ji|) / b_ii, column sums of a in the
    numerator, with s'_i the ROW maximum max_{j≠i} s_pair[i, j] of the chain
    matrix of the dominance-scaled b (each row's own chain coefficients).
    ``scaling`` is ``dominance_scaling(b, B⁻¹)``."""
    a, b = _pair(a, b)
    s_row = scaling.chain.s_pair.max(axis=1)  # diag is 0, entries >= 0
    da, db = np.diag(a), np.diag(b)
    colsum = _offdiag_abs(a).sum(axis=0)
    vals = (da - s_row * colsum) / db
    i = int(np.argmin(vals))
    return BoundResult(
        "tau_hinv_chain", "lower", float(vals[i]),
        {
            "argmin": i, "s_row": tuple(map(float, s_row)),
            "scaled": scaling.applied, "scaling": tuple(map(float, scaling.d)),
        },
    )


def tau_hinv_jacobi_oval(a, b, binv, rho_ja: float, rho_jb: float) -> BoundResult:
    """Pairwise oval on the diagonal products a_ii beta_ii with the Jacobi
    cross term 4 a_ii a_jj beta_ii beta_jj rho^2(J_A) rho^2(J_B)."""
    a, b = _pair(a, b)
    _, binv = _pair(b, binv)
    da = np.diag(a)
    beta = np.diag(binv)
    x = da * beta
    u = x * (rho_ja * rho_jb)
    value, arg = _oval(x, u, u, upper=False)
    return BoundResult(
        "tau_hinv_jacobi_oval", "lower", value,
        {"rho_ja": rho_ja, "rho_jb": rho_jb, "argmin_pair": arg},
    )


def tau_hinv_deficit_oval(a, b, binv, tau_a: float, tau_b: float,
                          scaling: DominanceScaling,
                          variant: str = "proof") -> BoundResult:
    """Pairwise oval with tau-deficit radicand, in two variants.

    variant="proof" (default): radicand 4 s_i s_j beta_ii beta_jj
    (a_ii−tau(A))(a_jj−tau(A)) with s the row-chain vector of the
    dominance-scaled b (``scaling.chain.s``) — the construction that actually emerges from
    chaining the inverse-entry caps, and the only one that matches the
    reference value on the worked example.

    variant="statement": radicand 4 s_i s_j beta_ii beta_jj
    (a_ii−tau(A))(b_jj−tau(B)) with s the off-diagonal row maxima of a.
    Kept selectable for comparison; it is NOT validity-guaranteed (desk
    checks produce values above the exact minimum eigenvalue).

    Both variants' values are recorded in components.
    """
    a, b = _pair(a, b)
    _, binv = _pair(b, binv)
    if variant not in ("proof", "statement"):
        raise ValueError("variant must be 'proof' or 'statement'")
    da, db = np.diag(a), np.diag(b)
    beta = np.diag(binv)

    x = da * beta
    s_stmt = _offdiag_rowmax(a)
    v_stmt, arg_stmt = _oval(x, s_stmt * beta * (da - tau_a),
                             s_stmt * beta * (db - tau_b), upper=False)
    u_proof = scaling.chain.s * beta * (da - tau_a)
    v_proof, arg_proof = _oval(x, u_proof, u_proof, upper=False)
    value, arg = (v_proof, arg_proof) if variant == "proof" else (v_stmt, arg_stmt)
    return BoundResult(
        "tau_hinv_deficit_oval", "lower", value,
        {
            "variant": variant, "argmin_pair": arg,
            "proof_value": v_proof, "statement_value": v_stmt,
            "tau_a": tau_a, "tau_b": tau_b,
            "scaled": scaling.applied, "scaling": tuple(map(float, scaling.d)),
        },
    )


# ----------------------------------------------------------------------
# multi-matrix Fan product bound and Cassini membership
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HolderExponents:
    """Positive integer exponents with Σ 1/P_k >= 1 (checked exactly)."""

    p: tuple

    def __post_init__(self):
        p = tuple(self.p)
        object.__setattr__(self, "p", p)
        if len(p) == 0 or any((not isinstance(x, (int, np.integer))) or x < 1 for x in p):
            raise ValueError("invalid exponents: need positive integers")
        if sum(Fraction(1, int(x)) for x in p) < 1:
            raise ValueError("invalid exponents: reciprocals must sum to >= 1")


def tau_multi_fan(matrices: Sequence, exponents: HolderExponents,
                  taus_of_fan_powers: Sequence[float]) -> BoundResult:
    """min_i { Π_k A_k[i,i] − Π_k (A_k[i,i]^P_k − tau(A_k^(P_k)))^(1/P_k) }.

    Each bracket is a Perron deficit and must be nonnegative.  A bracket
    below −1e-8·A_k[i,i]^P_k raises: the tau values are the caller's.
    Anything less negative is rounding and is clamped by ``_clamp_nonneg``
    on the scale of the factor's A_k[i,i]^P_k.  The powers are numpy's, as
    in ``core.fan_power``, so a bracket that is zero in exact arithmetic
    comes out as 0.
    """
    mats = [as_matrix(m) for m in matrices]
    if len(mats) != len(exponents.p) or len(mats) != len(taus_of_fan_powers):
        raise ValueError("matrices, exponents and tau values must align")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ValueError("order mismatch")
    prod_diag = prod_deficit = 1.0
    for m, p, tau_pow in zip(mats, exponents.p, taus_of_fan_powers):
        dg = np.diag(m)
        power = dg ** p
        bracket = power - tau_pow
        mag = np.abs(power)
        if (bracket < -1e-8 * mag).any():
            raise ValueError("negative Perron deficit bracket")
        prod_diag = prod_diag * dg
        prod_deficit = prod_deficit * _clamp_nonneg(
            bracket, mag.max()) ** (1.0 / p)
    vals = prod_diag - prod_deficit
    i = int(np.argmin(vals))
    return BoundResult(
        "tau_multi_fan", "lower", float(vals[i]),
        {"argmin": i, "p": tuple(int(x) for x in exponents.p),
         "taus_of_fan_powers": tuple(map(float, taus_of_fan_powers))},
    )


def cassini_contains(a, z: complex) -> bool:
    """True iff z lies in some oval |z−a_ii||z−a_jj| <= c_i c_j (i != j),
    where c_i are the absolute COLUMN sums without the diagonal."""
    a = as_matrix(a)
    if a.shape[0] < 2:
        raise ValueError("Cassini requires n >= 2")
    col = _offdiag_abs(a).sum(axis=0)
    dist = np.abs(z - np.diag(a))
    lhs = dist[:, None] * dist
    rhs = col[:, None] * col
    # eigenvalues of 2x2 matrices sit exactly ON the oval boundary, so a
    # computed root needs float-level slack to stay a member
    slack = 1e-12 * np.maximum(max(1.0, abs(z) ** 2), rhs)
    inside = lhs <= rhs + slack
    np.fill_diagonal(inside, False)
    return bool(inside.any())
