"""Every bound formula: upper bounds on rho of a Hadamard product of
nonnegative matrices, lower bounds on tau of Fan products and of A∘B⁻¹ for
M-matrices, the multi-matrix Hölder-exponent bound, and the auxiliary
row-chain quantities.

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
tau_hinv_deficit_oval pairwise oval with tau deficits and inverse-cap radii
tau_multi_fan         Hölder-exponent bound for an m-fold Fan product
====================  ======================================================

Each rung has one kernel, ``_<rung>``, which evaluates it over a stack of
T pairs of one order: factors are (T, n, n) arrays, spectral values are
(T,) arrays, the stack's ``_Log`` comes last, and the result is a
``_Rungs`` (a value and the components per slice).  The kernels take
arrays that are already checked; the way into a ladder is
``harness.FAMILIES[name].evaluate`` for one tuple of factors, and
``harness.run_suite`` for a suite.  Every operation is elementwise or a
reduction within a slice, so a slice gets the same bits in any stack.

Every oval rung is one pairwise form (``_oval``) whose radicand factors as
4·u_i·v_j, with u and v one entry per index; the scan runs over ordered
pairs i != j in row-major order, and ties keep the first pair of each
slice.

No formula loops over matrix indices.  Every off-diagonal sum or maximum
reads one magnitude, |A| with a zero diagonal (``core._offdiag_abs``), and
the row chain's sum over k != j, i is one rank-one identity:
Σ_{k≠j,i} |a_jk| r_k = (|A|_off · r)_j − |a_ji| r_i.

There is one clamp rule, ``_clamp_nonneg``: a quantity that is nonnegative
in exact arithmetic (the oval factors u and v, the multi-Fan deficit
brackets) is clamped at zero per index, and logged only when it is below
rounding on the scale of its own terms, so the rule does not depend on the
scale of the input.  A stack records its clamp warnings and errors per
slice in a ``_Log``; ``_Log.flush`` replays one slice's, so a stacked
evaluation logs and raises what a one-at-a-time evaluation would.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _offdiag_abs, _scale_similarity

__all__ = ["BoundResult", "HolderExponents"]

log = logging.getLogger("mbound.bounds")

# warn only when the clamped magnitude is beyond accumulated-rounding scale
CLAMP_WARN = 1e-10


class _Log:
    """Per slice of a stack, the clamp warnings and the first error of its
    evaluation, in the order a one-at-a-time evaluation meets them.  A
    slice records nothing after its error: its later steps run on
    placeholder values only to keep the stack whole."""

    def __init__(self, k: int):
        self.warnings = [[] for _ in range(k)]
        self.errors = [None] * k

    def warn(self, mask, values) -> None:
        for i, hit in enumerate(mask.tolist()):
            if hit and self.errors[i] is None:
                self.warnings[i].append(values[i])

    def fail(self, i: int, exc: Exception) -> None:
        if self.errors[i] is None:
            self.errors[i] = exc

    def fail_where(self, mask, error) -> None:
        """``fail(i, error(i))`` for each slice i in mask."""
        for i, hit in enumerate(mask.tolist()):
            if hit:
                self.fail(i, error(i))

    def flush(self, i: int) -> None:
        """Log slice i's warnings, then raise its error if it has one."""
        for w in self.warnings[i]:
            log.warning("clamping negative deficit %.6e to zero", w)
        if self.errors[i] is not None:
            raise self.errors[i]


def _clamp_nonneg(w: np.ndarray, scale: np.ndarray, lg: _Log) -> np.ndarray:
    """w, a (T, n) stack nonnegative in exact arithmetic, with negative
    entries set to zero; a slice whose minimum is below −CLAMP_WARN times
    its scale is beyond rounding dust and logs it."""
    low = w.min(axis=1)
    lg.warn(low < -CLAMP_WARN * scale, low)
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
class _Rungs:
    """One rung over a stack: a value per slice, and per component a column
    with a leading T axis (or a constant that every slice shares)."""

    name: str
    direction: str
    values: np.ndarray
    components: dict

    def records(self) -> list:
        """The BoundResult of every slice, with Python scalars and tuples
        in its components."""
        cols = []
        for col in self.components.values():
            if isinstance(col, np.ndarray):
                col = col.tolist()
                if col and isinstance(col[0], list):
                    col = [tuple(row) for row in col]
            else:
                col = [col] * len(self.values)
            cols.append(col)
        keys = list(self.components)
        return [BoundResult(self.name, self.direction, value, dict(zip(keys, row)))
                for value, row in zip(self.values.tolist(), zip(*cols))]


def _diag(a: np.ndarray) -> np.ndarray:
    return a.diagonal(0, -2, -1)


def _pick(vals: np.ndarray, upper: bool):
    """(value, index) per row of vals: the first maximum or minimum."""
    i = (np.argmax if upper else np.argmin)(vals, axis=1)
    return vals[np.arange(len(i)), i], i


@dataclass(frozen=True)
class DominanceScaling:
    """Per slice, the vector d that makes B̃ = D⁻¹ B D strictly row
    dominant, the chain table s_pair of B̃ (``_aux_chain``) and the caps on
    B̃⁻¹ (``_caps``).

    d = B⁻¹ · 1 keeps the diagonal and, for M-matrices, guarantees strict
    dominance of B̃; where B is already dominant, d = 1 and ``applied`` is
    False.  One scaling serves every hinv rung that needs it and the
    harness's inverse-cap check.
    """

    d: np.ndarray
    applied: np.ndarray
    s_pair: np.ndarray
    caps: np.ndarray


def _offdiag_rowmax(a: np.ndarray) -> np.ndarray:
    """Per-row maxima of the off-diagonal magnitudes; n = 1 gives zero."""
    return _offdiag_abs(a).max(axis=-1)


def _aux_chain(a: np.ndarray, lg: _Log):
    """(r, s_pair), the row chain of each slice of a:

        r_pair[l, i] = |a_li| / (|a_ll| − Σ_{k≠l,i} |a_lk|)   (l ≠ i)
        r[i]         = max_{l≠i} r_pair[l, i]
        s_pair[j, i] = (|a_ji| + Σ_{k≠j,i} |a_jk|·r[k]) / |a_jj|

    Every denominator is positive when a is strictly row dominant.  A
    slice with a nonpositive r denominator fails at its first row-major
    pair (l, i) and goes on with unit denominators.  The sum over k != j, i
    in s_pair is (|A|_off · r)_j − |a_ji| r_i, since |A|_off has a zero
    diagonal."""
    k, n, _ = a.shape
    idx = np.arange(n)
    off = _offdiag_abs(a)
    dg = np.abs(_diag(a))
    den = dg[:, :, None] - (off.sum(axis=2)[:, :, None] - off)
    den[:, idx, idx] = 1.0  # off is 0 there, so r_pair's diagonal is 0
    bad = den <= 0.0
    failed = bad.any(axis=(1, 2))
    lg.fail_where(failed, lambda t: ValueError(
        "denominator nonpositive at row %d, column %d"
        % divmod(int(np.flatnonzero(bad[t])[0]), n)))
    if failed.any():
        den[failed] = 1.0
        dg[failed] = 1.0
    r_pair = off / den
    r = r_pair.max(axis=1)  # entries >= 0, so the zero diagonal never wins
    acc = off @ r[:, :, None] - off * r[:, None, :]
    s_pair = np.divide(off + acc, dg[:, :, None], out=np.zeros((k, n, n)),
                       where=~np.eye(n, dtype=bool))
    return r, s_pair


def _caps(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Entrywise caps on the inverse of each slice of a, a strictly
    row-dominant M-matrix whose row chain has r: C with
    inv(a)[j, i] <= C[j, i] * inv(a)[i, i] for all j != i.  The cap fixes
    the column's r value inside the row sum:

        C[j, i] = (|a_ji| + r[i] * Sum_{k != j,i} |a_jk|) / a_jj

    which, unlike the per-k chained s_pair, survives adversarial patterns
    (the per-k form undershoots on some dominant matrices).  Diagonal
    entries are set to 1.
    """
    n = a.shape[1]
    off = _offdiag_abs(a)
    caps = off + r[:, None, :] * (off.sum(axis=2)[:, :, None] - off)
    return np.divide(caps, np.abs(_diag(a))[:, :, None],
                     out=np.broadcast_to(np.eye(n), caps.shape).copy(),
                     where=~np.eye(n, dtype=bool))


def _oval(x, u, v, upper: bool, lg: _Log):
    """(values, pairs): per slice of the (T, n) stacks, over ordered pairs
    i != j, the largest upper root (upper=True) or the smallest lower root
    of the pairwise oval 0.5 (x_i + x_j ± sqrt((x_i − x_j)² + 4 u_i v_j));
    the first row-major pair of each slice wins its ties, and pairs is a
    (T, 2) array of (i, j).  u and v are clamped at zero on the scale of
    each slice's x, and the root is formed as a hypot of x_i − x_j and
    2 √u_i √v_j, so no intermediate leaves float64 range before the root
    does."""
    k, n = x.shape
    if n == 1:
        return x[:, 0].copy(), np.zeros((k, 2), dtype=int)
    sign = 1.0 if upper else -1.0
    scale = np.abs(x).max(axis=1)
    cross = (2.0 * np.sqrt(_clamp_nonneg(u, scale, lg))[:, :, None]
             * np.sqrt(_clamp_nonneg(v, scale, lg))[:, None, :])
    roots = 0.5 * (x[:, :, None] + x[:, None, :]
                   + sign * np.hypot(x[:, :, None] - x[:, None, :], cross))
    idx = np.arange(n)
    roots[:, idx, idx] = -sign * np.inf
    value, flat = _pick(roots.reshape(k, n * n), upper)
    return value, np.array(np.divmod(flat, n)).T


# ----------------------------------------------------------------------
# upper bounds on rho of a Hadamard product of nonnegative matrices
# ----------------------------------------------------------------------

def _rho_product(rho_a, rho_b, lg: _Log) -> _Rungs:
    """rho(A)·rho(B)."""
    lg.fail_where((rho_a < 0.0) | (rho_b < 0.0),
                  lambda t: ValueError("spectral radii must be nonnegative"))
    with np.errstate(over="ignore"):
        value = rho_a * rho_b
    return _Rungs("rho_product", "upper", value,
                  {"rho_a": rho_a, "rho_b": rho_b})


def _rho_affine(a, b, rho_a, rho_b, lg: _Log) -> _Rungs:
    """max_i {2 a_ii b_ii + rho(A)rho(B) − b_ii rho(A) − a_ii rho(B)}."""
    da, db = _diag(a), _diag(b)
    ra, rb = rho_a[:, None], rho_b[:, None]
    with np.errstate(over="ignore"):
        rr = ra * rb
    value, i = _pick(2.0 * da * db + rr - db * ra - da * rb, upper=True)
    return _Rungs("rho_affine", "upper", value,
                  {"rho_a": rho_a, "rho_b": rho_b, "argmax": i})


def _rho_oval_deficit(a, b, rho_a, rho_b, lg: _Log) -> _Rungs:
    """Pairwise oval form whose radicand uses the full spectral deficits
    (rho(A)−a_ii)(rho(B)−b_ii)(rho(A)−a_jj)(rho(B)−b_jj)."""
    da, db = _diag(a), _diag(b)
    u = (rho_a[:, None] - da) * (rho_b[:, None] - db)
    value, arg = _oval(da * db, u, u, True, lg)
    return _Rungs("rho_oval_deficit", "upper", value,
                  {"rho_a": rho_a, "rho_b": rho_b, "argmax_pair": arg})


def _rho_oval_rowmax(a, b, rho_a, rho_b, lg: _Log) -> _Rungs:
    """Pairwise oval form with off-diagonal row maxima in the radicand:
    4 t_i s_j (rho(A)−a_ii)(rho(B)−b_jj), s rows of A, t rows of B."""
    s, t = _offdiag_rowmax(a), _offdiag_rowmax(b)
    da, db = _diag(a), _diag(b)
    value, arg = _oval(da * db, t * (rho_a[:, None] - da),
                       s * (rho_b[:, None] - db), True, lg)
    return _Rungs("rho_oval_rowmax", "upper", value,
                  {"rho_a": rho_a, "rho_b": rho_b, "argmax_pair": arg,
                   "s": s, "t": t})


# ----------------------------------------------------------------------
# lower bounds on tau of a Fan product of M-matrices
# ----------------------------------------------------------------------

def _tau_product(tau_a, tau_b, lg: _Log) -> _Rungs:
    """tau(A)·tau(B)."""
    lg.fail_where((tau_a <= 0.0) | (tau_b <= 0.0),
                  lambda t: ValueError("tau values must be positive"))
    with np.errstate(over="ignore"):
        value = tau_a * tau_b
    return _Rungs("tau_product", "lower", value,
                  {"tau_a": tau_a, "tau_b": tau_b})


def _tau_affine(a, b, tau_a, tau_b, lg: _Log) -> _Rungs:
    """min_i {b_ii tau(A) + a_ii tau(B) − tau(A)tau(B)}."""
    da, db = _diag(a), _diag(b)
    ta, tb = tau_a[:, None], tau_b[:, None]
    with np.errstate(over="ignore"):
        tt = ta * tb
    value, i = _pick(db * ta + da * tb - tt, upper=False)
    return _Rungs("tau_affine", "lower", value,
                  {"tau_a": tau_a, "tau_b": tau_b, "argmin": i})


def _tau_oval_deficit(a, b, tau_a, tau_b, lg: _Log) -> _Rungs:
    """Pairwise oval with full tau deficits in the radicand."""
    da, db = _diag(a), _diag(b)
    u = (da - tau_a[:, None]) * (db - tau_b[:, None])
    value, arg = _oval(da * db, u, u, False, lg)
    return _Rungs("tau_oval_deficit", "lower", value,
                  {"tau_a": tau_a, "tau_b": tau_b, "argmin_pair": arg})


def _tau_oval_rowmax(a, b, tau_a, tau_b, lg: _Log) -> _Rungs:
    """Pairwise oval with 4 t_i s_j (a_ii−tau(A))(b_jj−tau(B)) radicand."""
    s, t = _offdiag_rowmax(a), _offdiag_rowmax(b)
    da, db = _diag(a), _diag(b)
    value, arg = _oval(da * db, t * (da - tau_a[:, None]),
                       s * (db - tau_b[:, None]), False, lg)
    return _Rungs("tau_oval_rowmax", "lower", value,
                  {"tau_a": tau_a, "tau_b": tau_b, "argmin_pair": arg,
                   "s": s, "t": t})


# ----------------------------------------------------------------------
# lower bounds on tau(A ∘ B^-1) for M-matrices A, B
# ----------------------------------------------------------------------

def _tau_hinv_diag_floor(tau_a, binv, lg: _Log) -> _Rungs:
    """tau(A) * min_i beta_ii, beta = diag(B⁻¹)."""
    beta, i = _pick(_diag(binv), upper=False)
    return _Rungs("tau_hinv_diag_floor", "lower", tau_a * beta,
                  {"tau_a": tau_a, "min_beta": beta, "argmin": i})


def _tau_hinv_jacobi_ratio(a, b, rho_ja, rho_jb, lg: _Log) -> _Rungs:
    """(1 − rho(J_A)rho(J_B)) / (1 + rho(J_B)^2) * min_i a_ii/b_ii.

    The ratio runs a_ii over b_ii; the flipped orientation fails validity
    on desk checks, so only this one is offered.
    """
    ratio, i = _pick(_diag(a) / _diag(b), upper=False)
    contraction = (1.0 - rho_ja * rho_jb) / (1.0 + rho_jb * rho_jb)
    return _Rungs("tau_hinv_jacobi_ratio", "lower", contraction * ratio,
                  {"rho_ja": rho_ja, "rho_jb": rho_jb,
                   "contraction": contraction, "min_ratio": ratio,
                   "argmin": i, "ratio": "a_ii/b_ii"})


def _dominance_scaling(b, binv, dominant, lg: _Log) -> DominanceScaling:
    """The scaling of each slice of b, with d formed from the slice of
    binv; a slice whose d is not positive fails and goes on unscaled.
    ``dominant`` says per slice whether b is already strictly row
    dominant, and such a slice is left as it is."""
    k, n, _ = b.shape
    applied = ~np.asarray(dominant, dtype=bool)
    d = np.ones((k, n))
    if applied.any():
        d[applied] = (binv[applied] @ np.ones((n, 1)))[:, :, 0]
        bad = (d <= 0.0).any(axis=1)
        lg.fail_where(bad, lambda t: ValueError(
            "scaling vector must be strictly positive"))
        d[bad] = 1.0
    scaled = _scale_similarity(b, d)
    r, s_pair = _aux_chain(scaled, lg)
    return DominanceScaling(d, applied, s_pair, _caps(scaled, r))


def _tau_hinv_chain(a, b, scaling: DominanceScaling, lg: _Log) -> _Rungs:
    """min_i (a_ii − s'_i · Σ_{j≠i}|a_ji|) / b_ii, column sums of a in the
    numerator, with s'_i the ROW maximum max_{j≠i} s_pair[i, j] of the
    chain table of the dominance-scaled b (each row's own chain
    coefficients)."""
    s_row = scaling.s_pair.max(axis=2)  # diag is 0, entries >= 0
    colsum = _offdiag_abs(a).sum(axis=1)
    value, i = _pick((_diag(a) - s_row * colsum) / _diag(b), upper=False)
    return _Rungs("tau_hinv_chain", "lower", value,
                  {"argmin": i, "s_row": s_row, "scaled": scaling.applied,
                   "scaling": scaling.d})


def _tau_hinv_jacobi_oval(a, binv, rho_ja, rho_jb, lg: _Log) -> _Rungs:
    """Pairwise oval on the diagonal products a_ii beta_ii with the Jacobi
    cross term 4 a_ii a_jj beta_ii beta_jj rho^2(J_A) rho^2(J_B)."""
    x = _diag(a) * _diag(binv)
    u = x * (rho_ja * rho_jb)[:, None]
    value, arg = _oval(x, u, u, False, lg)
    return _Rungs("tau_hinv_jacobi_oval", "lower", value,
                  {"rho_ja": rho_ja, "rho_jb": rho_jb, "argmin_pair": arg})


def _tau_hinv_deficit_oval(a, binv, tau_a, scaling: DominanceScaling,
                           lg: _Log) -> _Rungs:
    """Pairwise oval with the tau(A)-deficit radicand
    4 s_i s_j β_ii β_jj (a_ii − τ(A))(a_jj − τ(A)), β = diag(B⁻¹), whose
    radii s_i = max_{j≠i} C[j, i] are the column maxima of the inverse
    caps C of the dominance-scaled B̃ = D⁻¹BD (``scaling.caps``).

    Why it is a lower bound.  (D⁻¹(A∘B⁻¹)D)_ij = a_ij β̃_ij with
    B̃⁻¹ = D⁻¹B⁻¹D, so M = A∘B̃⁻¹ is a nonsingular M-matrix with the
    spectrum of A∘B⁻¹ (an M-matrix by the lemma
    ``harness.lemma_product_m_matrix`` checks), the diagonal
    m_ii = a_ii β_ii, and |m_ji| = |a_ji| β̃_ji ≤ |a_ji| s_i β_ii by the
    caps, which hold because B̃ is a strictly row-dominant M-matrix.
    Take A irreducible (a reducible A is a limit of irreducible M-matrices,
    and both sides are continuous) and v > 0 with Aᵀv = τ(A)v, i.e.
    Σ_{j≠i} |a_ji| v_j = (a_ii − τ(A)) v_i.  The row i off-diagonal sum of
    V⁻¹MᵀV, V = diag(v), is then

        R_i = Σ_{j≠i} |m_ji| v_j / v_i ≤ s_i β_ii (a_ii − τ(A)) = u_i.

    By Brauer's theorem τ(M), an eigenvalue of V⁻¹MᵀV, lies in an oval
    |z − m_ii||z − m_jj| ≤ R_i R_j with i ≠ j, and τ(M) ≤ m_ii for every
    i, so (m_ii − τ)(m_jj − τ) ≤ u_i u_j and τ(M) is at least the lower
    root of that oval, hence at least the smallest lower root over all
    pairs.  The per-k chain radii max_{j≠i} s_pair[j, i] do not cap B̃⁻¹
    and give no bound: on trial 0 of ``mbound verify hadamard-inverse
    --seed 100664826`` their oval is 0.9006, above τ(A∘B⁻¹) = 0.8962.
    """
    da, beta = _diag(a), _diag(binv)
    s = _offdiag_abs(scaling.caps).max(axis=1)  # caps are >= 0 off the diagonal
    u = s * beta * (da - tau_a[:, None])
    value, arg = _oval(da * beta, u, u, False, lg)
    return _Rungs("tau_hinv_deficit_oval", "lower", value,
                  {"argmin_pair": arg, "s": s, "tau_a": tau_a,
                   "scaled": scaling.applied, "scaling": scaling.d})


# ----------------------------------------------------------------------
# multi-matrix Fan product bound
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


def _tau_multi_fan(mats, exponents: HolderExponents, taus, lg: _Log) -> _Rungs:
    """min_i { Π_k A_k[i,i] − Π_k (A_k[i,i]^P_k − tau(A_k^(P_k)))^(1/P_k) }
    of each slice; mats holds one stack per factor and taus is (T, m).

    Each bracket is a Perron deficit and must be nonnegative.  Per slice,
    factor by factor: a bracket below −1e-8·A_k[i,i]^P_k fails the slice,
    since the tau values are the caller's; anything less negative is
    rounding and is clamped by ``_clamp_nonneg`` on the scale of the
    factor's A_k[i,i]^P_k.  The powers are numpy's, as in
    ``core.fan_power``, so a bracket that is zero in exact arithmetic comes
    out as 0.
    """
    prod_diag = prod_deficit = 1.0
    for k, (m, p) in enumerate(zip(mats, exponents.p)):
        dg = _diag(m)
        power = dg ** p
        bracket = power - taus[:, k, None]
        mag = np.abs(power)
        lg.fail_where((bracket < -1e-8 * mag).any(axis=1), lambda t: ValueError(
            "negative Perron deficit bracket"))
        prod_diag = prod_diag * dg
        prod_deficit = prod_deficit * _clamp_nonneg(
            bracket, mag.max(axis=1), lg) ** (1.0 / p)
    value, i = _pick(prod_diag - prod_deficit, upper=False)
    return _Rungs("tau_multi_fan", "lower", value,
                  {"argmin": i, "p": tuple(int(x) for x in exponents.p),
                   "taus_of_fan_powers": taus})
