"""Randomized verification harness.

Generates seeded random instances, computes the eigen-extremum oracle for
each product, evaluates the full bound ladder, and reports violations.
Trials are independent: each one derives its own RNG from (seed, trial
index), so results do not depend on execution order and suites may fan out.

A trial's ``violations`` tuple names every failed condition — a bound on
the wrong side of the oracle beyond tolerance, or a structural check
(M-matrix closure of the product, inverse-entry caps, determinant chains,
reduction identities).  Passing trials carry an empty tuple.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds
from .core import as_matrix, classify, fan_power, fan_product, hadamard
from .errors import ClassMismatchError
from .spectral import (SpectralConfig, DEFAULT_CONFIG, determinant, inverse,
                       jacobi_radius, rho_nonnegative, tau_m_matrix)

__all__ = [
    "GeneratorSpec",
    "TrialReport",
    "gen_nonnegative",
    "gen_m_matrix",
    "lemma_product_m_matrix",
    "run_hadamard_suite",
    "run_fan_suite",
    "run_hinv_suite",
    "run_multi_fan_suite",
    "WORKED_HADAMARD_A",
    "WORKED_HADAMARD_B",
    "WORKED_FAN_A",
    "WORKED_FAN_B",
    "WORKED_HINV_A",
    "WORKED_HINV_B",
    "GOLDEN",
    "REFERENCE_DISCREPANCIES",
]

VIOLATION_TOL = 1e-8
DOMINANCE_TOL = 1e-10
CAP_TOL = 1e-10
# determinant chains compare n-th powers, so the guard must scale with them
CHAIN_REL_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """Instance distribution: kind is "nonnegative" or "m_matrix"; density
    is the expected fill fraction; diagonal_margin sets how far the
    diagonal shift exceeds the off-diagonal Perron root."""

    kind: str
    order: int
    density: float
    seed: int
    diagonal_margin: float = 0.5

    def __post_init__(self):
        if self.kind not in ("nonnegative", "m_matrix"):
            raise ValueError("kind must be 'nonnegative' or 'm_matrix'")
        if not 1 <= self.order <= 12:
            raise ValueError("order must be in 1..12")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if not self.diagonal_margin > 0.0:
            raise ValueError("diagonal_margin must be positive")


@dataclass(frozen=True)
class TrialReport:
    trial: int
    order: int
    digests: tuple
    oracle_name: str
    oracle: float
    bounds: tuple  # ordered BoundResult ladder
    violations: tuple  # names of failed conditions; empty on pass
    checks: tuple  # (name, passed) pairs for the structural conditions
    dominance_hypothesis: Optional[bool] = None
    dominance_holds: Optional[bool] = None


def _digest(a: np.ndarray) -> str:
    payload = ";".join("%.17g" % x for x in a.ravel())
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def gen_nonnegative(spec: GeneratorSpec, rng: Optional[np.random.Generator] = None,
                    order: Optional[int] = None) -> np.ndarray:
    """Entries drawn uniform on [0, 1); a draw below 1 − density is zeroed.

    Deterministic per seed.  ``rng``/``order`` let the suites substitute a
    per-trial stream and a sampled order without rebuilding specs.
    """
    if rng is None:
        rng = _trial_rng(spec.seed, 0)
    n = spec.order if order is None else order
    u = rng.uniform(0.0, 1.0, (n, n))
    return np.where(u >= 1.0 - spec.density, u, 0.0)


def gen_m_matrix(spec: GeneratorSpec, rng: Optional[np.random.Generator] = None,
                 order: Optional[int] = None) -> np.ndarray:
    """alpha*I − P with P nonnegative random and alpha = rho(P)(1+margin).

    A zero Perron root (acyclic pattern) would make the shift vanish, so
    alpha floors at the margin itself — every elimination pivot is then
    the margin.  Classification of the result is asserted; failure raises
    rather than silently retrying.
    """
    if rng is None:
        rng = _trial_rng(spec.seed, 0)
    p = gen_nonnegative(spec, rng=rng, order=order)
    rho = rho_nonnegative(p).value
    alpha = rho * (1.0 + spec.diagonal_margin) if rho > 0.0 else spec.diagonal_margin
    a = alpha * np.eye(p.shape[0]) - p
    if not classify(a).nonsingular_m_matrix:
        raise ClassMismatchError("generated matrix failed M-matrix classification")
    return a


def lemma_product_m_matrix(a, b) -> bool:
    """Closure check: the entrywise product of b with a's inverse is again
    a nonsingular M-matrix."""
    return classify(hadamard(as_matrix(b), inverse(a))).nonsingular_m_matrix


# ----------------------------------------------------------------------
# worked example pairs (shipped as fixtures too; tests assert equality)
# ----------------------------------------------------------------------

WORKED_HADAMARD_A = np.array([
    [4.0, 1.0, 0.0, 2.0],
    [1.0, 0.05, 1.0, 1.0],
    [0.0, 1.0, 4.0, 0.5],
    [1.0, 0.5, 0.0, 4.0],
])
WORKED_HADAMARD_B = np.ones((4, 4))
WORKED_FAN_A = np.array([
    [2.0, -1.0, 0.0],
    [0.0, 1.0, -0.5],
    [-0.5, -1.0, 2.0],
])
WORKED_FAN_B = np.array([
    [1.0, -0.25, -0.25],
    [-0.5, 1.0, -0.25],
    [-0.25, -0.5, 1.0],
])
WORKED_HINV_A = np.array([
    [1.0, -0.5, 0.0, 0.0],
    [-0.5, 1.0, -0.5, 0.0],
    [0.0, -0.5, 1.0, -0.5],
    [0.0, 0.0, -0.5, 1.0],
])
WORKED_HINV_B = np.array([
    [4.0, -1.0, -1.0, -1.0],
    [-2.0, 5.0, -1.0, -1.0],
    [0.0, -2.0, 4.0, -1.0],
    [-1.0, -1.0, -1.0, 4.0],
])

# Golden registry for trial-0 injection.  Each entry: check name →
# (expected, kind) with kind "direct" (spectral value stated outright,
# tight tolerance) or "chain" (value computed through a bound chain,
# wider tolerance).  Where a circulated reference figure disagrees with
# direct computation, the verified value is used for the pass/fail check
# and the reference figure is kept in REFERENCE_DISCREPANCIES, which the
# acceptance tests read to check that each recorded figure lies outside
# the golden tolerance of the verified value (see README "reference-value
# discrepancies").
GOLDEN = {
    "hadamard": {
        "oracle": (5.7339, "direct"),
        "rho_product": (22.9336, "chain"),
        "rho_affine": (17.1017, "chain"),
        "rho_oval_deficit": (11.6478, "chain"),
        "rho_oval_rowmax": (8.1897, "chain"),
    },
    "fan": {
        # circulated figure 0.8819 does not match direct computation
        "oracle": (0.937703658712982, "direct"),
        "tau_product": (0.1854, "chain"),
        "tau_affine": (0.6980, "chain"),
        "tau_oval_deficit": (0.7655, "chain"),
        "tau_oval_rowmax": (0.8002, "chain"),
    },
    "hinv": {
        "oracle": (0.2148, "direct"),
        "tau_hinv_diag_floor": (0.07, "chain"),
        # circulated figure 0.0707 does not match direct computation
        "tau_hinv_jacobi_ratio": (0.04805774074519007, "chain"),
        "tau_hinv_chain": (0.08, "chain"),
        # circulated figure 0.1524 does not match direct computation
        "tau_hinv_jacobi_oval": (0.14567819318505643, "chain"),
        "tau_hinv_deficit_oval": (0.1929, "chain"),
    },
    "multi-fan": {
        "oracle": (0.937703658712982, "direct"),
        "tau_multi_fan@1,1": (0.6980, "chain"),
    },
}

REFERENCE_DISCREPANCIES = {
    "fan:oracle": 0.8819,
    "hinv:tau_hinv_jacobi_ratio": 0.0707,
    "hinv:tau_hinv_jacobi_oval": 0.1524,
}

GOLDEN_TOL_DIRECT = 5e-4
GOLDEN_TOL_CHAIN = 5e-3


def _golden_checks(family: str, oracle: float, ladder,
                   tol_chain: float = GOLDEN_TOL_CHAIN,
                   tol_direct: float = GOLDEN_TOL_DIRECT):
    """(name, passed) golden comparisons for an injected trial 0."""
    table = GOLDEN[family]
    tols = {"direct": tol_direct, "chain": tol_chain}
    out = []
    exp, kind = table["oracle"]
    out.append((f"golden:oracle={exp}", abs(oracle - exp) <= tols[kind]))
    for br in ladder:
        key = br.name
        if br.name == "tau_multi_fan":
            key = "tau_multi_fan@" + ",".join(str(x) for x in br.components["p"])
            if key not in table:
                continue
        exp, kind = table[key]
        out.append((f"golden:{key}={exp}", abs(br.value - exp) <= tols[kind]))
    return out


def _flag_lower(oracle: float, ladder, tol=VIOLATION_TOL):
    return tuple(br.name for br in ladder if br.value > oracle + tol)


def _flag_upper(oracle: float, ladder, tol=VIOLATION_TOL):
    return tuple(br.name for br in ladder if br.value < oracle - tol)


def _chain_le(x: float, y: float) -> bool:
    # x <= y with slack scaled to the magnitudes (n-th powers get large)
    return x <= y + CHAIN_REL_TOL * max(1.0, abs(x), abs(y))


def _sample_order(rng, order_min: int, order_max: int) -> int:
    if order_min == order_max:
        return order_min
    return int(rng.integers(order_min, order_max + 1))


def _spec_pair(spec, order_min, order_max):
    omin = spec.order if order_min is None else order_min
    omax = spec.order if order_max is None else order_max
    if not 1 <= omin <= omax <= 12:
        raise ValueError("order range must satisfy 1 <= min <= max <= 12")
    return omin, omax


def run_hadamard_suite(trials: int, spec: GeneratorSpec,
                       order_min: Optional[int] = None,
                       order_max: Optional[int] = None,
                       with_examples: bool = False,
                       tol: float = VIOLATION_TOL,
                       golden_tol_chain: float = GOLDEN_TOL_CHAIN,
                       golden_tol_direct: float = GOLDEN_TOL_DIRECT,
                       cfg: SpectralConfig = DEFAULT_CONFIG):
    """Upper-bound ladder for entrywise products of nonnegative pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    omin, omax = _spec_pair(spec, order_min, order_max)
    reports = []
    for t in range(trials):
        rng = _trial_rng(spec.seed, t)
        if with_examples and t == 0:
            a, b = WORKED_HADAMARD_A, WORKED_HADAMARD_B
        else:
            n = _sample_order(rng, omin, omax)
            a = gen_nonnegative(spec, rng=rng, order=n)
            b = gen_nonnegative(spec, rng=rng, order=n)
        n = a.shape[0]
        rho_a = rho_nonnegative(a, cfg).value
        rho_b = rho_nonnegative(b, cfg).value
        prod = hadamard(a, b)
        oracle = rho_nonnegative(prod, cfg).value
        ladder = (
            bounds.rho_bound_product(rho_a, rho_b),
            bounds.rho_bound_affine(a, b, rho_a, rho_b),
            bounds.rho_bound_oval_deficit(a, b, rho_a, rho_b),
            bounds.rho_bound_oval_rowmax(a, b, rho_a, rho_b),
        )
        violations = list(_flag_upper(oracle, ladder, tol))
        checks = []
        # anchor: the oracle can never undercut a diagonal product
        anchor = oracle >= float(np.max(np.diag(prod))) - VIOLATION_TOL
        checks.append(("diag_anchor", anchor))
        # determinant chain: |det| <= oracle^n <= (tightest upper bound)^n
        det = abs(determinant(prod))
        c1 = _chain_le(det, oracle ** n)
        c2 = _chain_le(oracle ** n, ladder[3].value ** n)
        checks.append(("det_chain", c1 and c2))
        # conditional dominance of the rowmax oval over the deficit oval
        aux = bounds.aux_offdiag_max(a, b)
        da, db = np.diag(a), np.diag(b)
        hyp = bool(np.all(aux.t + db >= rho_b) and np.all(aux.s + da >= rho_a))
        dom = None
        if hyp:
            dom = ladder[3].value <= ladder[2].value + DOMINANCE_TOL
            checks.append(("conditional_dominance", dom))
        if with_examples and t == 0:
            checks.extend(_golden_checks("hadamard", oracle, ladder,
                                         golden_tol_chain, golden_tol_direct))
        violations.extend(name for name, ok in checks if not ok)
        reports.append(TrialReport(
            trial=t, order=n, digests=(_digest(a), _digest(b)),
            oracle_name="rho_hadamard", oracle=oracle, bounds=ladder,
            violations=tuple(violations), checks=tuple(checks),
            dominance_hypothesis=hyp, dominance_holds=dom,
        ))
    return reports


def run_fan_suite(trials: int, spec: GeneratorSpec,
                  order_min: Optional[int] = None,
                  order_max: Optional[int] = None,
                  with_examples: bool = False,
                  tol: float = VIOLATION_TOL,
                  golden_tol_chain: float = GOLDEN_TOL_CHAIN,
                  golden_tol_direct: float = GOLDEN_TOL_DIRECT,
                  cfg: SpectralConfig = DEFAULT_CONFIG):
    """Lower-bound ladder for Fan products of M-matrix pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    omin, omax = _spec_pair(spec, order_min, order_max)
    reports = []
    for t in range(trials):
        rng = _trial_rng(spec.seed, t)
        if with_examples and t == 0:
            a, b = WORKED_FAN_A, WORKED_FAN_B
        else:
            n = _sample_order(rng, omin, omax)
            a = gen_m_matrix(spec, rng=rng, order=n)
            b = gen_m_matrix(spec, rng=rng, order=n)
        n = a.shape[0]
        tau_a = tau_m_matrix(a, cfg).value
        tau_b = tau_m_matrix(b, cfg).value
        prod = fan_product(a, b)
        oracle = tau_m_matrix(prod, cfg).value
        ladder = (
            bounds.tau_bound_product(tau_a, tau_b),
            bounds.tau_bound_affine(a, b, tau_a, tau_b),
            bounds.tau_bound_oval_deficit(a, b, tau_a, tau_b),
            bounds.tau_bound_oval_rowmax(a, b, tau_a, tau_b),
        )
        violations = list(_flag_lower(oracle, ladder, tol))
        checks = []
        checks.append(("diag_anchor",
                       oracle <= float(np.min(np.diag(prod))) + VIOLATION_TOL))
        # determinant chain: |det| >= oracle^n >= bound^n (bound >= 0 or odd n)
        det = abs(determinant(prod))
        c1 = _chain_le(oracle ** n, det)
        w = ladder[3].value
        c2 = True
        if w >= 0.0 or n % 2 == 1:
            c2 = _chain_le(w * abs(w) ** (n - 1), oracle ** n)
        checks.append(("det_chain", c1 and c2))
        aux = bounds.aux_offdiag_max(a, b)
        da, db = np.diag(a), np.diag(b)
        hyp = bool(np.all(da >= tau_a + aux.s) and np.all(db >= tau_b + aux.t))
        dom = None
        if hyp:
            dom = ladder[3].value >= ladder[2].value - DOMINANCE_TOL
            checks.append(("conditional_dominance", dom))
        if with_examples and t == 0:
            checks.extend(_golden_checks("fan", oracle, ladder,
                                         golden_tol_chain, golden_tol_direct))
        violations.extend(name for name, ok in checks if not ok)
        reports.append(TrialReport(
            trial=t, order=n, digests=(_digest(a), _digest(b)),
            oracle_name="tau_fan", oracle=oracle, bounds=ladder,
            violations=tuple(violations), checks=tuple(checks),
            dominance_hypothesis=hyp, dominance_holds=dom,
        ))
    return reports


def run_hinv_suite(trials: int, spec: GeneratorSpec,
                   order_min: Optional[int] = None,
                   order_max: Optional[int] = None,
                   with_examples: bool = False,
                   variant: str = "proof",
                   tol: float = VIOLATION_TOL,
                   golden_tol_chain: float = GOLDEN_TOL_CHAIN,
                   golden_tol_direct: float = GOLDEN_TOL_DIRECT,
                   cfg: SpectralConfig = DEFAULT_CONFIG):
    """Lower-bound ladder for A ∘ B⁻¹ over M-matrix pairs.

    Per trial also asserts the M-matrix closure of the product and the
    inverse-entry caps on the dominance-scaled denominator.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    omin, omax = _spec_pair(spec, order_min, order_max)
    reports = []
    for t in range(trials):
        rng = _trial_rng(spec.seed, t)
        if with_examples and t == 0:
            a, b = WORKED_HINV_A, WORKED_HINV_B
        else:
            n = _sample_order(rng, omin, omax)
            a = gen_m_matrix(spec, rng=rng, order=n)
            b = gen_m_matrix(spec, rng=rng, order=n)
        n = a.shape[0]
        binv = inverse(b)
        prod = hadamard(a, binv)
        tau_a = tau_m_matrix(a, cfg).value
        tau_b = tau_m_matrix(b, cfg).value
        rho_ja = jacobi_radius(a, cfg)
        rho_jb = jacobi_radius(b, cfg)
        oracle = tau_m_matrix(prod, cfg).value
        ladder = (
            bounds.tau_hinv_diag_floor(tau_a, binv),
            bounds.tau_hinv_jacobi_ratio(a, b, rho_ja, rho_jb),
            bounds.tau_hinv_chain(a, b),
            bounds.tau_hinv_jacobi_oval(a, b, binv, rho_ja, rho_jb),
            bounds.tau_hinv_deficit_oval(a, b, binv, tau_a, tau_b, variant=variant),
        )
        violations = list(_flag_lower(oracle, ladder, tol))
        checks = [("product_is_m_matrix", classify(prod).nonsingular_m_matrix)]
        # inverse-entry caps on the dominance-scaled denominator
        scaled, _, _ = bounds._dominance_scaled(b)
        caps = bounds.inverse_column_caps(scaled)
        sinv = inverse(scaled)
        beta = np.diag(sinv)
        caps_ok = True
        for j in range(n):
            for i in range(n):
                if i != j and sinv[j, i] > caps[j, i] * beta[i] + CAP_TOL:
                    caps_ok = False
        checks.append(("inverse_entry_caps", caps_ok))
        if with_examples and t == 0:
            checks.extend(_golden_checks("hinv", oracle, ladder,
                                         golden_tol_chain, golden_tol_direct))
        violations.extend(name for name, ok in checks if not ok)
        reports.append(TrialReport(
            trial=t, order=n, digests=(_digest(a), _digest(b)),
            oracle_name="tau_hadamard_inverse", oracle=oracle, bounds=ladder,
            violations=tuple(violations), checks=tuple(checks),
        ))
    return reports


def run_multi_fan_suite(trials: int, exponents: bounds.HolderExponents,
                        spec: GeneratorSpec,
                        order_min: Optional[int] = None,
                        order_max: Optional[int] = None,
                        with_examples: bool = False,
                        tol: float = VIOLATION_TOL,
                        golden_tol_chain: float = GOLDEN_TOL_CHAIN,
                        golden_tol_direct: float = GOLDEN_TOL_DIRECT,
                        cfg: SpectralConfig = DEFAULT_CONFIG):
    """Hölder-exponent bound for m-fold Fan products (m = len(exponents)).

    Also asserts the reduction identities: exponents (1,1) reproduce the
    affine two-matrix bound to 1e-12, and a single exponent (1,) returns
    tau of the matrix itself.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = len(exponents.p)
    omin, omax = _spec_pair(spec, order_min, order_max)
    reports = []
    for t in range(trials):
        rng = _trial_rng(spec.seed, t)
        if with_examples and t == 0:
            base = (WORKED_FAN_A, WORKED_FAN_B, WORKED_FAN_A)
            mats = [base[k % 3].copy() for k in range(m)]
            n = 3
        else:
            n = _sample_order(rng, omin, omax)
            mats = [gen_m_matrix(spec, rng=rng, order=n) for _ in range(m)]
        taus_pow = [tau_m_matrix(fan_power(mk, pk), cfg).value
                    for mk, pk in zip(mats, exponents.p)]
        acc = mats[0]
        for mk in mats[1:]:
            acc = fan_product(acc, mk)
        oracle = tau_m_matrix(acc, cfg).value
        br = bounds.tau_multi_fan(mats, exponents, taus_pow)
        ladder = (br,)
        violations = list(_flag_lower(oracle, ladder, tol))
        checks = []
        if m == 1 and exponents.p == (1,):
            tau_a = tau_m_matrix(mats[0], cfg).value
            checks.append(("identity_single", abs(br.value - tau_a) <= 1e-12))
        if m == 2 and exponents.p == (1, 1):
            tau_a = tau_m_matrix(mats[0], cfg).value
            tau_b = tau_m_matrix(mats[1], cfg).value
            affine = bounds.tau_bound_affine(mats[0], mats[1], tau_a, tau_b)
            checks.append(("identity_affine", abs(br.value - affine.value) <= 1e-12))
        if m == 2 and exponents.p == (2, 2):
            tau_a = tau_m_matrix(mats[0], cfg).value
            tau_b = tau_m_matrix(mats[1], cfg).value
            checks.append(("chain_over_product",
                           br.value >= tau_a * tau_b - VIOLATION_TOL))
        if with_examples and t == 0 and m == 2:
            checks.extend(_golden_checks("multi-fan", oracle, ladder,
                                         golden_tol_chain, golden_tol_direct))
        violations.extend(name for name, ok in checks if not ok)
        reports.append(TrialReport(
            trial=t, order=n, digests=tuple(_digest(mk) for mk in mats),
            oracle_name="tau_multi_fan", oracle=oracle, bounds=ladder,
            violations=tuple(violations), checks=tuple(checks),
        ))
    return reports
