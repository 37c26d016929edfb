"""Randomized verification harness.

Generates seeded random instances, computes the eigen-extremum oracle for
each product, evaluates the full bound ladder, and reports violations.
Each product family is defined once, in ``FAMILIES``, with the one rule
that judges its rungs: the CLI's ``bounds`` and ``run_suite`` both use it.
Trials are independent: each one derives its own RNG from (seed, trial
index), so results do not depend on execution order and suites may fan out.

A suite runs in three passes.  The first draws every trial's factors in
the per-trial RNG order and, for M-matrix factors, takes every diagonal
shift from one stacked Perron solve.  The second lists each trial's
spectral problems (``Family.problems``), which gate every factor once,
and solves those of all trials in one stacked call (``spectral.solve``),
whose stacks are padded to bucket orders 4·⌈n/4⌉.  The third evaluates
the ladders and the structural checks of all trials of one bucket order
as one identity-padded (T, N, N) stack (``Family.assess``), with a mask
that keeps the pad out of every rung and check, and the per-trial
``BoundResult`` and ``TrialReport`` records are built at the end.  One
tuple of factors, such as a CLI pair, is a padded stack of one
(``Family.evaluate``).  Input is validated once, where it enters: by
``cli.read_matrix`` for the CLI, by ``as_matrix`` in ``Family.evaluate``
and the public ``core`` and ``spectral`` functions, and by construction
for the generated factors, which are finite float64.  No kernel checks
its arrays again.  Clamp warnings and errors are recorded per trial and
replayed in trial order, so a stacked suite logs what a one-at-a-time
evaluation would log and raises its error at the trial, and the step of
that trial, where that evaluation would meet it.

A trial's ``violations`` tuple names every failed condition — a bound on
the wrong side of the oracle beyond tolerance, or a structural check
(M-matrix closure of the product, inverse-entry caps, determinant chains,
reduction identities).  Passing trials carry an empty tuple.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _lu, bounds, spectral
from .bounds import _diag
from .core import (_fan_power, _fan_product, _finite, _hadamard,
                   _scale_similarity, _stacks, as_matrix, classify)
from .errors import ClassMismatchError, MboundError, unwrap
from .spectral import _jacobi_matrix

__all__ = [
    "GeneratorSpec",
    "TrialReport",
    "gen_nonnegative",
    "gen_m_matrix",
    "Family",
    "FAMILIES",
    "run_suite",
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
        if not math.isfinite(self.diagonal_margin):
            raise ValueError("diagonal_margin must be finite")


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
    """sha256 of the %.17g entries of a, joined by ";", to 12 hex digits:
    one % call formats the whole matrix."""
    payload = ("%.17g;" * a.size)[:-1] % tuple(a.ravel().tolist())
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
    alpha floors at the margin itself; P is then nilpotent and alpha*I − P
    a nonsingular M-matrix in exact arithmetic for every margin > 0; in
    float64 a tiny margin can round it into one that ``classify`` rejects.
    The result is not gated here: every consumer gates it, the families
    through their problem lists.
    A margin so large that alpha overflows float64 raises ValueError.
    """
    if rng is None:
        rng = _trial_rng(spec.seed, 0)
    p = gen_nonnegative(spec, rng=rng, order=order)
    return unwrap(_shift_to_m([p], spec.diagonal_margin)[0])


def _shift_to_m(ps, margin: float) -> list:
    """``gen_m_matrix``'s shift for a list of nonnegative P: per P,
    alpha*I − P or the error ``gen_m_matrix`` raises for it.  Every rho(P)
    comes from one ``spectral.solve`` call, so a P gets the same bits here
    as alone.  alpha is a Python float, so an overflow gives inf without a
    floating-point warning."""
    out = spectral.solve([("rho", p) for p in ps])
    for i, (p, r) in enumerate(zip(ps, out)):
        if isinstance(r, Exception):
            continue
        alpha = r.value * (1.0 + margin) if r.value > 0.0 else margin
        if math.isfinite(alpha):
            out[i] = alpha * np.eye(p.shape[0]) - p
        else:
            out[i] = ValueError("the diagonal shift rho(P)(1 + margin) "
                                "overflows float64")
    return out


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
        # circulated figure 0.1929 comes from radii that do not cap B⁻¹
        "tau_hinv_deficit_oval": (0.17610873206162017, "chain"),
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
    "hinv:tau_hinv_deficit_oval": 0.1929,
}

GOLDEN_TOL_DIRECT = 5e-4
GOLDEN_TOL_CHAIN = 5e-3


def _golden_checks(family: str, oracle: float, ladder):
    """(name, passed) golden comparisons for an injected trial 0."""
    table = GOLDEN[family]
    tols = {"direct": GOLDEN_TOL_DIRECT, "chain": GOLDEN_TOL_CHAIN}
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


def _chain_le(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x <= y with slack scaled to the magnitudes (n-th powers get large)
    return x <= y + CHAIN_REL_TOL * np.maximum(1.0, np.maximum(np.abs(x),
                                                              np.abs(y)))


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


# ----------------------------------------------------------------------
# the product families: one definition each, used by `bounds` and `verify`
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One product family.

    ``problems(mats, exponents, todo)`` appends to ``todo`` the spectral
    problems of one tuple of factors, ("rho" | "tau", matrix), in the order
    a one-at-a-time evaluation meets them, and returns ctx, the per-pair
    quantities formed on the way.  The rest works on a stack of T tuples of
    one bucket order N: mats holds one identity-padded (T, N, N) stack per
    factor, values is the (T, k) array of solved values and ctx the stacked
    per-pair quantities, its matrices padded alike.
    ``ladder(mats, exponents, values, ctx, log)`` returns (oracle, rungs,
    ctx), one ``bounds._Rungs`` per rung; ``checks(mats, exponents, oracle,
    rungs, ctx, log)`` returns the structural checks as (name, passed,
    where) triples of (T,) arrays (``where`` None for a check every slice
    has), and the dominance hypothesis and verdict as (T,) arrays or None.
    Both read each slice's own indices from ``log.real`` and record each
    slice's clamp warnings and errors in ``log``.
    ``problems`` lists every spectral problem, the factor gates included,
    and the checks read their values from it too.  A ``holder`` family
    takes one factor per Hölder exponent.
    """

    kind: str  # GeneratorSpec kind of the generated factors
    worked: tuple  # worked example factors, cycled for m-fold products
    golden: str  # key into GOLDEN
    oracle_name: str
    lower: bool  # the ladder bounds the oracle from below
    problems: Callable
    ladder: Callable
    checks: Callable
    holder: bool = False

    def arity(self, exponents) -> int:
        """The factor count of one product: one per exponent for a
        ``holder`` family, which needs exponents, and two for the others,
        which take none."""
        if not self.holder:
            if exponents is not None:
                raise ValueError("this family takes no Hölder exponents")
            return 2
        if exponents is None:
            raise ValueError("this family needs Hölder exponents")
        return len(exponents.p)

    def solve(self, trials, exponents) -> list:
        """Per tuple of factors in ``trials``, (values, ctx) or the first
        error its evaluation meets: the spectral problems of every tuple
        are solved by one ``spectral.solve`` call."""
        todos, ctxs = [], []
        for mats in trials:
            todo = []
            try:
                ctx = self.problems(mats, exponents, todo)
            except (MboundError, ValueError) as exc:
                ctx = exc  # met after the problems already listed
            todos.append(todo)
            ctxs.append(ctx)
        results = iter(spectral.solve([p for todo in todos for p in todo]))
        out = []
        for todo, ctx in zip(todos, ctxs):
            res = [next(results) for _ in todo]
            failed = [r for r in res + [ctx] if isinstance(r, Exception)]
            out.append(failed[0] if failed else ([r.value for r in res], ctx))
        return out

    def assess(self, trials, solved, exponents, checked: bool = True) -> list:
        """Per tuple of factors in ``trials``, with its (values, ctx) from
        ``solve``: (log, slice, oracle, ladder, checks, hyp, dom).  The
        ladders, and with ``checked`` the checks, of all tuples of one
        bucket order 4·⌈n/4⌉ are one stack (``core._stacks``): every factor
        and every matrix of ctx gets an identity pad, and the log's mask
        ``real`` keeps the pad out of every rung and check.  A tuple of
        one order gets the same bits in any call.  ``log.flush(slice)``
        logs the tuple's clamp warnings and raises its error, as a
        one-at-a-time evaluation would."""
        out = [None] * len(trials)
        if not trials:
            return out
        ctxs = [ctx for _, ctx in solved]
        keys = [key for key, v in ctxs[0].items() if isinstance(v, np.ndarray)]
        m, n_cols = len(trials[0]), len(trials[0]) + len(keys)
        # the factors of every tuple, column by column, then its ctx
        # matrices: the arrays of a tuple share its order, so a bucket's
        # stack holds its k tuples once per column, in column order
        flat = [f[k] for k in range(m) for f in trials]
        flat += [c[key] for key in keys for c in ctxs]
        for idx, orders, stack in _stacks(flat, diag=1.0):
            k = len(idx) // n_cols
            idx, orders = idx[:k], orders[:k]
            stacks = stack.reshape(n_cols, k, *stack.shape[1:])
            lg = bounds._Log(np.arange(stack.shape[1])
                             < np.array(orders)[:, None])
            values = np.array([solved[t][0] for t in idx])
            ctx = dict(zip(keys, stacks[m:]))
            ctx.update((key, [ctxs[t][key] for t in idx])
                       for key in ctxs[0] if key not in keys)
            mats = list(stacks[:m])
            oracle, rungs, ctx = self.ladder(mats, exponents, values, ctx, lg)
            checks, hyp, dom = ([], None, None)
            if checked:
                checks, hyp, dom = self.checks(mats, exponents, oracle, rungs,
                                               ctx, lg)
            ladders = list(zip(*(r.records(orders) for r in rungs)))
            checks = [(name, ok.tolist(), None if where is None else where.tolist())
                      for name, ok, where in checks]
            hyp = [None] * len(idx) if hyp is None else hyp.tolist()
            dom = [None] * len(idx) if dom is None else dom.tolist()
            for i, (t, oracle_t) in enumerate(zip(idx, oracle.tolist())):
                out[t] = (lg, i, oracle_t, ladders[i],
                          [(name, ok[i]) for name, ok, where in checks
                           if where is None or where[i]],
                          hyp[i], dom[i] if hyp[i] else None)
        return out

    def evaluate(self, mats, exponents):
        """(oracle, ladder) of one tuple of factors, by the code path of a
        suite trial: a stack of one, without the checks.  This is the one
        way into a ladder from outside a suite: each factor goes through
        ``as_matrix``, and their count must be ``arity(exponents)``."""
        m = self.arity(exponents)
        if len(mats) != m:
            raise ValueError(f"expected {m} factors, got {len(mats)}")
        mats = [as_matrix(m) for m in mats]
        solved = unwrap(self.solve([mats], exponents)[0])
        lg, i, oracle, ladder, *_ = self.assess([mats], [solved], exponents,
                                                checked=False)[0]
        lg.flush(i)
        return oracle, ladder

    def slack(self, oracle: float, rung) -> float:
        """oracle − value for lower ladders, value − oracle for upper ones."""
        return oracle - rung.value if self.lower else rung.value - oracle

    @staticmethod
    def violates(slack: float, tol: float) -> bool:
        """The one verdict rule: a slack below −tol is a violation.  A
        non-finite tol would switch the test off, so it is rejected."""
        if not math.isfinite(tol):
            raise ValueError("tol must be finite")
        return slack < -tol


def _hadamard_problems(mats, exponents, todo):
    a, b = mats
    todo += [("rho", a), ("rho", b)]
    prod = _hadamard(a, b)
    todo.append(("rho", prod))
    return {"prod": prod}


def _hadamard_ladder(mats, exponents, values, ctx, lg):
    a, b = mats
    rho_a, rho_b, oracle = values.T
    ladder = (
        bounds._rho_product(rho_a, rho_b, lg),
        bounds._rho_affine(a, b, rho_a, rho_b, lg),
        bounds._rho_oval_deficit(a, b, rho_a, rho_b, lg),
        bounds._rho_oval_rowmax(a, b, rho_a, rho_b, lg),
    )
    return oracle, ladder, {**ctx, "rho_a": rho_a, "rho_b": rho_b}


def _hadamard_det_chain(prod, oracle, w, n):
    """|det| <= oracle^n <= (tightest upper bound)^n per slice of order n,
    with numpy's determinant as an independent reference; the identity pad
    of prod leaves its determinant as it is.  A power or a determinant
    that overflows is inf, and inf <= inf holds."""
    with np.errstate(over="ignore"):
        det = np.abs(np.linalg.det(prod))
        on = oracle ** n
        return _chain_le(det, on) & _chain_le(on, w ** n)


def _hadamard_checks(mats, exponents, oracle, ladder, ctx, lg):
    a, b = mats
    prod, real = ctx["prod"], lg.real
    # anchor: the oracle can never undercut a diagonal product
    checks = [("diag_anchor", oracle >= bounds._pick(_diag(prod), True, real)[0]
               - VIOLATION_TOL, None)]
    checks.append(("det_chain", _hadamard_det_chain(
        prod, oracle, ladder[3].values, real.sum(axis=1)), None))
    # conditional dominance of the rowmax oval over the deficit oval
    s, t = ladder[3].components["s"], ladder[3].components["t"]
    hyp = ((t + _diag(b) >= ctx["rho_b"][:, None])
           & (s + _diag(a) >= ctx["rho_a"][:, None]) | ~real).all(axis=1)
    dom = ladder[3].values <= ladder[2].values + DOMINANCE_TOL
    checks.append(("conditional_dominance", dom, hyp))
    return checks, hyp, dom


def _fan_problems(mats, exponents, todo):
    a, b = mats
    todo += [("tau", a), ("tau", b)]
    prod = _fan_product(a, b)
    todo.append(("tau", prod))
    return {"prod": prod}


def _fan_ladder(mats, exponents, values, ctx, lg):
    a, b = mats
    tau_a, tau_b, oracle = values.T
    ladder = (
        bounds._tau_product(tau_a, tau_b, lg),
        bounds._tau_affine(a, b, tau_a, tau_b, lg),
        bounds._tau_oval_deficit(a, b, tau_a, tau_b, lg),
        bounds._tau_oval_rowmax(a, b, tau_a, tau_b, lg),
    )
    return oracle, ladder, {**ctx, "tau_a": tau_a, "tau_b": tau_b}


def _fan_det_chain(prod, oracle, w, n):
    """|det| >= oracle^n >= w·|w|^(n−1) per slice of order n, which a
    negative bound passes at once.  Overflow is inf, as in the hadamard
    chain."""
    with np.errstate(over="ignore"):
        det = np.abs(np.linalg.det(prod))
        on = oracle ** n
        return _chain_le(on, det) & _chain_le(w * np.abs(w) ** (n - 1), on)


def _fan_checks(mats, exponents, oracle, ladder, ctx, lg):
    a, b = mats
    prod, real = ctx["prod"], lg.real
    checks = [("diag_anchor", oracle <= bounds._pick(_diag(prod), False, real)[0]
               + VIOLATION_TOL, None)]
    checks.append(("det_chain", _fan_det_chain(
        prod, oracle, ladder[3].values, real.sum(axis=1)), None))
    s, t = ladder[3].components["s"], ladder[3].components["t"]
    hyp = ((_diag(a) >= ctx["tau_a"][:, None] + s)
           & (_diag(b) >= ctx["tau_b"][:, None] + t) | ~real).all(axis=1)
    dom = ladder[3].values >= ladder[2].values - DOMINANCE_TOL
    checks.append(("conditional_dominance", dom, hyp))
    return checks, hyp, dom


def _hinv_problems(mats, exponents, todo):
    """τ(A), then one ``classify(b)``, which gates B and says whether B is
    already strictly row dominant, then B⁻¹, the pivoted inverse of a B that
    passed: every error of B comes after A's.  A B⁻¹ that overflows raises
    as an M-matrix inverse does."""
    a, b = mats
    todo.append(("tau", a))
    cls = classify(b)
    if not cls.nonsingular_m_matrix:
        raise ClassMismatchError("not a nonsingular M-matrix")
    binv = _finite(_lu.inverse(b), "inverse of this M-matrix")
    todo.append(("rho", _jacobi_matrix(a)))
    todo.append(("rho", _jacobi_matrix(b)))
    todo.append(("tau", _hadamard(a, binv)))
    return {"binv": binv, "dominant": cls.strictly_row_dd}


def _hinv_ladder(mats, exponents, values, ctx, lg):
    a, b = mats
    binv = ctx["binv"]
    tau_a, rho_ja, rho_jb, oracle = values.T
    scaling = bounds._dominance_scaling(b, binv, ctx["dominant"], lg)
    ladder = (
        bounds._tau_hinv_diag_floor(tau_a, binv, lg),
        bounds._tau_hinv_jacobi_ratio(a, b, rho_ja, rho_jb, lg),
        bounds._tau_hinv_chain(a, b, scaling, lg),
        bounds._tau_hinv_jacobi_oval(a, binv, rho_ja, rho_jb, lg),
        bounds._tau_hinv_deficit_oval(a, binv, tau_a, scaling, lg),
    )
    return oracle, ladder, {**ctx, "scaling": scaling}


def _hinv_checks(mats, exponents, oracle, ladder, ctx, lg):
    """M-matrix closure of the product, and the inverse-entry caps on the
    dominance-scaled denominator, whose inverse is D⁻¹ B⁻¹ D.  The closure
    verdict is the solve's: τ(A∘B⁻¹) passed the M-matrix gate of
    ``spectral.solve`` on these bits, or the trial raised there."""
    scaling = ctx["scaling"]
    sinv = _scale_similarity(ctx["binv"], scaling.d)
    # sinv[j, i] <= caps[j, i] * sinv[i, i]; the unit diagonal of caps
    # makes i == j hold trivially
    over = sinv > scaling.caps * _diag(sinv)[:, None, :] + CAP_TOL
    over &= lg.pairs
    return [("product_is_m_matrix", np.ones(len(oracle), dtype=bool), None),
            ("inverse_entry_caps", ~over.any(axis=(1, 2)), None)], None, None


def _multi_fan_problems(mats, exponents, todo):
    """τ of the m Fan powers (values[:, :m]), then τ of each factor whose
    power is not itself (p_k ≠ 1), which gates it as an M-matrix, then τ
    of the product.  ``_fan_power(A, 1)`` is an exact copy of A, whose τ
    gates A already, so no problem is listed twice."""
    for mk, pk in zip(mats, exponents.p):
        todo.append(("tau", _fan_power(mk, pk)))
    todo += [("tau", mk) for mk, pk in zip(mats, exponents.p) if pk != 1]
    acc = mats[0]
    for mk in mats[1:]:
        acc = _fan_product(acc, mk)
    todo.append(("tau", acc))
    return {}


def _multi_fan_ladder(mats, exponents, values, ctx, lg):
    taus_pow, oracle = values[:, :len(mats)], values[:, -1]
    ladder = (bounds._tau_multi_fan(mats, exponents, taus_pow, lg),)
    return oracle, ladder, {**ctx, "taus_pow": taus_pow,
                            "taus_gated": values[:, len(mats):-1]}


def _multi_fan_checks(mats, exponents, oracle, ladder, ctx, lg):
    """Reduction identities: a single exponent (1,) returns tau of the
    matrix itself, exponents (1,1) reproduce the affine two-matrix bound to
    1e-12.  ``_fan_power(A, 1)`` is an exact copy of A, so tau of the first
    powers is tau of the factors.  At (2,2) the chain bound must clear
    τ(A)·τ(B), the τ of the two factors' gates."""
    value = ladder[0].values
    p, taus = exponents.p, ctx["taus_pow"]
    checks = []
    if p == (1,):
        checks.append(("identity_single", np.abs(value - taus[:, 0]) <= 1e-12,
                       None))
    if p == (1, 1):
        affine = bounds._tau_affine(mats[0], mats[1], taus[:, 0], taus[:, 1],
                                     lg)
        checks.append(("identity_affine",
                       np.abs(value - affine.values) <= 1e-12, None))
    if p == (2, 2):
        ab = ctx["taus_gated"]
        checks.append(("chain_over_product",
                       value >= ab[:, 0] * ab[:, 1] - VIOLATION_TOL, None))
    return checks, None, None


# keyed by the CLI family name, in the order the CLI lists them
FAMILIES = {
    "hadamard": Family(
        "nonnegative", (WORKED_HADAMARD_A, WORKED_HADAMARD_B), "hadamard",
        "rho_hadamard", False, _hadamard_problems, _hadamard_ladder,
        _hadamard_checks),
    "fan": Family(
        "m_matrix", (WORKED_FAN_A, WORKED_FAN_B), "fan",
        "tau_fan", True, _fan_problems, _fan_ladder,
        _fan_checks),
    "hadamard-inverse": Family(
        "m_matrix", (WORKED_HINV_A, WORKED_HINV_B), "hinv",
        "tau_hadamard_inverse", True, _hinv_problems, _hinv_ladder,
        _hinv_checks),
    "multi-fan": Family(
        "m_matrix", (WORKED_FAN_A, WORKED_FAN_B, WORKED_FAN_A), "multi-fan",
        "tau_multi_fan", True, _multi_fan_problems, _multi_fan_ladder,
        _multi_fan_checks, holder=True),
}


def run_suite(family: Family, trials: int, spec: GeneratorSpec,
              order_min: Optional[int] = None,
              order_max: Optional[int] = None,
              with_examples: bool = False,
              exponents: Optional[bounds.HolderExponents] = None,
              tol: float = VIOLATION_TOL):
    """Seeded trials of one family: every rung that ``Family.violates`` at
    tol is flagged, and every failed structural check is flagged by name.
    Products take m = len(exponents) factors, or a pair when exponents is
    None; with_examples makes trial 0 the worked factors, checked against
    GOLDEN when m = 2.  The generated factors are finite float64 by
    construction, so they enter without ``as_matrix``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = family.arity(exponents)
    omin, omax = _spec_pair(spec, order_min, order_max)
    first = 1 if with_examples else 0
    drawn = []
    for t in range(first, trials):
        rng = _trial_rng(spec.seed, t)
        n = _sample_order(rng, omin, omax)
        drawn.extend(gen_nonnegative(spec, rng=rng, order=n) for _ in range(m))
    if family.kind == "m_matrix":
        drawn = _shift_to_m(drawn, spec.diagonal_margin)
    made = []
    if with_examples:
        made.append([family.worked[k % len(family.worked)].copy()
                     for k in range(m)])
    for t in range(trials - first):
        # a trial whose factors failed to generate holds its first error
        mats = drawn[t * m:(t + 1) * m]
        made.append(next((x for x in mats if isinstance(x, Exception)), mats))
    good = [t for t, mats in enumerate(made) if not isinstance(mats, Exception)]
    solved = dict(zip(good, family.solve([made[t] for t in good], exponents)))
    # a one-at-a-time evaluation stops at the first trial that fails to
    # generate or to solve; the trials before it are assessed as stacks
    stop = next((t for t in range(trials) if isinstance(made[t], Exception)
                 or isinstance(solved[t], Exception)), trials)
    assessed = family.assess(made[:stop], [solved[t] for t in range(stop)],
                             exponents)
    reports = []
    for t, (lg, i, oracle, ladder, checks, hyp, dom) in enumerate(assessed):
        lg.flush(i)
        mats = made[t]
        if with_examples and t == 0 and m == 2:
            checks.extend(_golden_checks(family.golden, oracle, ladder))
        violations = tuple(br.name for br in ladder
                           if family.violates(family.slack(oracle, br), tol))
        violations += tuple(name for name, ok in checks if not ok)
        reports.append(TrialReport(
            trial=t, order=mats[0].shape[0],
            digests=tuple(_digest(mk) for mk in mats),
            oracle_name=family.oracle_name, oracle=oracle, bounds=ladder,
            violations=violations, checks=tuple(checks),
            dominance_hypothesis=hyp, dominance_holds=dom,
        ))
    if stop < trials:
        unwrap(made[stop])
        unwrap(solved[stop])
    return reports


def run_hadamard_suite(trials: int, spec: GeneratorSpec, **options):
    return run_suite(FAMILIES["hadamard"], trials, spec, **options)


def run_fan_suite(trials: int, spec: GeneratorSpec, **options):
    return run_suite(FAMILIES["fan"], trials, spec, **options)


def run_hinv_suite(trials: int, spec: GeneratorSpec, **options):
    return run_suite(FAMILIES["hadamard-inverse"], trials, spec, **options)


def run_multi_fan_suite(trials: int, exponents: bounds.HolderExponents,
                        spec: GeneratorSpec, **options):
    return run_suite(FAMILIES["multi-fan"], trials, spec, exponents=exponents,
                     **options)
