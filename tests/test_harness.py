"""Generator determinism, trial independence, and suite bookkeeping."""
import hashlib
import itertools
import json
import logging
import os

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mbound import harness
from mbound.bounds import HolderExponents
from mbound.core import classify
from mbound.errors import ClassMismatchError, MboundError
from mbound.harness import (GeneratorSpec, GOLDEN, gen_m_matrix,
                            gen_nonnegative, run_fan_suite, run_hadamard_suite,
                            run_hinv_suite, run_multi_fan_suite)
from conftest import (product_with_inverse_is_m, random_m_matrix,
                      random_nonnegative)


def test_spec_validation():
    GeneratorSpec(kind="nonnegative", order=3, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="wat", order=3, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="nonnegative", order=0, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="nonnegative", order=13, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="nonnegative", order=3, density=0.0, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="nonnegative", order=3, density=1.1, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="m_matrix", order=3, density=0.5, seed=0,
                      diagonal_margin=0.0)
    with pytest.raises(ValueError, match="finite"):
        GeneratorSpec(kind="m_matrix", order=3, density=0.5, seed=0,
                      diagonal_margin=float("inf"))


def test_gen_nonnegative_deterministic():
    spec = GeneratorSpec(kind="nonnegative", order=5, density=0.7, seed=99)
    np.testing.assert_array_equal(gen_nonnegative(spec), gen_nonnegative(spec))


def test_gen_nonnegative_density_extremes():
    dense = GeneratorSpec(kind="nonnegative", order=6, density=1.0, seed=1)
    assert np.count_nonzero(gen_nonnegative(dense)) == 36
    sparse = GeneratorSpec(kind="nonnegative", order=6, density=0.05, seed=1)
    a = gen_nonnegative(sparse)
    assert np.count_nonzero(a) < 36
    # kept entries clear the acceptance threshold
    assert np.all(a[a > 0] >= 0.95)


def test_gen_m_matrix_classifies():
    spec = GeneratorSpec(kind="m_matrix", order=6, density=0.8, seed=3)
    a = gen_m_matrix(spec)
    c = classify(a)
    assert c.z_matrix and c.nonsingular_m_matrix


def test_gen_m_matrix_zero_pattern_floor():
    # density so small the off-diagonal part is empty: the diagonal shift
    # falls back to the margin itself
    spec = GeneratorSpec(kind="m_matrix", order=3, density=1e-9, seed=0,
                         diagonal_margin=0.25)
    a = gen_m_matrix(spec)
    np.testing.assert_allclose(np.diag(a), 0.25)


def test_gen_m_matrix_leaves_the_gate_to_its_consumers():
    # alpha*I − P is a nonsingular M-matrix in exact arithmetic, but at
    # margin 1e-13 rounding leaves a Z-matrix that fails the gate: the
    # generator returns it, and classify and the families gate it
    spec = GeneratorSpec(kind="m_matrix", order=6, density=1.0, seed=3,
                         diagonal_margin=1e-13)
    c = classify(gen_m_matrix(spec))
    assert c.z_matrix and not c.nonsingular_m_matrix


TINY_MARGIN_FAMILIES = [("fan", None), ("hadamard-inverse", None),
                        ("multi-fan", (2, 2)), ("multi-fan", (1, 1))]


def _tiny_margin_suite(family, p, seed, margin, examples):
    """run(trials) of one family at orders 2–8, and the first trial of 30
    with a factor that ``classify`` rejects, rebuilt one generator call
    per factor from the trial's own stream."""
    fam = harness.FAMILIES[family]
    exponents = None if p is None else HolderExponents(p)
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=seed,
                         diagonal_margin=margin)

    def run(trials):
        return harness.run_suite(fam, trials, spec, order_min=2, order_max=8,
                                 with_examples=examples, exponents=exponents)

    def rejected(t):
        rng = harness._trial_rng(seed, t)
        n = harness._sample_order(rng, 2, 8)
        mats = [gen_m_matrix(spec, rng=rng, order=n)
                for _ in range(fam.arity(exponents))]
        return not all(classify(a).nonsingular_m_matrix for a in mats)

    first = int(examples)  # the worked trial 0 is not generated
    return run, next((t for t in range(first, 30) if rejected(t)), None)


@pytest.mark.parametrize("family, p", TINY_MARGIN_FAMILIES,
                         ids=["fan", "hinv", "multi-fan-2-2", "multi-fan-1-1"])
def test_tiny_margin_suite_stops_at_the_first_rejected_factor(family, p):
    # the generator does not gate; the family's own problems gate each
    # factor once, so a suite stops at the first trial whose factors
    # classify rejects, and every trial before it reports
    for margin, seed, examples in itertools.product((1e-13, 1e-14), (3, 4),
                                                    (False, True)):
        run, stop = _tiny_margin_suite(family, p, seed, margin, examples)
        assert stop is not None
        for trials in (30, stop + 1):
            with pytest.raises(ClassMismatchError,
                               match="not a nonsingular M-matrix"):
                run(trials)
        if stop:
            assert [r.trial for r in run(stop)] == list(range(stop))


@pytest.mark.parametrize("family, p", [f for f in TINY_MARGIN_FAMILIES
                                       if f[0] != "hadamard-inverse"],
                         ids=["fan", "multi-fan-2-2", "multi-fan-1-1"])
def test_margin_1e_12_suites_pass(family, p):
    # every factor passes its gate at margin 1e-12, and no rung or check
    # is flagged
    for seed in (3, 4):
        run, stop = _tiny_margin_suite(family, p, seed, 1e-12, False)
        assert stop is None
        reports = run(30)
        assert len(reports) == 30
        assert all(r.violations == () for r in reports)


def test_lemma_product_m_matrix(hinv_pair):
    a, b = hinv_pair
    assert product_with_inverse_is_m(b, a)  # A o B^-1
    assert product_with_inverse_is_m(a, b)  # B o A^-1


def test_lemma_product_m_matrix_sparse_pair():
    # trial 0 of seed 16777390 at orders 10-12, density 0.3, margin 0.05:
    # a pivoted inverse of b has 8 entries of negative rounding dust where
    # the true inverse is 0, which broke the Z-pattern of a o b^-1
    spec = GeneratorSpec(kind="m_matrix", order=10, density=0.3,
                         seed=16777390, diagonal_margin=0.05)
    rng = harness._trial_rng(spec.seed, 0)
    n = harness._sample_order(rng, 10, 12)
    a, b = (gen_m_matrix(spec, rng=rng, order=n) for _ in range(2))
    assert n == 10
    assert product_with_inverse_is_m(b, a)
    assert product_with_inverse_is_m(a, b)


@pytest.mark.parametrize("family, mats, p, message", [
    ("fan", [[[1.0, np.nan], [0.0, 1.0]], np.eye(2)], None, "finite"),
    ("hadamard", [np.ones((2, 3)), np.ones((2, 2))], None, "square"),
    ("hadamard", [np.eye(2)] * 3, None, "expected 2 factors, got 3"),
    ("hadamard-inverse", [np.eye(2)], None, "expected 2 factors, got 1"),
    ("multi-fan", [np.eye(2)] * 3, (2, 2), "expected 2 factors, got 3"),
    ("multi-fan", [np.eye(2)] * 2, None, "needs Hölder exponents"),
    ("fan", [np.eye(2)] * 2, (2, 2), "takes no Hölder exponents")],
    ids=["nonfinite", "nonsquare", "three-for-a-pair", "one-for-a-pair",
         "count-differs-from-p", "no-exponents", "exponents-for-a-pair"])
def test_evaluate_validates_its_factors(family, mats, p, message):
    # evaluate is the way into a ladder from outside a suite: every factor
    # goes through as_matrix, and a wrong count is an error, not truncated
    exponents = None if p is None else HolderExponents(p)
    with pytest.raises(ValueError, match=message):
        harness.FAMILIES[family].evaluate(mats, exponents)


def test_multi_fan_suite_needs_exponents():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=0)
    with pytest.raises(ValueError, match="needs Hölder exponents"):
        harness.run_suite(harness.FAMILIES["multi-fan"], 2, spec)


@pytest.mark.parametrize("family", ["hadamard", "fan", "hadamard-inverse"])
def test_pair_suite_rejects_exponents(family):
    fam = harness.FAMILIES[family]
    spec = GeneratorSpec(kind=fam.kind, order=2, density=1.0, seed=0)
    with pytest.raises(ValueError, match="takes no Hölder exponents"):
        harness.run_suite(fam, 2, spec, exponents=HolderExponents((1, 1)))


@pytest.mark.parametrize("family", ["hadamard", "fan"])
def test_det_chains_pass_where_a_power_overflows(family):
    # the worked pair scaled by 1e100 has an oracle near 1e200, so
    # oracle^n and numpy's determinant overflow: both are inf, and the
    # chain holds instead of raising OverflowError or warning
    fam = harness.FAMILIES[family]
    mats = [1e100 * m for m in fam.worked]
    solved = fam.solve([mats], None)
    lg, i, oracle, _, checks, *_ = fam.assess([mats], solved, None)[0]
    lg.flush(i)
    assert len(mats[0]) * np.log10(oracle) > 309  # oracle^n > float64 max
    assert dict(checks)["det_chain"] is True


def test_suite_reports_are_reproducible():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=11)
    r1 = run_fan_suite(6, spec, order_min=2, order_max=5)
    r2 = run_fan_suite(6, spec, order_min=2, order_max=5)
    assert [r.digests for r in r1] == [r.digests for r in r2]
    assert [r.oracle for r in r1] == [r.oracle for r in r2]


def test_trials_are_order_independent():
    # trial k derives its RNG from (seed, k), so a longer run must start
    # with exactly the shorter run's trials
    spec = GeneratorSpec(kind="nonnegative", order=2, density=1.0, seed=4)
    short = run_hadamard_suite(3, spec, order_min=2, order_max=6)
    long = run_hadamard_suite(7, spec, order_min=2, order_max=6)
    assert [r.digests for r in short] == [r.digests for r in long[:3]]


def test_hadamard_suite_clean_small():
    spec = GeneratorSpec(kind="nonnegative", order=2, density=1.0, seed=12)
    reports = run_hadamard_suite(25, spec, order_min=2, order_max=6)
    assert all(r.violations == () for r in reports)
    assert all(len(r.bounds) == 4 for r in reports)
    assert all(r.oracle_name == "rho_hadamard" for r in reports)


def test_fan_suite_clean_small():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=12)
    reports = run_fan_suite(25, spec, order_min=2, order_max=6)
    assert all(r.violations == () for r in reports)
    # dominance bookkeeping: flag recorded only when the hypothesis held
    for r in reports:
        if not r.dominance_hypothesis:
            assert r.dominance_holds is None


def test_hinv_suite_checks_present():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=13)
    reports = run_hinv_suite(10, spec, order_min=2, order_max=5)
    assert all(r.violations == () for r in reports)
    for r in reports:
        names = [name for name, _ in r.checks]
        assert "product_is_m_matrix" in names
        assert "inverse_entry_caps" in names
        assert len(r.bounds) == 5


def test_multi_fan_identities_checked():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=14)
    reports = run_multi_fan_suite(8, HolderExponents((1, 1)), spec,
                                  order_min=2, order_max=5)
    assert all(r.violations == () for r in reports)
    for r in reports:
        assert ("identity_affine", True) in r.checks


def test_multi_fan_single_exponent_identity():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=15)
    reports = run_multi_fan_suite(8, HolderExponents((1,)), spec,
                                  order_min=2, order_max=5)
    for r in reports:
        assert ("identity_single", True) in r.checks


def test_golden_injection_hadamard():
    spec = GeneratorSpec(kind="nonnegative", order=2, density=1.0, seed=0)
    reports = run_hadamard_suite(2, spec, order_min=2, order_max=4,
                                 with_examples=True)
    t0 = reports[0]
    assert t0.order == 4
    assert t0.oracle == pytest.approx(5.7339, abs=5e-4)
    golden_names = [n for n, _ in t0.checks if n.startswith("golden:")]
    assert len(golden_names) == len(GOLDEN["hadamard"])
    assert t0.violations == ()
    # trial 1 must be the usual random draw, no golden entries
    assert not any(n.startswith("golden:") for n, _ in reports[1].checks)


def test_hinv_deficit_oval_below_tau_at_spec_seed_100664826():
    # trial 0 (n = 3): radii from the per-k chain put this rung at 0.9006,
    # above tau = 0.8962; the column-cap radii give 0.8854
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0,
                         seed=100664826, diagonal_margin=0.5)
    rep = run_hinv_suite(8, spec, order_min=2, order_max=8)[0]
    assert rep.oracle == pytest.approx(0.8962283143925667, rel=1e-12)
    rung = {br.name: br.value for br in rep.bounds}["tau_hinv_deficit_oval"]
    assert rung == pytest.approx(0.8854120219710608, rel=1e-12)
    assert rep.violations == ()


def test_golden_injection_hinv():
    spec = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=0)
    reports = run_hinv_suite(1, spec, with_examples=True)
    assert reports[0].violations == ()


def test_golden_tolerance_can_fail(monkeypatch):
    # absurdly tight tolerance: the injected trial must now flag the
    # chained comparisons instead of silently passing
    monkeypatch.setattr(harness, "GOLDEN_TOL_CHAIN", 1e-15)
    spec = GeneratorSpec(kind="nonnegative", order=2, density=1.0, seed=0)
    reports = run_hadamard_suite(1, spec, with_examples=True)
    assert any(v.startswith("golden:") for v in reports[0].violations)


def test_trials_argument_validated():
    spec = GeneratorSpec(kind="nonnegative", order=2, density=1.0, seed=0)
    with pytest.raises(ValueError):
        run_hadamard_suite(0, spec)
    with pytest.raises(ValueError):
        run_hadamard_suite(3, spec, order_min=5, order_max=2)


@pytest.mark.parametrize("family", list(harness.FAMILIES))
@pytest.mark.parametrize("order_min, order_max, density, margin, trials", [
    (2, 8, 1.0, 0.5, 12),  # the verify defaults
    (10, 12, 0.3, 0.05, 4),  # sparse, large, near-singular
])
def test_suite_inputs_rebuild_one_matrix_at_a_time(family, order_min,
                                                   order_max, density,
                                                   margin, trials):
    # a suite draws and shifts all its factors in stacks; rebuilding trial
    # t from its own stream, one generator call per factor, must give the
    # same bits
    fam = harness.FAMILIES[family]
    spec = GeneratorSpec(kind=fam.kind, order=order_min, density=density,
                         seed=21, diagonal_margin=margin)
    exponents = HolderExponents((2, 2)) if family == "multi-fan" else None
    reports = harness.run_suite(fam, trials, spec, order_min=order_min,
                                order_max=order_max, exponents=exponents)
    gen = gen_nonnegative if fam.kind == "nonnegative" else gen_m_matrix
    assert len(reports) == trials
    for t, rep in enumerate(reports):
        rng = harness._trial_rng(spec.seed, t)
        n = harness._sample_order(rng, order_min, order_max)
        mats = [gen(spec, rng=rng, order=n) for _ in range(2)]
        assert (rep.trial, rep.order) == (t, n)
        assert rep.digests == tuple(harness._digest(a) for a in mats)


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _replay(assessed):
    """Per trial: repr of what it reports, or of its error, and the lines
    it logs, replayed in trial order."""
    handler = _Lines()
    logger = logging.getLogger("mbound.bounds")
    logger.addHandler(handler)
    out = []
    try:
        for lg, i, *report in assessed:
            del handler.lines[:]
            try:
                lg.flush(i)
                outcome = repr(report)
            except Exception as exc:  # the trial's own error
                outcome = repr((type(exc), str(exc)))
            out.append((outcome, list(handler.lines)))
    finally:
        logger.removeHandler(handler)
    return out


@pytest.mark.parametrize("family", list(harness.FAMILIES))
@given(data=st.data(), seed=st.integers(0, 10 ** 6),
       density=st.sampled_from([1.0, 0.3]))
@settings(max_examples=30, deadline=None)
def test_stacked_ladder_and_checks_match_stacks_of_one(family, data, seed,
                                                       density):
    # The ladder and checks of T trials, stacked per bucket order, report
    # what T stacks of one report: values, components, checks, dominance
    # flags, error class and message, and the clamp lines in trial order.
    # Both sides are padded alike, so a leaked pad shows only in
    # test_padded_stacks_keep_the_per_order_reports.  Some
    # solved values are moved off their oracle, or just past a diagonal
    # entry, so that ovals and multi-Fan brackets clamp or fail.  Some hinv
    # trials get the identity for B^-1: d = 1 then leaves a B that is not
    # row dominant unscaled, and its row chain raises.
    fam = harness.FAMILIES[family]
    exponents = None
    if family == "multi-fan":
        exponents = HolderExponents(data.draw(st.sampled_from(
            [(2, 2), (1, 1), (1,), (2, 3, 6)])))
    m = 2 if exponents is None else len(exponents.p)
    pool = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    orders = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=8))
    rng = np.random.default_rng(seed)
    trials = []
    for n in orders:
        # trials of several scales share a stack
        scale = data.draw(st.sampled_from([1.0, 1e4]))
        if fam.kind == "nonnegative":
            trials.append([scale * random_nonnegative(rng, n, density)
                           for _ in range(m)])
        else:
            margin = data.draw(st.sampled_from([0.5, 0.01]))
            trials.append([scale * random_m_matrix(rng, n, margin, density)
                           for _ in range(m)])
    solved = fam.solve(trials, exponents)
    kept = [t for t, r in enumerate(solved) if not isinstance(r, Exception)]
    trials = [trials[t] for t in kept]
    solved = [solved[t] for t in kept]
    p = (1,) * m if exponents is None else exponents.p
    for t, (values, ctx) in enumerate(solved):
        shift = data.draw(st.sampled_from([1.0, 1.0, 0.5, 2.0, "edge"]))
        if shift == "edge":
            # just past the extreme diagonal entry (power) of each factor:
            # a clamp on the scale of the trial, not an error
            edge = [float(np.min(np.diag(mk) ** pk)) * (1.0 + 5e-9) if fam.lower
                    else float(np.max(np.diag(mk))) * (1.0 - 5e-9)
                    for mk, pk in zip(trials[t], p)]
            values = edge + values[m:]
        else:
            values = [v * shift for v in values[:-1]] + values[-1:]
        if family == "hadamard-inverse" and data.draw(st.booleans()):
            ctx = {**ctx, "binv": np.eye(len(trials[t][0]))}
        solved[t] = (values, ctx)
    stacked = _replay(fam.assess(trials, solved, exponents))
    alone = [_replay(fam.assess([mats], [r], exponents))[0]
             for mats, r in zip(trials, solved)]
    assert stacked == alone


# family, Hölder exponents and tuples per order of each pad-leak case
PAD_CASES = {
    "hadamard": ("hadamard", None, 3),
    "fan": ("fan", None, 1),
    "hadamard-inverse": ("hadamard-inverse", None, 2),
    "multi-fan@2,2": ("multi-fan", (2, 2), 1),
    "multi-fan@1,1": ("multi-fan", (1, 1), 1),
}
# per case, the _outcome of each tuple of _pad_leak_outcomes, written by
# the evaluation that stacked the ladders and checks of one order at a time,
# without a pad
PAD_PINS = os.path.join(os.path.dirname(__file__), "pad_pins.json")


def _pad_leak_trials(case):
    """Tuples of factors of every order 1–12 on which an identity pad that
    leaked into a minimum, a maximum, an oval, a clamp, a failure test or a
    check would decide it.  M-matrix factors are row-dominant with a
    constant margin c per factor, so τ is about c and a_ii > 1:
    - fan: the pad's τ(A) + τ(B) − τ(A)τ(B) undercuts every tau_affine
      term, its diagonal product 1 every real one, and a_ii ≥ τ(A) + s_i
      holds on real rows and fails on the pad;
    - hadamard-inverse: b_ii < 1 < a_ii, so β_ii > 1 and a_ii/b_ii > 1
      undercut the pad's 1 in tau_hinv_diag_floor and
      tau_hinv_jacobi_ratio; the second B of each order is column-scaled,
      so it is not row dominant and is scaled;
    - multi-fan: τ(A_k^(p_k)) ≥ 4, so the pad's bracket 1 − τ fails;
    - hadamard: a dense pair with a_ii, b_ii > 1, where the pad would win
      rho_affine and the ovals, an upper-triangular pair with ρ = 2 on
      which the dominance hypothesis holds and fails on the pad, and a
      dense pair with ρ < 1, whose diag_anchor the pad's 1 would fail."""
    family, p, per_order = PAD_CASES[case]
    rng = np.random.default_rng(22)
    m = 2 if p is None else len(p)

    def dominant(n, c):
        q = np.where(rng.uniform(size=(n, n)) < 0.8,
                     rng.uniform(0.1, 1.0, (n, n)), 0.0)
        np.fill_diagonal(q, 0.0)
        return np.diag(q.sum(axis=1) + c) - q

    trials = []
    for n in range(1, 13):
        for variant in range(per_order):
            if family == "hadamard" and variant == 0:
                mats = [rng.uniform(0.0, 1.0, (n, n)) + np.eye(n)
                        for _ in range(2)]
            elif family == "hadamard" and variant == 2:
                mats = [rng.uniform(0.0, 0.8 / n, (n, n)) for _ in range(2)]
            elif family == "hadamard":
                mats = []
                for _ in range(2):
                    a = np.triu(rng.uniform(0.0, 1.0, (n, n)), 2)
                    a += np.diag(np.full(n - 1, 1.5), 1)
                    a += np.diag(np.append(rng.uniform(1.0, 1.5, n - 1), 2.0))
                    mats.append(a)
            elif family == "hadamard-inverse":
                b = dominant(n, rng.uniform(1.5, 2.5))
                if variant:
                    b = b * rng.uniform(0.05, 1.0, n)  # B·diag(v)
                mats = [dominant(n, rng.uniform(1.5, 2.5)),
                        0.8 * b / np.diag(b).max()]
            else:
                low = 2.0 if family == "multi-fan" else 1.5
                mats = [dominant(n, rng.uniform(low, low + 1.0))
                        for _ in range(m)]
            trials.append(mats)
    return trials


def _outcome(assessed):
    """Per trial, its error or its report with floats as hex strings, and
    the lines it logs, replayed in trial order."""
    def norm(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (tuple, list)):
            return [norm(v) for v in x]
        if isinstance(x, dict):
            return {k: norm(v) for k, v in x.items()}
        return x

    handler = _Lines()
    logger = logging.getLogger("mbound.bounds")
    logger.addHandler(handler)
    out = []
    try:
        for lg, i, oracle, ladder, checks, hyp, dom in assessed:
            del handler.lines[:]
            try:
                lg.flush(i)
                rec = {"oracle": oracle, "checks": checks, "hyp": hyp,
                       "dom": dom, "ladder": [(br.name, br.value, br.components)
                                              for br in ladder]}
            except Exception as exc:  # the trial's own error
                rec = {"error": [type(exc).__name__, str(exc)]}
            rec["log"] = list(handler.lines)
            out.append(norm(rec))
    finally:
        logger.removeHandler(handler)
    return out


def _assert_pinned(got, pin, exact, where):
    """got matches pin, a float bit for bit where exact and to 1e-13
    relative elsewhere; everything else exactly."""
    if isinstance(pin, list):
        assert isinstance(got, list) and len(got) == len(pin), (where, got, pin)
        for k, (g, p) in enumerate(zip(got, pin)):
            _assert_pinned(g, p, exact, f"{where}[{k}]")
    elif isinstance(pin, dict):
        assert isinstance(got, dict) and got.keys() == pin.keys(), (where, got)
        for k in pin:
            _assert_pinned(got[k], pin[k], exact, f"{where}.{k}")
    elif got != pin:
        # only a float (a hex string) may differ, and only where a pad is
        # added; float.fromhex raises on anything else
        assert not exact, (where, got, pin)
        x, y = float.fromhex(got), float.fromhex(pin)
        assert abs(x - y) <= 1e-13 * max(abs(x), abs(y)), (where, got, pin)


def _pad_leak_outcomes(case):
    """(orders, every tuple assessed in one call, each one alone).  The
    tuples of orders 1–4 come twice.  The second time, the spectral values
    of the factors are moved off, by 2 and 1/2 in turn (the oracle is
    kept), so that ovals clamp and multi-Fan brackets fail; an order-1
    slice, which has no oval pair, must still not clamp.  Their hinv B⁻¹
    is the identity, so a column-scaled B stays unscaled: a row whose
    off-diagonal sum exceeds its diagonal then gives the pad's columns a
    nonpositive row-chain denominator, and chain entries that would win."""
    family, p, _ = PAD_CASES[case]
    fam = harness.FAMILIES[family]
    exponents = None if p is None else HolderExponents(p)
    trials = _pad_leak_trials(case)
    solved = fam.solve(trials, exponents)
    for t in [t for t, mats in enumerate(trials) if len(mats[0]) <= 4]:
        values, ctx = solved[t]
        if "binv" in ctx:
            ctx = {**ctx, "binv": np.eye(len(trials[t][0]))}
        trials.append(trials[t])
        solved.append(([v * (0.5 if k % 2 else 2.0)
                        for k, v in enumerate(values[:-1])] + values[-1:], ctx))
    mixed = _outcome(fam.assess(trials, solved, exponents))
    alone = [_outcome(fam.assess([t], [s], exponents))[0]
             for t, s in zip(trials, solved)]
    return [len(t[0]) for t in trials], mixed, alone


@pytest.mark.parametrize("case", list(PAD_CASES))
def test_padded_stacks_keep_the_per_order_reports(case):
    # the ladders and checks of tuples of orders 1–12, in one call (the
    # order-1 ones share their stack with orders 2–4) and one at a time,
    # against the reports pinned from unpadded stacks of one order each:
    # bit for bit where the order fills its bucket (4, 8, 12), where no pad
    # is added, and to 1e-13 relative elsewhere, where padded row sums and
    # products may round otherwise.  On these tuples a pad that leaks into
    # any rung or check changes a report or an error.
    with open(PAD_PINS) as f:
        pins = json.load(f)[case]
    orders, mixed, alone = _pad_leak_outcomes(case)
    assert len(pins) == len(orders)
    for t, (n, pin) in enumerate(zip(orders, pins)):
        for how, got in (("mixed", mixed[t]), ("alone", alone[t])):
            _assert_pinned(got, pin, n % 4 == 0, f"{case} {how} trial {t}")


def _digest_per_entry(a):
    """The matrix digest as the benchmark computes it: each entry %.17g,
    joined by ";", sha256 to 12 hex digits."""
    payload = ";".join("%.17g" % x for x in a.ravel())
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@pytest.mark.parametrize("n", range(1, 13))
def test_digest_matches_the_per_entry_formula(n):
    rng = np.random.default_rng(n)
    edge = np.array([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300,
                     -1e300, 0.1, 1.0 / 3.0])
    for a in (rng.uniform(0.0, 1.0, (n, n)),
              np.where(rng.uniform(size=(n, n)) < 0.3,
                       rng.normal(size=(n, n)), 0.0),
              rng.choice(edge, (n, n)),
              np.zeros((n, n))):
        assert harness._digest(a) == _digest_per_entry(a)


@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(
    list(harness.FAMILIES)), regime=st.sampled_from([
        (2, 8, 1.0, 0.5, 12),  # suite-dense, the verify defaults
        (10, 12, 0.3, 0.05, 4),  # suite-sparse-large
        (2, 12, 0.3, 0.05, 8),  # every bucket order, reducible patterns
    ]))
@settings(max_examples=60, deadline=None)
def test_suite_inputs_rebuild_at_any_spec_seed(seed, family, regime):
    # the benchmark's gate on every trial of a suite call: rebuilding trial
    # t from its own stream, one generator call per factor, gives the
    # digests the suite reports, whatever else its stacks held
    order_min, order_max, density, margin, trials = regime
    fam = harness.FAMILIES[family]
    spec = GeneratorSpec(kind=fam.kind, order=order_min, density=density,
                         seed=seed, diagonal_margin=margin)
    exponents = HolderExponents((2, 2)) if family == "multi-fan" else None
    try:
        reports = harness.run_suite(fam, trials, spec, order_min=order_min,
                                    order_max=order_max, exponents=exponents)
    except MboundError:
        reject()  # a trial that raises ends the suite without reports
    gen = gen_nonnegative if fam.kind == "nonnegative" else gen_m_matrix
    assert len(reports) == trials
    for t, rep in enumerate(reports):
        rng = harness._trial_rng(spec.seed, t)
        n = harness._sample_order(rng, order_min, order_max)
        mats = [gen(spec, rng=rng, order=n) for _ in range(2)]
        assert (rep.trial, rep.order) == (t, n)
        assert rep.digests == tuple(_digest_per_entry(a) for a in mats)
