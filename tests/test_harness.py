"""Generator determinism, trial independence, and suite bookkeeping."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbound import harness
from mbound.bounds import HolderExponents
from mbound.core import classify
from mbound.errors import ClassMismatchError
from mbound.harness import (GeneratorSpec, GOLDEN, gen_m_matrix,
                            gen_nonnegative, lemma_product_m_matrix,
                            run_fan_suite, run_hadamard_suite, run_hinv_suite,
                            run_multi_fan_suite)
from conftest import random_m_matrix, random_nonnegative


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


def test_lemma_product_m_matrix(hinv_pair):
    a, b = hinv_pair
    assert lemma_product_m_matrix(b, a)  # B o A^-1
    assert lemma_product_m_matrix(a, b)  # A o B^-1
    with pytest.raises(ClassMismatchError):
        lemma_product_m_matrix(-a, b)


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
    assert lemma_product_m_matrix(b, a)
    assert lemma_product_m_matrix(a, b)


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
    solved = fam.solve([mats], None, checked=True)
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
    # The ladder and checks of T trials, stacked per order, report what T
    # stacks of one report: values, components, checks, dominance flags,
    # error class and message, and the clamp lines in trial order.  Some
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
    solved = fam.solve(trials, exponents, checked=True)
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
