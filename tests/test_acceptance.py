"""End-to-end reproduction and bulk-validity gates.

Four circulated reference figures disagree with what the documented
formulas give on the shipped fixtures (see README, "reference-value
discrepancies"): the fan-product oracle 0.8819 (computed: 0.9377...) and
the 0.0707 / 0.1524 / 0.1929 rungs of the inverse-product ladder
(computed: 0.0481... / 0.1457... / 0.1761...).  The four
``*_circulated_value`` tests recompute
each quantity with numpy alone, straight from the fixture files and the
formula in the rung's docstring, and check that the CLI value and the
harness golden pin both match it.  They also check that the circulated
figure is recorded in ``REFERENCE_DISCREPANCIES`` and lies outside the
golden tolerance of the computed value, so the discrepancy is real.
"""
import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from mbound._lu import inverse
from mbound.bounds import HolderExponents
from mbound.cli import main
from mbound.harness import (GOLDEN, GOLDEN_TOL_CHAIN, GOLDEN_TOL_DIRECT,
                            REFERENCE_DISCREPANCIES, GeneratorSpec,
                            run_fan_suite, run_hadamard_suite, run_hinv_suite,
                            run_multi_fan_suite)
from mbound.spectral import rho_nonnegative, tau_m_matrix
from conftest import (product_with_inverse_is_m, random_m_matrix,
                      random_nonnegative, row_chain)

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def bound_rows(family, files, *extra):
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["bounds", family, *map(fixture, files),
                                    "--format", "jsonl", *extra])
    elapsed = time.perf_counter() - t0
    assert res.exit_code == 0, res.output
    rows = {}
    for line in res.output.strip().splitlines():
        obj = json.loads(line)
        rows[obj["bound"]] = obj["value"]
    return rows, elapsed


# --- independent numpy evaluation of the discrepant quantities ---------------
# Nothing below calls mbound: values come from the fixture files, the
# rung docstrings and numpy's dense eigensolver.

REL = 1e-9
GOLDEN_TOLS = {"direct": GOLDEN_TOL_DIRECT, "chain": GOLDEN_TOL_CHAIN}


def load(name):
    return np.loadtxt(fixture(name), ndmin=2)


def numpy_jacobi_radius(m):
    # rho(I - D^-1 M), D the diagonal part of M
    j = np.eye(len(m)) - m / np.diag(m)[:, None]
    return float(np.max(np.abs(np.linalg.eigvals(j))))


def numpy_jacobi_oval(a, beta, rho_ja, rho_jb):
    # min over ordered pairs i != j of
    # (x_i + x_j - sqrt((x_i - x_j)^2 + 4 x_i x_j rho^2(J_A) rho^2(J_B))) / 2
    # with x_i = a_ii beta_ii
    x = np.diag(a) * beta
    g = (rho_ja * rho_jb) ** 2
    n = len(x)
    return min(0.5 * (x[i] + x[j] - np.sqrt((x[i] - x[j]) ** 2
                                            + 4.0 * x[i] * x[j] * g))
               for i in range(n) for j in range(n) if i != j)


def numpy_tau(m):
    return float(np.min(np.linalg.eigvals(m).real))


def numpy_lower_oval(x, u, v):
    # min over ordered pairs i != j of
    # (x_i + x_j - sqrt((x_i - x_j)^2 + 4 u_i v_j)) / 2
    n = len(x)
    return min(0.5 * (x[i] + x[j] - np.sqrt((x[i] - x[j]) ** 2
                                            + 4.0 * u[i] * v[j]))
               for i in range(n) for j in range(n) if i != j)


def numpy_row_chain(b):
    # r_i = max_{l != i} |b_li| / (b_ll - sum_{k != l,i} |b_lk|), for a
    # strictly row dominant M-matrix b, and its off-diagonal magnitudes
    off = np.abs(b)
    np.fill_diagonal(off, 0.0)
    n = len(b)
    r = [max(off[l, i] / (b[l, l] - (off[l].sum() - off[l, i]))
             for l in range(n) if l != i) for i in range(n)]
    return off, np.array(r)


def numpy_chain_radii(b):
    # s_i = max_{j != i} (|b_ji| + sum_{k != j,i} |b_jk| r_k) / b_jj
    off, r = numpy_row_chain(b)
    n = len(b)
    return np.array([max((off[j, i] + sum(off[j, k] * r[k] for k in range(n)
                                           if k not in (i, j))) / b[j, j]
                         for j in range(n) if j != i) for i in range(n)])


def numpy_cap_radii(b):
    # s_i = max_{j != i} (|b_ji| + r_i sum_{k != j,i} |b_jk|) / b_jj
    off, r = numpy_row_chain(b)
    n = len(b)
    return np.array([max((off[j, i] + r[i] * (off[j].sum() - off[j, i]))
                         / b[j, j] for j in range(n) if j != i)
                     for i in range(n)])


def numpy_deficit_oval(a, b, radii):
    # radicand 4 s_i s_j beta_ii beta_jj (a_ii - tau(A))(a_jj - tau(A)),
    # beta = diag(B^-1), for a strictly row dominant B (no scaling)
    beta = np.diag(np.linalg.inv(b))
    u = radii(b) * beta * (np.diag(a) - numpy_tau(a))
    return numpy_lower_oval(np.diag(a) * beta, u, u)


def numpy_statement_oval(a, b):
    beta = np.diag(np.linalg.inv(b))
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    s = off.max(axis=1)
    return numpy_lower_oval(np.diag(a) * beta,
                            s * beta * (np.diag(a) - numpy_tau(a)),
                            s * beta * (np.diag(b) - numpy_tau(b)))


# trial 0 of `verify hadamard-inverse --seed 100664826` (orders 2-8,
# density 1, margin 0.5); B is strictly row dominant
SPEC_SEED_100664826_A = np.array([
    [1.4173743314685707, -0.17691794701861585, -0.9916184660131538],
    [-0.15738887106275667, 1.8301495606045273, -0.0022416256654770317],
    [-0.6749128503083581, -0.08122626211878758, 1.5252810252116287]])
SPEC_SEED_100664826_B = np.array([
    [1.4296878455411521, -0.1660107178622866, -0.5221924581792596],
    [-0.5028818394321328, 1.6308252499331273, -0.3504370873644429],
    [-0.936176137407584, -0.09289518118276852, 1.7408296719204484]])
# trial 0 of a seed-3 suite at order 3, density 1, margin 0.01
STATEMENT_CE_A = np.array([
    [1.1896960099305112, -0.2368105065960997, -0.8012744652063969],
    [-0.5821620360643678, 1.1812165348337365, -0.4331269402364738],
    [-0.479051298140834, -0.15973891463707857, 0.540768025664921]])
STATEMENT_CE_B = np.array([
    [1.4597442241327454, -0.39122819049566204, -0.5167401826213637],
    [-0.4306280204141778, 0.9866176726160081, -0.7378377872921602],
    [-0.9562672548360985, -0.28420116374879145, 0.9248690369743238]])


def assert_recorded_discrepancy(family, name, computed, circulated):
    pinned, kind = GOLDEN[family][name]
    assert pinned == pytest.approx(computed, rel=REL)
    assert REFERENCE_DISCREPANCIES[f"{family}:{name}"] == circulated
    assert abs(circulated - computed) > GOLDEN_TOLS[kind]


# --- reference pair: entrywise product, upper ladder -------------------------

def test_reference_hadamard_ladder():
    rows, elapsed = bound_rows("hadamard", ["ex21_a.txt", "ex21_b.txt"])
    assert rows["oracle"] == pytest.approx(5.7339, abs=5e-4)
    assert rows["rho_product"] == pytest.approx(22.9336, abs=5e-3)
    assert rows["rho_affine"] == pytest.approx(17.1017, abs=5e-3)
    assert rows["rho_oval_deficit"] == pytest.approx(11.6478, abs=5e-3)
    assert rows["rho_oval_rowmax"] == pytest.approx(8.1897, abs=5e-3)
    assert elapsed < 1.0


# --- reference pair: fan product, lower ladder --------------------------------

def test_reference_fan_ladder():
    rows, elapsed = bound_rows("fan", ["ex31_a.txt", "ex31_b.txt"])
    assert rows["tau_product"] == pytest.approx(0.1854, abs=5e-3)
    assert rows["tau_affine"] == pytest.approx(0.6980, abs=5e-3)
    assert rows["tau_oval_deficit"] == pytest.approx(0.7655, abs=5e-3)
    assert rows["tau_oval_rowmax"] == pytest.approx(0.8002, abs=5e-3)
    assert elapsed < 1.0


def test_reference_fan_oracle_circulated_value():
    # tau of the explicitly formed Fan product: diagonal a_ii b_ii,
    # off-diagonal -a_ij b_ij
    a, b = load("ex31_a.txt"), load("ex31_b.txt")

    def fan_tau(x, y):
        fan = -(x * y)
        np.fill_diagonal(fan, np.diag(x) * np.diag(y))
        return float(np.min(np.linalg.eigvals(fan).real))

    expected = fan_tau(a, b)
    rows, _ = bound_rows("fan", ["ex31_a.txt", "ex31_b.txt"])
    assert rows["oracle"] == pytest.approx(expected, rel=REL)
    assert_recorded_discrepancy("fan", "oracle", expected, 0.8819)
    assert GOLDEN["multi-fan"]["oracle"][0] == pytest.approx(expected, rel=REL)
    # no orientation of the pair reproduces the circulated figure
    for x, y in [(a, b), (a.T, b), (a, b.T), (a.T, b.T)]:
        assert abs(fan_tau(x, y) - 0.8819) > GOLDEN_TOL_DIRECT


# --- reference pair: product with an inverse, lower ladder --------------------

def test_reference_hinv_ladder():
    rows, elapsed = bound_rows("hadamard-inverse",
                               ["ex41_a.txt", "ex41_b.txt"])
    assert rows["oracle"] == pytest.approx(0.2148, abs=5e-4)
    assert rows["tau_hinv_diag_floor"] == pytest.approx(0.07, abs=5e-3)
    assert rows["tau_hinv_chain"] == pytest.approx(0.08, abs=5e-3)
    assert rows["tau_hinv_deficit_oval"] == pytest.approx(0.17611, abs=5e-3)
    assert elapsed < 1.0


def test_reference_hinv_deficit_oval_circulated_value():
    # the deficit oval with the column-cap radii; the circulated 0.1929 is
    # the same oval with the per-k chain radii, which do not cap B^-1: on
    # a generated pair they put the rung above tau(A o B^-1)
    a, b = load("ex41_a.txt"), load("ex41_b.txt")
    expected = numpy_deficit_oval(a, b, numpy_cap_radii)
    rows, _ = bound_rows("hadamard-inverse", ["ex41_a.txt", "ex41_b.txt"])
    assert rows["tau_hinv_deficit_oval"] == pytest.approx(expected, rel=REL)
    assert_recorded_discrepancy("hinv", "tau_hinv_deficit_oval", expected,
                                0.1929)
    assert numpy_deficit_oval(a, b, numpy_chain_radii) == pytest.approx(
        0.1929, abs=5e-5)
    tau = numpy_tau(SPEC_SEED_100664826_A * np.linalg.inv(SPEC_SEED_100664826_B))
    assert tau == pytest.approx(0.8962283143925667, rel=REL)
    assert numpy_deficit_oval(SPEC_SEED_100664826_A, SPEC_SEED_100664826_B,
                              numpy_chain_radii) > tau + 1e-3
    assert numpy_deficit_oval(SPEC_SEED_100664826_A, SPEC_SEED_100664826_B,
                              numpy_cap_radii) < tau


def test_reference_hinv_variant_recorded():
    # the deleted "statement" variant of the deficit oval: radicand
    # 4 s_i s_j beta_ii beta_jj (a_ii - tau(A))(b_jj - tau(B)) with s the
    # off-diagonal row maxima of A.  It is far from 0.1929 on the worked
    # pair, and far above tau(A o B^-1) on a generated pair, so no bound
    a, b = load("ex41_a.txt"), load("ex41_b.txt")
    statement = numpy_statement_oval(a, b)
    assert statement == pytest.approx(0.038465817293569515, rel=REL)
    assert abs(statement - 0.1929) > GOLDEN_TOL_CHAIN
    a, b = STATEMENT_CE_A, STATEMENT_CE_B
    assert numpy_statement_oval(a, b) > numpy_tau(a * np.linalg.inv(b)) + 1.0


def test_reference_hinv_jacobi_ratio_circulated_value():
    # (1 - rho(J_A) rho(J_B)) / (1 + rho(J_B)^2) * min_i a_ii/b_ii
    a, b = load("ex41_a.txt"), load("ex41_b.txt")
    rho_ja, rho_jb = numpy_jacobi_radius(a), numpy_jacobi_radius(b)
    ratio = np.diag(a) / np.diag(b)
    contraction = 1.0 - rho_ja * rho_jb
    expected = contraction / (1.0 + rho_jb ** 2) * float(np.min(ratio))
    rows, _ = bound_rows("hadamard-inverse", ["ex41_a.txt", "ex41_b.txt"])
    assert rows["tau_hinv_jacobi_ratio"] == pytest.approx(expected, rel=REL)
    assert_recorded_discrepancy("hinv", "tau_hinv_jacobi_ratio", expected,
                                0.0707)
    # neither dropping the denominator nor flipping the ratio gives 0.0707
    for variant in (contraction * np.min(ratio),
                    contraction / (1.0 + rho_jb ** 2) * np.min(1.0 / ratio)):
        assert abs(variant - 0.0707) > GOLDEN_TOL_CHAIN


def test_reference_hinv_jacobi_oval_circulated_value():
    # pairwise oval on a_ii beta_ii, beta = diag(B^-1), with the Jacobi
    # cross term 4 a_ii a_jj beta_ii beta_jj rho^2(J_A) rho^2(J_B)
    a, b = load("ex41_a.txt"), load("ex41_b.txt")
    rho_ja, rho_jb = numpy_jacobi_radius(a), numpy_jacobi_radius(b)
    beta = np.diag(np.linalg.inv(b))
    expected = numpy_jacobi_oval(a, beta, rho_ja, rho_jb)
    rows, _ = bound_rows("hadamard-inverse", ["ex41_a.txt", "ex41_b.txt"])
    assert rows["tau_hinv_jacobi_oval"] == pytest.approx(expected, rel=REL)
    assert_recorded_discrepancy("hinv", "tau_hinv_jacobi_oval", expected,
                                0.1524)
    # the circulated figure is the same formula with beta rounded to 0.1
    rounded = numpy_jacobi_oval(a, np.round(beta, 1), rho_ja, rho_jb)
    assert rounded == pytest.approx(0.1524, abs=5e-5)


# --- bulk validity suites ------------------------------------------------------

MULTI_EXPONENTS = [(1,), (1, 1), (2, 2), (1, 2), (3, 3, 3)]


@pytest.fixture(scope="module")
def suite_runs():
    t0 = time.perf_counter()
    nn = GeneratorSpec(kind="nonnegative", order=2, density=0.6, seed=0)
    mm = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=7)
    runs = {
        "hadamard": run_hadamard_suite(1000, nn, order_min=2, order_max=8),
        "fan": run_fan_suite(1000, mm, order_min=2, order_max=8),
        "hinv": run_hinv_suite(500, mm, order_min=2, order_max=8),
    }
    for p in MULTI_EXPONENTS:
        runs["multi" + str(p)] = run_multi_fan_suite(
            200, HolderExponents(p), mm, order_min=2, order_max=8)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_validity_suites_zero_violations(suite_runs):
    for key, reports in suite_runs.items():
        if key == "elapsed":
            continue
        bad = [(r.trial, r.violations) for r in reports if r.violations]
        assert bad == [], f"{key}: {bad[:5]}"
    assert suite_runs["elapsed"] < 60.0


def test_conditional_dominance_on_every_hypothesis_trial(suite_runs):
    for key in ("hadamard", "fan"):
        held = [r for r in suite_runs[key] if r.dominance_hypothesis]
        assert len(held) >= 1, f"{key}: no trial satisfied the hypothesis"
        assert all(r.dominance_holds for r in held), key


def test_determinant_chains_on_every_trial(suite_runs):
    for key in ("hadamard", "fan"):
        for r in suite_runs[key]:
            assert ("det_chain", True) in r.checks


# --- reduction identities -------------------------------------------------------

def test_two_factor_ones_exponents_equal_affine_bound():
    mm = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=21)
    reports = run_multi_fan_suite(100, HolderExponents((1, 1)), mm,
                                  order_min=2, order_max=6)
    for r in reports:
        assert ("identity_affine", True) in r.checks


def test_single_factor_returns_tau():
    mm = GeneratorSpec(kind="m_matrix", order=2, density=1.0, seed=22)
    reports = run_multi_fan_suite(100, HolderExponents((1,)), mm,
                                  order_min=2, order_max=6)
    for r in reports:
        assert ("identity_single", True) in r.checks


# --- oracle cross-validation ------------------------------------------------------

def test_rho_against_dense_eigensolver():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_nonnegative(rng, n)
        ref = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert rho_nonnegative(a).value == pytest.approx(ref, abs=1e-6)


def test_tau_inverse_duality():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_m_matrix(rng, n)
        t = tau_m_matrix(a).value
        rho_inv = float(np.max(np.abs(np.linalg.eigvals(np.linalg.inv(a)))))
        assert t * rho_inv == pytest.approx(1.0, abs=1e-8)


# --- structural lemmas as bulk tests ----------------------------------------------

def test_product_with_inverse_stays_m_matrix():
    rng = np.random.default_rng(1003)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        a = random_m_matrix(rng, n)
        b = random_m_matrix(rng, n)
        assert product_with_inverse_is_m(a, b)


def test_inverse_entry_caps_on_dominant_matrices():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        b = random_m_matrix(rng, n)
        gap = np.abs(b).sum(axis=1) - 2 * np.diag(b)
        b = b + np.diag(np.maximum(0.0, gap) + 0.1)  # strictly row dominant
        caps = row_chain(b)[2]
        binv = inverse(b)
        beta = np.diag(binv)
        for j in range(n):
            for i in range(n):
                if i != j:
                    assert binv[j, i] <= caps[j, i] * beta[i] + 1e-10


def test_cassini_membership_of_perron_root():
    # Brauer: every eigenvalue z lies in some oval
    # |z − a_ii||z − a_jj| <= c_i c_j (i != j), c the off-diagonal column
    # sums, so the Perron root of the oracle must too
    rng = np.random.default_rng(1005)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_nonnegative(rng, n)
        rho = rho_nonnegative(a).value
        dist = np.abs(rho - np.diag(a))
        col = a.sum(axis=0) - np.diag(a)
        lhs, rhs = np.outer(dist, dist), np.outer(col, col)
        # a 2x2 eigenvalue sits on its oval, so rounding needs slack
        inside = lhs <= rhs + 1e-12 * np.maximum(max(1.0, rho ** 2), rhs)
        np.fill_diagonal(inside, False)
        assert inside.any()
