"""Bound formulas pinned against independently computed reference values.

The worked pairs live in mbound.harness; every expected number here was
frozen from a separate numpy-only computation before the formulas were
implemented.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbound import bounds as B
from mbound._lu import inverse
from mbound.core import fan_power
from mbound.harness import FAMILIES
from mbound.spectral import _jacobi_matrix, rho_nonnegative, tau_m_matrix
from conftest import random_m_matrix, random_nonnegative, row_chain

RHO_A = 5.733861558170684
TAU_FAN_A = 0.5401802170802908
TAU_FAN_B = 0.3431587288220414
TAU_HINV_A = 0.19098300562505266


def evaluate(family, mats, exponents=None):
    """(oracle, {rung name: BoundResult}) of one tuple of factors."""
    oracle, ladder = FAMILIES[family].evaluate(mats, exponents)
    return oracle, {br.name: br for br in ladder}


def one(x):
    """x as a stack of one: a matrix as (1, n, n), a value as (1,)."""
    return np.array([x], dtype=float)


def kernel(rung, *args):
    """A rung kernel on stacks of one, fed chosen spectral values: its
    BoundResult, after its clamp warnings and its error."""
    lg = B._Log(1)
    rungs = rung(*args, lg)
    lg.flush(0)
    return rungs.records()[0]


# --- upper ladder on the entrywise product -------------------------------

def test_rho_ladder_reference_values(hadamard_pair):
    _, rungs = evaluate("hadamard", hadamard_pair)
    # the second factor is the all-ones matrix, rho(B) = 4
    assert rungs["rho_product"].components["rho_a"] == pytest.approx(RHO_A, abs=1e-12)
    assert rungs["rho_product"].components["rho_b"] == pytest.approx(4.0, abs=1e-12)
    assert rungs["rho_product"].value == pytest.approx(22.935446232682736, abs=1e-9)
    assert rungs["rho_affine"].value == pytest.approx(17.101584674512054, abs=1e-9)
    assert rungs["rho_oval_deficit"].value == pytest.approx(11.647675642412898, abs=1e-9)
    assert rungs["rho_oval_rowmax"].value == pytest.approx(8.18972175763222, abs=1e-9)


def test_rho_ladder_direction_fields(hadamard_pair):
    _, rungs = evaluate("hadamard", hadamard_pair)
    assert list(rungs) == ["rho_product", "rho_affine", "rho_oval_deficit",
                           "rho_oval_rowmax"]
    for br in rungs.values():
        assert br.direction == "upper"


def test_rho_oval_bounds_order_one():
    _, rungs = evaluate("hadamard", [np.array([[3.0]]), np.array([[2.0]])])
    assert rungs["rho_oval_deficit"].value == pytest.approx(6.0)
    assert rungs["rho_oval_rowmax"].value == pytest.approx(6.0)


def test_rho_ladder_validity_random():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, b = random_nonnegative(rng, n), random_nonnegative(rng, n)
        oracle, rungs = evaluate("hadamard", [a, b])
        for br in rungs.values():
            assert br.value >= oracle - 1e-8, br.name


# --- lower ladder on the fan product --------------------------------------

def test_tau_ladder_reference_values(fan_pair):
    _, rungs = evaluate("fan", fan_pair)
    assert rungs["tau_product"].components["tau_a"] == pytest.approx(TAU_FAN_A, abs=1e-12)
    assert rungs["tau_product"].components["tau_b"] == pytest.approx(TAU_FAN_B, abs=1e-12)
    assert rungs["tau_product"].value == pytest.approx(0.185367556628087, abs=1e-9)
    assert rungs["tau_affine"].value == pytest.approx(0.6979713892742452, abs=1e-9)
    assert rungs["tau_oval_deficit"].value == pytest.approx(0.7654211149929866, abs=1e-9)
    assert rungs["tau_oval_rowmax"].value == pytest.approx(0.8002018359012877, abs=1e-9)


def test_tau_ladder_validity_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, b = random_m_matrix(rng, n), random_m_matrix(rng, n)
        oracle, rungs = evaluate("fan", [a, b])
        for br in rungs.values():
            assert br.value <= oracle + 1e-8, br.name


# --- auxiliary row/column statistics ---------------------------------------

def test_offdiag_max_values(hadamard_pair):
    a, _ = hadamard_pair
    rung = evaluate("hadamard", [a, a])[1]["rho_oval_rowmax"].components
    np.testing.assert_allclose(rung["s"], [2.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(rung["s"], rung["t"])


def test_offdiag_max_order_one():
    rung = evaluate("fan", [np.array([[5.0]]), np.array([[2.0]])])[1][
        "tau_oval_rowmax"].components
    assert rung["s"] == (0.0,) and rung["t"] == (0.0,)


def test_aux_chain_worked(hinv_pair):
    _, b = hinv_pair
    r, s_pair, _ = row_chain(b)
    # diagonal slots stay zero; all multipliers land in [0, 1) for this
    # strictly dominant matrix
    assert np.all(np.diag(s_pair) == 0.0)
    assert np.all((r >= 0.0) & (r < 1.0))
    assert np.all((s_pair >= 0.0) & (s_pair < 1.0))


def test_aux_chain_rejects_weak_rows():
    # row 0 minus any single off-diagonal entry still beats the diagonal
    bad = np.array([[1.0, -2.0, -2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError,
                       match="denominator nonpositive at row 0, column 1"):
        row_chain(bad)


def _chain_loop(a):
    """Row chain and inverse caps by the defining per-entry sums."""
    n = a.shape[0]
    dg = np.abs(np.diag(a))
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    rowsum = off.sum(axis=1)
    r_pair = np.zeros((n, n))
    for l in range(n):
        for i in range(n):
            if l != i:
                r_pair[l, i] = off[l, i] / (dg[l] - (rowsum[l] - off[l, i]))
    r = np.zeros(n)
    s_pair = np.zeros((n, n))
    s = np.zeros(n)
    caps = np.eye(n)
    if n > 1:
        for i in range(n):
            r[i] = max(r_pair[l, i] for l in range(n) if l != i)
        for j in range(n):
            for i in range(n):
                if j != i:
                    acc = sum(off[j, k] * r[k] for k in range(n)
                              if k != j and k != i)
                    s_pair[j, i] = (off[j, i] + acc) / dg[j]
                    caps[j, i] = (off[j, i] + r[i] * (rowsum[j] - off[j, i])) / dg[j]
        for i in range(n):
            s[i] = max(s_pair[j, i] for j in range(n) if j != i)
    return r, s_pair, s, caps


def test_aux_chain_matches_the_loop():
    rng = np.random.default_rng(71)
    for k in range(200):
        n = int(rng.integers(1, 13))
        p = random_nonnegative(rng, n, density=(1.0, 0.3)[k % 2])
        np.fill_diagonal(p, 0.0)  # strictly row dominant below
        b = np.diag(p.sum(axis=1) + rng.uniform(0.05, 1.0, n)) - p
        r, s_pair, caps = row_chain(b)
        ref_r, ref_s_pair, _, ref_caps = _chain_loop(b)
        assert np.array_equal(r, ref_r)
        assert np.array_equal(caps, ref_caps)
        np.testing.assert_allclose(s_pair, ref_s_pair, rtol=1e-14, atol=0.0)


def test_inverse_column_caps_hold(hinv_pair):
    _, b = hinv_pair
    caps = row_chain(b)[2]
    binv = inverse(b)
    beta = np.diag(binv)
    for j in range(4):
        for i in range(4):
            if i != j:
                assert binv[j, i] <= caps[j, i] * beta[i] + 1e-12


def test_inverse_caps_pair_table_insufficient(hinv_pair):
    # the chain pair table alone does NOT cap the inverse entries: this
    # matrix has (B^-1)_21 above s_21 * (B^-1)_11, so the cap must couple
    # the full row weight with the column multiplier instead
    _, b = hinv_pair
    s_pair = row_chain(b)[1]
    binv = inverse(b)
    assert binv[2, 1] > s_pair[2, 1] * binv[1, 1] + 1e-3


def test_inverse_caps_random_dominant():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        b = random_m_matrix(rng, n, margin=1.0)
        # boost the diagonal past the off-diagonal row weight: caps need
        # strict row dominance
        gap = np.abs(b).sum(axis=1) - 2 * np.diag(b)
        b = b + np.diag(np.maximum(0.0, gap) + 0.1)
        caps = row_chain(b)[2]
        binv = inverse(b)
        beta = np.diag(binv)
        for j in range(n):
            for i in range(n):
                if i != j:
                    assert binv[j, i] <= caps[j, i] * beta[i] + 1e-10


# --- bounds on tau of A o B^-1 ---------------------------------------------

def test_hinv_ladder_reference_values(hinv_pair):
    a, b = hinv_pair
    _, rungs = evaluate("hadamard-inverse", hinv_pair)
    ratio = rungs["tau_hinv_jacobi_ratio"].components
    assert ratio["rho_ja"] == pytest.approx(
        rho_nonnegative(_jacobi_matrix(a)).value, abs=1e-12)
    assert ratio["rho_jb"] == pytest.approx(
        rho_nonnegative(_jacobi_matrix(b)).value, abs=1e-12)
    assert ratio["rho_ja"] == pytest.approx(0.8090169943749471, abs=1e-10)
    assert ratio["rho_jb"] == pytest.approx(0.7651617568885356, abs=1e-10)
    assert rungs["tau_hinv_diag_floor"].components["tau_a"] == pytest.approx(
        TAU_HINV_A, abs=1e-12)
    assert rungs["tau_hinv_diag_floor"].value == pytest.approx(
        0.07002710206251932, abs=1e-9)
    assert rungs["tau_hinv_jacobi_ratio"].value == pytest.approx(
        0.04805774074519007, abs=1e-9)
    assert rungs["tau_hinv_chain"].value == pytest.approx(0.08, abs=1e-12)
    assert rungs["tau_hinv_jacobi_oval"].value == pytest.approx(
        0.14567819318505643, abs=1e-9)


def test_hinv_deficit_oval_variants(hinv_pair):
    # one variant is left: the radii are the column maxima of the inverse
    # caps, not the per-k chain s, which does not cap B^-1.  The worked B
    # is strictly row dominant, so it is not scaled.
    _, b = hinv_pair
    br = evaluate("hadamard-inverse", hinv_pair)[1]["tau_hinv_deficit_oval"]
    assert br.value == pytest.approx(0.17610873206162017, abs=1e-9)
    assert br.components["scaled"] is False
    caps = row_chain(b)[2]
    np.fill_diagonal(caps, 0.0)
    assert br.components["s"] == tuple(caps.max(axis=0))
    assert not np.allclose(br.components["s"], _chain_loop(b)[2])
    assert "variant" not in br.components


def test_hinv_ladder_validity_random():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a, b = random_m_matrix(rng, n), random_m_matrix(rng, n)
        oracle, rungs = evaluate("hadamard-inverse", [a, b])
        assert oracle == pytest.approx(
            tau_m_matrix(a * inverse(b)).value, rel=1e-12)
        for br in rungs.values():
            assert br.value <= oracle + 1e-8, br.name


# --- the oval scan: loop reference, ties and scale ---------------------------

def _oval_loop(x, u, v, upper):
    # the scan as a double loop over the unfactored radicand 4 u_i v_j
    sign = 1.0 if upper else -1.0
    best = None
    for i in range(len(x)):
        for j in range(len(x)):
            if i != j:
                root = 0.5 * (x[i] + x[j] + sign * np.sqrt(
                    (x[i] - x[j]) ** 2 + 4.0 * u[i] * v[j]))
                if best is None or sign * root > sign * best[0]:
                    best = (root, (i, j))
    return best


def test_oval_matches_the_pair_loop():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x, u, v = rng.uniform(0.0, 2.0, (3, n))
        for uv in ((u, v), (u, u)):
            for upper in (True, False):
                values, pairs = B._oval(x[None], uv[0][None], uv[1][None],
                                        upper, B._Log(1))
                ref, ref_arg = _oval_loop(x, *uv, upper)
                assert values[0] == pytest.approx(ref, rel=0.0, abs=1e-14)
                assert tuple(pairs[0]) == ref_arg


def test_oval_ties_keep_the_first_row_major_pair():
    # A = B symmetric makes the ovals at (i, j) and (j, i) equal; the scan
    # keeps the first of the two in row-major order
    a = np.array([[1.0, 0.5, 0.5], [0.5, 2.0, 1.0], [0.5, 1.0, 3.0]])
    a, r = one(a), one(rho_nonnegative(a).value)
    assert kernel(B._rho_oval_deficit, a, a, r, r).components[
        "argmax_pair"] == (0, 2)
    assert kernel(B._rho_oval_rowmax, a, a, r, r).components[
        "argmax_pair"] == (1, 2)
    m = np.array([[3.0, -0.5, -0.5], [-0.5, 2.0, -1.0], [-0.5, -1.0, 1.5]])
    m, t = one(m), one(tau_m_matrix(m).value)
    assert kernel(B._tau_oval_deficit, m, m, t, t).components[
        "argmin_pair"] == (1, 2)
    assert kernel(B._tau_oval_rowmax, m, m, t, t).components[
        "argmin_pair"] == (1, 2)
    # every pair ties: the first pair overall
    ones, three = one(np.ones((3, 3))), one(3.0)
    assert kernel(B._rho_oval_deficit, ones, ones, three, three).components[
        "argmax_pair"] == (0, 1)


@pytest.mark.parametrize("family", ["hadamard", "fan", "hadamard-inverse",
                                    "multi-fan"])
@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6),
       s=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e))
@settings(max_examples=60, deadline=None)
def test_ladder_scale_covariant(family, n, seed, s):
    # (sA, sB) scales every hadamard, fan and multi-fan (P = (2,2)) rung by
    # s² and leaves every hinv rung as it is.  Dense pairs: where a deficit
    # is zero in exact arithmetic, the square root of its rounding moves an
    # oval rung by about 1e-8 of the diagonal products, at any scale.
    rng = np.random.default_rng(seed)
    gen = random_nonnegative if family == "hadamard" else random_m_matrix
    a, b = gen(rng, n), gen(rng, n)
    fam = FAMILIES[family]
    p22 = B.HolderExponents((2, 2)) if family == "multi-fan" else None
    _, base = fam.evaluate([a, b], p22)
    _, scaled = fam.evaluate([s * a, s * b], p22)
    band = 0.0
    if family == "hadamard-inverse":
        k, ref = 1.0, np.max(np.diag(a) * np.diag(inverse(b)))
    elif family in ("fan", "multi-fan"):
        k, ref = s * s, np.max(np.diag(a) * np.diag(b))
    else:  # the ρ oracles are relative to rho(A)rho(B) >= every a_ii b_ii
        k, ref = s * s, base[0].value
    if family == "multi-fan":
        # the rung takes the square root of a_ii² − τ(A^(2)), which divides
        # its τ oracles' relative 1e-12 by the root of that deficit; allow
        # the rung's spread over that band (it increases with each τ)
        taus = base[0].components["taus_of_fan_powers"]
        hi, lo = (kernel(B._tau_multi_fan, [one(a), one(b)], p22,
                         one([t * (1.0 + e) for t in taus]))
                  for e in (1e-12, -1e-12))
        band = hi.value - lo.value
    for x, y in zip(base, scaled):
        assert abs(y.value / k - x.value) <= 1e-12 * ref + band, x.name


# --- multi-factor fan bound -------------------------------------------------

def test_holder_exponents_validation():
    B.HolderExponents((1,))
    B.HolderExponents((2, 2))
    B.HolderExponents((3, 3, 3))
    B.HolderExponents((1, 2))  # reciprocal sum 1.5 >= 1
    with pytest.raises(ValueError):
        B.HolderExponents(())
    with pytest.raises(ValueError):
        B.HolderExponents((0, 1))
    with pytest.raises(ValueError):
        B.HolderExponents((3, 4))  # reciprocal sum 7/12 < 1
    with pytest.raises(ValueError):
        B.HolderExponents((2, 3))  # 5/6 < 1


def test_multi_fan_reference_values(fan_pair):
    a, b = fan_pair
    assert tau_m_matrix(fan_power(a, 2)).value == pytest.approx(
        0.9124727604266033, abs=1e-9)
    assert tau_m_matrix(fan_power(b, 2)).value == pytest.approx(
        0.7694405866821603, abs=1e-9)
    p11 = B.HolderExponents((1, 1))
    br = evaluate("multi-fan", fan_pair, p11)[1]["tau_multi_fan"]
    assert br.components["taus_of_fan_powers"] == pytest.approx(
        (TAU_FAN_A, TAU_FAN_B), abs=1e-12)
    assert br.value == pytest.approx(0.6979713892742453, abs=1e-9)
    p22 = B.HolderExponents((2, 2))
    br = evaluate("multi-fan", fan_pair, p22)[1]["tau_multi_fan"]
    assert br.components["taus_of_fan_powers"] == pytest.approx(
        (0.9124727604266033, 0.7694405866821603), abs=1e-9)
    assert br.value == pytest.approx(0.8579428671084329, abs=1e-9)


def test_multi_fan_single_factor_is_tau(fan_pair):
    a, _ = fan_pair
    p = B.HolderExponents((1,))
    br = evaluate("multi-fan", [a], p)[1]["tau_multi_fan"]
    assert br.value == pytest.approx(TAU_FAN_A, abs=1e-12)


def test_multi_fan_equals_affine_at_ones(fan_pair):
    p = B.HolderExponents((1, 1))
    br = evaluate("multi-fan", fan_pair, p)[1]["tau_multi_fan"]
    affine = evaluate("fan", fan_pair)[1]["tau_affine"]
    assert br.value == pytest.approx(affine.value, abs=1e-12)


def test_multi_fan_clamp_is_scale_free(fan_pair, caplog):
    # a tau above every diagonal entry is rejected at any scale
    a, b = fan_pair
    p11 = B.HolderExponents((1, 1))
    for s in (1.0, 1e-10):
        taus = one([2.0 * s * np.max(np.diag(a)), s * TAU_FAN_B])
        with pytest.raises(ValueError, match="negative Perron deficit"):
            kernel(B._tau_multi_fan, [one(s * a), one(s * b)], p11, taus)
    # triangular factors: tau(A) is a_11 up to rounding, which is no clamp
    a = np.array([[2.3e101, -1e100], [0.0, 1e103]])
    b = np.array([[7e100, 0.0], [-1e100, 9e100]])
    with caplog.at_level("WARNING", logger="mbound.bounds"):
        FAMILIES["multi-fan"].evaluate([a, b], p11)
    assert not caplog.records


def test_multi_fan_logs_nothing_after_its_error(fan_pair, caplog):
    # factor 0's bracket fails first, so factor 1's clamp is never logged
    a, b = fan_pair
    mats = [one(a), one(b)]
    p11 = B.HolderExponents((1, 1))
    edge = float(np.min(np.diag(b))) * (1.0 + 5e-9)
    with caplog.at_level("WARNING", logger="mbound.bounds"):
        with pytest.raises(ValueError, match="negative Perron deficit"):
            kernel(B._tau_multi_fan, mats, p11,
                   one([2.0 * np.max(np.diag(a)), edge]))
    assert not caplog.records
    with caplog.at_level("WARNING", logger="mbound.bounds"):
        kernel(B._tau_multi_fan, mats, p11, one([TAU_FAN_A, edge]))
    assert len(caplog.records) == 1
    assert caplog.records[0].getMessage().startswith(
        "clamping negative deficit -")


def test_multi_fan_argument_mismatch(fan_pair):
    # two factors against one exponent: evaluate checks the count
    with pytest.raises(ValueError, match="expected 1 factors, got 2"):
        FAMILIES["multi-fan"].evaluate(fan_pair, B.HolderExponents((1,)))


# --- conditional ordering of the two upper ovals ----------------------------

# Sparse pair where every row satisfies diag + max-offdiag >= spectral
# radius for both factors, yet the rowmax oval exceeds the deficit oval:
# the row condition alone does not order the two upper bounds.
ROWMAX_CE_A = np.array([
    [0.7192908847816747, 0.0, 0.8128630126727259, 0.8458341494688325],
    [0.7724321509946501, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.7603338018046788, 0.0],
    [0.0, 0.0, 0.9041694757627018, 0.0],
])
ROWMAX_CE_B = np.array([
    [0.0, 0.7807059443926502, 0.9926004918352804, 0.0],
    [0.0, 0.0, 0.889670653140497, 0.0],
    [0.0, 0.0, 0.8845804743866099, 0.0],
    [0.0, 0.0, 0.9999772483566838, 0.7741888856145435],
])


def test_rowmax_hypothesis_does_not_force_oval_ordering():
    a, b = ROWMAX_CE_A, ROWMAX_CE_B
    oracle, rungs = evaluate("hadamard", [a, b])
    rung = rungs["rho_oval_rowmax"]
    ra, rb = rung.components["rho_a"], rung.components["rho_b"]
    assert ra == pytest.approx(rho_nonnegative(a).value, rel=1e-12)
    assert np.all(np.array(rung.components["s"]) + np.diag(a) >= ra - 1e-12)
    assert np.all(np.array(rung.components["t"]) + np.diag(b) >= rb - 1e-12)
    rowmax = rung.value
    deficit = rungs["rho_oval_deficit"].value
    assert rowmax > deficit + 0.05
    # both remain valid upper bounds regardless
    assert deficit >= oracle - 1e-10 and rowmax >= oracle - 1e-10
