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
from mbound.core import classify, fan_power, fan_product, hadamard
from mbound.harness import FAMILIES
from mbound.spectral import inverse, jacobi_radius, rho_nonnegative, tau_m_matrix
from conftest import random_m_matrix, random_nonnegative

RHO_A = 5.733861558170684
TAU_FAN_A = 0.5401802170802908
TAU_FAN_B = 0.3431587288220414
TAU_HINV_A = 0.19098300562505266
TAU_HINV_B = 1.0


# --- upper ladder on the entrywise product -------------------------------

def test_rho_ladder_reference_values(hadamard_pair):
    a, b = hadamard_pair
    ra, rb = RHO_A, 4.0  # second factor is the all-ones matrix
    assert B.rho_bound_product(ra, rb).value == pytest.approx(22.935446232682736, abs=1e-9)
    assert B.rho_bound_affine(a, b, ra, rb).value == pytest.approx(17.101584674512054, abs=1e-9)
    assert B.rho_bound_oval_deficit(a, b, ra, rb).value == pytest.approx(11.647675642412898, abs=1e-9)
    assert B.rho_bound_oval_rowmax(a, b, ra, rb).value == pytest.approx(8.18972175763222, abs=1e-9)


def test_rho_ladder_direction_fields(hadamard_pair):
    a, b = hadamard_pair
    for br in (B.rho_bound_product(1.0, 1.0),
               B.rho_bound_affine(a, b, RHO_A, 4.0),
               B.rho_bound_oval_deficit(a, b, RHO_A, 4.0),
               B.rho_bound_oval_rowmax(a, b, RHO_A, 4.0)):
        assert br.direction == "upper"


def test_rho_oval_bounds_order_one():
    a = np.array([[3.0]])
    b = np.array([[2.0]])
    assert B.rho_bound_oval_deficit(a, b, 3.0, 2.0).value == pytest.approx(6.0)
    assert B.rho_bound_oval_rowmax(a, b, 3.0, 2.0).value == pytest.approx(6.0)


def test_rho_ladder_validity_random():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, b = random_nonnegative(rng, n), random_nonnegative(rng, n)
        ra = rho_nonnegative(a).value
        rb = rho_nonnegative(b).value
        oracle = rho_nonnegative(hadamard(a, b)).value
        for br in (B.rho_bound_product(ra, rb),
                   B.rho_bound_affine(a, b, ra, rb),
                   B.rho_bound_oval_deficit(a, b, ra, rb),
                   B.rho_bound_oval_rowmax(a, b, ra, rb)):
            assert br.value >= oracle - 1e-8, br.name


# --- lower ladder on the fan product --------------------------------------

def test_tau_ladder_reference_values(fan_pair):
    a, b = fan_pair
    ta, tb = TAU_FAN_A, TAU_FAN_B
    assert B.tau_bound_product(ta, tb).value == pytest.approx(0.185367556628087, abs=1e-9)
    assert B.tau_bound_affine(a, b, ta, tb).value == pytest.approx(0.6979713892742452, abs=1e-9)
    assert B.tau_bound_oval_deficit(a, b, ta, tb).value == pytest.approx(0.7654211149929866, abs=1e-9)
    assert B.tau_bound_oval_rowmax(a, b, ta, tb).value == pytest.approx(0.8002018359012877, abs=1e-9)


def test_tau_ladder_validity_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, b = random_m_matrix(rng, n), random_m_matrix(rng, n)
        ta = tau_m_matrix(a).value
        tb = tau_m_matrix(b).value
        oracle = tau_m_matrix(fan_product(a, b)).value
        for br in (B.tau_bound_product(ta, tb),
                   B.tau_bound_affine(a, b, ta, tb),
                   B.tau_bound_oval_deficit(a, b, ta, tb),
                   B.tau_bound_oval_rowmax(a, b, ta, tb)):
            assert br.value <= oracle + 1e-8, br.name


# --- auxiliary row/column statistics ---------------------------------------

def test_offdiag_max_values(hadamard_pair):
    a, _ = hadamard_pair
    aux = B.aux_offdiag_max(a, a)
    np.testing.assert_allclose(aux.s, [2.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(aux.s, aux.t)


def test_offdiag_max_order_one():
    aux = B.aux_offdiag_max(np.array([[5.0]]), np.array([[2.0]]))
    assert aux.s[0] == 0.0 and aux.t[0] == 0.0


def test_aux_chain_worked(hinv_pair):
    _, b = hinv_pair
    chain = B.aux_chain(b)
    # diagonal slots stay zero; all multipliers land in [0, 1) for this
    # strictly dominant matrix
    assert np.all(np.diag(chain.r_pair) == 0.0)
    assert np.all(np.diag(chain.s_pair) == 0.0)
    assert np.all((chain.r >= 0.0) & (chain.r < 1.0))
    assert np.all((chain.s >= 0.0) & (chain.s < 1.0))
    # column maxima of the pair table
    np.testing.assert_allclose(chain.s, chain.s_pair.max(axis=0))


def test_aux_chain_rejects_weak_rows():
    # row 0 minus any single off-diagonal entry still beats the diagonal
    bad = np.array([[1.0, -2.0, -2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError,
                       match="denominator nonpositive at row 0, column 1"):
        B.aux_chain(bad)


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
    return r_pair, r, s_pair, s, caps


def test_aux_chain_matches_the_loop():
    rng = np.random.default_rng(71)
    for k in range(200):
        n = int(rng.integers(1, 13))
        p = random_nonnegative(rng, n, density=(1.0, 0.3)[k % 2])
        np.fill_diagonal(p, 0.0)  # strictly row dominant below
        b = np.diag(p.sum(axis=1) + rng.uniform(0.05, 1.0, n)) - p
        chain = B.aux_chain(b)
        r_pair, r, s_pair, s, caps = _chain_loop(b)
        assert np.array_equal(chain.r_pair, r_pair)
        assert np.array_equal(chain.r, r)
        assert np.array_equal(B.inverse_column_caps(b, chain), caps)
        np.testing.assert_allclose(chain.s_pair, s_pair, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(chain.s, s, rtol=1e-14, atol=0.0)


def test_inverse_column_caps_hold(hinv_pair):
    _, b = hinv_pair
    caps = B.inverse_column_caps(b)
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
    chain = B.aux_chain(b)
    binv = inverse(b)
    assert binv[2, 1] > chain.s_pair[2, 1] * binv[1, 1] + 1e-3


def test_inverse_caps_random_dominant():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        b = random_m_matrix(rng, n, margin=1.0)
        # boost the diagonal past the off-diagonal row weight: caps need
        # strict row dominance
        gap = np.abs(b).sum(axis=1) - 2 * np.diag(b)
        b = b + np.diag(np.maximum(0.0, gap) + 0.1)
        caps = B.inverse_column_caps(b)
        binv = inverse(b)
        beta = np.diag(binv)
        for j in range(n):
            for i in range(n):
                if i != j:
                    assert binv[j, i] <= caps[j, i] * beta[i] + 1e-10


# --- bounds on tau of A o B^-1 ---------------------------------------------

def test_hinv_ladder_reference_values(hinv_pair):
    a, b = hinv_pair
    binv = inverse(b)
    rja, rjb = jacobi_radius(a), jacobi_radius(b)
    assert rja == pytest.approx(0.8090169943749471, abs=1e-10)
    assert rjb == pytest.approx(0.7651617568885356, abs=1e-10)
    assert B.tau_hinv_diag_floor(TAU_HINV_A, binv).value == pytest.approx(
        0.07002710206251932, abs=1e-9)
    assert B.tau_hinv_jacobi_ratio(a, b, rja, rjb).value == pytest.approx(
        0.04805774074519007, abs=1e-9)
    assert B.tau_hinv_chain(a, b, B.dominance_scaling(b, binv)).value == pytest.approx(
        0.08, abs=1e-12)
    assert B.tau_hinv_jacobi_oval(a, b, binv, rja, rjb).value == pytest.approx(
        0.14567819318505643, abs=1e-9)


def test_hinv_deficit_oval_variants(hinv_pair):
    a, b = hinv_pair
    binv = inverse(b)
    scaling = B.dominance_scaling(b, binv)
    br = B.tau_hinv_deficit_oval(a, b, binv, TAU_HINV_A, TAU_HINV_B, scaling)
    assert br.components["variant"] == "proof"
    assert br.value == pytest.approx(0.19287140768127858, abs=1e-9)
    assert br.components["statement_value"] == pytest.approx(
        0.038465817293569515, abs=1e-9)
    alt = B.tau_hinv_deficit_oval(a, b, binv, TAU_HINV_A, TAU_HINV_B, scaling,
                                  variant="statement")
    assert alt.value == pytest.approx(0.038465817293569515, abs=1e-9)
    assert alt.components["proof_value"] == pytest.approx(br.value, abs=1e-12)
    with pytest.raises(ValueError):
        B.tau_hinv_deficit_oval(a, b, binv, TAU_HINV_A, TAU_HINV_B, scaling,
                                variant="nope")


def test_hinv_ladder_validity_random():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a, b = random_m_matrix(rng, n), random_m_matrix(rng, n)
        binv = inverse(b)
        oracle = tau_m_matrix(hadamard(a, binv)).value
        ta, tb = tau_m_matrix(a).value, tau_m_matrix(b).value
        rja, rjb = jacobi_radius(a), jacobi_radius(b)
        scaling = B.dominance_scaling(b, binv)
        for br in (B.tau_hinv_diag_floor(ta, binv),
                   B.tau_hinv_jacobi_ratio(a, b, rja, rjb),
                   B.tau_hinv_chain(a, b, scaling),
                   B.tau_hinv_jacobi_oval(a, b, binv, rja, rjb),
                   B.tau_hinv_deficit_oval(a, b, binv, ta, tb, scaling)):
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
                value, arg = B._oval(x, *uv, upper)
                ref, ref_arg = _oval_loop(x, *uv, upper)
                assert value == pytest.approx(ref, rel=0.0, abs=1e-14)
                assert arg == ref_arg


def test_oval_ties_keep_the_first_row_major_pair():
    # A = B symmetric makes the ovals at (i, j) and (j, i) equal; the scan
    # keeps the first of the two in row-major order
    a = np.array([[1.0, 0.5, 0.5], [0.5, 2.0, 1.0], [0.5, 1.0, 3.0]])
    r = rho_nonnegative(a).value
    assert B.rho_bound_oval_deficit(a, a, r, r).components["argmax_pair"] == (0, 2)
    assert B.rho_bound_oval_rowmax(a, a, r, r).components["argmax_pair"] == (1, 2)
    m = np.array([[3.0, -0.5, -0.5], [-0.5, 2.0, -1.0], [-0.5, -1.0, 1.5]])
    t = tau_m_matrix(m).value
    assert B.tau_bound_oval_deficit(m, m, t, t).components["argmin_pair"] == (1, 2)
    assert B.tau_bound_oval_rowmax(m, m, t, t).components["argmin_pair"] == (1, 2)
    # every pair ties: the first pair overall
    ones = np.ones((3, 3))
    assert B.rho_bound_oval_deficit(ones, ones, 3.0, 3.0).components[
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
    evaluate = FAMILIES[family].evaluate
    p22 = B.HolderExponents((2, 2)) if family == "multi-fan" else None
    _, base, _ = evaluate([a, b], "proof", p22)
    _, scaled, _ = evaluate([s * a, s * b], "proof", p22)
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
        hi, lo = (B.tau_multi_fan([a, b], p22, [t * (1.0 + e) for t in taus])
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
    taus = [tau_m_matrix(fan_power(m, 1)).value for m in (a, b)]
    assert B.tau_multi_fan([a, b], p11, taus).value == pytest.approx(
        0.6979713892742453, abs=1e-9)
    p22 = B.HolderExponents((2, 2))
    taus = [tau_m_matrix(fan_power(m, 2)).value for m in (a, b)]
    assert B.tau_multi_fan([a, b], p22, taus).value == pytest.approx(
        0.8579428671084329, abs=1e-9)


def test_multi_fan_single_factor_is_tau(fan_pair):
    a, _ = fan_pair
    p = B.HolderExponents((1,))
    br = B.tau_multi_fan([a], p, [TAU_FAN_A])
    assert br.value == pytest.approx(TAU_FAN_A, abs=1e-12)


def test_multi_fan_equals_affine_at_ones(fan_pair):
    a, b = fan_pair
    p = B.HolderExponents((1, 1))
    taus = [TAU_FAN_A, TAU_FAN_B]
    br = B.tau_multi_fan([a, b], p, taus)
    affine = B.tau_bound_affine(a, b, TAU_FAN_A, TAU_FAN_B)
    assert br.value == pytest.approx(affine.value, abs=1e-12)


def test_multi_fan_clamp_is_scale_free(fan_pair, caplog):
    # a tau above every diagonal entry is rejected at any scale
    a, b = fan_pair
    p11 = B.HolderExponents((1, 1))
    for s in (1.0, 1e-10):
        taus = [2.0 * s * np.max(np.diag(a)), s * TAU_FAN_B]
        with pytest.raises(ValueError, match="negative Perron deficit"):
            B.tau_multi_fan([s * a, s * b], p11, taus)
    # triangular factors: tau(A) is a_11 up to rounding, which is no clamp
    a = np.array([[2.3e101, -1e100], [0.0, 1e103]])
    b = np.array([[7e100, 0.0], [-1e100, 9e100]])
    with caplog.at_level("WARNING", logger="mbound.bounds"):
        FAMILIES["multi-fan"].evaluate([a, b], "proof", p11)
    assert not caplog.records


def test_multi_fan_argument_mismatch(fan_pair):
    a, b = fan_pair
    with pytest.raises(ValueError):
        B.tau_multi_fan([a, b], B.HolderExponents((1,)), [TAU_FAN_A])


# --- pairwise inclusion region ----------------------------------------------

def test_cassini_contains_perron_root():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = random_nonnegative(rng, n)
        rho = rho_nonnegative(a).value
        assert B.cassini_contains(a, rho)


def test_cassini_boundary_inclusive():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert B.cassini_contains(a, 1.0)  # |z|^2 == c_1 c_2 exactly


def test_cassini_outside():
    a = np.array([[1.0, 0.1], [0.1, 1.0]])
    assert not B.cassini_contains(a, 5.0)


def test_cassini_order_one_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        B.cassini_contains(np.array([[1.0]]), 1.0)


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
    ra = rho_nonnegative(a).value
    rb = rho_nonnegative(b).value
    aux = B.aux_offdiag_max(a, b)
    assert np.all(aux.s + np.diag(a) >= ra - 1e-12)
    assert np.all(aux.t + np.diag(b) >= rb - 1e-12)
    rowmax = B.rho_bound_oval_rowmax(a, b, ra, rb).value
    deficit = B.rho_bound_oval_deficit(a, b, ra, rb).value
    assert rowmax > deficit + 0.05
    # both remain valid upper bounds regardless
    oracle = rho_nonnegative(hadamard(a, b)).value
    assert deficit >= oracle - 1e-10 and rowmax >= oracle - 1e-10
