"""Classification flags, entrywise products, and input validation."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mbound.core import (as_matrix, classify, cyclic_permutation, fan_power,
                         fan_product, hadamard, perturb_cyclic,
                         scale_similarity)
from mbound.errors import MatrixFormatError
from conftest import random_m_matrix, random_nonnegative


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_as_matrix_copies():
    a = np.eye(2)
    b = as_matrix(a)
    b[0, 0] = 7.0
    assert a[0, 0] == 1.0


def test_classify_identity():
    c = classify(np.eye(3))
    assert c.nonnegative and c.z_matrix and c.nonsingular_m_matrix
    assert c.strictly_row_dd
    assert not c.irreducible  # no off-diagonal arcs


def test_classify_fan_example(fan_pair):
    a, _ = fan_pair
    c = classify(a)
    assert not c.nonnegative
    assert c.z_matrix and c.nonsingular_m_matrix and c.irreducible


def test_classify_singular_z_matrix_not_m():
    # row sums zero -> singular
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert classify(a).z_matrix
    assert not classify(a).nonsingular_m_matrix


def test_classify_one_by_one():
    assert classify(np.array([[2.0]])).nonsingular_m_matrix
    assert classify(np.array([[2.0]])).irreducible
    assert not classify(np.array([[0.0]])).irreducible
    assert not classify(np.array([[-1.0]])).nonsingular_m_matrix


def test_hadamard_values(hadamard_pair):
    a, b = hadamard_pair
    np.testing.assert_array_equal(hadamard(a, b), a * b)


def test_hadamard_order_mismatch():
    with pytest.raises(ValueError):
        hadamard(np.eye(2), np.eye(3))


def test_fan_product_signs(fan_pair):
    a, b = fan_pair
    f = fan_product(a, b)
    assert np.all(np.diag(f) > 0)
    off = f[~np.eye(3, dtype=bool)]
    assert np.all(off <= 0)
    # diagonal is the plain product, off-diagonal is -|a_ij b_ij|
    np.testing.assert_allclose(np.diag(f), np.diag(a) * np.diag(b))
    np.testing.assert_allclose(f[0, 1], -abs(a[0, 1] * b[0, 1]))


def test_fan_product_of_m_matrices_is_m_matrix(fan_pair):
    a, b = fan_pair
    assert classify(fan_product(a, b)).nonsingular_m_matrix


def test_fan_power_identity_exponent(fan_pair):
    a, _ = fan_pair
    np.testing.assert_array_equal(fan_power(a, 1), a)


def test_fan_power_squares_entrywise(fan_pair):
    a, _ = fan_pair
    f = fan_power(a, 2)
    np.testing.assert_allclose(np.diag(f), np.diag(a) ** 2)
    np.testing.assert_allclose(f[2, 1], -abs(a[2, 1]) ** 2)


def test_fan_power_rejects_bad_exponent(fan_pair):
    a, _ = fan_pair
    with pytest.raises(ValueError):
        fan_power(a, 0)


def test_scale_similarity_preserves_diagonal():
    a = np.array([[2.0, -1.0], [-0.5, 3.0]])
    d = np.array([1.0, 4.0])
    s = scale_similarity(a, d)
    np.testing.assert_allclose(np.diag(s), np.diag(a))
    np.testing.assert_allclose(s[0, 1], a[0, 1] * d[1] / d[0])


def test_scale_similarity_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale_similarity(np.eye(2), np.array([1.0, 0.0]))


def test_cyclic_permutation_pattern():
    p = cyclic_permutation(4)
    assert p[0, 1] == p[1, 2] == p[2, 3] == p[3, 0] == 1.0
    assert p.sum() == 4.0
    assert classify(p).irreducible


def test_perturb_cyclic_sign_and_magnitude():
    a = np.zeros((3, 3))
    up = perturb_cyclic(a, 0.25, +1)
    dn = perturb_cyclic(a, 0.25, -1)
    assert up[0, 1] == 0.25 and dn[0, 1] == -0.25
    with pytest.raises(ValueError):
        perturb_cyclic(a, 0.0, +1)


square = arrays(np.float64, (4, 4),
                elements=st.floats(min_value=0.0, max_value=10.0))


@given(a=square, b=square)
@settings(max_examples=60, deadline=None)
def test_hadamard_commutes(a, b):
    np.testing.assert_array_equal(hadamard(a, b), hadamard(b, a))


@given(a=square)
@settings(max_examples=60, deadline=None)
def test_classify_nonnegative_flag_matches_definition(a):
    assert classify(a).nonnegative == bool(np.all(a >= 0.0))


@given(n=st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_cyclic_permutation_irreducible_any_order(n):
    assert classify(cyclic_permutation(n)).irreducible


def test_errors_carry_location():
    err = MatrixFormatError("bad", line=3, column=2)
    assert err.line == 3 and err.column == 2


scales = st.floats(min_value=1e-150, max_value=1e150)
densities = st.sampled_from([1.0, 0.3])


@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6), density=densities,
       s=scales)
@settings(max_examples=100, deadline=None)
def test_classify_scale_invariant(n, seed, density, s):
    rng = np.random.default_rng(seed)
    for a in (random_m_matrix(rng, n, density=density),
              random_nonnegative(rng, n, density)):
        assert classify(s * a) == classify(a)


def test_classify_scaled_dominant_m_matrix():
    # strictly row-dominant, hence an M-matrix at every scale: a gate with
    # a floor that does not scale like its pivots rejects it at 1e-3
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, 1.0, (8, 8))
    np.fill_diagonal(p, 0.0)
    a = np.diag(1.5 * p.sum(axis=1)) - p
    for s in (1.0, 1e-3, 1e-100, 1e100):
        c = classify(s * a)
        assert c.strictly_row_dd and c.nonsingular_m_matrix


@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6), density=densities)
@settings(max_examples=150, deadline=None)
def test_classify_m_matrix_matches_eigenvalues(n, seed, density):
    # a Z-matrix is a nonsingular M-matrix iff every eigenvalue has a
    # positive real part; the diagonal straddles rho of the off-diagonal
    # part, so both verdicts occur
    rng = np.random.default_rng(seed)
    p = random_nonnegative(rng, n, density)
    np.fill_diagonal(p, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(p))))
    a = np.diag(rng.uniform(0.5, 1.5, n) * max(rho, 0.1)) - p
    low = float(np.min(np.linalg.eigvals(a).real))
    assume(abs(low) > 1e-6 * np.max(np.abs(a)))
    assert classify(a).nonsingular_m_matrix == (low > 0.0)
