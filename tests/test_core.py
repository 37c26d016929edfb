"""Classification flags, entrywise products, and input validation."""
import importlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mbound
from mbound.core import (_fan_power, _fan_product, _hadamard,
                         _scale_similarity, _scc_blocks, _stacks, as_matrix,
                         classify)
from mbound.errors import MatrixFormatError
from conftest import random_m_matrix, random_nonnegative


@pytest.mark.parametrize("module", ["mbound", "mbound.core",
                                    "mbound.spectral", "mbound.bounds",
                                    "mbound.harness"])
def test_every_export_resolves(module):
    # a deleted function must leave no stale name in any __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from mbound import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mbound.__all__)


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
    np.testing.assert_array_equal(_hadamard(a, b), a * b)


def test_hadamard_order_mismatch():
    with pytest.raises(ValueError):
        _hadamard(np.eye(2), np.eye(3))


def test_fan_product_signs(fan_pair):
    a, b = fan_pair
    f = _fan_product(a, b)
    assert np.all(np.diag(f) > 0)
    off = f[~np.eye(3, dtype=bool)]
    assert np.all(off <= 0)
    # diagonal is the plain product, off-diagonal is -|a_ij b_ij|
    np.testing.assert_allclose(np.diag(f), np.diag(a) * np.diag(b))
    np.testing.assert_allclose(f[0, 1], -abs(a[0, 1] * b[0, 1]))


def test_fan_product_of_m_matrices_is_m_matrix(fan_pair):
    a, b = fan_pair
    assert classify(_fan_product(a, b)).nonsingular_m_matrix


def test_fan_power_identity_exponent(fan_pair):
    a, _ = fan_pair
    np.testing.assert_array_equal(_fan_power(a, 1), a)


def test_fan_power_squares_entrywise(fan_pair):
    a, _ = fan_pair
    f = _fan_power(a, 2)
    np.testing.assert_allclose(np.diag(f), np.diag(a) ** 2)
    np.testing.assert_allclose(f[2, 1], -abs(a[2, 1]) ** 2)


def test_scale_similarity_preserves_diagonal():
    a = np.array([[2.0, -1.0], [-0.5, 3.0]])
    d = np.array([1.0, 4.0])
    s = _scale_similarity(a, d)
    np.testing.assert_allclose(np.diag(s), np.diag(a))
    np.testing.assert_allclose(s[0, 1], a[0, 1] * d[1] / d[0])


square = arrays(np.float64, (4, 4),
                elements=st.floats(min_value=0.0, max_value=10.0))


@given(a=square, b=square)
@settings(max_examples=60, deadline=None)
def test_hadamard_commutes(a, b):
    np.testing.assert_array_equal(_hadamard(a, b), _hadamard(b, a))


@given(a=square)
@settings(max_examples=60, deadline=None)
def test_classify_nonnegative_flag_matches_definition(a):
    assert classify(a).nonnegative == bool(np.all(a >= 0.0))


@given(n=st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_cyclic_permutation_irreducible_any_order(n):
    # ones at (1,2), (2,3), ..., (n,1): one cycle through every node
    assert classify(np.roll(np.eye(n), 1, axis=1)).irreducible


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


row_exponents = st.lists(st.floats(-200.0, 200.0), min_size=6, max_size=6)
spreads = st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(n=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       u=st.sampled_from([0.5, 0.9, 1.1, 2.0]), g=spreads, e=row_exponents,
       f=row_exponents)
@example(n=2, seed=0, u=2.0, g=[-6.0, 6.0, 0.0, 0.0, 0.0, 0.0],
         e=[-150.0, 150.0, 0.0, 0.0, 0.0, 0.0],
         f=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
@example(n=2, seed=0, u=0.5, g=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
         e=[200.0, -200.0, 0.0, 0.0, 0.0, 0.0],
         f=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
@settings(max_examples=150, deadline=None)
def test_classify_row_scale_invariant(n, seed, u, g, e, f):
    # the pivot test does not change under a positive row scaling D or
    # column scaling C, but the multipliers of D·A or A·C can overflow or
    # underflow (the examples: 1e300 times 1e12, and 1e-200 over 1e200 for
    # a matrix that is not an M-matrix).  A = S(cI − P)S⁻¹ spreads
    # the off-diagonal magnitudes over 12 decades and keeps the pivots of
    # cI − P, which is an M-matrix iff u = c/rho(P) > 1 and is drawn away
    # from the floor
    rng = np.random.default_rng(seed)
    p = random_nonnegative(rng, n)
    np.fill_diagonal(p, 0.0)
    a0 = u * float(np.max(np.abs(np.linalg.eigvals(p)))) * np.eye(n) - p
    minors = [1.0] + [np.linalg.det(a0[:k, :k]) for k in range(1, n + 1)]
    for k in range(n):
        piv = minors[k + 1] / minors[k]
        assume(abs(piv) > 1e-6 * a0[k, k])
        if piv < 0.0:
            break
    s = 10.0 ** np.array(g[:n])
    a = a0 * s[:, None] / s[None, :]
    m = classify(a).nonsingular_m_matrix
    assert m == (u > 1.0)
    d = 10.0 ** np.array(e[:n])
    assert classify(d[:, None] * a).nonsingular_m_matrix == m
    c = 10.0 ** np.array(f[:n])
    assert classify(a * c[None, :]).nonsingular_m_matrix == m


def test_classify_multiplier_underflow():
    # diag(1e200, 1e-200)·[[1, -2], [-1, 1]] has a negative eigenvalue; in
    # its own elimination the multiplier -1e-400 underflows to 0 and the
    # second pivot keeps its sign
    a = np.array([[1e200, -2e200], [-1e-200, 1e-200]])
    assert not classify(a).nonsingular_m_matrix


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_column_scaled_m_matrix():
    # [[1, -0.5], [-1, 1]]·diag(1e-200, 1e200): D⁻¹A would overflow, so a
    # row-only equilibration would reject this M-matrix
    a = np.array([[1.0, -0.5], [-1.0, 1.0]]) * np.array([1e-200, 1e200])
    assert classify(a).nonsingular_m_matrix


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


def _scc_blocks_per_node(a):
    """The strongly connected blocks of one matrix by the per-node loop:
    the reflexive closure by repeated squaring, then each node not yet
    seen opens the block of the nodes it mutually reaches."""
    n = a.shape[0]
    reach = (a != 0.0) | np.eye(n, dtype=bool)
    while True:
        nxt = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    mutual = reach & reach.T
    blocks = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if not seen[i]:
            members = np.flatnonzero(mutual[i])
            seen[members] = True
            blocks.append(members.tolist())
    return blocks


@given(n=st.integers(1, 12), k=st.integers(1, 6), seed=st.integers(0, 10 ** 6),
       density=st.sampled_from([1.0, 0.3, 0.1]))
@settings(max_examples=150, deadline=None)
def test_scc_blocks_match_the_per_node_loop(n, k, seed, density):
    # every other slice is block triangular and permuted, so stacks mix
    # full closures with several blocks
    rng = np.random.default_rng(seed)
    a = np.stack([random_nonnegative(rng, n, density) for _ in range(k)])
    for i in range(1, k, 2):
        a[i, : n // 2, n // 2:] = 0.0
        perm = rng.permutation(n)
        a[i] = a[i][np.ix_(perm, perm)]
    assert _scc_blocks(a) == [_scc_blocks_per_node(s) for s in a]
    # leading blocks of other orders, zero-padded to their bucket order:
    # the pad nodes are dropped and make no slice reducible
    mats = list(a) + [s[:m, :m] for s, m in zip(a, rng.integers(1, n + 1, k))]
    for idx, orders, stack in _stacks(mats):
        assert _scc_blocks(stack, orders) == [_scc_blocks_per_node(mats[i])
                                              for i in idx]
