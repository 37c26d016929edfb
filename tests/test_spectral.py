"""Eigen-extremum computations cross-checked against numpy's QR solver.

numpy.linalg appears here only as an independent reference; no spectral
routine of the package calls it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbound import _lu, spectral
from mbound.core import _fan_product, _stacks
from mbound.errors import (ClassMismatchError, ConvergenceError,
                           SingularMatrixError)
from mbound.harness import GeneratorSpec, _sample_order, _trial_rng, gen_m_matrix
from mbound.spectral import (SpectralResult, _jacobi_matrix,
                             rho_nonnegative, tau_m_matrix)
from conftest import random_m_matrix, random_nonnegative


def np_rho(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def np_tau(a):
    return float(np.min(np.linalg.eigvals(a).real))


def test_rho_worked_example(hadamard_pair):
    a, _ = hadamard_pair
    r = rho_nonnegative(a)
    assert r.value == pytest.approx(np_rho(a), abs=1e-10)
    assert r.eigenvector is not None
    # residual is the Collatz-Wielandt bracket width on the reported value
    assert r.residual <= spectral.REL_TOL


def test_rho_exact_two_by_two():
    # closed form (5 + sqrt(33)) / 2
    r = rho_nonnegative(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert r.value == pytest.approx((5.0 + np.sqrt(33.0)) / 2.0, abs=1e-12)


def test_rho_gate():
    with pytest.raises(ClassMismatchError):
        rho_nonnegative(np.array([[1.0, -0.1], [0.0, 1.0]]))


def test_rho_one_by_one_exact():
    r = rho_nonnegative(np.array([[3.5]]))
    assert r.value == 3.5 and r.iterations == 0


def test_rho_cyclic_permutation():
    # periodic pattern: the primitivity shift must still converge
    r = rho_nonnegative(np.roll(np.eye(5), 1, axis=1))
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.eigenvector is not None
    np.testing.assert_allclose(r.eigenvector, np.ones(5), atol=1e-8)


def test_rho_reducible_block_max():
    # two decoupled blocks: answer is the larger block root, no vector
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 2.0  # rho 2
    a[2, 3] = a[3, 2] = 5.0  # rho 5
    r = rho_nonnegative(a)
    assert r.value == pytest.approx(5.0, abs=1e-10)
    assert r.eigenvector is None


def test_rho_nilpotent_zero():
    a = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert rho_nonnegative(a).value == pytest.approx(0.0, abs=1e-14)


def test_rho_irreducible_positive_eigenvector():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 1.0, (6, 6))
    r = rho_nonnegative(a)
    assert np.all(r.eigenvector > 0)
    resid = a @ r.eigenvector - r.value * r.eigenvector
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, r.value)


@given(n=st.integers(min_value=1, max_value=5), seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_rho_matches_numpy(n, seed):
    a = random_nonnegative(np.random.default_rng(seed), n)
    assert rho_nonnegative(a).value == pytest.approx(np_rho(a), abs=1e-8)


def test_convergence_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as info:
        rho_nonnegative(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert info.value.best_estimate == pytest.approx((5 + 33 ** 0.5) / 2, rel=0.2)


def test_rho_reducible_skips_a_block_below_the_root():
    # inverse of A o B^-1 for the pair drawn at trial 0 of this spec: its
    # 10x10 block has two top eigenvalues that power iteration cannot
    # separate, but a 1x1 block already exceeds that block's bracket
    spec = GeneratorSpec("m_matrix", order=10, density=0.3, seed=67110378,
                         diagonal_margin=0.05)
    rng = _trial_rng(spec.seed, 0)
    n = _sample_order(rng, 10, 12)
    a = gen_m_matrix(spec, rng=rng, order=n)
    b = gen_m_matrix(spec, rng=rng, order=n)
    prod = a * _lu.inverse(b)
    r = tau_m_matrix(prod)
    assert n == 12 and r.iterations < 100
    assert r.value == pytest.approx(min(np.linalg.eigvals(prod).real), rel=1e-12)


def test_tau_worked_example(fan_pair):
    a, b = fan_pair
    assert tau_m_matrix(a).value == pytest.approx(np_tau(a), abs=1e-10)
    f = _fan_product(a, b)
    assert tau_m_matrix(f).value == pytest.approx(np_tau(f), abs=1e-10)


def test_tau_gate():
    with pytest.raises(ClassMismatchError):
        tau_m_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_tau_duality_with_inverse():
    # tau(A) * rho(A^-1) == 1 by definition of the minimum eigenvalue
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_m_matrix(rng, int(rng.integers(2, 7)))
        t = tau_m_matrix(a).value
        assert t * np_rho(np.linalg.inv(a)) == pytest.approx(1.0, abs=1e-8)


def test_tau_diagonal_exact():
    a = np.diag([4.0, 2.0, 9.0])
    assert tau_m_matrix(a).value == pytest.approx(2.0, abs=1e-12)


def test_jacobi_radius_worked(hinv_pair):
    a, b = hinv_pair
    # I - D^-1 A for the tridiagonal 0.5 pattern: rho = cos(pi/5) exactly
    assert rho_nonnegative(_jacobi_matrix(a)).value == pytest.approx(
        np.cos(np.pi / 5.0), abs=1e-10)
    ja = np.eye(4) - b / np.diag(b)[:, None]
    assert rho_nonnegative(_jacobi_matrix(b)).value == pytest.approx(
        np_rho(ja), abs=1e-10)


def test_jacobi_radius_zero_diagonal():
    with pytest.raises(ValueError):
        _jacobi_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_inverse_matches_numpy(hinv_pair):
    _, b = hinv_pair
    np.testing.assert_allclose(_lu.inverse(b), np.linalg.inv(b), atol=1e-12)


def test_lu_factor_permutation():
    a = np.random.default_rng(11).normal(size=(6, 6))
    lu, perm = _lu.lu_factor(a)
    lower = np.tril(lu, -1) + np.eye(6)
    np.testing.assert_allclose(lower @ np.triu(lu), a[perm], atol=1e-12)


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        _lu.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


scales = st.floats(min_value=1e-150, max_value=1e150)
densities = st.sampled_from([1.0, 0.3])


@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6), density=densities,
       s=scales)
@settings(max_examples=100, deadline=None)
def test_rho_scale_covariant(n, seed, density, s):
    a = random_nonnegative(np.random.default_rng(seed), n, density)
    r = rho_nonnegative(a).value
    assert rho_nonnegative(s * a).value == pytest.approx(s * r, rel=1e-12,
                                                         abs=0.0)


@given(n=st.integers(1, 8), seed=st.integers(0, 10 ** 6), density=densities,
       s=scales)
@settings(max_examples=100, deadline=None)
def test_tau_scale_covariant(n, seed, density, s):
    a = random_m_matrix(np.random.default_rng(seed), n, density=density)
    t = tau_m_matrix(a).value
    assert tau_m_matrix(s * a).value == pytest.approx(s * t, rel=1e-12)


def test_rho_tiny_scale_converges():
    # the primitivity shift must scale with the input: an absolute shift
    # of 1 swamps a 1e-6-scale matrix and the bracket never closes
    a = np.random.default_rng(0).uniform(0.0, 1.0, (5, 5))
    r = rho_nonnegative(a * 1e-6)
    assert r.value == pytest.approx(np_rho(a) * 1e-6, rel=1e-12)


def test_tau_huge_scale():
    # the inverse has 1e-150-scale entries, which an absolute shift of 1
    # would absorb entirely, giving tau = 1/0
    a = np.array([[2.0, -1.0], [-1.0, 2.0]]) * 1e150
    assert tau_m_matrix(a).value == pytest.approx(1e150, rel=1e-12)


def test_tau_multiplier_underflow():
    # diag(1e200, 1e-200)·[[1, -0.5], [-1, 1]]: the first multiplier of A's
    # own elimination, -1e-400, underflows; A⁻¹ is finite
    a = np.array([[1e200, -5e199], [-1e-200, 1e-200]])
    assert tau_m_matrix(a).value == pytest.approx(5e-201, rel=1e-12)


def test_rho_iterate_underflow_stops_at_once():
    # rho = 2e200, and the first entry of the Perron vector underflows:
    # the slice stops with a ConvergenceError, and a slice beside it in
    # the stack keeps its bits
    bad = np.array([[2e-200, 1e-201], [1e150, 2e200]])
    with pytest.raises(ConvergenceError, match="left float64 range") as info:
        rho_nonnegative(bad)
    assert "did not converge" not in str(info.value)
    good = np.array([[1.0, 2.0], [3.0, 4.0]])
    both = spectral.solve([("rho", bad), ("rho", good)])
    assert isinstance(both[0], ConvergenceError)
    assert _same_outcome(both[1], spectral.solve([("rho", good)])[0])


def _reachable(a):
    """i -> j reachability (reflexive) in the off-diagonal digraph of a."""
    r = (a != 0.0) | np.eye(a.shape[0], dtype=bool)
    while True:
        nxt = r | ((r.astype(int) @ r.astype(int)) > 0)
        if np.array_equal(nxt, r):
            return r
        r = nxt


@given(n=st.integers(1, 12), seed=st.integers(0, 10 ** 6), density=densities,
       margin=st.sampled_from([0.5, 0.05]))
@settings(max_examples=150, deadline=None)
def test_m_inverse_sign_exact(n, seed, density, margin):
    a = random_m_matrix(np.random.default_rng(seed), n, margin=margin,
                        density=density)
    lu, ok, e = _lu.m_factor(a[None])
    assert ok[0]
    inv = _lu.m_inverse(lu, e)[0]
    assert np.all(inv >= 0.0)
    np.testing.assert_array_equal(inv != 0.0, _reachable(a))
    ref = np.linalg.inv(a)
    nz = inv != 0.0
    np.testing.assert_allclose(inv[nz], ref[nz], rtol=1e-10, atol=0.0)


def test_m_factor_rejects():
    # singular, a failing later pivot, a positive off-diagonal, and a
    # nonpositive diagonal
    for a in ([[1.0, -1.0], [-1.0, 1.0]],
              [[1.0, -2.0], [-1.0, 1.0]],
              [[2.0, 0.5], [0.0, 2.0]],
              [[-1.0]]):
        assert not _lu.m_factor(np.array(a)[None])[1][0]


def _equilibrator(a):
    """E = diag(a_ii)^(-1/2) rounded to powers of two, as a vector: the
    diagonal of E·A·E lies in [1/4, 1)."""
    return np.array([2.0 ** (math.frexp(x)[1] // -2) for x in np.diag(a)])


def _m_factor_reference(a):
    """The per-matrix elimination that ``_lu.m_factor`` runs on every slice
    of a stack: (packed factors of E·A·E, E), or None when a fails the
    gate."""
    n = a.shape[0]
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off > 0.0) or np.any(np.diag(a) <= 0.0):
        return None
    e = _equilibrator(a)
    lu = a * e[:, None] * e[None, :]
    floor = _lu.M_PIVOT_REL * np.diag(lu)
    for k in range(n):
        piv = lu[k, k]
        if not piv > floor[k]:
            return None
        lu[k + 1:, k] /= piv
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, e


@given(n=st.integers(1, 12), seed=st.integers(0, 10 ** 6), density=densities,
       margin=st.sampled_from([0.5, 0.05]), s=scales)
@settings(max_examples=100, deadline=None)
def test_m_factor_scaling_is_exact(n, seed, density, margin, s):
    # E is a power of two, so in float64 range the factors of E·A·E are
    # those of A scaled by E, bit for bit, and so is the inverse
    a = s * random_m_matrix(np.random.default_rng(seed), n, margin=margin,
                            density=density)
    lu = a.copy()
    for k in range(n):
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    e = _equilibrator(a)
    lower = np.tri(n, k=-1, dtype=bool)
    scaled = np.where(lower, lu * e[:, None] / e[None, :],
                      lu * e[:, None] * e[None, :])
    got, ok, got_e = _lu.m_factor(a[None])
    assert ok[0]
    np.testing.assert_array_equal(got_e[0], e)
    np.testing.assert_array_equal(got[0], scaled)
    np.testing.assert_array_equal(_lu.m_inverse(got, got_e),
                                  _lu.m_inverse(lu[None], np.ones((1, n))))


@given(k=st.integers(1, 6), seed=st.integers(0, 10 ** 6), density=densities,
       margin=st.sampled_from([0.5, 0.05, -0.05]))
@settings(max_examples=80, deadline=None)
def test_padded_elimination_skips_the_pad_bit_for_bit(k, seed, density,
                                                      margin):
    # past a stack's largest order every slice is identity pad: skipping
    # those pivots and rows leaves each verdict, each ok slice's factors
    # and each leading block of the inverse bit for bit; a negative margin
    # makes some slices fail the gate
    rng = np.random.default_rng(seed)
    mats = [random_m_matrix(rng, int(rng.integers(1, 13)), margin=margin,
                            density=density) for _ in range(k)]
    for _, orders, stack in _stacks(mats, diag=1.0):
        m = max(orders)
        lu, ok, e = _lu.m_factor(stack)
        lu_m, ok_m, e_m = _lu.m_factor(stack, m)
        assert np.array_equal(ok, ok_m) and np.array_equal(e, e_m)
        assert np.array_equal(lu[ok], lu_m[ok])
        inv = _lu.m_inverse(lu[ok], e[ok])
        inv_m = _lu.m_inverse(lu_m[ok], e[ok], m)
        for j, n in enumerate(np.array(orders)[ok].tolist()):
            assert np.array_equal(inv[j, :n, :n], inv_m[j, :n, :n])


def _same_outcome(x, y):
    if isinstance(x, Exception) or isinstance(y, Exception):
        return (type(x) is type(y) and str(x) == str(y)
                and repr(getattr(x, "best_estimate", None))
                == repr(getattr(y, "best_estimate", None)))
    vectors = (x.eigenvector is None and y.eigenvector is None
               or x.eigenvector is not None and y.eigenvector is not None
               and np.array_equal(x.eigenvector, y.eigenvector))
    return (x.value, x.iterations, x.residual) == (
        y.value, y.iterations, y.residual) and vectors


@given(n=st.integers(1, 12), k=st.integers(1, 6), seed=st.integers(0, 10 ** 6),
       density=densities)
@settings(max_examples=120, deadline=None)
def test_stacked_solves_match_a_stack_of_one(n, k, seed, density):
    # every other slice is made reducible (block triangular), and the
    # diagonal shifts straddle rho(P), so some M-candidates fail the gate
    rng = np.random.default_rng(seed)
    ps, ms = [], []
    for i in range(k):
        p = random_nonnegative(rng, n, density)
        if i % 2 and n > 1:
            p[: n // 2, n // 2:] = 0.0
        rho = np_rho(p)
        shift = rho * rng.uniform(0.9, 1.5) if rho > 0 else 0.5
        ps.append(p)
        ms.append(shift * np.eye(n) - p)
    problems = [("rho", p) for p in ps] + [("tau", m) for m in ms]
    stacked = spectral.solve(problems)
    for problem, outcome in zip(problems, stacked):
        assert _same_outcome(outcome, spectral.solve([problem])[0])
    lu, ok, e = _lu.m_factor(np.stack(ms))
    for i, m in enumerate(ms):
        ref = _m_factor_reference(m)
        one_lu, one_ok, one_e = _lu.m_factor(m[None])
        assert ok[i] == one_ok[0] == (ref is not None)
        if ok[i]:
            assert np.array_equal(lu[i], ref[0])
            assert np.array_equal(one_lu[0], ref[0])
            assert np.array_equal(e[i], ref[1])
            assert np.array_equal(one_e[0], ref[1])


def _reducible(rng, n):
    """A permuted block upper-triangular nonnegative matrix of order n: a
    dense block of each size in a random composition of n (some sizes
    repeat, some are 1), random coupling above them, and now and then
    only 1x1 blocks or all zeros."""
    shape = rng.integers(4)
    if shape == 0:
        return np.zeros((n, n))
    sizes = [1] * n if shape == 1 else []
    while sum(sizes) < n:
        sizes.append(int(min(rng.choice([1, 2, 2, 3]), n - sum(sizes))))
    a = np.triu(random_nonnegative(rng, n, 0.3), 1)
    start = 0
    for size in sizes:
        block = rng.uniform(0.1, 1.0, (size, size))
        a[start:start + size, start:start + size] = block * (size > 1 or
                                                            rng.integers(2))
        start += size
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def _mixed_problems(rng, k):
    """k ρ problems of orders 1..16, random or reducible, and the τ
    problem of a diagonal shift of each, which may fail the gate.  Orders
    13..16 lie above the suites' cap, in a bucket of their own."""
    problems = []
    for _ in range(k):
        n = int(rng.integers(1, 17))
        p = (_reducible(rng, n) if rng.integers(2)
             else random_nonnegative(rng, n, rng.choice([1.0, 0.3])))
        rho = np_rho(p)
        shift = rho * rng.uniform(0.9, 1.5) if rho > 0 else 0.5
        problems += [("rho", p), ("tau", shift * np.eye(n) - p)]
    return problems


@given(k=st.integers(1, 12), seed=st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_mixed_orders_and_blocks_match_a_problem_alone(k, seed):
    # one solve call across orders, with blocks of equal size in a slice
    # and blocks of one size from slices of different orders in one stack
    problems = _mixed_problems(np.random.default_rng(seed), k)
    for problem, outcome in zip(problems, spectral.solve(problems)):
        assert _same_outcome(outcome, spectral.solve([problem])[0])


def test_a_block_that_does_not_converge_ends_its_slice(monkeypatch):
    # the first block converges in 2 rounds, the second (root 10.2, above
    # the first's 5) would need 19
    a = np.zeros((4, 4))
    a[:2, :2] = [[0.0, 5.0], [5.0, 0.0]]
    a[2:, 2:] = [[10.0, 0.1], [0.4, 10.0]]
    a[0, 2] = 1.0
    monkeypatch.setattr(spectral, "MAX_ITER", 5)
    problems = [("rho", a)] + _mixed_problems(np.random.default_rng(3), 12)
    stacked = spectral.solve(problems)
    assert isinstance(stacked[0], ConvergenceError)
    assert "did not converge in 5 iterations" in str(stacked[0])
    assert any(isinstance(r, SpectralResult) for r in stacked)
    for problem, outcome in zip(problems, stacked):
        assert _same_outcome(outcome, spectral.solve([problem])[0])


def test_rho_equal_size_blocks_abandon_the_second():
    # blocks {0, 1} (root 5) and {2, 3} (root 2) have one size; the first
    # converges in 2 rounds, and the second stops after 1, below 5
    a = np.array([[0, 5, 1, 0], [5, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
                 dtype=float)
    r = rho_nonnegative(a)
    assert r.value == pytest.approx(5.0, rel=1e-12) and r.iterations == 3
    swapped = rho_nonnegative(np.array([[0, 2, 1, 0], [2, 0, 0, 0],
                                        [0, 0, 0, 5], [0, 0, 5, 0]],
                                       dtype=float))
    assert swapped.value == pytest.approx(5.0, rel=1e-12)
    assert swapped.iterations == 4


def _bucket_order_problems():
    """ρ and τ problems that no stack pads: irreducible ones of orders 4, 8
    and 12, and reducible ones whose blocks have orders 1, 4 and 8 (ρ, of
    order 13) and 4 and 8 (τ, of order 12)."""
    rng = np.random.default_rng(19)
    problems = [("rho", rng.uniform(0.0, 1.0, (n, n))) for n in (4, 8, 12)]
    problems += [("tau", n * np.eye(n) - rng.uniform(0.0, 1.0, (n, n)))
                 for n in (8, 12)]
    a = np.triu(rng.uniform(0.0, 1.0, (13, 13)), 1)
    for lo, hi in ((0, 1), (1, 5), (5, 13)):
        a[lo:hi, lo:hi] = rng.uniform(0.1, 1.0, (hi - lo, hi - lo))
    perm = rng.permutation(13)
    problems.append(("rho", a[np.ix_(perm, perm)]))
    p = np.triu(rng.uniform(0.0, 1.0, (12, 12)), 1)
    for lo, hi in ((0, 4), (4, 12)):
        p[lo:hi, lo:hi] = rng.uniform(0.0, 1.0, (hi - lo, hi - lo))
    perm = perm[perm < 12]
    problems.append(("tau", 12.0 * np.eye(12) - p[np.ix_(perm, perm)]))
    return problems


def test_bucket_orders_keep_their_bits():
    # a matrix or block whose order is a multiple of 4 fills its stack
    # slice, so it gets the bits of the unpadded solver, pinned here
    pinned = ["0x1.29ff1445d415ep+1", "0x1.eef55f3cd687bp+1",
              "0x1.7a44b66788066p+2", "0x1.e81cb0a136666p+1",
              "0x1.88d589d526268p+2", "0x1.190e7f75cf2a1p+2",
              "0x1.ecdc0f7df4ad6p+2"]
    problems = _bucket_order_problems()
    solved = spectral.solve(problems)
    assert [r.value for r in solved] == [float.fromhex(h) for h in pinned]
    assert [r.eigenvector is None for r in solved] == [False] * 5 + [True] * 2
    for (kind, a), r in zip(problems, solved):
        ref = np_rho(a) if kind == "rho" else np_tau(a)
        assert r.value == pytest.approx(ref, rel=1e-12)
