import numpy as np
import pytest

from mbound import _lu, bounds
from mbound.errors import unwrap
from mbound.harness import (WORKED_FAN_A, WORKED_FAN_B, WORKED_HADAMARD_A,
                            WORKED_HADAMARD_B, WORKED_HINV_A, WORKED_HINV_B)
from mbound.spectral import _m_inverses


@pytest.fixture
def hadamard_pair():
    return WORKED_HADAMARD_A.copy(), WORKED_HADAMARD_B.copy()


@pytest.fixture
def fan_pair():
    return WORKED_FAN_A.copy(), WORKED_FAN_B.copy()


@pytest.fixture
def hinv_pair():
    return WORKED_HINV_A.copy(), WORKED_HINV_B.copy()


def random_nonnegative(rng, n, density=1.0):
    u = rng.uniform(0.0, 1.0, (n, n))
    return np.where(u >= 1.0 - density, u, 0.0)


def random_m_matrix(rng, n, margin=0.5, density=1.0):
    """alpha*I - P with alpha comfortably above rho(P); independent of the
    package generator on purpose (numpy eigvals supplies rho)."""
    p = random_nonnegative(rng, n, density)
    rho = float(np.max(np.abs(np.linalg.eigvals(p))))
    alpha = rho * (1.0 + margin) if rho > 0 else margin
    return alpha * np.eye(n) - p


def row_chain(b):
    """(r, s_pair, caps): the row chain and inverse caps of one strictly
    row-dominant b, from the stacked kernels on a stack of one."""
    lg = bounds._Log(np.ones((1, len(b)), dtype=bool))
    r, s_pair = bounds._aux_chain(b[None], lg)
    lg.flush(0)
    return r[0], s_pair[0], bounds._caps(b[None], r)[0]


def product_with_inverse_is_m(a, b):
    """The Fiedler–Markham lemma on one pair: B ∘ A⁻¹ passes the M-matrix
    elimination.  A⁻¹ comes from the M-matrix gate, whose exact zeros keep
    B's Z-pattern."""
    ainv = unwrap(_m_inverses([a])[0])
    return bool(_lu.m_factor((b * ainv)[None])[1][0])
