import math

import numpy as np
import pytest
from hypothesis import settings

from symode.matfun import MatrixFunction
from symode.scalars import ToleranceConfig

# property tests draw the same examples on every run, a fixed number of them,
# and keep no example database
settings.register_profile("symode", derandomize=True, max_examples=100, deadline=None,
                          database=None)
settings.load_profile("symode")

S1 = np.array([[0.0, 1.0], [0.0, 0.0]])
S2 = np.array([[1.0, 0.0], [0.0, -1.0]])
S3 = np.array([[0.0, 0.0], [-1.0, 0.0]])
Z2 = np.zeros((2, 2))
E2 = np.eye(2)
DOM = (-1.0, 1.0)


@pytest.fixture
def cfg():
    return ToleranceConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_traceless(rng, n, complex_field=False):
    m = rng.standard_normal((n, n))
    if complex_field:
        m = m + 1j * rng.standard_normal((n, n))
    return m - (np.trace(m) / n) * np.eye(n)


def generic_draw(seed, n, complex_field=False):
    """Traceless Y and W with unit-variance entries, standard complex normal
    for the complex field; V = e^{tY} W e^{-tY} has the symmetry tau = 1,
    Gamma = Y."""
    rng = np.random.default_rng(seed)

    def draw():
        m = rng.standard_normal((n, n))
        if complex_field:
            m = (m + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        return m - (np.trace(m) / n) * np.eye(n)

    return draw(), draw()


def near_defective_4x4():
    """A 2x2 nilpotent Jordan block in a zero 4x4 matrix, plus Gaussian noise of
    5e-8: the eigenvalues split by about sqrt(5e-8), so any eigenbasis of it is
    ill-conditioned, while its exponential is as well-conditioned as that of
    the block."""
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    return m + 5e-8 * np.random.default_rng(1).standard_normal((4, 4))


def graded_draw(seed, n):
    """Y on the first superdiagonal and W on the second, both standard normal,
    in a basis C = N(0,1) + 2I."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    ups = np.diag(rng.standard_normal(n - 1), 1)
    w = np.diag(rng.standard_normal(n - 2), 2)
    ci = np.linalg.inv(c)
    return c @ ups @ ci, c @ w @ ci


def graded_polynomial(ups, w, domain=DOM):
    """e^{tY} W e^{-tY} of a ``graded_draw`` as the polynomial sum_l t^l K_l / l!,
    K_0 = W, K_{l+1} = [Y, K_l]: K_l lies on superdiagonal l + 2 of the C basis,
    so the sum ends at l = n - 3."""
    kl = [w]
    for _ in range(w.shape[0] - 3):
        kl.append(ups @ kl[-1] - kl[-1] @ ups)
    return MatrixFunction.polynomial(
        np.stack([k / math.factorial(l) for l, k in enumerate(kl)]), domain)


def defective_zeta_draw(seed):
    """V = C (E_12 + E_34) C^-1 at n = 4 and the Gamma of the tau = t field,
    C (diag(1, -1, 1, -1) + E_13 + E_24) C^-1, with C = N(0,1) + 2I: with the
    tau = 1, Gamma = 0 field, the recombined zeta has two 2x2 Jordan blocks."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    ci = np.linalg.inv(c)
    w = np.zeros((4, 4))
    w[0, 1] = w[2, 3] = 1.0
    gamma = np.diag([1.0, -1.0, 1.0, -1.0])
    gamma[0, 2] = gamma[1, 3] = 1.0
    return c @ w @ ci, c @ gamma @ ci


def nonreal_zeta_draw():
    """V = E_13 + E_24 at n = 4 and the Gamma of the tau = t field,
    diag(R + E, R - E) with R the 2x2 rotation generator: [Gamma, V] = 2 V,
    and with the tau = 1, Gamma = 0 field the recombined zeta = Gamma + E/2
    has the nonreal eigenvalues -1/2 +- i and 3/2 +- i."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    gamma = np.block([[rot + E2, Z2], [Z2, rot - E2]])
    return np.block([[Z2, E2], [Z2, Z2]]), gamma
