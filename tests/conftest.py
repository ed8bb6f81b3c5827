import numpy as np
import pytest

from symode.scalars import ToleranceConfig

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


def near_defective_4x4():
    """A 2x2 nilpotent Jordan block in a zero 4x4 matrix, plus Gaussian noise of
    5e-8: the eigenvalues split by about sqrt(5e-8), so any eigenbasis of it is
    ill-conditioned, while its exponential is as well-conditioned as that of
    the block."""
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    return m + 5e-8 * np.random.default_rng(1).standard_normal((4, 4))
