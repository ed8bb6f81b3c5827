"""The tabulated linear-ODE propagator against callback RK4."""

import numpy as np
import pytest

from symode.gauge import SystemDescriptor
from symode.matfun import MatrixFunction, VectorFunction
from symode.numutil import companion, rk4_bidirectional, rk4_linear, uniform_grid
from symode.scalars import Field

# an interval whose step lengths are not powers of two, so the tabulated and
# callback steps round differently
DOM = (-1.0, 0.9)


def forced_system(kind, field, seed=3):
    """Non-autonomous, inhomogeneous barL system with n = 2."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = 0.5 * rng.standard_normal(shape)
        return x + 0.5j * rng.standard_normal(shape) if field is Field.COMPLEX else x

    if kind == "polynomial":
        a = MatrixFunction.polynomial([draw(2, 2), draw(2, 2)], DOM)
        b = MatrixFunction.polynomial([draw(2, 2), draw(2, 2), draw(2, 2)], DOM)
        f = VectorFunction.polynomial([draw(2), draw(2)], DOM)
    else:
        # sample nodes that do not line up with the solver grid
        t = np.linspace(*DOM, 97)
        a = MatrixFunction.sampled(t, draw(2, 2) + np.sin(2.0 * t)[:, None, None] * draw(2, 2))
        b = MatrixFunction.sampled(t, draw(2, 2) + np.cos(t)[:, None, None] * draw(2, 2))
        f = VectorFunction.sampled(t, np.outer(np.exp(0.5 * t), draw(2)))
    return SystemDescriptor.bar_l(a, b, f, field)


def callback_solve(sys, z0, grid, i0):
    """The companion system stepped through a per-step right-hand side."""
    a_fun, b_fun, f_fun = sys.coefficients()
    n = sys.n

    def f(t, z):
        ff = f_fun.evaluate(t)
        acc = b_fun.evaluate(t) @ z[:n] + a_fun.evaluate(t) @ z[n:]
        return np.concatenate([z[n:], acc + (ff if z.ndim == 1 else ff[:, None])])

    return rk4_bidirectional(f, z0, grid, i0)


def tabulated_solve(sys, z0, steps, i0):
    half = uniform_grid(*DOM, 2 * steps)
    m, g = sys.companion_table(half)
    return rk4_linear(m, z0, half[::2], i0, g if np.ndim(z0) == 1 else g[:, :, None])


def initial_state(field, columns, seed=5):
    rng = np.random.default_rng(seed)
    shape = (4,) if columns is None else (4, columns)
    z0 = rng.standard_normal(shape)
    return z0 + 1j * rng.standard_normal(shape) if field is Field.COMPLEX else z0


@pytest.mark.parametrize("kind", ["polynomial", "sampled"])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("anchor", ["left", "middle"])
def test_tabulated_matches_callback(kind, field, columns, anchor):
    sys = forced_system(kind, field)
    steps = 200
    grid = uniform_grid(*DOM, steps)
    i0 = 0 if anchor == "left" else steps // 2
    z0 = initial_state(field, columns)
    ref = callback_solve(sys, z0, grid, i0)
    got = tabulated_solve(sys, z0, steps, i0)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["polynomial", "sampled"])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_tabulated_richardson_order_four(kind, field):
    sys = forced_system(kind, field)
    z0 = initial_state(field, 2)
    sols = [tabulated_solve(sys, z0, steps, steps // 2) for steps in (40, 80, 160)]
    # differences of successive halvings at the common nodes shrink by 2^4
    d1 = np.max(np.abs(sols[0] - sols[1][::2]))
    d2 = np.max(np.abs(sols[1][::2] - sols[2][::4]))
    assert 3.7 < np.log2(d1 / d2) < 4.3


def test_real_state_under_complex_coefficients_stays_complex():
    sys = forced_system("polynomial", Field.COMPLEX)
    traj = tabulated_solve(sys, np.zeros(4), 64, 0)
    assert np.iscomplexobj(traj) and np.max(np.abs(traj.imag)) > 0.0


def test_coefficients_must_cover_the_half_steps():
    grid = uniform_grid(*DOM, 8)
    with pytest.raises(ValueError):
        rk4_linear(np.zeros((9, 2, 2)), np.ones(2), grid)


def test_companion_blocks():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2, 2))
    x, v = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    z_t = np.einsum("tij,tj->ti", companion(a, b), np.concatenate([x, v], axis=1))
    np.testing.assert_allclose(z_t[:, :2], v)
    np.testing.assert_allclose(z_t[:, 2:], np.einsum("tij,tj->ti", b, x)
                               + np.einsum("tij,tj->ti", a, v))
