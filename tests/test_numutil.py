"""The grid kernels against their per-point references, and the tabulated
linear-ODE propagator against callback RK4."""

import functools

import numpy as np
import pytest

from symode import numutil
from symode.gauge import SystemDescriptor
from symode.matfun import MatrixFunction, VectorFunction
from symode.numutil import (companion, cumulative_integral, fd_weights, grid_derivative,
                            rk4_linear, trajectory_derivative, uniform_grid)
from symode.scalars import Field
from oracles import (cumulative_integral_from_the_left, cumulative_integral_pointwise,
                     fd_weights_1d, grid_derivative_pointwise, pointwise_stencils,
                     rk4_bidirectional, rk4_step_maps_allocating)

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
@pytest.mark.parametrize("anchor", ["left", "middle", "right"])
def test_tabulated_matches_callback(kind, field, columns, anchor):
    assert_matches_callback(kind, field, columns, anchor, 200)


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("anchor", ["left", "middle", "right"])
def test_short_grids_match_callback(field, columns, anchor, steps):
    assert_matches_callback("polynomial", field, columns, anchor, steps)


def assert_matches_callback(kind, field, columns, anchor, steps):
    sys = forced_system(kind, field)
    grid = uniform_grid(*DOM, steps)
    # "right" anchors at the last node: a backward sweep only
    i0 = {"left": 0, "middle": steps // 2, "right": steps}[anchor]
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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("backward", [False, True])
def test_constant_step_is_the_fourth_order_taylor_map(field, backward):
    # with constant M and g = 0, one RK4 step is sum_{k<=4} (hM)^k/k!
    rng = np.random.default_rng(7)
    m0 = rng.standard_normal((4, 4))
    y0 = rng.standard_normal((4, 2))
    if field is Field.COMPLEX:
        m0 = m0 + 1j * rng.standard_normal((4, 4))
    grid = np.array([0.0, 0.3])
    got = rk4_linear(np.broadcast_to(m0, (3, 4, 4)), y0, grid, 1 if backward else 0)
    hm = (-0.3 if backward else 0.3) * m0
    term, want = y0, y0.copy()
    for k in range(1, 5):
        term = hm @ term / k
        want = want + term
    assert np.max(np.abs(got[0 if backward else 1] - want)) <= 1e-14 * np.max(np.abs(want))


def test_real_state_under_complex_coefficients_stays_complex():
    sys = forced_system("polynomial", Field.COMPLEX)
    traj = tabulated_solve(sys, np.zeros(4), 64, 0)
    assert np.iscomplexobj(traj) and np.max(np.abs(traj.imag)) > 0.0


def test_coefficients_must_cover_the_half_steps():
    grid = uniform_grid(*DOM, 8)
    with pytest.raises(ValueError):
        rk4_linear(np.zeros((9, 2, 2)), np.ones(2), grid)


def tabulated_table(steps, field, columns, forced, growth=0.0, seed=9):
    """M(t) (and g(t)) on the 2N+1 half-step points of DOM, d = 4; growth adds
    diag(g, g, -g, -g) to M."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = 0.5 * rng.standard_normal(shape)
        return x + 0.5j * rng.standard_normal(shape) if field is Field.COMPLEX else x

    t = uniform_grid(*DOM, 2 * steps)[:, None, None]
    m = draw(4, 4) + np.sin(3.0 * t) * draw(4, 4) + np.diag([growth] * 2 + [-growth] * 2)
    g = None
    if forced:
        g = np.cos(2.0 * t[:, :, 0]) * draw(4)
        g = g if columns is None else g[:, :, None]
    return m, g, initial_state(field, columns)


def indexed_callback_solve(m, y0, steps, i0, g):
    """Callback RK4 over the index grid 0..N with y' = h (M[2s] y + g[2s])."""
    h = (DOM[1] - DOM[0]) / steps

    def f(s, y):
        k = int(round(2.0 * s))
        return h * (m[k] @ y + (0.0 if g is None else g[k]))

    return rk4_bidirectional(f, y0, np.arange(steps + 1.0), i0)


@pytest.mark.parametrize("steps", [1, 2, 3, 31, 32, 33, 1023, 1024, 1025])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("anchor", ["left", "middle", "right"])
def test_blocked_sweep_matches_callback(steps, field, columns, forced, anchor):
    # step counts below, at and above whole blocks of ceil(sqrt(N)) steps
    m, g, y0 = tabulated_table(steps, field, columns, forced)
    i0 = {"left": 0, "middle": steps // 2, "right": steps}[anchor]
    ref = indexed_callback_solve(m, y0, steps, i0, g)
    got = rk4_linear(m, y0, uniform_grid(*DOM, steps), i0, g)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_blocked_sweep_under_growth(field):
    # the fundamental matrix grows to about 1e10 over the domain; every node
    # keeps its own relative accuracy, the decayed early ones included
    m, g, y0 = tabulated_table(1024, field, 3, True, growth=12.0)
    ref = indexed_callback_solve(m, y0, 1024, 0, g)
    got = rk4_linear(m, y0, uniform_grid(*DOM, 1024), 0, g)
    assert np.max(np.abs(ref[-1])) > 1e9 * np.max(np.abs(ref[0]))
    node_err = np.max(np.abs(got - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
    assert np.max(node_err) <= 1e-13


@pytest.mark.parametrize("d", range(2, 17))
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_in_place_stages_repeat_the_formula_bitwise(d, field, monkeypatch):
    # the stages in place round as the allocating formula does, so P and q
    # and every propagated node are bit for bit the same
    steps = 41
    rng = np.random.default_rng(d)

    def draw(*shape):
        x = 0.5 * rng.standard_normal(shape)
        return x + 0.5j * rng.standard_normal(shape) if field is Field.COMPLEX else x

    t = uniform_grid(*DOM, 2 * steps)[:, None, None]
    m = draw(d, d) + np.sin(3.0 * t) * draw(d, d)
    g_vec = np.cos(2.0 * t[:, :, 0]) * draw(d)
    g_mat = np.cos(2.0 * t) * draw(d, 3)
    grid = uniform_grid(*DOM, steps)
    cases = [(draw(d), None), (draw(d), g_vec), (draw(d, 3), None), (draw(d, 3), g_vec[..., None]),
             (draw(d, 3), g_mat)]
    for y0, g in cases:
        for b in (None, g):
            p, q = numutil._step_maps(m, b)
            p_ref, q_ref = rk4_step_maps_allocating(m, b)
            assert p.tobytes() == p_ref.tobytes()
            assert (q is None and q_ref is None) or q.tobytes() == q_ref.tobytes()
        for i0 in (0, steps // 2, 13):
            got = rk4_linear(m, y0, grid, i0, g)
            with monkeypatch.context() as mp:
                mp.setattr(numutil, "_step_maps", rk4_step_maps_allocating)
                ref = rk4_linear(m, y0, grid, i0, g)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_companion_blocks():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2, 2))
    x, v = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    z_t = np.einsum("tij,tj->ti", companion(a, b), np.concatenate([x, v], axis=1))
    np.testing.assert_allclose(z_t[:, :2], v)
    np.testing.assert_allclose(z_t[:, 2:], np.einsum("tij,tj->ti", b, x)
                               + np.einsum("tij,tj->ti", a, v))


# ---------------------------------------------------------------------------
# whole-grid kernels


def kernel_grid(npts, uniform, seed=0):
    if uniform:
        return np.linspace(-1.0, 1.3, npts)
    steps = np.random.default_rng(seed).uniform(0.5, 1.5, npts - 1)
    return -1.0 + 2.3 * np.concatenate([[0.0], np.cumsum(steps)]) / np.sum(steps)


def kernel_values(grid, shape, cplx, seed=1):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal((3,) + shape)
    if cplx:
        amp = amp + 1j * rng.standard_normal((3,) + shape)
    t = grid.reshape((-1,) + (1,) * len(shape))
    return amp[0] + amp[1] * np.sin(3.0 * t) + amp[2] * np.exp(t) * t ** 2


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("m", [1, 2])
def test_batched_fd_weights_rows_equal_1d_calls(uniform, m):
    grid = kernel_grid(40, uniform)
    width = m + 5
    idx = np.arange(len(grid) - width + 1)[:, None] + np.arange(width)
    x0 = grid[idx[:, 0]] + 0.3 * (grid[idx[:, -1]] - grid[idx[:, 0]])
    batched = fd_weights(grid[idx], x0, m)
    assert batched.shape == idx.shape
    for row, nodes, at in zip(batched, grid[idx], x0):
        assert np.array_equal(row, fd_weights_1d(nodes, at, m))
        assert np.array_equal(row, fd_weights(nodes, at, m))


KERNEL_CASES = [(npts, uniform, shape, cplx)
                for npts in (33, 257, 2049) for uniform in (True, False)
                for shape in ((), (3,), (2, 2)) for cplx in (False, True)]


def assert_close_to_reference(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


@functools.lru_cache(maxsize=None)
def reference_stencils(npts, uniform, order, stencil):
    # one Fornberg pass per grid, shared by its six value shapes and fields
    return pointwise_stencils(kernel_grid(npts, uniform), order, stencil)


@pytest.mark.parametrize("npts,uniform,shape,cplx", KERNEL_CASES)
def test_grid_derivative_matches_pointwise_loop(npts, uniform, shape, cplx):
    grid = kernel_grid(npts, uniform)
    values = kernel_values(grid, shape, cplx)
    for order in (1, 2):
        for stencil in (None, 7, 9):
            ref = grid_derivative_pointwise(reference_stencils(npts, uniform, order, stencil),
                                            values)
            assert_close_to_reference(grid_derivative(grid, values, order, stencil), ref)


@pytest.mark.parametrize("npts,uniform,shape,cplx", KERNEL_CASES)
def test_cumulative_integral_matches_pointwise_loop(npts, uniform, shape, cplx):
    grid = kernel_grid(npts, uniform)
    values = kernel_values(grid, shape, cplx)
    assert_close_to_reference(cumulative_integral(grid, values),
                              cumulative_integral_pointwise(grid, values))


@pytest.mark.parametrize("npts,uniform,shape,cplx", KERNEL_CASES)
def test_cumulative_integral_from_the_left_unchanged(npts, uniform, shape, cplx):
    grid = kernel_grid(npts, uniform)
    values = kernel_values(grid, shape, cplx)
    np.testing.assert_array_equal(cumulative_integral(grid, values, 0),
                                  cumulative_integral_from_the_left(grid, values))


@pytest.mark.parametrize("npts,uniform,shape,cplx", KERNEL_CASES)
def test_cumulative_integral_anchored_inside(npts, uniform, shape, cplx):
    # F anchored at an interior node is the left-anchored F less its value there
    grid = kernel_grid(npts, uniform)
    values = kernel_values(grid, shape, cplx)
    left = cumulative_integral(grid, values)
    for i0 in (1, npts // 2, npts - 1):
        got = cumulative_integral(grid, values, i0)
        assert np.all(got[i0] == 0.0)
        assert np.max(np.abs(got - (left - left[i0]))) <= 1e-14 * np.max(np.abs(left))


@pytest.mark.parametrize("uniform", [True, False])
def test_kernels_exact_on_cubics(uniform):
    grid = kernel_grid(65, uniform)
    c = np.array([0.7, -1.1, 0.4, 2.0])
    p = np.polynomial.Polynomial(c)
    assert np.max(np.abs(grid_derivative(grid, p(grid), 1) - p.deriv()(grid))) < 1e-10
    assert np.max(np.abs(grid_derivative(grid, p(grid), 2) - p.deriv(2)(grid))) < 1e-10
    integral = p.integ(lbnd=grid[0])
    assert np.max(np.abs(cumulative_integral(grid, p(grid)) - integral(grid))) < 1e-10
    for i0 in (1, 32, 64):
        integral = p.integ(lbnd=grid[i0])
        assert np.max(np.abs(cumulative_integral(grid, p(grid), i0) - integral(grid))) < 1e-10


# the weight memo: one plan per (grid, order, width) and per quadrature grid

@pytest.fixture
def cold_plans():
    numutil._plans.clear()
    yield numutil._plans
    numutil._plans.clear()


def kernel_calls(grid, values, stack):
    """Every kernel result on grid: the derivatives at orders 1 and 2 with
    stencils None, 7 and 9, both trajectory derivatives and the integral."""
    out = [grid_derivative(grid, values, order, stencil)
           for order in (1, 2) for stencil in (None, 7, 9)]
    out += [trajectory_derivative(grid, stack, order) for order in (1, 2)]
    return out + [cumulative_integral(grid, values)]


@pytest.mark.parametrize("uniform", [True, False])
def test_warm_calls_repeat_cold_bits(uniform, cold_plans, monkeypatch):
    grid = kernel_grid(257, uniform)
    values = kernel_values(grid, (3,), True)
    stack = kernel_values(grid, (2, 3), False)
    kernel_calls(grid, values, stack)
    warm = kernel_calls(grid.copy(), values, stack)
    cold_plans.clear()
    cold = kernel_calls(grid, values, stack)
    # and the bits of weights that are built on every call and never stored
    monkeypatch.setattr(numutil, "_plan", lambda key, build: build())
    unstored = kernel_calls(grid, values, stack)
    for w, c, u in zip(warm, cold, unstored):
        assert np.array_equal(w, c) and np.array_equal(w, u)


def test_plans_are_read_only(cold_plans):
    grid = kernel_grid(65, False)
    kernel_calls(grid, np.sin(grid), np.sin(grid)[:, None, None] * np.ones((1, 2, 2)))
    # orders 1, 2 with widths 5, 6, 7, 9 and the quadrature weights
    assert len(cold_plans) == 7
    for w in cold_plans.values():
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


def test_memo_never_exceeds_its_cap(cold_plans):
    grids = [np.linspace(-1.0, 1.0 + 0.01 * i, 33) for i in range(numutil._PLAN_CAP + 5)]
    for grid in grids:
        grid_derivative(grid, np.sin(grid))
        assert len(cold_plans) <= numutil._PLAN_CAP
    assert len(cold_plans) == numutil._PLAN_CAP
    # the least recently used grids went first
    kept = {key[0] for key in cold_plans}
    assert grids[-1].tobytes() in kept and grids[4].tobytes() not in kept


def test_grids_differing_in_one_node_get_their_own_plans(cold_plans):
    grid = kernel_grid(129, True)
    moved = grid.copy()
    moved[40] += 0.25 * (grid[41] - grid[40])
    values = np.exp(grid)
    first = (grid_derivative(grid, values, 2), cumulative_integral(grid, values))
    second = (grid_derivative(moved, values, 2), cumulative_integral(moved, values))
    assert len(cold_plans) == 4
    cold_plans.clear()
    assert np.array_equal(second[0], grid_derivative(moved, values, 2))
    assert np.array_equal(second[1], cumulative_integral(moved, values))
    assert not np.array_equal(first[0], second[0])
    assert not np.array_equal(first[1], second[1])


def test_order_and_width_get_their_own_plans(cold_plans):
    grid = kernel_grid(129, False)
    values = np.cos(grid)
    keys = []
    for order, stencil in ((1, None), (2, None), (1, 7), (2, 7), (2, 9)):
        got = grid_derivative(grid, values, order, stencil)
        keys.append(next(reversed(cold_plans)))
        assert_close_to_reference(got, grid_derivative_pointwise(
            reference_stencils(129, False, order, stencil), values))
    assert len(set(keys)) == len(cold_plans) == 5


def test_mutating_the_callers_grid_changes_no_later_result(cold_plans):
    grid = kernel_grid(129, False)
    saved = grid.copy()
    values = np.sin(3.0 * saved)
    before = (grid_derivative(grid, values, 1), cumulative_integral(grid, values))
    grid *= 2.0
    after = (grid_derivative(saved, values, 1), cumulative_integral(saved, values))
    assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])
    # and the mutated grid is a new grid with plans of its own
    doubled = grid_derivative(grid, values, 1)
    cold_plans.clear()
    assert np.array_equal(doubled, grid_derivative(grid.copy(), values, 1))
