"""Grid numerics: finite-difference weights, RK4, cumulative quadrature.

These are the fixed low-order building blocks the rest of the package relies
on: classic RK4 with a uniform step, Fornberg weights for derivatives on
(possibly nonuniform) grids, and a locally-cubic cumulative integral, all
fourth-order accurate so their errors sit below the package residual targets.
The derivative and quadrature kernels evaluate whole grids: one batched
Fornberg recurrence over the stencils of every point, one batched moment
solve over every interval, and one stacked contraction with the samples.
The weights depend only on the grid, the derivative order and the stencil
width, so each distinct grid's weights are built once and kept in a small
memo keyed by the grid's bytes (the last ``_PLAN_CAP`` are kept, read-only);
a warm call returns the same bits as a cold one.

Every ODE the package solves is linear, y' = M(t) y + g(t), and goes through
``rk4_linear``: the coefficients are evaluated once, as arrays, on the grid
and its step midpoints.  An RK4 step of a linear system is an affine map
y -> P y + q, so the maps of all steps are built as batched array products
and composed blockwise, about 2 sqrt(N) stacked matmuls per sweep of N
steps, with no Python right-hand side.  ``rk4`` is the general callback
form, y' = f(t, y).
"""

from __future__ import annotations

import math

import numpy as np

# weights of the most recently used grids, keyed by (grid bytes, order,
# width) for derivatives and (grid bytes, width) for quadrature; insertion
# order is recency order.  A race between threads can at most build one twice.
_PLAN_CAP = 16
_plans: dict = {}


def _plan(key, build) -> np.ndarray:
    """The weights stored under key, made read-only; build() makes them on a miss.

    The array build returns is stored as it is: ``_stencil_sum`` rounds
    differently for another memory layout of the same weights.
    """
    w = _plans.pop(key, None)
    if w is None:
        w = build()
        w.flags.writeable = False
    _plans[key] = w
    if len(_plans) > _PLAN_CAP:
        _plans.pop(next(iter(_plans)), None)
    return w


def fd_weights(x: np.ndarray, x0, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from nodes x.

    Returns w with f^(m)(x0) ~= sum_i w[i] * f(x[i]).  x may stack stencils
    along leading axes, x[..., i], with one x0 each (x0 of shape x.shape[:-1]);
    the recurrence then runs over all of them at once, and every row equals
    the 1-D call on that stencil bitwise.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if m >= n:
        raise ValueError("need more than m nodes for the m-th derivative")
    dx0 = x - np.asarray(x0, dtype=float)[..., None]
    c = np.zeros(x.shape + (m + 1,))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = dx0[..., 0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = dx0[..., i]
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c[..., m]


def grid_derivative(grid: np.ndarray, values: np.ndarray, order: int = 1,
                    stencil: int | None = None) -> np.ndarray:
    """m-th derivative of sampled values along axis 0 via sliding Fornberg stencils.

    The default stencil width order+4 keeps the truncation error at O(h^4)
    on uniform grids (O(h^3) on nonuniform ones).  On dense grids the stencil
    nodes are strided apart so the h^4 truncation error and the eps/h^m
    roundoff amplification stay balanced.  The weights of every point come
    from one batched ``fd_weights`` call, made once per distinct grid, order
    and width.
    """
    idx, w = _stencil(np.asarray(grid, dtype=float), order, stencil)
    return _stencil_sum(w, np.asarray(values), idx)


def trajectory_derivative(grid: np.ndarray, trajectories: np.ndarray,
                          order: int = 1) -> np.ndarray:
    """``grid_derivative`` of each trajectory of an (m, n, k) stack, with the
    weights built once.  Each trajectory gets its own stencil product, so
    each column equals the (m, n) call bitwise; one product over all k n
    columns would round them differently."""
    idx, w = _stencil(np.asarray(grid, dtype=float), order, None)
    trajectories = np.asarray(trajectories)
    return np.stack([_stencil_sum(w, trajectories[:, :, j], idx)
                     for j in range(trajectories.shape[2])], axis=2)


def _stencil(grid: np.ndarray, order: int, stencil: int | None):
    """Stencil table idx and Fornberg weights w of ``grid_derivative``."""
    npts = len(grid)
    width = stencil if stencil is not None else order + 4
    width = min(width, npts)
    if width <= order:
        raise ValueError("grid too coarse for requested derivative order")
    # optimal effective spacing for m-th derivative: h* ~ noise^(1/(m+4)) x scale,
    # with a conservative 1e-14 noise floor for solver-produced samples
    half_len = 0.5 * (grid[-1] - grid[0])
    h_typ = (grid[-1] - grid[0]) / (npts - 1)
    h_opt = (1e-14) ** (1.0 / (order + 4)) * half_len
    stride = max(1, int(round(h_opt / max(h_typ, 1e-300))))
    stride = min(stride, max(1, (npts - 1) // (width - 1)))
    span = (width - 1) * stride
    lo = np.clip(np.arange(npts) - span // 2, 0, npts - 1 - span)
    idx = lo[:, None] + stride * np.arange(width)
    # fd_weights is looked up at build time, so a rebinding of the module
    # name also sees every cold build.  Its column is kept alone, as a view
    # into a buffer of two columns: a view of fd_weights' result would keep
    # the whole Fornberg table alive, and a contiguous copy rounds
    # differently in ``_stencil_sum``
    return idx, _plan((grid.tobytes(), order, width), lambda: np.repeat(
        fd_weights(grid[idx], grid, order)[..., None], 2, axis=-1)[..., 0])


def cumulative_integral(grid: np.ndarray, values: np.ndarray, i0: int = 0) -> np.ndarray:
    """Cumulative integral along axis 0, exact for cubics on each interval.

    Each interval [t_i, t_{i+1}] integrates the degree-3 interpolant through
    the four nearest nodes (Fornberg-style moment weights), giving a globally
    fourth-order antiderivative with F(grid[i0]) = 0: the interval integrals
    are summed outward from node i0 in both directions.  The moment systems
    of all intervals are solved in one batch.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    npts = len(grid)
    if npts < 2:
        raise ValueError("need at least two grid points")
    width = min(4, npts)
    lo = np.clip(np.arange(npts - 1) - (width // 2 - 1), 0, npts - width)
    idx = lo[:, None] + np.arange(width)

    def moment_weights():
        # weights s.t. sum_j w_j f(x_j) = int_{t_i}^{t_{i+1}} p(x) dx for the
        # interpolating polynomial p: solve the Vandermonde moment systems
        # powers[i, k, j] = (x_j - xm_i)^k, built by repeated products like np.vander
        a, b = grid[:-1], grid[1:]
        xm = 0.5 * (a + b)
        powers = np.ones((npts - 1, width, width))
        powers[:, 1:] = (grid[idx] - xm[:, None])[:, None, :]
        np.multiply.accumulate(powers, axis=1, out=powers)
        k = np.arange(1, width + 1)
        moments = ((b - xm)[:, None] ** k - (a - xm)[:, None] ** k) / k
        return np.linalg.solve(powers, moments[..., None])[..., 0]

    w = _plan((grid.tobytes(), width), moment_weights)
    pieces = _stencil_sum(w, values, idx)
    out = np.zeros_like(values)
    out[i0 + 1:] = np.cumsum(pieces[i0:], axis=0)
    out[:i0] = -np.cumsum(pieces[:i0][::-1], axis=0)[::-1]
    return out


def _stencil_sum(w: np.ndarray, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_j w[p, j] * values[idx[p, j]] for every row p of the stencil table idx.

    One stacked matmul: each row is the vector-matrix product a per-point
    ``np.tensordot`` computes, so both round alike.  ``np.einsum`` sums in
    another order, which moves second derivatives by up to 6e-11 relative
    on grids of 257 to 2049 points, where the weights grow like 1/h^2.
    The rounding also depends on w's memory layout: the strided weights
    ``fd_weights`` returns and a contiguous copy of them give different bits.
    """
    rows = values[idx].reshape(idx.shape + (-1,))
    return (w[:, None, :] @ rows)[:, 0].reshape(idx.shape[:1] + values.shape[1:])


def rk4(f, y0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Classic fixed-step RK4 for y' = f(t, y) on the given grid.

    y may be any ndarray shape (vector or matrix unknowns).  Returns the
    trajectory with leading axis matching grid.
    """
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0)
    out = np.empty((len(grid),) + y.shape, dtype=np.result_type(y.dtype, np.float64))
    out[0] = y
    for i in range(len(grid) - 1):
        t = grid[i]
        h = grid[i + 1] - t
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def rk4_linear(m: np.ndarray, y0: np.ndarray, grid: np.ndarray, i0: int = 0,
               g: np.ndarray | None = None) -> np.ndarray:
    """Classic RK4 for the linear system y' = M(t) y + g(t) on a uniform grid.

    m (and g, when given) hold M (and g) tabulated on the 2N+1 points
    ``uniform_grid(grid[0], grid[-1], 2N)``: the N+1 nodes of ``grid`` with
    the step midpoints, where RK4 evaluates, in between.  y0 is a vector or a
    matrix whose columns are propagated together; g holds vectors, added to
    every column, or matrices shaped like y0.  Integrates from grid[i0] in
    both directions.

    An RK4 step of a linear system is an affine map y -> P y + q.  The maps
    of every step on each side of i0 are built at once by ``_step_maps`` and
    composed by ``_sweep`` in blocks, about 2 sqrt(N) stacked matmuls per
    direction in place of one per step.
    """
    steps = len(grid) - 1
    if len(m) != 2 * steps + 1 or (g is not None and len(g) != 2 * steps + 1):
        raise ValueError("coefficients must be tabulated on the 2N+1 half-step points")
    h = (grid[-1] - grid[0]) / steps
    y0 = np.asarray(y0, dtype=np.result_type(y0, m, 0.0 if g is None else g))
    out = np.empty((steps + 1,) + y0.shape, dtype=y0.dtype)
    out[i0] = y0
    # forward from node i0 over m[2 i0:], backward over m[2 i0::-1]
    for step, window, dest in ((h, slice(2 * i0, None), out[i0 + 1:]),
                               (-h, slice(2 * i0, None, -1), out[:i0][::-1])):
        if len(dest):
            p, q = _step_maps(step * m[window], None if g is None else step * g[window])
            dest[...] = _sweep(p, q, y0).reshape(dest.shape)
    return out


def _sweep(p: np.ndarray, q: np.ndarray | None, y0: np.ndarray) -> np.ndarray:
    """States y_1..y_K of y_{k+1} = P[k] y_k + q[k] from y_0 = y0, as columns.

    The K maps are cut into blocks of L = ceil(sqrt(K)) steps.  The prefix
    maps y -> Phi y + r inside every block grow by one stacked matmul per
    in-block index, over all blocks at once; a sequential pass over the
    block-end maps gives each block's entry state, and one stacked
    Phi @ entry + r yields every node: about 2 sqrt(K) Python-level calls
    instead of K, for about twice the flops.  q holds column vectors
    (K, d, c) or is None; the result is (K, d, c), c = 1 for a vector y0.
    """
    steps, d = p.shape[:2]
    width = math.isqrt(steps - 1) + 1
    blocks = -(-steps // width)

    def blocked(x, dtype):
        # zero maps pad the last block; the nodes they give are dropped
        out = np.zeros((blocks * width,) + x.shape[1:], dtype=dtype)
        out[:steps] = x
        return out.reshape((blocks, width) + x.shape[1:])

    pb = blocked(p, p.dtype)
    phi = pb.copy()
    for j in range(1, width):
        np.matmul(pb[:, j], phi[:, j - 1], out=phi[:, j])
    r = None
    if q is not None:
        r = blocked(q, np.result_type(p, q))
        for j in range(1, width):
            r[:, j] += pb[:, j] @ r[:, j - 1]
    y = y0.reshape(d, -1)
    entry = np.empty((blocks,) + y.shape, dtype=y.dtype)
    entry[0] = y
    for b in range(1, blocks):
        np.matmul(phi[b - 1, -1], entry[b - 1], out=entry[b])
        if r is not None:
            entry[b] += r[b - 1, -1]
    out = phi @ entry[:, None]
    if r is not None:
        out += r
    return out.reshape((blocks * width,) + y.shape)[:steps]


def _step_maps(a: np.ndarray, b: np.ndarray | None):
    """(P, q) with P[k] y + q[k] the RK4 step k of y' = a y + b on the index grid.

    a (and b) hold h M (and h g), signed with the direction of the sweep, at
    the 2K+1 start, mid and end points of K unit steps.  With A0, A1, A2 the
    coefficients at the start, midpoint and end of a step, the stages are
    P1 = A0, P2 = A1 + A1 P1/2, P3 = A1 + A1 P2/2 and P4 = A2 + A2 P3, and
    P = E + (P1 + 2 P2 + 2 P3 + P4)/6; q follows the same recurrence from b.
    Each product is one stacked matmul over all K steps, and the stages are
    formed in place in three stacked buffers, each operation in the order
    of the formula above, so the rounding is that of the formula.  q holds
    the per-step vectors as columns, (K, d, c), and is None when b is.
    """
    a0, a1, a2 = a[:-1:2], a[1::2], a[2::2]

    def weighted_stages(s0, s1, s2):
        stage = np.matmul(a1, s0)  # P2 = A1 + A1 P1/2
        stage *= 0.5
        stage += s1
        acc = 2.0 * stage
        acc += s0
        nxt = np.matmul(a1, stage)  # P3 = A1 + A1 P2/2
        nxt *= 0.5
        nxt += s1
        np.multiply(nxt, 2.0, out=stage)
        acc += stage
        np.matmul(a2, nxt, out=stage)  # P4 = A2 + A2 P3
        stage += s2
        acc += stage
        acc /= 6.0
        return acc

    p = weighted_stages(a0, a1, a2)
    p += np.eye(a.shape[-1])
    if b is None:
        return p, None
    # per-step vectors as columns, so one matmul serves both shapes of g
    b = b[..., None] if b.ndim == 2 else b
    return p, weighted_stages(b[:-1:2], b[1::2], b[2::2])


def companion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[0, E], [B, A]], the first-order form z' = M z of x_tt = A x_t + B x.

    z = (x, x_t); a and b are n x n matrices or stacks (..., n, n) of them.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-2] + (2 * n, 2 * n),
                   dtype=np.result_type(a, b, float))
    out[..., :n, n:] = np.eye(n)
    out[..., n:, :n] = b
    out[..., n:, n:] = a
    return out


def uniform_grid(lo: float, hi: float, steps: int = 1024) -> np.ndarray:
    """Uniform grid with the given number of steps (steps+1 points)."""
    if not hi > lo:
        raise ValueError("empty domain")
    return np.linspace(lo, hi, steps + 1)
