"""Independent brute-force oracles used to cross-check the library paths.

These deliberately avoid the library's Kronecker-lift/nullspace machinery:
linear systems are assembled entry by entry with explicit loops and ranks are
taken with numpy's default policies, so agreement is a genuine two-route
check.
"""

import numpy as np
import scipy.linalg
from scipy.interpolate import CubicHermiteSpline

from symode.matfun import _HULL_SLACK, kl_sequence_with_tail
from symode.numutil import (_stencil_sum, companion, grid_derivative, rk4, rk4_linear,
                            uniform_grid)


def kl_sequence(upsilon, w):
    """K_0 = W, K_{l+1} = [Y, K_l] for l below the K-span's dimension.

    The terms {K_0..K_{L-1}} span the K-span span{ad_Y^l W}; L <= n^2 - n + 1.
    """
    mats, _, _ = kl_sequence_with_tail(upsilon, w)
    return mats


def _commutator_rows(mats, n):
    """Rows of G -> [G, K] for each K, acting on G's entries in row-major order."""
    rows = []
    for k in mats:
        for i in range(n):
            for j in range(n):
                row = np.zeros(n * n, dtype=complex)
                # ([G, K])_{ij} = sum_a G_{ia} K_{aj} - K_{ia} G_{aj}
                for a in range(n):
                    row[i * n + a] += k[a, j]
                    row[a * n + j] -= k[i, a]
                rows.append(row)
    return rows


def centralizer_dim_bruteforce(mats, n, traceless=False):
    """Dimension of {G : [G, K] = 0 for all K} by entrywise linear solve."""
    rows = _commutator_rows(mats, n)
    if traceless:
        row = np.zeros(n * n, dtype=complex)
        for i in range(n):
            row[i * n + i] = 1.0
        rows.append(row)
    if not rows:
        return n * n
    a = np.vstack(rows)
    return n * n - np.linalg.matrix_rank(a)


def conj_exp_centralizer_dim(upsilon, w):
    """(dim, gap) for the centralizer in sl(n) of V(t) = expm(tY) W expm(-tY).

    V is sampled with scipy's expm at the n^2 + 1 Chebyshev points of [-1, 1],
    each sample scaled to unit norm.  The points are not evenly spaced, so a
    Y with a periodic e^{tY} (e^{hY} = -I, say) cannot fold them all onto a
    few values of V.  The rank takes numpy's default tolerance, and the
    identity, which commutes with every sample, is taken off the gl(n)
    centralizer.  gap is the ratio of the singular values on either side of
    the rank cut (inf when nothing is cut): a small gap marks a draw whose
    answer rounding can flip.
    """
    n = w.shape[0]
    samples = []
    count = n * n + 1
    for t in np.cos(np.pi * (np.arange(count) + 0.5) / count):
        e = scipy.linalg.expm(t * upsilon)
        v = e @ w @ np.linalg.inv(e)
        samples.append(v / np.linalg.norm(v))
    a = np.vstack(_commutator_rows(samples, n))
    s = np.linalg.svd(a, compute_uv=False)
    rank = np.linalg.matrix_rank(a)
    gap = s[rank - 1] / s[rank] if rank < len(s) and s[rank] > 0 else np.inf
    return n * n - rank - 1, gap


def conj_exp_transition(upsilon, w, t, t0):
    """State transition [x; x_t](t0) -> [x; x_t](t) of x_tt = V x with
    V(t) = expm(tY) W expm(-tY), by scipy's expm.

    x = e^{tY} y turns the system into the constant y_tt = -2 Y y_t
    + (W - Y^2) y, and [x; x_t] = P(t) [y; y_t] with
    P = [[e^{tY}, 0], [Y e^{tY}, e^{tY}]].
    """
    n = w.shape[0]
    zero, eye = np.zeros((n, n)), np.eye(n)
    gen = np.block([[zero, eye], [w - upsilon @ upsilon, -2.0 * upsilon]])

    def lift(s):
        e = scipy.linalg.expm(s * upsilon)
        return np.block([[e, zero], [upsilon @ e, e]])

    return lift(t) @ scipy.linalg.expm((t - t0) * gen) @ np.linalg.inv(lift(t0))


def duhamel_particular(upsilon, w, f_coeffs, t, t0):
    """x(t) of x_tt = V x + f(t) with zero data at t0, for V(t) = expm(tY) W
    expm(-tY) and the polynomial f(t) = sum_k f_coeffs[k] t^k, exactly.

    x = e^{tY} y turns the system into y_tt = -2 Y y_t + (W - Y^2) y + u_0,
    where u_j = e^{-tY} f^(j) solve u_j' = -Y u_j + u_{j+1} and u_d' = -Y u_d
    for f of degree d.  The state (y, y_t, u_0, .., u_d) solves a constant
    system, so one scipy expm of its generator is the Duhamel integral
    (Van Loan, IEEE Trans. Automat. Control 23 (1978)).
    """
    n = w.shape[0]
    f_coeffs = np.asarray(f_coeffs)
    blocks = 2 + len(f_coeffs)
    gen = np.zeros((blocks * n, blocks * n), dtype=np.result_type(upsilon, w, f_coeffs))
    eye = np.eye(n)
    gen[:n, n:2 * n] = eye
    gen[n:2 * n, :n] = w - upsilon @ upsilon
    gen[n:2 * n, n:2 * n] = -2.0 * upsilon
    gen[n:2 * n, 2 * n:3 * n] = eye
    for j in range(2, blocks):
        gen[j * n:(j + 1) * n, j * n:(j + 1) * n] = -upsilon
        if j + 1 < blocks:
            gen[j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = eye
    back = scipy.linalg.expm(-t0 * upsilon)
    derivs = [np.polynomial.polynomial.polyval(t0, np.polynomial.polynomial.polyder(
        f_coeffs, j, axis=0)) for j in range(len(f_coeffs))]
    start = np.concatenate([np.zeros(2 * n)] + [back @ d for d in derivs])
    state = scipy.linalg.expm((t - t0) * gen) @ start
    return scipy.linalg.expm(t * upsilon) @ state[:n]


def particular_by_rk4(sys, grid_steps, i0):
    """x of x_tt = A x_t + B x + f with zero data at grid node i0: the forced
    companion system [[M, g], [0, 0]] tabulated on the half-step points and one
    ``rk4_linear`` solve from (x, x_t, 1) = (0, 0, 1), the route integration
    took before it formed particulars by quadrature."""
    a_fun, b_fun, f_fun = sys.coefficients()
    half = uniform_grid(sys.domain[0], sys.domain[1], 2 * grid_steps)
    m = companion(a_fun.evaluate(half), b_fun.evaluate(half), f_fun.evaluate(half))
    y0 = np.zeros(2 * sys.n + 1)
    y0[-1] = 1.0
    return rk4_linear(m, y0, half[::2], i0)[:, :sys.n]


def trajectories_by_sweep(sys, z0, lo, hi, grid_steps, i0=None):
    """The companion states from z0 (a state or states as columns) at node i0,
    by default the middle node, of ``uniform_grid(lo, hi, grid_steps)``: one
    ``rk4_linear`` sweep of z0 itself (with a row of ones under it when the
    table carries f), the per-call solve ``verify_equivalence`` made before
    systems kept a propagator."""
    half = uniform_grid(lo, hi, 2 * grid_steps)
    grid = half[::2]
    m = sys.companion_table(half)
    z0 = np.asarray(z0)
    y0 = np.concatenate([z0, np.ones((m.shape[-1] - len(z0),) + z0.shape[1:])])
    return rk4_linear(m, y0, grid, len(grid) // 2 if i0 is None else i0)[:, :len(z0)]


def verify_residual_by_sweep(src, dst, tr, seed=0, grid_steps=1024):
    """``gauge.verify_equivalence`` with its trajectories from
    ``trajectories_by_sweep``: the same draws of z0, transform and residual."""
    from symode.gauge import N_TRAJ
    from symode.scalars import Field
    rng = np.random.default_rng(seed)
    n = src.n
    lo, hi = max(src.domain[0], tr.T.domain[0]), min(src.domain[1], tr.T.domain[1])
    grid = uniform_grid(lo, hi, grid_steps)
    z0 = np.empty((2 * n, N_TRAJ), dtype=src.field.dtype)
    for k in range(N_TRAJ):
        z0[:, k] = rng.standard_normal(2 * n)
        if src.field is Field.COMPLEX:
            z0[:, k] += 1j * rng.standard_normal(2 * n)
    traj = trajectories_by_sweep(src, z0, lo, hi, grid_steps)
    tvals = tr.T.evaluate(grid)
    pushed = tr.H.evaluate(grid) @ traj[:, :n]
    if tr.h is not None:
        pushed = pushed + tr.h.evaluate(grid)[:, :, None]
    inside = (tvals >= dst.domain[0] - 1e-12) & (tvals <= dst.domain[1] + 1e-12)
    tg, xg = tvals[inside], pushed[inside]
    d1 = grid_derivative(tg, xg, 1, stencil=7)
    d2 = grid_derivative(tg, xg, 2, stencil=9)
    a_fun, b_fun, f_fun = dst.coefficients()
    defect = d2 - (a_fun.evaluate(tg) @ d1 + b_fun.evaluate(tg) @ xg
                   + f_fun.evaluate(tg)[:, :, None])
    scale = np.maximum(1.0, np.max(np.abs(xg), axis=(0, 1)))
    return float(np.max(np.max(np.abs(defect[4:-4]), axis=(0, 1)) / scale))


def cumulative_integral_from_the_left(grid, values):
    """``numutil.cumulative_integral`` as it was before it took an anchor: the
    same batched moment weights, summed from grid[0] alone."""
    grid = np.asarray(grid, dtype=float)
    npts = len(grid)
    width = min(4, npts)
    lo = np.clip(np.arange(npts - 1) - (width // 2 - 1), 0, npts - width)
    idx = lo[:, None] + np.arange(width)
    a, b = grid[:-1], grid[1:]
    xm = 0.5 * (a + b)
    powers = np.ones((npts - 1, width, width))
    powers[:, 1:] = (grid[idx] - xm[:, None])[:, None, :]
    np.multiply.accumulate(powers, axis=1, out=powers)
    k = np.arange(1, width + 1)
    moments = ((b - xm)[:, None] ** k - (a - xm)[:, None] ** k) / k
    w = np.linalg.solve(powers, moments[..., None])[..., 0]
    out = np.zeros_like(values)
    out[1:] = np.cumsum(_stencil_sum(w, values, idx), axis=0)
    return out


def symmetry_dims_least_squares(v_eval, vdot_eval, n, grid, complexify=False):
    """(k, dim_s) from the classifying condition sampled pointwise.

    Unknowns (c0, c1, c2, G entries, row-major); assembled entry by entry,
    nullspace by numpy matrix_rank/svd with default tolerances.
    """
    rows = []
    for t in grid:
        v = v_eval(t)
        vd = vdot_eval(t)
        for i in range(n):
            for j in range(n):
                row = np.zeros(3 + n * n, dtype=complex)
                row[0] = vd[i, j]
                row[1] = t * vd[i, j] + 2.0 * v[i, j]
                row[2] = t * t * vd[i, j] + 4.0 * t * v[i, j]
                # -(G V - V G)_{ij} written out entry by entry
                for a in range(n):
                    row[3 + i * n + a] -= v[a, j]
                    row[3 + a * n + j] += v[i, a]
                rows.append(row)
    a = np.vstack(rows)
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-8 * s[0]))
    null = vh[rank:].conj()
    if null.shape[0] == 0:
        return 0, 0
    taus = null[:, :3]
    sv = np.linalg.svd(taus, compute_uv=False) if taus.size else np.zeros(1)
    k = int(np.sum(sv > 1e-6))
    dim_s = null.shape[0] - k - 1  # identity direction split off
    return k, dim_s


def double_quadrature_solution(grid, rhs_vals, c0, c1):
    """x(t) = c0 + c1 (t - t0) + iterated trapezoid integral of rhs (dense)."""
    out1 = np.zeros_like(rhs_vals)
    for i in range(1, len(grid)):
        out1[i] = out1[i - 1] + 0.5 * (grid[i] - grid[i - 1]) * (rhs_vals[i]
                                                                 + rhs_vals[i - 1])
    out2 = np.zeros_like(rhs_vals)
    for i in range(1, len(grid)):
        out2[i] = out2[i - 1] + 0.5 * (grid[i] - grid[i - 1]) * (out1[i] + out1[i - 1])
    t0 = grid[len(grid) // 2]
    return c0 + np.outer(grid - t0, c1).reshape(out2.shape[:1] + np.shape(c1)) + out2


def rk4_reference(a_eval, b_eval, f_eval, z0, grid):
    """Plain textbook RK4 on the companion system, written independently."""
    n = len(z0) // 2
    z = np.array(z0, dtype=complex)
    out = np.empty((len(grid), 2 * n), dtype=complex)
    out[0] = z

    def rhs(t, zz):
        x, v = zz[:n], zz[n:]
        return np.concatenate([v, a_eval(t) @ v + b_eval(t) @ x + f_eval(t)])

    for i in range(len(grid) - 1):
        t, h = grid[i], grid[i + 1] - grid[i]
        k1 = rhs(t, z)
        k2 = rhs(t + h / 2, z + h / 2 * k1)
        k3 = rhs(t + h / 2, z + h / 2 * k2)
        k4 = rhs(t + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = z
    return out


def rk4_bidirectional(f, y0, grid, i0):
    """Callback RK4 from an interior anchor grid[i0] outwards in both directions.

    The reference for ``numutil.rk4_linear``, which takes the same steps as
    linear maps built from tabulated coefficients.
    """
    grid = np.asarray(grid, dtype=float)
    fwd = rk4(f, y0, grid[i0:])
    bwd = rk4(f, y0, grid[i0::-1])
    out = np.empty((len(grid),) + np.shape(y0), dtype=fwd.dtype)
    out[i0:] = fwd
    out[:i0 + 1] = bwd[::-1]
    return out


def richardson_error(coarse, fine2x):
    """RK4 Richardson estimate: |y_h - y_{h/2}| / 15 at matching points."""
    return float(np.max(np.abs(coarse - fine2x[::2])) / 15.0)


# The grid kernels as they were written before they took whole grids: one
# Fornberg call per grid point and one moment solve per interval.  The
# batched kernels in symode.numutil are checked against these.

def fd_weights_1d(x, x0, m):
    x = np.asarray(x, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more than m nodes for the m-th derivative")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def pointwise_stencils(grid, order=1, stencil=None):
    """Per grid point, the node indices and Fornberg weights of its stencil.

    They depend on the grid, the order and the stencil only, so one list
    serves every value array on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    npts = len(grid)
    width = stencil if stencil is not None else order + 4
    width = min(width, npts)
    if width <= order:
        raise ValueError("grid too coarse for requested derivative order")
    half_len = 0.5 * (grid[-1] - grid[0])
    h_typ = (grid[-1] - grid[0]) / (npts - 1)
    h_opt = (1e-14) ** (1.0 / (order + 4)) * half_len
    stride = max(1, int(round(h_opt / max(h_typ, 1e-300))))
    stride = min(stride, max(1, (npts - 1) // (width - 1)))
    span = (width - 1) * stride
    stencils = []
    for i in range(npts):
        lo = min(max(i - span // 2, 0), npts - 1 - span)
        idx = np.arange(lo, lo + span + 1, stride)
        stencils.append((idx, fd_weights_1d(grid[idx], grid[i], order)))
    return stencils


def grid_derivative_pointwise(stencils, values):
    """The derivative of values from pointwise_stencils of their grid."""
    values = np.asarray(values)
    out = np.empty_like(values)
    for i, (idx, w) in enumerate(stencils):
        out[i] = np.tensordot(w, values[idx], axes=(0, 0))
    return out


def cumulative_integral_pointwise(grid, values):
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    npts = len(grid)
    if npts < 2:
        raise ValueError("need at least two grid points")
    width = min(4, npts)
    out = np.zeros_like(values)
    acc = np.zeros(values.shape[1:], dtype=values.dtype)
    for i in range(npts - 1):
        lo = min(max(i - (width // 2 - 1), 0), npts - width)
        idx = slice(lo, lo + width)
        xs = grid[idx]
        a, b = grid[i], grid[i + 1]
        xm = 0.5 * (a + b)
        xs_c = xs - xm
        powers = np.vander(xs_c, width, increasing=True).T
        moments = np.array([((b - xm) ** (k + 1) - (a - xm) ** (k + 1)) / (k + 1)
                            for k in range(width)])
        w = np.linalg.solve(powers, moments)
        acc = acc + np.tensordot(w, values[idx], axes=(0, 0))
        out[i + 1] = acc
    return out


# The symmetry-layer loops as they were written before they shared one
# evaluation of V and V_t: one evaluation and one residual per basis field,
# one row block per probe, and the K-terms rebuilt by direct recursion.  symode.symalg is checked
# against these bit for bit.

def _ad_kron(k):
    n = k.shape[0]
    eye = np.eye(n, dtype=k.dtype)
    return np.kron(k.T, eye) - np.kron(eye, k)


def verify_symmetry_per_field(v_fun, q, probes=64):
    n = v_fun.n
    lo = max(v_fun.domain[0], q.tau.domain[0])
    hi = min(v_fun.domain[1], q.tau.domain[1])
    ts = np.linspace(lo, hi, probes)
    tau = q.tau.evaluate(ts)
    tau1 = q.tau.derivative(1).evaluate(ts)
    tau3 = q.tau.derivative(3).evaluate(ts)
    v = v_fun.evaluate(ts)
    vt = v_fun.derivative(1).evaluate(ts)
    gamma = q.gamma if q.gamma is not None else np.zeros((n, n))
    comm = np.einsum("ij,tjk->tik", gamma, v) - np.einsum("tij,jk->tik", v, gamma)
    resid = (tau[:, None, None] * vt - comm + 2.0 * tau1[:, None, None] * v
             - 0.5 * tau3[:, None, None] * np.eye(n))
    return float(np.max(np.linalg.norm(resid, axis=(1, 2))))


def verify_against_per_field(ess, v_fun):
    from symode.matfun import ScalarFunction
    from symode.symalg import SymmetryVectorField
    worst = verify_symmetry_per_field(
        v_fun, SymmetryVectorField(tau=ScalarFunction.constant(0.0, v_fun.domain),
                                   gamma=np.eye(ess.n)))
    for g in ess.s_basis.mats:
        q = SymmetryVectorField(tau=ScalarFunction.constant(0.0, v_fun.domain), gamma=g)
        worst = max(worst, verify_symmetry_per_field(v_fun, q))
    for tau, gamma in ess.t_part:
        worst = max(worst, verify_symmetry_per_field(
            v_fun, SymmetryVectorField(tau=tau, gamma=gamma)))
    return worst


def verify_symmetry_homogeneous_per_field(a_fun, b_fun, fields, probes=64):
    n = a_fun.n
    spans = [(max(a_fun.domain[0], q.tau.domain[0]), min(a_fun.domain[1], q.tau.domain[1]))
             for q in fields]
    coeffs = {}
    for span in dict.fromkeys(spans):
        ts = np.linspace(*span, probes)
        coeffs[span] = (ts, a_fun.evaluate(ts), a_fun.derivative(1).evaluate(ts),
                        b_fun.evaluate(ts), b_fun.derivative(1).evaluate(ts))

    def brk(x, y):
        return np.einsum("tij,tjk->tik", x, y) - np.einsum("tij,tjk->tik", y, x)

    out = []
    for q, span in zip(fields, spans):
        ts, a, at, b, bt = coeffs[span]
        eta_fun = q.eta_function(n, span)
        tau = q.tau.evaluate(ts)
        tau1 = q.tau.derivative(1).evaluate(ts)
        tau2 = q.tau.derivative(2).evaluate(ts)
        eta = eta_fun.evaluate(ts)
        eta1 = eta_fun.derivative(1).evaluate(ts)
        eta2 = eta_fun.derivative(2).evaluate(ts)
        r1 = (tau[:, None, None] * at - brk(eta, a) + tau1[:, None, None] * a
              - 2.0 * eta1 + tau2[:, None, None] * np.eye(n))
        r2 = (tau[:, None, None] * bt - brk(eta, b) + 2.0 * tau1[:, None, None] * b
              + np.einsum("tij,tjk->tik", a, eta1) - eta2)
        out.append(float(max(np.max(np.linalg.norm(r1, axis=(1, 2))),
                             np.max(np.linalg.norm(r2, axis=(1, 2))))))
    return out


def solve_symmetries_sampled_per_probe(v_fun, cfg, fld=None, probes=64):
    from symode.symalg import _build_algebra, _nullspace_by_spectral_gap
    n = v_fun.n
    fld = fld or v_fun.field
    ts = np.linspace(v_fun.domain[0], v_fun.domain[1], probes)
    v = v_fun.evaluate(ts)
    vt = v_fun.derivative(1).evaluate(ts)
    rows = []
    for i, t in enumerate(ts):
        scale = max(1.0, float(np.max(np.abs(v[i]))))
        block = np.zeros((n * n, 3 + n * n), dtype=v.dtype)
        block[:, 0] = vt[i].reshape(-1, order="F")
        block[:, 1] = (t * vt[i] + 2.0 * v[i]).reshape(-1, order="F")
        block[:, 2] = (t * t * vt[i] + 4.0 * t * v[i]).reshape(-1, order="F")
        block[:, 3:] = -_ad_kron(v[i])
        rows.append(block / scale)
    a = np.vstack(rows)
    null, gap = _nullspace_by_spectral_gap(a)
    note = "sampled classifying-condition solve"
    ess = _build_algebra(null, n, fld, v_fun.domain, cfg, note, gap=gap)
    if np.isfinite(gap) and gap < 10.0:
        ess.notes.append(f"ill-separated singular values (gap {gap:.2f} < 10); "
                         "dimension inconclusive")
        ess.confidence_gap = gap
    return ess


def k_extended(upsilon, w0, length):
    """K_0..K_{length} by direct recursion (no truncation)."""
    out = [w0]
    cur = w0
    for _ in range(length + 1):
        cur = upsilon @ cur - cur @ upsilon
        out.append(cur)
    return out


def sampled_draw(rng, points, value_shape, complex_field=False, uniform=True):
    """(grid, values): ``points`` nodes on [-1, 1], evenly spaced or sorted
    uniform draws between the two ends, and standard-normal values of
    ``value_shape`` there."""
    if uniform:
        grid = np.linspace(-1.0, 1.0, points)
    else:
        grid = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, points - 2)), [1.0]])
    values = rng.standard_normal((points,) + value_shape)
    if complex_field:
        values = values + 1j * rng.standard_normal((points,) + value_shape)
    return grid, values


def hermite_probes(grid, rng, inside=200):
    """Evaluation points: every node, the right end once more, ``inside``
    uniform draws between the ends, and a point in the domain slack beyond
    each end."""
    lo, hi = grid[0], grid[-1]
    slack = 0.5 * _HULL_SLACK * (1.0 + hi - lo)
    return np.concatenate([grid, [hi], rng.uniform(lo, hi, inside), [lo - slack, hi + slack]])


def hermite_reference(grid, values, ts):
    """scipy's CubicHermiteSpline through (grid, values) with grid_derivative's
    slopes, at ts; beyond either end it extrapolates the end cubic."""
    slopes = grid_derivative(grid, values, 1)
    return CubicHermiteSpline(grid, values, slopes, axis=0)(ts)


# The polynomial solver's rows as they were before it posed the classifying
# condition pointwise: one block per power of t, matched coefficient by
# coefficient.  symode.symalg.solve_symmetries_traceless_poly is checked
# against this on (k, dim_s).

def _solver_rows_poly(coeffs, n, trace_rows=None):
    """Rows of the linear system in (c0, c1, c2, vec Gamma) for polynomial V.

    Coefficient of t^j in tau V_t + 2 tau_t V - [Gamma, V]:
        c0 (j+1) M_{j+1} + c1 (j+2) M_j + c2 (j+3) M_{j-1} - [Gamma, M_j].
    """
    d = len(coeffs) - 1
    dtype = np.result_type(np.float64, coeffs)
    rows = []

    def m_at(j):
        if 0 <= j <= d:
            return coeffs[j]
        return np.zeros((n, n), dtype=dtype)

    for j in range(d + 2):
        block = np.zeros((n * n, 3 + n * n), dtype=dtype)
        block[:, 0] = (j + 1) * m_at(j + 1).reshape(-1, order="F")
        block[:, 1] = (j + 2) * m_at(j).reshape(-1, order="F")
        block[:, 2] = (j + 3) * m_at(j - 1).reshape(-1, order="F")
        block[:, 3:] = -_ad_kron(m_at(j))
        rows.append(block)
    if trace_rows is not None:
        # tau u_t + 2 tau_t u = 0 as polynomial identity (u = trace part / n)
        u = trace_rows
        du = len(u) - 1

        def u_at(j):
            return u[j] if 0 <= j <= du else 0.0

        for j in range(du + 2):
            row = np.zeros((1, 3 + n * n), dtype=dtype)
            row[0, 0] = (j + 1) * u_at(j + 1)
            row[0, 1] = (j + 2) * u_at(j)
            row[0, 2] = (j + 3) * u_at(j - 1)
            rows.append(row)
    return np.vstack(rows)


def solve_symmetries_poly_coefficients(v_fun, cfg, fld=None, trace_part=None):
    """The coefficient-matching solve: each coefficient scaled by the largest
    coefficient norm, u by its largest coefficient, and the nullspace cut at
    rank_tol relative."""
    from symode.linalg import nullspace
    from symode.symalg import _build_algebra
    coeffs = v_fun.coeffs / max(np.linalg.norm(c) for c in v_fun.coeffs)
    if trace_part is not None:
        u_scale = max(max(abs(complex(u)) for u in trace_part), 1e-300)
        trace_part = [u / u_scale for u in trace_part]
    rows = _solver_rows_poly(coeffs, v_fun.n, trace_rows=trace_part)
    return _build_algebra(nullspace(rows, cfg.rank_tol), v_fun.n, fld or v_fun.field,
                          v_fun.domain, cfg, "exact polynomial coefficient matching")


# Coefficient-layer forms that read back or rebuild what symode now keeps:
# the spline at every point (nodes included), the allocating RK4 stage
# formula, the complex conjugation of the hat/check split and the
# criterion matrix built from A and B whatever A is.  The node-exact,
# in-place and real-arithmetic forms are checked against these.

def hermite_every_point(grid, values, ts):
    """The Hermite spline with grid_derivative's slopes at every t, nodes
    included: each interval's cubic in the power basis about its left node,
    by Horner, and the end cubics beyond either end."""
    grid = np.asarray(grid, dtype=float)
    slopes = grid_derivative(grid, values, 1)
    dx = np.diff(grid).reshape((-1,) + (1,) * (values.ndim - 1))
    secant = np.diff(values, axis=0) / dx
    excess = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
    c3, c2, c1, c0 = excess / dx, (secant - slopes[:-1]) / dx - excess, slopes[:-1], values[:-1]
    t = np.asarray(ts, dtype=float)
    flat = t.reshape(-1)
    i = np.clip(np.searchsorted(grid, flat, side="right") - 1, 0, len(grid) - 2)
    s = (flat - grid[i]).reshape((-1,) + (1,) * (c0.ndim - 1))
    out = c3.take(i, axis=0)
    for c in (c2, c1, c0):
        out *= s
        out += c.take(i, axis=0)
    return out.reshape(t.shape + c0.shape[1:])


def rk4_step_maps_allocating(a):
    """numutil._step_maps with a new array for every operation of the stages."""
    a0, a1, a2 = a[:-1:2], a[1::2], a[2::2]
    s2nd = a1 + 0.5 * (a1 @ a0)
    s3rd = a1 + 0.5 * (a1 @ s2nd)
    s4th = a2 + a2 @ s3rd
    return (a0 + 2.0 * s2nd + 2.0 * s3rd + s4th) / 6.0 + np.eye(a.shape[-1])


def augmented(m, g, y0):
    """y' = M y + g as the linear system of ``numutil.rk4_linear``:
    (y, s)' = [[M, G], [0, 0]] (y, s) with s constant.  g holds vectors, as
    (K, d) or (K, d, 1), added to every column of y0 (s = 1 in each column), or
    matrices shaped like y0, one forcing per column (s = E).  Returns the table
    and the initial data; the first len(y0) rows of the solution are y."""
    g = g[..., None] if g.ndim == 2 else g
    d, c = m.shape[-1], g.shape[-1]
    s0 = np.ones((1,) + np.shape(y0)[1:]) if c == 1 else np.eye(c)
    out = np.zeros(m.shape[:1] + (d + c, d + c), dtype=np.result_type(m, g))
    out[:, :d, :d] = m
    out[:, :d, d:] = g
    return out, np.concatenate([y0, s0], axis=0)


def hat_check_in_complex(upsilon, lam, cfg):
    """linalg.hat_check_split with the conjugation always in complex128 and the
    imaginary part of a real lam's hat dropped at rounding level."""
    from symode.linalg import _real_if_rounding, eig_clustered
    clusters = eig_clustered(lam, cfg)
    s = np.hstack([c.basis for c in clusters])
    sinv = np.linalg.inv(s)
    u = sinv @ upsilon.astype(np.complex128) @ s
    offs = np.concatenate([[0], np.cumsum([c.multiplicity for c in clusters])])
    hat_b = np.zeros_like(u)
    for i, ci in enumerate(clusters):
        for j, cj in enumerate(clusters):
            if abs(ci.value - (cj.value + 1.0)) <= cfg.eig_cluster_tol * (1.0 + abs(ci.value)):
                hat_b[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                    u[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
    hat = s @ hat_b @ sinv
    hat = hat if np.iscomplexobj(lam) else _real_if_rounding(hat, upsilon, cfg)
    return hat, upsilon - hat


def criterion_without_the_a_zero_case(sys):
    """B - A_t / 2 + A^2 / 4 of a barL or L system, A = 0 included: from the
    coefficients when A and B are polynomials, else sampled on 257 points;
    V itself for the V-classes."""
    from symode.matfun import (POLYNOMIAL, MatrixFunction, poly_der, poly_lincomb,
                               poly_mul)
    from symode.numutil import uniform_grid
    if sys.V is not None:
        return sys.V
    a_fun, b_fun = sys.A, sys.B
    if a_fun.kind == b_fun.kind == POLYNOMIAL:
        a = a_fun.coeffs
        return MatrixFunction.polynomial(poly_lincomb(
            [(1.0, b_fun.coeffs), (-0.5, poly_der(a)), (0.25, poly_mul(a, a))]), sys.domain)
    grid = uniform_grid(*sys.domain, 256)
    a = a_fun.evaluate(grid)
    vals = (b_fun.evaluate(grid) - 0.5 * a_fun.derivative(1).evaluate(grid)
            + 0.25 * np.einsum("tij,tjk->tik", a, a))
    return MatrixFunction.sampled(grid, vals)
