"""Symmetry-driven order reduction and integration.

Singular systems reduce to the free particle by the combined A-gauge and
trace-gauge (at most 2n quadratures for the inhomogeneity).  A single
symmetry with nonzero t-component straightens to a constant-coefficient
system (one quadrature for the time map).  Two symmetries with independent
t-components recombine to [X, Y] = X and straighten by X with the time map
T = tau_y/tau_x (no quadrature); the Jordan structure of
zeta = eta_y - (tau_y/tau_x) eta_x, along whose eigenspaces X must split the
system, is reported and bounds the quadrature count by n + p - r when the
elementary divisors are distinct.

Both procedures straighten one field through one path: ``_straightening_start``
(chi dropped, every field verified on the homogeneous part against the scale
1 + max|B| + max|A|), then ``_straighten``, which reads the straightened
coefficients at the middle node t0 (``_coefficients_at_t0``):

    A~ = tau A - 2 eta + tau_t E,
    B~ = tau^2 B + (A~ + eta) eta - tau eta_t,

the push-forward with T_t = 1/tau and H_t, H_tt read off tau H_t = -H eta,
where H(t0) = E.  A verified field makes them constant, so t0 is the one
point where they are read.  The constant system's companion exponential,
evaluated at T(t), is pulled back through H^-1, which solves
(H^-1)_t = (eta/tau) H^-1; H itself is never formed or inverted.  For
degree-0 tau and eta of one field, H^-1 = exp((t - t0) eta/tau) in closed
form.  Every other fundamental solve is a linear ODE whose coefficients are
tabulated once on the grid and its step midpoints and handed to
``numutil.rk4_linear``, which composes them as blocked linear RK4 maps.

Both procedures take forced input x_tt = A x_t + B x + f.  The particular
solution comes from the fundamental system X by variation of parameters,
x_p = X c with [X; X_t] c_t = [0; f]: n quadratures anchored at t0, where X
is anchored, so x_p has zero data there.  They add n to ``quadratures``;
no particular is made when max |f| on the grid is at most ``residual_tol``.

The field sets the Lie algebra and the dtype of the results; the data sets
the arithmetic.  Every solve runs in the dtype of its coefficients and
symmetry data, so real data integrates in float64 in either field, and a
procedure casts positions, velocities and particular to the field's dtype
once, where it returns them (``SolutionSet.in_field``).  A straightening
divides its field by the phase of tau(t0) and needs the time map of what is
left to be real (``_real_time_map``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .gauge import (BARL, SystemDescriptor, half_a_fundamental, schwarzian_time_map,
                    singular_class_test)
from .matfun import (POLYNOMIAL, MatrixFunction, ScalarFunction, poly_der, poly_lincomb,
                     poly_mul, poly_strip, poly_wronskian)
from .numutil import (companion, cumulative_integral, rk4_linear, trajectory_derivative,
                      uniform_grid)
from .scalars import Field
from .symalg import SymmetryVectorField, bracket_normal_partner, verify_symmetry_homogeneous


class IntegrationError(RuntimeError):
    pass


@dataclass
class IntegrationPlan:
    procedure: str  # Singular | OneSymmetry | TwoSymmetry | ConstantDirect
    hinv_values: np.ndarray | None = None  # H^-1, the map solutions are pulled back through
    t_map: np.ndarray | None = None
    abar: np.ndarray | None = None  # a straightening's constant A~ and B~
    bbar: np.ndarray | None = None
    lam: np.ndarray | None = None  # a pair's reported Jordan data: zeta = modal lam modal^-1
    modal: np.ndarray | None = None
    block_sizes: list = dc_field(default_factory=list)
    eligible_distinct_divisors: bool | None = None
    quadrature_bound: int | None = None
    notes: list = dc_field(default_factory=list)


@dataclass
class SolutionSet:
    """Fundamental solutions on a grid, plus an optional particular solution,
    and the plan of the procedure that produced them."""

    grid: np.ndarray
    positions: np.ndarray  # (m, n, 2n)
    velocities: np.ndarray  # (m, n, 2n)
    particular: np.ndarray | None
    quadratures: int
    plan: IntegrationPlan
    t0: float | None = None

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    def state_matrix(self, i: int) -> np.ndarray:
        """Stacked (2n x 2n) position/velocity state at grid index i."""
        return np.vstack([self.positions[i], self.velocities[i]])

    def wronskian(self, i: int) -> complex:
        return np.linalg.det(self.state_matrix(i))

    def min_abs_wronskian(self) -> float:
        return float(min(abs(self.wronskian(i)) for i in range(0, len(self.grid),
                                                               max(1, len(self.grid) // 32))))

    def in_field(self, fld: Field) -> SolutionSet:
        """This set with positions, velocities and particular in the field's
        dtype.  A real field takes the real part of complex arrays whose
        imaginary part is rounding, at most 1e-7 max(1, max |x|)."""
        def cast(x):
            if x is None or x.dtype == fld.dtype:
                return x
            if fld is Field.REAL:
                imag = float(np.max(np.abs(x.imag)))
                if imag > 1e-7 * max(1.0, float(np.max(np.abs(x)))):
                    raise IntegrationError(f"solutions of a real-field system have "
                                           f"imaginary parts up to {imag:.3g}: complex "
                                           "coefficients or symmetry data")
                x = x.real
            return x.astype(fld.dtype)

        self.positions, self.velocities = cast(self.positions), cast(self.velocities)
        self.particular = cast(self.particular)
        return self


def residual(sys: SystemDescriptor, sol, grid) -> float:
    """Max normalized defect of x_tt = A x_t + B x + f along trajectories.

    sol is either an (m, n) array of values on the grid or an (m, n, k)
    stack of k trajectories.  Each trajectory's defect is divided by its own
    max(1, max |x|); the largest is returned.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 8:
        raise IntegrationError("residual grid too coarse (< 8 points)")
    vals = np.asarray(sol)
    stack = vals if vals.ndim == 3 else vals[:, :, None]
    a_fun, b_fun, f_fun = sys.coefficients()
    d1 = trajectory_derivative(grid, stack, 1)
    d2 = trajectory_derivative(grid, stack, 2)
    a = a_fun.evaluate(grid)
    b = b_fun.evaluate(grid)
    f = f_fun.evaluate(grid)
    defect = d2 - (np.einsum("tij,tjk->tik", a, d1) + np.einsum("tij,tjk->tik", b, stack)
                   + f[:, :, None])
    peak = np.max(np.abs(defect[3:-3]), axis=(0, 1))
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(0, 1)))
    return float(np.max(peak / scale))


def bracket(q1: SymmetryVectorField, q2: SymmetryVectorField, n: int,
            domain) -> SymmetryVectorField:
    """Lie bracket of tau d_t + (eta x) d_x fields; chi components are dropped.

    tau3 = tau1 tau2_t - tau2 tau1_t and eta3 = tau1 eta2_t - tau2 eta1_t
    + [eta2, eta1], the orientation that realizes [P, D] = P when
    [Lam, Y] = Y.
    """
    e1 = q1.eta_function(n, domain)
    e2 = q2.eta_function(n, domain)
    if q1.tau.kind == q2.tau.kind == e1.kind == e2.kind == POLYNOMIAL:
        c1, c2 = q1.tau.coeffs, q2.tau.coeffs
        m1, m2 = e1.coeffs, e2.coeffs
        eta3 = poly_strip(poly_lincomb([
            (1.0, poly_mul(c1, poly_der(m2))), (-1.0, poly_mul(c2, poly_der(m1))),
            (1.0, poly_mul(m2, m1)), (-1.0, poly_mul(m1, m2))]))
        return SymmetryVectorField(
            tau=ScalarFunction.polynomial(poly_wronskian(c1, c2), domain),
            eta=MatrixFunction.polynomial(eta3, domain))
    grid = uniform_grid(domain[0], domain[1], 512)
    t1, dt1 = q1.tau.jet(grid, (0, 1))
    t2, dt2 = q2.tau.jet(grid, (0, 1))
    n1, dn1 = e1.jet(grid, (0, 1))
    n2, dn2 = e2.jet(grid, (0, 1))
    tau3 = t1 * dt2 - t2 * dt1
    eta3 = (t1[:, None, None] * dn2 - t2[:, None, None] * dn1
            + np.einsum("tij,tjk->tik", n2, n1) - np.einsum("tij,tjk->tik", n1, n2))
    return SymmetryVectorField(tau=ScalarFunction.sampled(grid, tau3),
                               eta=MatrixFunction.sampled(grid, eta3))


def solve_constant(a_mat: np.ndarray, b_mat: np.ndarray, domain,
                   grid_steps: int = 1024) -> SolutionSet:
    """State transition of x_tt = A x_t + B x via the companion exponential."""
    a_mat = np.asarray(a_mat)
    b_mat = np.asarray(b_mat)
    n = a_mat.shape[0]
    lo, hi = float(domain[0]), float(domain[1])
    t0 = 0.5 * (lo + hi)
    ef = linalg.exp_factory(companion(a_mat, b_mat))
    grid = uniform_grid(lo, hi, grid_steps)
    states = ef(grid - t0)
    return SolutionSet(grid=grid, positions=states[:, :n, :],
                       velocities=states[:, n:, :], particular=None, quadratures=0,
                       plan=IntegrationPlan(procedure="ConstantDirect"), t0=t0)


def integrate_singular(sys: SystemDescriptor, grid_steps: int = 1024) -> SolutionSet:
    """Integrate a singular-class system by reduction to the free particle.

    M solves y_t + (1/2) A^T y = 0; phi1, phi2 solve phi_tt = U phi with
    U = tr(criterion)/n; the transform (T = phi1/phi2, H = T_t^(1/2) M^T)
    maps the system to x~_t~t~ = f~, integrated by two quadrature layers.
    M^T is ``gauge.half_a_fundamental``'s H, so
    (H^-1)_t = (1/2) A H^-1 - (T_tt / 2 T_t) H^-1.
    """
    if not singular_class_test(sys):
        raise IntegrationError("system is not in the singular class")
    cfg = sys.cfg
    n = sys.n
    lo, hi = sys.domain
    half = uniform_grid(lo, hi, 2 * grid_steps)
    grid = half[::2]
    a_fun, _, f_fun = sys.coefficients()
    mmat_t, _, route, a_grid = half_a_fundamental(a_fun, grid)
    u = np.trace(sys.criterion.evaluate(half), axis1=1, axis2=2) / n
    u = linalg._real_if_rounding(u, np.max(np.abs(u)), cfg)
    if np.iscomplexobj(u):
        raise IntegrationError(f"U = tr(criterion) / n has an imaginary part up to "
                               f"{np.max(np.abs(u.imag)):.3g} on the domain; the "
                               "reduction to the free particle needs a real time map")
    run = schwarzian_time_map(u, grid)
    if run is None:
        raise IntegrationError("no zero-free subinterval of the requested minimum "
                               "length for the time reparametrization")
    sel, tvals, t1, t2 = run
    sub = grid[sel]
    hvals = np.sqrt(t1)[:, None, None] * mmat_t[sel]
    hinv = np.linalg.inv(hvals)
    fvals = f_fun.evaluate(sub)
    homogeneous = not fvals.size or float(np.max(np.abs(fvals))) <= cfg.residual_tol
    ft_vals = np.einsum("tij,tj->ti", hvals, fvals) / t1[:, None] ** 2
    # two quadrature layers on the reparametrized time grid
    g1 = cumulative_integral(tvals, ft_vals)
    gvals = cumulative_integral(tvals, g1)
    a_sub = a_fun.evaluate(sub) if a_grid is None else a_grid[sel]
    hinv_dot = 0.5 * (a_sub @ hinv) - (0.5 * t2 / t1)[:, None, None] * hinv
    # x~ columns: e_j and T e_j; pull back through x = H^-1 x~(T)
    tc = tvals[:, None, None]
    positions = np.concatenate([hinv, hinv * tc], axis=2)
    velocities = np.concatenate([hinv_dot, hinv_dot * tc + hinv * t1[:, None, None]],
                                axis=2)
    particular = None
    quad = 0
    if not homogeneous:
        particular = np.einsum("tij,tj->ti", hinv, gvals)
        quad = 2 * n
    plan = IntegrationPlan(procedure="Singular", hinv_values=hinv, t_map=tvals,
                           quadrature_bound=2 * n,
                           notes=["reduced to the free particle by the combined "
                                  "A-gauge and trace gauge", route])
    return SolutionSet(grid=sub, positions=positions, velocities=velocities,
                       particular=particular, quadratures=quad, plan=plan).in_field(sys.field)


def _straightening_start(sys: SystemDescriptor, fields, grid_steps: int):
    """The fields without chi, the half-step grid, the grid, A and B at its
    middle node t0, and f on the grid, for a system whose homogeneous part
    every field verifies against the scale 1 + max |B| + max |A|
    (``max_norm``).  f is None unless the system is forced: barL with
    max |f| on the grid above ``residual_tol``."""
    a_fun, b_fun, f_fun = sys.coefficients()
    fields = [q.drop_chi() for q in fields]
    half = uniform_grid(sys.domain[0], sys.domain[1], 2 * grid_steps)
    grid = half[::2]
    scale = 1.0 + b_fun.max_norm() + a_fun.max_norm()
    for i, res in enumerate(verify_symmetry_homogeneous(a_fun, b_fun, fields), 1):
        if res > 100 * sys.cfg.residual_tol * scale:
            raise IntegrationError(f"symmetry {i} not verified (residual {res:.3g})")
    i0 = len(grid) // 2
    t0 = grid[i0:i0 + 1]
    fvals = f_fun.evaluate(grid) if sys.cls == BARL else None
    if fvals is not None and float(np.max(np.abs(fvals))) <= sys.cfg.residual_tol:
        fvals = None
    return fields, half, grid, a_fun.evaluate(t0)[0], b_fun.evaluate(t0)[0], fvals


def integrate_one_symmetry(sys: SystemDescriptor, q: SymmetryVectorField,
                           grid_steps: int = 1024) -> SolutionSet:
    """Straighten one symmetry with nonzero t-component and solve.

    Steps: drop chi; divide the field by the phase of tau(t0)
    (``_phase``); T from T_t = 1/tau (the single quadrature); ``_straighten``,
    with H^-1 = exp((t - t0) eta/tau) in closed form for degree-0 tau and eta.
    """
    (q,), half, grid, a0, b0, fvals = _straightening_start(sys, [q], grid_steps)
    cfg = sys.cfg
    n = sys.n
    i0 = len(grid) // 2
    tau_half = q.tau.evaluate(half)
    if np.min(np.abs(tau_half[::2])) <= 1e-12:
        raise IntegrationError("tau vanishes on the domain")
    phase = _phase(tau_half[2 * i0])
    tau_half = _real_time_map(tau_half / phase, cfg)
    tau = tau_half[::2]
    eta_fun = q.eta_function(n, sys.domain)
    hinv, route = None, _HINV_SOLVE
    if q.tau.degree() == 0 and eta_fun.degree() == 0:
        hinv = linalg.exp_factory(eta_fun.value / phase / tau[i0])(grid - grid[i0])
        route = "closed-form H^-1 = exp((t-t0) eta/tau)"
    tmap = cumulative_integral(grid, 1.0 / tau, i0)
    t0 = grid[i0:i0 + 1]
    hinv, abar, bbar, positions, velocities, particular = _straighten(
        a0, b0, tau_half, eta_fun.evaluate(half) / phase,
        _real_time_map(q.tau.derivative(1).evaluate(t0) / phase, cfg)[0],
        eta_fun.derivative(1).evaluate(t0)[0] / phase, tmap, grid, fvals, hinv)
    plan = IntegrationPlan(procedure="OneSymmetry", hinv_values=hinv, t_map=tmap,
                           abar=abar, bbar=bbar, notes=[route])
    return _solution(sys, grid, positions, velocities, particular, 1, plan)


def _phase(tau0):
    """tau0 / |tau0|, 1.0 for a real tau0 > 0.  A constant multiple c Q of a
    symmetry Q is a symmetry too, so a straightening may divide its field by
    the phase of tau at t0: that leaves a real time map whenever the field is
    a real one times c."""
    return tau0 / abs(tau0)


def _real_time_map(x, cfg):
    """tau, tau_t or the time map of a straightening as a real array: an
    imaginary part at rounding level is dropped (``linalg._real_if_rounding``
    against max |x|), a larger one refused."""
    x = linalg._real_if_rounding(x, np.max(np.abs(x)), cfg)
    if np.iscomplexobj(x):
        raise IntegrationError("straightening needs a real time map: tau / tau(t0) "
                               "is not real on the domain")
    return x


def _coefficients_at_t0(a0, b0, tau0, taut0, eta0, etat0):
    """A~ and B~ (module docstring) from A, B, tau, tau_t, eta and eta_t at
    t0: ``gauge.pushforward`` for T_t = 1/tau and H(t0) = E, with H_t and
    H_tt taken from tau H_t = -H eta."""
    abar = tau0 * a0 - 2.0 * eta0 + taut0 * np.eye(len(a0))
    return abar, tau0 ** 2 * b0 + (abar + eta0) @ eta0 - tau0 * etat0


_HINV_SOLVE = "fundamental solve of (H^-1)_t = (eta/tau) H^-1"


def _straighten(a0, b0, tau_half, eta_half, taut0, etat0, tmap, grid, fvals=None,
                hinv=None):
    """H^-1, A~, B~, and the positions and velocities of x(t) = H^-1(t) x~(T(t))
    on the grid, for the field with tau and eta on the half-step points of
    ``grid``, tau_t and eta_t at its middle node t0, and its time map T
    (T_t = 1/tau); a0 and b0 are A and B at t0.

    H^-1 solves (H^-1)_t = (eta/tau) H^-1 with H^-1(t0) = E, by one RK4 solve
    unless its closed form hinv is given.  x~ are the columns of the
    companion exponential S of x~'' = A~ x~' + B~ x~, anchored at the middle
    of T's range, so the velocities are (eta x + H^-1 x~') / tau.

    With f on the grid (fvals), the last result is the particular x_p = X c,
    else None.  [X; X_t] = L S with L = [[H^-1, 0], [eta H^-1, H^-1] / tau],
    so c_t = [X; X_t]^-1 [0; f] = S^-1 [0; tau H f], with S^-1 the
    exponential at -T (``exp_factory``'s pair) and one solve with H^-1.  A
    solve with [X; X_t] itself, whose condition number reaches 1e17 on the
    scaled test draws at a = 4, loses up to 2e-3 of the particular there.
    """
    n = len(a0)
    i0 = len(grid) // 2
    tau, eta = tau_half[::2], eta_half[::2]
    if hinv is None:
        hinv = rk4_linear(eta_half / tau_half[:, None, None], np.eye(n), grid, i0)
    abar, bbar = _coefficients_at_t0(a0, b0, tau[i0], taut0, eta[i0], etat0)
    ef = linalg.exp_factory(companion(abar, bbar))
    shift = tmap - 0.5 * (float(np.min(tmap)) + float(np.max(tmap)))
    states, inverse = (ef(shift), None) if fvals is None else ef.pair(shift)
    positions = hinv @ states[:, :n, :]
    velocities = (eta @ positions + hinv @ states[:, n:, :]) / tau[:, None, None]
    if inverse is None:
        return hinv, abar, bbar, positions, velocities, None
    hf = np.linalg.solve(hinv, fvals[..., None]) * tau[:, None, None]
    c = cumulative_integral(grid, (inverse[:, :, n:] @ hf)[..., 0], i0)
    return hinv, abar, bbar, positions, velocities, np.einsum("tij,tj->ti", positions, c)


def integrate_two_symmetries(sys: SystemDescriptor, q1: SymmetryVectorField,
                             q2: SymmetryVectorField,
                             grid_steps: int = 1024) -> SolutionSet:
    """Integrate using two symmetries with independent t-components.

    The pair is recombined to X and Y with [X, Y] = X, and X is divided by
    the phase of tau_x(t0).  zeta = eta_y - (tau_y/tau_x) eta_x has a constant
    Jordan form Lam = modal^-1 zeta modal, reported with the modal matrix; X
    must be block-diagonal along Lam's eigenspaces, read on the grid as
    modal^-1 eta_x modal.  ``_straighten`` then straightens by X, as for one
    field, with T = tau_y/tau_x (no quadrature for the time map).
    """
    (q1, q2), half, grid, a0, b0, fvals = _straightening_start(sys, [q1, q2],
                                                                grid_steps)
    cfg = sys.cfg
    n = sys.n
    i0 = len(grid) // 2
    t0 = grid[i0:i0 + 1]
    # tau and eta of both fields on the half-step grid and the t-derivatives
    # of tau on the grid, each evaluated once; the recombined X and Y below
    # are combinations of these arrays
    tau1_half, tau2_half = q1.tau.evaluate(half), q2.tau.evaluate(half)
    dt1, dt2 = q1.tau.derivative(1).evaluate(grid), q2.tau.derivative(1).evaluate(grid)
    tau1, tau2 = tau1_half[::2], tau2_half[::2]
    wr = tau1 * dt2 - tau2 * dt1
    tau_scale = max(float(np.max(np.abs(tau1))), float(np.max(np.abs(tau2))), 1e-30)
    if float(np.max(np.abs(wr))) <= 1e-9 * tau_scale:
        raise IntegrationError("tau-components dependent")
    eta1_fun = q1.eta_function(n, sys.domain)
    eta2_fun = q2.eta_function(n, sys.domain)
    eta1_half, eta2_half = eta1_fun.evaluate(half), eta2_fun.evaluate(half)
    # recombine to the bracket-normal form [X, Y] = X
    q3 = bracket(q1, q2, n, sys.domain)
    probes = np.linspace(sys.domain[0], sys.domain[1], 33)

    def column(q, eta_fun):
        return np.concatenate([q.tau.evaluate(probes), eta_fun.evaluate(probes).reshape(-1)])

    coef = linalg.span_solve(np.stack([column(q1, eta1_fun), column(q2, eta2_fun)], axis=1),
                             column(q3, q3.eta_function(n, sys.domain)), 1e-6)
    if coef is None:
        raise IntegrationError("bracket does not close into the span: "
                               "not a 2-dimensional algebra")
    aco, bco = coef.tolist()
    if max(abs(aco), abs(bco)) < 1e-12:
        raise IntegrationError("abelian pair with independent t-components "
                               "cannot occur; numerical failure")
    cco, dco = bracket_normal_partner(aco, bco)
    tau_x_half = aco * tau1_half + bco * tau2_half
    if np.min(np.abs(tau_x_half[::2])) <= 1e-12:
        raise IntegrationError("recombined tau1 vanishes inside the domain; "
                               "restrict the domain")
    # X divided by the phase of tau_x(t0) still has [X, Y] = X
    phase = _phase(tau_x_half[2 * i0])
    tau_x_half = _real_time_map(tau_x_half / phase, cfg)
    tau_x = tau_x_half[::2]
    tau_y = cco * tau1 + dco * tau2
    tmap = _real_time_map(tau_y / tau_x, cfg)
    # zeta and its constant Jordan data from the midpoint probe
    ex_half = (aco * eta1_half + bco * eta2_half) / phase
    ex = ex_half[::2]
    ey = cco * eta1_half[::2] + dco * eta2_half[::2]
    zeta = ey - (tau_y / tau_x)[:, None, None] * ex
    charpolys = np.stack([np.poly(zeta[i]) for i in range(0, len(grid),
                                                          max(1, len(grid) // 16))])
    if float(np.max(np.abs(charpolys - charpolys[0]))) > \
            1e4 * cfg.residual_tol * (1.0 + float(np.max(np.abs(charpolys)))):
        raise IntegrationError("similarity invariants of zeta drift across the "
                               "grid; numerical failure")
    # zeta with a nonreal pair of eigenvalues has a complex modal matrix;
    # only this check and the plan read it
    lam, modal, chains = linalg.jordan_form(zeta[i0], cfg)
    eta_check = np.linalg.inv(modal) @ ex @ modal
    sizes = [sum(lengths) for lengths in chains]
    owner = np.repeat(np.arange(len(sizes)), sizes)  # the block of each row
    offmax = float(np.max(np.abs(np.where(owner[:, None] == owner, 0.0, eta_check))))
    if offmax > 1e4 * cfg.residual_tol * (1.0 + float(np.max(np.abs(eta_check)))):
        raise IntegrationError(f"conjugated eta1 is not block-diagonal along the "
                               f"eigenspaces of zeta (off-block max {offmax:.3g}): "
                               "the pair does not split the system into blocks; "
                               "integrate with a single field whose tau has no zero "
                               "on the domain")
    deta1, deta2 = (f.derivative(1).evaluate(t0)[0] for f in (eta1_fun, eta2_fun))
    hinv, abar, bbar, positions, velocities, particular = _straighten(
        a0, b0, tau_x_half, ex_half,
        _real_time_map((aco * dt1[i0:i0 + 1] + bco * dt2[i0:i0 + 1]) / phase, cfg)[0],
        (aco * deta1 + bco * deta2) / phase, tmap, grid, fvals)
    # quadrature accounting from the Jordan structure of Lam: its clusters are
    # distinct eigenvalues, so divisors repeat iff a cluster repeats a length
    quad = sum(sum(lengths) + len(lengths) - 1 for lengths in chains)
    eligible = all(len(set(lengths)) == len(lengths) for lengths in chains)
    r = len(chains)
    p_total = sum(len(lengths) for lengths in chains)
    plan = IntegrationPlan(procedure="TwoSymmetry", hinv_values=hinv, t_map=tmap,
                           abar=abar, bbar=bbar, lam=lam, modal=modal, block_sizes=sizes,
                           eligible_distinct_divisors=eligible,
                           quadrature_bound=n + p_total - r,
                           notes=[_HINV_SOLVE, f"Lam eigenvalues {np.round(np.diag(lam), 6)}",
                                  f"blocks {sizes}"])
    return _solution(sys, grid, positions, velocities, particular, quad, plan)


def _solution(sys: SystemDescriptor, grid, positions, velocities, particular,
              quadratures: int, plan: IntegrationPlan) -> SolutionSet:
    """A straightening's solution set, cast once to the field's dtype; a
    particular solution adds the n quadratures that formed it."""
    if particular is not None:
        quadratures += sys.n
        plan.notes.append(f"particular solution by variation of parameters: "
                          f"{sys.n} quadratures from t0")
    return SolutionSet(grid=grid, positions=positions, velocities=velocities,
                       particular=particular, quadratures=quadratures,
                       plan=plan).in_field(sys.field)


def integrate_auto(sys: SystemDescriptor, symmetries=(),
                   grid_steps: int = 1024):
    """Dispatch: singular path, else one or two verified symmetries.

    Every procedure takes forced (barL) input itself: the singular one by its
    two quadrature layers, a straightening by variation of parameters from
    the fundamental system it builds, recorded as n quadratures, with the
    particular's data zero at the middle node t0.
    """
    if singular_class_test(sys):
        return integrate_singular(sys, grid_steps)
    usable = [q for q in symmetries
              if abs(np.max(np.abs(q.tau.evaluate(
                  np.linspace(*sys.domain, 17))))) > 1e-9]
    if len(usable) >= 2:
        return integrate_two_symmetries(sys, usable[0], usable[1], grid_steps)
    if len(usable) == 1:
        return integrate_one_symmetry(sys, usable[0], grid_steps)
    raise IntegrationError(
        "regular systems need known symmetries with nonzero t-components")
