"""Equivalence transformations and the normalization chain f=0 -> A=0 -> tr V=0.

Systems live in one of four classes: barL (full x_tt = A x_t + B x + f),
L (homogeneous, f=0), Lprime (A=0, coefficient matrix V), Ldoubleprime
(traceless V).  Point transformations are triples (T, H, h) acting by
t~ = T(t), x~ = H(t) x + h(t), with the induced push-forward on coefficients

    A~ = T_t^-2 (T_t H A + 2 T_t H_t - T_tt H) H^-1,
    B~ = T_t^-3 (T_t H B - T_t^2 A~ H_t + T_t H_tt - T_tt H_t) H^-1,
    f~ = T_t^-3 (T_t H f + T_t h_tt - T_tt h_t - T_t^2 A~ h_t - T_t^3 B~ h),

all composed with the inverse time map.  For V-class systems the transforms
specialize to H = T_t^(1/2) C with constant invertible C and

    V~ = T_t^-2 C V C^-1 + ((2 T_t T_ttt - 3 T_tt^2) / (4 T_t^4)) E.

A time map is real (refused when complex at ``EquivalenceTransform``'s
build), has T_t > 0 at the probes (``validate``) and a strictly increasing
grid image (``_require_increasing``), so no reader takes its real part or
re-sorts its image.

``reduce`` is the one implementation of the chain, which ``classify`` and
``symode gauge`` run; it returns the composite source-to-final transform.
A system has n <= MAX_DIM = 8; H passes one ``linalg.conditioning`` cut per probe.

The singular subclass (orbit of the free particle) is detected by
B - (1/2) A_t + (1/4) A^2 being proportional to E with a time-dependent
factor; the +1/4 A^2 sign is the convention adopted throughout (re-derived
from H_t = -(1/2) H A).  That criterion matrix is built once per system and
kept on the descriptor (``SystemDescriptor.criterion``).

The linear ODEs here (the particular solution, H_t = -(1/2) H A, the
Schwarzian pair and the trajectories of verify_equivalence) are tabulated
once on the grid and its step midpoints and solved by
``numutil.rk4_linear``, which builds every RK4 step as an affine map and
composes the maps blockwise in about 2 sqrt(N) stacked matmuls per sweep,
several initial states at a time as matrix columns.  Each solve runs in the
dtype of its coefficients, not of the system's field: the field sets the Lie
algebra, the data sets the arithmetic, so real coefficients of a complex-field
system integrate in real arithmetic.  Only ``verify_equivalence`` reads the
field's dtype, to draw complex initial data for a complex field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import linalg
from .matfun import (POLYNOMIAL, SAMPLED, MatrixFunction, RepresentationError,
                     ScalarFunction, VectorFunction, poly_compose_affine, poly_der,
                     poly_lincomb, poly_mul)
from .numutil import companion, grid_derivative, rk4_linear, uniform_grid
from .scalars import Field, ToleranceConfig

BARL = "barL"
HOMOGENEOUS = "L"
LPRIME = "Lprime"
LDOUBLEPRIME = "Ldoubleprime"

MAX_DIM = 8  # largest system size n; the linalg kernels take any matrix size
PROBES = 64
MIN_LENGTH_FRACTION = 0.125  # shortest zero-free run of the time map, share of the grid
N_TRAJ = 3  # trajectories pushed through a transform by ``verify_equivalence``


class GaugeError(RuntimeError):
    pass


@dataclass
class SystemDescriptor:
    """A system in one of the gauge classes, with its tolerance policy."""

    cls: str
    n: int
    field: Field
    domain: tuple
    A: MatrixFunction | None = None
    B: MatrixFunction | None = None
    f: VectorFunction | None = None
    V: MatrixFunction | None = None
    cfg: ToleranceConfig = dc_field(default_factory=ToleranceConfig)

    def __post_init__(self):
        self.domain = (float(self.domain[0]), float(self.domain[1]))
        if self.n > MAX_DIM:
            raise RepresentationError(f"system size n = {self.n} exceeds the maximum {MAX_DIM}")
        for name in ("A", "B", "f", "V"):
            fun = getattr(self, name)
            if fun is None:
                continue
            if fun.n != self.n:
                raise RepresentationError(f"coefficient {name} has size {fun.n}, "
                                          f"but the system has n = {self.n}")
            if not fun.covers(self.domain):
                raise RepresentationError(
                    f"coefficient {name} is defined on [{fun.domain[0]:g}, {fun.domain[1]:g}], "
                    f"which does not cover the domain [{self.domain[0]:g}, {self.domain[1]:g}]")
        if self.cls in (BARL, HOMOGENEOUS):
            if self.A is None or self.B is None:
                raise GaugeError(f"class {self.cls} needs A and B")
        elif self.cls in (LPRIME, LDOUBLEPRIME):
            if self.V is None:
                raise GaugeError(f"class {self.cls} needs V")
            if self.cls == LDOUBLEPRIME and not self.V.is_traceless(self.cfg.residual_tol):
                raise GaugeError("Ldoubleprime requires traceless V on the probe grid")
        else:
            raise GaugeError(f"unknown class {self.cls}")

    @classmethod
    def bar_l(cls, A, B, f, field=Field.REAL, domain=None, cfg=None):
        domain = domain or A.domain
        return cls(BARL, A.n, field, domain, A=A, B=B, f=f, cfg=cfg or ToleranceConfig())

    @classmethod
    def homogeneous(cls, A, B, field=Field.REAL, domain=None, cfg=None):
        domain = domain or A.domain
        return cls(HOMOGENEOUS, A.n, field, domain, A=A, B=B, cfg=cfg or ToleranceConfig())

    @classmethod
    def lprime(cls, V, field=Field.REAL, domain=None, cfg=None):
        domain = domain or V.domain
        return cls(LPRIME, V.n, field, domain, V=V, cfg=cfg or ToleranceConfig())

    @classmethod
    def ldoubleprime(cls, V, field=Field.REAL, domain=None, cfg=None):
        domain = domain or V.domain
        return cls(LDOUBLEPRIME, V.n, field, domain, V=V, cfg=cfg or ToleranceConfig())

    def coefficients(self):
        """(A, B, f) evaluators normalized across classes (V-classes: A=0, B=V)."""
        zero_v = VectorFunction.zero(self.n, self.domain)
        if self.cls in (LPRIME, LDOUBLEPRIME):
            return MatrixFunction.zero(self.n, self.domain), self.V, zero_v
        return self.A, self.B, (self.f if self.f is not None else zero_v)

    def companion_table(self, ts):
        """M and g of z' = M z + g on the state z = (x, x_t), tabulated at ts."""
        a_fun, b_fun, f_fun = self.coefficients()
        fv = f_fun.evaluate(ts)
        return (companion(a_fun.evaluate(ts), b_fun.evaluate(ts)),
                np.concatenate([np.zeros_like(fv), fv], axis=1))

    # memos of the descriptor's own data: a race between threads can at most
    # compute one twice
    @cached_property
    def criterion(self) -> MatrixFunction:
        """``criterion_matrix(self)``, built on first use and then kept."""
        return criterion_matrix(self)

    @cached_property
    def singular(self) -> bool:
        """True iff the criterion matrix is proportional to E (time-dependent factor)."""
        ts = np.linspace(self.domain[0], self.domain[1], PROBES)
        vals = self.criterion.evaluate(ts)
        tol = self.cfg.residual_tol * max(1.0, float(np.max(np.abs(vals))))
        # off-diagonal entries and the spread of the diagonal
        return bool(np.max(np.abs(vals - vals[:, :1, :1] * np.eye(self.n))) < tol)


@dataclass
class EquivalenceTransform:
    """Point transformation (T, H, h): t~ = T(t), x~ = H(t) x + h(t).

    T must be real, with positive derivative on the domain; the square-root
    branch for the V-class specialization is the principal one, with
    orientation-reversing T handled by pre-composing t -> -t.
    """

    T: ScalarFunction
    H: MatrixFunction
    h: VectorFunction | None = None
    branch_note: str = "principal branch; T_t > 0 required"

    def __post_init__(self):
        if self.T.field is Field.COMPLEX:
            raise GaugeError("the time map T must be real; this T has complex data")

    @classmethod
    def identity(cls, n, domain=(-1.0, 1.0)):
        return cls(T=ScalarFunction.polynomial([0.0, 1.0], domain),
                   H=MatrixFunction.constant(np.eye(n), domain),
                   h=None)

    def is_identity(self, tol=1e-12):
        if self.T.degree() != 1 or np.max(np.abs(self.T.coeffs - [0.0, 1.0])) > tol:
            return False
        if self.H.degree() != 0 or np.max(np.abs(self.H.value - np.eye(self.H.n))) > tol:
            return False
        return self.h is None or self.h.max_norm() <= tol

    def is_affine(self):
        return self.T.degree() in (0, 1)

    def affine_coeffs(self):
        b = float(self.T.coeffs[0])
        a = float(self.T.coeffs[1]) if self.T.degree() >= 1 else 0.0
        return a, b

    def validate(self, cfg: ToleranceConfig):
        """T_t > 0 and H invertible at the probes; returns T_t and H there."""
        ts = np.linspace(*self.T.domain, PROBES)
        t1 = self.T.derivative(1).evaluate(ts)
        if np.any(t1 <= 0.0):
            raise GaugeError("T_t must stay positive on the domain "
                             "(pre-compose with t -> -t for orientation reversal)")
        hvals = self.H.evaluate(ts)
        _require_invertible(hvals, ts, cfg, "on the probe grid")
        return t1, hvals


def _require_invertible(hvals, ts, cfg: ToleranceConfig, where: str) -> None:
    """GaugeError naming the worst probe unless ``linalg.conditioning`` passes H(t_j)."""
    c, j, ratio = linalg.conditioning(hvals, cfg.rank_tol)
    if c.rank < len(hvals):
        raise GaugeError(f"H loses invertibility {where}: sigma_min / sigma_max = {ratio:.3g} "
                         f"<= rank_tol = {cfg.rank_tol:.3g} at the probe t = {ts[j]:.6g}")


@dataclass
class TransformedSystem:
    system: SystemDescriptor
    transform: EquivalenceTransform
    provenance: str = ""


def criterion_matrix(sys: SystemDescriptor) -> MatrixFunction:
    """B - (1/2) A_t + (1/4) A^2 for barL/L; V itself for the V-classes, and
    B itself when A is the zero polynomial (the forced V-class system
    x_tt = V x + f), in whatever representation B has."""
    if sys.cls in (LPRIME, LDOUBLEPRIME):
        return sys.V
    a_fun, b_fun = sys.A, sys.B
    if a_fun.kind == POLYNOMIAL and not np.any(a_fun.coeffs):
        return b_fun
    if a_fun.kind == b_fun.kind == POLYNOMIAL:
        a = a_fun.coeffs
        coeffs = poly_lincomb([(1.0, b_fun.coeffs), (-0.5, poly_der(a)),
                               (0.25, poly_mul(a, a))])
        return MatrixFunction.polynomial(coeffs, sys.domain)
    grid = uniform_grid(*sys.domain, 256)
    avals = a_fun.evaluate(grid)
    at = a_fun.derivative(1).evaluate(grid)
    bvals = b_fun.evaluate(grid)
    vals = bvals - 0.5 * at + 0.25 * np.einsum("tij,tjk->tik", avals, avals)
    return MatrixFunction.sampled(grid, vals)


def singular_class_test(sys: SystemDescriptor) -> bool:
    """True iff the criterion matrix is proportional to E (time-dependent factor)."""
    return sys.singular


def pushforward(t1, t2, h, hinv, ht, htt, a, b):
    """A~ and B~ of the push-forward (module docstring) at each grid point.

    t1, t2 hold T_t, T_tt; h, hinv, ht, htt hold H, H^-1, H_t, H_tt; a, b hold
    A, B, all at the same points t, so the results still have to be composed
    with T^-1.  Only ``_push_full`` calls it: symmetry straightening reads
    H_t and H_tt off the ODE H satisfies, at one point
    (``integrate._coefficients_at_t0``).
    """
    t1c = t1[:, None, None]
    t2c = t2[:, None, None]
    anew = (t1c * (h @ a) + 2.0 * t1c * ht - t2c * h) @ hinv / t1c ** 2
    bnew = (t1c * (h @ b) - t1c ** 2 * (anew @ ht) + t1c * htt - t2c * ht) @ hinv / t1c ** 3
    return anew, bnew


def _push_grid(sys, tr, grid_steps, orders):
    """The grid of a non-affine push within the system's domain (a sampled
    T's own grid) and T's jets of ``orders``, from 0, on it."""
    lo, hi = sys.domain
    grid = tr.T.grid if tr.T.kind == SAMPLED else uniform_grid(lo, hi, grid_steps)
    grid = grid[(grid >= lo - 1e-12) & (grid <= hi + 1e-12)]
    jets = tr.T.jet(grid, orders)
    _require_increasing(jets[0], grid)
    return grid, jets


def _require_increasing(tvals, grid):
    """GaugeError naming the first grid step where T fails to increase."""
    j = np.flatnonzero(np.diff(tvals) <= 0.0)
    if len(j):
        raise GaugeError(f"the time map T does not strictly increase on the grid: "
                         f"T({grid[j[0] + 1]:.6g}) <= T({grid[j[0]]:.6g})")


def _push_full(sys, tr, grid_steps=1024):
    """General push-forward on a grid; returns sampled coefficient functions."""
    grid, (tgrid, t1, t2) = _push_grid(sys, tr, grid_steps, (0, 1, 2))
    a_fun, b_fun, f_fun = sys.coefficients()
    hmat, ht, htt = tr.H.jet(grid, (0, 1, 2))
    anew, bnew = pushforward(t1, t2, hmat, np.linalg.inv(hmat), ht, htt,
                             a_fun.evaluate(grid), b_fun.evaluate(grid))
    fv = f_fun.evaluate(grid)
    hv, hv1, hv2 = (tr.h.jet(grid, (0, 1, 2)) if tr.h is not None
                    else np.zeros((3, len(grid), sys.n)))
    fnew = (t1[:, None] * np.einsum("tij,tj->ti", hmat, fv)
            + t1[:, None] * hv2 - t2[:, None] * hv1
            - t1[:, None] ** 2 * np.einsum("tij,tj->ti", anew, hv1)
            - t1[:, None] ** 3 * np.einsum("tij,tj->ti", bnew, hv))
    fnew = fnew / t1[:, None] ** 3
    return (tgrid,
            MatrixFunction.sampled(tgrid, anew, note="pushed coefficients"),
            MatrixFunction.sampled(tgrid, bnew, note="pushed coefficients"),
            VectorFunction.sampled(tgrid, fnew, note="pushed coefficients"))


def _extract_constant_c(t1, hvals, cfg: ToleranceConfig):
    """For V-class transforms: C = T_t^-1/2 H is constant at ``validate``'s probes."""
    cvals = hvals / np.sqrt(t1)[:, None, None]
    c = cvals.mean(axis=0)
    dev = np.max(np.abs(cvals - c))
    if dev > cfg.residual_tol * (1.0 + np.max(np.abs(c))):
        raise GaugeError("transform is outside the V-class family (H != T_t^1/2 C)")
    return c


def apply_equivalence(sys: SystemDescriptor, tr: EquivalenceTransform,
                      grid_steps: int = 1024) -> SystemDescriptor:
    """Push sys forward through tr; representation stays closed when it can.

    Affine T with degree-0 H (and h) keeps polynomial and
    conjugated-exponential coefficients closed; anything else degrades to
    sampled output with a provenance note.
    """
    cfg = sys.cfg
    probe_t1, probe_h = tr.validate(cfg)
    if sys.cls in (LPRIME, LDOUBLEPRIME):
        if tr.h is not None and tr.h.max_norm() > cfg.residual_tol:
            raise GaugeError("V-class transforms carry no vector shift")
        c = _extract_constant_c(probe_t1, probe_h, cfg)
        if tr.is_affine():
            a, b = tr.affine_coeffs()
            vt = sys.V.conjugate(c).scale(1.0 / a ** 2).compose_affine(1.0 / a, -b / a)
            return SystemDescriptor(sys.cls, sys.n, sys.field, vt.domain, V=vt, cfg=cfg)
        grid, (tvals, t1, t2, t3) = _push_grid(sys, tr, grid_steps, (0, 1, 2, 3))
        sch = t3 / t1 - 1.5 * (t2 / t1) ** 2
        v = sys.V.evaluate(grid)
        cv = c @ v @ np.linalg.inv(c)
        vt_vals = (cv + 0.5 * sch[:, None, None] * np.eye(sys.n)) / t1[:, None, None] ** 2
        vt = MatrixFunction.sampled(tvals, vt_vals,
                                    note="pushed through non-affine reparametrization")
        new_cls = LDOUBLEPRIME if vt.is_traceless(cfg.residual_tol) else LPRIME
        return SystemDescriptor(new_cls, sys.n, sys.field, vt.domain, V=vt, cfg=cfg)
    # barL / L input
    closed = (tr.is_affine() and tr.H.degree() == 0
              and (tr.h is None or tr.h.degree() == 0))
    if closed:
        a, b = tr.affine_coeffs()
        hconst = tr.H.value
        anew = sys.A.conjugate(hconst).scale(1.0 / a).compose_affine(1.0 / a, -b / a)
        bnew = sys.B.conjugate(hconst).scale(1.0 / a ** 2).compose_affine(1.0 / a, -b / a)
        f_src = sys.f if (sys.cls == BARL and sys.f is not None) else None
        hshift = tr.h.value if tr.h is not None else None
        fnew = None
        if f_src is not None or hshift is not None:
            fnew = _closed_f_push(sys, a, b, hconst, hshift, bnew)
        if fnew is None or fnew.max_norm() <= cfg.residual_tol:
            if sys.cls == BARL:
                zero = VectorFunction.zero(sys.n, anew.domain)
                return SystemDescriptor(BARL, sys.n, sys.field, anew.domain,
                                        A=anew, B=bnew, f=zero, cfg=cfg)
            return SystemDescriptor(HOMOGENEOUS, sys.n, sys.field, anew.domain,
                                    A=anew, B=bnew, cfg=cfg)
        return SystemDescriptor(BARL, sys.n, sys.field, anew.domain,
                                A=anew, B=bnew, f=fnew, cfg=cfg)
    tgrid, anew, bnew, fnew = _push_full(sys, tr, grid_steps)
    if sys.cls == HOMOGENEOUS and (tr.h is None or tr.h.max_norm() <= cfg.residual_tol):
        return SystemDescriptor(HOMOGENEOUS, sys.n, sys.field, (tgrid[0], tgrid[-1]),
                                A=anew, B=bnew, cfg=cfg)
    return SystemDescriptor(BARL, sys.n, sys.field, (tgrid[0], tgrid[-1]),
                            A=anew, B=bnew, f=fnew, cfg=cfg)


def _closed_f_push(sys, a, b, hconst, hshift, bnew):
    """f~ for affine T, constant H, constant h (exact in representation)."""
    f_src = sys.f if sys.f is not None else VectorFunction.zero(sys.n, sys.domain)
    if f_src.kind == SAMPLED:
        grid = np.linspace(bnew.domain[0], bnew.domain[1], len(f_src.grid))
        src_t = (grid - b) / a
        base = VectorFunction.sampled(grid, f_src.evaluate(src_t) @ hconst.T / a ** 2)
    else:
        coeffs = poly_mul(hconst[None], f_src.coeffs) / a ** 2
        base = VectorFunction.polynomial(poly_compose_affine(coeffs, 1.0 / a, -b / a),
                                         bnew.domain)
    if hshift is None or np.max(np.abs(hshift)) == 0.0:
        return base
    # constant h: f~ = base - B~ h
    if base.kind != POLYNOMIAL or bnew.kind != POLYNOMIAL:
        grid = np.linspace(bnew.domain[0], bnew.domain[1], 257)
        return VectorFunction.sampled(grid, base.evaluate(grid) - np.einsum(
            "tij,j->ti", bnew.evaluate(grid), hshift))
    return VectorFunction.polynomial(poly_lincomb(
        [(1.0, base.coeffs), (-1.0, poly_mul(bnew.coeffs, hshift[None]))]), base.domain)


def gauge_f_zero(sys: SystemDescriptor, grid_steps: int = 1024) -> TransformedSystem:
    """Remove the inhomogeneity by subtracting a particular solution.

    The particular solution starts from zero data at the left endpoint; the
    transform carries its negative as the vector shift.
    """
    if sys.cls != BARL:
        raise GaugeError("gauge_f_zero expects a barL system")
    cfg = sys.cfg
    n = sys.n
    lo, hi = sys.domain
    f_fun = sys.f if sys.f is not None else VectorFunction.zero(n, sys.domain)
    out_sys = SystemDescriptor(HOMOGENEOUS, n, sys.field, sys.domain,
                               A=sys.A, B=sys.B, cfg=cfg)
    if "criterion" in vars(sys):  # same A and B, so the same criterion
        out_sys.criterion = sys.criterion
    if f_fun.max_norm() <= cfg.residual_tol:
        return TransformedSystem(out_sys, EquivalenceTransform.identity(n, sys.domain),
                                 provenance="already homogeneous; identity transform")
    half = uniform_grid(lo, hi, 2 * grid_steps)
    grid = half[::2]
    m, g = sys.companion_table(half)
    try:
        traj = rk4_linear(m, np.zeros(2 * n), grid, 0, g)
    except (FloatingPointError, OverflowError) as exc:  # pragma: no cover
        raise GaugeError(f"ODE step failure in particular solution: {exc}") from exc
    if not np.all(np.isfinite(traj)):
        raise GaugeError("ODE step failure: non-finite particular solution")
    part = traj[:, :n]
    tr = EquivalenceTransform(
        T=ScalarFunction.polynomial([0.0, 1.0], sys.domain),
        H=MatrixFunction.constant(np.eye(n), sys.domain),
        h=VectorFunction.sampled(grid, -part, note="minus the particular solution"))
    return TransformedSystem(out_sys, tr,
                             provenance="subtracted the particular solution with zero "
                                        "initial data at the left endpoint")


def half_a_fundamental(a_fun: MatrixFunction, grid):
    """H with H_t = -(1/2) H A on the uniform ``grid``, H(t0) = E at its middle,
    in A's dtype, with the factory of exp(-t A/2) (None on the RK4 route), a
    note naming the route, and A on the grid (None on the closed route):
    exp(-(t - t0) A/2) for a degree-0 A, else one ``rk4_linear`` solve of the
    transpose, (H^T)_t = -(1/2) A^T H^T, with A evaluated once on the
    half-step points."""
    t0 = 0.5 * (grid[0] + grid[-1])
    if a_fun.degree() == 0:
        ef = linalg.exp_factory(-0.5 * a_fun.value)
        return ef(grid - t0), ef, "closed-form exp(-(t-t0) A/2)", None
    a_half = a_fun.evaluate(uniform_grid(grid[0], grid[-1], 2 * (len(grid) - 1)))
    hs = rk4_linear(np.swapaxes(-0.5 * a_half, 1, 2), np.eye(a_half.shape[1]), grid,
                    len(grid) // 2)
    return np.swapaxes(hs, 1, 2), None, "fundamental solve of H_t = -H A/2", a_half[::2]


def gauge_A_zero(sys: SystemDescriptor, grid_steps: int = 1024) -> TransformedSystem:
    """Gauge the first-derivative coefficient away: H solves H_t + (1/2) H A = 0.

    The result is the V-class system with V = H (B - (1/2)A_t + (1/4)A^2) H^-1;
    constant coefficients stay in conjugated-exponential closed form.
    """
    if sys.cls not in (HOMOGENEOUS, BARL):
        if sys.cls in (LPRIME, LDOUBLEPRIME):
            return TransformedSystem(sys, EquivalenceTransform.identity(sys.n, sys.domain),
                                     provenance="already in the V-class; identity transform")
        raise GaugeError("gauge_A_zero expects a homogeneous system")
    if sys.cls == BARL and sys.f is not None and sys.f.max_norm() > sys.cfg.residual_tol:
        raise GaugeError("gauge f away first (gauge_f_zero)")
    cfg = sys.cfg
    n = sys.n
    lo, hi = sys.domain
    t0 = 0.5 * (lo + hi)
    grid = uniform_grid(lo, hi, grid_steps)
    if sys.A.max_norm() <= cfg.residual_tol:
        out = SystemDescriptor(LPRIME, n, sys.field, sys.domain, V=sys.B, cfg=cfg)
        return TransformedSystem(out, EquivalenceTransform.identity(n, sys.domain),
                                 provenance="A = 0 already; identity transform")
    hs, ef, note, _ = half_a_fundamental(sys.A, grid)
    if ef is None:
        _require_invertible(hs, grid, cfg, "during the A-gauge solve")
    crit = sys.criterion
    if ef is not None and crit.degree() == 0:
        w = ef(-t0) @ crit.value @ ef(t0)
        vfun = MatrixFunction.conj_exp(0.0, -0.5 * sys.A.value, w, sys.domain)
    else:
        cvals = crit.evaluate(grid)
        vals = hs @ cvals @ np.linalg.inv(hs)
        vfun = MatrixFunction.sampled(grid, vals)
    hfun = MatrixFunction.sampled(grid, hs, note=note)
    out = SystemDescriptor(LPRIME, n, sys.field, sys.domain, V=vfun, cfg=cfg)
    tr = EquivalenceTransform(T=ScalarFunction.polynomial([0.0, 1.0], sys.domain), H=hfun)
    return TransformedSystem(out, tr, provenance=f"A-gauge with H(t0)=E at t0={t0:g}")


def gauge_traceless(sys: SystemDescriptor, grid_steps: int = 1024) -> TransformedSystem:
    """Reparametrize time so the coefficient matrix becomes traceless.

    Solves phi_tt = u phi with u = tr V / n for a Wronskian-normalized
    fundamental pair, takes T = phi1/phi2 on a zero-free subinterval of phi2,
    and pushes V with H = T_t^(1/2) E.  Then V~(T(t)) = T_t^-2 (V - u E),
    traceless by construction.
    """
    if sys.cls == LDOUBLEPRIME:
        return TransformedSystem(sys, EquivalenceTransform.identity(sys.n, sys.domain),
                                 provenance="already traceless; identity transform")
    if sys.cls != LPRIME:
        raise GaugeError("gauge_traceless expects a V-class system")
    cfg = sys.cfg
    n = sys.n
    lo, hi = sys.domain
    if sys.V.is_traceless(cfg.residual_tol):
        out = SystemDescriptor(LDOUBLEPRIME, n, sys.field, sys.domain, V=sys.V, cfg=cfg)
        return TransformedSystem(out, EquivalenceTransform.identity(n, sys.domain),
                                 provenance="trace already zero; identity transform")
    half = uniform_grid(lo, hi, 2 * grid_steps)
    grid = half[::2]
    u = sys.V.trace_part().evaluate(half)
    # the time map is real, so only Re(tr V / n) is gauged away
    u_imag = float(np.max(np.abs(np.imag(u))))
    u = np.real(u)
    run = schwarzian_time_map(u, grid)
    if run is None:
        raise GaugeError("no zero-free subinterval of the requested minimum length "
                         "for the trace gauge")
    sel, tvals, t1, _ = run
    sub = grid[sel]
    vvals = sys.V.evaluate(sub)
    vt_vals = (vvals - u[::2][sel, None, None] * np.eye(n)) / t1[:, None, None] ** 2
    _require_increasing(tvals, sub)
    vfun = MatrixFunction.sampled(tvals, vt_vals, note="trace-gauged")
    try:
        out = SystemDescriptor(LDOUBLEPRIME, n, sys.field, (tvals[0], tvals[-1]),
                               V=vfun, cfg=cfg)
    except GaugeError:
        if u_imag == 0.0:
            raise
        raise GaugeError(f"tr V / n has an imaginary part of size {u_imag:.3g} on the "
                         "domain; the trace gauge needs a real time map") from None
    tfun = ScalarFunction.sampled(sub, tvals)
    hfun = MatrixFunction.sampled(sub, np.sqrt(t1)[:, None, None] * np.eye(n))
    prov = "trace gauge via the Schwarzian equation"
    if len(sub) < len(grid):
        prov += f"; domain shrunk to [{sub[0]:g}, {sub[-1]:g}] avoiding phi2 zeros"
    return TransformedSystem(out, EquivalenceTransform(T=tfun, H=hfun), provenance=prov)


def schwarzian_time_map(u, grid):
    """T = phi1/phi2 from the Wronskian-normalized pair of phi_tt = u phi.

    u is tabulated on the half-step points of the uniform ``grid`` (see
    ``rk4_linear``); phi1 = (0, 1) and phi2 = (1, 0) in (phi, phi_t) at the
    grid midpoint, so T_t = 1/phi2^2.  Returns (sel, T, T_t, T_tt) on the
    maximal zero-free run ``grid[sel]`` of phi2 containing the midpoint, or
    None when that run is shorter than MIN_LENGTH_FRACTION of the grid.
    """
    i0 = len(grid) // 2
    m = companion(np.zeros((len(u), 1, 1)), u[:, None, None])
    phi = rk4_linear(m, np.array([[0.0, 1.0], [1.0, 0.0]]), grid, i0)
    p1, p2, p2t = phi[:, 0, 0], phi[:, 0, 1], phi[:, 1, 1]
    zeros = np.flatnonzero(~(p2 > 0.0))
    j_lo = zeros[zeros < i0].max() + 1 if np.any(zeros < i0) else 0
    j_hi = zeros[zeros > i0].min() - 1 if np.any(zeros > i0) else len(grid) - 1
    if (grid[j_hi] - grid[j_lo]) < MIN_LENGTH_FRACTION * (grid[-1] - grid[0]):
        return None
    sel = slice(j_lo, j_hi + 1)
    p2, p2t = p2[sel], p2t[sel]
    return sel, p1[sel] / p2, 1.0 / p2 ** 2, -2.0 * p2t / p2 ** 3


def _compose(inner: EquivalenceTransform, outer: EquivalenceTransform,
             grid_steps: int) -> EquivalenceTransform:
    """outer after inner, for an inner transform with T(t) = t.

    The composition is then pointwise in t: x~ = H (H_in x + h_in) + h,
    sampled on the grid of outer's time map.
    """
    if inner.is_identity():
        return outer
    if outer.is_identity():
        return inner
    grid = (outer.T.grid if outer.T.kind == SAMPLED
            else uniform_grid(*outer.T.domain, grid_steps))
    hmat = outer.H.evaluate(grid)
    shift = np.zeros((len(grid), hmat.shape[1]), dtype=hmat.dtype)
    if inner.h is not None:
        shift = shift + np.einsum("tij,tj->ti", hmat, inner.h.evaluate(grid))
    if outer.h is not None:
        shift = shift + outer.h.evaluate(grid)
    return EquivalenceTransform(
        T=outer.T, H=MatrixFunction.sampled(grid, hmat @ inner.H.evaluate(grid)),
        h=VectorFunction.sampled(grid, shift))


def reduce(sys: SystemDescriptor, target: str, grid_steps: int = 1024) -> TransformedSystem:
    """Run the chain f = 0 -> A = 0 -> tr V = 0 up to the class ``target``.

    ``target`` is L, Lprime or Ldoubleprime.  The f-step runs on barL input
    when the target lies past L, the A-step when the target is Ldoubleprime
    and the system is L by then, and the target's own step always, so input
    already at its target gets that step's identity result.  Every step but
    the last has T(t) = t, so their transforms compose pointwise into the one
    source-to-final transform returned.
    """
    # looked up per call: the benchmark's traced run rebinds the step names
    own_step = {HOMOGENEOUS: gauge_f_zero, LPRIME: gauge_A_zero,
                LDOUBLEPRIME: gauge_traceless}
    if target not in own_step:
        raise GaugeError(f"unknown target class {target}")
    steps = [gauge_f_zero] if sys.cls == BARL and target != HOMOGENEOUS else []
    if target == LDOUBLEPRIME and sys.cls in (BARL, HOMOGENEOUS):
        steps.append(gauge_A_zero)  # the f-step leaves an L system
    chain, work = [], sys
    for step in steps + [own_step[target]]:
        chain.append(step(work, grid_steps))
        work = chain[-1].system
    tr = chain[0].transform
    for ts in chain[1:]:
        tr = _compose(tr, ts.transform, grid_steps)
    return TransformedSystem(work, tr, "; ".join(ts.provenance for ts in chain))


def verify_equivalence(src: SystemDescriptor, dst: SystemDescriptor,
                       tr: EquivalenceTransform, seed: int = 0,
                       grid_steps: int = 1024) -> float:
    """Push random src trajectories through tr and measure the dst residual.

    Integrates N_TRAJ trajectories, the columns of one solve, from random
    data at the domain midpoint, maps (t, x) by the transform, differentiates
    the pushed trajectories on the (nonuniform) image grid and returns the
    max defect of the dst equation, each normalized by its trajectory's scale.
    A T whose image grid does not strictly increase is refused
    (``_require_increasing``).
    """
    rng = np.random.default_rng(seed)
    n = src.n
    half = uniform_grid(max(src.domain[0], tr.T.domain[0]),
                        min(src.domain[1], tr.T.domain[1]), 2 * grid_steps)
    grid = half[::2]
    tvals = tr.T.evaluate(grid)
    _require_increasing(tvals, grid)
    hvals = tr.H.evaluate(grid)
    hshift = tr.h.evaluate(grid) if tr.h is not None else np.zeros((len(grid), n))
    # the trajectories are the columns of one solve, drawn in the same order
    # as one solve per trajectory would draw them
    z0 = np.empty((2 * n, N_TRAJ), dtype=src.field.dtype)
    for k in range(N_TRAJ):
        z0[:, k] = rng.standard_normal(2 * n)
        if src.field is Field.COMPLEX:
            z0[:, k] += 1j * rng.standard_normal(2 * n)
    m, g = src.companion_table(half)
    # a zero forcing table adds nothing, so its maps are not built
    traj = rk4_linear(m, z0, grid, len(grid) // 2, g[:, :, None] if np.any(g) else None)
    pushed = hvals @ traj[:, :n] + hshift[:, :, None]
    inside = (tvals >= dst.domain[0] - 1e-12) & (tvals <= dst.domain[1] + 1e-12)
    tg = tvals[inside]
    xg = pushed[inside]
    # wide stencils keep the measurement floor below the gauge residuals
    # even when the time map compresses the image grid
    d1 = grid_derivative(tg, xg, 1, stencil=7)
    d2 = grid_derivative(tg, xg, 2, stencil=9)
    a_fun, b_fun, f_fun = dst.coefficients()
    defect = d2 - (a_fun.evaluate(tg) @ d1 + b_fun.evaluate(tg) @ xg
                   + f_fun.evaluate(tg)[:, :, None])
    # each trajectory is measured against its own scale
    scale = np.maximum(1.0, np.max(np.abs(xg), axis=(0, 1)))
    return float(np.max(np.max(np.abs(defect[4:-4]), axis=(0, 1)) / scale))
