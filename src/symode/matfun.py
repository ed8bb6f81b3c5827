"""Time-dependent scalar-, vector- and matrix-valued functions.

Four representations: constant, polynomial in t (plain power basis, ascending
coefficients), conjugated-exponential eps*E + e^{t Y} W e^{-t Y} (matrices
only), and sampled grids with piecewise-cubic Hermite interpolation.
Differentiation is exact where the representation permits; operations return
the tightest representation possible and degrade explicitly to Sampled,
recording the degradation in the result's note.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from . import linalg
from .numutil import grid_derivative
from .scalars import DEFAULT_TOL, Field, ToleranceConfig

CONSTANT = "constant"
POLYNOMIAL = "polynomial"
CONJ_EXP = "conj_exp"
SAMPLED = "sampled"

_HULL_SLACK = 1e-9


class RepresentationError(ValueError):
    pass


def _strip_trailing(coeffs: list[np.ndarray]) -> list[np.ndarray]:
    out = list(coeffs)
    while len(out) > 1 and np.max(np.abs(out[-1])) == 0.0:
        out.pop()
    return out


def _check_domain(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise RepresentationError(f"empty domain {domain}")
    return lo, hi


class _TimeFunction:
    """Shared plumbing for the three value shapes."""

    kind: str
    domain: tuple[float, float]
    note: str

    def _in_domain(self, t: np.ndarray) -> None:
        lo, hi = self.domain
        slack = _HULL_SLACK * (1.0 + hi - lo)
        t = np.asarray(t, dtype=float)
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise RepresentationError(
                f"evaluation point outside domain [{lo}, {hi}]")

    @property
    def field(self) -> Field:
        return Field.COMPLEX if self._is_complex() else Field.REAL

    def _is_complex(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


def _poly_eval(coeffs, t):
    t = np.asarray(t)
    shape = np.shape(coeffs[0])
    if t.ndim == 0:
        acc = np.zeros(shape, dtype=np.result_type(*[c.dtype for c in coeffs], float))
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc
    acc = np.zeros((len(t),) + shape,
                   dtype=np.result_type(*[c.dtype for c in coeffs], float))
    tt = t.reshape((-1,) + (1,) * len(shape))
    for c in reversed(coeffs):
        acc = acc * tt + c
    return acc


def _poly_diff(coeffs):
    if len(coeffs) == 1:
        return [np.zeros_like(coeffs[0])]
    return _strip_trailing([(l + 1) * coeffs[l + 1] for l in range(len(coeffs) - 1)])


def _poly_compose_affine(coeffs, alpha, beta):
    """Coefficients of p(alpha*t + beta) from those of p."""
    out = [np.zeros_like(coeffs[0]) for _ in coeffs]
    for l, c in enumerate(coeffs):
        # (alpha t + beta)^l expansion
        for j in range(l + 1):
            out[j] = out[j] + c * comb(l, j) * (alpha ** j) * (beta ** (l - j))
    return _strip_trailing(out)


def poly_wronskian(c1, c2):
    """Ascending coefficients of p1 p2' - p2 p1', len(c1) + len(c2) - 1 of them."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    out = np.zeros(max(len(c1) + len(c2) - 1, 1), dtype=np.result_type(c1, c2, float))
    for i, a in enumerate(c1):
        for j in range(1, len(c2)):
            out[i + j - 1] += a * (j * c2[j])
    for i, b in enumerate(c2):
        for j in range(1, len(c1)):
            out[i + j - 1] -= b * (j * c1[j])
    return out


class ScalarFunction(_TimeFunction):
    """Scalar function of t: polynomial or sampled."""

    def __init__(self, kind, domain, coeffs=None, grid=None, values=None, note=""):
        self.kind = kind
        self.domain = _check_domain(domain)
        self.note = note
        if kind == POLYNOMIAL:
            self.coeffs = _strip_trailing([np.asarray(c).reshape(()) for c in coeffs])
        elif kind == SAMPLED:
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values)
            if len(self.grid) < 2 or np.any(np.diff(self.grid) <= 0):
                raise RepresentationError("sampled grid must be strictly ascending, >= 2 points")
            if self.values.shape[0] != len(self.grid):
                raise RepresentationError("grid/values length mismatch")
            self._spline = None
        else:
            raise RepresentationError(f"unknown scalar kind {kind}")

    @classmethod
    def polynomial(cls, coeffs, domain=(-1.0, 1.0)):
        return cls(POLYNOMIAL, domain, coeffs=coeffs)

    @classmethod
    def constant(cls, value, domain=(-1.0, 1.0)):
        return cls(POLYNOMIAL, domain, coeffs=[value])

    @classmethod
    def sampled(cls, grid, values, note=""):
        grid = np.asarray(grid, dtype=float)
        return cls(SAMPLED, (grid[0], grid[-1]), grid=grid, values=values, note=note)

    def _is_complex(self):
        if self.kind == POLYNOMIAL:
            return any(np.iscomplexobj(c) for c in self.coeffs)
        return np.iscomplexobj(self.values)

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        self._in_domain(t)
        if self.kind == POLYNOMIAL:
            return _poly_eval(self.coeffs, t)
        if self._spline is None:
            slopes = grid_derivative(self.grid, self.values, 1)
            self._spline = CubicHermiteSpline(self.grid, self.values, slopes, axis=0)
        out = self._spline(np.asarray(t, dtype=float))
        return out if np.ndim(t) else np.asarray(out).reshape(())

    def derivative(self, order: int = 1) -> "ScalarFunction":
        if order == 0:
            return self
        if self.kind == POLYNOMIAL:
            coeffs = self.coeffs
            for _ in range(order):
                coeffs = _poly_diff(coeffs)
            return ScalarFunction(POLYNOMIAL, self.domain, coeffs=coeffs, note=self.note)
        vals = grid_derivative(self.grid, self.values, order)
        return ScalarFunction.sampled(self.grid, vals, note=self.note)

    def degree(self):
        if self.kind != POLYNOMIAL:
            return None
        return len(self.coeffs) - 1

    def bounded_away_from_zero(self, probes: int = 65) -> bool:
        lo, hi = self.domain
        ts = np.linspace(lo, hi, probes)
        return bool(np.min(np.abs(self.evaluate(ts))) > 0.0)


class VectorFunction(_TimeFunction):
    """n-vector function of t: constant, polynomial or sampled."""

    def __init__(self, kind, n, domain, coeffs=None, grid=None, values=None, note=""):
        self.kind = kind
        self.n = int(n)
        self.domain = _check_domain(domain)
        self.note = note
        if kind == CONSTANT:
            self.value = np.asarray(coeffs[0] if coeffs else values).reshape(self.n)
        elif kind == POLYNOMIAL:
            self.coeffs = _strip_trailing([np.asarray(c).reshape(self.n) for c in coeffs])
        elif kind == SAMPLED:
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values).reshape(len(self.grid), self.n)
            if len(self.grid) < 2 or np.any(np.diff(self.grid) <= 0):
                raise RepresentationError("sampled grid must be strictly ascending, >= 2 points")
            self._spline = None
        else:
            raise RepresentationError(f"unsupported vector kind {kind}")

    @classmethod
    def constant(cls, value, domain=(-1.0, 1.0)):
        value = np.asarray(value)
        return cls(CONSTANT, value.shape[0], domain, coeffs=[value])

    @classmethod
    def polynomial(cls, coeffs, domain=(-1.0, 1.0)):
        c0 = np.asarray(coeffs[0])
        return cls(POLYNOMIAL, c0.shape[0], domain, coeffs=coeffs)

    @classmethod
    def sampled(cls, grid, values, note=""):
        values = np.asarray(values)
        grid = np.asarray(grid, dtype=float)
        return cls(SAMPLED, values.shape[1], (grid[0], grid[-1]),
                   grid=grid, values=values, note=note)

    @classmethod
    def zero(cls, n, domain=(-1.0, 1.0)):
        return cls.constant(np.zeros(n), domain)

    def _is_complex(self):
        if self.kind == CONSTANT:
            return np.iscomplexobj(self.value)
        if self.kind == POLYNOMIAL:
            return any(np.iscomplexobj(c) for c in self.coeffs)
        return np.iscomplexobj(self.values)

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        self._in_domain(t)
        if self.kind == CONSTANT:
            if np.ndim(t):
                return np.broadcast_to(self.value, (len(t), self.n)).copy()
            return self.value.copy()
        if self.kind == POLYNOMIAL:
            return _poly_eval(self.coeffs, t)
        if self._spline is None:
            slopes = grid_derivative(self.grid, self.values, 1)
            self._spline = CubicHermiteSpline(self.grid, self.values, slopes, axis=0)
        return self._spline(np.asarray(t, dtype=float))

    def derivative(self, order: int = 1) -> "VectorFunction":
        if order == 0:
            return self
        if self.kind == CONSTANT:
            return VectorFunction.constant(np.zeros_like(self.value), self.domain)
        if self.kind == POLYNOMIAL:
            coeffs = self.coeffs
            for _ in range(order):
                coeffs = _poly_diff(coeffs)
            if len(coeffs) == 1:
                return VectorFunction.constant(coeffs[0], self.domain)
            return VectorFunction(POLYNOMIAL, self.n, self.domain, coeffs=coeffs)
        vals = grid_derivative(self.grid, self.values, order)
        return VectorFunction.sampled(self.grid, vals, note=self.note)

    def max_norm(self, probes: int = 65) -> float:
        ts = np.linspace(self.domain[0], self.domain[1], probes)
        return float(np.max(np.linalg.norm(self.evaluate(ts), axis=-1)))


class MatrixFunction(_TimeFunction):
    """n x n matrix function of t in one of the four representations."""

    def __init__(self, kind, n, domain, coeffs=None, epsilon=None, upsilon=None,
                 w=None, grid=None, values=None, note=""):
        self.kind = kind
        self.n = int(n)
        self.domain = _check_domain(domain)
        self.note = note
        if kind == CONSTANT:
            self.value = np.asarray(coeffs[0]).reshape(self.n, self.n)
        elif kind == POLYNOMIAL:
            self.coeffs = _strip_trailing(
                [np.asarray(c).reshape(self.n, self.n) for c in coeffs])
        elif kind == CONJ_EXP:
            self.epsilon = complex(epsilon) if np.iscomplexobj(np.asarray(epsilon)) \
                else float(np.real(epsilon))
            self.upsilon = np.asarray(upsilon).reshape(self.n, self.n)
            self.w = np.asarray(w).reshape(self.n, self.n)
            self._exp = None
        elif kind == SAMPLED:
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values).reshape(len(self.grid), self.n, self.n)
            if len(self.grid) < 2 or np.any(np.diff(self.grid) <= 0):
                raise RepresentationError("sampled grid must be strictly ascending, >= 2 points")
            self._spline = None
        else:
            raise RepresentationError(f"unknown matrix kind {kind}")

    @classmethod
    def constant(cls, value, domain=(-1.0, 1.0)):
        value = np.asarray(value)
        return cls(CONSTANT, value.shape[0], domain, coeffs=[value])

    @classmethod
    def polynomial(cls, coeffs, domain=(-1.0, 1.0)):
        c0 = np.asarray(coeffs[0])
        return cls(POLYNOMIAL, c0.shape[0], domain, coeffs=coeffs)

    @classmethod
    def conj_exp(cls, epsilon, upsilon, w, domain=(-1.0, 1.0)):
        upsilon = np.asarray(upsilon)
        return cls(CONJ_EXP, upsilon.shape[0], domain,
                   epsilon=epsilon, upsilon=upsilon, w=w)

    @classmethod
    def sampled(cls, grid, values, note=""):
        values = np.asarray(values)
        grid = np.asarray(grid, dtype=float)
        return cls(SAMPLED, values.shape[1], (grid[0], grid[-1]),
                   grid=grid, values=values, note=note)

    @classmethod
    def zero(cls, n, domain=(-1.0, 1.0)):
        return cls.constant(np.zeros((n, n)), domain)

    def _is_complex(self):
        if self.kind == CONSTANT:
            return np.iscomplexobj(self.value)
        if self.kind == POLYNOMIAL:
            return any(np.iscomplexobj(c) for c in self.coeffs)
        if self.kind == CONJ_EXP:
            return (np.iscomplexobj(np.asarray(self.epsilon))
                    or np.iscomplexobj(self.upsilon) or np.iscomplexobj(self.w))
        return np.iscomplexobj(self.values)

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        self._in_domain(t)
        if self.kind == CONSTANT:
            if np.ndim(t):
                return np.broadcast_to(self.value, (len(t), self.n, self.n)).copy()
            return self.value.copy()
        if self.kind == POLYNOMIAL:
            return _poly_eval(self.coeffs, t)
        if self.kind == CONJ_EXP:
            if self._exp is None:
                self._exp = linalg.exp_factory(self.upsilon)
            eye = np.eye(self.n)
            eps = self.epsilon

            def one(ti):
                e = self._exp(float(ti))
                einv = self._exp(-float(ti))
                return eps * eye + e @ self.w @ einv

            if np.ndim(t):
                return np.stack([one(ti) for ti in np.asarray(t)])
            return one(t)
        if self._spline is None:
            slopes = grid_derivative(self.grid, self.values, 1)
            self._spline = CubicHermiteSpline(self.grid, self.values, slopes, axis=0)
        return self._spline(np.asarray(t, dtype=float))

    def derivative(self, order: int = 1) -> "MatrixFunction":
        if order == 0:
            return self
        if self.kind == CONSTANT:
            return MatrixFunction.zero(self.n, self.domain)
        if self.kind == POLYNOMIAL:
            coeffs = self.coeffs
            for _ in range(order):
                coeffs = _poly_diff(coeffs)
            if len(coeffs) == 1:
                return MatrixFunction.constant(coeffs[0], self.domain)
            return MatrixFunction(POLYNOMIAL, self.n, self.domain, coeffs=coeffs)
        if self.kind == CONJ_EXP:
            out = MatrixFunction.conj_exp(0.0, self.upsilon,
                                          linalg.commutator(self.upsilon, self.w),
                                          self.domain)
            return out.derivative(order - 1)
        vals = grid_derivative(self.grid, self.values, order)
        return MatrixFunction.sampled(self.grid, vals, note=self.note)

    def trace_split(self):
        """F = u*E + F0 with tr F0 = 0; returns (u: ScalarFunction, F0)."""
        n = self.n
        if self.kind == CONSTANT:
            u = np.trace(self.value) / n
            return (ScalarFunction.constant(u, self.domain),
                    MatrixFunction.constant(self.value - u * np.eye(n), self.domain))
        if self.kind == POLYNOMIAL:
            us = [np.trace(c) / n for c in self.coeffs]
            f0 = [c - u * np.eye(n) for c, u in zip(self.coeffs, us)]
            return (ScalarFunction.polynomial(us, self.domain),
                    MatrixFunction(POLYNOMIAL, n, self.domain, coeffs=f0))
        if self.kind == CONJ_EXP:
            # trace of a conjugation is conjugation-invariant
            u = self.epsilon + np.trace(self.w) / n
            w0 = self.w - (np.trace(self.w) / n) * np.eye(n)
            return (ScalarFunction.constant(u, self.domain),
                    MatrixFunction.conj_exp(0.0, self.upsilon, w0, self.domain))
        us = np.trace(self.values, axis1=1, axis2=2) / n
        f0 = self.values - us[:, None, None] * np.eye(n)
        return (ScalarFunction.sampled(self.grid, us, note=self.note),
                MatrixFunction.sampled(self.grid, f0, note=self.note))

    def trace_part(self):
        return self.trace_split()[0]

    def traceless_part(self):
        return self.trace_split()[1]

    def conjugate(self, c: np.ndarray) -> "MatrixFunction":
        """c F c^{-1}, staying closed in every representation."""
        c = np.asarray(c)
        cinv = np.linalg.inv(c)
        if self.kind == CONSTANT:
            return MatrixFunction.constant(c @ self.value @ cinv, self.domain)
        if self.kind == POLYNOMIAL:
            return MatrixFunction(POLYNOMIAL, self.n, self.domain,
                                  coeffs=[c @ m @ cinv for m in self.coeffs])
        if self.kind == CONJ_EXP:
            return MatrixFunction.conj_exp(self.epsilon, c @ self.upsilon @ cinv,
                                           c @ self.w @ cinv, self.domain)
        return MatrixFunction.sampled(self.grid,
                                      np.einsum("ij,tjk,kl->til", c, self.values, cinv),
                                      note=self.note)

    def scale(self, a) -> "MatrixFunction":
        if self.kind == CONSTANT:
            return MatrixFunction.constant(a * self.value, self.domain)
        if self.kind == POLYNOMIAL:
            return MatrixFunction(POLYNOMIAL, self.n, self.domain,
                                  coeffs=[a * m for m in self.coeffs])
        if self.kind == CONJ_EXP:
            return MatrixFunction.conj_exp(a * self.epsilon, self.upsilon,
                                           a * self.w, self.domain)
        return MatrixFunction.sampled(self.grid, a * self.values, note=self.note)

    def add_scalar_identity(self, a) -> "MatrixFunction":
        eye = np.eye(self.n)
        if self.kind == CONSTANT:
            return MatrixFunction.constant(self.value + a * eye, self.domain)
        if self.kind == POLYNOMIAL:
            coeffs = [m.copy() for m in self.coeffs]
            coeffs[0] = coeffs[0] + a * eye
            return MatrixFunction(POLYNOMIAL, self.n, self.domain, coeffs=coeffs)
        if self.kind == CONJ_EXP:
            return MatrixFunction.conj_exp(self.epsilon + a, self.upsilon, self.w, self.domain)
        return MatrixFunction.sampled(self.grid, self.values + a * eye, note=self.note)

    def compose_affine(self, alpha: float, beta: float) -> "MatrixFunction":
        """G with G(t) = F(alpha*t + beta); domain mapped accordingly."""
        if alpha == 0.0:
            raise RepresentationError("affine substitution must be invertible")
        lo, hi = self.domain
        a_lo, a_hi = (lo - beta) / alpha, (hi - beta) / alpha
        new_dom = (min(a_lo, a_hi), max(a_lo, a_hi))
        if self.kind == CONSTANT:
            return MatrixFunction.constant(self.value, new_dom)
        if self.kind == POLYNOMIAL:
            return MatrixFunction(POLYNOMIAL, self.n, new_dom,
                                  coeffs=_poly_compose_affine(self.coeffs, alpha, beta))
        if self.kind == CONJ_EXP:
            # e^{(a t + b) Y} W e^{-(a t + b) Y} = e^{t (aY)} W' e^{-t (aY)}
            eb = linalg.exp_factory(self.upsilon)(beta) if beta else np.eye(self.n)
            ebinv = linalg.exp_factory(self.upsilon)(-beta) if beta else np.eye(self.n)
            return MatrixFunction.conj_exp(self.epsilon, alpha * self.upsilon,
                                           eb @ self.w @ ebinv, new_dom)
        new_grid = (self.grid - beta) / alpha
        vals = self.values
        if alpha < 0:
            new_grid = new_grid[::-1]
            vals = vals[::-1]
        return MatrixFunction.sampled(new_grid, vals, note=self.note)

    def resample(self, grid) -> "MatrixFunction":
        grid = np.asarray(grid, dtype=float)
        note = (self.note + "; " if self.note else "") + f"resampled from {self.kind}"
        return MatrixFunction.sampled(grid, self.evaluate(grid), note=note)

    def max_norm(self, probes: int = 65) -> float:
        ts = np.linspace(self.domain[0], self.domain[1], probes)
        vals = self.evaluate(ts)
        return float(np.max(np.linalg.norm(vals, axis=(1, 2))))

    def is_traceless(self, tol: float = 1e-9, probes: int = 32) -> bool:
        ts = np.linspace(self.domain[0], self.domain[1], probes)
        traces = np.trace(self.evaluate(ts), axis1=1, axis2=2)
        return bool(np.max(np.abs(traces)) <= tol * (1.0 + self.max_norm(probes)))


def kl_sequence(upsilon: np.ndarray, w: np.ndarray,
                cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    """K_0 = W, K_{l+1} = [Y, K_l], truncated at the first span dependence.

    Returns the maximal independent prefix {K_0..K_m}; truncation is
    guaranteed at m < n^2.
    """
    mats, _, _ = kl_sequence_with_tail(upsilon, w, cfg)
    return mats


def kl_sequence_with_tail(upsilon: np.ndarray, w: np.ndarray,
                          cfg: ToleranceConfig = DEFAULT_TOL):
    """K-list plus the first dependent element and its span-projection residual.

    A residual ~0 (relative) means the sequence terminates at zero, the
    structural prerequisite for second t-symmetries.
    """
    upsilon = np.asarray(upsilon)
    w = np.asarray(w)
    n = w.shape[0]
    mats = [w]
    current = w
    for _ in range(n * n + 1):
        nxt = linalg.commutator(upsilon, current)
        stacked = np.stack([m.reshape(-1) for m in mats])
        coef, *_ = np.linalg.lstsq(stacked.T, nxt.reshape(-1).astype(stacked.dtype)
                                   if not np.iscomplexobj(nxt) else nxt.reshape(-1),
                                   rcond=None)
        resid = float(np.linalg.norm(nxt.reshape(-1) - stacked.T @ coef))
        scale = max(float(np.linalg.norm(m)) for m in mats)
        if resid <= max(cfg.rank_tol * max(scale, float(np.linalg.norm(nxt)), 1.0),
                        1e-13 * scale):
            tail_norm = float(np.linalg.norm(nxt))
            return mats, nxt, tail_norm / max(scale, 1e-300)
        mats.append(nxt)
        current = nxt
    raise linalg.LinalgError("K-sequence failed to stabilize below n^2 terms")


def schwarzian(t_fun: ScalarFunction) -> ScalarFunction:
    """Schwarzian derivative {T, t} = T_ttt/T_t - (3/2)(T_tt/T_t)^2 (sampled)."""
    lo, hi = t_fun.domain
    if t_fun.kind == SAMPLED:
        grid = t_fun.grid
    else:
        grid = np.linspace(lo, hi, 1025)
    t1 = t_fun.derivative(1).evaluate(grid)
    t2 = t_fun.derivative(2).evaluate(grid)
    t3 = t_fun.derivative(3).evaluate(grid)
    vals = t3 / t1 - 1.5 * (t2 / t1) ** 2
    return ScalarFunction.sampled(grid, vals)


def evaluate(f, t):
    """Module-level alias: f(t) for any time-function object."""
    return f.evaluate(t)


def differentiate(f, order: int = 1):
    """Module-level alias: exact-where-possible derivative of a time function."""
    return f.derivative(order)


def trace_part(f: MatrixFunction) -> ScalarFunction:
    return f.trace_split()[0]


def traceless_part(f: MatrixFunction) -> MatrixFunction:
    return f.trace_split()[1]
