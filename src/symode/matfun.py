"""Time-dependent scalar-, vector- and matrix-valued functions.

One implementation, ``_TimeFunction``, holds a function of t in one of three
representations; ``ScalarFunction``, ``VectorFunction`` and ``MatrixFunction``
are thin subclasses that fix the value rank, the kinds admitted and a few
shape-specific operations.

- polynomial in t (plain power basis, ascending coefficients), one stacked
  coefficient array ``coeffs`` of shape ``(deg + 1, *shape)``.  A constant is
  a degree-0 polynomial, a one-row stack, in every value rank; ``value`` is a
  read-only view of the constant term;
- conjugated exponential eps*E + e^{t Y} W e^{-t Y} (matrices only), with
  e^{tY} and e^{-tY} from one ``pair`` call of one ``linalg.exp_factory``
  (Taylor scaling and squaring) per Y, shared by every function derived
  with the same Y;
- sampled grids: a node of the grid returns its sample, the value the
  interpolant takes there, and only points between nodes are interpolated,
  piecewise-cubic Hermite, by a spline built on the first such point: slopes
  from ``numutil.grid_derivative``, each interval's cubic held in the power
  basis about its left node and evaluated by Horner (de Boor, *A Practical
  Guide to Splines*, ch. IV).  Points in the domain slack beyond either end
  extrapolate the end interval's cubic.

The ``poly_*`` functions are the one polynomial algebra over stacked
coefficients (Horner evaluation, derivative, affine substitution, linear
combination, product) that gauge, integrate and symalg build on.
Differentiation is exact where the representation permits; operations return
the tightest representation possible and degrade explicitly to sampled,
recording the degradation in the result's note.
"""

from __future__ import annotations

from math import comb, isfinite

import numpy as np

from . import linalg
from .numutil import grid_derivative
from .scalars import DEFAULT_TOL, Field, ToleranceConfig

POLYNOMIAL = "polynomial"
CONJ_EXP = "conj_exp"
SAMPLED = "sampled"

_HULL_SLACK = 1e-9


class RepresentationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial algebra on stacked coefficients c[l] (coefficient of t^l)


def poly_strip(c):
    """c without trailing all-zero rows; at least one row is kept."""
    k = len(c)
    while k > 1 and np.max(np.abs(c[k - 1])) == 0.0:
        k -= 1
    return c[:k]


def poly_eval(c, t):
    """Horner evaluation at a scalar t or along a 1-D array t (leading axis)."""
    t = np.asarray(t)
    shape = c.shape[1:]
    if len(c) == 1:  # a constant: c[0] copied along t
        out = np.empty(t.shape + shape, dtype=np.result_type(c, float))
        out[...] = c[0]
        return out[()]
    tt = t.reshape(t.shape + (1,) * len(shape))
    acc = np.zeros(t.shape + shape, dtype=np.result_type(c, float))
    for row in c[::-1]:
        acc = acc * tt + row
    return acc


def poly_der(c):
    """Coefficients of the derivative, one row fewer; a zero row for a constant."""
    if len(c) == 1:
        return np.zeros_like(c)
    return np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]


def poly_compose_affine(c, alpha, beta):
    """Coefficients of p(alpha*t + beta) from those of p."""
    out = np.zeros(c.shape, dtype=np.result_type(c, alpha, beta))
    for l in range(len(c)):
        # (alpha t + beta)^l expansion
        for j in range(l + 1):
            out[j] += c[l] * comb(l, j) * (alpha ** j) * (beta ** (l - j))
    return poly_strip(out)


def poly_lincomb(terms, length=None):
    """Coefficients of sum_i w_i p_i for (w_i, c_i) pairs, added in the order given.

    The result has ``length`` rows (default: the longest c_i), shorter stacks
    padded with zeros.
    """
    length = length or max(len(c) for _, c in terms)
    shape = np.broadcast_shapes(*(c.shape[1:] for _, c in terms))
    out = np.zeros((length,) + shape,
                   dtype=np.result_type(*(w for w, _ in terms), *(c for _, c in terms)))
    for w, c in terms:
        out[:len(c)] += w * c
    return out


def poly_mul(a, b):
    """Coefficients of the product: out[i + j] += a[i] o b[j] for i, then j.

    o is the matrix product when a holds matrices and b matrices or vectors,
    and broadcasting multiplication otherwise.
    """
    op = np.matmul if a.ndim == 3 and b.ndim >= 2 else np.multiply
    out = None
    for i in range(len(a)):
        for j in range(len(b)):
            term = op(a[i], b[j])
            if out is None:
                out = np.zeros((len(a) + len(b) - 1,) + np.shape(term),
                               dtype=np.result_type(a, b))
            out[i + j] += term
    return out


def poly_wronskian(c1, c2):
    """Ascending coefficients of p1 p2' - p2 p1', len(c1) + len(c2) - 1 of them."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    return poly_lincomb([(1.0, poly_mul(c1, poly_der(c2))),
                         (-1.0, poly_mul(c2, poly_der(c1)))], len(c1) + len(c2) - 1)


# ---------------------------------------------------------------------------
# piecewise cubic Hermite interpolation on a sampled grid


def _hermite_coefficients(grid, values, slopes):
    """(c3, c2, c1, c0) with p_i(s) = ((c3 s + c2) s + c1) s + c0 on [x_i, x_{i+1}],
    s = t - x_i: the cubic through values y_i, y_{i+1} with slopes m_i, m_{i+1}."""
    dx = np.diff(grid).reshape((-1,) + (1,) * (values.ndim - 1))
    secant = np.diff(values, axis=0) / dx
    excess = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
    return excess / dx, (secant - slopes[:-1]) / dx - excess, slopes[:-1], values[:-1]


def _hermite_eval(coeffs, grid, flat, left):
    """The interpolant at the points flat, each with the index of the last node
    at or before it (-1 before the grid); outside the grid, the end cubics."""
    i = np.clip(left, 0, len(grid) - 2)
    c3, c2, c1, c0 = coeffs
    s = (flat - grid[i]).reshape((-1,) + (1,) * (c0.ndim - 1))
    out = c3.take(i, axis=0)
    for c in (c2, c1, c0):
        out *= s
        out += c.take(i, axis=0)
    return out


# ---------------------------------------------------------------------------
# time functions


def _check_domain(domain) -> tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise RepresentationError(f"empty domain {domain}")
    return lo, hi


def _max_norm(vals) -> float:
    """max over the leading axis of |v|, or of ||v||_F for vectors and matrices;
    values past 1e150 are divided by their peak first, so no square overflows."""
    peak = float(np.abs(vals).max())
    if vals.ndim == 1 or not isfinite(peak):
        return peak
    scale = peak if peak > 1e150 else 1.0
    norms = np.linalg.norm(vals / scale if scale > 1.0 else vals, axis=tuple(range(1, vals.ndim)))
    return scale * float(np.max(norms))


class _TimeFunction:
    """A function of t with values of rank ``ndim``, in one of ``KINDS``."""

    ndim: int
    NAME: str
    KINDS: tuple

    def __init__(self, kind, domain, coeffs=None, grid=None, values=None, note="",
                 epsilon=None, upsilon=None, w=None):
        if kind not in self.KINDS:
            raise RepresentationError(f"unknown {self.NAME} kind {kind}")
        self.kind = kind
        self.domain = _check_domain(domain)
        self.note = note
        if kind == POLYNOMIAL:
            stack = np.stack([np.asarray(c) for c in coeffs])
            if self.ndim == 0:
                stack = stack.reshape(len(stack))
            self._set_shape(stack.shape[1:])
            stack = poly_strip(stack.astype(np.result_type(stack, float), copy=False))
            stack.setflags(write=False)
            self.coeffs = stack
        elif kind == CONJ_EXP:
            self.epsilon = complex(epsilon) if np.iscomplexobj(np.asarray(epsilon)) \
                else float(np.real(epsilon))
            self.upsilon = np.asarray(upsilon)
            self._set_shape(self.upsilon.shape)
            self.w = np.asarray(w).reshape(self.upsilon.shape)
            # one-element cell for exp_factory(upsilon), shared with every
            # function derived with the same upsilon
            self._exp = [None]
        else:
            self.grid = np.asarray(grid, dtype=float)
            self.values = np.asarray(values)
            if self.values.shape[:1] != self.grid.shape:
                raise RepresentationError("grid/values length mismatch")
            self._set_shape(self.values.shape[1:])
            self._spline = None

    def _set_shape(self, shape):
        if len(shape) != self.ndim or len(set(shape)) > 1:
            raise RepresentationError(
                f"a {self.NAME} function cannot take values of shape {shape}")
        self.shape = shape

    @classmethod
    def constant(cls, value, domain=(-1.0, 1.0)):
        return cls.polynomial([value], domain)

    @classmethod
    def polynomial(cls, coeffs, domain=(-1.0, 1.0)):
        return cls(POLYNOMIAL, domain, coeffs=coeffs)

    @classmethod
    def sampled(cls, grid, values, note=""):
        grid = np.asarray(grid, dtype=float)
        # checked before the grid's ends become the domain
        if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise RepresentationError("sampled grid must be strictly ascending, >= 2 points")
        return cls(SAMPLED, (grid[0], grid[-1]), grid=grid, values=values, note=note)

    @classmethod
    def zero(cls, n, domain=(-1.0, 1.0)):
        return cls.constant(np.zeros((n,) * cls.ndim), domain)

    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def value(self) -> np.ndarray:
        """The constant term of a polynomial: its value when the degree is 0."""
        return self.coeffs[0]

    @property
    def field(self) -> Field:
        if self.kind == SAMPLED:
            data = (self.values,)
        elif self.kind == CONJ_EXP:
            data = (np.asarray(self.epsilon), self.upsilon, self.w)
        else:
            data = (self.coeffs,)
        return Field.COMPLEX if any(np.iscomplexobj(d) for d in data) else Field.REAL

    def degree(self):
        return len(self.coeffs) - 1 if self.kind == POLYNOMIAL else None

    def covers(self, domain) -> bool:
        """Whether [domain[0], domain[1]] lies in the domain, within the slack
        of ``evaluate``."""
        lo, hi = self.domain
        slack = _HULL_SLACK * (1.0 + hi - lo)
        return lo - slack <= domain[0] and domain[1] <= hi + slack

    def _in_domain(self, t: np.ndarray) -> None:
        lo, hi = self.domain
        slack = _HULL_SLACK * (1.0 + hi - lo)
        t = np.asarray(t, dtype=float)
        if np.any(t < lo - slack) or np.any(t > hi + slack):
            raise RepresentationError(
                f"evaluation point outside domain [{lo}, {hi}]")

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        self._in_domain(t)
        if self.kind == POLYNOMIAL:
            return poly_eval(self.coeffs, t)
        if self.kind == CONJ_EXP:
            e, einv = self.exp_factory().pair(t)
            return self.epsilon * np.eye(self.n) + e @ self.w @ einv
        return self._sampled_eval(t)

    def _sampled_eval(self, t):
        """The samples at nodes of the grid, the Hermite spline elsewhere."""
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        left = np.searchsorted(self.grid, flat, side="right") - 1
        # left = -1 before the grid reads the last node, which no such point equals
        node = self.grid[left] == flat
        if node.all():
            out = self.values[left].astype(np.result_type(self.values, float), copy=False)
        else:
            if self._spline is None:
                self._spline = _hermite_coefficients(
                    self.grid, self.values, grid_derivative(self.grid, self.values, 1))
            out = _hermite_eval(self._spline, self.grid, flat, left)
            if node.any():
                out[node] = self.values[left[node]]
        return out.reshape(t.shape + self.shape)

    def jet(self, ts, orders) -> list:
        """The derivatives of the given orders (0 for the values) at the points
        ts, one array per order, each bitwise ``derivative(order).evaluate(ts)``.

        conj_exp takes all of them from one pair e^{tY}, e^{-tY}: the order-l
        derivative is e^{tY} ad_Y^l W e^{-tY}.  A polynomial differentiates its
        coefficient stack in place of building functions.
        """
        self._in_domain(ts)
        if self.kind == SAMPLED:
            return [self.derivative(order).evaluate(ts) for order in orders]
        out = {}
        if self.kind == CONJ_EXP:
            e, einv = self.exp_factory().pair(ts)
            eps, w = self.epsilon, self.w
            for order in range(max(orders) + 1):
                if order in orders:
                    out[order] = eps * np.eye(self.n) + e @ w @ einv
                eps, w = 0.0, linalg.commutator(self.upsilon, w)
        else:
            c = self.coeffs
            for order in range(max(orders) + 1):
                if order in orders:
                    out[order] = poly_eval(c, ts)
                c = poly_strip(poly_der(c))
        return [out[order] for order in orders]

    def derivative(self, order: int = 1):
        """Exact for the closed kinds; sampled grids differentiate by
        ``numutil.grid_derivative``."""
        if order == 0:
            return self
        cls = type(self)
        if self.kind == SAMPLED:
            return cls.sampled(self.grid, grid_derivative(self.grid, self.values, order),
                               note=self.note)
        if self.kind == CONJ_EXP:
            out = self._same_upsilon(0.0, linalg.commutator(self.upsilon, self.w))
            return out.derivative(order - 1)
        c = self.coeffs
        for _ in range(order):
            c = poly_strip(poly_der(c))
        return cls(POLYNOMIAL, self.domain, coeffs=c, note=self.note)

    def max_norm(self) -> float:
        return _max_norm(self.evaluate(np.linspace(self.domain[0], self.domain[1], 65)))


class ScalarFunction(_TimeFunction):
    """Scalar function of t: polynomial or sampled."""

    ndim = 0
    NAME = "scalar"
    KINDS = (POLYNOMIAL, SAMPLED)


class VectorFunction(_TimeFunction):
    """n-vector function of t: polynomial or sampled."""

    ndim = 1
    NAME = "vector"
    KINDS = (POLYNOMIAL, SAMPLED)


class MatrixFunction(_TimeFunction):
    """n x n matrix function of t in one of the three representations."""

    ndim = 2
    NAME = "matrix"
    KINDS = (POLYNOMIAL, CONJ_EXP, SAMPLED)

    @classmethod
    def conj_exp(cls, epsilon, upsilon, w, domain=(-1.0, 1.0)):
        return cls(CONJ_EXP, domain, epsilon=epsilon, upsilon=upsilon, w=w)

    def exp_factory(self):
        """``linalg.exp_factory(upsilon)``, built on first use and kept in the
        cell shared with every function derived with the same upsilon."""
        if self._exp[0] is None:
            self._exp[0] = linalg.exp_factory(self.upsilon)
        return self._exp[0]

    def _same_upsilon(self, epsilon, w) -> "MatrixFunction":
        """epsilon E + e^{tY} w e^{-tY} with this function's Y, domain and
        exponential factory."""
        out = MatrixFunction.conj_exp(epsilon, self.upsilon, w, self.domain)
        out._exp = self._exp
        return out

    def trace_split(self):
        """F = u*E + F0 with tr F0 = 0; returns (u: ScalarFunction, F0)."""
        n = self.n
        if self.kind == CONJ_EXP:
            # trace of a conjugation is conjugation-invariant
            u = self.epsilon + np.trace(self.w) / n
            w0 = self.w - (np.trace(self.w) / n) * np.eye(n)
            return ScalarFunction.constant(u, self.domain), self._same_upsilon(0.0, w0)
        if self.kind == SAMPLED:
            us = np.trace(self.values, axis1=1, axis2=2) / n
            f0 = self.values - us[:, None, None] * np.eye(n)
            return (ScalarFunction.sampled(self.grid, us, note=self.note),
                    MatrixFunction.sampled(self.grid, f0, note=self.note))
        us = np.trace(self.coeffs, axis1=1, axis2=2) / n
        return (ScalarFunction.polynomial(us, self.domain),
                MatrixFunction.polynomial(self.coeffs - us[:, None, None] * np.eye(n),
                                          self.domain))

    def trace_part(self):
        return self.trace_split()[0]

    def conjugate(self, c: np.ndarray) -> "MatrixFunction":
        """c F c^{-1}, staying closed in every representation."""
        c = np.asarray(c)
        cinv = np.linalg.inv(c)
        if self.kind == CONJ_EXP:
            return MatrixFunction.conj_exp(self.epsilon, c @ self.upsilon @ cinv,
                                           c @ self.w @ cinv, self.domain)
        if self.kind == SAMPLED:
            return MatrixFunction.sampled(self.grid, c @ self.values @ cinv, note=self.note)
        return MatrixFunction.polynomial(c @ self.coeffs @ cinv, self.domain)

    def scale(self, a) -> "MatrixFunction":
        if self.kind == CONJ_EXP:
            return self._same_upsilon(a * self.epsilon, a * self.w)
        if self.kind == SAMPLED:
            return MatrixFunction.sampled(self.grid, a * self.values, note=self.note)
        return MatrixFunction.polynomial(a * self.coeffs, self.domain)

    def add_scalar_identity(self, a) -> "MatrixFunction":
        eye = np.eye(self.n)
        if self.kind == CONJ_EXP:
            return self._same_upsilon(self.epsilon + a, self.w)
        if self.kind == SAMPLED:
            return MatrixFunction.sampled(self.grid, self.values + a * eye, note=self.note)
        return MatrixFunction.polynomial(poly_lincomb([(1.0, self.coeffs), (a, eye[None])]),
                                         self.domain)

    def compose_affine(self, alpha: float, beta: float) -> "MatrixFunction":
        """G with G(t) = F(alpha*t + beta); domain mapped accordingly."""
        if alpha == 0.0:
            raise RepresentationError("affine substitution must be invertible")
        lo, hi = self.domain
        a_lo, a_hi = (lo - beta) / alpha, (hi - beta) / alpha
        new_dom = (min(a_lo, a_hi), max(a_lo, a_hi))
        if self.kind == CONJ_EXP:
            # e^{(a t + b) Y} W e^{-(a t + b) Y} = e^{t (aY)} W' e^{-t (aY)}
            w = self.w
            if beta:
                ef = self.exp_factory()
                w = ef(beta) @ w @ ef(-beta)
            return MatrixFunction.conj_exp(self.epsilon, alpha * self.upsilon, w, new_dom)
        if self.kind == SAMPLED:
            new_grid = (self.grid - beta) / alpha
            vals = self.values
            if alpha < 0:
                new_grid = new_grid[::-1]
                vals = vals[::-1]
            return MatrixFunction.sampled(new_grid, vals, note=self.note)
        return MatrixFunction.polynomial(poly_compose_affine(self.coeffs, alpha, beta), new_dom)

    def is_traceless(self, tol: float = 1e-9) -> bool:
        """max |tr F| <= tol (1 + max ||F||), both over one evaluation at 32 probes."""
        vals = self.evaluate(np.linspace(self.domain[0], self.domain[1], 32))
        traces = np.trace(vals, axis1=1, axis2=2)
        return bool(np.max(np.abs(traces)) <= tol * (1.0 + _max_norm(vals)))


def k_span_length(upsilon: np.ndarray, w: np.ndarray,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension L of the K-span span{ad_Y^l W}, by Arnoldi on ad_Y from W.

    Each new direction [Y, q_j] is orthogonalised against the orthonormal
    basis q_0..q_j by Gram-Schmidt with one re-orthogonalisation pass, both
    passes classical (two matrix-vector products each; twice is enough for
    orthogonality to working precision).  The span ends once the remainder
    falls below rank_tol max(2 ||Y||_2, sqrt(||W||_2)), and at n^2 - n + 1,
    the largest dimension a cyclic subspace of ad_Y can have.  2 ||Y||_2
    bounds ||ad_Y||, and both terms scale like Y under t -> a t; a stop
    relative to ||[Y, q_j]|| itself would read rounding as a new direction
    when [Y, W] = 0.  Unlike the raw terms, whose norms grow like
    ||ad_Y||^l, the basis stays well conditioned.
    """
    upsilon = np.asarray(upsilon)
    w = np.asarray(w)
    n = w.shape[0]
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return 1
    stop = cfg.rank_tol * max(2.0 * float(np.linalg.norm(upsilon, 2)),
                              float(np.sqrt(np.linalg.norm(w, 2))))
    q = np.zeros((n * n - n + 1, n * n), dtype=np.result_type(upsilon, w, float))
    q[0] = w.reshape(-1) / norm
    length = 1
    while length < len(q):
        m = q[length - 1].reshape(n, n)
        v = (upsilon @ m - m @ upsilon).reshape(-1)
        for _ in range(2):
            v = v - (q[:length].conj() @ v) @ q[:length]
        rest = float(np.linalg.norm(v))
        if not linalg.cut([rest], stop).rank:
            break
        q[length] = v / rest
        length += 1
    return length


def kl_sequence_with_tail(upsilon: np.ndarray, w: np.ndarray,
                          cfg: ToleranceConfig = DEFAULT_TOL):
    """K-list K_0..K_{L-1} over the K-span of dimension L, its tail K_L and
    ||K_L|| / max_l ||K_l||.

    L comes from ``k_span_length``; the raw terms from the recursion.  A tail
    ratio ~0 means the sequence terminates at zero.  A reference helper: the
    library reads the K-span through samples of V(t), never through these
    raw terms, whose norms grow like ||ad_Y||^l.
    """
    upsilon = np.asarray(upsilon)
    w = np.asarray(w)
    mats = [w]
    for _ in range(k_span_length(upsilon, w, cfg)):
        mats.append(linalg.commutator(upsilon, mats[-1]))
    tail = mats.pop()
    scale = max(float(np.linalg.norm(m)) for m in mats)
    return mats, tail, float(np.linalg.norm(tail)) / max(scale, 1e-300)
