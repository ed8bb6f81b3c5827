"""Essential symmetry algebras of V-class systems and similarity tests.

A symmetry of x_tt = V(t) x is a vector field tau d_t + ((1/2)tau_t x^a
+ Gamma^{ab} x^b + chi^a) d_{x^a} whose data satisfies the classifying
condition

    tau V_t = [Gamma, V] - 2 tau_t V + (1/2) tau_ttt E.

The essential algebra decomposes as <I> + (t-part |x s^vf): the scaling field
I is always present, s is the centralizer of the coefficient orbit inside
sl(n), and the t-part has dimension k <= 2 for regular systems.  Structured
(t-shift-invariant) coefficients V = eps E + e^{tY} W e^{-tY} are classified
through the K-span span{ad_Y^l W}: its dimension L comes from Arnoldi on ad_Y
(``matfun.k_span_length``), and one set of L samples V(t_j)
(``k_span_samples``, conjugating by V's own ``linalg.exp_factory``) serves
every other consumer: s is their centralizer, and the graded relation and the
improper branch are each one least-squares solve at the samples, confirmed
pointwise against the classifying condition.  The similarity witness is posed
at samples of both sides in the same way.  The raw terms K_l = ad_Y^l W, whose
norms grow like ||ad_Y||^l, are never formed.  General polynomial and sampled
coefficients go through one linear system, the ``_condition_rows`` of the
classifying condition at probe points: d + 2 of them with an exact rank cut
for a polynomial V of degree d, 64 with a spectral-gap cut for sampled data.
Every k = 2 t-part, from either solver or from the structured route's graded
relation, is brought to [P, D] = P by ``_normalize_k2``.  Every residual of
the classifying condition comes from ``_classifying_residuals``, one stacked
pass per probe interval: V and V_t from one ``MatrixFunction.jet`` (one pair
e^{tY}, e^{-tY} for conj_exp), the commutators of every field from one
product each, and no tau terms for the fields with tau = 0.  Every
nilpotency and zero-eigenvalue decision (the graded relation's prefilter on
W, the n = 2 generator types, the Jordan structure of V(0) and the alpha
matching in the similarity test) is read from one ``linalg.staircase``.

The field sets the Lie algebra; the data sets the arithmetic.  The solvers,
the structured route and the similarity witness compute in the dtype of
their data (and of alpha, which the real field passes as a float), so real
data gives a real t-part, s and witness in either field.  Nothing here casts
data to complex and back; ``linalg._real_if_rounding`` is the one place an
imaginary part is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .gauge import (BARL, HOMOGENEOUS, LPRIME, SystemDescriptor, gauge_traceless, reduce,
                    singular_class_test)
from .linalg import SubspaceBasis
from .matfun import (CONJ_EXP, POLYNOMIAL, SAMPLED, MatrixFunction, ScalarFunction,
                     VectorFunction, k_span_length, poly_lincomb, poly_wronskian)
from .scalars import DEFAULT_TOL, Field, ToleranceConfig

PROBES = 64
# the cut of ``_nullspace_by_spectral_gap``: floor and band relative to s_max
GAP_FLOOR_REL, GAP_BAND_REL, GAP_MIN = 1e-12, 1e-4, 100.0
WITNESS_TOL = 1e-8  # relative residual bound of a similarity witness
WINDOW_SPREAD = 4.0  # sampling window times Y's eigenvalue spread (``_sample_step``)


class ClassificationError(RuntimeError):
    pass


@dataclass
class SymmetryVectorField:
    """Symmetry data (tau, Gamma[, chi]); class-L systems carry eta instead."""

    tau: ScalarFunction
    gamma: np.ndarray | None = None
    chi: VectorFunction | None = None
    eta: MatrixFunction | None = None

    def eta_function(self, n: int, domain) -> MatrixFunction:
        """eta(t) = (1/2) tau_t E + Gamma as a matrix function (V-class form)."""
        if self.eta is not None:
            return self.eta
        gamma = self.gamma if self.gamma is not None else np.zeros((n, n))
        if self.tau.kind == POLYNOMIAL:
            taut = self.tau.derivative(1).coeffs
            eta = (0.5 * taut)[:, None, None] * np.eye(n, dtype=np.result_type(taut, gamma))
            eta[0] += gamma
            return MatrixFunction.polynomial(eta, domain)
        grid = self.tau.grid
        taut = self.tau.derivative(1).evaluate(grid)
        vals = 0.5 * taut[:, None, None] * np.eye(n) + gamma
        return MatrixFunction.sampled(grid, vals)

    def drop_chi(self) -> "SymmetryVectorField":
        return SymmetryVectorField(tau=self.tau, gamma=self.gamma, eta=self.eta)


@dataclass
class EssentialAlgebra:
    """Computed structure <I> + (t-part |x s^vf) of the essential algebra."""

    k: int
    t_part: list  # list of (tau: ScalarFunction, lam: ndarray traceless)
    s_basis: SubspaceBasis
    n: int
    field: Field
    improper_shift_flag: bool = False
    notes: list = dc_field(default_factory=list)
    confidence_gap: float | None = None
    verification_residual: float | None = None

    def verify_against(self, v_fun: MatrixFunction) -> float:
        """Max classifying-condition residual over every computed basis field:
        the identity, the s-basis and the t-part."""
        zero = ScalarFunction.constant(0.0, v_fun.domain)
        fields = ([SymmetryVectorField(tau=zero, gamma=np.eye(self.n))]
                  + [SymmetryVectorField(tau=zero, gamma=g) for g in self.s_basis.mats]
                  + [SymmetryVectorField(tau=tau, gamma=gamma) for tau, gamma in self.t_part])
        worst = max(_classifying_residuals(v_fun, fields))
        self.verification_residual = worst
        return worst

    @property
    def dim_s(self) -> int:
        return self.s_basis.dim

    @property
    def dim_ess(self) -> int:
        return 1 + self.s_basis.dim + self.k

    @property
    def dim_total(self) -> int:
        return self.dim_ess + 2 * self.n


def verify_symmetry(v_fun: MatrixFunction, q: SymmetryVectorField) -> float:
    """Residual of the classifying condition, maximized over probe points."""
    return _classifying_residuals(v_fun, [q])[0]


def _probe_values(v_fun: MatrixFunction, lo, hi, probes: int):
    """The probe points on [lo, hi] with V and V_t there."""
    ts = np.linspace(lo, hi, probes)
    return (ts, *v_fun.jet(ts, (0, 1)))


def _spans(fun: MatrixFunction, fields) -> dict:
    """The fields' indices grouped by the interval where fun and their tau are
    both defined, in order of first appearance."""
    groups = {}
    for i, q in enumerate(fields):
        span = (max(fun.domain[0], q.tau.domain[0]), min(fun.domain[1], q.tau.domain[1]))
        groups.setdefault(span, []).append(i)
    return groups


def _classifying_residuals(v_fun: MatrixFunction, fields) -> list:
    """Residual of tau V_t = [Gamma, V] - 2 tau_t V + (1/2) tau_ttt E for each
    (tau, Gamma) field, maximized over the PROBES of the interval where V and
    tau are both defined.

    One pass per such interval: V and V_t come from one ``jet``, the
    commutators of every field from one stacked product each, and the norms
    from one call.  A field with tau = 0 leaves out the tau terms, which add
    exact zeros.
    """
    n = v_fun.n
    out = [0.0] * len(fields)
    for span, idx in _spans(v_fun, fields).items():
        ts, v, vt = _probe_values(v_fun, *span, PROBES)
        gammas = np.stack([fields[i].gamma if fields[i].gamma is not None
                           else np.zeros((n, n)) for i in idx])
        comm = np.einsum("fij,tjk->ftik", gammas, v)
        comm -= np.einsum("tij,fjk->ftik", v, gammas)
        rows = {}
        for j, i in enumerate(idx):
            q = fields[i]
            if q.tau.kind == POLYNOMIAL and not np.any(q.tau.coeffs):
                continue
            tau, tau1, tau3 = q.tau.jet(ts, (0, 1, 3))
            rows[j] = (tau[:, None, None] * vt - comm[j] + 2.0 * tau1[:, None, None] * v
                       - 0.5 * tau3[:, None, None] * np.eye(n))
        # a field with tau = 0 keeps [Gamma, V], whose norm is its residual's
        resid = comm.astype(np.result_type(comm, vt, *rows.values()), copy=False)
        for j, row in rows.items():
            resid[j] = row
        for i, worst in zip(idx, np.max(np.linalg.norm(resid, axis=(2, 3)), axis=1)):
            out[i] = float(worst)
    return out


def verify_symmetry_homogeneous(a_fun: MatrixFunction, b_fun: MatrixFunction, fields) -> list:
    """Residual of the two classifying conditions for x_tt = A x_t + B x, one
    per field, maximized over the PROBES of the interval where A and tau are
    both defined.

    One pass per such interval: A, A_t, B and B_t come from one ``jet`` each,
    the brackets of every field from one stacked product each, and the norms
    from one call.
    """
    n = a_fun.n

    def brk(x, y):
        """[x_f, y] for the stack x of the fields' matrices and the shared y."""
        return np.einsum("ftij,tjk->ftik", x, y) - np.einsum("tij,ftjk->ftik", y, x)

    out = [0.0] * len(fields)
    for span, idx in _spans(a_fun, fields).items():
        ts = np.linspace(*span, PROBES)
        a, at = a_fun.jet(ts, (0, 1))
        b, bt = b_fun.jet(ts, (0, 1))
        taus = np.stack([fields[i].tau.jet(ts, (0, 1, 2)) for i in idx])[..., None, None]
        etas = np.stack([fields[i].eta_function(n, span).jet(ts, (0, 1, 2)) for i in idx])
        tau, tau1, tau2 = taus[:, 0], taus[:, 1], taus[:, 2]
        eta, eta1, eta2 = etas[:, 0], etas[:, 1], etas[:, 2]
        r1 = tau * at - brk(eta, a) + tau1 * a - 2.0 * eta1 + tau2 * np.eye(n)
        r2 = (tau * bt - brk(eta, b) + 2.0 * tau1 * b
              + np.einsum("tij,ftjk->ftik", a, eta1) - eta2)
        worst = np.maximum(np.max(np.linalg.norm(r1, axis=(2, 3)), axis=1),
                           np.max(np.linalg.norm(r2, axis=(2, 3)), axis=1))
        for i, w in zip(idx, worst):
            out[i] = float(w)
    return out


# ---------------------------------------------------------------------------
# classifying-condition solvers


def _condition_rows(ts, v, vt):
    """Rows in (c0, c1, c2, vec Gamma) of the classifying condition at probes ts.

    Per probe, the n^2 rows of (c0 + c1 t + c2 t^2) V_t + (2 c1 + 4 c2 t) V
    - [Gamma, V] = 0, from the stacks v and vt of V and V_t there.
    """
    p, n = v.shape[0], v.shape[-1]
    t = ts[:, None, None]
    rows = np.zeros((p, n * n, 3 + n * n), dtype=np.result_type(v, vt, float))
    for col, m in enumerate((vt, t * vt + 2.0 * v, t * t * vt + 4.0 * t * v)):
        rows[:, :, col] = np.swapaxes(m, 1, 2).reshape(p, n * n)
    rows[:, :, 3:] = -linalg.ad_operator(v)
    return rows.reshape(p * n * n, 3 + n * n)


def _nullspace_by_spectral_gap(a):
    """Nullspace with the rank cut at the first large singular-value gap.

    Finite-difference noise lifts the should-be-zero singular values of
    sampled-data systems well above machine precision, so a fixed threshold
    either loses genuine directions or admits spurious ones.  Scanning from
    the top, the cut is placed at the first boundary whose discarded tail is
    plausibly zero (below GAP_BAND_REL * s_max) and whose gap ratio exceeds
    GAP_MIN; the machine-precision tier below the noise tier then stays inside
    the nullspace.  Returns (basis, boundary gap ratio).
    """
    # a tall matrix needs only the thin factors; a wide one the full vh
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    ncols = vh.shape[0]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(ncols, dtype=a.dtype), np.inf
    floor = GAP_FLOOR_REL * s[0]

    def gap(rank):
        below = s[rank] if rank < len(s) else floor
        return below, float(s[rank - 1] / max(below, 1e-300)) if rank else np.inf

    for rank in range(1, len(s) + 1):
        below, ratio = gap(rank)
        if below <= GAP_BAND_REL * s[0] and ratio >= GAP_MIN:
            break
    else:
        rank = linalg.cut(s, floor).rank
        ratio = gap(rank)[1]
    return vh[rank:].conj().T, ratio


def _build_algebra(null_vecs, n, fld, domain, cfg, note, gap=None):
    """Turn classifying-condition nullspace vectors into an EssentialAlgebra."""
    nv = null_vecs.T  # rows are solutions
    if nv.shape[0] == 0:
        raise ClassificationError("empty solution space; the scaling field is always "
                                  "a solution, so this is a numerical failure")
    taus = nv[:, :3]
    # nullspace rows are unit vectors of a scale-normalized problem, so the
    # tau-block rank is decided against an absolute floor, not s_max-relative
    u, sv, _ = np.linalg.svd(taus)
    k = linalg.cut(sv, 1e-6).rank
    if k > 0:
        mix = u.conj().T @ nv
        t_rows = mix[:k]
        z_rows = mix[k:]
        z_rows[:, :3] = 0.0
    else:
        t_rows = nv[:0]
        z_rows = nv
    # tau = 0 part: split off the identity direction, keep the sl(n) ideal
    zmats = [z_rows[i, 3:].reshape(n, n, order="F") for i in range(z_rows.shape[0])]
    s_mats = [m - (np.trace(m) / n) * np.eye(n) for m in zmats]
    s_mats = [m for m in s_mats if linalg.frobenius_norm(m) > 1e-8]
    if s_mats:
        # removing the trace can make the elements dependent: keep an
        # orthonormal basis of their span
        flat = np.stack([m.reshape(-1, order="F") for m in s_mats])
        _, sv, vh = np.linalg.svd(flat, full_matrices=False)
        s_mats = [v.conj().reshape(n, n, order="F")
                  for v in vh[:linalg.cut(sv, cfg.rank_tol * sv[0]).rank]]
    s_basis = SubspaceBasis(mats=s_mats, n=n, in_sl=True)
    t_part = []
    for i in range(k):
        c = t_rows[i, :3]
        gamma = t_rows[i, 3:].reshape(n, n, order="F")
        gamma = gamma - (np.trace(gamma) / n) * np.eye(n)
        t_part.append((ScalarFunction.polynomial(c, domain), gamma))
    notes = [note] if note else []
    ess = EssentialAlgebra(k=k, t_part=t_part, s_basis=s_basis, n=n, field=fld,
                           notes=notes, confidence_gap=gap)
    if k == 2:
        _normalize_k2(ess, cfg)
    return ess


def bracket_normal_partner(a, b):
    """(c, d) with ad - bc = 1: if [Q1, Q2] = a Q1 + b Q2, then X = a Q1 + b Q2
    and Y = c Q1 + d Q2 have [X, Y] = X.  The larger of |a|, |b| is divided by."""
    if abs(a) > abs(b):
        return 0.0, 1.0 / a
    return -1.0 / b, 0.0


def _normalize_k2(ess: EssentialAlgebra, cfg: ToleranceConfig) -> None:
    """Recombine the two t-fields so [P, D] = P, with Jordan-splitting cleanup.

    Serves both solvers and the structured route's graded relation.  D's
    matrix becomes its semisimple part D_s if the nilpotent part lies in s, and
    P's its hat-part with respect to D_s if the check-part lies in s; both stay
    inside the computed algebra.  A sampled tau (improper branch) is left as is.
    """
    (tau1, g1), (tau2, g2) = ess.t_part
    if tau1.kind != POLYNOMIAL or tau2.kind != POLYNOMIAL:
        return
    c1, c2 = (poly_lincomb([(1.0, tau.coeffs[:3])], 3) for tau in (tau1, tau2))
    w = poly_wronskian(c1, c2)
    basis = np.stack([np.concatenate([c1, np.zeros(2)]),
                      np.concatenate([c2, np.zeros(2)])])
    coef = linalg.span_solve(basis.T, w, 1e-8)
    if coef is None:
        ess.notes.append("t-part bracket did not close on tau components; "
                         "left unnormalized")
        return
    a, b = coef
    c, d = bracket_normal_partner(a, b)
    tau_x = a * c1 + b * c2
    tau_y = c * c1 + d * c2
    gx = a * g1 + b * g2
    gy = c * g1 + d * g2
    try:
        gy_s, gy_n = linalg.jordan_chevalley(gy, cfg)
        if ess.s_basis.contains(gy_n):
            gy = gy_s
        gx_hat, gx_check = linalg.hat_check_split(gx, gy_s, cfg)
        if ess.s_basis.contains(gx_check):
            gx = gx_hat
    except linalg.LinalgError:
        ess.notes.append("k=2 Jordan normalization skipped (defective data)")
    dom = tau1.domain
    ess.t_part = [(ScalarFunction.polynomial(tau_x, dom), gx),
                  (ScalarFunction.polynomial(tau_y, dom), gy)]
    ess.notes.append("t-part normalized to bracket form [P, D] = P")


def solve_symmetries_traceless_poly(v_fun: MatrixFunction,
                                    cfg: ToleranceConfig = DEFAULT_TOL,
                                    fld: Field | None = None,
                                    trace_part=None) -> EssentialAlgebra:
    """Pointwise solve of the classifying condition for polynomial V.

    With d = max(deg V, deg u), the condition is a polynomial identity of
    degree d + 1 in t, so the ``_condition_rows`` at d + 2 probes vanish iff
    it does; the nullspace takes the relative ``rank_tol`` cut.  V must be
    traceless, or trace_part supplies the coefficients of the scalar
    polynomial u, whose compatibility equation tau u_t + 2 tau_t u = 0 adds
    the same three tau columns for u at the probes; candidates failing it
    drop out of the joint nullspace.
    """
    if v_fun.kind != POLYNOMIAL:
        raise ClassificationError("polynomial solver needs a polynomial V")
    n = v_fun.n
    fld = fld or v_fun.field
    if trace_part is None and not v_fun.is_traceless(cfg.residual_tol):
        raise ClassificationError("input is not traceless; split the trace first")
    if max(linalg.frobenius_norm(c) for c in v_fun.coeffs) <= cfg.residual_tol:
        raise ClassificationError("singular class; use singular path")
    u_fun = ScalarFunction.polynomial(trace_part, v_fun.domain) \
        if trace_part is not None else None
    degree = max(v_fun.degree(), u_fun.degree() if u_fun is not None else 0)
    ts, v, vt = _probe_values(v_fun, *v_fun.domain, degree + 2)
    # solutions of the classifying condition are invariant under scaling V,
    # so normalize to keep tau and Gamma components balanced in the nullspace;
    # the trace rows are homogeneous on their own and get their own scale
    rows = _condition_rows(ts, v, vt) / float(np.max(np.abs(v)))
    note = f"classifying condition solved pointwise at {degree + 2} probes"
    if u_fun is not None:
        u = u_fun.evaluate(ts)
        u_rows = _condition_rows(ts, u[:, None, None],
                                 u_fun.derivative(1).evaluate(ts)[:, None, None])[:, :3]
        u_rows = u_rows / max(float(np.max(np.abs(u))), 1e-300)
        rows = np.vstack([rows, np.pad(u_rows, ((0, 0), (0, n * n)))])
        note += "; non-traceless input handled by the trace compatibility filter " \
                "(complete for polynomial coefficients)"
    null = linalg.nullspace(rows, cfg.rank_tol)
    return _build_algebra(null, n, fld, v_fun.domain, cfg, note)


def solve_symmetries_sampled(v_fun: MatrixFunction,
                             cfg: ToleranceConfig = DEFAULT_TOL,
                             fld: Field | None = None) -> EssentialAlgebra:
    """Discretized classifying-condition solve for sampled traceless V."""
    if v_fun.kind != SAMPLED:
        raise ClassificationError("sampled solver needs a sampled V")
    if len(v_fun.grid) < 32:
        raise ClassificationError("sampled solver needs a grid of at least 32 points")
    n = v_fun.n
    fld = fld or v_fun.field
    if not v_fun.is_traceless(100 * cfg.residual_tol):
        raise ClassificationError("input is not traceless; gauge the trace away first")
    if v_fun.max_norm() <= cfg.residual_tol:
        raise ClassificationError("singular class; use singular path")
    ts, v, vt = _probe_values(v_fun, *v_fun.domain, PROBES)
    # each probe's n^2 rows over that probe's max(1, max |V(t_j)|): where V
    # spans orders of magnitude over the domain, one scale for all probes
    # would sink the rows of the small probes below the gap band
    scale = np.maximum(1.0, np.max(np.abs(v), axis=(1, 2)))
    a = _condition_rows(ts, v, vt) / np.repeat(scale, n * n)[:, None]
    # finite-difference noise on sampled data pushes the should-be-zero
    # singular values well above machine precision; cut at the dominant
    # spectral gap inside the plausibly-zero band instead of a fixed level
    null, gap = _nullspace_by_spectral_gap(a)
    note = "sampled classifying-condition solve"
    ess = _build_algebra(null, n, fld, v_fun.domain, cfg, note, gap=gap)
    if np.isfinite(gap) and gap < 10.0:
        ess.notes.append(f"ill-separated singular values (gap {gap:.2f} < 10); "
                         "dimension inconclusive")
    return ess


# ---------------------------------------------------------------------------
# structured (t-shift-invariant) classification


def _ad_solve(ks, rs):
    """X with [X, K_j] = R_j for the stacks ks and rs, in least squares, or None.

    Each condition's rows are divided by max(||K_j||, ||R_j||, 1); X counts as
    a solution when the residual is at most 1e-7 (1 + the norm of the scaled
    right-hand side).
    """
    n = ks.shape[-1]
    dtype = np.result_type(ks, rs, float)
    scale = np.maximum(np.maximum(np.linalg.norm(ks, axis=(1, 2)),
                                  np.linalg.norm(rs, axis=(1, 2))), 1.0)[:, None, None]
    a = (linalg.ad_operator(ks.astype(dtype)) / scale).reshape(-1, n * n)
    # column-major vec of each R_j, as ad_operator acts on vec(X)
    b = (np.swapaxes(rs, 1, 2) / scale).astype(dtype).reshape(-1)
    sol = linalg.span_solve(a, b, 1e-7)
    return None if sol is None else sol.reshape(n, n, order="F")


def classify_structured(eps, upsilon: np.ndarray, w: np.ndarray,
                        cfg: ToleranceConfig = DEFAULT_TOL,
                        fld: Field = Field.REAL,
                        domain=(-1.0, 1.0)) -> EssentialAlgebra:
    """Essential algebra of V = eps E + e^{tY} W e^{-tY}.

    The centralizer of the K-span gives s; the t-shift field guarantees
    k >= 1.  A second t-field exists iff a candidate from the graded relation
    [Lam, V0(t)] = 2 V0(t) + t V0_t(t) (proper, tau = t) or from the
    exponential branches tau = e^{+-2 sqrt(eps) t} (improper, eps != 0),
    solved at the K-span samples, verifies against the classifying condition;
    the improper case raises the shift flag.  A proper pair goes through
    ``_normalize_k2`` like the solvers' k = 2 t-parts.
    """
    return _classify_conj_exp(MatrixFunction.conj_exp(eps, upsilon, w, domain),
                              cfg, fld, domain)


def _classify_conj_exp(v_in: MatrixFunction, cfg: ToleranceConfig, fld: Field,
                       domain) -> EssentialAlgebra:
    """``classify_structured`` of the conj_exp function v_in on domain."""
    upsilon, w = v_in.upsilon, v_in.w
    n = w.shape[0]
    eps_eff = v_in.epsilon + np.trace(w) / n
    # the same V with W's trace moved into epsilon; it keeps v_in's Y, whose
    # trace the conjugation does not see, and with it v_in's exponential factory
    v_fun = v_in.trace_split()[1].add_scalar_identity(eps_eff)
    w0 = v_fun.w
    if linalg.frobenius_norm(w0) <= cfg.residual_tol:
        raise ClassificationError("singular class; use singular path")
    ups0 = upsilon - (np.trace(upsilon) / n) * np.eye(n)
    length = k_span_length(ups0, w0, cfg)
    # one sample set for s, the graded relation and the improper branch: two
    # solutions of a relation at the samples differ by an element of their
    # centralizer, which commutes with every V(t)
    ts, vs = k_span_samples(ups0, w0, length, v_fun.exp_factory())
    s_basis = linalg.centralizer_basis(vs, restrict_traceless=True, cfg=cfg)
    vs_t = ups0 @ vs - vs @ ups0
    notes = [f"structured classification; K-span length {length}"]
    t_part = [(ScalarFunction.constant(1.0, domain), ups0)]
    k = 1
    improper = False
    v_max = v_fun.max_norm()
    if not np.isfinite(v_max):
        raise FloatingPointError(f"V is not finite on the domain (max norm {v_max})")
    verify_tol = max(cfg.residual_tol, 1e-6 * (1.0 + v_max))
    # [Lam, W] = 2 W makes W nilpotent, and every V(t) is similar to W
    if linalg.is_nilpotent(w0, cfg):
        # [Lam, V(t)] = 2 V(t) + t V_t(t), the graded relation [Lam, K_l] = (l+2) K_l
        lam = _ad_solve(vs, 2.0 * vs + ts[:, None, None] * vs_t)
        if lam is not None:
            q_d = SymmetryVectorField(tau=ScalarFunction.polynomial([0.0, 1.0], domain),
                                      gamma=lam)
            if verify_symmetry(v_fun, q_d) <= verify_tol:
                lam0 = lam - (np.trace(lam) / n) * np.eye(n)
                t_part.append((q_d.tau, lam0))
                notes.append("second t-field tau = t from the graded relation")
                k = 2
    if k == 1 and abs(eps_eff) > cfg.residual_tol:
        # a real eps > 0 has a real root; the real field takes no other: with
        # eps < 0 the branches would come as a cos/sin pair, forcing k = 3,
        # impossible for regular systems
        root = np.emath.sqrt(eps_eff)
        branches = ([2.0 * root, -2.0 * root]
                    if fld is Field.COMPLEX or np.isrealobj(root) else [])
        found = []
        for g0 in branches:
            # [Gamma0, V0(t)] = e^{g0 t} (V0_t + 2 g0 V0) for tau = e^{g0 t}
            gamma0 = _ad_solve(vs, np.exp(g0 * ts)[:, None, None] * (vs_t + 2.0 * g0 * vs))
            if gamma0 is None:
                continue
            gamma0 = gamma0 - (np.trace(gamma0) / n) * np.eye(n)
            grid = np.linspace(domain[0], domain[1], 2049)
            tau = ScalarFunction.sampled(grid, np.exp(g0 * grid))
            q = SymmetryVectorField(tau=tau, gamma=gamma0)
            if verify_symmetry(v_fun, q) <= verify_tol:
                found.append((tau, gamma0, g0))
        if len(found) > 1:
            raise ClassificationError("both improper branches verified: k >= 3, "
                                      "which only singular systems admit; "
                                      "check the singular test inputs")
        if found:
            tau, gamma0, g0 = found[0]
            t_part.append((tau, gamma0))
            k = 2
            improper = True
            notes.append(f"improper t-shift pair with exponent {g0:g}")
    ess = EssentialAlgebra(k=k, t_part=t_part, s_basis=s_basis, n=n, field=fld,
                           improper_shift_flag=improper, notes=notes)
    if k == 2:
        _normalize_k2(ess, cfg)
    return ess


def _sample_step(count: int, *upsilons) -> float:
    """Step of ``count`` samples of V(t) = e^{tY} W e^{-tY}, for every Y given.

    V(t) is a sum of terms e^{wt} (times powers of t) over the eigenvalues
    w = mu_i - mu_j of ad_Y, mu those of Y, so evenly spaced samples span the
    K-span as long as no two e^{wh} coincide.  h = 1 / (count - 1), cut to
    pi / (2 spread) where spread = max Im mu - min Im mu, keeps the phases
    h Im w within a half turn of each other: e^{hY} = -I, as for
    Y = pi [[0, 1], [-1, 0]] and h = 1, would otherwise make every sample equal.
    A second cut keeps the window (count - 1) h times max |mu_i - mu_j| at most
    WINDOW_SPREAD, so the window scales like 1 / Y, as t -> a t asks.  Both
    take the largest spreads over the Y given.
    """
    h = 1.0 / (count - 1)
    mus = [np.linalg.eigvals(u) for u in upsilons]
    spread = max(float(np.ptp(mu.imag)) for mu in mus)
    rho = max(float(np.max(np.abs(mu[:, None] - mu[None, :]))) for mu in mus)
    if spread * h > np.pi / 2:
        h = np.pi / (2.0 * spread)
    if rho * h * (count - 1) > WINDOW_SPREAD:
        h = WINDOW_SPREAD / (rho * (count - 1))
    return h


def k_span_samples(upsilon: np.ndarray, w: np.ndarray, count: int, ef=None, step=None):
    """Times t_j and samples V(t_j) = e^{t_j Y} W e^{-t_j Y}, j < count, as
    (count,) and (count, n, n) arrays.

    The times are evenly spaced around t = 0, by ``step`` or else by
    ``_sample_step(count, Y)``.  Taken at the dimension L of the K-span, the
    samples span it and, unlike the raw terms K_l, carry only the rounding of
    a few conjugations.  The first sample and the step e^{hY} come from
    ``ef``, a ``linalg.exp_factory`` of Y or of Y plus a multiple of E, whose
    trace the conjugation does not see; without one, a factory of Y is
    built.  Each further sample is the one before conjugated by e^{hY}.  A
    single sample is W itself, at t = 0.
    """
    w = np.asarray(w)
    if count == 1:
        return np.zeros(1), w[None]
    h = step if step is not None else _sample_step(count, upsilon)
    t0 = -0.5 * h * (count - 1)
    e0, e0_inv, e_h, e_h_inv = (ef or linalg.exp_factory(upsilon))(
        np.array([t0, -t0, h, -h]))
    samples = [e0 @ w @ e0_inv]
    for _ in range(count - 1):
        samples.append(e_h @ samples[-1] @ e_h_inv)
    return t0 + h * np.arange(count), np.stack(samples)


def k_span_centralizer(upsilon: np.ndarray, w: np.ndarray, length: int,
                       cfg: ToleranceConfig = DEFAULT_TOL, ef=None) -> SubspaceBasis:
    """Centralizer in sl(n) of the K-span of W under ad_Y, of dimension ``length``,
    taken over ``k_span_samples(upsilon, w, length, ef)``."""
    return linalg.centralizer_basis(k_span_samples(upsilon, w, length, ef)[1],
                                    restrict_traceless=True, cfg=cfg)


# ---------------------------------------------------------------------------
# dispatcher, n=2 case labels


@dataclass
class ClassificationReport:
    singular: bool
    n: int
    field: Field
    dim_total: int
    k: int | None = None
    dim_s: int | None = None
    dim_ess: int | None = None
    case_label: str | None = None
    improper_shift: bool = False
    essential: EssentialAlgebra | None = None
    notes: list = dc_field(default_factory=list)


def classify(sys: SystemDescriptor) -> ClassificationReport:
    """Full classification pipeline for a system in any gauge class.

    Singular systems report the projective algebra dimension (n+2)^2 - 1;
    regular ones are gauged to the V-class and dispatched to the structured,
    exact-polynomial or sampled solver, with an n=2 case label attached.
    """
    cfg = sys.cfg
    n = sys.n
    notes = []
    if singular_class_test(sys):
        return ClassificationReport(singular=True, n=n, field=sys.field,
                                    dim_total=(n + 2) ** 2 - 1,
                                    notes=["singular class: similar to the free "
                                           "particle; algebra isomorphic to "
                                           f"sl({n + 2})"])
    work = sys
    if sys.cls in (BARL, HOMOGENEOUS):
        work = reduce(sys, LPRIME).system
        if sys.cls == BARL:
            notes.append("gauged f to zero")
        notes.append("gauged A to zero")
    v_fun = work.V
    fld = sys.field
    if v_fun.kind == CONJ_EXP or v_fun.degree() == 0:
        if v_fun.kind == CONJ_EXP:
            ess = _classify_conj_exp(v_fun, cfg, fld, work.domain)
        else:
            ess = classify_structured(0.0, np.zeros((n, n)), v_fun.value,
                                      cfg, fld, work.domain)
        notes.append("structured (t-shift-invariant) route")
    elif v_fun.kind == POLYNOMIAL:
        if v_fun.is_traceless(cfg.residual_tol):
            ess = solve_symmetries_traceless_poly(v_fun, cfg, fld)
        else:
            # exponential-tau symmetries require exponential coefficients, so
            # the degree-2 ansatz plus the trace filter is complete here
            u, v0 = v_fun.trace_split()
            ess = solve_symmetries_traceless_poly(v0, cfg, fld,
                                                  trace_part=u.coeffs.tolist())
        notes.append("polynomial coefficient route")
    else:
        if v_fun.is_traceless(cfg.residual_tol):
            ess = solve_symmetries_sampled(v_fun, cfg, fld)
        else:
            ts = gauge_traceless(work)
            notes.append("trace gauged away before the sampled solve; " + ts.provenance)
            work = ts.system
            ess = solve_symmetries_sampled(work.V, cfg, fld)
        notes.append("sampled route")
    resid = ess.verify_against(work.V)
    if not np.isfinite(resid):
        raise ClassificationError(f"classifying-condition residual of the computed "
                                  f"basis is {resid}; the basis is not verified")
    notes.append(f"classifying-condition residual of the computed basis: {resid:.3g}")
    label = label_case_n2(ess, v_fun, fld, cfg) if n == 2 else None
    return ClassificationReport(singular=False, n=n, field=fld,
                                dim_total=ess.dim_total, k=ess.k, dim_s=ess.dim_s,
                                dim_ess=ess.dim_ess, case_label=label,
                                improper_shift=ess.improper_shift_flag,
                                essential=ess, notes=notes + ess.notes)


def _generator_type(g: np.ndarray, cfg: ToleranceConfig, fld: Field) -> str:
    if linalg.is_nilpotent(g, cfg):
        return "nilpotent"
    if fld is Field.REAL and any(c.promoted for c in linalg.eig_clustered(g, cfg)):
        return "complex_pair"
    return "split"


CASE_BASIS_TEXT = {
    "0": "<I>",
    "1": "<I, x2 d_x1>",
    "2": "<I, x1 d_x1 - x2 d_x2>",
    "3": "<I, d_t + x2 d_x1>",
    "4": "<I, d_t + x1 d_x1 - x2 d_x2>",
    "5": "<I, x2 d_x1, d_t + g (x1 d_x1 - x2 d_x2)>",
    "6": "<I, x1 d_x1 - x2 d_x2, d_t>",
    "7": "<I, x2 d_x1, d_t, t d_t + 2 x1 d_x1>",
    "1R": "<I, x1 d_x2 - x2 d_x1>",
    "3R": "<I, d_t + x2 d_x1 - x1 d_x2>",
    "5R": "<I, x1 d_x2 - x2 d_x1, d_t>",
}


def label_case_n2(ess: EssentialAlgebra, v_fun: MatrixFunction, fld: Field,
                  cfg: ToleranceConfig = DEFAULT_TOL) -> str:
    """Decision tree on (k, dim s, conjugacy types) for the n=2 table."""
    if ess.n != 2:
        raise ClassificationError("case labels are defined for n = 2 only")
    k, p = ess.k, ess.dim_s
    if k == 2:
        return "7"
    if k == 0 and p == 0:
        return "0"
    if k == 0 and p == 1:
        t = _generator_type(ess.s_basis.mats[0], cfg, fld)
        return {"nilpotent": "1", "split": "2", "complex_pair": "1R"}[t]
    if k == 1 and p == 0:
        gamma = ess.t_part[0][1]
        t = _generator_type(gamma, cfg, fld)
        return {"nilpotent": "3", "split": "4", "complex_pair": "3R"}[t]
    if k == 1 and p == 1:
        t = _generator_type(ess.s_basis.mats[0], cfg, fld)
        return {"nilpotent": "5", "split": "6", "complex_pair": "5R"}[t]
    raise ClassificationError(
        f"(k, dim s) = ({k}, {p}) is outside the two-variable classification "
        "table; a numerical failure upstream is likely")


# ---------------------------------------------------------------------------
# similarity of t-shift-invariant systems


@dataclass
class SimilarityVerdict:
    outcome: str  # "similar" | "not_similar" | "inconclusive"
    alpha: complex | None = None
    m: np.ndarray | None = None
    gamma: np.ndarray | None = None
    residual: float | None = None
    obstruction: str | None = None
    notes: list = dc_field(default_factory=list)

    @property
    def is_similar(self):
        return self.outcome == "similar"


def _spectrum(m: np.ndarray, keep: int) -> np.ndarray:
    """The keep eigenvalues of m of largest modulus, computed in complex128
    whatever m's dtype, so that real and complex storage of one matrix read
    the same eigenvalues."""
    evs = np.linalg.eigvals(m.astype(np.complex128))
    return evs[np.argsort(np.abs(evs), kind="stable")[len(evs) - keep:]]


def _multisets_match(xs, ys, tol) -> bool:
    """Whether each x pairs off with its own y within tol, nearest first."""
    free = list(ys)
    for x in xs:
        j = int(np.argmin(np.abs(np.array(free) - x))) if free else None
        if j is None or abs(free[j] - x) >= tol:
            return False
        free.pop(j)
    return not free


def _alpha_candidates(v0_a, v0_b, nonzero, cfg, ups_a=None, ups_b=None):
    """Finite candidate set for the time-scaling alpha from spectral matching.

    nonzero is the common count of nonzero eigenvalues of V(0), the remainder
    of both sides' staircases; the zero cluster it leaves out scales to itself.
    """
    if not nonzero:
        # V(0) spectra give no constraint: guess from the upsilon spectra
        # (exact whenever adding s-elements preserves them), the norm ratio,
        # and the unit scaling; wrong guesses just fail the witness search
        guesses = [1.0 + 0.0j, -1.0 + 0.0j]
        if ups_a is not None and ups_b is not None:
            ua = _spectrum(ups_a, linalg.staircase(ups_a, cfg)[-1])
            ub = _spectrum(ups_b, linalg.staircase(ups_b, cfg)[-1])
            for la in ua:
                for lb in ub:
                    cand = lb / la
                    if not any(abs(cand - g) < 1e-9 for g in guesses):
                        guesses.append(cand)
        na, nb = linalg.frobenius_norm(v0_a), linalg.frobenius_norm(v0_b)
        if na > 0 and nb > 0:
            r = np.sqrt(nb / na)
            guesses += [complex(r), complex(-r), 1j * r, -1j * r]
        return guesses, None
    ev_a = _spectrum(v0_a, nonzero)
    ev_b = _spectrum(v0_b, nonzero)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(ev_b))))
    cands = []
    for la in ev_a:
        for lb in ev_b:
            a2 = lb / la
            # the nonzero multisets must match under alpha^2 scaling
            if _multisets_match(a2 * ev_a, ev_b, tol):
                root = np.sqrt(a2)
                for cand in (root, -root):
                    if not any(abs(cand - c) < 1e-9 for c in cands):
                        cands.append(cand)
    if not cands:
        return None, "no time scaling matches the V(0) spectra"
    return cands, None


def similar_structured(a: tuple, b: tuple, cfg: ToleranceConfig = DEFAULT_TOL,
                       fld: Field = Field.COMPLEX, seed: int = 0) -> SimilarityVerdict:
    """Point-transformation similarity of V = e^{tY}V(0)e^{-tY} systems.

    a and b are (upsilon, v0) pairs.  Necessary invariants (dim s, the Jordan
    structure of V(0) at 0 as ``linalg.staircase`` reads it, spectral
    alpha-matching of the nonzero eigenvalues) prove NotSimilar; a verified
    witness (alpha, M, Gamma in s) proves Similar; anything else is
    Inconclusive.  The K-span lengths L_a and L_b only set the sample counts:
    L_a and L_b samples for the two centralizers, max(L_a, L_b) + 1 for the
    witness.
    """
    ups_a, v0_a = (np.asarray(x) for x in a)
    ups_b, v0_b = (np.asarray(x) for x in b)
    n = v0_a.shape[0]
    if v0_b.shape[0] != n:
        return SimilarityVerdict("not_similar", obstruction="different dimensions")
    len_a, len_b = k_span_length(ups_a, v0_a, cfg), k_span_length(ups_b, v0_b, cfg)
    ef_b = linalg.exp_factory(ups_b)
    s_a = k_span_centralizer(ups_a, v0_a, len_a, cfg)
    s_b = k_span_centralizer(ups_b, v0_b, len_b, cfg, ef_b)
    if s_a.dim != s_b.dim:
        return SimilarityVerdict("not_similar",
                                 obstruction=f"centralizer dimensions differ "
                                             f"({s_a.dim} vs {s_b.dim})")
    stair_a, stair_b = linalg.staircase(v0_a, cfg), linalg.staircase(v0_b, cfg)
    if stair_a != stair_b:
        return SimilarityVerdict("not_similar",
                                 obstruction=f"Jordan structures of V(0) at 0 differ "
                                             f"(staircases {stair_a} vs {stair_b})")
    cands, obstruction = _alpha_candidates(v0_a, v0_b, stair_a[-1], cfg, ups_a, ups_b)
    if cands is None:
        return SimilarityVerdict("not_similar", obstruction=obstruction)
    rng = np.random.default_rng(seed)
    for alpha in cands:
        if fld is Field.REAL:
            if abs(np.imag(alpha)) > 1e-10:
                continue
            alpha = float(np.real(alpha))
        else:
            alpha = complex(alpha)
        witness = _witness_search(ups_a, v0_a, s_a, ups_b, v0_b, ef_b,
                                  max(len_a, len_b) + 1, alpha, cfg, rng)
        if witness is not None:
            m, gamma, resid = witness
            return SimilarityVerdict("similar", alpha=alpha, m=m, gamma=gamma,
                                     residual=resid)
    return SimilarityVerdict("inconclusive",
                             notes=["no witness converged within the trial budget"])


def _witness_search(ups_a, v0_a, s_a, ups_b, v0_b, ef_b, count, alpha, cfg, rng,
                    trials=24):
    """Linear-lift search for (M, Gamma): V_b(t_j) M = a^2 M V_a(a t_j) at
    ``count`` samples and Y_b M = a M (Y_a + Gamma), Gamma in span(s_a).

    V_b(t_j) comes from ef_b, a factory of Y_b, and V_a(a t_j) from a factory
    of a Y_a, with one step for both sides; the sample rows are the Taylor
    rows K_b,l M = a^{l+2} M K_a,l taken in t.  Unknowns (M, W_1..W_p) with
    W_i standing for g_i M; the bilinear Gamma coupling is relaxed to the
    linear rows Y_b M - a M Y_a = a sum S_i W_i, then every sampled invertible
    M is re-fit and re-verified exactly.
    """
    n = v0_a.shape[0]
    p = s_a.dim
    dtype = np.result_type(ups_a, v0_a, ups_b, v0_b, alpha, *s_a.mats)
    eye = np.eye(n, dtype=dtype)
    ups_a_t = alpha * ups_a
    step = _sample_step(count, ups_b, ups_a_t)
    _, vbs = k_span_samples(ups_b, v0_b, count, ef_b, step)
    _, vas = k_span_samples(ups_a_t, v0_a, count, step=step)
    ops = [(np.kron(eye, vb) - alpha ** 2 * np.kron(va.T, eye))
           / max(np.linalg.norm(va), np.linalg.norm(vb), 1.0)
           for va, vb in zip(vas, vbs)]
    # the sample rows act on M and on each W_i alike
    sample_rows = np.kron(np.eye(1 + p), np.vstack(ops))
    ups_row = np.zeros((n * n, n * n * (1 + p)), dtype=dtype)
    ups_row[:, :n * n] = np.kron(eye, ups_b) - alpha * np.kron(ups_a.T, eye)
    for i, s_mat in enumerate(s_a.mats):
        ups_row[:, (1 + i) * n * n:(2 + i) * n * n] = -alpha * np.kron(eye, s_mat)
    a_mat = np.vstack([sample_rows, ups_row])
    null = linalg.nullspace(a_mat, 1e-10)
    if null.shape[1] == 0:
        return None
    m_blocks = [null[:n * n, j].reshape(n, n, order="F") for j in range(null.shape[1])]
    zero = np.zeros((n, n), dtype=dtype)
    s_cols = np.stack([g.reshape(-1, order="F") for g in s_a.mats], axis=1) if p else None
    scale = 1.0 + np.linalg.norm(v0_b) + np.linalg.norm(ups_b)
    for _ in range(trials):
        m = linalg.invertible_in_affine_space(m_blocks, zero, cfg,
                                              seed=int(rng.integers(1 << 30)),
                                              trials=16)
        if m is None:
            continue
        m = m / np.linalg.norm(m) * np.sqrt(n)
        mi = np.linalg.inv(m)
        gamma = zero
        if p:
            gamma_raw = (mi @ ups_b @ m) / alpha - ups_a
            coef, *_ = np.linalg.lstsq(s_cols, gamma_raw.reshape(-1, order="F"), rcond=None)
            gamma = sum(c * g for c, g in zip(coef, s_a.mats))
        resid = (np.linalg.norm(ups_b - alpha * m @ (ups_a + gamma) @ mi)
                 + np.linalg.norm(v0_b - alpha ** 2 * m @ v0_a @ mi))
        if resid <= WITNESS_TOL * scale:
            return m, gamma, float(resid)
    return None


def similar_constant_coeff(a: tuple, b: tuple, cfg: ToleranceConfig = DEFAULT_TOL,
                           fld: Field = Field.COMPLEX, seed: int = 0) -> SimilarityVerdict:
    """Similarity of constant-coefficient systems x_tt = A x_t + B x.

    Converts via Y = -A/2, V(0) = B + Y^2, delegates to the structured test,
    and converts the witness back with Gamma_check = -2 Gamma.
    """
    a_mat, b_mat = (np.asarray(x) for x in a)
    a2_mat, b2_mat = (np.asarray(x) for x in b)
    ups_a = -0.5 * a_mat
    ups_b = -0.5 * a2_mat
    v0_a = b_mat + ups_a @ ups_a
    v0_b = b2_mat + ups_b @ ups_b
    verdict = similar_structured((ups_a, v0_a), (ups_b, v0_b), cfg, fld, seed)
    if verdict.outcome != "similar":
        return verdict
    gamma_check = -2.0 * verdict.gamma
    alpha, m = verdict.alpha, verdict.m
    mi = np.linalg.inv(m)
    corr = b_mat - 0.25 * (a_mat @ gamma_check + gamma_check @ a_mat
                           + gamma_check @ gamma_check)
    resid = (np.linalg.norm(a2_mat - alpha * m @ (a_mat + gamma_check) @ mi)
             + np.linalg.norm(b2_mat - alpha ** 2 * m @ corr @ mi))
    verdict.gamma = gamma_check
    verdict.residual = float(resid)
    verdict.notes.append("converted from the V-class witness; "
                         "Gamma_check = -2 Gamma")
    return verdict
