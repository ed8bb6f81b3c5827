"""Correctness checkers.  Each one computes its answer apart from symode, with
numpy and scipy.linalg only, or checks a property the method must have.

A checker returns None when the output is right and a one-line reason when
it is not.  They run outside the timed region, on the first round's outputs.
"""

from __future__ import annotations

import json

import numpy as np

from . import docs
from .docs import coefficients, evaluate

DEFECT_TOL = 1e-6       # target-equation defect of a gauge step
INTEGRATION_TOL = 1e-5  # finite-difference residual of an integration
WITNESS_TOL = 1e-8      # similarity witness residual, relative
CHECK_TRAJECTORIES = 3


# ---------------------------------------------------------------------------
# finite differences and RK4 of the benchmark's own


def central_d1(y, h):
    """Sixth-order central first derivative along axis 0 (drops 3 points per end)."""
    return (-y[:-6] + 9 * y[1:-5] - 45 * y[2:-4] + 45 * y[4:-2] - 9 * y[5:-1]
            + y[6:]) / (60.0 * h)


def central_d2(y, h):
    """Sixth-order central second derivative along axis 0 (drops 3 points per end)."""
    return (2 * y[:-6] - 27 * y[1:-5] + 270 * y[2:-4] - 490 * y[3:-3] + 270 * y[4:-2]
            - 27 * y[5:-1] + 2 * y[6:]) / (180.0 * h * h)


def _uniform_step(t):
    h = (t[-1] - t[0]) / (len(t) - 1)
    if np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("grid is not uniform")
    return h


def trajectories(sys_doc, count=CHECK_TRAJECTORIES, seed=20210511):
    """Own RK4 of the companion system from random data at the domain midpoint.

    Steps of 2h between the even nodes of symode's 1025-node grid, with the
    odd nodes as half steps, so sampled coefficients are only ever read at
    their sample nodes.  Returns (t, x) with x of shape (len(t), n, count).
    """
    n = sys_doc["n"]
    t_all = docs.nodes(*sys_doc["domain"])
    a, b, f = coefficients(sys_doc, t_all)
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((2 * n, count))
    if sys_doc["field"] == "complex":
        z0 = z0 + 1j * rng.standard_normal((2 * n, count))
    t = t_all[::2]
    i0 = len(t) // 2

    def rhs(k, z):
        return np.concatenate([z[n:], b[k] @ z[:n] + a[k] @ z[n:] + f[k][:, None]])

    dtype = np.result_type(z0, a, b, f)
    out = np.empty((len(t), 2 * n, count), dtype=dtype)
    out[i0] = z0
    for direction in (1, -1):
        z = z0.astype(dtype)
        i = i0
        while 0 <= i + direction < len(t):
            h = t[i + direction] - t[i]
            k = 2 * i
            k1 = rhs(k, z)
            k2 = rhs(k + direction, z + 0.5 * h * k1)
            k3 = rhs(k + direction, z + 0.5 * h * k2)
            k4 = rhs(k + 2 * direction, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            i += direction
            out[i] = z
    return t, out[:, :n, :]


def push(t, s, y, tr):
    """Map trajectories through (T, H, h): s' = T(s), y' = H(s) y + h(s).

    ``t`` is the original uniform time the points are indexed by; points
    outside the transform's sample range are dropped.
    """
    n = y.shape[1]
    keep = np.ones(len(s), dtype=bool)
    for fun in (tr["T"], tr["H"], tr.get("h")):
        if fun is not None and fun["kind"] == "sampled":
            grid = fun["t"]
            keep &= (s >= grid[0] - 1e-12) & (s <= grid[-1] + 1e-12)
    t, s, y = t[keep], s[keep], y[keep]
    s_new = np.real(evaluate(tr["T"], s, ()))
    hmat = evaluate(tr["H"], s, (n, n))
    y_new = np.einsum("tij,tjm->tim", hmat, y)
    if tr.get("h") is not None:
        y_new = y_new + evaluate(tr["h"], s, (n,))[:, :, None]
    return t, s_new, y_new


def target_defect(t, s, y, target_doc):
    """Max normalized defect of the target equation along pushed trajectories.

    Derivatives in the target time s come from the chain rule over the
    uniform original time t: y_s = y_t / s_t, y_ss = (y_tt s_t - y_t s_tt) / s_t^3.
    """
    h = _uniform_step(t)
    s_t, s_tt = central_d1(s, h), central_d2(s, h)
    y_t, y_tt = central_d1(y, h), central_d2(y, h)
    st = s_t[:, None, None]
    y_s = y_t / st
    y_ss = (y_tt * st - y_t * s_tt[:, None, None]) / st ** 3
    inner = slice(3, -3)
    a, b, f = coefficients(target_doc, s[inner])
    yi = y[inner]
    defect = y_ss - (np.einsum("tij,tjm->tim", a, y_s) + np.einsum("tij,tjm->tim", b, yi)
                     + f[:, :, None])
    scale = max(1.0, float(np.max(np.abs(yi))))
    return float(np.max(np.abs(defect[1:-1]))) / scale


# ---------------------------------------------------------------------------
# classification oracle


def symmetry_dims(ts, v_vals, vdot_vals, n):
    """(k, dim_s) from the classifying condition of traceless V, sampled pointwise.

    Unknowns: tau = c0 + c1 t + c2 t^2 (the trace of the condition forces
    tau_ttt = 0 for traceless V) and a constant Gamma, row-major.  Each entry
    (i, j) of tau V_t + 2 tau_t V - [Gamma, V] = 0 at each t is one row, written
    out entry by entry; the rank comes from numpy's SVD.
    """
    rows = []
    for t, v, vd in zip(ts, v_vals, vdot_vals):
        for i in range(n):
            for j in range(n):
                row = np.zeros(3 + n * n, dtype=complex)
                row[0] = vd[i, j]
                row[1] = t * vd[i, j] + 2.0 * v[i, j]
                row[2] = t * t * vd[i, j] + 4.0 * t * v[i, j]
                for a in range(n):
                    row[3 + i * n + a] -= v[a, j]
                    row[3 + a * n + j] += v[i, a]
                rows.append(row)
    mat = np.vstack(rows)
    _, sv, vh = np.linalg.svd(mat)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    null = vh[rank:]
    if null.shape[0] == 0:
        return 0, 0
    k = int(np.sum(np.linalg.svd(null[:, :3], compute_uv=False) > 1e-6))
    return k, null.shape[0] - k - 1  # the identity direction is not in sl(n)


def oracle_of_document(sys_doc, probes=9):
    """(k, dim_s, dim_ess) of a V-class document with traceless V."""
    n = sys_doc["n"]
    v = sys_doc["V"]
    ts = np.linspace(*sys_doc["domain"], probes)
    vals = evaluate(v, ts, (n, n))
    if v["kind"] == "constant":
        vdot = np.zeros_like(vals)
    elif v["kind"] == "polynomial":
        coeffs = v["coeffs"]
        vdot = evaluate(docs.polynomial([j * c for j, c in enumerate(coeffs)][1:]
                                            or [np.zeros((n, n))]), ts, (n, n))
    elif v["kind"] == "conj_exp":
        y = np.asarray(v["upsilon"])
        vdot = np.einsum("ij,tjk->tik", y, vals) - np.einsum("tij,jk->tik", vals, y)
    else:
        raise ValueError("sampled V needs oracle_of_samples")
    k, dim_s = symmetry_dims(ts, vals, vdot, n)
    return k, dim_s, 1 + k + dim_s


def oracle_of_samples(t, s, v_vals, probes=9):
    """(k, dim_s, dim_ess) of x_ss = V(s) x given V at s = s(t) on uniform t."""
    h = _uniform_step(t)
    n = v_vals.shape[1]
    v_s = central_d1(v_vals, h) / central_d1(s, h)[:, None, None]
    idx = np.linspace(0, len(v_s) - 1, probes + 2).astype(int)[1:-1]
    k, dim_s = symmetry_dims(s[3:-3][idx], v_vals[3:-3][idx], v_s[idx], n)
    return k, dim_s, 1 + k + dim_s


def classification_verdict(rep, n, expect, case=None):
    """Compares a classification (object or CLI payload dict) with the oracle."""
    get = rep.get if isinstance(rep, dict) else lambda key: getattr(rep, key)
    if get("singular"):
        return "reported singular class"
    got = (get("k"), get("dim_s"), get("dim_ess"))
    if got != tuple(expect):
        return f"(k, dim_s, dim_ess) = {got}, oracle gives {tuple(expect)}"
    if not 2 * n + 1 <= get("dim_total") <= n * n + 4:
        return f"dim_total {get('dim_total')} outside [2n+1, n^2+4]"
    if get("dim_total") != get("dim_ess") + 2 * n:
        return "dim_total != dim_ess + 2n"
    label = get("case_label") if not isinstance(rep, dict) else get("case")
    if case is not None and label != case:
        return f"case label {label}, table gives {case}"
    return None


def expected_dims(item):
    """The table's row for casebook inputs, else the oracle (computed once)."""
    if "expect" not in item:
        item["expect"] = oracle_of_document(item["doc"])
    return item["expect"]


def classification_check(item):
    def check(rep, ctx):
        if _failed(rep):
            return f"raised {rep!r}"
        return classification_verdict(rep, item["n"], expected_dims(item),
                                      item.get("case"))
    return check


def affine_copy_check(item):
    """The copy's V must equal a^-2 C V((s - b)/a) C^-1 on the mapped domain."""
    def check(copy, ctx):
        if _failed(copy):
            return f"raised {copy!r}"
        aff, n = item["affine"], item["n"]
        a, b, c = aff["a"], aff["b"], aff["C"]
        lo, hi = item["doc"]["domain"]
        if max(abs(copy.domain[0] - (a * lo + b)), abs(copy.domain[1] - (a * hi + b))) > 1e-12:
            return f"domain {copy.domain} is not the image of [{lo}, {hi}]"
        ss = np.linspace(a * lo + b, a * hi + b, 7)
        got = evaluate(docs.describe(copy.V), ss, (n, n))
        src = evaluate(item["doc"]["V"], (ss - b) / a, (n, n))
        want = np.einsum("ij,tjk,kl->til", c, src, np.linalg.inv(c)) / a ** 2
        err = float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
        tol = 1e-8 * np.linalg.cond(c)  # two exact routes, rounding grows with cond(C)
        return None if err <= tol else f"pushed coefficients off by {err:.3g} > {tol:.3g}"
    return check


# ---------------------------------------------------------------------------
# similarity


def _sorted_spectrum(vals):
    vals = np.asarray(vals, dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def spectra_unrelated(lam_a, lam_b, margin=1e-2):
    """True when no alpha^2 maps the multiset lam_a onto lam_b."""
    lam_a, lam_b = _sorted_spectrum(lam_a), _sorted_spectrum(lam_b)
    scale = 1.0 + float(np.max(np.abs(lam_b)))
    for la in lam_a:
        if abs(la) < 1e-12:
            continue
        for lb in lam_b:
            scaled = _sorted_spectrum((lb / la) * lam_a)
            if float(np.max(np.abs(scaled - lam_b))) < margin * scale:
                return False
    return True


def witness_residual(a, b, alpha, m, gamma):
    """||Y_b - alpha M (Y_a + Gamma) M^-1|| + ||V0_b - alpha^2 M V0_a M^-1||."""
    (ups_a, v0_a), (ups_b, v0_b) = a, b
    mi = np.linalg.inv(m)
    return float(np.linalg.norm(ups_b - alpha * m @ (ups_a + gamma) @ mi)
                 + np.linalg.norm(v0_b - alpha ** 2 * m @ v0_a @ mi))


def similarity_verdict(outcome, alpha, m, gamma, pair):
    if outcome != pair["expect"]:
        return f"outcome {outcome}, expected {pair['expect']}"
    if outcome != "similar":
        return None
    a, b = pair["a"], pair["b"]
    scale = 1.0 + np.linalg.norm(b[0]) + np.linalg.norm(b[1])
    res = witness_residual(a, b, alpha, np.asarray(m), np.asarray(gamma))
    if not res <= WITNESS_TOL * scale:
        return f"witness residual {res:.3g} above {WITNESS_TOL:g} x {scale:.3g}"
    ups_a, v0_a = a
    for k in (v0_a, ups_a @ v0_a - v0_a @ ups_a):
        comm = np.linalg.norm(gamma @ k - k @ gamma)
        if comm > 1e-7 * (1.0 + np.linalg.norm(gamma)) * (1.0 + np.linalg.norm(k)):
            return "Gamma does not commute with the K-sequence"
    return None


def similarity_check(pair):
    def check(verdict, ctx):
        if _failed(verdict):
            return f"raised {verdict!r}"
        return similarity_verdict(verdict.outcome, verdict.alpha, verdict.m,
                                  verdict.gamma, pair)
    return check


# ---------------------------------------------------------------------------
# gauge chain


def gauge_defect(src_doc, transforms, target_doc):
    """Defect of the target equation along own source trajectories pushed
    through the given transforms in order."""
    t, y = trajectories(src_doc)
    s = t.copy()
    for tr in transforms:
        t, s, y = push(t, s, y, tr)
    return target_defect(t, s, y, target_doc)


def gauge_step_check(label, src_doc, steps):
    """The last of ``steps`` is checked; earlier steps' transforms map the
    original input's trajectories to that step's source."""
    def check(out, ctx):
        if _failed(out):
            return f"raised {out!r}"
        transforms = []
        for step in steps:
            prev = ctx[f"{label}/{step}"]
            if _failed(prev):
                return f"earlier step {step} failed"
            transforms.append(docs.describe_transform(prev.transform))
        defect = gauge_defect(src_doc, transforms, docs.describe_system(out.system))
        if not defect <= DEFECT_TOL:
            return f"target-equation defect {defect:.3g} above {DEFECT_TOL:g}"
        return None
    return check


def verify_residual_check(resid, ctx):
    if _failed(resid):
        return f"raised {resid!r}"
    if not (np.isfinite(resid) and 0.0 <= resid <= DEFECT_TOL):
        return f"verify_equivalence residual {resid!r} above {DEFECT_TOL:g}"
    return None


def gauged_classification_check(label):
    """Classification of the trace-gauged system against the oracle, with V~
    and V~_s read off its samples at the images s = T(t) of uniform t."""
    def check(rep, ctx):
        if _failed(rep):
            return f"raised {rep!r}"
        out = ctx[f"{label}/gauge_traceless"]
        tr = docs.describe_transform(out.transform)
        t = tr["T"]["t"]
        s = np.real(np.asarray(tr["T"]["values"]))
        n = out.system.n
        v_vals = evaluate(docs.describe(out.system.V), s, (n, n))
        expect = oracle_of_samples(t, s, v_vals)
        return classification_verdict(rep, n, expect)
    return check


# ---------------------------------------------------------------------------
# integration


def solution_verdict(sys_doc, grid, positions, particular, quadratures, procedure, item):
    """FD residual, Wronskian and quadrature count of a fundamental system."""
    n = sys_doc["n"]
    grid = np.asarray(grid, dtype=float)
    h = _uniform_step(grid)
    a, b, f = coefficients(sys_doc, grid)
    forced = bool(np.max(np.abs(f)) > 0.0)

    def residual(x, with_f):
        x_t, x_tt = central_d1(x, h), central_d2(x, h)
        inner = slice(3, -3)
        rhs = (np.einsum("tij,tjm->tim", a[inner], x_t)
               + np.einsum("tij,tjm->tim", b[inner], x[inner]))
        if with_f:
            rhs = rhs + f[inner][:, :, None]
        return float(np.max(np.abs(x_tt - rhs))) / max(1.0, float(np.max(np.abs(x))))

    x = np.asarray(positions)
    worst = residual(x, False)
    if forced:
        if particular is None:
            return "no particular solution for f != 0"
        worst = max(worst, residual(np.asarray(particular)[:, :, None], True))
    if not worst <= INTEGRATION_TOL:
        return f"finite-difference residual {worst:.3g} above {INTEGRATION_TOL:g}"
    x_t = central_d1(x, h)
    probes = np.linspace(0, len(x_t) - 1, 9).astype(int)
    for i in probes:
        state = np.vstack([x[3 + i], x_t[i]])
        norms = np.prod(np.linalg.norm(state, axis=0))
        if not abs(np.linalg.det(state)) > 1e-8 * norms:
            return f"Wronskian vanishes at t = {grid[3 + i]:.3g}"
    if procedure != item["procedure"]:
        return f"procedure {procedure}, expected {item['procedure']}"
    extra = n if forced and procedure != "Singular" else 0
    base = quadratures - extra
    bounds = {"Singular": (0, 2 * n if forced else 0), "OneSymmetry": (1, 1),
              "TwoSymmetry": (1, 2 * n - 1)}[procedure]
    if not bounds[0] <= base <= bounds[1]:
        return f"{quadratures} quadratures outside the paper's bound {bounds}"
    return None


def integration_check(item):
    def check(sol, ctx):
        if _failed(sol):
            return f"raised {sol!r}"
        return solution_verdict(item["doc"], sol.grid, sol.positions, sol.particular,
                                sol.quadratures, sol.plan.procedure, item)
    return check


# ---------------------------------------------------------------------------
# cli


def cli_check(expect):
    """Exit code 0 and a payload that passes the same oracles as the API."""
    def check(out, ctx):
        if _failed(out):
            return f"raised {out!r}"
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip().splitlines()[-1:] or ''}"
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"payload is not JSON: {exc}"
        kind = expect["kind"]
        if kind == "classify":
            item = expect["item"]
            return classification_verdict(payload, item["n"], expected_dims(item),
                                          item.get("case"))
        if kind == "gauge":
            target = docs.system_from_json(payload["system"])
            tr = {"T": docs.function_from_json(payload["transform"]["T"], 0),
                  "H": docs.function_from_json(payload["transform"]["H"], 2),
                  "h": (docs.function_from_json(payload["transform"]["h"], 1)
                        if payload["transform"].get("h") else None)}
            defect = gauge_defect(expect["doc"], [tr], target)
            if not defect <= DEFECT_TOL:
                return f"target-equation defect {defect:.3g} above {DEFECT_TOL:g}"
            return None
        if kind == "integrate":
            item = expect["item"]
            positions = np.stack([docs.array_from_json(m, 2) for m in payload["fundamental"]])
            particular = (None if payload["particular"] is None else
                          np.stack([docs.array_from_json(v, 1) for v in payload["particular"]]))
            return solution_verdict(item["doc"], payload["grid"], positions, particular,
                                    payload["quadratures"], payload["procedure"], item)
        pair = expect["pair"]
        if payload["outcome"] != "similar":
            return similarity_verdict(payload["outcome"], None, None, None, pair)
        return similarity_verdict(payload["outcome"], docs.array_from_json(payload["alpha"], 0),
                                  docs.array_from_json(payload["m"], 2),
                                  docs.array_from_json(payload["gamma"], 2), pair)
    return check


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return f"{self.kind}: {self.message}"


def _failed(out):
    return isinstance(out, Failed)
