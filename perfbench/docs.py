"""Input documents and the benchmark's own evaluation of them.

A document is a dict in the shape of symode's JSON system schema, holding
numpy arrays instead of nested lists.  It is the single description of every
input: the API workloads build fresh symode objects from it before each call,
the CLI workload writes it out as JSON, and the checkers evaluate it with the
code below, which uses numpy and ``scipy.linalg.expm`` but nothing of symode.
Library outputs are turned into documents the same way (``describe_*``), so
one evaluator serves inputs, API outputs and CLI payloads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

DOMAIN = (-1.0, 1.0)
GRID_STEPS = 1024  # symode's default ODE grid; sampled inputs use its nodes


def nodes(lo=DOMAIN[0], hi=DOMAIN[1], steps=GRID_STEPS):
    """The uniform grid symode builds for ``steps`` steps (steps + 1 nodes)."""
    return np.linspace(lo, hi, steps + 1)


def traceless(rng, n):
    m = rng.standard_normal((n, n))
    return m - (np.trace(m) / n) * np.eye(n)


# ---------------------------------------------------------------------------
# constructors


def constant(m):
    """A constant matrix or vector function."""
    return {"kind": "constant", "m": np.asarray(m)}


def polynomial(coeffs):
    """A matrix or vector polynomial in t, ascending coefficients."""
    return {"kind": "polynomial", "coeffs": [np.asarray(c) for c in coeffs]}


def mat_conj_exp(epsilon, upsilon, w):
    return {"kind": "conj_exp", "epsilon": epsilon, "upsilon": np.asarray(upsilon),
            "w": np.asarray(w)}


def sampled(t, values):
    return {"kind": "sampled", "t": np.asarray(t, dtype=float),
            "values": np.asarray(values)}


def scalar_polynomial(coeffs):
    return {"kind": "polynomial", "coeffs": [complex(c) if np.iscomplexobj(c)
                                             else float(c) for c in coeffs]}


def system(cls, n, field, domain=DOMAIN, **funs):
    doc = {"n": int(n), "field": field, "class": cls,
           "domain": [float(domain[0]), float(domain[1])]}
    doc.update({k: v for k, v in funs.items() if v is not None})
    return doc


# ---------------------------------------------------------------------------
# evaluation, independent of symode


def node_index(grid, ts):
    """Indices of ``ts`` among the sample nodes ``grid``; raises off the nodes."""
    grid = np.asarray(grid, dtype=float)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tol = 1e-11 * (1.0 + np.abs(ts))
    idx = np.clip(np.searchsorted(grid, ts - tol), 0, len(grid) - 1)
    if np.any(np.abs(grid[idx] - ts) > tol):
        raise ValueError("sampled function evaluated away from its sample nodes")
    return idx


def _horner(coeffs, ts):
    ts = np.asarray(ts, dtype=float)
    shape = np.shape(coeffs[0])
    acc = np.zeros((len(ts),) + shape, dtype=np.result_type(*coeffs, float))
    tt = ts.reshape((-1,) + (1,) * len(shape))
    for c in reversed(coeffs):
        acc = acc * tt + np.asarray(c)
    return acc


def evaluate(doc, ts, shape):
    """Values of a function document at the points ``ts``: (len(ts),) + shape."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    kind = doc["kind"]
    if kind == "constant":
        m = np.asarray(doc["m"]).reshape(shape)
        return np.broadcast_to(m, (len(ts),) + shape).copy()
    if kind == "polynomial":
        return _horner([np.asarray(c).reshape(shape) for c in doc["coeffs"]], ts)
    if kind == "conj_exp":
        ups, w = np.asarray(doc["upsilon"]), np.asarray(doc["w"])
        n = w.shape[0]
        out = []
        for t in ts:
            e = scipy.linalg.expm(t * ups)
            out.append(doc["epsilon"] * np.eye(n) + e @ w @ np.linalg.inv(e))
        vals = np.stack(out)
        if not np.iscomplexobj(ups) and not np.iscomplexobj(w):
            vals = vals.real
        return vals
    if kind == "sampled":
        vals = np.asarray(doc["values"])
        return vals[node_index(doc["t"], ts)].reshape((len(ts),) + shape)
    raise ValueError(f"unknown function kind {kind!r}")


def coefficients(sys_doc, ts):
    """(A, B, f) of x_tt = A x_t + B x + f at ``ts``; V-classes have A = 0, B = V."""
    n = sys_doc["n"]
    ts = np.atleast_1d(ts)
    zero_m = np.zeros((len(ts), n, n))
    zero_v = np.zeros((len(ts), n))
    if sys_doc["class"] in ("Lprime", "Ldoubleprime"):
        return zero_m, evaluate(sys_doc["V"], ts, (n, n)), zero_v
    a = evaluate(sys_doc["A"], ts, (n, n))
    b = evaluate(sys_doc["B"], ts, (n, n))
    f = evaluate(sys_doc["f"], ts, (n,)) if sys_doc.get("f") else zero_v
    return a, b, f


# ---------------------------------------------------------------------------
# symode objects from documents, and documents from symode objects


def build_matrix(api, doc, domain):
    kind = doc["kind"]
    if kind == "constant":
        return api.MatrixFunction.constant(doc["m"], domain)
    if kind == "polynomial":
        return api.MatrixFunction.polynomial(doc["coeffs"], domain)
    if kind == "conj_exp":
        return api.MatrixFunction.conj_exp(doc["epsilon"], doc["upsilon"], doc["w"],
                                           domain)
    return api.MatrixFunction.sampled(doc["t"], doc["values"])


def build_vector(api, doc, domain):
    kind = doc["kind"]
    if kind == "constant":
        return api.VectorFunction.constant(doc["m"], domain)
    if kind == "polynomial":
        return api.VectorFunction.polynomial(doc["coeffs"], domain)
    return api.VectorFunction.sampled(doc["t"], doc["values"])


def build_scalar(api, doc, domain):
    if doc["kind"] == "polynomial":
        return api.ScalarFunction.polynomial(doc["coeffs"], domain)
    return api.ScalarFunction.sampled(doc["t"], doc["values"])


def build_system(api, doc):
    """A fresh SystemDescriptor for a system document."""
    domain = tuple(doc["domain"])
    fld = api.Field(doc["field"])
    cls, n = doc["class"], doc["n"]
    if cls in ("Lprime", "Ldoubleprime"):
        return api.SystemDescriptor(cls, n, fld, domain,
                                    V=build_matrix(api, doc["V"], domain))
    a = build_matrix(api, doc["A"], domain)
    b = build_matrix(api, doc["B"], domain)
    if cls == "barL":
        f = (build_vector(api, doc["f"], domain) if doc.get("f")
             else api.VectorFunction.zero(n, domain))
        return api.SystemDescriptor(cls, n, fld, domain, A=a, B=b, f=f)
    return api.SystemDescriptor(cls, n, fld, domain, A=a, B=b)


def build_symmetries(api, sym_docs, domain):
    return [api.SymmetryVectorField(tau=build_scalar(api, d["tau"], domain),
                                    gamma=np.asarray(d["gamma"]))
            for d in sym_docs]


def build_transform(api, doc, domain):
    return api.EquivalenceTransform(T=build_scalar(api, doc["T"], domain),
                                    H=build_matrix(api, doc["H"], domain))


def describe(fun):
    """Document of a symode Matrix/Vector/ScalarFunction (reads its fields)."""
    kind = fun.kind
    if kind == "constant":
        return {"kind": kind, "m": np.asarray(fun.value)}
    if kind == "polynomial":
        return {"kind": kind, "coeffs": [np.asarray(c) for c in fun.coeffs]}
    if kind == "conj_exp":
        return mat_conj_exp(fun.epsilon, fun.upsilon, fun.w)
    return sampled(fun.grid, fun.values)


def describe_system(sys):
    doc = system(sys.cls, sys.n, sys.field.value, sys.domain)
    if sys.cls in ("Lprime", "Ldoubleprime"):
        doc["V"] = describe(sys.V)
    else:
        doc["A"], doc["B"] = describe(sys.A), describe(sys.B)
        if sys.cls == "barL" and sys.f is not None:
            doc["f"] = describe(sys.f)
    return doc


def describe_transform(tr):
    return {"T": describe(tr.T), "H": describe(tr.H),
            "h": describe(tr.h) if tr.h is not None else None}


# ---------------------------------------------------------------------------
# JSON, in the CLI's schema


def _entry_to_json(x):
    x = complex(x)
    return x.real if x.imag == 0.0 else [x.real, x.imag]


def to_json(value):
    """JSON-ready form of a document (complex entries as [re, im] pairs)."""
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return _entry_to_json(value)
        return [to_json(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return _entry_to_json(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _entry_from_json(x):
    return complex(x[0], x[1]) if isinstance(x, list) else float(x)


def _real_if_exact(arr):
    if np.iscomplexobj(arr) and np.max(np.abs(arr.imag), initial=0.0) == 0.0:
        return arr.real
    return arr


def array_from_json(data, rank):
    """JSON entries back to an ndarray of the given rank (0 scalar, 1, 2)."""
    if rank == 0:
        return _entry_from_json(data)
    if rank == 1:
        return _real_if_exact(np.array([_entry_from_json(x) for x in data]))
    return _real_if_exact(np.array([[_entry_from_json(x) for x in row]
                                    for row in data]))


def function_from_json(data, rank):
    """A function document from its JSON form; rank 0/1/2 = scalar/vector/matrix."""
    kind = data["kind"]
    if kind == "constant":
        return {"kind": kind, "m": array_from_json(data["m"], rank)}
    if kind == "polynomial":
        return {"kind": kind,
                "coeffs": [array_from_json(c, rank) for c in data["coeffs"]]}
    if kind == "conj_exp":
        return mat_conj_exp(array_from_json(data["epsilon"], 0),
                            array_from_json(data["upsilon"], 2),
                            array_from_json(data["w"], 2))
    return sampled(data["t"], np.stack([np.asarray(array_from_json(v, rank))
                                        for v in data["values"]]))


def system_from_json(data):
    doc = system(data["class"], data["n"], data["field"], data["domain"])
    for key, rank in (("A", 2), ("B", 2), ("V", 2), ("f", 1)):
        if data.get(key):
            doc[key] = function_from_json(data[key], rank)
    return doc
