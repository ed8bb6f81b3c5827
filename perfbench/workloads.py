"""The four workloads: seeded inputs and the ordered operation list of one round.

Every operation is one public symode call (or, in ``cli``, one ``symode``
process).  ``Op.prepare`` builds the call's arguments outside the timed
region -- fresh symode objects from the input documents, so no round profits
from caches a previous round filled -- and ``Op.invoke`` is the timed call.
Inputs depend on ``--seed`` only through the generators here; the known-fault
inputs are fixed so that they fail the same way on every seed.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import checks, docs
from .docs import DOMAIN, nodes, traceless

# Faults the benchmark keeps as failed operations; each names a FOUND line.
KL_FAULT = "kl_sequence: conj_exp V at n >= 6"
CMD_GAUGE_FAULT = "cmd_gauge: multi-step chain verified with the last transform"

# The paper's two-variable table: label -> (k, dim_ess).
CASE_TABLE = {
    "0": (0, 1), "1": (0, 2), "2": (0, 2), "3": (1, 2), "4": (1, 2),
    "5": (1, 3), "6": (1, 3), "7": (2, 4),
    "1R": (0, 2), "3R": (1, 2), "5R": (1, 3),
}

# conj_exp draws made with default_rng(generator seed), traceless Y then W.
# n = 2, 3 are drawn from --seed; from n = 4 on some seeds hit the K-sequence
# fault (see CHANGES.md), so larger n use fixed draws: n = 4, 5 classify
# correctly, n = 6, 7, 8 fail on every run.
CONJ_FIXED = {4: 0, 5: 0, 6: 0, 7: 1, 8: 2}
CONJ_FAULTY = (6, 7, 8)


@dataclass
class Op:
    call: str                       # public operation name
    label: str                      # which input
    prepare: Callable[[dict], tuple]
    invoke: Callable[..., Any]
    check: Callable[[Any, dict], str | None]
    known_fault: str | None = None

    @property
    def key(self) -> str:
        return f"{self.label}/{self.call}"


@dataclass
class Workload:
    name: str
    ops: list
    info: dict = field(default_factory=dict)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _affine(rng, n):
    """Seeded affine point transform T = a t + b, H = sqrt(a) C."""
    a = float(rng.uniform(0.5, 2.0))
    b = float(rng.uniform(-0.5, 0.5))
    c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    return {"a": a, "b": b, "C": c,
            "T": docs.scalar_polynomial([b, a]),
            "H": docs.constant(np.sqrt(a) * c)}


def casebook_docs(api):
    """(label, field, system document, symmetry documents) for all 19 rows."""
    from symode import casebook
    out = []
    for fld in (api.Field.COMPLEX, api.Field.REAL):
        for case in casebook.n2_cases(fld):
            syms = [{"tau": docs.describe(q.tau), "gamma": np.asarray(q.gamma)}
                    for q in case.symmetries]
            out.append((case.label, fld.value, docs.describe_system(case.system), syms))
    return out


# ---------------------------------------------------------------------------
# input generators


def closed_form_inputs(api, seed):
    """Systems to classify: the casebook and random constant/polynomial/conj_exp V."""
    rng = _rng(seed, 1)
    inputs = []
    for label, fld, doc, _ in casebook_docs(api):
        k, dim_ess = CASE_TABLE[label]
        inputs.append({"label": f"casebook/{fld}/{label}", "doc": doc, "n": 2,
                       "expect": (k, dim_ess - 1 - k, dim_ess), "case": label,
                       "affine": _affine(rng, 2), "fault": None})
    for n in range(2, 9):
        v = docs.constant(traceless(rng, n))
        inputs.append({"label": f"constant/n{n}", "n": n,
                       "doc": docs.system("Lprime", n, "real", V=v),
                       "affine": _affine(rng, n), "fault": None})
    for n in range(2, 9):
        v = docs.polynomial([traceless(rng, n) for _ in range(3)])
        inputs.append({"label": f"polynomial/n{n}", "n": n,
                       "doc": docs.system("Lprime", n, "real", V=v),
                       "affine": _affine(rng, n), "fault": None})
    for n in range(2, 9):
        draw = rng if n not in CONJ_FIXED else np.random.default_rng(CONJ_FIXED[n])
        ups, w = traceless(draw, n), traceless(draw, n)
        affine_rng = rng if n not in CONJ_FIXED else _rng(CONJ_FIXED[n], 100 + n)
        inputs.append({"label": f"conj_exp/n{n}", "n": n,
                       "doc": docs.system("Lprime", n, "real",
                                          V=docs.mat_conj_exp(0.0, ups, w)),
                       "affine": _affine(affine_rng, n),
                       "fault": KL_FAULT if n in CONJ_FAULTY else None})
    return inputs


def _spectrum_draw(rng, n):
    """Real eigenvalues with moduli in [0.5, 2] (see the rank-pattern FOUND line)."""
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)


def similarity_pairs(seed):
    """Seeded (Y, V(0)) pairs, similar by construction or spectrally distinct."""
    rng = _rng(seed, 2)
    pairs = []
    for n in (2, 3):
        for fld in ("complex", "real"):
            ups = traceless(rng, n)
            p = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            lam = _spectrum_draw(rng, n)
            v0 = p @ np.diag(lam) @ np.linalg.inv(p)
            if fld == "complex":
                alpha = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
                m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     + 2.0 * np.eye(n))
            else:
                alpha = float(rng.uniform(0.5, 1.5))
                m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            mi = np.linalg.inv(m)
            pairs.append({"label": f"similar/{fld}/n{n}", "field": fld, "expect": "similar",
                          "a": (ups, v0),
                          "b": (alpha * m @ ups @ mi, alpha ** 2 * m @ v0 @ mi)})
            lam2 = _spectrum_draw(rng, n)
            while not checks.spectra_unrelated(lam, lam2):
                lam2 = _spectrum_draw(rng, n)
            v0b = m @ p @ np.diag(lam2) @ np.linalg.inv(p) @ mi
            pairs.append({"label": f"distinct/{fld}/n{n}", "field": fld,
                          "expect": "not_similar", "a": (ups, v0),
                          "b": (alpha * m @ ups @ mi, v0b)})
    return pairs


def gauge_inputs(seed):
    """barL systems with f != 0: constant n=2, polynomial n=3, sampled n=4."""
    rng = _rng(seed, 3)
    out = []
    n = 2
    out.append(("constant/n2", docs.system(
        "barL", n, "real", A=docs.constant(0.5 * rng.standard_normal((n, n))),
        B=docs.constant(0.5 * rng.standard_normal((n, n))),
        f=docs.constant(rng.standard_normal(n)))))
    n = 3
    out.append(("polynomial/n3", docs.system(
        "barL", n, "real",
        A=docs.polynomial([0.5 * rng.standard_normal((n, n)) for _ in range(2)]),
        B=docs.polynomial([0.5 * rng.standard_normal((n, n)) for _ in range(3)]),
        f=docs.polynomial([rng.standard_normal(n) for _ in range(2)]))))
    n = 4
    t = nodes()
    a0, a1, b0, b1 = (0.5 * rng.standard_normal((n, n)) for _ in range(4))
    fv = rng.standard_normal(n)
    out.append(("sampled/n4", docs.system(
        "barL", n, "real",
        A=docs.sampled(t, a0 + np.sin(t)[:, None, None] * a1),
        B=docs.sampled(t, b0 + np.cos(t)[:, None, None] * b1),
        f=docs.sampled(t, np.outer(np.exp(0.3 * t), fv)))))
    return out


def integrate_inputs(api, seed):
    """Casebook rows with symmetries, homogeneous in both fields and with f != 0
    in the real field and on the complex two-symmetry row, and singular-class
    systems with sampled coefficients at n = 2..4 (homogeneous and f != 0)."""
    rng = _rng(seed, 4)
    out = []
    for label, fld, doc, syms in casebook_docs(api):
        if not syms:
            continue
        procedure = "TwoSymmetry" if len(syms) == 2 else "OneSymmetry"
        out.append({"label": f"casebook/{fld}/{label}", "doc": doc, "syms": syms,
                    "procedure": procedure})
        if fld == "complex" and procedure == "OneSymmetry":
            continue  # f != 0 runs the real rows' path again; it is left out for time
        forced = docs.system("barL", 2, fld, A=docs.constant(np.zeros((2, 2))),
                             B=doc["V"],
                             f=docs.polynomial([rng.standard_normal(2),
                                                    rng.standard_normal(2)]))
        out.append({"label": f"casebook/{fld}/{label}+f", "doc": forced, "syms": syms,
                    "procedure": procedure})
    t = nodes()
    for n in (2, 3, 4):
        a0, a1 = (0.5 * rng.standard_normal((n, n)) for _ in range(2))
        a = a0 + np.sin(t)[:, None, None] * a1
        a_t = np.cos(t)[:, None, None] * a1
        u = rng.uniform(0.2, 0.8) + rng.uniform(-0.3, 0.3) * t
        b = u[:, None, None] * np.eye(n) + 0.5 * a_t - 0.25 * np.einsum("tij,tjk->tik", a, a)
        fv = rng.standard_normal(n)
        for forced in (False, True):
            f = docs.sampled(t, np.outer(np.cos(t), fv)) if forced else None
            doc = docs.system("barL", n, "real", A=docs.sampled(t, a), B=docs.sampled(t, b),
                              f=f or docs.constant(np.zeros(n)))
            out.append({"label": f"singular/n{n}" + ("+f" if forced else ""), "doc": doc,
                        "syms": [], "procedure": "Singular"})
    return out


# ---------------------------------------------------------------------------
# workloads


def _call_api(name):
    """Resolves ``symode.<name>`` at call time, so the traced run sees its wrapper."""
    import symode

    def invoke(*args, **kwargs):
        return getattr(symode, name)(*args, **kwargs)
    return invoke


def closed_form(api, seed):
    ops = []
    for item in closed_form_inputs(api, seed):
        label, doc, aff = item["label"], item["doc"], item["affine"]

        def prep_orig(ctx, doc=doc):
            return (docs.build_system(api, doc),)

        def prep_copy(ctx, doc=doc, aff=aff):
            return (docs.build_system(api, doc), docs.build_transform(api, aff, DOMAIN))

        ops.append(Op("classify", label, prep_orig, _call_api("classify"),
                      checks.classification_check(item), item["fault"]))
        ops.append(Op("apply_equivalence", label, prep_copy,
                      _call_api("apply_equivalence"), checks.affine_copy_check(item)))
        ops.append(Op("classify", label + "/copy",
                      lambda ctx, label=label: (ctx[f"{label}/apply_equivalence"],),
                      _call_api("classify"), checks.classification_check(item),
                      item["fault"]))
    for pair in similarity_pairs(seed):
        ops.append(Op("similar_structured", pair["label"],
                      lambda ctx, pair=pair: (pair["a"], pair["b"]),
                      functools.partial(_call_api("similar_structured"),
                                        fld=api.Field(pair["field"])),
                      checks.similarity_check(pair)))
    return Workload("closed-form", ops)


GAUGE_STEPS = ("gauge_f_zero", "gauge_A_zero", "gauge_traceless")


def _gauge_source(ctx, label, i):
    """The system gauge step i starts from: the input, or step i-1's output."""
    return (ctx[f"{label}/input"] if i == 0
            else ctx[f"{label}/{GAUGE_STEPS[i - 1]}"].system)


def gauge_verify(api, seed):
    ops = []
    for label, doc in gauge_inputs(seed):
        def prep_step(ctx, i, label=label, doc=doc):
            if i == 0:
                ctx[f"{label}/input"] = docs.build_system(api, doc)
            return (_gauge_source(ctx, label, i),)

        def prep_verify(ctx, i, label=label):
            out = ctx[f"{label}/{GAUGE_STEPS[i]}"]
            return (_gauge_source(ctx, label, i), out.system, out.transform)

        for i, step in enumerate(GAUGE_STEPS):
            ops.append(Op(step, label, functools.partial(prep_step, i=i), _call_api(step),
                          checks.gauge_step_check(label, doc, GAUGE_STEPS[:i + 1])))
            ops.append(Op("verify_equivalence", f"{label}/{step}",
                          functools.partial(prep_verify, i=i),
                          _call_api("verify_equivalence"), checks.verify_residual_check))
        ops.append(Op("classify", f"{label}/traceless",
                      lambda ctx, label=label: (ctx[f"{label}/gauge_traceless"].system,),
                      _call_api("classify"), checks.gauged_classification_check(label)))
    return Workload("gauge-verify", ops)


def integrate(api, seed):
    ops = []
    for item in integrate_inputs(api, seed):
        def prep(ctx, item=item):
            sys_obj = docs.build_system(api, item["doc"])
            return (sys_obj, docs.build_symmetries(api, item["syms"], DOMAIN))

        ops.append(Op("integrate_auto", item["label"], prep, _call_api("integrate_auto"),
                      checks.integration_check(item)))
    return Workload("integrate", ops)


# ---------------------------------------------------------------------------
# cli


FAULT_GAUGE_DOC = docs.system("barL", 2, "real",
                              A=docs.constant(np.zeros((2, 2))),
                              B=docs.constant(np.array([[0.0, 1.0], [1.0, 0.0]])),
                              f=docs.constant(np.array([0.3, -0.2])))


def cli_requests(api, seed):
    """(label, argv after 'symode', {file name: document}, expectation) tuples."""
    closed = {item["label"]: item for item in closed_form_inputs(api, seed)}
    gauge = dict(gauge_inputs(seed))
    integ = {item["label"]: item for item in integrate_inputs(api, seed)}
    pairs = {p["label"]: p for p in similarity_pairs(seed)}

    def pair_docs(pair):
        out = []
        for ups, v0 in (pair["a"], pair["b"]):
            n = v0.shape[0]
            out.append(docs.system("Lprime", n, pair["field"],
                                   V=docs.mat_conj_exp(0.0, ups, v0)))
        return out

    reqs = []
    for label in ("casebook/complex/5", "constant/n3", "polynomial/n4"):
        item = closed[label]
        reqs.append((f"classify {label}", ["classify", "sys.json"],
                     {"sys.json": item["doc"]}, {"kind": "classify", "item": item}))
    reqs.append(("gauge f0 polynomial/n3", ["gauge", "sys.json", "--target", "f0"],
                 {"sys.json": gauge["polynomial/n3"]},
                 {"kind": "gauge", "doc": gauge["polynomial/n3"]}))
    for target in ("a0", "traceless"):
        reqs.append((f"gauge {target} fixed barL", ["gauge", "sys.json", "--target", target],
                     {"sys.json": FAULT_GAUGE_DOC},
                     {"kind": "gauge", "doc": FAULT_GAUGE_DOC, "fault": CMD_GAUGE_FAULT}))
    for label in ("casebook/complex/7", "casebook/real/3R+f"):
        item = integ[label]
        sym_json = [{"tau": s["tau"], "gamma": s["gamma"]} for s in item["syms"]]
        reqs.append((f"integrate {label}",
                     ["integrate", "sys.json", "--symmetries", "syms.json"],
                     {"sys.json": item["doc"], "syms.json": sym_json},
                     {"kind": "integrate", "item": item}))
    for label in ("similar/complex/n2", "distinct/real/n2"):
        a, b = pair_docs(pairs[label])
        reqs.append((f"similar {label}", ["similar", "a.json", "b.json"],
                     {"a.json": a, "b.json": b}, {"kind": "similar", "pair": pairs[label]}))
    return reqs


def write_cli_documents(reqs, workdir):
    """Writes each request's documents under workdir/<index>/; returns their dirs."""
    dirs = []
    for i, (_, _, files, _) in enumerate(reqs):
        d = os.path.join(workdir, f"req{i:02d}")
        os.makedirs(d, exist_ok=True)
        for name, doc in files.items():
            with open(os.path.join(d, name), "w") as fh:
                json.dump(docs.to_json(doc), fh)
        dirs.append(d)
    return dirs


def cli(api, seed, root, workdir, child):
    """One process per request: ``child`` is "plain" (python3 -m symode.cli),
    or "sample"/"trace" (perfbench/cli_child.py, which leaves a file per
    request whose path is in info["out_files"])."""
    reqs = cli_requests(api, seed)
    dirs = write_cli_documents(reqs, workdir)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ops, out_files = [], []
    for (label, argv, _, expect), d in zip(reqs, dirs):
        if child == "plain":
            cmd = [sys.executable, "-m", "symode.cli"] + argv
        else:
            out_files.append(os.path.join(d, "child.npz" if child == "trace" else "child.json"))
            cmd = [sys.executable, os.path.join(root, "perfbench", "cli_child.py"), child,
                   out_files[-1]] + argv

        def invoke(cmd=cmd, d=d):
            proc = subprocess.run(cmd, cwd=d, env=env, capture_output=True, text=True,
                                  timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        ops.append(Op(argv[0], label, lambda ctx: (), invoke,
                      checks.cli_check(expect), expect.get("fault")))
    return Workload("cli", ops, info={"child": child, "out_files": out_files})


def build(name, api, seed, root, workdir, child="plain"):
    if name == "closed-form":
        return closed_form(api, seed)
    if name == "gauge-verify":
        return gauge_verify(api, seed)
    if name == "integrate":
        return integrate(api, seed)
    if name == "cli":
        return cli(api, seed, root, workdir, child)
    raise ValueError(f"unknown workload {name!r}")
