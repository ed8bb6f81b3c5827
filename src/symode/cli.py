"""Command-line frontend: JSON system documents in, JSON/text reports out.

Subcommands: gauge (normalization chain), classify, integrate, similar,
demo-n2.  Exit codes: 0 success, 2 schema error, 3 operation inapplicable,
4 numerical failure, 5 demo mismatch.  Flags have SYMODE_-prefixed
environment-variable overrides.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import casebook
from .gauge import (BARL, HOMOGENEOUS, LDOUBLEPRIME, LPRIME, MAX_DIM, GaugeError,
                    SystemDescriptor, gauge_f_zero, reduce, verify_equivalence)
from .integrate import IntegrationError, integrate_auto, residual
from .linalg import LinalgError
from .matfun import (CONJ_EXP, POLYNOMIAL, SAMPLED, MatrixFunction, ScalarFunction,
                     VectorFunction)
from .scalars import DEFAULT_TOL, Field, ToleranceConfig
from .symalg import (CASE_BASIS_TEXT, ClassificationError, SymmetryVectorField,
                     classify, similar_constant_coeff, similar_structured)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INAPPLICABLE = 3
EXIT_NUMERICAL = 4
EXIT_MISMATCH = 5

MIN_GRID = 8  # the smallest --grid every subcommand runs with

# the document kind of a degree-0 vector or matrix function; a scalar constant
# is a one-row polynomial document
CONSTANT = "constant"

# the coefficient members each class takes, in document order; all but f are
# required
CLASS_MEMBERS = {BARL: ("A", "B", "f"), HOMOGENEOUS: ("A", "B"),
                 LPRIME: ("V",), LDOUBLEPRIME: ("V",)}

ROOT = "<root>"  # the path of a whole document


class SchemaError(ValueError):
    pass


def _object(doc, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")


def _member(obj, key, where, read=None, *args, required=True):
    """The member key of the JSON object obj at path where, passed through
    read(value, *args) when read is given; None for an absent optional member.
    A fault names the member's path, unless it is a SchemaError from a nested
    member, which names its own."""
    path = key if where == ROOT else f"{where}/{key}"
    if key not in obj:
        if required:
            raise SchemaError(f"{path}: required member missing")
        return None
    try:
        return obj[key] if read is None else read(obj[key], *args)
    except SchemaError:
        raise
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _choice(x, options):
    if x not in options:
        raise ValueError(f"expected one of {', '.join(options)}, got {x!r}")
    return x


def _size(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or not 1 <= x <= MAX_DIM or x != int(x):
        raise ValueError(f"expected an integer in 1..{MAX_DIM}, got {x!r}")
    return int(x)


def _real(x):
    """A finite JSON number as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    value = float(x)
    if not np.isfinite(value):
        raise ValueError(f"non-finite numeric entry {x!r}")
    return value


def _decode_entry(x):
    """A number, or an [re, im] pair as a complex number when im is not 0."""
    if isinstance(x, list) and len(x) == 2:
        re, im = _real(x[0]), _real(x[1])
        return complex(re, im) if im else re
    return _real(x)


def _decode_reals(data, count=None):
    """A JSON list of finite numbers, count of them if given, as a float array."""
    if not isinstance(data, list) or count not in (None, len(data)):
        size = f"{count} " if count else ""
        raise ValueError(f"expected a list of {size}numbers, got {data!r}")
    return np.array([_real(t) for t in data], dtype=float)


def _decode_array(data, ndim):
    """JSON entries nested ndim lists deep, as one array that is real when no
    entry has an imaginary part."""
    def entries(x, depth):
        if depth == 0:
            return _decode_entry(x)
        if not isinstance(x, list):
            raise ValueError(f"expected a list of numeric entries, got {x!r}")
        return [entries(y, depth - 1) for y in x]

    return np.array(entries(data, ndim))


def _encode_entry(x):
    x = complex(x)
    if x.imag == 0.0:
        return x.real
    return [x.real, x.imag]


def _encode_array(a):
    def entries(x):
        return [entries(y) for y in x] if isinstance(x, list) else _encode_entry(x)
    return entries(np.asarray(a).tolist())


def decode_function(doc, cls, domain, where=ROOT):
    """A ScalarFunction, VectorFunction or MatrixFunction (cls) from the function
    document doc at path where."""
    _object(doc, where)
    kind = _member(doc, "kind", where)
    if kind == CONSTANT and cls.ndim:
        return cls.constant(_member(doc, "m", where, _decode_array, cls.ndim), domain)
    if kind not in cls.KINDS:
        raise SchemaError(f"{where}: unknown {cls.NAME} kind {kind}")
    if kind == POLYNOMIAL:
        return cls.polynomial(_member(doc, "coeffs", where, _decode_array, cls.ndim + 1),
                              domain)
    if kind == CONJ_EXP:
        return cls.conj_exp(_member(doc, "epsilon", where, _decode_entry),
                            _member(doc, "upsilon", where, _decode_array, 2),
                            _member(doc, "w", where, _decode_array, 2), domain)
    return cls.sampled(_member(doc, "t", where, _decode_reals),
                       _member(doc, "values", where, _decode_array, cls.ndim + 1))


def encode_function(fun):
    """The document of a ScalarFunction, VectorFunction or MatrixFunction."""
    if fun.degree() == 0 and fun.ndim:
        return {"kind": CONSTANT, "m": _encode_array(fun.value)}
    if fun.kind == POLYNOMIAL:
        return {"kind": POLYNOMIAL, "coeffs": _encode_array(fun.coeffs)}
    if fun.kind == CONJ_EXP:
        return {"kind": CONJ_EXP, "epsilon": _encode_entry(fun.epsilon),
                "upsilon": _encode_array(fun.upsilon), "w": _encode_array(fun.w)}
    return {"kind": SAMPLED, "t": [float(t) for t in fun.grid],
            "values": _encode_array(fun.values)}


# the per-shape names, for callers that use them
encode_matrix_function = encode_vector_function = encode_scalar_function = encode_function


def _load(path: str, decode, *args):
    """decode(doc, *args) for the JSON document doc in the file at path; a file
    that cannot be read or decoded is a SchemaError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    # RecursionError: arrays nested too deep for the parser
    except (ValueError, OSError, RecursionError) as exc:
        raise SchemaError(f"{path}: unreadable: {exc}") from exc
    try:
        return decode(doc, *args)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_system(path: str, cfg: ToleranceConfig) -> SystemDescriptor:
    return _load(path, system_from_document, cfg)


def system_from_document(doc, cfg: ToleranceConfig) -> SystemDescriptor:
    """The system of a system document: n, field, class, domain and the
    coefficient members its class takes."""
    _object(doc, ROOT)
    n = _member(doc, "n", ROOT, _size)
    fld = Field(_member(doc, "field", ROOT, _choice, tuple(f.value for f in Field)))
    cls = _member(doc, "class", ROOT, _choice, tuple(CLASS_MEMBERS))
    domain = tuple(_member(doc, "domain", ROOT, _decode_reals, 2))
    funs = {}
    for key in ("A", "B", "f", "V"):
        if key not in CLASS_MEMBERS[cls]:
            if key in doc:
                raise SchemaError(f"{key}: class {cls} takes "
                                  f"{', '.join(CLASS_MEMBERS[cls])}, not {key}")
            continue
        fun = _member(doc, key, ROOT, decode_function,
                      VectorFunction if key == "f" else MatrixFunction, domain, key,
                      required=key != "f")
        if fld is Field.REAL and fun is not None and fun.field is Field.COMPLEX:
            raise SchemaError(f"{key}: complex entries under field real")
        funs[key] = fun
    if cls == BARL and funs["f"] is None:
        funs["f"] = VectorFunction.zero(n, domain)
    # the class's own rules, such as a traceless V for Ldoubleprime
    try:
        return SystemDescriptor(cls, n, fld, domain, cfg=cfg, **funs)
    except (ValueError, GaugeError) as exc:
        raise SchemaError(f"{ROOT}: {exc}") from exc


def system_to_document(sys: SystemDescriptor):
    doc = {"n": sys.n, "field": sys.field.value, "class": sys.cls,
           "domain": [sys.domain[0], sys.domain[1]]}
    for key in CLASS_MEMBERS[sys.cls]:
        if getattr(sys, key) is not None:
            doc[key] = encode_function(getattr(sys, key))
    return doc


def load_symmetries(path: str, n: int, domain):
    return _load(path, symmetries_from_document, n, domain)


def symmetries_from_document(doc, n: int, domain):
    """The symmetry fields of a symmetry document for a system of size n on
    domain; a field that does not fit the system is a SchemaError."""
    if not isinstance(doc, list):
        raise SchemaError(f"{ROOT}: expected a list of symmetry fields, "
                          f"got {type(doc).__name__}")
    out = []
    for i, item in enumerate(doc):
        where = f"symmetry {i}"
        _object(item, where)
        tau = _member(item, "tau", where, decode_function, ScalarFunction, domain,
                      f"{where}/tau")
        gamma = _member(item, "gamma", where, _decode_array, 2, required=False)
        chi = _member(item, "chi", where, decode_function, VectorFunction, domain,
                      f"{where}/chi", required=False)
        if gamma is not None and gamma.shape != (n, n):
            raise SchemaError(f"{where}: gamma has shape {gamma.shape}, "
                              f"but the system has n = {n}")
        if chi is not None and chi.n != n:
            raise SchemaError(f"{where}: chi has size {chi.n}, "
                              f"but the system has n = {n}")
        for name, fun in (("tau", tau), ("chi", chi)):
            if fun is not None and not fun.covers(domain):
                raise SchemaError(
                    f"{where}: {name} is defined on "
                    f"[{fun.domain[0]:g}, {fun.domain[1]:g}], which does not cover "
                    f"the domain [{domain[0]:g}, {domain[1]:g}]")
        out.append(SymmetryVectorField(tau=tau, gamma=gamma, chi=chi))
    return out


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(rank_tol=args.rank_tol, residual_tol=args.tol)


def _accepts(**tolerances) -> bool:
    try:
        ToleranceConfig(**tolerances)
    except ValueError:
        return False
    return True


def _checked(convert, ok, rule, env):
    """An argparse type: the converted text if ok accepts it.  argparse also
    converts a default given as text, so a bad SYMODE_* value ends like a bad
    flag value: exit 2 with the flag named."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule} (flag or {env})")
        return value
    return parse


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", default=os.environ.get("SYMODE_TOL", "1e-6"),
                   type=_checked(float, lambda x: _accepts(residual_tol=x),
                                 "a positive finite number", "SYMODE_TOL"),
                   help="residual tolerance (env SYMODE_TOL)")
    p.add_argument("--rank-tol", default=os.environ.get("SYMODE_RANK_TOL", "1e-9"),
                   type=_checked(float, lambda x: _accepts(rank_tol=x),
                                 f"a number in (0, {DEFAULT_TOL.eig_cluster_tol:g})",
                                 "SYMODE_RANK_TOL"),
                   help="rank decision cutoff (env SYMODE_RANK_TOL)")
    p.add_argument("--grid", default=os.environ.get("SYMODE_GRID", "1024"),
                   type=_checked(int, lambda g: g >= MIN_GRID,
                                 f"an integer >= {MIN_GRID}", "SYMODE_GRID"),
                   help="ODE grid steps (env SYMODE_GRID)")
    p.add_argument("--seed", default=os.environ.get("SYMODE_SEED", "0"),
                   type=_checked(int, lambda s: s >= 0, "a non-negative integer",
                                 "SYMODE_SEED"),
                   help="seed for randomized searches (env SYMODE_SEED)")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def _write(args, text):
    """text to --out, or to stdout; an unwritable --out is a SchemaError."""
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise SchemaError(f"--out {args.out}: cannot write: {exc.strerror or exc}") from exc


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2))


def cmd_gauge(args) -> int:
    cfg = _tolerances(args)
    sys_in = load_system(args.input, cfg)
    target = {"f0": HOMOGENEOUS, "a0": LPRIME, "traceless": LDOUBLEPRIME}[args.target]
    try:
        ts = reduce(sys_in, target, args.grid)
    except GaugeError as exc:
        print(f"gauge inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    tr = ts.transform
    resid = verify_equivalence(sys_in, ts.system, tr, seed=args.seed,
                               grid_steps=min(args.grid, 2048))
    payload = {
        "system": system_to_document(ts.system),
        "transform": {
            "T": encode_function(tr.T),
            "H": encode_function(tr.H),
            "h": encode_function(tr.h) if tr.h is not None else None,
            "branch": tr.branch_note,
        },
        "residual": resid,
        "provenance": ts.provenance,
        "tolerances": {"residual_tol": cfg.residual_tol, "rank_tol": cfg.rank_tol},
    }
    _emit(args, payload)
    if resid > 10 * cfg.residual_tol:
        print(f"numerical failure: equivalence residual {resid:.3g} above "
              f"tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def classification_payload(rep, cfg):
    payload = {
        "singular": rep.singular,
        "n": rep.n,
        "field": rep.field.value,
        "dim_total": rep.dim_total,
        "notes": rep.notes,
        "tolerances": {"residual_tol": cfg.residual_tol, "rank_tol": cfg.rank_tol},
    }
    if not rep.singular:
        payload.update({"k": rep.k, "dim_s": rep.dim_s, "dim_ess": rep.dim_ess,
                        "case": rep.case_label,
                        "improper_t_shift": rep.improper_shift})
        if rep.essential is not None:
            if rep.essential.verification_residual is not None:
                payload["verification_residual"] = \
                    rep.essential.verification_residual
            if rep.essential.confidence_gap is not None \
                    and np.isfinite(rep.essential.confidence_gap):
                payload["sv_confidence_gap"] = rep.essential.confidence_gap
    return payload


def cmd_classify(args) -> int:
    cfg = _tolerances(args)
    sys_in = load_system(args.input, cfg)
    try:
        rep = classify(sys_in)
    except ClassificationError as exc:
        print(f"classification inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    if args.format == "json":
        _emit(args, classification_payload(rep, cfg))
    else:
        lines = [f"n = {rep.n}, field = {rep.field.value}"]
        if rep.singular:
            lines.append(f"singular class (free-particle orbit): "
                         f"dim_total = {rep.dim_total}")
        else:
            lines.append(f"k = {rep.k}, dim s = {rep.dim_s}, "
                         f"dim_ess = {rep.dim_ess}, dim_total = {rep.dim_total}")
            if rep.case_label is not None:
                lines.append(f"case {rep.case_label}: "
                             f"{CASE_BASIS_TEXT.get(rep.case_label, '')}")
            if rep.improper_shift:
                lines.append("improper t-shift invariance")
        for note in rep.notes:
            lines.append(f"  - {note}")
        _write(args, "\n".join(lines))
    return EXIT_OK


def cmd_integrate(args) -> int:
    cfg = _tolerances(args)
    sys_in = load_system(args.input, cfg)
    syms = []
    if args.symmetries:
        syms = load_symmetries(args.symmetries, sys_in.n, sys_in.domain)
    try:
        sol = integrate_auto(sys_in, syms, args.grid)
    except IntegrationError as exc:
        print(f"integration inapplicable: {exc}", file=sys.stderr)
        if not args.symmetries and not sys_in.singular:
            print("regular systems require known symmetries with nonzero "
                  "t-components", file=sys.stderr)
        return EXIT_INAPPLICABLE
    # without a particular solution (f within residual_tol) the fundamental
    # columns solve the homogeneous system, which gauge_f_zero returns for
    # barL input
    res_sys = sys_in
    if sol.particular is None and sys_in.cls == BARL:
        res_sys = gauge_f_zero(sys_in, args.grid).system
    trajs = sol.positions
    if sol.particular is not None:
        trajs = trajs + sol.particular[:, :, None]
    worst = residual(res_sys, trajs, sol.grid)
    payload = {
        "procedure": sol.plan.procedure,
        "quadratures": sol.quadratures,
        "quadrature_bound": sol.plan.quadrature_bound,
        "residual": worst,
        "grid": [float(t) for t in sol.grid[:: max(1, len(sol.grid) // 128)]],
        "fundamental": [
            _encode_array(sol.positions[i])
            for i in range(0, len(sol.grid), max(1, len(sol.grid) // 128))
        ],
        "particular": None if sol.particular is None else [
            _encode_array(sol.particular[i])
            for i in range(0, len(sol.grid), max(1, len(sol.grid) // 128))
        ],
        "notes": sol.plan.notes,
        "tolerances": {"residual_tol": cfg.residual_tol},
    }
    if sol.plan.abar is not None:
        payload.update(abar=_encode_array(sol.plan.abar), bbar=_encode_array(sol.plan.bbar))
    _emit(args, payload)
    print(f"procedure: {payload['procedure']}; quadratures: {sol.quadratures}; "
          f"residual: {worst:.3g}", file=sys.stderr)
    return EXIT_OK


def cmd_similar(args) -> int:
    cfg = _tolerances(args)
    sys_a = load_system(args.input_a, cfg)
    sys_b = load_system(args.input_b, cfg)

    def as_pair(s):
        if s.cls in (LPRIME, LDOUBLEPRIME):
            if s.V.kind == CONJ_EXP:
                return (similar_structured, s.V.upsilon, s.V.epsilon * np.eye(s.n) + s.V.w)
            if s.V.degree() == 0:
                return (similar_structured, np.zeros((s.n, s.n)), s.V.value)
            return None
        if s.cls in (HOMOGENEOUS, BARL) and s.A.degree() == s.B.degree() == 0:
            return (similar_constant_coeff, s.A.value, s.B.value)
        return None

    pa, pb = as_pair(sys_a), as_pair(sys_b)
    if pa is None or pb is None or pa[0] != pb[0]:
        print("unsupported representations for the similarity test "
              "(need constant-coefficient or structured inputs of the same "
              "shape)", file=sys.stderr)
        return EXIT_INAPPLICABLE
    fld = Field.COMPLEX if Field.COMPLEX in (sys_a.field, sys_b.field) \
        else sys_a.field
    verdict = pa[0](pa[1:], pb[1:], cfg, fld, seed=args.seed)
    payload = {"outcome": verdict.outcome, "notes": verdict.notes}
    if verdict.outcome == "similar":
        payload.update({"alpha": _encode_entry(verdict.alpha),
                        "m": _encode_array(verdict.m),
                        "gamma": _encode_array(verdict.gamma),
                        "residual": verdict.residual})
    if verdict.obstruction:
        payload["obstruction"] = verdict.obstruction
    _emit(args, payload)
    return EXIT_OK


def cmd_demo_n2(args) -> int:
    cfg = _tolerances(args)
    fld = Field(args.field)
    cases = casebook.n2_cases(fld, cfg)
    rows = []
    mismatches = []
    for case in cases:
        rep = classify(case.system)
        got = (rep.k, rep.dim_ess)
        expect = (case.expected_k, case.expected_dim_ess)
        ok = got == expect and rep.case_label == case.label
        rows.append((case.label, expect, got, rep.case_label, ok))
        if not ok:
            mismatches.append(case.label)
    width = 68
    print(f"{'case':>5} | {'expected (k, dim_ess)':>22} | "
          f"{'computed':>12} | {'label':>6} | ok")
    print("-" * width)
    for label, expect, got, got_label, ok in rows:
        print(f"{label:>5} | {str(expect):>22} | {str(got):>12} | "
              f"{got_label or '-':>6} | {'yes' if ok else 'NO'}")
    print(f"{len(rows)} rows, {len(rows) - len(mismatches)} matching")
    if mismatches:
        print(f"mismatched cases: {', '.join(mismatches)}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="symode",
        description="Normalize, classify and integrate normal linear systems "
                    "of second-order ODEs x_tt = A(t) x_t + B(t) x + f(t).")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gauge", help="apply a normalization gauge")
    g.add_argument("input")
    g.add_argument("--target", choices=["f0", "a0", "traceless"], required=True)
    _common_flags(g)
    g.set_defaults(func=cmd_gauge)

    c = sub.add_parser("classify", help="compute the essential symmetry structure")
    c.add_argument("input")
    c.add_argument("--format", choices=["json", "text"], default="json")
    _common_flags(c)
    c.set_defaults(func=cmd_classify)

    i = sub.add_parser("integrate", help="integrate via symmetry procedures")
    i.add_argument("input")
    i.add_argument("--symmetries", default=None,
                   help="JSON file with symmetry vector fields")
    _common_flags(i)
    i.set_defaults(func=cmd_integrate)

    s = sub.add_parser("similar", help="decide point-transformation similarity")
    s.add_argument("input_a")
    s.add_argument("input_b")
    _common_flags(s)
    s.set_defaults(func=cmd_similar)

    d = sub.add_parser("demo-n2", help="run the two-variable classification table")
    d.add_argument("--field", choices=["real", "complex"],
                   default=os.environ.get("SYMODE_FIELD", "complex"),
                   type=_checked(str, lambda f: f in ("real", "complex"),
                                 "real or complex", "SYMODE_FIELD"))
    _common_flags(d)
    d.set_defaults(func=cmd_demo_n2)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or invalid value anywhere is a numerical failure
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    # gauge answers its own GaugeError as inapplicable before this
    except (GaugeError, LinalgError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
