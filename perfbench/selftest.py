"""Self-test of the checkers: each accepts symode's right answer and rejects a
planted wrong one.

    python3 perfbench/selftest.py

Exits 0 when every checker does both, 1 otherwise.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import symode  # noqa: E402
import symode.cli as symode_cli  # noqa: E402

from perfbench import checks, docs, workloads  # noqa: E402
from perfbench.checks import Failed  # noqa: E402

SEED = 7
results = []


def expect(name, right, wrong):
    """right must be accepted (None) and every planted answer rejected (a reason)."""
    ok = right is None and all(isinstance(w, str) for w in wrong)
    results.append(ok)
    detail = "" if ok else f"  right={right!r} wrong={wrong!r}"
    print(f"{'ok  ' if ok else 'FAIL'} {name}{detail}")


def report_like(rep, **changes):
    fields = {k: getattr(rep, k) for k in ("singular", "k", "dim_s", "dim_ess",
                                           "dim_total", "case_label")}
    fields.update(changes)
    return SimpleNamespace(**fields)


def cli_out(payload, code=0):
    return code, json.dumps(payload), ""


def main():
    inputs = {i["label"]: i for i in workloads.closed_form_inputs(symode, SEED)}

    # casebook row against the table
    item = inputs["casebook/complex/4"]
    rep = symode.classify(docs.build_system(symode, item["doc"]))
    check = checks.classification_check(item)
    expect("casebook row vs (k, dim_ess, label) table", check(rep, {}),
           [check(report_like(rep, k=rep.k + 1, dim_ess=rep.dim_ess + 1,
                              dim_total=rep.dim_total + 1), {}),
            check(report_like(rep, case_label="5"), {}),
            check(Failed(RuntimeError("planted")), {})])

    # random system against the least-squares oracle and the dimension bounds
    item = inputs["constant/n5"]
    rep = symode.classify(docs.build_system(symode, item["doc"]))
    check = checks.classification_check(item)
    expect("random constant V vs oracle and 2n+1 <= dim <= n^2+4", check(rep, {}),
           [check(report_like(rep, dim_s=rep.dim_s - 1, dim_ess=rep.dim_ess - 1,
                              dim_total=rep.dim_total - 1), {}),
            check(report_like(rep, dim_total=2 * 5), {}),
            check(report_like(rep, singular=True), {})])
    item = inputs["polynomial/n4"]
    rep = symode.classify(docs.build_system(symode, item["doc"]))
    check = checks.classification_check(item)
    expect("random polynomial V vs oracle", check(rep, {}),
           [check(report_like(rep, k=1, dim_ess=rep.dim_ess + 1,
                              dim_total=rep.dim_total + 1), {})])

    # affine copy keeps the pushed coefficients (and so (k, dim_s, dim_ess))
    item = inputs["conj_exp/n3"]
    src = docs.build_system(symode, item["doc"])
    tr = docs.build_transform(symode, item["affine"], docs.DOMAIN)
    copy_sys = symode.apply_equivalence(src, tr)
    wrong_aff = copy.deepcopy(item["affine"])
    wrong_aff["H"] = docs.constant(np.sqrt(wrong_aff["a"]) * np.eye(3))
    wrong_copy = symode.apply_equivalence(src, docs.build_transform(symode, wrong_aff,
                                                                    docs.DOMAIN))
    check = checks.affine_copy_check(item)
    expect("affine copy vs own push-forward", check(copy_sys, {}),
           [check(wrong_copy, {})])
    rep = symode.classify(copy_sys)
    check = checks.classification_check(item)
    expect("affine copy keeps (k, dim_s, dim_ess)", check(rep, {}),
           [check(report_like(rep, k=0, dim_ess=rep.dim_ess - 1,
                              dim_total=rep.dim_total - 1), {})])

    # similarity witnesses and spectral obstructions
    pairs = {p["label"]: p for p in workloads.similarity_pairs(SEED)}
    pair = pairs["similar/complex/n3"]
    verdict = symode.similar_structured(pair["a"], pair["b"], fld=symode.Field.COMPLEX)
    bad_m = copy.copy(verdict)
    bad_m.m = verdict.m + 1e-4 * np.eye(3)
    bad_outcome = copy.copy(verdict)
    bad_outcome.outcome = "not_similar"
    check = checks.similarity_check(pair)
    expect("similarity witness re-verified by own residual", check(verdict, {}),
           [check(bad_m, {}), check(bad_outcome, {})])
    pair = pairs["distinct/real/n2"]
    verdict = symode.similar_structured(pair["a"], pair["b"], fld=symode.Field.REAL)
    check = checks.similarity_check(pair)
    expect("spectrally distinct pair gives not_similar", check(verdict, {}),
           [check(SimpleNamespace(outcome="similar", alpha=1.0, m=np.eye(2),
                                  gamma=np.zeros((2, 2))), {})])

    # gauge steps against own RK4 trajectories
    label, doc = workloads.gauge_inputs(SEED)[1]
    sys_in = docs.build_system(symode, doc)
    f0 = symode.gauge_f_zero(sys_in)
    a0 = symode.gauge_A_zero(f0.system)
    ctx = {f"{label}/gauge_f_zero": f0, f"{label}/gauge_A_zero": a0}
    check_f0 = checks.gauge_step_check(label, doc, ["gauge_f_zero"])
    bad_f0 = copy.copy(f0)
    bad_f0.transform = copy.copy(f0.transform)
    h = f0.transform.h
    bad_f0.transform.h = symode.VectorFunction.sampled(
        h.grid, h.values * (1.0 + 1e-4 * np.sin(3 * h.grid))[:, None])
    expect("gauge_f_zero vs own trajectories", check_f0(f0, ctx),
           [check_f0(bad_f0, {**ctx, f"{label}/gauge_f_zero": bad_f0})])
    check_a0 = checks.gauge_step_check(label, doc, ["gauge_f_zero", "gauge_A_zero"])
    bad_a0 = copy.copy(a0)
    bad_a0.system = symode.SystemDescriptor.lprime(
        a0.system.V.add_scalar_identity(1e-4), field=symode.Field.REAL)
    expect("gauge_A_zero vs own trajectories", check_a0(a0, ctx),
           [check_a0(bad_a0, ctx)])
    resid = symode.verify_equivalence(sys_in, f0.system, f0.transform)
    expect("verify_equivalence residual bound",
           checks.verify_residual_check(resid, {}),
           [checks.verify_residual_check(1e-3, {}),
            checks.verify_residual_check(float("nan"), {})])
    tl = symode.gauge_traceless(a0.system)
    ctx[f"{label}/gauge_traceless"] = tl
    rep = symode.classify(tl.system)
    check = checks.gauged_classification_check(label)
    expect("classification of the trace-gauged system vs oracle", check(rep, ctx),
           [check(report_like(rep, k=1, dim_ess=rep.dim_ess + 1,
                              dim_total=rep.dim_total + 1), ctx)])

    # integration: residual, Wronskian, quadrature bounds
    items = {i["label"]: i for i in workloads.integrate_inputs(symode, SEED)}
    item = items["casebook/real/4+f"]
    sol = symode.integrate_auto(docs.build_system(symode, item["doc"]),
                                docs.build_symmetries(symode, item["syms"], docs.DOMAIN))
    check = checks.integration_check(item)
    wobble = copy.copy(sol)
    wobble.positions = sol.positions * (1.0 + 1e-3 * sol.grid ** 2)[:, None, None]
    degenerate = copy.copy(sol)
    degenerate.positions = sol.positions.copy()
    degenerate.positions[:, :, 1] = degenerate.positions[:, :, 0]
    too_many = copy.copy(sol)
    too_many.quadratures = sol.quadratures + 1
    expect("integration residual, Wronskian and quadratures", check(sol, {}),
           [check(wobble, {}), check(degenerate, {}), check(too_many, {})])

    # cli payloads: exit codes and the same oracles
    item = inputs["constant/n3"]
    rep = symode.classify(docs.build_system(symode, item["doc"]))
    cfg = symode.ToleranceConfig()
    payload = symode_cli.classification_payload(rep, cfg)
    check = checks.cli_check({"kind": "classify", "item": item})
    expect("cli classify payload", check(cli_out(payload), {}),
           [check(cli_out({**payload, "dim_s": payload["dim_s"] + 1,
                           "dim_ess": payload["dim_ess"] + 1,
                           "dim_total": payload["dim_total"] + 1}), {}),
            check(cli_out(payload, code=4), {})])
    gauge_payload = {
        "system": symode_cli.system_to_document(f0.system),
        "transform": {"T": symode_cli.encode_scalar_function(f0.transform.T),
                      "H": symode_cli.encode_matrix_function(f0.transform.H),
                      "h": symode_cli.encode_vector_function(f0.transform.h)}}
    bad_payload = copy.deepcopy(gauge_payload)
    bad_payload["transform"]["h"] = symode_cli.encode_vector_function(bad_f0.transform.h)
    check = checks.cli_check({"kind": "gauge", "doc": doc})
    expect("cli gauge payload vs own trajectories", check(cli_out(gauge_payload), {}),
           [check(cli_out(bad_payload), {})])

    print(f"{sum(results)}/{len(results)} checkers accept the right answer and "
          "reject every planted one")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
