import copy
import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symode
from symode import cli
from symode.cli import EXIT_INAPPLICABLE, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main
from symode.scalars import ToleranceConfig

from conftest import S1, S2, defective_zeta_draw, generic_draw, graded_draw
from oracles import conj_exp_centralizer_dim


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def barl_doc(a, b, f=(0.0, 0.0)):
    return {
        "n": 2, "field": "complex", "class": "barL", "domain": [-1.0, 1.0],
        "A": {"kind": "constant", "m": [[a[0][0], a[0][1]], [a[1][0], a[1][1]]]},
        "B": {"kind": "constant", "m": [[b[0][0], b[0][1]], [b[1][0], b[1][1]]]},
        "f": {"kind": "constant", "m": list(f)},
    }


def fresh_env():
    """The environment of a fresh process with this symode on its path."""
    src = str(Path(symode.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(argv, flags=()):
    """``python flags -m symode.cli argv`` in a fresh process."""
    return subprocess.run([sys.executable, *flags, "-m", "symode.cli", *argv],
                          env=fresh_env(), capture_output=True, text=True)


LP = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
      "V": {"kind": "constant", "m": [[0.0, 1.0], [1.0, 0.0]]}}


def lp_with_v(**v):
    return {**LP, "V": v}


def without(doc, key):
    return {k: x for k, x in doc.items() if k != key}


ZEROS = [[0.0, 0.0], [0.0, 0.0]]
BARL = barl_doc(ZEROS, S1)

# documents that break a rule of the decoder, each with the start of the
# message that names the offending member
MALFORMED = [
    pytest.param([LP], "<root>: expected an object", id="top-level-list"),
    *(pytest.param({**LP, "n": n}, "n: expected an integer in 1..8", id=f"n-{n!r}")
      for n in ("2", 2.5, True, 0, 9)),
    pytest.param({**LP, "field": "reals"}, "field: expected one of", id="field"),
    pytest.param({**LP, "class": "M"}, "class: expected one of", id="class"),
    pytest.param(without(LP, "domain"), "domain: required member missing", id="no-domain"),
    pytest.param({**LP, "domain": [-1, 0, 1]}, "domain: expected a list of 2 numbers",
                 id="domain-3"),
    pytest.param({**LP, "domain": "[-1, 1]"}, "domain: expected a list of 2 numbers",
                 id="domain-string"),
    pytest.param({**LP, "V": ZEROS}, "V: expected an object, got list", id="V-list"),
    pytest.param(lp_with_v(kind="spline", m=ZEROS), "V: unknown matrix kind spline",
                 id="unknown-kind"),
    pytest.param(lp_with_v(m=ZEROS), "V/kind: required member missing", id="no-kind"),
    pytest.param(lp_with_v(kind="constant"), "V/m: required member missing", id="no-m"),
    pytest.param(lp_with_v(kind="sampled", values=[ZEROS, ZEROS]),
                 "V/t: required member missing", id="no-t"),
    pytest.param(lp_with_v(kind="sampled", t=[-1, 1]), "V/values: required member missing",
                 id="no-values"),
    pytest.param(lp_with_v(kind="constant", m=[[0.0, 1.0], [1.0]]), "V/m: ",
                 id="ragged"),
    pytest.param(lp_with_v(kind="constant", m=[[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]),
                 "V: a matrix function cannot take values of shape (2, 3)", id="non-square"),
    pytest.param(lp_with_v(kind="polynomial", coeffs=[]), "V: ", id="empty-coeffs"),
    pytest.param(lp_with_v(kind="sampled", t=[0.0], values=[ZEROS]), "V: ",
                 id="one-point-grid"),
    pytest.param(lp_with_v(kind="sampled", t=[1.0, 0.0, -1.0], values=[ZEROS] * 3), "V: ",
                 id="descending-grid"),
    pytest.param(lp_with_v(kind="sampled", t=[-1.0, True], values=[ZEROS] * 2),
                 "V/t: expected a number, got True", id="bool-time"),
    pytest.param(lp_with_v(kind="conj_exp", epsilon=[1.0, 2.0, 3.0], upsilon=ZEROS,
                           w=ZEROS), "V/epsilon: expected a number", id="epsilon-3"),
    pytest.param(lp_with_v(kind="conj_exp", epsilon=0.0, upsilon=ZEROS),
                 "V/w: required member missing", id="no-w"),
    pytest.param(without(BARL, "B"), "B: required member missing", id="no-B"),
    # real-field documents refuse complex entries
    pytest.param(lp_with_v(kind="constant", m=[[[0, 1], 1], [0, 0]]),
                 "V: complex entries under field real", id="complex-under-real"),
    pytest.param(lp_with_v(kind="conj_exp", epsilon=[0.0, 1.0], upsilon=ZEROS, w=ZEROS),
                 "V: complex entries under field real", id="complex-epsilon-under-real"),
    # a class that contradicts its data
    pytest.param({**LP, "class": "Ldoubleprime", "V": {"kind": "constant",
                                                      "m": [[1.0, 1.0], [0.0, 0.0]]}},
                 "<root>: Ldoubleprime requires traceless V", id="Ldoubleprime-trace"),
    # each class names its coefficient members
    pytest.param({**BARL, "class": "L"}, "f: class L takes A, B, not f", id="f-on-L"),
    pytest.param({**without(BARL, "f"), "class": "L", "V": LP["V"]},
                 "V: class L takes A, B, not V", id="V-on-L"),
    pytest.param({**BARL, "V": LP["V"]}, "V: class barL takes A, B, f, not V",
                 id="V-on-barL"),
    pytest.param({**LP, "A": LP["V"]}, "A: class Lprime takes V, not A", id="A-on-Lprime"),
    pytest.param({**LP, "class": "Ldoubleprime", "B": LP["V"]},
                 "B: class Ldoubleprime takes V, not B", id="B-on-Ldoubleprime"),
    pytest.param({**LP, "f": BARL["f"]}, "f: class Lprime takes V, not f", id="f-on-Lprime"),
    # an entry's fault names its member and the file
    pytest.param(lp_with_v(kind="constant", m=3.0),
                 "V/m: expected a list of numeric entries, got 3.0", id="m-number"),
]


def _paths(doc, prefix=()):
    """The path of every member and list item inside the JSON value doc."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
VALID = [
    LP,
    BARL,
    lp_with_v(kind="sampled", t=GRID, values=[[[0.0, 1.0], [t, 0.0]] for t in GRID]),
    lp_with_v(kind="conj_exp", epsilon=0.0, upsilon=[[1.0, 0.0], [0.0, -1.0]],
              w=[[0.0, 1.0], [1.0, 0.0]]),
    {**LP, "class": "Ldoubleprime",
     "V": {"kind": "polynomial", "coeffs": [[[0.0, 1.0], [1.0, 0.0]], S1.tolist()]}},
]


@st.composite
def mutated_documents(draw):
    """A valid document with one member dropped, retyped, made non-finite or
    reversed."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent, key = reduce(getitem, path[:-1], doc), path[-1]
    change = draw(st.sampled_from(["drop", "retype", "non-finite", "reverse"]))
    if change == "drop":
        del parent[key]
    elif change == "retype":
        parent[key] = draw(st.sampled_from(["1", True, None, {}, [], 2.5, [[1.0]]]))
    elif change == "non-finite":
        parent[key] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    elif isinstance(parent[key], list):
        parent[key] = parent[key][::-1]
    return doc


@pytest.fixture
def case7_doc(tmp_path):
    return write(tmp_path, "case7.json", barl_doc(np.zeros((2, 2)), S1))


class TestSchema:
    def test_malformed_json_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        assert main(["classify", str(path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_schema_violation_exit2(self, tmp_path, capsys):
        path = write(tmp_path, "bad2.json", {"n": 2, "field": "real"})
        assert main(["classify", str(path)]) == EXIT_SCHEMA
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("system, symmetries, says", [
        pytest.param({"n": 2, "field": "real"}, None, "class: required member missing",
                     id="no-class"),
        pytest.param({"n": 9, "field": "real", "class": "L", "domain": [0, 1]}, None,
                     "n: expected an integer in 1..8, got 9", id="n-9"),
        pytest.param({"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
                      "V": {"kind": "sampled", "t": [0]}}, None,
                     "V/values: required member missing", id="no-values"),
        pytest.param(None, [{"gamma": [[1, 0], [0, 1]]}],
                     "symmetry 0/tau: required member missing", id="symmetry-no-tau"),
        pytest.param(None, {"tau": {"kind": "constant", "m": 1}},
                     "<root>: expected a list of symmetry fields, got dict",
                     id="symmetries-object"),
    ])
    def test_document_fault_names_file_and_member(self, case7_doc, tmp_path, capsys,
                                                  system, symmetries, says):
        if system is not None:
            path = write(tmp_path, "system.json", system)
            argv = ["classify", path]
        else:
            path = write(tmp_path, "syms.json", symmetries)
            argv = ["integrate", case7_doc, "--symmetries", path]
        assert main(argv) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"schema error: {path}: {says}\n"

    @pytest.mark.parametrize("doc, says", MALFORMED)
    def test_malformed_document_exit2(self, tmp_path, capsys, doc, says):
        path = write(tmp_path, "bad.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {path}: {says}"), err
        assert len(err.splitlines()) == 1

    def test_descending_grid_names_the_order(self, tmp_path, capsys):
        # the grid's order is checked before its ends are read as the domain
        path = write(tmp_path, "bad.json",
                     lp_with_v(kind="sampled", t=[1, 0, -1], values=[ZEROS] * 3))
        assert main(["classify", path]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (f"schema error: {path}: V: sampled grid must be "
                                           "strictly ascending, >= 2 points\n")

    def test_malformed_document_no_traceback(self, tmp_path):
        run = run_cli(["gauge", write(tmp_path, "bad.json", {**LP, "n": True}),
                       "--target", "a0"])
        assert run.returncode == EXIT_SCHEMA
        assert run.stderr.startswith("schema error: ") and "Traceback" not in run.stderr

    @given(doc=mutated_documents())
    def test_mutated_document_ends_in_an_exit_code(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("mutated") / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) in (EXIT_OK, EXIT_SCHEMA, EXIT_INAPPLICABLE,
                                                 EXIT_NUMERICAL)

    @pytest.mark.parametrize("name, says", [("bom.json", "'utf-8' codec"),
                                            (".", "Is a directory"),
                                            ("absent.json", "No such file")])
    def test_unreadable_input_exit2(self, tmp_path, capsys, name, says):
        (tmp_path / "bom.json").write_bytes(b"\xff\xfe")
        assert main(["classify", str(tmp_path / name)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error") and says in err

    def test_deeply_nested_json_exit2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["classify", str(path)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {path}: unreadable: ") and "recursion" in err

    def test_unreadable_symmetries_exit2(self, case7_doc, tmp_path, capsys):
        assert main(["integrate", case7_doc, "--symmetries", str(tmp_path)]) == EXIT_SCHEMA
        assert "Is a directory" in capsys.readouterr().err

    def test_unwritable_out_exit2(self, case7_doc, tmp_path, capsys):
        out = str(tmp_path / "absent" / "out.json")
        assert main(["classify", case7_doc, "--out", out]) == EXIT_SCHEMA
        assert "--out" in capsys.readouterr().err

    def test_non_utf8_input_no_traceback(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe")
        run = run_cli(["classify", str(path)])
        assert run.returncode == EXIT_SCHEMA
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("coefficient", ["V", "A"])
    @pytest.mark.parametrize("command", [["classify"], ["gauge", "--target", "traceless"],
                                         ["integrate"]])
    def test_coefficient_short_of_domain_exit2(self, tmp_path, coefficient, command):
        # a sampled coefficient on [0, 1] cannot be evaluated on [-1, 1]
        short = {"kind": "sampled", "t": [0.0, 0.5, 1.0],
                 "values": [[[0.0, 1.0], [t, 0.0]] for t in (0.0, 0.5, 1.0)]}
        if coefficient == "V":
            doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1], "V": short}
        else:
            doc = barl_doc(np.zeros((2, 2)), S1)
            doc["A"] = short
        run = run_cli(command[:1] + [write(tmp_path, "short.json", doc)] + command[1:])
        assert run.returncode == EXIT_SCHEMA, run.stderr
        assert "Traceback" not in run.stderr
        assert f"coefficient {coefficient} is defined on [0, 1]" in run.stderr

    @pytest.mark.parametrize("field, says", [
        ({"tau": {"kind": "sampled", "t": [0.0, 0.0], "values": [1.0, 1.0]}}, "schema error"),
        ({"tau": {"kind": "sampled", "t": [0.0, 0.5, 1.0], "values": [1.0, 1.0, 1.0]}},
         "tau is defined on [0, 1]"),
        ({"tau": {"kind": "polynomial", "coeffs": [1.0]}, "gamma": np.eye(3).tolist()},
         "gamma has shape (3, 3)"),
        ({"tau": {"kind": "polynomial", "coeffs": [1.0]},
          "chi": {"kind": "constant", "m": [0.0, 0.0, 0.0]}}, "chi has size 3"),
        ({"tau": {"kind": "polynomial", "coeffs": [1.0]},
          "chi": {"kind": "sampled", "t": [0.0, 1.0], "values": [[0.0, 0.0], [0.0, 0.0]]}},
         "chi is defined on [0, 1]"),
    ])
    def test_symmetry_that_does_not_fit_exit2(self, case7_doc, tmp_path, field, says):
        spath = write(tmp_path, "syms.json", [field])
        run = run_cli(["integrate", case7_doc, "--symmetries", spath])
        assert run.returncode == EXIT_SCHEMA, run.stderr
        assert "Traceback" not in run.stderr
        assert says in run.stderr

    def test_missing_matrix_exit2(self, tmp_path):
        doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1]}
        path = write(tmp_path, "bad3.json", doc)
        assert main(["classify", str(path)]) == EXIT_SCHEMA

    def test_complex_entries_roundtrip(self, tmp_path, capsys):
        doc = {"n": 2, "field": "complex", "class": "Lprime",
               "domain": [-1, 1],
               "V": {"kind": "constant",
                     "m": [[[0.0, 1.0], 1.0], [0.0, [0.0, -1.0]]]}}
        path = write(tmp_path, "cplx.json", doc)
        assert main(["classify", str(path)]) == EXIT_OK


    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), [0.0, float("-inf")]])
    def test_non_finite_entry_exit2(self, tmp_path, capsys, entry):
        doc = {"n": 2, "field": "complex", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "constant", "m": [[entry, 1.0], [1.0, 0.0]]}}
        path = write(tmp_path, "nonfinite.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_sample_time_exit2(self, tmp_path, capsys):
        doc = {"n": 1, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "sampled", "t": [-1.0, float("nan"), 1.0],
                     "values": [[[0.0]], [[0.5]], [[1.0]]]}}
        path = write(tmp_path, "nonfinite.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_non_finite_domain_exit2(self, tmp_path, capsys, bound):
        doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, bound],
               "V": {"kind": "constant", "m": [[0.0, 1.0], [1.0, 0.0]]}}
        path = write(tmp_path, "nonfinite.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        assert "non-finite" in capsys.readouterr().err

    def test_constant_v_smaller_than_n_exit2(self, tmp_path, capsys):
        doc = {"n": 3, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "constant", "m": [[0.0, 1.0], [1.0, 0.0]]}}
        path = write(tmp_path, "size.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        assert "coefficient V has size 2" in capsys.readouterr().err

    def test_polynomial_v_larger_than_n_exit2(self, tmp_path, capsys):
        coeff = np.eye(3).tolist()
        doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "polynomial", "coeffs": [coeff, coeff]}}
        path = write(tmp_path, "size.json", doc)
        assert main(["gauge", path, "--target", "a0"]) == EXIT_SCHEMA
        assert "coefficient V has size 3" in capsys.readouterr().err

    def test_barl_f_longer_than_n_exit2(self, tmp_path, capsys):
        doc = barl_doc(np.zeros((2, 2)), S1)
        doc["f"]["m"] = [1.0, 2.0, 3.0]
        path = write(tmp_path, "size.json", doc)
        assert main(["classify", path]) == EXIT_SCHEMA
        assert "coefficient f has size 3" in capsys.readouterr().err


class TestGaugeCommand:
    def test_a_gauge_produces_conj_exp(self, tmp_path, capsys):
        doc = barl_doc(-2 * S2, S1)
        path = write(tmp_path, "in.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", "a0", "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["system"]["class"] == "Lprime"
        assert payload["system"]["V"]["kind"] == "conj_exp"
        assert payload["residual"] < 1e-6

    def test_already_gauged_identity(self, tmp_path):
        doc = {"n": 2, "field": "complex", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "constant", "m": [[0.0, 1.0], [0.0, 0.0]]}}
        path = write(tmp_path, "lp.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", "traceless", "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["transform"]["T"] == {"kind": "polynomial",
                                             "coeffs": [0.0, 1.0]}

    def test_roundtrip_classification_unchanged(self, tmp_path, capsys):
        path = write(tmp_path, "in.json", barl_doc(-2 * S2, S1))
        out = str(tmp_path / "g.json")
        assert main(["gauge", path, "--target", "a0", "--out", out]) == EXIT_OK
        gauged_system = json.loads(open(out).read())["system"]
        path2 = write(tmp_path, "g_sys.json", gauged_system)
        out1 = str(tmp_path / "c1.json")
        out2 = str(tmp_path / "c2.json")
        assert main(["classify", path, "--out", out1]) == EXIT_OK
        assert main(["classify", path2, "--out", out2]) == EXIT_OK
        r1 = json.loads(open(out1).read())
        r2 = json.loads(open(out2).read())
        for key in ("k", "dim_s", "case", "dim_ess"):
            assert r1[key] == r2[key]


    def test_complex_trace_exit3(self, tmp_path, capsys):
        doc = {"n": 2, "field": "complex", "class": "Lprime", "domain": [-1.0, 1.0],
               "V": {"kind": "polynomial",
                     "coeffs": [[[[0.0, 1.0], 0.3], [0.2, 0.5]],
                                [[0.1, 0.0], [0.4, [0.0, 0.2]]]]}}
        path = write(tmp_path, "ctrace.json", doc)
        assert main(["gauge", path, "--target", "traceless"]) == EXIT_INAPPLICABLE
        assert "imaginary part" in capsys.readouterr().err


class TestClassifyCommand:
    def test_elementary(self, tmp_path):
        doc = {"n": 2, "field": "complex", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "constant", "m": [[0.0, 0.0], [0.0, 0.0]]}}
        path = write(tmp_path, "free.json", doc)
        out = str(tmp_path / "rep.json")
        assert main(["classify", path, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["singular"] is True and rep["dim_total"] == 15

    def test_case7_json(self, case7_doc, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["classify", case7_doc, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        assert (rep["case"], rep["k"], rep["dim_ess"], rep["dim_total"]) \
            == ("7", 2, 4, 8)

    def test_text_mode_mentions_case(self, case7_doc, capsys):
        assert main(["classify", case7_doc, "--format", "text"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "case 7" in out

    def test_generic_sampled(self, tmp_path):
        grid = np.linspace(-1, 1, 65)
        rngv = np.random.default_rng(6)
        vals = sum(np.polyval(rngv.standard_normal(4), grid)[:, None, None] * m
                   for m in (S1, S2, np.array([[0.0, 0.0], [-1.0, 0.0]])))
        doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "sampled", "t": [float(t) for t in grid],
                     "values": [[[float(x) for x in row] for row in v]
                                for v in vals]}}
        path = write(tmp_path, "samp.json", doc)
        out = str(tmp_path / "rep.json")
        assert main(["classify", path, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["case"] == "0" and rep["dim_total"] == 5

    @staticmethod
    def assert_numerical_failure(path):
        # numpy's overflow is an error, not a warning, with or without -W error
        for flags in ((), ("-W", "error")):
            run = run_cli(["classify", path], flags)
            assert run.returncode == EXIT_NUMERICAL, flags
            assert "numerical failure" in run.stderr
            assert "Traceback" not in run.stderr and "Warning" not in run.stderr

    def test_overflowing_exponential_exit4(self, tmp_path):
        # e^{800 t} overflows on [-1, 1]
        self.assert_numerical_failure(write(tmp_path, "ovf.json", {
            "n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
            "V": {"kind": "conj_exp", "epsilon": 0.0,
                  "upsilon": [[800.0, 0.0], [0.0, -800.0]],
                  "w": [[0.0, 1.0], [1.0, 0.0]]}}))

    def test_overflowing_polynomial_exit4(self, tmp_path):
        # finite coefficients whose values overflow on the domain
        big = [[1e308, 1e308], [1e308, -1e308]]
        self.assert_numerical_failure(write(tmp_path, "ovf.json", {
            "n": 2, "field": "real", "class": "Ldoubleprime", "domain": [-1, 1],
            "V": {"kind": "polynomial", "coeffs": [big, big]}}))

    def test_wide_eigenvalue_spread_classifies(self, tmp_path):
        # with Y / 100 the same W gives dim_s = 0, and t -> 100 t carries one
        # algebra onto the other; the sampling window shrinks with Y's spread
        path = write(tmp_path, "wide.json", {
            "n": 3, "field": "real", "class": "Lprime", "domain": [-1, 1],
            "V": {"kind": "conj_exp", "epsilon": 0.0,
                  "upsilon": np.diag([200.0, 0.0, -200.0]).tolist(),
                  "w": (np.ones((3, 3)) - np.eye(3)).tolist()}})
        run = run_cli(["classify", path])
        assert run.returncode == EXIT_OK
        rep = json.loads(run.stdout)
        assert (rep["k"], rep["dim_s"]) == (1, 0)
        assert run.stderr == ""


class TestIntegrateCommand:
    def test_singular_path(self, tmp_path, capsys):
        path = write(tmp_path, "sing.json",
                     barl_doc(np.zeros((2, 2)), 0.5 * np.eye(2)))
        out = str(tmp_path / "sol.json")
        assert main(["integrate", path, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["procedure"] == "Singular"
        assert payload["residual"] < 1e-5

    def test_one_symmetry_path(self, tmp_path):
        sysdoc = {"n": 2, "field": "complex", "class": "L", "domain": [-1, 1],
                  "A": {"kind": "constant", "m": [[0.0, 0.0], [0.0, 0.0]]},
                  "B": {"kind": "conj_exp", "epsilon": 0.0,
                        "upsilon": [[1.0, 0.0], [0.0, -1.0]],
                        "w": [[0.0, 1.0], [0.0, 0.0]]}}
        path = write(tmp_path, "case5.json", sysdoc)
        syms = [{"tau": {"kind": "polynomial", "coeffs": [1.0]},
                 "gamma": [[1.0, 0.0], [0.0, -1.0]]}]
        spath = write(tmp_path, "syms.json", syms)
        out = str(tmp_path / "sol.json")
        assert main(["integrate", path, "--symmetries", spath,
                     "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["procedure"] == "OneSymmetry"
        assert payload["quadratures"] == 1
        assert payload["residual"] < 1e-5
        # tau = 1, Gamma = Y: A~ = -2Y and B~ = W - Y^2
        np.testing.assert_allclose(payload["abar"], [[-2.0, 0.0], [0.0, 2.0]], atol=1e-12)
        np.testing.assert_allclose(payload["bbar"], [[-1.0, 1.0], [0.0, -1.0]], atol=1e-12)

    def test_two_symmetry_path(self, case7_doc, tmp_path):
        syms = [{"tau": {"kind": "polynomial", "coeffs": [1.0]},
                 "gamma": [[0.0, 0.0], [0.0, 0.0]]},
                {"tau": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
                 "gamma": [[1.5, 0.0], [0.0, -0.5]]}]
        spath = write(tmp_path, "syms.json", syms)
        out = str(tmp_path / "sol.json")
        assert main(["integrate", case7_doc, "--symmetries", spath,
                     "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["procedure"] == "TwoSymmetry"
        assert payload["residual"] < 1e-5

    def test_one_symmetry_at_n6(self, tmp_path):
        # the 12 x 12 companion exponential of an n = 6 system
        y, w = generic_draw(0, 6)
        path = write(tmp_path, "sys.json", {
            "n": 6, "field": "real", "class": "L", "domain": [-1, 1],
            "A": {"kind": "constant", "m": np.zeros((6, 6)).tolist()},
            "B": {"kind": "conj_exp", "epsilon": 0.0, "upsilon": y.tolist(), "w": w.tolist()}})
        spath = write(tmp_path, "syms.json", [
            {"tau": {"kind": "polynomial", "coeffs": [1.0]}, "gamma": y.tolist()}])
        out = str(tmp_path / "sol.json")
        assert main(["integrate", path, "--symmetries", spath, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["procedure"] == "OneSymmetry"
        assert payload["residual"] < 1e-5

    def test_defective_zeta_subprocess(self, tmp_path):
        v, gamma = defective_zeta_draw(0)
        path = write(tmp_path, "sys.json", {
            "n": 4, "field": "real", "class": "L", "domain": [-1, 1],
            "A": {"kind": "constant", "m": np.zeros((4, 4)).tolist()},
            "B": {"kind": "constant", "m": v.tolist()}})
        spath = write(tmp_path, "syms.json", [
            {"tau": {"kind": "polynomial", "coeffs": [1.0]},
             "gamma": np.zeros((4, 4)).tolist()},
            {"tau": {"kind": "polynomial", "coeffs": [0.0, 1.0]},
             "gamma": gamma.tolist()}])
        out = str(tmp_path / "sol.json")
        run = run_cli(["integrate", path, "--symmetries", spath, "--out", out])
        assert run.returncode == EXIT_OK
        assert "Traceback" not in run.stderr
        payload = json.loads(open(out).read())
        assert payload["procedure"] == "TwoSymmetry"
        assert payload["quadratures"] == payload["quadrature_bound"] == 4
        assert payload["residual"] < 1e-5

    def test_regular_without_symmetries_exit3(self, case7_doc, capsys):
        assert main(["integrate", case7_doc]) == EXIT_INAPPLICABLE
        assert "regular systems require known symmetries" in capsys.readouterr().err

    @pytest.mark.parametrize("b, cause", [
        # U = 0.5 + 0.3i gives no real time map
        ([[[0.5, 0.3], 0.0], [0.0, [0.5, 0.3]]], "imaginary part up to 0.3"),
        # U = -200 drives phi2 through zero too often
        ([[-200.0, 0.0], [0.0, -200.0]], "no zero-free subinterval")])
    def test_singular_refusal_exit3_without_the_symmetry_hint(self, tmp_path, capsys, b,
                                                              cause):
        doc = {**barl_doc(np.zeros((2, 2)), np.zeros((2, 2))),
               "B": {"kind": "constant", "m": b}}
        assert main(["integrate", write(tmp_path, "sing.json", doc)]) == EXIT_INAPPLICABLE
        err = capsys.readouterr().err
        assert err.startswith("integration inapplicable: ") and cause in err
        assert "symmetries" not in err

    def test_graded_pair_refused_exit3(self, tmp_path, capsys):
        # the two fields classify finds for a graded draw do not split into
        # blocks: a structural refusal that names the way out
        y, w = graded_draw(0, 3)
        path = write(tmp_path, "sys.json", {
            "n": 3, "field": "real", "class": "L", "domain": [-1, 1],
            "A": {"kind": "constant", "m": np.zeros((3, 3)).tolist()},
            "B": {"kind": "conj_exp", "epsilon": 0.0, "upsilon": y.tolist(), "w": w.tolist()}})
        rep = symode.classify(cli.load_system(path, ToleranceConfig()))
        spath = write(tmp_path, "syms.json", [
            {"tau": cli.encode_function(tau), "gamma": cli._encode_array(gamma)}
            for tau, gamma in rep.essential.t_part])
        assert main(["integrate", path, "--symmetries", spath]) == EXIT_INAPPLICABLE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("integration inapplicable: ")
        assert "does not split the system into blocks" in err[0]
        assert "integrate with a single field" in err[0]
        assert "numerical failure" not in err[0]

    def test_constant_tau_document_exit2(self, case7_doc, tmp_path, capsys):
        # a scalar constant is written as a one-row polynomial document
        spath = write(tmp_path, "syms.json", [{"tau": {"kind": "constant", "m": 1.0},
                                               "gamma": [[0, 0], [0, 0]]}])
        assert main(["integrate", case7_doc, "--symmetries", spath]) == EXIT_SCHEMA
        assert "unknown scalar kind constant" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [{"coeffs": [1.0]}, {"kind": "polynomial"}])
    def test_incomplete_tau_document_exit2(self, case7_doc, tmp_path, capsys, tau):
        spath = write(tmp_path, "syms.json", [{"tau": tau, "gamma": [[0, 0], [0, 0]]}])
        assert main(["integrate", case7_doc, "--symmetries", spath]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err


class TestSimilarCommand:
    def test_similar_pair(self, tmp_path):
        a = write(tmp_path, "a.json", barl_doc(np.zeros((2, 2)), S2))
        b = write(tmp_path, "b.json", barl_doc(np.zeros((2, 2)), 4.0 * S2))
        out = str(tmp_path / "v.json")
        assert main(["similar", a, b, "--out", out]) == EXIT_OK
        verdict = json.loads(open(out).read())
        assert verdict["outcome"] == "similar"
        assert abs(abs(complex(*np.atleast_1d(verdict["alpha"]).tolist()[:1],
                               )) - 2.0) < 1e-6 or verdict["alpha"] in (2.0, -2.0)

    def test_not_similar_pair(self, tmp_path):
        a = write(tmp_path, "a.json", barl_doc(np.zeros((2, 2)), S1))
        b = write(tmp_path, "b.json", barl_doc(np.zeros((2, 2)), S2))
        out = str(tmp_path / "v.json")
        assert main(["similar", a, b, "--out", out]) == EXIT_OK
        verdict = json.loads(open(out).read())
        assert verdict["outcome"] == "not_similar"

    @pytest.mark.parametrize("rows", [1, 2])
    def test_degree_zero_polynomial_v(self, tmp_path, rows):
        # a polynomial document whose content is constant takes the structured
        # test, as the constant document does
        def doc(v):
            coeffs = [v.tolist()] + [np.zeros((2, 2)).tolist()] * (rows - 1)
            return {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
                    "V": {"kind": "polynomial", "coeffs": coeffs}}
        a = write(tmp_path, "a.json", doc(S1 + 0.5 * S2))
        b = write(tmp_path, "b.json", doc(4.0 * (S1 + 0.5 * S2)))
        out = str(tmp_path / "v.json")
        assert main(["similar", a, b, "--out", out]) == EXIT_OK
        assert json.loads(open(out).read())["outcome"] == "similar"

    def test_unsupported_rep_exit3(self, tmp_path, capsys):
        grid = np.linspace(-1, 1, 65)
        doc = {"n": 2, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "sampled", "t": [float(t) for t in grid],
                     "values": [[[0.0, 1.0], [0.0, 0.0]] for _ in grid]}}
        a = write(tmp_path, "a.json", doc)
        b = write(tmp_path, "b.json", barl_doc(np.zeros((2, 2)), S2))
        assert main(["similar", a, b]) == EXIT_INAPPLICABLE


    def test_n6_conj_exp_matches_oracle(self, tmp_path):
        # the n = 6 conj_exp draw whose monomial K-sequence did not stabilize
        rng = np.random.default_rng(0)
        ups, w = (m - np.trace(m) / 6 * np.eye(6)
                  for m in (rng.standard_normal((6, 6)) for _ in range(2)))
        doc = {"n": 6, "field": "real", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "conj_exp", "epsilon": 0.0, "upsilon": ups.tolist(),
                     "w": w.tolist()}}
        path = write(tmp_path, "k6.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["classify", path, "--out", out]) == EXIT_OK
        assert json.loads(open(out).read())["dim_s"] == conj_exp_centralizer_dim(ups, w)[0]
        assert main(["similar", path, path, "--out", out]) == EXIT_OK
        assert json.loads(open(out).read())["outcome"] == "similar"


class TestDemo:
    def test_complex_eight_rows(self, capsys):
        assert main(["demo-n2", "--field", "complex"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8 rows, 8 matching" in out

    def test_real_eleven_rows(self, capsys):
        assert main(["demo-n2", "--field", "real"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "11 rows, 11 matching" in out

    def test_loose_tolerance_still_matches(self, capsys):
        assert main(["demo-n2", "--field", "complex", "--tol", "1e-2"]) == EXIT_OK


class TestGaugeFZeroCommand:
    def test_inhomogeneous_to_homogeneous(self, tmp_path):
        doc = barl_doc(np.zeros((2, 2)), S1, f=(0.5, -0.2))
        path = write(tmp_path, "inh.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", "f0", "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["system"]["class"] == "L"
        assert payload["transform"]["h"]["kind"] == "sampled"
        assert payload["residual"] < 1e-6

    def test_sampled_system_roundtrips_through_json(self, tmp_path):
        doc = barl_doc(np.zeros((2, 2)), S1, f=(0.5, -0.2))
        path = write(tmp_path, "inh.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", "f0", "--out", out]) == EXIT_OK
        gauged = json.loads(open(out).read())["system"]
        path2 = write(tmp_path, "sys2.json", gauged)
        out2 = str(tmp_path / "rep.json")
        assert main(["classify", path2, "--out", out2]) == EXIT_OK
        rep = json.loads(open(out2).read())
        assert rep["case"] == "7"


class TestGaugeChain:
    """Multi-step targets are verified and emitted as one source -> final transform."""

    @pytest.mark.parametrize("target", ["a0", "traceless"])
    def test_forced_free_a_chain(self, tmp_path, target):
        doc = barl_doc(np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]], f=(0.3, -0.2))
        path = write(tmp_path, "in.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", target, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["residual"] < 10 * 1e-6
        assert payload["transform"]["h"]["kind"] == "sampled"

    def test_three_step_chain(self, tmp_path):
        doc = {"n": 2, "field": "real", "class": "barL", "domain": [-1.0, 1.0],
               "A": {"kind": "polynomial",
                     "coeffs": [[[0.2, 0.1], [-0.3, 0.1]], [[0.1, 0.0], [0.2, -0.1]]]},
               "B": {"kind": "constant", "m": [[0.5, 1.0], [1.0, 0.2]]},
               "f": {"kind": "constant", "m": [0.3, -0.2]}}
        path = write(tmp_path, "in.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["gauge", path, "--target", "traceless", "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["system"]["class"] == "Ldoubleprime"
        assert payload["transform"]["T"]["kind"] == "sampled"
        assert payload["residual"] < 10 * 1e-6


class TestEnvOverrides:
    def test_env_sets_default_flag_beats_env(self, tmp_path, monkeypatch):
        doc = {"n": 2, "field": "complex", "class": "Lprime", "domain": [-1, 1],
               "V": {"kind": "constant", "m": [[0.0, 1.0], [0.0, 0.0]]}}
        path = write(tmp_path, "v.json", doc)
        out = str(tmp_path / "rep.json")
        monkeypatch.setenv("SYMODE_TOL", "1e-4")
        assert main(["classify", path, "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["tolerances"]["residual_tol"] == 1e-4
        assert main(["classify", path, "--tol", "1e-5", "--out", out]) == EXIT_OK
        rep = json.loads(open(out).read())
        assert rep["tolerances"]["residual_tol"] == 1e-5


class TestOptionValues:
    """Invalid option values and SYMODE_* overrides end in exit 2 naming the flag."""

    @pytest.fixture
    def lp_doc(self, tmp_path):
        return write(tmp_path, "lp.json",
                     {"n": 2, "field": "real", "class": "Lprime", "domain": [-1.0, 1.0],
                      "V": {"kind": "constant", "m": [[0.3, 1.0], [0.5, -0.1]]}})

    @staticmethod
    def exit_of(argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr().err

    def test_rank_tol_above_cluster_tol_exit2(self, lp_doc, capsys):
        code, err = self.exit_of(["classify", lp_doc, "--rank-tol", "1e-6"], capsys)
        assert code == EXIT_SCHEMA and "--rank-tol" in err

    def test_zero_tol_exit2(self, lp_doc, capsys):
        code, err = self.exit_of(["classify", lp_doc, "--tol", "0"], capsys)
        assert code == EXIT_SCHEMA and "--tol" in err

    def test_nan_tol_exit2(self, lp_doc, capsys):
        code, err = self.exit_of(["classify", lp_doc, "--tol", "nan"], capsys)
        assert code == EXIT_SCHEMA and "--tol" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_tolerance_config_rejects_residual_tol(self, value):
        with pytest.raises(ValueError, match="residual_tol"):
            ToleranceConfig(residual_tol=value)

    @pytest.mark.parametrize("grid", ["2", "0", "-5"])
    def test_coarse_grid_exit2(self, lp_doc, capsys, grid):
        code, err = self.exit_of(["gauge", lp_doc, "--target", "traceless",
                                  "--grid", grid], capsys)
        assert code == EXIT_SCHEMA and "--grid" in err

    def test_smallest_grid_runs(self, lp_doc, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["gauge", lp_doc, "--target", "traceless", "--grid", "8",
                     "--out", out]) == EXIT_OK

    def test_malformed_env_grid_exit2(self, lp_doc, capsys, monkeypatch):
        monkeypatch.setenv("SYMODE_GRID", "abc")
        code, err = self.exit_of(["classify", lp_doc], capsys)
        assert code == EXIT_SCHEMA and "--grid" in err and "SYMODE_GRID" in err


def test_import_loads_no_scipy():
    """Importing the library and its CLI, a conj_exp classification, a
    structured similarity test and an integration of a casebook row load no
    scipy module."""
    code = ("import sys, symode, symode.cli\n"
            "from symode import casebook, classify, integrate_auto, similar_structured\n"
            "case = {c.label: c for c in casebook.n2_cases()}['4']\n"
            "assert classify(case.system).case_label == '4'\n"
            "v = case.system.V\n"
            "similar_structured((v.upsilon, v.w), (v.upsilon, v.w))\n"
            "integrate_auto(case.system, case.symmetries)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_jsonschema():
    """The CLI validates documents itself; importing it loads no jsonschema."""
    code = "import sys, symode.cli\nprint('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
