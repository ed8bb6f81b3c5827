"""The benchmark's traced run wraps symode functions by name; each must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for mod_name, attr, _, _ in load_tracing().TARGETS:
        module = importlib.import_module(f"symode.{mod_name}")
        assert callable(getattr(module, attr, None)), f"symode.{mod_name}.{attr} is gone"


def test_rk4_keeps_the_wrapped_signature():
    from symode import numutil
    assert list(inspect.signature(numutil.rk4).parameters)[:3] == ["f", "y0", "grid"]


def test_one_evaluate_span_per_call():
    """The traced run wraps ``evaluate`` on each of the three classes; every
    evaluation must record exactly one span of its own kind."""
    import numpy as np
    from symode.matfun import MatrixFunction, ScalarFunction, VectorFunction

    grid = np.linspace(-1.0, 1.0, 17)
    m = np.array([[0.0, 1.0], [-1.0, 0.5]])
    functions = [
        ScalarFunction.polynomial([0.5, 1.0]), ScalarFunction.sampled(grid, np.cos(grid)),
        VectorFunction.constant(np.ones(2)), VectorFunction.polynomial([np.ones(2)] * 2),
        VectorFunction.sampled(grid, np.outer(grid, [1.0, 2.0])),
        MatrixFunction.constant(m), MatrixFunction.polynomial([m, m]),
        MatrixFunction.conj_exp(0.1, m, m.T),
        MatrixFunction.sampled(grid, grid[:, None, None] * m),
    ]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for f in functions:
            before = len(tracer.name)
            f.evaluate(np.array([0.1, 0.2, 0.3]))
            spans = [tracer.names[i] for i in tracer.name[before:]]
            assert [s for s in spans if s.startswith("matfun.evaluate.")] \
                == [f"matfun.evaluate.{f.kind}"], (type(f).__name__, f.kind, spans)
    finally:
        tracer.uninstall()


def test_gauge_chain_records_one_span_per_step(tmp_path):
    """``symode gauge --target traceless`` on barL input with A != 0 and f != 0
    runs each step once; the traced run must see each of them, so the chain
    may not bind the step functions before the tracer rebinds them."""
    import json
    from symode import cli

    doc = {"n": 2, "field": "real", "class": "barL", "domain": [-1.0, 1.0],
           "A": {"kind": "constant", "m": [[0.2, 0.1], [-0.3, 0.1]]},
           "B": {"kind": "constant", "m": [[0.5, 1.0], [1.0, 0.2]]},
           "f": {"kind": "constant", "m": [0.3, -0.2]}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["gauge", str(path), "--target", "traceless",
                         "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    spans = [tracer.names[i] for i in tracer.name]
    for step in ("gauge_f_zero", "gauge_A_zero", "gauge_traceless"):
        assert spans.count(f"gauge.{step}") == 1, (step, spans)


def test_grid_derivative_records_one_fd_weights_span():
    """``grid_derivative`` computes the weights of every grid point in one
    batched ``fd_weights`` call on a grid it has not seen, and none on a repeat
    call with an equal grid; the traced run sees the cold build."""
    import numpy as np
    from symode import numutil

    grid = np.linspace(-1.0, 1.0, 257)
    numutil._plans.clear()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        numutil.grid_derivative(grid, np.sin(grid), 2)
        first = len(tracer.name)
        numutil.grid_derivative(grid.copy(), np.sin(grid), 2)
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans[:first].count("numutil.grid_derivative") == 1
    assert spans[:first].count("numutil.fd_weights") == 1
    assert spans[first:].count("numutil.grid_derivative") == 1
    assert spans[first:].count("numutil.fd_weights") == 0


def test_exp_factory_records_one_span():
    """Building a factory records one ``linalg.exp_factory`` span, and
    evaluating it on an array records nothing more."""
    import numpy as np
    from conftest import near_defective_4x4
    from symode import linalg

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ef = linalg.exp_factory(near_defective_4x4())
        ef(np.linspace(-1.0, 1.0, 9))
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("linalg.exp_factory") == 1
