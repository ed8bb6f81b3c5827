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
