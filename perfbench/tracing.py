"""Spans around symode's layers, recorded from the benchmark's side.

Only the traced run installs these wrappers.  A wrapped function is
replaced under every name it is bound to in symode's modules, because
``grid_derivative``, ``rk4_bidirectional`` and the gauge functions are
imported by name into other modules.  Spans are kept in flat arrays in
memory (name, start, end, parent, work, round) and written out once, at the
end; per-layer counts and self times are derived from them.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, work measure) of each wrapped function.
# The work measure maps (args, result) to the count recorded with the span.
TARGETS = [
    ("numutil", "rk4", "numutil.rk4", lambda a, r: len(a[2]) - 1),
    ("numutil", "grid_derivative", "numutil.grid_derivative", lambda a, r: len(a[0])),
    ("numutil", "fd_weights", "numutil.fd_weights", None),
    ("numutil", "cumulative_integral", "numutil.cumulative_integral", lambda a, r: len(a[0])),
    ("matfun", "kl_sequence_with_tail", "matfun.kl_sequence", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "eig_clustered", "linalg.eig_clustered", None),
    ("linalg", "centralizer_basis", "linalg.centralizer_basis", None),
    ("linalg", "invertible_in_affine_space", "linalg.invertible_in_affine_space", None),
    # exp_factory hands back scipy's expm per evaluation when the split fails
    ("linalg", "exp_factory", "linalg.exp_factory",
     lambda a, r: float(getattr(r, "__name__", "") == "evaluate_direct")),
    ("gauge", "gauge_f_zero", "gauge.gauge_f_zero", None),
    ("gauge", "gauge_A_zero", "gauge.gauge_A_zero", None),
    ("gauge", "gauge_traceless", "gauge.gauge_traceless", None),
    ("gauge", "apply_equivalence", "gauge.apply_equivalence", None),
    ("gauge", "verify_equivalence", "gauge.verify_equivalence", None),
    ("symalg", "classify", "symalg.classify", None),
    ("symalg", "similar_structured", "symalg.similar_structured", None),
    ("integrate", "integrate_auto", "integrate.integrate_auto", None),
]
KINDS = ("constant", "polynomial", "conj_exp", "sampled")
RHS = "numutil.rk4.rhs"

# Per-layer metrics: name -> (span name, statistic, unit).  Statistics:
# calls (span count), work (sum of the work measure), self (self time),
# incl (inclusive time).
LAYER_METRICS = {
    "numutil.rk4.calls": ("numutil.rk4", "calls", "count"),
    "numutil.rk4.steps": ("numutil.rk4", "work", "count"),
    "numutil.rk4.rhs_calls": (RHS, "calls", "count"),
    "numutil.rk4.self_s": ("numutil.rk4", "self", "s"),
    "numutil.rk4.rhs_s": (RHS, "incl", "s"),
    "numutil.grid_derivative.calls": ("numutil.grid_derivative", "calls", "count"),
    "numutil.grid_derivative.points": ("numutil.grid_derivative", "work", "count"),
    "numutil.grid_derivative.self_s": ("numutil.grid_derivative", "self", "s"),
    "numutil.fd_weights.calls": ("numutil.fd_weights", "calls", "count"),
    "numutil.fd_weights.self_s": ("numutil.fd_weights", "self", "s"),
    "numutil.cumulative_integral.calls": ("numutil.cumulative_integral", "calls", "count"),
    "numutil.cumulative_integral.points": ("numutil.cumulative_integral", "work", "count"),
    "numutil.cumulative_integral.self_s": ("numutil.cumulative_integral", "self", "s"),
}
for _kind in KINDS:
    _span = f"matfun.evaluate.{_kind}"
    LAYER_METRICS[f"{_span}.calls"] = (_span, "calls", "count")
    LAYER_METRICS[f"{_span}.points"] = (_span, "work", "count")
    LAYER_METRICS[f"{_span}.self_s"] = (_span, "self", "s")
LAYER_METRICS["matfun.kl_sequence.self_s"] = ("matfun.kl_sequence", "self", "s")
for _fn in ("nullspace", "eig_clustered", "centralizer_basis", "invertible_in_affine_space"):
    LAYER_METRICS[f"linalg.{_fn}.calls"] = (f"linalg.{_fn}", "calls", "count")
    LAYER_METRICS[f"linalg.{_fn}.self_s"] = (f"linalg.{_fn}", "self", "s")
LAYER_METRICS["linalg.exp_factory.calls"] = ("linalg.exp_factory", "calls", "count")
LAYER_METRICS["linalg.exp_factory.fallbacks"] = ("linalg.exp_factory", "work", "count")
LAYER_METRICS["linalg.exp_factory.self_s"] = ("linalg.exp_factory", "self", "s")
for _span in ("gauge.gauge_f_zero", "gauge.gauge_A_zero", "gauge.gauge_traceless",
              "gauge.apply_equivalence", "gauge.verify_equivalence", "symalg.classify",
              "symalg.similar_structured", "integrate.integrate_auto"):
    LAYER_METRICS[f"{_span}.self_s"] = (_span, "self", "s")
LAYER_METRICS["symalg.similar_structured.calls"] = ("symalg.similar_structured", "calls",
                                                    "count")
# Spans written by the traced CLI child (perfbench/cli_child.py).
LAYER_METRICS["cli.load_system_s"] = ("cli.load_system", "incl", "s")
LAYER_METRICS["cli.emit_s"] = ("cli.emit", "incl", "s")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("d")
        self.round = array("i")
        self._stack = [-1]
        self._round = -1
        self._undo: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_round(self):
        self._round += 1

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.round.append(self._round)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, work: float = 0.0):
        self.end[i] = perf_counter()
        self.work[i] = work
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Records a finished span."""
        i = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(parent)
        self.work.append(0.0)
        self.round.append(self._round)
        self.start.append(start)
        self.end.append(end)
        return i

    def merge(self, path):
        """Appends the spans a traced child process dumped to ``path``."""
        with np.load(path) as d:
            ids = np.array([self.intern(str(s)) for s in d["names"]], dtype=np.int32)
            base = len(self.start)
            parent = d["parent"]
            self.name.frombytes(ids[d["name"]].tobytes())
            self.parent.frombytes(np.where(parent >= 0, parent + base, -1)
                                  .astype(np.int32).tobytes())
            self.start.frombytes(d["start"].astype(np.float64).tobytes())
            self.end.frombytes(d["end"].astype(np.float64).tobytes())
            self.work.frombytes(d["work"].astype(np.float64).tobytes())
            self.round.frombytes(np.full(len(parent), self._round, dtype=np.int32).tobytes())

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, span, work=None):
        """fn with a span around each call; work(args, result) is recorded with it."""
        nid = self.intern(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(i, work(args, result) if work and result is not None else 0.0)
        return wrapper

    def _wrap_rk4(self, fn):
        nid, rhs_id = self.intern("numutil.rk4"), self.intern(RHS)
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, y0, grid, *args, **kwargs):
            def rhs(t, y):
                j = tracer.open(rhs_id)
                try:
                    return f(t, y)
                finally:
                    tracer.close(j)

            i = tracer.open(nid)
            try:
                return fn(rhs, y0, grid, *args, **kwargs)
            finally:
                tracer.close(i, float(len(grid) - 1))
        return wrapper

    def _wrap_evaluate(self, fn):
        ids = {kind: self.intern(f"matfun.evaluate.{kind}") for kind in KINDS}
        tracer = self

        @functools.wraps(fn)
        def evaluate(obj, t):
            i = tracer.open(ids[obj.kind])
            try:
                return fn(obj, t)
            finally:
                tracer.close(i, float(np.size(t)))
        return evaluate

    def install(self):
        """Wraps every target under every name bound to it in symode's modules."""
        from symode import matfun
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "symode" or name.startswith("symode."))]
        for mod_name, attr, span, work in TARGETS:
            original = getattr(sys.modules[f"symode.{mod_name}"], attr)
            wrapper = (self._wrap_rk4(original) if span == "numutil.rk4"
                       else self.wrap(original, span, work))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for cls in (matfun.MatrixFunction, matfun.VectorFunction, matfun.ScalarFunction):
            self._undo.append((cls, "evaluate", cls.evaluate))
            cls.evaluate = self._wrap_evaluate(cls.evaluate)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "work": np.frombuffer(self.work, dtype=np.float64),
                "round": np.frombuffer(self.round, dtype=np.int32)}

    def per_round(self):
        """{round: {span name: (calls, work, self_s, incl_s)}}."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        out = {r: {} for r in range(self._round + 1)}
        for r in np.unique(a["round"]):
            sel = a["round"] == r
            names = a["name"][sel]
            stats = {}
            for nid in np.unique(names):
                m = names == nid
                stats[self.names[nid]] = (int(m.sum()), float(a["work"][sel][m].sum()),
                                          float(self_t[sel][m].sum()),
                                          float(dur[sel][m].sum()))
            out[int(r)] = stats
        return out

    def layer_metrics(self):
        """Per-layer metrics: counts from the first traced round (they must repeat
        exactly in every round), times as medians over rounds."""
        rounds = self.per_round()
        index = {"calls": 0, "work": 1, "self": 2, "incl": 3}
        values, repeat = {}, True
        for metric, (span, stat, unit) in LAYER_METRICS.items():
            per = [rounds[r].get(span, (0, 0.0, 0.0, 0.0))[index[stat]] for r in sorted(rounds)]
            if unit == "count":
                repeat = repeat and all(p == per[0] for p in per)
                values[metric] = (int(per[0]), unit)
            else:
                values[metric] = (float(np.median(per)), unit)
        return values, repeat

    def dump(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
