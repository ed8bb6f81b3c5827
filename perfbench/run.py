"""symode benchmark: one workload, timed against a fixed reference kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operation list until S seconds have
passed (at least one round), from one process with at most one CLI child at
a time.  Each operation's time is divided by the mean duration of a fixed
reference kernel sampled during and around it (see Clock), which cancels
most of the machine's drift.  The first round's outputs are checked by the checkers in
perfbench/checks.py, and every later round must reproduce them exactly.
With --trace 1 the run reports per-layer metrics from spans instead; see
perfbench/README.md.  The last line of standard output is the result JSON.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported (children inherit it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"    # CLI documents, removed when the run ends
SPANS_DIR = ROOT / ".perfbench_spans"  # span dumps of traced runs
SETUP_PROBES = 3       # fresh interpreters timed for setup_s; the median is reported
REF_INTERVAL_S = 0.25  # reference-kernel sample period while operations run
REF_SHARE = 0.1        # traced run: kernel time owed per second of operation time
REF_WINDOW_S = 0.5     # samples this close to an operation calibrate it
HARD_STOP_S = 120.0    # no new round after this, so a run ends well within 180 s

END_TO_END = {"round_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed on the information line, not gated: ten runs did not hold them
# steady enough for a bound (see README.md).
EXTRA = {"latency_p50_ref": "ref", "latency_p90_ref": "ref", "ops_per_s": "1/s",
         "latency_p50_ms": "ms"}

REF_MATRIX = [[0.0, 1.0, 0.0, 0.0], [-4.0, -0.1, 0.5, 0.0],
              [0.0, 0.0, 0.0, 1.0], [0.3, 0.0, -2.0, -0.2]]
REF_STEPS = 1024


def reference_kernel(np, a):
    """Classical RK4 of y' = A y for the fixed 4x4 A over t in [0, 1], 1024 steps."""
    y = np.array([1.0, 0.0, 0.5, 0.0])
    h = 1.0 / REF_STEPS
    for _ in range(REF_STEPS):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class Clock:
    """Operation timings calibrated by reference-kernel samples taken during them.

    The kernel's speed flips between machine states within seconds, faster
    than many operations last, so samples are taken while the operation runs:
    a SIGALRM timer runs the kernel every REF_INTERVAL_S.  Each operation is
    divided by the mean of the samples within REF_WINDOW_S of it, and the
    samples' own time is taken off the operation's.  A CLI request runs in a
    child on whichever core it gets, so the child samples itself
    (perfbench/cli_child.py) and is divided by the mean of its own samples.
    A traced run samples between operations instead (``charge``/``settle``),
    in its untraced rounds too, so no sample lands inside a span and the
    tracing overhead compares like with like.
    """

    def __init__(self, np):
        self.np = np
        self.a = np.array(REF_MATRIX)
        self.refs = []          # (midpoint, seconds) of each kernel run
        self.budget = 0.0
        self._in_alarm = False

    def ref(self):
        t0 = time.perf_counter()
        reference_kernel(self.np, self.a)
        t1 = time.perf_counter()
        self.refs.append((0.5 * (t0 + t1), t1 - t0))
        return t1 - t0

    def _on_alarm(self, signum, frame):
        if not self._in_alarm:  # a handler can be re-entered between bytecodes
            self._in_alarm = True
            try:
                self.ref()
            finally:
                self._in_alarm = False

    def sampled_within(self, first, t0, t1):
        """Kernel time of the samples from index ``first`` on that ran inside [t0, t1]."""
        return sum(d for m, d in self.refs[first:]
                   if t0 <= m - 0.5 * d and m + 0.5 * d <= t1)

    def start_sampling(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop_sampling(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def charge(self, seconds):
        """Owes REF_SHARE of an operation's time to samples between operations."""
        self.budget += REF_SHARE * seconds

    def settle(self):
        while self.budget > 0.0:
            self.budget -= self.ref()

    def local_ref(self, start, end):
        near = [d for m, d in self.refs if start - REF_WINDOW_S <= m <= end + REF_WINDOW_S]
        if len(near) < 3:
            mid = 0.5 * (start + end)
            near = [d for _, d in sorted(self.refs, key=lambda r: abs(r[0] - mid))[:3]]
        return statistics.fmean(near)

    def calibrated(self, spans):
        return [d / (own or self.local_ref(s, e)) for s, e, d, own in spans]


def fingerprint(out, h):
    """Feeds every number, string and array of an output into the hash h."""
    import numpy as np
    from perfbench.checks import Failed
    if isinstance(out, Failed):
        h.update(repr(out).encode())
    elif out is None or isinstance(out, (str, bool, int, float, complex, np.generic)):
        h.update(repr(out).encode())
    elif isinstance(out, np.ndarray):
        h.update(str(out.dtype).encode() + str(out.shape).encode())
        h.update(np.ascontiguousarray(out).tobytes())
    elif isinstance(out, dict):
        for k in sorted(out):
            h.update(str(k).encode())
            fingerprint(out[k], h)
    elif isinstance(out, (list, tuple)):
        for x in out:
            fingerprint(x, h)
    elif is_dataclass(out):
        for f in fields(out):
            fingerprint(getattr(out, f.name), h)
    elif hasattr(out, "kind") and hasattr(out, "domain"):
        from perfbench.docs import describe
        fingerprint(describe(out), h)
    else:
        h.update(type(out).__name__.encode())


class Round:
    def __init__(self):
        self.spans = []  # (start, end, seconds busy, kernel mean of a CLI child or None)
        self.digest = hashlib.sha256()
        self.ctx = {}
        self.outputs = []


def run_round(ops, clock, keep, sampling, tracer=None, child_files=None):
    """One pass over ops.  ``sampling`` says where reference-kernel samples
    come from: "timer" (inside the operations, this process), "child" (inside
    each CLI child, which writes them to its file in ``child_files``) or
    "between" (between operations; traced runs, whose CLI children write
    spans to their files instead)."""
    from perfbench.checks import Failed
    rnd = Round()
    if tracer is not None:
        tracer.begin_round()
    for _ in range(3):
        clock.ref()
    if sampling == "timer":
        clock.start_sampling()
    try:
        for i, op in enumerate(ops):
            try:
                args = op.prepare(rnd.ctx)
            except Exception as exc:  # an input an earlier failed operation should have made
                out = Failed(exc)
            else:
                if sampling == "between":
                    clock.settle()
                first = len(clock.refs)
                t0 = time.perf_counter()
                try:
                    out = op.invoke(*args)
                except Exception as exc:  # counted as a failed operation, then checked
                    out = Failed(exc)
                t1 = time.perf_counter()
                busy, own_ref = t1 - t0, None
                if sampling == "timer":
                    busy -= clock.sampled_within(first, t0, t1)
                elif sampling == "between":
                    clock.charge(busy)
                if child_files and os.path.exists(child_files[i]):
                    if tracer is not None:
                        tracer.merge(child_files[i])
                    else:
                        with open(child_files[i]) as fh:
                            samples = json.load(fh)
                        busy -= sum(samples)
                        own_ref = statistics.fmean(samples) if samples else None
                    os.remove(child_files[i])
                rnd.spans.append((t0, t1, busy, own_ref))
            rnd.ctx[op.key] = out
            fingerprint(out, rnd.digest)
            if keep:
                rnd.outputs.append(out)
    finally:
        if sampling == "timer":
            clock.stop_sampling()
    for _ in range(3):
        clock.ref()
    if not keep:
        rnd.ctx = {}
    return rnd


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(args):
    """Fresh interpreter: import symode (through its CLI module) and build the inputs."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.interpolate  # noqa: F401
    t2 = time.perf_counter()
    import symode
    import symode.cli  # noqa: F401
    t3 = time.perf_counter()
    from perfbench import workloads
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as wd:
        workloads.build(args.workload, symode, args.seed, str(ROOT), wd)
    print(json.dumps({"import_s": t3 - t0, "import_scipy_s": t2 - t1}))
    return 0


def measure_setup(args):
    walls, imports, scipys = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", args.workload, "--seed", str(args.seed)],
                              capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        scipys.append(probe["import_scipy_s"])
    return (statistics.median(walls), statistics.median(imports),
            statistics.median(scipys))


def main(argv=None):
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["closed-form", "gauge-verify", "integrate", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "symode" / "__init__.py").is_file():
        print(f"perfbench: no symode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        return setup_probe(args)

    import numpy as np
    import scipy
    import symode
    from perfbench import workloads
    from perfbench.tracing import Tracer

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        cli = args.workload == "cli"
        # A traced run keeps kernel samples out of its spans: it samples
        # between operations, in its untraced rounds too.
        if args.trace:
            sampling, child = "between", "plain"
        else:
            sampling, child = ("child", "sample") if cli else ("timer", "plain")
        wl = workloads.build(args.workload, symode, args.seed, str(ROOT),
                             os.path.join(workdir, "untraced"), child)
        files = wl.info.get("out_files")
        clock = Clock(np)
        y = reference_kernel(np, clock.a)
        import scipy.linalg
        ref_ok = bool(np.max(np.abs(y - scipy.linalg.expm(np.array(REF_MATRIX))
                                    @ np.array([1.0, 0.0, 0.5, 0.0]))) < 1e-9)
        t0 = time.perf_counter()
        rounds = [run_round(wl.ops, clock, True, sampling, child_files=files)]
        while (time.perf_counter() - t0 < args.seconds
               and time.perf_counter() - started < HARD_STOP_S):
            rounds.append(run_round(wl.ops, clock, False, sampling, child_files=files))
        # The first round also warms the process up (lazy imports, memory
        # growth); it is timed only when it is the run's only round.
        timed = rounds[1:] or rounds
        tracer, traced = None, []
        if args.trace:
            tracer = Tracer()
            traced_wl = wl
            if cli:
                traced_wl = workloads.build("cli", symode, args.seed, str(ROOT),
                                            os.path.join(workdir, "traced"), "trace")
            tracer.install()  # traced rounds follow the untraced ones, the overhead's baseline
            t1 = time.perf_counter()
            while True:
                traced.append(run_round(traced_wl.ops, clock, False, sampling, tracer=tracer,
                                        child_files=traced_wl.info.get("out_files")))
                if (time.perf_counter() - t1 >= args.seconds / 2
                        or time.perf_counter() - started > HARD_STOP_S):
                    break
            tracer.uninstall()

        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup_s, import_s, import_scipy_s = measure_setup(args)

        # checks, outside every timed region
        first = rounds[0]
        problems, failed_known, failed_other = [], 0, 0
        for op, out in zip(wl.ops, first.outputs):
            try:
                reason = op.check(out, first.ctx)
            except Exception as exc:  # a checker crash rejects the output
                reason = f"checker raised {type(exc).__name__}: {exc}"
            if reason is None:
                continue
            if op.known_fault:
                failed_known += 1
            else:
                failed_other += 1
                problems.append(f"{op.key}: {reason}")
        all_rounds = rounds + traced
        digests = {r.digest.hexdigest() for r in all_rounds}
        if len(digests) != 1:
            problems.append("outputs differ between rounds")
        if not ref_ok:
            problems.append("reference kernel result is wrong")

        per_round_ref, lat_ref, durs = [], [], []
        for r in timed:
            cal = clock.calibrated(r.spans)
            per_round_ref.append(sum(cal))
            lat_ref.extend(cal)
            durs.extend(d for _, _, d, _ in r.spans)
        values = {
            "round_ref": statistics.median(per_round_ref),
            "latency_p50_ref": statistics.median(lat_ref),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": len(durs) / sum(durs),
            "latency_p50_ms": 1e3 * statistics.median(durs),
        }
        if len(lat_ref) >= 100:
            values["latency_p90_ref"] = statistics.quantiles(lat_ref, n=10)[-1]

        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": len(rounds), "timed_rounds": len(timed), "ops_per_round": len(wl.ops),
            "round_ref_each": per_round_ref,
            "reference_ms": 1e3 * statistics.median(d for _, d in clock.refs),
            "output_sha256": first.digest.hexdigest()[:16],
            "known_fault_failures_per_round": failed_known,
            "problems": problems,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "cores": os.cpu_count(),
            "extra": {k: {"value": values[k], "unit": u} for k, u in EXTRA.items()
                      if k in values},
        }
        if args.trace:
            layer, repeat = tracer.layer_metrics()
            if not repeat:
                problems.append("per-layer counts differ between traced rounds")
            untraced = statistics.median(per_round_ref)
            traced_ref = statistics.median(sum(clock.calibrated(r.spans)) for r in traced)
            if cli:  # imports paid by each traced CLI child
                import_s = statistics.median(span_durations(tracer, "cli.import"))
                import_scipy_s = statistics.median(span_durations(tracer, "cli.import_scipy"))
            layer["cli.import_s"] = (import_s, "s")
            layer["cli.import_scipy_s"] = (import_scipy_s, "s")
            layer["trace.round_ref"] = (traced_ref, "ref")
            layer["trace.overhead"] = (traced_ref / untraced - 1.0, "ratio")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            SPANS_DIR.mkdir(exist_ok=True)
            dump = SPANS_DIR / f"{args.workload}-seed{args.seed}.npz"
            tracer.dump(dump)
            info["span_dump"] = str(dump.relative_to(ROOT))
            info["traced_rounds"] = len(traced)
        else:
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(json.dumps({"perfbench": info}))
        print(json.dumps({"correct": not problems,
                          "attempted": len(wl.ops) * len(all_rounds),
                          "failed": (failed_known + failed_other) * len(all_rounds),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def span_durations(tracer, name):
    """Durations of every span with this name (one per traced CLI child)."""
    a = tracer.arrays()
    sel = a["name"] == tracer.names.index(name)
    return list(a["end"][sel] - a["start"][sel])


if __name__ == "__main__":
    sys.exit(main())
