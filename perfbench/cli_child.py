"""One symode CLI request, as the cli workload runs it.

Usage: python3 perfbench/cli_child.py sample|trace OUT <symode arguments...>

Runs ``symode.cli.main`` on the arguments, as ``python3 -m symode.cli`` would.
``sample``: the reference kernel runs on a timer inside this process from
just after numpy is imported (run.Clock), and the samples' durations go to
OUT as JSON, so the parent can take their time off the request and calibrate
it by the speed of the core it ran on.  ``trace``: the layer spans of
perfbench/tracing.py plus cli.import (with cli.import_scipy inside it),
cli.load_system and cli.emit go to OUT (.npz) for the parent to merge.
"""

import json
import sys
import time

mode, out_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
t0 = time.perf_counter()
import numpy  # noqa: E402
t1 = time.perf_counter()
if mode == "sample":
    from run import Clock  # this file's directory is on sys.path

    clock = Clock(numpy)
    clock.start_sampling()
import scipy.interpolate  # noqa: E402,F401
t2 = time.perf_counter()
import symode.cli as cli  # noqa: E402
t3 = time.perf_counter()

if mode == "trace":
    from tracing import Tracer

    tracer = Tracer()
    tracer.begin_round()
    tracer.add("cli.import_scipy", t1, t2, tracer.add("cli.import", t0, t3))
    tracer.install()
    cli.load_system = tracer.wrap(cli.load_system, "cli.load_system")
    cli._emit = tracer.wrap(cli._emit, "cli.emit")
try:
    code = cli.main(argv)
finally:
    if mode == "sample":
        clock.stop_sampling()
        with open(out_file, "w") as fh:
            json.dump([d for _, d in clock.refs], fh)
    else:
        tracer.dump(out_file)
sys.exit(code)
