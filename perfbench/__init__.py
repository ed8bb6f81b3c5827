"""Benchmark of symode's public operations, timed against a fixed reference kernel.

Run with ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see perfbench/README.md.
"""
