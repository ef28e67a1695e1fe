"""The repository's benchmark: workloads, drift correction, oracle and tracing.

Run it with ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md``.
"""
