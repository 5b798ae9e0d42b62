"""The tracked HYDRA benchmark: six workloads, end-to-end and per-layer metrics.

``benchmarks/trajectory/run.py`` is the entry point; ``BENCHMARK.json`` at the
repository root declares the workloads, the metrics and their bounds, and
``README.md`` next to ``run.py`` says why each workload exists.

The harness measures the program from outside: it imports only names listed
in ``repro.__all__``, ``repro.core.__all__`` and ``repro.telemetry.__all__``
and calls them with default arguments, so refactors below that surface can
land without editing the benchmark.
"""
