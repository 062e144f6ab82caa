"""The repository benchmark: eight named workloads, measured from outside.

``BENCHMARK.json`` at the repository root names the command, the
workloads and every metric; ``perfbench/README.md`` explains why each
workload exists, which metric each layer should move, and the run
protocol that makes the numbers repeat on a noisy two-core sandbox.

Nothing here is imported by ``repro``; every layer is timed by calling
its public functions, so a change that claims a gain never has to edit
the code that measures it.
"""
