"""Time-to-reproduce benchmark for the NUcache reproduction.

``BENCHMARK.json`` at the repository root declares the workloads and
metrics; this package measures them.  The runner
(:mod:`e2ebench.run`) launches each workload as child processes and
measures them from outside; a separate traced pass
(:mod:`e2ebench.layers`) breaks the time down by layer.  See
``e2ebench/README.md``.
"""
