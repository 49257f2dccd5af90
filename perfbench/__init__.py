"""The repository's benchmark: closed-loop workloads over the reproduction.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  ``perfbench/README.md``
describes the workloads, the metrics and the spreads their bounds rest on.
"""
