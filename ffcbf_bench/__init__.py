"""Benchmark of the ffcbf package: tick throughput, tick latency and outcomes.

Run one workload with

    python3 ffcbf_bench/run.py --workload central-straight --seed 0 --seconds 20 --trace 0

from the repository root.  See ``ffcbf_bench/README.md`` for the workloads,
the metrics and the recorded baseline.
"""
