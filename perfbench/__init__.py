"""Benchmark of the tsadeval command line: workloads, output checks and tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout; see README.md.
"""
