"""End-to-end and per-layer benchmark of lmn: train, prefill and generate workloads.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see README.md in this directory.
"""
