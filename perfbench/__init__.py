"""Benchmark for spernerfix: seeded workloads, checked results, traced layers.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md``.
"""
