"""perfbench — the repository's end-to-end and per-layer benchmark.

Four workloads drive the ``repro`` package through its public API from
one process (``python3 perfbench/run.py --workload NAME``); see
``perfbench/README.md`` for the workload table, the metric map and how
to record references for a new seed.
"""
