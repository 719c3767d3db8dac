"""End-to-end benchmark of the repro package: cold CLI, paper figures,
state-dependent scenario campaigns and ``repro serve``, traced per layer.

Run it from the repository root with ``python3 perfbench/run.py --help``.
"""
