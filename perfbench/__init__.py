"""End-to-end and per-layer benchmark of the `fcir` command-line program.

Run `python3 perfbench/run.py --help` from the repository root.
"""
