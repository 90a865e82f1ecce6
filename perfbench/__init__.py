"""The qmux benchmark: three workloads, output checks and span tracing.

Run it with `python3 perfbench/run.py`; see run.py for the arguments.
"""
