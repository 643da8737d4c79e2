"""Benchmark of the supersew engine; run with ``python3 supersewbench/run.py``."""
