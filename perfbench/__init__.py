"""Benchmark of the twinforge digital twin; run it with perfbench/run.py."""
