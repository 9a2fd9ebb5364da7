"""Benchmark of the bergersphere package; see README.md and run.py."""
