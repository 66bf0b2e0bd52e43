"""Benchmark harness: one module per experiment (see README.md and docs/ARCHITECTURE.md)."""
