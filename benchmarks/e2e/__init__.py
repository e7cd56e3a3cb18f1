"""End-to-end market benchmark: four spec-driven workloads.

See ``benchmarks/e2e/README.md``; run with ``python -m benchmarks.e2e``.
"""
