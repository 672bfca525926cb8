"""Benchmark plumbing shared by the files under ``benchmarks/``."""

from repro.bench.series import emit, format_table, results_dir, write_csv

__all__ = ["emit", "format_table", "results_dir", "write_csv"]
