"""Runs the benchmark's own BENCHMARK.json schema check in tier-1, so a
drift between BENCHMARK.json, bench/workloads.py and bench/tracing.py
fails here too. bench/test_bench.py is only imported, never changed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH_TESTS = Path(__file__).resolve().parent.parent / "bench" / "test_bench.py"


def test_benchmark_json_schema(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the module prepends bench/
    spec = importlib.util.spec_from_file_location("bench_test_bench", BENCH_TESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.test_benchmark_json_schema()
