"""Every name the benchmark's tracer wraps must still exist in the package,
so a rename fails here instead of in a later traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,attr,span", tracing.SPANS)
def test_spanned_names_resolve(module, attr, span):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "module,cls,method",
    [(module, cls, method) for module, classes, method, _ in tracing.COUNTED for cls in classes],
)
def test_counted_methods_resolve(module, cls, method):
    owner = getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), cls)
    # The tracer patches the method found in the class's own namespace.
    assert method in vars(owner)
