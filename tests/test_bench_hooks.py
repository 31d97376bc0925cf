"""Every name the benchmark's tracer wraps must still exist in the package,
so a rename fails here instead of in a later traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from orlicz_dynamics import cli
from orlicz_dynamics.config import load_config

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_a_traced_simulate_counts_norms_and_applies():
    # The tracer counts the names it wraps: a norm or an apply routed
    # around them reads 0 in the benchmark.  The period defect T^n v - v
    # is the one apply a chaotic simulate makes.
    cfg = load_config(CONFIGS / "heisenberg_paper.json")
    tracer = tracing.Tracer()
    with tracer.installed():
        _, code = cli.cmd_simulate(cfg)
    metrics = tracer.metrics()
    assert code == 0
    assert metrics["orlicz.norm.calls"] > 0 and metrics["translations.apply.calls"] > 0


@pytest.mark.parametrize(
    "command,config,sidecars",
    [
        ("simulate", "z_shift_chaotic.json", (".series.csv", ".orbit.csv")),
        ("probe-young", "heisenberg_paper.json", (".conjugate.csv",)),
    ],
)
def test_a_traced_write_counts_every_byte_on_disk(capsys, tmp_path, command, config, sidecars):
    # The tracer reads each written path from the writers' first argument.
    out = tmp_path / "report.json"
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    capsys.readouterr()
    paths = [out, *(out.with_suffix(suffix) for suffix in sidecars)]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert tracer.metrics()["report.bytes"] == sum(path.stat().st_size for path in paths)
