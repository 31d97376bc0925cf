"""Self-test of the benchmark: schemas, seeded inputs, and a smoke run of
each workload at a reduced size.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = 0.1


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(a) <= 200 for a in SPEC["command"])
    assert all(not a.startswith("/") and ".." not in a for a in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    configs = run.ROOT / "configs"
    first = workloads.build(name, 7, configs).files
    assert workloads.build(name, 7, configs).files == first
    other = workloads.build(name, 8, configs).files
    # Beyond the echoed seed, the seed moves K offsets and vector values.
    if name == "criteria-lab":
        key = "check-heisenberg-chaos.cfg.json"
        assert json.loads(other[key])["K"] != json.loads(first[key])["K"]
    if name == "norm-large":
        assert other["power.vec.json"] != first["power.vec.json"]


def _check_record(record: dict, trace: bool) -> None:
    assert record["correct"], record["problems"]
    assert record["attempted"] >= 1
    for key in ("workload", "seed", "why", "input_sizes", "input_sha256", "machine", "noise", "commands"):
        assert key in record
    assert set(record["machine"]) == {"nproc", "cpu_model", "python", "numpy", "git_commit"}
    assert set(record["noise"]) == {"steal_s", "calibration_s"}
    for cmd in record["commands"]:
        if cmd["label"] == "probe-table":
            assert cmd["status"] == "known_defect" and cmd["exit"] == 1
        else:
            assert cmd["status"] == "ok" and cmd["exit"] == cmd["expected_exit"]
            assert re.fullmatch(r"[0-9a-f]{64}", cmd["determinism_hash"])
    contract = run.contract_metrics(record)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(contract) == names
    for m in contract.values():
        assert isinstance(m["value"], (int, float)) and UNIT.match(m["unit"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_untraced(name):
    record, tracers = run.run(name, 3, 0.0, trace=False, scale=SMALL)
    _check_record(record, trace=False)
    assert tracers == []
    assert record["metrics"]["fail_frac"]["value"] == record["failed"] / record["attempted"]
    if name == "norm-large":
        assert record["failed"] == record["metrics"]["wall_s"]["samples"]
    else:
        assert record["failed"] == 0
        assert all(m["value"] > 0 for n, m in record["metrics"].items() if n != "fail_frac")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name):
    record, tracers = run.run(name, 3, 0.0, trace=True, scale=SMALL)
    _check_record(record, trace=True)
    assert len(tracers) >= 2
    m = record["metrics"]
    active = {
        "criteria-lab": (
            "groups.mul.calls", "translations.orbit.points", "criteria.candidates",
            "translations.apply.calls", "orlicz.norm.calls", "lab.periodic.self_s",
        ),
        "norm-large": ("orlicz.modular.calls", "young.evaluate.calls", "numerics.golden.calls", "report.bytes"),
    }[name]
    assert all(m[k]["value"] > 0 for k in active)
    if name == "criteria-lab":
        assert m["young.complementary.calls"]["value"] == 0 and m["config.vector.self_s"]["value"] == 0
    if name == "norm-large":
        assert m["groups.mul.calls"]["value"] == 0 and m["translations.orbit.calls"]["value"] == 0
