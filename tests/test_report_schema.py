"""Each object in a written report is its result type's fields: it rebuilds
that type and equals the object the command computed."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from orlicz_dynamics import cli
from orlicz_dynamics.criteria import Obstruction, Outcome, SeriesPoint, Verdict, WitnessEntry
from orlicz_dynamics.lab import PeriodicityReport, ReturnReport
from orlicz_dynamics.young import Delta2Report
from test_golden_hashes import EXTRA

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_TORSION = {
    "group": {"kind": "cyclic", "m": 4},
    "a": [1],
    "weight": {"family": "constant", "c": 1.0},
    "young": {"family": "power", "p": 2.0},
    "K": {"points": [[0], [1]]},
    "property": "multiply_recurrent",
    "L": 2,
}
# Every value in these reports is finite, so JSON holds it as a number.
CASES = {
    "z_shift_chaotic": None,
    "heisenberg_paper": None,
    "constant_contraction": None,
    "cyclic_torsion": None,
    **EXTRA,
    "torsion_recurrent": _TORSION,
}
# Fields whose tuples JSON writes as lists.
_TUPLES = ("sup_by_l", "return_residuals")


def _rebuild(cls, obj: dict):
    assert set(obj) == {f.name for f in fields(cls)}
    return cls(**{k: tuple(v) if k in _TUPLES else v for k, v in obj.items()})


def _config(tmp_path, name: str) -> str:
    if CASES[name] is None:
        return str(CONFIG_DIR / f"{name}.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CASES[name]))
    return str(path)


def _recording(monkeypatch, name: str, pick=lambda result: result) -> list:
    """Wrap cli.<name> so each call's result object is kept."""
    seen, fn = [], getattr(cli, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        seen.append(pick(result))
        return result

    monkeypatch.setattr(cli, name, wrapper)
    return seen


def _run(tmp_path, *argv) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())["results"]


def _assert_verdict(blob: dict, verdict: Verdict) -> None:
    rebuilt = Verdict(
        request=verdict.request,
        outcome=Outcome(blob["outcome"]),
        witness=tuple(_rebuild(WitnessEntry, w) for w in blob["witness"]),
        obstruction=None if blob["obstruction"] is None else _rebuild(Obstruction, blob["obstruction"]),
        series=tuple(_rebuild(SeriesPoint, p) for p in blob["series"]),
        budget=blob["budget"],
        start_n=blob["start_n"],
        tail_bounded=blob["tail_bounded"],
    )
    assert rebuilt == verdict
    assert set(blob) == {f.name for f in fields(Verdict)} - {"request"} | {"property"}
    assert blob["property"] == verdict.request.property.value


@pytest.mark.parametrize("name", list(CASES))
def test_check_report_rebuilds_its_verdict(tmp_path, monkeypatch, name):
    verdicts = _recording(monkeypatch, "run_check")
    code, results = _run(tmp_path, "check", "--config", _config(tmp_path, name))
    assert code in (0, 2) and len(verdicts) == 1
    _assert_verdict(results["verdict"], verdicts[0])


@pytest.mark.parametrize("name", ["z_shift_chaotic", "heisenberg_paper", "z_multiply_recurrent", "torsion_recurrent"])
def test_simulate_report_rebuilds_its_lab_reports(tmp_path, monkeypatch, name):
    verdicts = _recording(monkeypatch, "run_check")
    returns = _recording(monkeypatch, "empirical_return")
    periodic = _recording(monkeypatch, "chaos_periodic_vector", pick=lambda result: result[1])
    code, results = _run(tmp_path, "simulate", "--config", _config(tmp_path, name))
    assert code == 0
    _assert_verdict(results["verdict"], verdicts[0])
    lab = results["lab"]
    assert len(lab) == len(returns) + len(periodic) > 0
    for entry, report in zip(lab, returns or periodic):
        key, cls = ("return", ReturnReport) if returns else ("periodicity", PeriodicityReport)
        assert set(entry) == {"epsilon", key}
        assert _rebuild(cls, entry[key]) == report


@pytest.mark.parametrize("young", [{"family": "power", "p": 2.5}, {"family": "alphalog", "alpha": 1.5}])
def test_probe_young_report_rebuilds_its_delta2_report(tmp_path, monkeypatch, young):
    probes = _recording(monkeypatch, "delta2_probe")
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({**_TORSION, "young": young}))
    code, results = _run(tmp_path, "probe-young", "--config", str(path))
    assert code == 0 and len(probes) == 1
    assert _rebuild(Delta2Report, results["delta2"]) == probes[0]
