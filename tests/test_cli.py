from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orlicz_dynamics as od
from conftest import block_alternating_weight
from orlicz_dynamics.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out.strip() else None
    return code, envelope


@pytest.mark.parametrize(
    "name,expected",
    [
        ("heisenberg_paper.json", 0),
        ("z_shift_chaotic.json", 0),
        ("cyclic_torsion.json", 2),
        ("constant_contraction.json", 2),
    ],
)
def test_check_exit_codes_on_canned_configs(capsys, name, expected):
    code, envelope = _run(capsys, "check", "--config", str(CONFIG_DIR / name))
    assert code == expected
    assert envelope["results"]["exit_code"] == expected
    assert envelope["schema_version"] == 2


def test_check_heisenberg_witnesses(capsys):
    code, envelope = _run(capsys, "check", "--config", str(CONFIG_DIR / "heisenberg_paper.json"))
    assert code == 0
    verdict = envelope["results"]["verdict"]
    assert verdict["outcome"] == "witness_found"
    assert len(verdict["witness"]) == len(od.DEFAULT_EPSILONS)
    assert verdict["tail_bounded"] is True


def test_check_cyclic_reports_torsion_order(capsys):
    code, envelope = _run(capsys, "check", "--config", str(CONFIG_DIR / "cyclic_torsion.json"))
    assert code == 2
    obstruction = envelope["results"]["verdict"]["obstruction"]
    assert obstruction["kind"] == "torsion"
    assert obstruction["order"] == 3


def test_check_torsion_on_a_huge_cyclic_group_is_immediate(capsys, tmp_path):
    cfg = {
        "group": {"kind": "cyclic", "m": 10**12},
        "a": [1],
        "weight": {"family": "constant", "c": 1.0},
        "young": {"family": "power", "p": 2.0},
        "K": {"points": [[0], [1]]},
        "property": "chaotic",
    }
    path = tmp_path / "huge_cyclic.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    code, envelope = _run(capsys, "check", "--config", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert envelope["results"]["verdict"]["obstruction"]["order"] == 10**12


def test_check_unit_weight_is_inconclusive(capsys, tmp_path):
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.0},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 0]]},
        "property": "transitive",
        "N_max": 16,
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "check", "--config", str(path))
    assert code == 3
    assert envelope["results"]["verdict"]["outcome"] == "inconclusive"


def test_simulate_z_shift(capsys, tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    envelope = json.loads(out.read_text())
    lab = envelope["results"]["lab"]
    assert len(lab) == len(od.DEFAULT_EPSILONS)
    for item in lab:
        assert item["periodicity"]["within_bound"] is True
    orbit = out.with_suffix(".orbit.csv").read_text().strip().splitlines()
    assert orbit[0] == "n,value"
    assert len(orbit) == len(envelope["results"]["orbit_norms"]) + 1


def test_simulate_multiply_recurrent_variant(capsys, tmp_path):
    cfg = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    cfg["property"] = "multiply_recurrent"
    path = tmp_path / "mr.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "simulate", "--config", str(path))
    assert code == 0
    for item in envelope["results"]["lab"]:
        assert item["return"]["success"] is True


def test_simulate_recurrent_and_mixing_routes(capsys, tmp_path):
    for prop in ("recurrent", "mixing"):
        cfg = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
        cfg["property"] = prop
        path = tmp_path / f"{prop}.json"
        path.write_text(json.dumps(cfg))
        code, envelope = _run(capsys, "simulate", "--config", str(path))
        assert code == 0
        for item in envelope["results"]["lab"]:
            assert item["return"]["success"] is True
            assert item["return"]["L"] == 1


def test_simulate_tail_unbounded_flag(capsys, tmp_path):
    weight = block_alternating_weight()
    group = od.IntegerGroup()
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {
            "family": "table",
            "entries": [[group.coords(g), v] for g, v in weight.entries],
            "default": 1.0,
        },
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 0]]},
        "property": "chaotic",
        "N_max": 100,
        "L_max": 8,
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "simulate", "--config", str(path))
    assert code == 3
    assert envelope["results"]["verdict"]["outcome"] == "inconclusive"


def test_norm_command_examples(capsys, tmp_path):
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 1]]},
        "property": "transitive",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    vec = tmp_path / "chi2.json"
    vec.write_text(json.dumps([[[0], 1.0], [[1], 1.0]]))
    code, envelope = _run(capsys, "norm", "--config", str(cfg_path), "--vector", str(vec))
    assert code == 0
    assert envelope["results"]["norm"] == pytest.approx(1.0, rel=1e-11)
    assert envelope["results"]["modular_at_norm"] == pytest.approx(1.0, abs=1e-9)
    # The report says what was computed; the caller already has the vector.
    assert set(envelope["results"]) == {"command", "norm", "modular_at_norm", "support_size"}

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps([]))
    code, envelope = _run(capsys, "norm", "--config", str(cfg_path), "--vector", str(zero))
    assert envelope["results"]["norm"] == 0.0

    cfg["young"] = {"family": "power", "p": 1.0}
    cfg_path.write_text(json.dumps(cfg))
    single = tmp_path / "single.json"
    single.write_text(json.dumps([[[5], 3.0]]))
    code, envelope = _run(capsys, "norm", "--config", str(cfg_path), "--vector", str(single))
    assert envelope["results"]["norm"] == pytest.approx(3.0, rel=1e-11)


def test_norm_under_a_table_shorter_than_one(capsys, tmp_path):
    # The bracket starts where |f|/k lies in the table's domain [0, 0.5],
    # not at max|f| = 1 past it.
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": {"family": "custom", "table": [[0.0, 0.0], [0.5, 2.0]]},
        "K": {"box": [[0, 0]]},
        "property": "transitive",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    vec = tmp_path / "delta.json"
    vec.write_text(json.dumps([[[0], 1.0]]))
    code, envelope = _run(capsys, "norm", "--config", str(cfg_path), "--vector", str(vec))
    assert code == 0
    phi = od.TableYoung(((0.0, 0.0), (0.5, 2.0)))
    assert envelope["results"]["norm"] == od.indicator_norm_closed_form(od.CompactSet.of([0]), phi) == 4.0


def test_probe_young_command(capsys, tmp_path):
    for young, expected in (
        ({"family": "power", "p": 2.0}, 4.0),
        ({"family": "power", "p": 1.0}, 2.0),
    ):
        cfg = {
            "group": {"kind": "Z"},
            "a": [1],
            "weight": {"family": "constant", "c": 1.5},
            "young": young,
            "K": {"box": [[0, 0]]},
            "property": "transitive",
        }
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(cfg))
        code, envelope = _run(capsys, "probe-young", "--config", str(path))
        assert code == 0
        assert envelope["results"]["delta2"]["ratio_sup"] == pytest.approx(expected, abs=1e-9)
        assert len(envelope["results"]["conjugate_table"]) >= 100

    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": {"family": "alphalog", "alpha": 1.5},
        "K": {"box": [[0, 0]]},
        "property": "transitive",
    }
    path = tmp_path / "probe_alpha.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main(["probe-young", "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    csv_path = out.with_suffix(".conjugate.csv")
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().splitlines()) >= 101  # header + rows


@pytest.mark.parametrize(
    "young,low,high",
    [
        ({"family": "power", "p": 100.0}, 2.0**100 * (1 - 1e-12), 2.0**100 * (1 + 1e-12)),
        ({"family": "power", "p": 200.0}, 2.0**200 * (1 - 1e-12), 2.0**200 * (1 + 1e-12)),
        ({"family": "alphalog", "alpha": 100.0}, 2.0**100, float("inf")),
    ],
    ids=["power-100", "power-200", "alphalog-100"],
)
def test_probe_young_large_exponents(capsys, tmp_path, young, low, high):
    # Phi(2 * 10^3) overflows from an exponent of about 94 and Phi(10^-3)
    # underflows from about 109; the probe skips those grid points.
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": young,
        "K": {"box": [[0, 0]]},
        "property": "transitive",
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "probe-young", "--config", str(path))
    assert code == 0
    assert low <= envelope["results"]["delta2"]["ratio_sup"] <= high


def test_out_writes_report_and_series(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["check", "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    envelope = json.loads(out.read_text())
    assert envelope["results"]["verdict"]["outcome"] == "witness_found"
    series = out.with_suffix(".series.csv").read_text().strip().splitlines()
    assert series[0] == "n,sup_phi,sup_phi_tilde,chaos_sum"
    assert len(series) == len(envelope["results"]["verdict"]["series"]) + 1


def test_reports_are_deterministic(capsys):
    def run_once():
        code, envelope = _run(capsys, "check", "--config", str(CONFIG_DIR / "heisenberg_paper.json"))
        assert code == 0
        return envelope

    first, second = run_once(), run_once()
    assert first["determinism_hash"] == second["determinism_hash"]
    first.pop("runtime")
    second.pop("runtime")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_missing_config_errors(capsys):
    code = main(["check", "--config", "/nonexistent/nope.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_non_string_out_fails_before_running(capsys, tmp_path):
    # "out": 5 used to parse, run the whole check and then die in the writer.
    # The report path is now the --out flag's alone: "out" is an unknown field.
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw["out"] = 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = main(["check", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: out: unknown field") and "Traceback" not in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_report_hash_does_not_depend_on_the_out_path(capsys, tmp_path, command):
    envelopes = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main([command, "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--out", str(out)]) == 0
        envelopes.append(json.loads(out.read_text()))
    capsys.readouterr()
    assert envelopes[0]["determinism_hash"] == envelopes[1]["determinism_hash"]
    assert "out" not in envelopes[0]["config"]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz_dynamics", "check", "--config",
         str(CONFIG_DIR / "cyclic_torsion.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["results"]["verdict"]["obstruction"]["order"] == 3
