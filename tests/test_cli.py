from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import orlicz_dynamics as od
from conftest import block_alternating_weight
from orlicz_dynamics import cli, translations
from orlicz_dynamics.cli import main
from orlicz_dynamics.config import parse_config
from test_golden_hashes import GOLDEN

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


def test_check_far_out_K_gives_the_verdict_at_the_origin(capsys, tmp_path):
    # With a = (3, 0, 2) the orbit's z coordinate is x3 + 2j whatever x1 and
    # x2 are, so K shifted by (2^70, 2^70, 0) has the verdict of K at the
    # origin.  Those orbits once went to the scalar loops; neither may run.
    raw = json.loads((CONFIG_DIR / "heisenberg_paper.json").read_text())
    far = 2**70
    raw["K"] = {"box": [[far - 1, far + 1], [far - 1, far + 1], [0, 0]]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(raw))
    _, origin = _run(capsys, "check", "--config", str(CONFIG_DIR / "heisenberg_paper.json"))
    loop_ran = AssertionError("scalar loop ran")
    with (
        mock.patch.object(translations, "orbit_weights_forward", side_effect=loop_ran),
        mock.patch.object(translations, "orbit_weights_backward", side_effect=loop_ran),
    ):
        code, envelope = _run(capsys, "check", "--config", str(path))
    assert code == 0
    assert envelope["results"]["verdict"] == origin["results"]["verdict"]


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


def _write_config(tmp_path, **fields):
    cfg = {
        "group": {"kind": "cyclic", "m": 4},
        "a": [1],
        "weight": {"family": "constant", "c": 1.0},
        "young": {"family": "power", "p": 2.0},
        "K": {"points": [[0], [1]]},
        "property": "recurrent",
        **fields,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("prop,L", [("recurrent", 1), ("multiply_recurrent", 2)])
def test_periodic_torsion_is_recurrent_and_simulates_exactly(capsys, tmp_path, prop, L):
    # Z/4 with a = 1 and weight 1: T^4 = I, so S^{4l} f = f and f is its own
    # witness vector, with returns N(T^{4l} f - f) = 0.
    cfg = _write_config(tmp_path, property=prop, L=L)
    code, envelope = _run(capsys, "check", "--config", cfg)
    assert code == 0 and {w["n"] for w in envelope["results"]["verdict"]["witness"]} == {4}
    code, envelope = _run(capsys, "simulate", "--config", cfg)
    assert code == 0
    returns = [entry["return"] for entry in envelope["results"]["lab"]]
    assert len(returns) == len(od.DEFAULT_EPSILONS)
    for rep in returns:
        assert rep["n"] == 4 and rep["success"]
        assert rep["residual_to_f"] == 0.0 and rep["return_residuals"] == [0.0] * L


def test_shipped_torsion_config_is_not_recurrent(capsys, tmp_path):
    raw = json.loads((CONFIG_DIR / "cyclic_torsion.json").read_text())
    path = tmp_path / "recurrent.json"
    path.write_text(json.dumps({**raw, "property": "recurrent"}))
    for command in ("check", "simulate"):
        code, envelope = _run(capsys, command, "--config", str(path))
        assert code == 2
        obstruction = envelope["results"]["verdict"]["obstruction"]
        # Cycle products 2 on {0, 2, 4} and 1/2 on {1, 3, 5}; 0 comes first.
        assert obstruction["kind"] == "cycle_product"
        assert (obstruction["order"], obstruction["bound"]) == (3, 1.0)


def test_a_period_too_long_to_simulate_fails_fast(capsys, tmp_path):
    cfg = _write_config(tmp_path, group={"kind": "cyclic", "m": 10**12})
    t0 = time.perf_counter()
    code, envelope = _run(capsys, "check", "--config", cfg)
    assert code == 0 and envelope["results"]["verdict"]["witness"][0]["n"] == 10**12
    assert main(["simulate", "--config", cfg]) == 1
    assert "GiB cap" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0


def test_simulate_refuses_a_stack_past_the_cap_before_building_it(capsys, tmp_path, monkeypatch):
    # The request passes, and so does the witness vector v = f + S^n f + ...
    # + S^{4n} f (201 rows of 4n + 1 values, 1.5 MB at n = 202); the stack of
    # its returns T^{ln} v has 5 times the rows and would pass a 4 MB cap.
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[-100, 100]]},
        "property": "multiply_recurrent",
        "L": 4,
        "N_max": 264,
    }
    path = tmp_path / "mr.json"
    path.write_text(json.dumps(cfg))
    cap = 4_000_000
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", cap)
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "GiB cap" in capsys.readouterr().err
    assert peak < cap


@pytest.mark.xfail(strict=True, reason="iterates prunes entries of S^{ln} f that underflow to 0.0")
def test_simulate_keeps_a_witness_whose_returns_underflow(capsys, tmp_path):
    # check finds n = 205 for epsilon = 1/16.  S^{ln} f at x * a^{-ln} is at
    # most 2^(2x - ln), 0.0 in float64 for x < (ln - 1074) / 2, so the
    # witness vector v loses the summands T^{ln} v should bring back onto f:
    # the returns l = 6..8 read 9.4 to 10.0, about N(chi_K), against a target of 5.01.
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[-100, 100]]},
        "property": "multiply_recurrent",
        "L": 8,
        "N_max": 264,
        "epsilons": [0.0625],
    }
    path = tmp_path / "mr.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "check", "--config", str(path))
    assert code == 0 and envelope["results"]["verdict"]["witness"][0]["n"] == 205
    code, envelope = _run(capsys, "simulate", "--config", str(path))
    assert code in (0, 3)


# Phi(t) = t^alpha (1 + |log t|) has Phi'' < 0 just below t = 1 exactly
# when alpha < (3 + sqrt 5) / 2, about 2.618.  There the Luxemburg
# functional breaks the triangle inequality that the lab's targets add
# norms by, so simulate exits 1 on correct witnesses.
NON_CONVEX_CASES = {
    # Dyadic weights: T^n v - v is exactly T^{(L+1)n} f - S^{Ln} f, on
    # disjoint supports; at n = 3 its norm, 5.397e-16, passes the
    # predicted bound 4.996e-16, the sum of the two pieces' norms.
    "z-shift-single": {
        **json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text()),
        "K": {"box": [[0, 0]]},
    },
    # residual_to_f is 0.50219 against the target eps L N(chi_K) = 0.5,
    # while the norms of its four summands add up to 0.427.
    "table-dip": {
        "group": {"kind": "Z"},
        "a": [-1],
        "weight": {
            "family": "table",
            "entries": [[[k], 0.25] for k in range(-26, -17)] + [[[k], 1.1] for k in range(23, 47)],
            "default": 1.0,
        },
        "K": {"points": [[-8]]},
        "property": "multiply_recurrent",
        "L": 4,
        "N_max": 64,
        "epsilons": [0.125],
    },
}


@pytest.mark.parametrize("case", list(NON_CONVEX_CASES))
@pytest.mark.parametrize(
    "young",
    [
        pytest.param(
            {"family": "alphalog", "alpha": 1.5},
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 17"),
            id="alphalog-1.5",
        ),
        pytest.param({"family": "alphalog", "alpha": 2.7}, id="alphalog-2.7"),
        pytest.param({"family": "power", "p": 2.0}, id="power-2"),
    ],
)
def test_simulate_keeps_a_witness_under_a_non_convex_young_function(case, young):
    cfg = parse_config({**NON_CONVEX_CASES[case], "young": young})
    assert cli.cmd_check(cfg)[1] == 0
    _, code = cli.cmd_simulate(cfg)
    assert code in (0, 3)


@pytest.mark.parametrize("prop", ["transitive", "recurrent"])
def test_dyadic_weight_on_Z3_finds_no_false_witness(capsys, tmp_path, prop):
    # Every weight on the orbit of (2, 0, 0) under a = (1, 1, 0) is 1.
    cfg = {
        "group": {"kind": "Zd", "d": 3},
        "a": [1, 1, 0],
        "weight": {"family": "heisenberg_paper"},
        "young": {"family": "power", "p": 2.0},
        "K": {"points": [[2, 0, 0]]},
        "property": prop,
        "epsilons": [0.5],
        "N_max": 8,
    }
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(cfg))
    for command in ("check", "simulate"):
        code, envelope = _run(capsys, command, "--config", str(path))
        assert code == 3 and envelope["results"]["verdict"]["outcome"] == "inconclusive"


def test_step_weight_reads_cyclic_residues(capsys, tmp_path):
    # On Z/4 the step weight is c_neg at 0 and c_pos elsewhere: the cycle
    # product 8 * 0.5^3 is 1, so f is recurrent with witness n = 4.
    cfg = _write_config(tmp_path, weight={"family": "two_sided_step", "c_neg": 8.0, "c_pos": 0.5})
    code, envelope = _run(capsys, "check", "--config", cfg)
    assert code == 0 and {w["n"] for w in envelope["results"]["verdict"]["witness"]} == {4}


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
    assert len(envelope["results"]["orbit_norms"]) == 33  # n = 0 .. min(N_max, 32)


def test_simulate_periodicity_allows_for_rounding(capsys, tmp_path):
    # With c_neg = 3 the divisions of S round, so T^n(S^{ln} f) is not
    # S^{(l-1)n} f bit for bit, and the defect passes the predicted bound
    # by a rounding error (3.5858e-16 against 3.5855e-16 at n = 7).
    cfg = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    cfg["weight"]["c_neg"] = 3.0
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(cfg))
    code, envelope = _run(capsys, "simulate", "--config", str(path))
    assert code == 0
    reports = [item["periodicity"] for item in envelope["results"]["lab"]]
    assert all(r["within_bound"] for r in reports)
    assert any(r["defect"] > r["predicted_bound"] for r in reports)


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


@pytest.mark.parametrize(
    "table,expected",
    [(((0.0, 0.0), (0.5, 0.5)), 2.0), (((0.0, 0.0), (1.5, 0.9)), 1 / 1.5)],
    ids=["short-table-low", "long-table-low"],
)
def test_norm_at_the_table_edge(capsys, tmp_path, table, expected):
    # rho stays below 1 at the edge of the table's domain, where the
    # halving used to step past the table and raise OutOfRangeError.
    cfg = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": {"family": "custom", "table": [list(knot) for knot in table]},
        "K": {"box": [[0, 0]]},
        "property": "transitive",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    vec = tmp_path / "delta.json"
    vec.write_text(json.dumps([[[0], 1.0]]))
    code, envelope = _run(capsys, "norm", "--config", str(cfg_path), "--vector", str(vec))
    assert code == 0
    assert envelope["results"]["norm"] == expected


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
    table = json.loads(out.read_text())["results"]["conjugate_table"]
    assert len(table) == 128 and all(len(row) == 2 for row in table)


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
    assert envelope["results"]["verdict"]["series"]
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("command", ["check", "simulate", "norm", "probe-young"])
def test_out_writes_one_file(capsys, tmp_path, command):
    # The report is the only output: no series, orbit or conjugate CSV.
    vector = tmp_path / "vec.json"
    vector.write_text("[[[0], 1.0], [[1], 0.5]]")
    out = tmp_path / "out" / "report.json"
    out.parent.mkdir()
    argv = [command, "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--out", str(out)]
    if command == "norm":
        argv += ["--vector", str(vector)]
    assert main(argv) == 0
    capsys.readouterr()
    assert list(out.parent.iterdir()) == [out]
    assert json.loads(out.read_text())["results"]["command"] == command


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


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("N_max", "1" + "0" * 400, "N_max"),
        ("L_max", "1" + "0" * 400, "N_max"),
        ("K", '{"box": [[-1' + "0" * 400 + ", 1" + "0" * 400 + "]]}", "K.box"),
        ("N_max", "9" * 5000, "<file>"),
    ],
    ids=["N_max", "L_max", "box", "past-json-digits"],
)
def test_oversized_numbers_exit_1_naming_the_field(capsys, tmp_path, key, value, field):
    # Each died with a traceback: OverflowError, or json.loads' ValueError.
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw.pop(key, None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw)[:-1] + f', "{key}": {value}}}')
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_an_oversized_vector_number_exits_1_naming_the_vector(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text("[[[0], " + "9" * 5000 + "]]")
    assert main(["norm", "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--vector", str(vec)]) == 1
    assert capsys.readouterr().err.startswith("error: <vector>: ")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--config", str(CONFIG_DIR / "cyclic_torsion.json")],
        ["simulate", "--config", str(CONFIG_DIR / "z_shift_chaotic.json")],
        ["norm", "--config", str(CONFIG_DIR / "z_shift_chaotic.json"), "--vector", "VECTOR"],
        ["probe-young", "--config", str(CONFIG_DIR / "heisenberg_paper.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_and_out_print_one_canonical_text(capsys, tmp_path, argv):
    # One encoder serves the hash, --out and stdout: compact JSON with
    # sorted keys and one closing newline, equal apart from runtime.
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([[[0], 1.0], [[3], -0.5], [[-2], 2.5]]))
    argv = [str(vec) if arg == "VECTOR" else arg for arg in argv]
    out = tmp_path / "report.json"
    code = main(argv)
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == code
    capsys.readouterr()
    envelopes = []
    for text in (printed, out.read_text()):
        assert text.endswith("}\n") and text.count("\n") == 1
        envelope = json.loads(text)
        assert text[:-1] == json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        envelope.pop("runtime")
        envelopes.append(envelope)
    assert envelopes[0] == envelopes[1]  # determinism_hash included


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_an_unwritable_out_fails_cleanly(capsys, tmp_path, target):
    out = tmp_path / "nowhere" / "r.json" if target == "missing-dir" else tmp_path
    code = main(["check", "--config", str(CONFIG_DIR / "cyclic_torsion.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: --out: cannot write {out}") and "Traceback" not in captured.err
    assert captured.out == ""


def test_one_parser_serves_every_call(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    config = str(CONFIG_DIR / "z_shift_chaotic.json")
    for argv in (["check"], ["check", "--config"], ["norm", "--config", config], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # A call after argparse's exits parses as a first one: the pinned hash.
    pinned = next(digest for command, name, _, digest in GOLDEN if (command, name) == ("check", "z_shift_chaotic"))
    code, envelope = _run(capsys, "check", "--config", config)
    assert code == 0 and envelope["determinism_hash"] == pinned
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps([[[0], 1.0]]))
    code, envelope = _run(capsys, "norm", "--config", config, "--vector", str(vec))
    assert code == 0 and envelope["results"]["norm"] == 2**-0.5
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--config", config])
    assert exc.value.code == 2


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
