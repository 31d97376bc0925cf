from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import orlicz_dynamics as od
from orlicz_dynamics import report
from orlicz_dynamics.config import (
    emit_config,
    load_config,
    parse_config,
    vector_from_file,
)
from orlicz_dynamics.errors import ConfigError
from orlicz_dynamics.report import (
    _sanitize,
    determinism_hash,
    dumps_canonical,
    make_envelope,
    render_envelope,
    write_envelope,
    write_series_csv,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CANNED = [
    "heisenberg_paper.json",
    "z_shift_chaotic.json",
    "cyclic_torsion.json",
    "constant_contraction.json",
]


@pytest.mark.parametrize("name", CANNED)
def test_canned_configs_parse(name):
    cfg = load_config(CONFIG_DIR / name)
    assert cfg.K.measure() >= 1
    cfg.request()  # validates budgets


@pytest.mark.parametrize("name", CANNED)
def test_config_round_trip_is_canonical(name):
    raw = json.loads((CONFIG_DIR / name).read_text())
    cfg = parse_config(raw)
    canonical = emit_config(cfg)
    # parse of the canonical form emits the identical canonical form
    assert emit_config(parse_config(canonical)) == canonical
    # and the canonical form preserves every explicit input field
    for key, value in raw.items():
        if key in ("a",):
            assert canonical[key] == value
        elif key in ("group", "weight", "young", "K"):
            for k2, v2 in value.items():
                assert canonical[key][k2] == v2
        else:
            assert canonical[key] == value


def test_parse_accepts_bare_ints_and_fills_defaults():
    cfg = parse_config(
        {
            "group": {"kind": "Z"},
            "a": 1,
            "weight": {"family": "constant", "c": 1.5},
            "young": {"family": "power", "p": 2.0},
            "K": {"box": [0, 3]},
            "property": "transitive",
        }
    )
    assert cfg.a == 1
    assert cfg.K.measure() == 4
    assert cfg.epsilons == od.DEFAULT_EPSILONS
    assert cfg.N_max == 64 and cfg.L_max == 32 and cfg.L == 1 and cfg.seed == 0
    out = emit_config(cfg)
    assert out["a"] == [1]
    assert out["K"] == {"box": [[0, 3]]}


def test_lattice_group_config():
    cfg = parse_config(
        {
            "group": {"kind": "Zd", "d": 2},
            "a": [1, -1],
            "weight": {"family": "table", "entries": [[[0, 0], 2.0]], "default": 0.5},
            "young": {"family": "alphalog", "alpha": 1.5},
            "K": {"box": [[0, 1], [0, 1]]},
            "property": "recurrent",
        }
    )
    assert cfg.a == (1, -1)
    assert cfg.K.measure() == 4
    out = emit_config(cfg)
    assert out["group"] == {"kind": "Zd", "d": 2}
    assert emit_config(parse_config(out)) == out


def test_points_K_spec():
    cfg = parse_config(
        {
            "group": {"kind": "heisenberg"},
            "a": [3, 0, 2],
            "weight": {"family": "heisenberg_paper"},
            "young": {"family": "power", "p": 2.0},
            "K": {"points": [[0, 0, 0], [1, -1, 0]]},
            "property": "chaotic",
        }
    )
    assert cfg.K.measure() == 2
    assert emit_config(cfg)["K"] == {"points": [[0, 0, 0], [1, -1, 0]]}


@pytest.mark.parametrize(
    "mutation,field",
    [
        (lambda c: c.pop("group"), "<root>.group"),
        (lambda c: c.pop("property"), "<root>.property"),
        (lambda c: c["group"].update(kind="nope"), "group.kind"),
        (lambda c: c.update(property="sideways"), "property"),
        (lambda c: c.update(K={"box": [[2, 1]]}), "K.box"),
        (lambda c: c.update(K={"points": []}), "K.points"),
        (lambda c: c.update(K={}), "K"),
        (lambda c: c.update(a=[1, 2]), "a"),
        (lambda c: c["weight"].update(family="mystery"), "weight"),
        (lambda c: c["young"].update(family="mystery"), "young"),
        (lambda c: c.update(schema_version=99), "schema_version"),
        (lambda c: c.update(L=0), "<root>"),
        (lambda c: c.update(epsilons=[2.0]), "<root>"),
    ],
)
def test_parse_errors_carry_field_paths(mutation, field):
    base = {
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 3]]},
        "property": "transitive",
    }
    mutation(base)
    with pytest.raises(ConfigError) as err:
        parse_config(base)
    assert err.value.field == field


@pytest.mark.parametrize(
    "name,overrides,named",
    [
        # Accepted before the memory cap, then died allocating 1e10-step series.
        ("heisenberg_paper.json", {"N_max": 10**6, "L_max": 10**4}, "L_max = 10000"),
        ("z_shift_chaotic.json", {"property": "mixing", "N_max": 10**8}, "N_max = 100000000"),
        ("z_shift_chaotic.json", {"property": "multiply_recurrent", "L": 10**3, "N_max": 10**5}, "L = 1000"),
    ],
)
def test_budgets_too_large_for_memory_are_rejected(name, overrides, named):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw.update(overrides)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "N_max"
    assert named in str(err.value)


def test_weight_group_mismatch_rejected():
    base = {
        "group": {"kind": "heisenberg"},
        "a": [3, 0, 2],
        "weight": {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 1], [0, 1], [0, 0]]},
        "property": "transitive",
    }
    with pytest.raises(ConfigError):
        parse_config(base)


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps([[[0], 1.0], [[3], -2.0]]))
    vec = vector_from_file(path, od.IntegerGroup())
    assert vec == od.OrliczVector({0: 1.0, 3: -2.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError):
        vector_from_file(bad, od.IntegerGroup())


def test_custom_young_config_round_trip():
    knots = [[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [3.0, 4.5]]
    cfg = parse_config(
        {
            "group": {"kind": "Z"},
            "a": [1],
            "weight": {"family": "table", "entries": [[[0], 2.0]], "default": 0.75},
            "young": {"family": "custom", "table": knots},
            "K": {"box": [[0, 1]]},
            "property": "recurrent",
        }
    )
    assert emit_config(cfg)["young"] == {"family": "custom", "table": knots}
    assert cfg.young.evaluate(2.0) == 2.0


def test_envelope_hash_ignores_runtime():
    cfg = {"group": {"kind": "Z"}}
    results = {"command": "check", "value": 1.25}
    env1 = make_envelope(cfg, results, timings={"total_s": 0.1}, version="0.1.0")
    env2 = make_envelope(cfg, results, timings={"total_s": 99.9}, version="0.1.0")
    assert env1["determinism_hash"] == env2["determinism_hash"]
    mutated = copy.deepcopy(env1)
    mutated["results"]["value"] = 1.26
    assert determinism_hash(mutated) != env1["determinism_hash"]


def test_canonical_dump_handles_non_finite():
    blob = dumps_canonical({"a": math.inf, "b": -math.inf, "c": math.nan, "d": 1.0})
    assert json.loads(blob) == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.0}


def _three_pass_envelope(config, results, timings):
    """The hash and written bytes of the envelope path as it was before
    make_envelope sanitized once: sanitize in make_envelope, again to
    hash, again to write."""
    old = {
        "schema_version": 1,
        "tool": {"name": "orlicz-dynamics", "version": "0.1.0"},
        "config": _sanitize(config),
        "results": _sanitize(results),
        "runtime": {"timings": timings},
    }
    core = {k: v for k, v in old.items() if k not in ("runtime", "determinism_hash")}
    old["determinism_hash"] = hashlib.sha256(
        json.dumps(_sanitize(core), sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()
    return old["determinism_hash"], json.dumps(_sanitize(old), indent=2, sort_keys=True) + "\n"


def _assert_same_as_three_pass(tmp_path, config, results, timings):
    old_hash, old_bytes = _three_pass_envelope(config, results, timings)
    env = make_envelope(config, results, timings=timings, version="0.1.0")
    assert env["determinism_hash"] == old_hash == determinism_hash(env)
    write_envelope(tmp_path / "r.json", env)
    assert (tmp_path / "r.json").read_text() == old_bytes
    assert render_envelope(env) + "\n" == old_bytes


def test_envelope_is_sanitized_once_with_unchanged_bytes_and_hash(tmp_path):
    config = {"young": {"family": "custom", "table": [(0.0, 0.0), (1.0, 0.5)]}, "eps": (0.5, math.inf)}
    results = {
        "command": "norm",
        "values": [math.inf, -math.inf, math.nan, 1.5, (2.0, (math.nan,))],
        "nested": {"pair": ((1,), -0.0), "flag": None, "ok": True},
    }
    timings = {"total_s": 0.25, "worst": math.inf}
    _assert_same_as_three_pass(tmp_path, config, results, timings)
    assert results["values"][0] == math.inf  # the caller's objects are not touched


def test_finite_envelope_skips_sanitizing_with_unchanged_bytes_and_hash(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    vector = [((i, -i, 2 * i), float(v)) for i, v in enumerate(rng.standard_normal(20_000))]
    config = {"young": {"family": "power", "p": 2.0}, "eps": (0.5, 0.25)}
    results = {"command": "norm", "norm": 1.25, "vector": vector, "nested": {"pair": ((1,), -0.0)}}
    timings = {"total_s": 0.25}
    sanitized = []
    real = report._sanitize
    monkeypatch.setattr(report, "_sanitize", lambda obj: sanitized.append(obj) or real(obj))
    make_envelope(config, results, timings=timings, version="0.1.0")
    assert sanitized and not any(obj is results or obj is config for obj in sanitized)
    monkeypatch.undo()
    _assert_same_as_three_pass(tmp_path, config, results, timings)


def test_writers_refuse_unsanitized_non_finite_floats(tmp_path):
    env = make_envelope({}, {"x": 1.0}, timings={}, version="0.1.0")
    env["results"]["x"] = math.nan
    with pytest.raises(ValueError):
        render_envelope(env)
    with pytest.raises(ValueError):
        write_envelope(tmp_path / "r.json", env)


def test_series_csv_writer(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, ("n", "value"), [(1, 0.5), (2, None)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,"
