"""Pinned report hashes: any change to a report's hashed bytes fails here.

A deliberate change of verdicts, series, numerics or report layout must
set a new baseline below, in the same change."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from orlicz_dynamics.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_Z_STEP = {
    "group": {"kind": "Z"},
    "a": [1],
    "weight": {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5},
    "young": {"family": "power", "p": 2.0},
    "K": {"box": [[-3, 3]]},
    "N_max": 40,
}
EXTRA = {
    "z_mixing": {**_Z_STEP, "property": "mixing"},
    "z_multiply_recurrent": {**_Z_STEP, "property": "multiply_recurrent", "L": 3},
    # The lab's alphalog and table norms: each column norm closes the
    # secant bracket, and the returns take empirical_return's piece - f.
    "z_multiply_recurrent_alphalog": {
        **_Z_STEP,
        "property": "multiply_recurrent",
        "L": 3,
        "young": {"family": "alphalog", "alpha": 1.5},
    },
    "z_chaotic_table": {
        **_Z_STEP,
        "property": "chaotic",
        "young": {"family": "custom", "table": [[0, 0], [1, 0.5], [2, 2], [40, 800]]},
    },
}

GOLDEN = [
    ("check", "constant_contraction", 2, "6160893397fff183a69af24369333aa8146780207fd9a49c7182a13449d5cf66"),
    ("check", "cyclic_torsion", 2, "5869c8e633b92ff20cbf17c5c0640b73a0a280030e44ab89009b4b65d7b91afa"),
    ("check", "heisenberg_paper", 0, "1367d10bc0b80739cdbaf6a20d66ffabc09d62132c2f354bdf43b5a5d52b37b9"),
    ("check", "z_shift_chaotic", 0, "fe1d1c1f45c546b2266f8f5be4efe198b26a5cab74c142516f70f78725f91a31"),
    ("simulate", "z_shift_chaotic", 0, "ab0a53ace854647ef3a2ee7e6c920839913c5eee394f8e9ae757871e0796bf43"),
    ("simulate", "heisenberg_paper", 0, "03da996940c9a32c8747780a53235de10af567144a49c9e04728d7c58a2f481a"),
    ("check", "z_mixing", 0, "c295a808682269258e09f7d37f1493de3beb4cfa80d2da02e8eb5d957afc22a5"),
    ("check", "z_multiply_recurrent", 0, "9d27c44ba1c84ba57841d3faa69cb85793212031bc2b7c315e19ee0562f2e7cb"),
    ("simulate", "z_mixing", 0, "48ea751289bb47c52a1281af1ae50beb9b6d8d7bd48615eb7b40c29b733088d9"),
    ("simulate", "z_multiply_recurrent", 0, "e7942edd594408294521dda78f98f3aaf5d4263c208ed36fdf57edfa331476ab"),
    ("simulate", "z_multiply_recurrent_alphalog", 0, "713c43814c9b36d770b1c4e79173ad965da181ac4f0ebce6fee2904e9ecfc321"),
    ("simulate", "z_chaotic_table", 0, "721af5b5a6cf65f10619412c060ad02104d47055e0413e423120a4d598dd6451"),
]


# The ids leave the digest out, so a deliberate re-pin keeps the test names.
@pytest.mark.parametrize("command,name,code,digest", GOLDEN, ids=[f"{c}-{n}" for c, n, *_ in GOLDEN])
def test_report_hash_is_pinned(capsys, tmp_path, command, name, code, digest):
    path = CONFIG_DIR / f"{name}.json"
    if name in EXTRA:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(EXTRA[name]))
    assert main([command, "--config", str(path)]) == code
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["determinism_hash"] == digest


def _values(count: int) -> list[float]:
    # Distinct, non-dyadic magnitudes with mixed signs.
    return [(-1) ** i * ((7 * i) % 11 + 1) / 3.0 for i in range(count)]


def _z_vector(count: int) -> list:
    return [[[i - count // 2], v] for i, v in enumerate(_values(count))]


def _heisenberg_vector(count: int) -> list:
    return [[[i % 3 - 1, i // 3 - 3, i % 2], v] for i, v in enumerate(_values(count))]


def _norm_config(young: dict, group: dict | None = None, a: list | None = None) -> dict:
    return {
        "group": group or {"kind": "Z"},
        "a": a or [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": young,
        "K": {"points": [[0] * len(a or [1])]},
        "property": "transitive",
    }


_TABLE = {"family": "custom", "table": [[0.25 * i, (0.25 * i) ** 2 / 2 + 0.01 * i] for i in range(41)]}

# Every norm takes one path at every support size: power norms their
# closed form, alphalog and table norms the secant bracket, whose probes
# read the numpy screen where it is certain.  The "exact" and "screen"
# pins keep the names of the 16-entry threshold they once straddled.
NORM_GOLDEN = [
    (
        "power-screen",
        _norm_config({"family": "power", "p": 2.5}),
        _z_vector(24),
        "3d3df1927765352b3ba689385f49327df878cc6085ad9f72fc155fcc9061fb3c",
    ),
    (
        "power-exact",
        _norm_config({"family": "power", "p": 2.5}),
        _z_vector(9),
        "23fafebd5cd0eab60c09a5e0f29c1eaa7461ee03d5e020e14efae4911ec8fea2",
    ),
    (
        "alphalog-heisenberg",
        _norm_config({"family": "alphalog", "alpha": 1.5}, {"kind": "heisenberg"}, [1, 0, 0]),
        _heisenberg_vector(20),
        "bafe1a2d75a68071eff547efb22d2e657a7c7a261288ff5f4615ea6b5ff9d174",
    ),
    (
        "table-exact",
        _norm_config(_TABLE),
        _z_vector(12),
        "ae2d148df5b7faf32cc46983cca4242e97f39b6169d7c5452ce40b88a8e1e5fa",
    ),
    (
        "table-screen",
        _norm_config(_TABLE),
        _z_vector(30),
        "f65b4045f8495550fef2274ea2f824e09508aabf294483e4fb68c8a54edd86a7",
    ),
]
PROBE_GOLDEN = [
    (
        "power",
        _norm_config({"family": "power", "p": 2.5}),
        "22d2b505e45adfab5244827ad4d3da7f8e15af807151d8d846a236c8c0c9dc52",
    ),
    (
        "alphalog",
        _norm_config({"family": "alphalog", "alpha": 1.5}),
        "8943b186e59f28679c3b4b96b2f9bfcb606da417444fecdef6e5fd9c117a7d3a",
    ),
]


@pytest.mark.parametrize("config,vector,digest", [c[1:] for c in NORM_GOLDEN], ids=[c[0] for c in NORM_GOLDEN])
def test_norm_report_hash_is_pinned(capsys, tmp_path, config, vector, digest):
    cfg, vec = tmp_path / "cfg.json", tmp_path / "vec.json"
    cfg.write_text(json.dumps(config))
    vec.write_text(json.dumps(vector))
    assert main(["norm", "--config", str(cfg), "--vector", str(vec)]) == 0
    assert json.loads(capsys.readouterr().out)["determinism_hash"] == digest


@pytest.mark.parametrize("config,digest", [c[1:] for c in PROBE_GOLDEN], ids=[c[0] for c in PROBE_GOLDEN])
def test_probe_young_report_hash_is_pinned(capsys, tmp_path, config, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["probe-young", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["determinism_hash"] == digest
