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
}

GOLDEN = [
    ("check", "constant_contraction", 2, "6160893397fff183a69af24369333aa8146780207fd9a49c7182a13449d5cf66"),
    ("check", "cyclic_torsion", 2, "5869c8e633b92ff20cbf17c5c0640b73a0a280030e44ab89009b4b65d7b91afa"),
    ("check", "heisenberg_paper", 0, "1367d10bc0b80739cdbaf6a20d66ffabc09d62132c2f354bdf43b5a5d52b37b9"),
    ("check", "z_shift_chaotic", 0, "fe1d1c1f45c546b2266f8f5be4efe198b26a5cab74c142516f70f78725f91a31"),
    ("simulate", "z_shift_chaotic", 0, "c7d3cf16c0924e4e672788a7a0b4c5d0a494053f71ffdb78d95be7dce52a96de"),
    ("simulate", "heisenberg_paper", 0, "9db74dce3c03bd1ce19ffe2b8bff3600b801976f2bd6d0df81a2977ac84a84df"),
    ("check", "z_mixing", 0, "c295a808682269258e09f7d37f1493de3beb4cfa80d2da02e8eb5d957afc22a5"),
    ("check", "z_multiply_recurrent", 0, "9d27c44ba1c84ba57841d3faa69cb85793212031bc2b7c315e19ee0562f2e7cb"),
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
