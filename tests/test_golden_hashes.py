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
    ("check", "constant_contraction", 2, "155e659427d2c4c511f25d090ce4c1dd04e18c7fec185b1ff5c9182c9560c179"),
    ("check", "cyclic_torsion", 2, "0acb8858b2139cffe0f4cc130fc50be86038f027b12f9cca7a3ab73d56513f50"),
    ("check", "heisenberg_paper", 0, "c2fd5a91261a480a8f9e47df471077d097d7e333ff26599c0a960210effd547d"),
    ("check", "z_shift_chaotic", 0, "2ad3afef5df7c9c64eca1761ebe9c0fd94f0532d19541f8ef52d6eac19efa5aa"),
    ("simulate", "z_shift_chaotic", 0, "2dae3417f9afa34fef1077488b39ef01f09d89063cacf5171654bea27f4799fd"),
    ("simulate", "heisenberg_paper", 0, "8aa460e5a791611795690aae36e29275bdcf5a9ab7b648465a0dd2d7ca1fb0c4"),
    ("check", "z_mixing", 0, "5ec6df6e4fd1d3483d3a4a3b68c50be7ef7318873c17209608c591470fd5ce9d"),
    ("check", "z_multiply_recurrent", 0, "3ac57e868c6474daefcd2f556265303f4691452c8cf414433325ce0cc0044f12"),
]


@pytest.mark.parametrize("command,name,code,digest", GOLDEN)
def test_report_hash_is_pinned(capsys, tmp_path, command, name, code, digest):
    path = CONFIG_DIR / f"{name}.json"
    if name in EXTRA:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(EXTRA[name]))
    assert main([command, "--config", str(path)]) == code
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["determinism_hash"] == digest
