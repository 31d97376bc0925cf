"""The memory cap has one owner: ``translations.SERIES_MEMORY_CAP``, read
where it is needed and refused on by ``translations.refuse_past_cap``
alone, so patching it there moves every refusal at once."""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics import translations
from orlicz_dynamics.config import parse_config
from orlicz_dynamics.errors import ConfigError

SRC = Path(od.__file__).resolve().parent
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _refusal(call) -> ConfigError:
    with pytest.raises(ConfigError) as err:
        call()
    assert "GiB cap" in str(err.value)
    return err.value


def test_the_cap_in_translations_refuses_requests_boxes_and_stacks(monkeypatch):
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw.update(property="mixing", K={"box": [[-100, 100]]}, N_max=512)
    req = parse_config(raw).request
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(0.75), young=P2)
    f = od.OrliczVector({x: 1.0 for x in range(10)})
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", 10_000)
    # Each holds more than 10 kB: the request about 0.3 MB, the box's 201
    # points 61 kB, the stack 10 rows of 201 values and 10 entries.
    assert _refusal(lambda: dataclasses.replace(req)).field == "N_max"
    assert _refusal(lambda: parse_config(raw)).field == "K.box"
    assert _refusal(lambda: translations.iterates(sys, f, 200, 1)).field == "N_max"


def _sources() -> dict[str, str]:
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert {"translations", "criteria", "config", "lab"} <= set(sources)
    return sources


def test_no_module_binds_a_copy_of_the_cap():
    # A name bound by ``from ... import SERIES_MEMORY_CAP`` is a copy that
    # a patch of translations does not reach.
    bound = [
        name
        for name, source in _sources().items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "SERIES_MEMORY_CAP"
    ]
    assert bound == []


def test_only_translations_words_the_cap_error():
    assert [name for name, source in _sources().items() if "GiB cap" in source] == ["translations"]
