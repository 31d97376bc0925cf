"""The memory cap has one owner: ``translations.SERIES_MEMORY_CAP``, read
where it is needed and refused on by ``translations.refuse_past_cap``
alone, so patching it there moves every refusal at once.  Each held
object has one price, which its refusal and every release charge: K's
is ``criteria.K_bytes`` and an ``iterates`` call's
``translations.iterates_bytes``, the only readers of
``groups.point_bytes``."""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics import config, criteria, translations
from orlicz_dynamics.config import parse_config
from orlicz_dynamics.groups import point_bytes
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
    # points 122 kB, the stack 10 rows of 201 values and 10 entries.
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


def test_a_box_is_refused_at_the_price_of_K_before_it_is_enumerated(monkeypatch):
    # The K.box guard priced a point at one point_bytes and the check at
    # two, so a box between the two was enumerated, then refused on N_max.
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw.update(property="recurrent", K={"box": [[-100, 100]]}, N_max=1)
    group = od.IntegerGroup()
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", 3 * 201 * point_bytes(group) // 2)
    assert criteria.K_bytes(group, 201) > translations.SERIES_MEMORY_CAP
    monkeypatch.setattr(config, "box", lambda *args: pytest.fail("box enumerated"))
    assert _refusal(lambda: parse_config(raw)).field == "K.box"


# Outside groups, the one function of each module that may read point_bytes.
PRICES = {"criteria": "K_bytes", "translations": "iterates_bytes"}


def _reads_point_bytes(tree: ast.AST) -> list[ast.AST]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "point_bytes"
        or isinstance(node, ast.Attribute) and node.attr == "point_bytes"
    ]


def test_only_the_two_prices_read_point_bytes():
    for name, source in _sources().items():
        if name == "groups":
            continue
        tree = ast.parse(source)
        prices = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == PRICES.get(name)]
        allowed = [node for f in prices for node in _reads_point_bytes(f)]
        # Every read lies in the module's price, which reads it.
        assert len(_reads_point_bytes(tree)) == len(allowed), name
        assert bool(allowed) == (name in PRICES), name
        imported = any(
            isinstance(node, ast.ImportFrom) and any(alias.name == "point_bytes" for alias in node.names)
            for node in ast.walk(tree)
        )
        assert imported == (name in PRICES), name
