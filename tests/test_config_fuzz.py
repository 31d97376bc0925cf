"""Wrong-typed config input fails as a ConfigError, never as a traceback.

Every node of five valid configs (the four shipped ones and a Zd config
with a table weight, a custom Young table and an explicit point list) is
replaced, one at a time, by each of a fixed list of JSON values.
``parse_config`` must then either accept the config, and emit a
canonical form that parses back to itself, or raise ConfigError.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from orlicz_dynamics.config import emit_config, parse_config
from orlicz_dynamics.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ["heisenberg_paper", "z_shift_chaotic", "cyclic_torsion", "constant_contraction"]
ZD_TABLES = {
    "group": {"kind": "Zd", "d": 2},
    "a": [1, -1],
    "weight": {"family": "table", "entries": [[[0, 0], 2.0], [[1, 0], 0.5]], "default": 0.75},
    "young": {"family": "custom", "table": [[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [3.0, 4.5]]},
    "K": {"points": [[0, 0], [1, -1]]},
    "property": "mixing",
    "epsilons": [0.5, 0.25],
    "N_max": 8,
}
# Small integers only: a huge K.box bound or lattice rank makes the
# parser enumerate or allocate that many points before any budget check.
VALUES = [True, False, None, "", "2", "Z", 0, -1, 3, 2.5, math.inf, [], [1], [[0, 1]], {}, {"kind": "Z"}]


def _paths(node, path=()):
    """Path of every node below the root, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replaced(raw: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return out


def _base(name: str) -> dict:
    return ZD_TABLES if name == "zd_tables" else json.loads((CONFIG_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", [*SHIPPED, "zd_tables"])
def test_wrong_values_parse_or_raise_config_error(name):
    raw = _base(name)
    parse_config(raw)
    failures = []
    for path in _paths(raw):
        for value in VALUES:
            mutated = _replaced(raw, path, value)
            try:
                canonical = emit_config(parse_config(mutated))
                assert emit_config(parse_config(canonical)) == canonical
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other escape is the failure being counted
                failures.append(f"{'.'.join(map(str, path))} = {value!r}: {type(exc).__name__}: {exc}")
    assert not failures, f"{len(failures)} inputs escaped as non-ConfigError:\n" + "\n".join(failures[:20])
