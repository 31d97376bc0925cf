"""Run configuration: the one module that knows the config format.

A run config writes down one weighted system (G, a, w, Phi) over a
finite set K, the property to check and the search budgets; parsing it
builds the validated ``CriterionRequest`` once, from only the request
fields the config sets, so omitted ones take the request's defaults.  Every field is read by
a typed reader (``_object``, ``_require``, ``_name``, ``_int``,
``_number``, ``_list``, ``_pairs``, ``_element``), so a wrong type or
shape fails as a ConfigError on its path, and a bool or a string is
never a number.  The ``WEIGHTS`` and ``YOUNGS`` family tables drive
parsing and emission alike; the ``table`` weight and ``custom`` Young
families are read on their own.  ``emit_config(parse_config(c))`` is
the canonical form of c, and parsing is lossless on canonical configs.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from operator import itemgetter
from dataclasses import dataclass
from pathlib import Path

from .criteria import CriterionRequest, K_bytes, Property
from .errors import ConfigError
from .groups import GROUP_KINDS, CompactSet, Element, Group, box
from .orlicz import OrliczVector
from .translations import (
    ConstantWeight,
    HeisenbergDyadicWeight,
    TableWeight,
    TwoSidedStepWeight,
    Weight,
    WeightedSystem,
    refuse_past_cap,
)
from .young import AlphaLogYoung, PowerYoung, TableYoung, YoungFunction

SCHEMA_VERSION = 1

# The request fields' defaults live in CriterionRequest alone.
DEFAULTS = {"seed": 0}

# The integer parameters of each group kind's constructor, beyond "kind".
_GROUP_PARAMS = {"Zd": ("d",), "cyclic": ("m",)}
# Weight families: class and its number fields.  "table" is read on its own.
WEIGHTS = {
    "constant": (ConstantWeight, ("c",)),
    "two_sided_step": (TwoSidedStepWeight, ("c_neg", "c_pos")),
    "heisenberg_paper": (HeisenbergDyadicWeight, ()),
}
# Young families: class and its number fields.  "custom" is read on its own.
YOUNGS = {"power": (PowerYoung, ("p",)), "alphalog": (AlphaLogYoung, ("alpha",))}

_BUDGETS = ("L", "N_max", "L_max")
_TOP_KEYS = ("schema_version", "group", "a", "weight", "young", "K", "property", "epsilons", *_BUDGETS, *DEFAULTS)
_PROPERTIES = tuple(p.value for p in Property)


@dataclass(frozen=True)
class RunConfig:
    """A validated request, with what the report echoes besides it."""

    request: CriterionRequest
    K_spec: tuple  # canonical ("box", bounds) or ("points", coords)
    seed: int


def _object(value, path: str, known=None) -> dict:
    """A JSON object; with known given, every key must be in it.  The root
    has path "" and names a stray key by the key alone."""
    if not isinstance(value, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {value!r}")
    for key in value:
        if known is not None and key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    return value


def _require(spec: dict, key: str, path: str):
    if key not in spec:
        raise ConfigError(f"{path or '<root>'}.{key}", "missing required field")
    return spec[key]


def _name(value, names, path: str) -> str:
    """A string naming one of names."""
    if not isinstance(value, str) or value not in names:
        raise ConfigError(path, f"expected one of {', '.join(names)}, got {value!r}")
    return value


def _int(value, path: str) -> int:
    """A JSON integer: a float is not truncated and a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    """A JSON number as a float, so an integer emits as a float: a bool or
    a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(path, f"number out of float range: {value!r}") from exc


def _weight_value(value, path: str) -> float:
    """A table weight: a positive, finite number."""
    w = _number(value, path)
    if not 0.0 < w < math.inf:
        raise ConfigError(path, f"weights must be positive and finite, got {value!r}")
    return w


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {value!r}")
    return value


def _pairs(value, path: str) -> list:
    """A list of two-element lists."""
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in _list(value, path)):
        raise ConfigError(path, f"expected a list of pairs, got {value!r}")
    return value


def _element(group: Group, raw, path: str) -> Element:
    coords = [_int(c, path) for c in raw] if isinstance(raw, (list, tuple)) else _int(raw, path)
    try:
        return group.element(coords)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, f"bad element {raw!r}: {exc}") from exc


def _build(path: str, cls, *args):
    """cls(*args); a ValueError from its own checks fails on path."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _from_fields(spec: dict, path: str, cls, fields: tuple):
    """cls built from the number fields of spec, whose keys must be
    "family" and fields."""
    _object(spec, path, ("family", *fields))
    return _build(path, cls, *(_number(_require(spec, f, path), f"{path}.{f}") for f in fields))


def _emit_family(table: dict, obj) -> dict:
    for family, (cls, fields) in table.items():
        if type(obj) is cls:
            return {"family": family, **{f: getattr(obj, f) for f in fields}}
    raise TypeError(f"no config family for {obj!r}")


def group_from_config(spec) -> Group:
    spec = _object(spec, "group")
    kind = _name(_require(spec, "kind", "group"), GROUP_KINDS, "group.kind")
    params = [_int(_require(spec, p, "group"), f"group.{p}") for p in _GROUP_PARAMS.get(kind, ())]
    group = _build("group", GROUP_KINDS[kind], *params)
    _object(spec, "group", group_to_config(group))
    return group


def group_to_config(group: Group) -> dict:
    return {"kind": group.kind, **{p: getattr(group, p) for p in _GROUP_PARAMS.get(group.kind, ())}}


def _weight(spec, group: Group) -> Weight:
    spec = _object(spec, "weight")
    if spec.get("family") == "table":
        _object(spec, "weight", ("family", "entries", "default"))
        entries = {}
        for i, (c, v) in enumerate(_pairs(_require(spec, "entries", "weight"), "weight.entries")):
            g = _element(group, c, "weight.entries")
            if g in entries:
                raise ConfigError("weight.entries", f"{c!r} repeats the element {group.coords(g)}")
            entries[g] = _weight_value(v, f"weight.entries[{i}]")
        default = _weight_value(spec.get("default", 1.0), "weight.default")
        return _build("weight", TableWeight, tuple(entries.items()), default)
    family = _name(spec.get("family"), (*WEIGHTS, "table"), "weight")
    return _from_fields(spec, "weight", *WEIGHTS[family])


def _weight_to_config(w: Weight, group: Group) -> dict:
    if isinstance(w, TableWeight):
        return {"family": "table", "entries": [[group.coords(g), v] for g, v in w.entries], "default": w.default}
    return _emit_family(WEIGHTS, w)


def _young(spec) -> YoungFunction:
    spec = _object(spec, "young")
    if spec.get("family") == "custom":
        _object(spec, "young", ("family", "table"))
        knots = tuple(
            (_number(t, "young.table"), _number(v, "young.table"))
            for t, v in _pairs(_require(spec, "table", "young"), "young.table")
        )
        return _build("young", TableYoung, knots)
    family = _name(spec.get("family"), (*YOUNGS, "custom"), "young")
    return _from_fields(spec, "young", *YOUNGS[family])


def _young_to_config(phi: YoungFunction) -> dict:
    if isinstance(phi, TableYoung):
        return {"family": "custom", "table": [[t, v] for t, v in phi.knots]}
    return _emit_family(YOUNGS, phi)


def compact_set_from_config(spec, group: Group) -> tuple[CompactSet, tuple]:
    """Parse K and return it with its canonical spec echo."""
    spec = _object(spec, "K", ("box", "points"))
    if "box" in spec and "points" in spec:
        raise ConfigError("K", "give either 'box' or 'points', not both")
    if "box" in spec:
        raw = spec["box"]
        if isinstance(raw, (list, tuple)) and raw and not isinstance(raw[0], (list, tuple)):
            raw = [raw]  # a bare pair, for rank-1 groups
        bounds = [[_int(lo, "K.box"), _int(hi, "K.box")] for lo, hi in _pairs(raw, "K.box")]
        rank = len(group.coords(group.identity()))
        if len(bounds) != rank:
            raise ConfigError("K.box", f"expected {rank} bound pairs, got {len(bounds)}")
        size = math.prod(max(hi - lo + 1, 0) for lo, hi in bounds)
        refuse_past_cap("K.box", "a box of {} points", K_bytes(group, size), size)
        return _build("K.box", box, group, bounds), ("box", tuple(tuple(b) for b in bounds))
    if "points" in spec:
        pts = [_element(group, p, "K.points") for p in _list(spec["points"], "K.points")]
        if not pts:
            raise ConfigError("K.points", "point list is empty")
        K = CompactSet.of(pts)
        return K, ("points", tuple(tuple(group.coords(p)) for p in K))
    raise ConfigError("K", "need either a 'box' or a 'points' entry")


def compact_set_to_config(spec: tuple) -> dict:
    kind, payload = spec
    return {kind: [list(c) for c in payload]}


def parse_config(raw) -> RunConfig:
    raw = _object(raw, "", _TOP_KEYS)
    version = _int(raw.get("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    group = group_from_config(_require(raw, "group", ""))
    a = _element(group, _require(raw, "a", ""), "a")
    weight = _weight(_require(raw, "weight", ""), group)
    system = _build("weight", WeightedSystem, group, a, weight, _young(_require(raw, "young", "")))
    K, K_spec = compact_set_from_config(_require(raw, "K", ""), group)
    prop = Property(_name(_require(raw, "property", ""), _PROPERTIES, "property"))
    fields = {key: _int(raw[key], key) for key in _BUDGETS if key in raw}
    if "epsilons" in raw:
        fields["epsilons"] = tuple(_number(e, "epsilons") for e in _list(raw["epsilons"], "epsilons"))
    request = CriterionRequest(system=system, K=K, property=prop, **fields)
    return RunConfig(request=request, K_spec=K_spec, seed=_int(raw.get("seed", DEFAULTS["seed"]), "seed"))


def emit_config(cfg: RunConfig) -> dict:
    """Canonical JSON form: defaults materialized, elements as int arrays."""
    req = cfg.request
    group = req.system.group
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_to_config(group),
        "a": group.coords(req.system.a),
        "weight": _weight_to_config(req.system.weight, group),
        "young": _young_to_config(req.system.young),
        "K": compact_set_to_config(cfg.K_spec),
        "property": req.property.value,
        "L": req.L,
        "epsilons": list(req.epsilons),
        "N_max": req.N_max,
        "L_max": req.L_max,
        "seed": cfg.seed,
    }


def _read_json(path: str | Path, field: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(field, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an int past what json.loads reads
        raise ConfigError(field, f"an integer of more than {sys.get_int_max_str_digits()} digits") from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_json(path, "<file>"))


def vector_from_file(path: str | Path, group: Group) -> OrliczVector:
    """Load a vector serialized as [[coords, value], ...]."""
    return vector_from_pairs(group, _read_json(path, "<vector>"))


def vector_from_pairs(group: Group, pairs) -> OrliczVector:
    """A vector from [coords, value] pairs; a bad or repeated entry fails on
    its index.  Int-list coordinates and numbers are type-checked in bulk."""
    pairs = _list(pairs, "<vector>")
    if set(map(type, pairs)) <= {list}:
        try:
            data = {group.element(c): float(v) for c, v in pairs}
            # Each entry was a pair, no element repeats and every value is
            # finite; a bare or float coordinate is not iterable and raises
            # TypeError.
            if (
                len(data) == len(pairs)
                and all(map(math.isfinite, data.values()))
                and set(map(type, map(itemgetter(1), pairs))) <= {int, float}
                and set(map(type, chain.from_iterable(map(itemgetter(0), pairs)))) <= {int}
            ):
                return OrliczVector(data)
        except (ValueError, TypeError, OverflowError):
            pass
    data = {}
    for i, entry in enumerate(pairs):
        path = f"<vector>[{i}]"
        c, v = _pairs([entry], path)[0]
        g = _element(group, c, path)
        if g in data:
            raise ConfigError(path, f"repeats the element {c!r}")
        value = _number(v, path)
        if not math.isfinite(value):
            raise ConfigError(path, f"entry {value!r} is not finite")
        data[g] = value
    return OrliczVector(data)
