"""Run configuration: JSON parsing, validation and canonical emission.

A run config names a group, a translation element, a weight, a Young
function, a finite set K (box bounds or an explicit point list), the
property to check and the search budgets.  ``emit_config(parse(c))`` is
the canonical form of c, and parsing is lossless on canonical configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .criteria import DEFAULT_EPSILONS, CriterionRequest, Property
from .errors import ConfigError
from .groups import GROUP_KINDS, CompactSet, Element, Group, box
from .orlicz import OrliczVector
from .translations import WEIGHT_FIELDS, Weight, WeightedSystem, weight_from_config, weight_to_config
from .young import YOUNG_FIELDS, YoungFunction, young_from_config, young_to_config

SCHEMA_VERSION = 1

DEFAULTS = {"L": 1, "N_max": 64, "L_max": 32, "seed": 0, "out": None}


@dataclass(frozen=True)
class RunConfig:
    group: Group
    a: Element
    weight: Weight
    young: YoungFunction
    K: CompactSet
    K_spec: tuple  # canonical ("box", bounds) or ("points", coords)
    property: Property
    L: int
    epsilons: tuple[float, ...]
    N_max: int
    L_max: int
    seed: int
    out: Optional[str]

    def system(self) -> WeightedSystem:
        return WeightedSystem(group=self.group, a=self.a, weight=self.weight, young=self.young)

    def request(self) -> CriterionRequest:
        return CriterionRequest(
            system=self.system(),
            K=self.K,
            property=self.property,
            L=self.L,
            epsilons=self.epsilons,
            N_max=self.N_max,
            L_max=self.L_max,
        )


# Top-level keys of a config; the group spec may carry the keys of its
# canonical form (``group_to_config``), weight and Young specs those of
# ``WEIGHT_FIELDS`` and ``YOUNG_FIELDS``.
_TOP_KEYS = ("schema_version", "group", "a", "weight", "young", "K", "property", "epsilons", *DEFAULTS)


def _reject_unknown(spec: dict, known, path: str = "") -> None:
    for key in spec:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _require(spec: dict, key: str, path: str):
    if key not in spec:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return spec[key]


def _int(value, path: str) -> int:
    """A JSON integer: a float is not truncated and a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _from_spec(path: str, spec, fields: dict, build, *args):
    """Build a weight or Young function from its spec; a stray or missing
    field fails with its path."""
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected an object, got {spec!r}")
    family = spec.get("family")
    if isinstance(family, str) and family in fields:
        _reject_unknown(spec, ("family", *fields[family]), path)
    try:
        return build(spec, *args)
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", "missing required field") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def group_from_config(spec: dict) -> Group:
    kind = _require(spec, "kind", "group")
    if kind not in GROUP_KINDS:
        raise ConfigError("group.kind", f"unknown kind {kind!r}")
    try:
        if kind == "Zd":
            group = GROUP_KINDS[kind](d=_int(_require(spec, "d", "group"), "group.d"))
        elif kind == "cyclic":
            group = GROUP_KINDS[kind](m=_int(_require(spec, "m", "group"), "group.m"))
        else:
            group = GROUP_KINDS[kind]()
    except (ValueError, TypeError) as exc:
        raise ConfigError("group", str(exc)) from exc
    _reject_unknown(spec, group_to_config(group), "group")
    return group


def group_to_config(group: Group) -> dict:
    out = {"kind": group.kind}
    if group.kind == "Zd":
        out["d"] = group.d
    if group.kind == "cyclic":
        out["m"] = group.m
    return out


def _rank(group: Group) -> int:
    return len(group.coords(group.identity()))


def _element(group: Group, raw, path: str) -> Element:
    coords = [_int(c, path) for c in raw] if isinstance(raw, (list, tuple)) else _int(raw, path)
    try:
        return group.element(coords)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, f"bad element {raw!r}: {exc}") from exc


def compact_set_from_config(spec: dict, group: Group) -> tuple[CompactSet, tuple]:
    """Parse K and return it with its canonical spec echo."""
    _reject_unknown(spec, ("box", "points"), "K")
    if "box" in spec and "points" in spec:
        raise ConfigError("K", "give either 'box' or 'points', not both")
    if "box" in spec:
        bounds = spec["box"]
        try:
            if isinstance(bounds[0], int):
                bounds = [bounds]
            bounds = [[_int(lo, "K.box"), _int(hi, "K.box")] for lo, hi in bounds]
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError("K.box", f"expected [lo, hi] integer pairs, got {spec['box']!r}") from exc
        if len(bounds) != _rank(group):
            raise ConfigError("K.box", f"expected {_rank(group)} bound pairs, got {len(bounds)}")
        try:
            K = box(group, bounds)
        except ValueError as exc:
            raise ConfigError("K.box", str(exc)) from exc
        return K, ("box", tuple(tuple(b) for b in bounds))
    if "points" in spec:
        pts = [_element(group, p, "K.points") for p in spec["points"]]
        if not pts:
            raise ConfigError("K.points", "point list is empty")
        K = CompactSet.of(pts)
        coords = sorted(tuple(group.coords(p)) for p in K)
        return K, ("points", tuple(coords))
    raise ConfigError("K", "need either a 'box' or a 'points' entry")


def compact_set_to_config(spec: tuple) -> dict:
    kind, payload = spec
    if kind == "box":
        return {"box": [list(b) for b in payload]}
    return {"points": [list(c) for c in payload]}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS)
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    group = group_from_config(_require(raw, "group", "<root>"))
    a = _element(group, _require(raw, "a", "<root>"), "a")
    weight = _from_spec("weight", _require(raw, "weight", "<root>"), WEIGHT_FIELDS, weight_from_config, group)
    young = _from_spec("young", _require(raw, "young", "<root>"), YOUNG_FIELDS, young_from_config)
    K, K_spec = compact_set_from_config(_require(raw, "K", "<root>"), group)
    prop_raw = _require(raw, "property", "<root>")
    try:
        prop = Property(prop_raw)
    except ValueError as exc:
        raise ConfigError("property", f"unknown property {prop_raw!r}") from exc
    epsilons = raw.get("epsilons", DEFAULT_EPSILONS)
    if not isinstance(epsilons, (list, tuple)) or any(
        isinstance(e, bool) or not isinstance(e, (int, float)) for e in epsilons
    ):
        raise ConfigError("epsilons", f"expected a list of numbers, got {epsilons!r}")
    epsilons = tuple(map(float, epsilons))
    if len(set(epsilons)) != len(epsilons):
        raise ConfigError("epsilons", f"duplicate values in {list(epsilons)}")
    cfg = RunConfig(
        group=group,
        a=a,
        weight=weight,
        young=young,
        K=K,
        K_spec=K_spec,
        property=prop,
        L=_int(raw.get("L", DEFAULTS["L"]), "L"),
        epsilons=epsilons,
        N_max=_int(raw.get("N_max", DEFAULTS["N_max"]), "N_max"),
        L_max=_int(raw.get("L_max", DEFAULTS["L_max"]), "L_max"),
        seed=_int(raw.get("seed", DEFAULTS["seed"]), "seed"),
        out=raw.get("out", DEFAULTS["out"]),
    )
    try:
        cfg.request()
    except ValueError as exc:
        raise ConfigError("<root>", str(exc)) from exc
    return cfg


def emit_config(cfg: RunConfig) -> dict:
    """Canonical JSON form: defaults materialized, elements as int arrays."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group_to_config(cfg.group),
        "a": cfg.group.coords(cfg.a),
        "weight": weight_to_config(cfg.weight, cfg.group),
        "young": young_to_config(cfg.young),
        "K": compact_set_to_config(cfg.K_spec),
        "property": cfg.property.value,
        "L": cfg.L,
        "epsilons": list(cfg.epsilons),
        "N_max": cfg.N_max,
        "L_max": cfg.L_max,
        "seed": cfg.seed,
        "out": cfg.out,
    }


def _read_json(path: str | Path, field: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(field, f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_json(path, "<file>"))


def vector_from_file(path: str | Path, group: Group) -> OrliczVector:
    """Load a vector serialized as [[coords, value], ...]."""
    raw = _read_json(path, "<vector>")
    if isinstance(raw, dict):
        raw = raw.get("entries", raw)
    if not isinstance(raw, list):
        raise ConfigError("<vector>", "expected a list of [coords, value] pairs")
    try:
        return OrliczVector.from_pairs(group, raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError("<vector>", str(exc)) from exc
