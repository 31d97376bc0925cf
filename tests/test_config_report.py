from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import orlicz_dynamics as od
from orlicz_dynamics import config, report
from orlicz_dynamics.config import (
    emit_config,
    load_config,
    parse_config,
    vector_from_file,
    vector_from_pairs,
)
from orlicz_dynamics.errors import ConfigError
from orlicz_dynamics.report import (
    _sanitize,
    determinism_hash,
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
    assert cfg.request.K.measure() >= 1


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
    req = cfg.request
    assert req.system.a == 1
    assert req.K.measure() == 4
    assert req.epsilons == od.DEFAULT_EPSILONS
    assert req.N_max == 64 and req.L_max == 32 and req.L == 1 and cfg.seed == 0
    out = emit_config(cfg)
    assert out["a"] == [1]
    assert out["K"] == {"box": [[0, 3]]}


def _canonical(group, a, weight, young, K, prop="recurrent"):
    """A config in canonical form: emit_config's key order, defaults filled."""
    return {
        "schema_version": 1,
        "group": group,
        "a": a,
        "weight": weight,
        "young": young,
        "K": K,
        "property": prop,
        "L": 1,
        "epsilons": list(od.DEFAULT_EPSILONS),
        "N_max": 64,
        "L_max": 32,
        "seed": 0,
    }


Z, Z2, HEIS, C6 = {"kind": "Z"}, {"kind": "Zd", "d": 2}, {"kind": "heisenberg"}, {"kind": "cyclic", "m": 6}
POWER = {"family": "power", "p": 2.0}
ALPHALOG = {"family": "alphalog", "alpha": 1.5}
CUSTOM = {"family": "custom", "table": [[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]]}


@pytest.mark.parametrize(
    "canonical",
    [
        pytest.param(
            _canonical(Z, [1], {"family": "constant", "c": 0.5}, POWER, {"box": [[-2, 2]]}, "transitive"),
            id="Z-constant-power-box",
        ),
        pytest.param(
            _canonical(
                Z, [1], {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5}, ALPHALOG, {"points": [[-1], [3]]}
            ),
            id="Z-step-alphalog-points",
        ),
        pytest.param(
            _canonical(
                Z,
                [-1],
                {"family": "table", "entries": [[[-1], 0.5], [[2], 3.0]], "default": 1.0},
                CUSTOM,
                {"box": [[0, 2]]},
            ),
            id="Z-table-custom-box",
        ),
        pytest.param(
            _canonical(
                Z2,
                [1, -1],
                {"family": "table", "entries": [[[0, 0], 2.0], [[1, -1], 0.5]], "default": 0.75},
                POWER,
                {"points": [[0, 0], [1, -1]]},
                "mixing",
            ),
            id="Zd-table-power-points",
        ),
        pytest.param(
            _canonical(
                HEIS, [3, 0, 2], {"family": "heisenberg_paper"}, POWER, {"box": [[-1, 1], [-1, 1], [0, 0]]}, "chaotic"
            ),
            id="heisenberg-paper-power-box",
        ),
        pytest.param(
            _canonical(
                HEIS,
                [1, 1, 0],
                {"family": "table", "entries": [[[0, 0, 1], 0.5]], "default": 2.0},
                ALPHALOG,
                {"points": [[0, 0, 0], [1, 0, 0]]},
            ),
            id="heisenberg-table-alphalog-points",
        ),
        pytest.param(
            _canonical(
                C6,
                [2],
                {"family": "table", "entries": [[[0], 2.0], [[5], 0.5]], "default": 1.0},
                CUSTOM,
                {"box": [[0, 3]]},
                "transitive",
            ),
            id="cyclic-table-custom-box",
        ),
        pytest.param(
            _canonical(C6, [1], {"family": "constant", "c": 2.0}, POWER, {"points": [[0], [4]]}),
            id="cyclic-constant-power-points",
        ),
    ],
)
def test_every_family_round_trips_to_canonical_bytes(canonical):
    assert json.dumps(emit_config(parse_config(canonical))) == json.dumps(canonical)


@pytest.mark.parametrize(
    "weight,young,canonical_weight,canonical_young",
    [
        ({"family": "constant", "c": 1}, {"family": "power", "p": 2}, {"family": "constant", "c": 1.0}, POWER),
        (
            {"family": "table", "entries": [[[0], 2]], "default": 1},
            {"family": "custom", "table": [[0, 0], [1, 1]]},
            {"family": "table", "entries": [[[0], 2.0]], "default": 1.0},
            {"family": "custom", "table": [[0.0, 0.0], [1.0, 1.0]]},
        ),
    ],
)
def test_integer_numbers_emit_as_floats(weight, young, canonical_weight, canonical_young):
    raw = _canonical(Z, [1], weight, young, {"box": [[0, 1]]})
    canonical = _canonical(Z, [1], canonical_weight, canonical_young, {"box": [[0, 1]]})
    assert json.dumps(emit_config(parse_config(raw))) == json.dumps(canonical)


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
    assert cfg.request.system.a == (1, -1)
    assert cfg.request.K.measure() == 4
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
    assert cfg.request.K.measure() == 2
    assert emit_config(cfg)["K"] == {"points": [[0, 0, 0], [1, -1, 0]]}


def _step_weight(**fields):
    return lambda c: c.update(weight={"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5, **fields})


def _table_weight(entries, **fields):
    return lambda c: c.update(weight={"family": "table", "entries": entries, **fields})


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
        # Range errors of the request used to be re-wrapped onto "<root>".
        pytest.param(lambda c: c.update(L=0), "L", id="L-zero"),
        pytest.param(lambda c: c.update(epsilons=[2.0]), "epsilons", id="epsilons-out-of-range"),
        # Misspelled or stray keys used to be ignored silently.
        (lambda c: c.update(N_mx=8), "N_mx"),
        (lambda c: c["group"].update(d=2), "group.d"),
        (lambda c: c["weight"].update(c_poss=0.25), "weight.c_poss"),
        (lambda c: c["young"].update(alpha=1.5), "young.alpha"),
        (lambda c: c["K"].update(radius=2), "K.radius"),
        (lambda c: c.update(epsilons=[0.5, 0.25, 0.5]), "epsilons"),
        # Wrong types used to escape as a bare ValueError or be truncated.
        pytest.param(lambda c: c.update(epsilons=["half"]), "epsilons", id="epsilons-string"),
        pytest.param(lambda c: c.update(epsilons=[0.5, True]), "epsilons", id="epsilons-bool"),
        pytest.param(lambda c: c.update(N_max="many"), "N_max", id="N_max-string"),
        pytest.param(lambda c: c.update(K={"box": [["a", 2]]}), "K.box", id="K.box-string"),
        pytest.param(lambda c: c.update(N_max=True), "N_max", id="N_max-bool"),
        pytest.param(lambda c: c.update(L=2.7), "L", id="L-float"),
        pytest.param(lambda c: c.update(seed=1.5), "seed", id="seed-float"),
        pytest.param(lambda c: c.update(a=[1.5]), "a", id="a-float"),
        # A misspelled field is named, and so is a missing one.
        pytest.param(
            lambda c: c.update(weight={"family": "two_sided_step", "c_neg": 2.0, "c_poss": 0.5}),
            "weight.c_poss",
            id="weight-misspelled-required",
        ),
        pytest.param(
            lambda c: c.update(weight={"family": "two_sided_step", "c_neg": 2.0}),
            "weight.c_pos",
            id="weight-missing-required",
        ),
        pytest.param(lambda c: c.update(young={"family": "power"}), "young.p", id="young-missing-required"),
        pytest.param(lambda c: c["weight"].update(c=float("inf")), "weight", id="weight-infinite"),
        # Weight and Young numbers went through bare float(): a bool or a
        # string was a number, and table coordinates were truncated by int().
        pytest.param(_step_weight(c_neg=True), "weight.c_neg", id="weight.c_neg-bool"),
        pytest.param(lambda c: c["young"].update(p="2"), "young.p", id="young.p-string"),
        pytest.param(_table_weight([[[0], 2.0]], default=True), "weight.default", id="weight.default-bool"),
        pytest.param(_table_weight([[[0], True]]), "weight.entries[0]", id="weight.entries-bool-value"),
        pytest.param(_table_weight([[[0.7], 2.0]]), "weight.entries", id="weight.entries-float-coordinate"),
        pytest.param(_table_weight([[[math.inf], 2.0]]), "weight.entries", id="weight.entries-inf-coordinate"),
        pytest.param(_table_weight([[0, 2.0, 1.0]]), "weight.entries", id="weight.entries-not-pairs"),
        pytest.param(
            lambda c: c.update(young={"family": "custom", "table": [[0.0, 0.0], ["1", 2.0]]}),
            "young.table",
            id="young.table-string-knot",
        ),
        pytest.param(lambda c: c["young"].update(p=math.inf), "young", id="young.p-infinite"),
        # Wrong shapes used to escape as a TypeError or name the wrong field.
        pytest.param(lambda c: c.update(group=5), "group", id="group-not-object"),
        pytest.param(lambda c: c["group"].update(kind=["Z"]), "group.kind", id="group.kind-list"),
        pytest.param(lambda c: c["group"].update(kind={"Z": 1}), "group.kind", id="group.kind-dict"),
        pytest.param(lambda c: c.update(K=3), "K", id="K-scalar"),
        pytest.param(lambda c: c.update(K=[1]), "K", id="K-list"),
        pytest.param(lambda c: c.update(K={"points": 7}), "K.points", id="K.points-not-list"),
        pytest.param(lambda c: c.update(schema_version=True), "schema_version", id="schema_version-bool"),
        # The report path is the --out flag's alone: "out" is an unknown field.
        pytest.param(lambda c: c.update(out=5), "out", id="out-number"),
        pytest.param(lambda c: c.update(out="report.json"), "out", id="out-string"),
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
    "group,entries,message",
    [
        # Each used to parse, the second entry silently replacing the first.
        pytest.param(Z, [[[1], 2.0], [[1], 3.0]], "[1] repeats the element [1]", id="Z"),
        pytest.param(C6, [[[1], 2.0], [[7], 3.0]], "[7] repeats the element [1]", id="cyclic-reduced"),
    ],
)
def test_repeated_table_weight_element_is_rejected(group, entries, message):
    raw = _canonical(group, [1], {"family": "table", "entries": entries, "default": 1.0}, POWER, {"box": [[0, 1]]})
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "weight.entries" and message in str(err.value)


@pytest.mark.parametrize(
    "weight,field",
    [
        # Each used to fail on the whole "weight" node, from TableWeight's
        # own check, naming neither the entry nor the default.
        pytest.param({"entries": [[[0], math.nan]], "default": 1.0}, "weight.entries[0]", id="entry-nan"),
        pytest.param({"entries": [[[0], 0.0]], "default": 1.0}, "weight.entries[0]", id="entry-zero"),
        pytest.param({"entries": [[[0], 2.0], [[1], -1.0]], "default": 1.0}, "weight.entries[1]", id="entry-negative"),
        pytest.param({"entries": [[[0], 2.0]], "default": math.inf}, "weight.default", id="default-infinite"),
    ],
)
def test_bad_table_weight_value_fails_on_its_field(weight, field):
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw["weight"] = {"family": "table", **weight}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    assert "positive and finite" in str(err.value)


def test_K_with_both_box_and_points_is_rejected():
    # The points used to be dropped silently in favour of the box.
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw["K"]["points"] = [[9]]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "K"


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


def test_box_too_large_for_memory_fails_before_it_is_enumerated(monkeypatch):
    # A box of 10^6 points used to be built in full, about 90 MB, before
    # any cap saw it; 10^12 points would exhaust memory.
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw["K"] = {"box": [[0, 10**12]]}
    monkeypatch.setattr(config, "box", lambda *args: pytest.fail("box enumerated"))
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == "K.box"
    assert "1000000000001 points" in str(err.value)


_Z3_HALVING = {"group": {"kind": "Zd", "d": 3}, "a": [1, 0, 0], "weight": {"family": "constant", "c": 0.5}}


@pytest.mark.parametrize(
    "overrides,field,named",
    [
        # Each raised a bare OverflowError: the size in GiB passed a float.
        ({"N_max": 10**400}, "N_max", f"N_max = {10**400}"),
        ({"L_max": 10**400}, "N_max", f"L_max = {10**400}"),
        ({"K": {"box": [[-(10**400), 10**400]]}}, "K.box", f"a box of {2 * 10**400 + 1} points"),
        # Each raised a bare ValueError: the step count, or the box's points,
        # passed the digits str writes.
        ({"N_max": 10**4000, "L_max": 10**4000}, "N_max", "series of at least 2^26575 steps"),
        ({**_Z3_HALVING, "K": {"box": [[-(10**2000), 10**2000]] * 3}}, "K.box", "a box of at least 2^"),
    ],
    ids=["N_max", "L_max", "box", "steps-past-str", "box-past-str"],
)
def test_oversized_numbers_fail_on_their_field(overrides, field, named):
    raw = json.loads((CONFIG_DIR / "z_shift_chaotic.json").read_text())
    raw.update(overrides)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    assert named in str(err.value) and "GiB, over the 1 GiB cap" in str(err.value)


def test_an_int_past_the_digits_json_reads_fails_on_the_file(tmp_path):
    # json.loads raised a bare ValueError (CPython's int_max_str_digits).
    huge = "9" * 5000
    raw = (CONFIG_DIR / "z_shift_chaotic.json").read_text().rstrip()
    path = tmp_path / "cfg.json"
    path.write_text(raw[:-1] + f', "N_max": {huge}}}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "<file>" and "digits" in str(err.value)
    for text in (f"[[[0], {huge}]]", f"[[[{huge}], 1.0]]"):
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            vector_from_file(path, od.IntegerGroup())
        assert err.value.field == "<vector>" and "digits" in str(err.value)


def test_bytes_that_are_not_utf8_fail_on_the_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe[")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == "<file>" and "cannot read" in str(err.value)


def test_weight_group_mismatch_rejected():
    base = {
        "group": {"kind": "heisenberg"},
        "a": [3, 0, 2],
        "weight": {"family": "two_sided_step", "c_neg": 2.0, "c_pos": 0.5},
        "young": {"family": "power", "p": 2.0},
        "K": {"box": [[0, 1], [0, 1], [0, 0]]},
        "property": "transitive",
    }
    with pytest.raises(ConfigError) as err:
        parse_config(base)
    assert err.value.field == "weight"


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps([[[0], 1.0], [[3], -2.0]]))
    vec = vector_from_file(path, od.IntegerGroup())
    assert vec == od.OrliczVector({0: 1.0, 3: -2.0})
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError):
        vector_from_file(bad, od.IntegerGroup())


def test_vector_pairs_round_trip():
    h = od.HeisenbergGroup()
    f = od.OrliczVector({(0, 0, 0): 1.0, (3, 0, 2): -0.5})
    assert vector_from_pairs(h, [[[3, 0, 2], -0.5], [[0, 0, 0], 1.0]]) == f
    # Bare coordinates of a rank-1 group are read entry by entry.
    assert vector_from_pairs(od.CyclicGroup(5), [[7, 1], [[3], -2.0]]) == od.OrliczVector({2: 1.0, 3: -2.0})


@pytest.mark.parametrize(
    "entries,index",
    [
        # Each of the first four used to load: a float coordinate was
        # truncated, a bool or a string was a number, and a repeated
        # element kept its last value.
        pytest.param([[[0.7], True]], 0, id="float-coordinate"),
        pytest.param([[[1], 2.0], [[0], "3"]], 1, id="string-value"),
        pytest.param([[[True], 1.0]], 0, id="bool-coordinate"),
        pytest.param([[[0], 1.0], [[2], 2.0], [[0], 3.0]], 2, id="repeated-element"),
        pytest.param([[[0], 1.0], [[2], True]], 1, id="bool-value"),
        pytest.param([[[0], 1.0], [[1], 2.0, 3.0]], 1, id="not-a-pair"),
        pytest.param([[[0, 1], 1.0]], 0, id="wrong-rank"),
        pytest.param([[[0], 10**400]], 0, id="value-out-of-float-range"),
        # JSON NaN and Infinity literals parse; they failed later, in the
        # norm, on no index.  The first two take the bulk path, the last
        # two (a bare coordinate) the per-entry path.
        pytest.param([[[0], 1.0], [[1], math.nan]], 1, id="nan-value-bulk"),
        pytest.param([[[0], -math.inf], [[1], 1.0]], 0, id="infinite-value-bulk"),
        pytest.param([[0, 1.0], [[1], math.nan]], 1, id="nan-value-per-entry"),
        pytest.param([[0, 1.0], [1, math.inf]], 1, id="infinite-value-per-entry"),
    ],
)
def test_bad_vector_entries_name_their_index(tmp_path, entries, index):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ConfigError) as err:
        vector_from_file(path, od.IntegerGroup())
    assert err.value.field == f"<vector>[{index}]"


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
    assert cfg.request.system.young.evaluate(2.0) == 2.0


def test_envelope_hash_ignores_runtime():
    cfg = {"group": {"kind": "Z"}}
    results = {"command": "check", "value": 1.25}
    env1 = make_envelope(cfg, results, timings={"total_s": 0.1}, version="0.1.0")
    env2 = make_envelope(cfg, results, timings={"total_s": 99.9}, version="0.1.0")
    assert env1["determinism_hash"] == env2["determinism_hash"]
    mutated = copy.deepcopy(env1)
    mutated["results"]["value"] = 1.26
    assert determinism_hash(mutated) != env1["determinism_hash"]


def test_canonical_dump_handles_non_finite(tmp_path):
    results = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": 1.0}
    env = make_envelope({}, results, timings={}, version="0.1.0")
    write_envelope(tmp_path / "r.json", env)
    assert json.loads((tmp_path / "r.json").read_text())["results"] == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.0}


def _three_pass_envelope(config, results, timings):
    """The hash and written bytes of the envelope path as it was before
    make_envelope sanitized once: sanitize in make_envelope, again to
    hash, again to write.  The bytes are the compact sorted encoding
    that reports are written in."""
    old = {
        "schema_version": 2,
        "tool": {"name": "orlicz-dynamics", "version": "0.1.0"},
        "config": _sanitize(config),
        "results": _sanitize(results),
        "runtime": {"timings": timings},
    }
    core = {k: v for k, v in old.items() if k not in ("runtime", "determinism_hash")}
    old["determinism_hash"] = hashlib.sha256(
        json.dumps(_sanitize(core), sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()
    return old["determinism_hash"], json.dumps(_sanitize(old), sort_keys=True, separators=(",", ":")) + "\n"


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
