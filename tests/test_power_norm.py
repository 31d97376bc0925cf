"""Power norms in closed form, N = M (S / p)^(1/p), against exact
references and the bisection they replaced; norms at the ends of the
float range on every family."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from exact_oracle import power1_norm, power2_norm_squared
from orlicz_dynamics import numerics, orlicz
from orlicz_dynamics.cli import main
from orlicz_dynamics.errors import OrliczDynamicsError
from test_norm_screen import FAMILIES, KINDS, SIZES, TABLE, _exact_norm, _spread, _vector

TINY = math.ulp(0.0)
POWERS = [phi for phi in FAMILIES if isinstance(phi, od.PowerYoung)]


def _within_ulps(norm: float, exact: Fraction, ulps: int, squared: bool = False) -> bool:
    """Whether exact (or its square root, when squared) lies within ulps
    units in the last place of norm."""
    gap = ulps * Fraction(math.ulp(norm))
    lo, hi = max(Fraction(norm) - gap, Fraction(0)), Fraction(norm) + gap
    return lo * lo <= exact <= hi * hi if squared else lo <= exact <= hi


@st.composite
def magnitudes(draw):
    """1 to 1000 entries with mixed signs and magnitudes in [5e-324, 1e300]:
    hand-picked ones plus a seeded bulk over a drawn range of decades."""
    special = draw(st.lists(st.floats(TINY, 1e300), max_size=20))
    n = draw(st.integers(0 if special else 1, 1000 - len(special)))
    lo = draw(st.floats(math.log10(TINY), 300.0))
    hi = draw(st.floats(lo, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = np.clip(10.0 ** rng.uniform(lo, hi, n), TINY, 1e300)
    values = special + bulk.tolist()
    signs = rng.choice([-1.0, 1.0], len(values))
    return (signs * np.array(values)).tolist()


@settings(max_examples=150, deadline=None)
@given(magnitudes())
def test_power_norm_is_within_2_ulps_of_the_exact_norm(values):
    f = _vector(values)
    assert _within_ulps(od.luxemburg_norm(f, od.PowerYoung(1.0)), power1_norm(values), 2)
    assert _within_ulps(od.luxemburg_norm(f, od.PowerYoung(2.0)), power2_norm_squared(values), 2, squared=True)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POWERS), st.sampled_from(SIZES), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_power_norm_agrees_with_the_old_bisection(phi, n, kind, seed):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    assert od.luxemburg_norm(f, phi) == pytest.approx(_exact_norm(f, phi), rel=1e-12)


def test_power_norm_runs_no_modular_bisection_or_band(monkeypatch):
    calls = []
    for owner, name in ((orlicz, "modular"), (numerics, "bisect_root"), (orlicz, "_secant_bracket")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    rng = np.random.default_rng(3)
    for n in (1, 15, 16, 5000):
        for phi in POWERS:
            assert od.luxemburg_norm(_vector(rng.uniform(-2.0, 2.0, n)), phi) > 0.0
    assert calls == []


def test_power_norm_order_does_not_matter():
    values = np.random.default_rng(5).uniform(-1e3, 1e3, 500).tolist()
    for phi in POWERS:
        assert od.luxemburg_norm(_vector(values), phi) == od.luxemburg_norm(_vector(values[::-1]), phi)


def _norm_config(tmp_path, young: dict, values: list[float]) -> list[str]:
    cfg, vec = tmp_path / "cfg.json", tmp_path / "vec.json"
    cfg.write_text(json.dumps({
        "group": {"kind": "Z"},
        "a": [1],
        "weight": {"family": "constant", "c": 1.5},
        "young": young,
        "K": {"points": [[0]]},
        "property": "transitive",
    }))
    vec.write_text(json.dumps([[[i], v] for i, v in enumerate(values)]))
    return ["norm", "--config", str(cfg), "--vector", str(vec)]


@pytest.mark.parametrize("n", [1, 15, 1000])
@pytest.mark.parametrize("p", [2000.0, 2.0**21])
def test_steep_power_norms_are_finite(capsys, tmp_path, p, n):
    # Each bisection used to halve below max|f| = 1, where pow(2, p)
    # overflowed; the closed form never evaluates there.
    expected = n ** (1.0 / p) * (1.0 / p) ** (1.0 / p)
    norm = od.luxemburg_norm(_vector([1.0] * n), od.PowerYoung(p))
    assert norm == pytest.approx(expected, rel=1e-15)
    assert main(_norm_config(tmp_path, {"family": "power", "p": p}, [1.0] * n)) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["norm"] == norm
    assert results["modular_at_norm"] == pytest.approx(1.0, rel=1e-9)


def test_subnormal_power_norm_is_exact():
    # The bisection's 1e-12 stop is absolute below 1e-288: it gave 1.2e-322.
    f = _vector([TINY] * 20)
    assert od.luxemburg_norm(f, od.PowerYoung(1.0)) == 20 * TINY == 1e-322


SHORT = od.TableYoung(((0.0, 0.0), (0.5, 0.5)))
# Phi(t) = t on [0, 1], so n entries of v below 1 have norm n v.
KINK = od.TableYoung(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))


def _custom(table: od.TableYoung) -> dict:
    return {"family": "custom", "table": [list(knot) for knot in table.knots]}


def _cli_norm(capsys, tmp_path, young: dict, values: list[float]) -> float:
    assert main(_norm_config(tmp_path, young, values)) == 0
    return json.loads(capsys.readouterr().out)["results"]["norm"]


@pytest.mark.parametrize("n", [20, 100])
def test_subnormal_table_norm_is_exact(capsys, tmp_path, n):
    # The bisection's absolute stop gave 24 and 96 units of 2^-1074; the
    # bracket stops on adjacent floats.
    values = [TINY] * n
    assert od.luxemburg_norm(_vector(values), KINK) == n * TINY
    assert _cli_norm(capsys, tmp_path, _custom(KINK), values) == n * TINY


def test_subnormal_table_norm_keeps_its_relative_accuracy(capsys, tmp_path):
    # The bisection's absolute stop left it 2.0e-4 off.
    values = [1e-310] * 20
    assert od.luxemburg_norm(_vector(values), KINK) == pytest.approx(2e-309, rel=1e-12)
    assert _cli_norm(capsys, tmp_path, _custom(KINK), values) == pytest.approx(2e-309, rel=1e-12)


def test_alphalog_norm_near_the_largest_float_is_finite(capsys, tmp_path):
    # The bracket could only double up to DBL_MAX / 2: this raised "norm
    # exceeds 1e+308".  A 50-digit decimal bisection puts the root of
    # rho(f/k) = 1 at k = 1.17115567751534396e308.
    values = [1e308, 1e307]
    phi = od.AlphaLogYoung(1.5)
    norm = od.luxemburg_norm(_vector(values), phi)
    assert norm == pytest.approx(1.17115567751534396e308, rel=1e-12)
    assert od.modular(_vector(values), phi, norm) == pytest.approx(1.0, rel=1e-11)
    assert _cli_norm(capsys, tmp_path, {"family": "alphalog", "alpha": 1.5}, values) == norm


PAST_THE_FLOATS = [
    pytest.param(od.PowerYoung(1.0), {"family": "power", "p": 1.0}, [1e308] * 2, id="power-1"),
    pytest.param(od.PowerYoung(2.0), {"family": "power", "p": 2.0}, [1e308] * 20, id="power-2"),
    pytest.param(od.AlphaLogYoung(1.5), {"family": "alphalog", "alpha": 1.5}, [1e308] * 2, id="alphalog-exact"),
    pytest.param(od.AlphaLogYoung(1.5), {"family": "alphalog", "alpha": 1.5}, [1e308] * 20, id="alphalog-screen"),
    pytest.param(TABLE, _custom(TABLE), [1e308] * 20, id="table-doubling"),
    # max|f| / domain_max overflows: even the domain's edge is past the floats.
    pytest.param(SHORT, _custom(SHORT), [1e308], id="table-edge"),
]


@pytest.mark.parametrize("phi,young,values", PAST_THE_FLOATS)
def test_a_norm_past_the_float_range_raises_a_package_error(capsys, tmp_path, phi, young, values):
    with pytest.raises(OrliczDynamicsError, match="exceeds"):
        od.luxemburg_norm(_vector(values), phi)
    assert main(_norm_config(tmp_path, young, values)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: norm")
