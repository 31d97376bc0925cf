"""Alphalog and table norms against a bisection on the exact modular alone.

The norm is the midpoint of a bracket whose ends the exact modular
certifies, above 1 at a and below 1 at b, with b within 1e-12 of a; the
screen decides a probe only where its error bound E certifies that
sign.  So every alphalog and table norm lies within 1e-12 of the
bisection's and raises the same errors.  Power norms take their closed
form (``test_power_norm``)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics import orlicz
from orlicz_dynamics.errors import NonFiniteVectorError, OrliczDynamicsError, OutOfRangeError

TABLE = od.TableYoung(tuple((0.1 * i, 0.1 * i * 0.1 * i / 2.0) for i in range(401)))  # [0, 40]
FAMILIES = [od.PowerYoung(1.0), od.PowerYoung(1.5), od.PowerYoung(2.0), od.PowerYoung(3.7),
            od.AlphaLogYoung(1.5), od.AlphaLogYoung(1.01), TABLE]
# The families the secant bracket serves, each with a screen.  A table's
# repr spells out every knot, so its test id counts them instead.
BRACKETED = [phi for phi in FAMILIES if not isinstance(phi, od.PowerYoung)]
BRACKETED_IDS = [f"table-{len(phi.knots)}" if phi is TABLE else repr(phi) for phi in BRACKETED]
# Where the secant strays: pow underflows a probe away from the root, or
# the norm is the flat table's domain edge.
FLAT = od.TableYoung(((0.0, 0.0), (2.0, 1e-3)))
STEEP = [od.AlphaLogYoung(2000.0), od.AlphaLogYoung(2.0**21)]
SIZES = [1, 15, 16, 17, 40, 1000]
U = 2.0**-53


def _exact_norm(f, phi):
    """luxemburg_norm without the screen: every step runs modular."""
    top = f.max_abs()
    edge = orlicz._domain_edge(top, phi.domain_max)
    hi = max(top / min(1.0, phi.domain_max), edge)
    while od.modular(f, phi, hi) > 1.0:
        hi *= 2.0
    lo = hi
    while od.modular(f, phi, lo) < 1.0:
        if lo * 0.5 < edge:  # past the table's domain, rho is infinite
            if lo == edge or od.modular(f, phi, edge) <= 1.0:
                return edge
            lo = edge
            break
        lo *= 0.5
    if lo == hi:
        return lo
    return od.numerics.bisect_root(lambda k: od.modular(f, phi, k) - 1.0, lo, hi)


def _outcome(fn):
    """The float fn() returns, or the error it raised."""
    try:
        return fn()
    except (OverflowError, OrliczDynamicsError) as exc:
        return type(exc), str(exc)


def _assert_agrees(f, phi):
    """luxemburg_norm lies within 1e-12 of the exact bisection, relative,
    or raises its error."""
    expected = _outcome(lambda: _exact_norm(f, phi))
    if isinstance(expected, float):
        assert od.luxemburg_norm(f, phi) == pytest.approx(expected, rel=1e-12)
    else:
        assert _outcome(lambda: od.luxemburg_norm(f, phi)) == expected


def _assert_certified(f, phi):
    """The exact modular certifies the bracket's ends, and the norm is its
    midpoint: rho(f/a) > 1 > rho(f/b) with b within 1e-12 of a or next to
    it, or a == b where rho is 1 or a is the domain edge."""
    absf = np.abs(orlicz._values(f))
    a, b = orlicz._secant_bracket(absf, float(absf.max()), phi)
    if a == b:
        r = od.modular(f, phi, a)
        assert r == 1.0 or (r < 1.0 and a == orlicz._domain_edge(f.max_abs(), phi.domain_max))
    else:
        assert od.modular(f, phi, a) > 1.0 > od.modular(f, phi, b)
        assert b - a <= 1e-12 * a or math.nextafter(a, b) == b
    assert od.luxemburg_norm(f, phi) == a + (b - a) / 2.0


def _vector(values):
    return od.OrliczVector({(i,): float(v) for i, v in enumerate(values)})


def _spread(rng, kind, n):
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "moderate":
        return signs * rng.uniform(0.5, 1.5, n)
    if kind == "ties":
        return signs * np.full(n, 0.75)
    if kind == "wide":
        return signs * 10.0 ** rng.uniform(-300.0, 300.0, n)
    if kind == "subnormal":
        return signs * np.concatenate([10.0 ** rng.uniform(-323.0, -308.0, n // 2), rng.uniform(0.0, 1.0, n - n // 2)])
    return signs * 10.0 ** rng.uniform(-30.0, 30.0, n)


KINDS = ["moderate", "ties", "wide", "subnormal", "decades"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(BRACKETED + STEEP + [FLAT]),
    st.sampled_from(SIZES),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
)
def test_norm_agrees_with_the_exact_bisection(phi, n, kind, seed):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    _assert_agrees(f, phi)
    _assert_certified(f, phi)


def _screen(phi, f, k):
    absf = np.abs(np.fromiter(f.values(), float, len(f)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.add.reduce(phi.evaluate_array(absf / k)))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BRACKETED + STEEP + [FLAT]),
    st.integers(1, 1000),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
)
def test_bracket_ends_are_certified_by_the_exact_modular(phi, n, kind, seed):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    _assert_certified(f, phi)


@pytest.mark.parametrize("phi", BRACKETED, ids=BRACKETED_IDS)
def test_screen_is_within_its_bound_of_the_exact_modular(phi):
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(300):
        n = int(rng.choice([16, 100, 3000]))
        f = _vector(_spread(rng, KINDS[trial % len(KINDS)], n))
        k = f.max_abs() * 2.0 ** rng.uniform(-4.0, 4.0)
        try:
            exact = od.modular(f, phi, k)
        except (OverflowError, OutOfRangeError):
            assert not _screen(phi, f, k) < od.young.SCREEN_CEILING
            continue
        s = _screen(phi, f, k)
        rel, floor = orlicz._screen_tolerance(len(f))
        if s < od.young.SCREEN_CEILING:
            assert abs(s - exact) <= rel * s + floor
            checked += 1
    assert checked > 150


@pytest.mark.parametrize("phi", BRACKETED, ids=BRACKETED_IDS)
def test_screen_terms_are_within_32_units_of_evaluate(phi):
    rng = np.random.default_rng(23)
    hi = math.log10(TABLE.domain_max) if phi is TABLE else 3.0
    ts = np.concatenate([10.0 ** rng.uniform(-3.0, hi, 100_000), 10.0 ** rng.uniform(-323.0, -300.0, 1000)])
    exact = np.array([phi.evaluate(t) for t in ts.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        screen = phi.evaluate_array(ts.copy())
    finite = ~np.isnan(screen)  # alphalog's underflowed zeros, left to the exact path
    assert np.all(np.abs(screen - exact)[finite] <= 32 * U * exact[finite] + 2.0**-1000)


def test_errors_match_the_exact_path():
    n = 32
    for phi in (od.PowerYoung(2.0), od.AlphaLogYoung(1.5)):
        with pytest.raises(NonFiniteVectorError, match="entry nan"):
            od.luxemburg_norm(_vector([1.0] * n + [math.nan]), phi)
        with pytest.raises(NonFiniteVectorError, match="entry -inf"):
            od.luxemburg_norm(_vector([-math.inf] + [1.0] * n), phi)
    # A flat table: the norm is the edge of its domain, k = 0.5, where rho
    # is still 32e-3; below it the exact pass would raise.
    cases = [
        (FLAT, [1.0] * n),
        (od.AlphaLogYoung(1.5), [1e10] * n + [5e-324]),  # 5e-324 / k underflows to 0
    ]
    for phi, values in cases:
        f = _vector(values)
        _assert_agrees(f, phi)
        _assert_certified(f, phi)
    assert od.luxemburg_norm(_vector([1.0] * n), FLAT) == 0.5


def test_a_domain_edge_at_the_least_subnormal():
    # max|f| / domain_max is exactly 5e-324 here: the edge cannot step
    # below it, and stepping to 0.0 raised ZeroDivisionError.
    phi = od.TableYoung(((0, 0), (1, 0.5), (2, 2), (40, 800)))
    assert orlicz._domain_edge(40 * 5e-324, 40.0) == 5e-324
    for value in (40 * 5e-324, -41 * 5e-324):
        _assert_certified(_vector([value]), phi)


def test_near_tie_where_the_two_sums_straddle_one():
    # Found by a seeded search: at this k numpy's pairwise sum of the
    # screen terms lands just below 1.0 and the sequential libm sum just
    # above it, so only the exact modular may decide a probe there.
    rng = np.random.default_rng(23)
    n = int(rng.integers(16, 3000))
    f = _vector(rng.uniform(0.5, 1.5, n))
    phi = od.AlphaLogYoung(1.5)
    k = float.fromhex("0x1.355c2b5aa067fp+6")
    assert n == 123
    s = _screen(phi, f, k)
    assert s < 1.0 < od.modular(f, phi, k)
    rel, floor = orlicz._screen_tolerance(n)
    assert abs(s - 1.0) <= rel * s + floor  # E leaves the probe to the exact pass
    _assert_agrees(f, phi)
    _assert_certified(f, phi)


def test_screen_leaves_most_steps_to_numpy(monkeypatch):
    exact_passes = []
    real = orlicz.modular
    monkeypatch.setattr(orlicz, "modular", lambda *args: exact_passes.append(args) or real(*args))
    for phi in (od.AlphaLogYoung(1.5), TABLE):
        f = _vector(np.random.default_rng(3).uniform(-2.0, 2.0, 5000))
        od.luxemburg_norm(f, phi)
        # E is about 2e-12 on 5000 entries, so the screen cannot decide
        # the last probes, at most 1e-12 apart.
        assert 0 < len(exact_passes) <= 3
        exact_passes.clear()
        # On 15 entries E is about 1.4e-14: the screen decides every probe.
        od.luxemburg_norm(_vector([0.5] * 15), phi)
        assert len(exact_passes) == 0
        exact_passes.clear()
