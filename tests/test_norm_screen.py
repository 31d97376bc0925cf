"""The banded, screened Luxemburg bisection against the exact modular alone.

The band answers a step only where it proves the sign of rho(f/k) - 1,
and the screen decides one only where its error bound E certifies that
sign, so every norm and every error must equal those of the exact path,
bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics import orlicz
from orlicz_dynamics.errors import NonFiniteVectorError, OutOfRangeError

TABLE = od.TableYoung(tuple((0.1 * i, 0.1 * i * 0.1 * i / 2.0) for i in range(401)))  # [0, 40]
FAMILIES = [od.PowerYoung(1.0), od.PowerYoung(1.5), od.PowerYoung(2.0), od.PowerYoung(3.7),
            od.AlphaLogYoung(1.5), od.AlphaLogYoung(1.01), TABLE]
# A table's repr spells out every knot, so its test id counts them instead.
FAMILY_IDS = [f"table-{len(phi.knots)}" if phi is TABLE else repr(phi) for phi in FAMILIES]
# Where the band search runs out: pow overflows a halving away from the
# root, or the norm is the flat table's domain edge.
FLAT = od.TableYoung(((0.0, 0.0), (2.0, 1e-3)))
STEEP = [od.PowerYoung(2000.0), od.PowerYoung(2.0**21)]
SIZES = [1, orlicz.SCREEN_MIN - 1, orlicz.SCREEN_MIN, orlicz.SCREEN_MIN + 1, 40, 1000]
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
    """The float fn() returns, as its exact bit pattern, or the error it raised."""
    try:
        return fn().hex()
    except (OverflowError, OutOfRangeError, RuntimeError) as exc:
        return type(exc), str(exc)


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
@given(st.sampled_from(FAMILIES + STEEP + [FLAT]), st.sampled_from(SIZES), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_norm_equals_the_exact_path_bit_for_bit(phi, n, kind, seed):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    assert _outcome(lambda: od.luxemburg_norm(f, phi)) == _outcome(lambda: _exact_norm(f, phi))


def _screen(phi, f, k):
    absf = np.abs(np.fromiter(f.values(), float, len(f)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.add.reduce(phi.evaluate_array(absf / k)))


def _band(f, phi):
    """The band luxemburg_norm certifies for f, and the value it certifies
    from: the exact modular below SCREEN_MIN entries, the screen from there."""
    n, top = len(f), f.max_abs()
    k0 = max(top / min(1.0, phi.domain_max), orlicz._domain_edge(top, phi.domain_max))
    if n < orlicz.SCREEN_MIN:
        value = lambda k: od.modular(f, phi, k)  # noqa: E731
    else:
        value = orlicz._screen(phi, np.abs(np.fromiter(f.values(), float, n)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return orlicz._band(value, k0, n), value


# log2 of how far below a or above b a step is taken: at the end itself,
# within rounding of it, or anywhere down to the halvings.
OFFSETS = st.one_of(st.just(0.0), st.floats(2.0**-52, 2.0**-30), st.floats(0.0, 64.0))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(FAMILIES + STEEP + [FLAT]),
    st.integers(1, 1000),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    OFFSETS,
    OFFSETS,
)
def test_band_ends_are_certified_by_the_exact_modular(phi, n, kind, seed, below, above):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    (a, b), value = _band(f, phi)
    assert 0.0 <= a < b
    rel, floor = orlicz._screen_tolerance(n)
    for end, side in ((a, 1.0), (b, -1.0)):
        if 0.0 < end < math.inf:  # the certificate the module docstring proves from
            v = value(end)
            assert (v - 1.0) * side > 2.0 * (rel * v + floor)
    for k, side in ((a * 2.0**-below, 1.0), (b * 2.0**above, -1.0)):
        if not 0.0 < k < math.inf:
            continue  # no end certified on this side
        try:
            r = od.modular(f, phi, k)
        except (OverflowError, OutOfRangeError):
            continue
        assert (r - 1.0) * side > 0.0


@pytest.mark.parametrize("phi", FAMILIES, ids=FAMILY_IDS)
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


@pytest.mark.parametrize("phi", FAMILIES, ids=FAMILY_IDS)
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
    n = 2 * orlicz.SCREEN_MIN
    with pytest.raises(NonFiniteVectorError, match="entry nan"):
        od.luxemburg_norm(_vector([1.0] * n + [math.nan]), od.PowerYoung(2.0))
    with pytest.raises(NonFiniteVectorError, match="entry -inf"):
        od.luxemburg_norm(_vector([-math.inf] + [1.0] * n), od.PowerYoung(2.0))
    # A flat table: the halving stops at the edge of its domain, k = 0.5,
    # where rho is still 32e-3 (it used to step past it and raise).
    # Pow overflows on the first halving; 2^21 also passes the power
    # screen's guard for large exponents.
    steep = [1.0] + [1e-3] * n
    cases = [
        (FLAT, [1.0] * n),
        (od.PowerYoung(2000.0), steep),
        (od.PowerYoung(2.0**21), steep),
        (od.AlphaLogYoung(1.5), [1e10] * n + [5e-324]),  # 5e-324 / k underflows to 0
    ]
    for phi, values in cases:
        f = _vector(values)
        expected = _outcome(lambda: _exact_norm(f, phi))
        assert _outcome(lambda: od.luxemburg_norm(f, phi)) == expected
    assert _outcome(lambda: od.luxemburg_norm(_vector([1.0] * n), FLAT)) == (0.5).hex()
    assert _outcome(lambda: od.luxemburg_norm(_vector(steep), od.PowerYoung(2000.0)))[0] is OverflowError


@pytest.mark.parametrize("n", [orlicz.SCREEN_MIN - 1, 1000])
def test_a_step_below_the_band_raises_as_the_exact_path(n):
    # rho = n / 2000 < 1 at k0 = 1, so the bracket halves to k = 0.5, where
    # pow(2, 2000) overflows, while the band lies just below 1.
    f = _vector([1.0] * n)
    phi = od.PowerYoung(2000.0)
    (a, b), _ = _band(f, phi)
    assert 0.5 < a < b < 1.0
    with pytest.raises(OverflowError) as exact:
        od.modular(f, phi, 0.5)
    with pytest.raises(OverflowError) as banded:
        od.luxemburg_norm(f, phi)
    assert str(banded.value) == str(exact.value)
    assert _outcome(lambda: _exact_norm(f, phi)) == (OverflowError, str(exact.value))


def test_near_tie_where_the_two_sums_straddle_one():
    # Found by a seeded search: at this k numpy's pairwise sum of the
    # screen terms lands just below 1.0 and the sequential libm sum just
    # above it, so only the exact modular may decide the step.
    rng = np.random.default_rng(23)
    n = int(rng.integers(16, 3000))
    f = _vector(rng.uniform(0.5, 1.5, n))
    phi = od.AlphaLogYoung(1.5)
    k = float.fromhex("0x1.355c2b5aa067fp+6")
    assert n == 123
    assert _screen(phi, f, k) < 1.0 < od.modular(f, phi, k)
    screen = orlicz._screen(phi, np.abs(np.fromiter(f.values(), float, n)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert orlicz._screened_excess(f, phi, screen)(k) > 0.0
    assert od.luxemburg_norm(f, phi).hex() == _exact_norm(f, phi).hex()


def test_screen_leaves_most_steps_to_numpy(monkeypatch):
    exact_passes = []
    real = orlicz.modular
    monkeypatch.setattr(orlicz, "modular", lambda *args: exact_passes.append(args) or real(*args))
    f = _vector(np.random.default_rng(3).uniform(-2.0, 2.0, 5000))
    od.luxemburg_norm(f, od.PowerYoung(2.0))
    assert 0 < len(exact_passes) <= 8
    exact_passes.clear()
    # Small supports find the band from exact passes, and run one at each
    # step inside it.
    od.luxemburg_norm(_vector([0.5] * (orlicz.SCREEN_MIN - 1)), od.PowerYoung(2.0))
    assert 0 < len(exact_passes) <= 6
