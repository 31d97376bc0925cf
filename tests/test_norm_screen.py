"""The screened Luxemburg bisection against the exact modular alone.

The screen may decide a bisection step only where its error bound E
certifies the sign of rho(f/k) - 1, so every norm and every error must
equal those of the exact path, bit for bit."""

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
SIZES = [1, orlicz.SCREEN_MIN - 1, orlicz.SCREEN_MIN, orlicz.SCREEN_MIN + 1, 40, 1000]
U = 2.0**-53


def _exact_norm(f, phi):
    """luxemburg_norm as it was before the screen: every step runs modular."""
    k0 = f.max_abs()
    hi = k0
    while od.modular(f, phi, hi) > 1.0:
        hi *= 2.0
    lo = hi
    while od.modular(f, phi, lo) < 1.0:
        lo *= 0.5
        if lo == 0.0:
            raise RuntimeError("norm bracket contraction failed to terminate")
    if lo == hi:
        return lo
    return od.numerics.bisect_root(lambda k: od.modular(f, phi, k) - 1.0, lo, hi, rel_tol=1e-12)


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from(SIZES), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
def test_norm_equals_the_exact_path_bit_for_bit(phi, n, kind, seed):
    f = _vector(_spread(np.random.default_rng(seed), kind, n))
    if not f:
        return
    assert _outcome(lambda: od.luxemburg_norm(f, phi)) == _outcome(lambda: _exact_norm(f, phi))


def _screen(phi, f, k):
    absf = np.abs(np.fromiter(f.values(), float, len(f)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.add.reduce(phi.evaluate_array(absf / k)))


@pytest.mark.parametrize("phi", FAMILIES, ids=repr)
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


@pytest.mark.parametrize("phi", FAMILIES, ids=repr)
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
    # A flat table: halving the scale walks the arguments past its domain.
    flat = od.TableYoung(((0.0, 0.0), (2.0, 1e-3)))
    # Pow overflows on the first halving; 2^21 also passes the power
    # screen's guard for large exponents.
    steep = [1.0] + [1e-3] * n
    cases = [
        (flat, [1.0] * n),
        (od.PowerYoung(2000.0), steep),
        (od.PowerYoung(2.0**21), steep),
        (od.AlphaLogYoung(1.5), [1e10] * n + [5e-324]),  # 5e-324 / k underflows to 0
    ]
    for phi, values in cases:
        f = _vector(values)
        expected = _outcome(lambda: _exact_norm(f, phi))
        assert _outcome(lambda: od.luxemburg_norm(f, phi)) == expected
    assert _outcome(lambda: od.luxemburg_norm(_vector([1.0] * n), flat))[0] is OutOfRangeError
    assert _outcome(lambda: od.luxemburg_norm(_vector(steep), od.PowerYoung(2000.0)))[0] is OverflowError


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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert orlicz._screened_excess(f, phi)(k) > 0.0
    assert od.luxemburg_norm(f, phi).hex() == _exact_norm(f, phi).hex()


def test_screen_leaves_most_steps_to_numpy(monkeypatch):
    exact_passes = []
    real = orlicz.modular
    monkeypatch.setattr(orlicz, "modular", lambda *args: exact_passes.append(args) or real(*args))
    f = _vector(np.random.default_rng(3).uniform(-2.0, 2.0, 5000))
    od.luxemburg_norm(f, od.PowerYoung(2.0))
    assert 0 < len(exact_passes) <= 8
    exact_passes.clear()
    od.luxemburg_norm(_vector([0.5] * (orlicz.SCREEN_MIN - 1)), od.PowerYoung(2.0))
    assert len(exact_passes) > 20  # small supports run the exact pass at every step
