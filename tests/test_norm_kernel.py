"""The batched Young kernels and the streamed modular against the scalar
code they replaced, bit for bit."""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics.errors import OutOfRangeError

TABLE = od.TableYoung(tuple((0.1 * i, 0.1 * i * 0.1 * i / 2.0) for i in range(401)))  # [0, 40]
TABLE_KNOTS = [t for t, _ in TABLE.knots]
PAST_DOMAIN = math.nextafter(TABLE.domain_max, math.inf)


# Reference copies of the scalar code as it was before evaluate_many.
def _old_evaluate(phi, t):
    at = abs(t)
    if isinstance(phi, od.PowerYoung):
        return at**phi.p / phi.p
    if isinstance(phi, od.AlphaLogYoung):
        if at == 0.0:
            return 0.0
        return at**phi.alpha * (1.0 + abs(math.log(at)))
    ts = [k[0] for k in phi.knots]
    if at > ts[-1]:
        raise OutOfRangeError(f"|t| = {at} beyond table range {ts[-1]}")
    i = bisect_right(ts, at) - 1
    if i >= len(ts) - 1:
        return phi.knots[-1][1]
    t1, v1 = phi.knots[i]
    t2, v2 = phi.knots[i + 1]
    return v1 + (v2 - v1) * (at - t1) / (t2 - t1)


def _old_modular(f, phi, k):
    # A left fold, one rounding per addition: what builtin sum does for
    # floats before Python 3.12, which compensates.
    return reduce(add, (_old_evaluate(phi, abs(v) / k) for _, v in f.items()), 0.0)


def _old_norm(f, phi):
    k0 = f.max_abs()
    hi = k0
    while _old_modular(f, phi, hi) > 1.0:
        hi *= 2.0
    lo = hi
    while _old_modular(f, phi, lo) < 1.0:
        if lo == math.ulp(0.0):
            return lo  # the least positive float: no norm lies below it
        lo *= 0.5
    if lo == hi:
        return lo
    return od.numerics.bisect_root(lambda k: _old_modular(f, phi, k) - 1.0, lo, hi)


def _bits(fn):
    """The float results of fn() as exact bit patterns, or the error it raised."""
    try:
        out = fn()
    except (OverflowError, OutOfRangeError, RuntimeError) as exc:
        return type(exc)
    out = out if isinstance(out, list) else [out]
    assert all(type(x) is float for x in out)  # builtin sum's float fast path
    return [x.hex() for x in out]


nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=0.0, max_value=2.2250738585072014e-308)
huge = st.floats(min_value=1e150, max_value=1.7e308)
moderate = st.floats(min_value=1e-6, max_value=1e6)
scalars = st.one_of(moderate, moderate, nonneg, subnormal, huge, st.just(0.0))
powers = st.builds(od.PowerYoung, st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 8.0)))
alphalogs = st.builds(od.AlphaLogYoung, st.one_of(st.just(1.5), st.floats(1.0, 8.0, exclude_min=True)))
table_points = st.one_of(
    st.floats(0.0, TABLE.domain_max),
    st.sampled_from(TABLE_KNOTS),
    st.just(TABLE.domain_max),
    st.just(0.0),
    subnormal,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(powers, alphalogs), st.lists(scalars, max_size=40))
def test_power_and_alphalog_kernels_match_scalar_evaluate(phi, ts):
    expected = _bits(lambda: [_old_evaluate(phi, t) for t in ts])
    assert _bits(lambda: [phi.evaluate(t) for t in ts]) == expected
    assert _bits(lambda: list(phi.evaluate_many(ts))) == expected
    assert _bits(lambda: list(phi.evaluate_many(iter(ts)))) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(table_points, max_size=40), st.booleans())
def test_table_kernel_matches_scalar_evaluate(ts, past):
    if past:
        ts = ts + [PAST_DOMAIN]
    expected = _bits(lambda: [_old_evaluate(TABLE, t) for t in ts])
    assert _bits(lambda: [TABLE.evaluate(t) for t in ts]) == expected
    assert _bits(lambda: list(TABLE.evaluate_many(iter(ts)))) == expected
    assert (expected is OutOfRangeError) == past


@pytest.mark.parametrize("phi", [od.PowerYoung(1.5), od.PowerYoung(2.0), od.AlphaLogYoung(1.5), TABLE])
def test_kernels_match_scalar_evaluate_on_a_seeded_bulk(phi):
    # numpy's pow and log differ from libm on a few inputs in 10^4; a bulk
    # of random mantissas finds them where hand-picked floats do not.
    rng = np.random.default_rng(11)
    hi = math.log10(TABLE.domain_max) if phi is TABLE else 3.0
    ts = (10.0 ** rng.uniform(-3.0, hi, 200_000)).tolist()
    if phi is TABLE:
        # Every knot (the last one too), both zeros and negative arguments.
        ts += TABLE_KNOTS + [0.0, -0.0] + [-t for t in ts[:1000]]
    assert _bits(lambda: list(phi.evaluate_many(iter(ts)))) == _bits(lambda: [phi.evaluate(t) for t in ts])
    if phi is TABLE:
        ts.insert(500, -PAST_DOMAIN)
        assert _bits(lambda: list(phi.evaluate_many(iter(ts)))) is OutOfRangeError
        with pytest.raises(OutOfRangeError, match=f"= {PAST_DOMAIN!r} beyond"):
            list(phi.evaluate_many(ts))


def test_table_kernel_matches_scalar_evaluate_on_random_tables():
    # Uneven knots and slopes: on the evenly spaced TABLE a segment search
    # off by one at the knots still rounds to the same values.
    rng = np.random.default_rng(5)
    for _ in range(300):
        steps = rng.uniform(0.01, 3.0, int(rng.integers(1, 60)))
        ts = np.concatenate(([0.0], np.cumsum(steps)))
        vs = np.concatenate(([0.0], np.cumsum(np.sort(rng.uniform(0.001, 5.0, len(steps))) * steps)))
        phi = od.TableYoung(tuple(zip(ts.tolist(), vs.tolist())))
        points = [*rng.uniform(-ts[-1], ts[-1], 250).tolist(), *ts.tolist(), 0.0]
        assert _bits(lambda: list(phi.evaluate_many(iter(points)))) == _bits(
            lambda: [_old_evaluate(phi, t) for t in points]
        )


def test_edges_of_each_kernel():
    # alphalog: an exact zero (here from underflow) takes the scalar path.
    phi = od.AlphaLogYoung(1.5)
    ts = [5e-324 / 3.0, 1.0, 2.0]
    assert ts[0] == 0.0
    assert list(phi.evaluate_many(ts)) == [0.0, 1.0, 2.0**1.5 * (1.0 + math.log(2.0))]
    with pytest.raises(OverflowError):
        list(od.PowerYoung(2.0).evaluate_many([1.0, 1e200]))
    with pytest.raises(OverflowError):
        list(phi.evaluate_many([1e300]))
    # table: knots, the domain end, and one step past it.
    assert list(TABLE.evaluate_many([0.0, TABLE_KNOTS[7], TABLE.domain_max])) == [
        0.0, TABLE.knots[7][1], TABLE.knots[-1][1]
    ]
    assert TABLE.evaluate(TABLE.domain_max) == TABLE.knots[-1][1]
    for bad in (lambda: TABLE.evaluate(PAST_DOMAIN), lambda: list(TABLE.evaluate_many([1.0, PAST_DOMAIN]))):
        with pytest.raises(OutOfRangeError, match="beyond table range 40.0"):
            bad()
    assert list(TABLE.evaluate_many([])) == []


def test_table_derived_knots_stay_out_of_eq_hash_and_repr():
    same = od.TableYoung(TABLE.knots)
    assert same == TABLE and hash(same) == hash(TABLE)
    assert repr(same) == f"TableYoung(knots={TABLE.knots!r})"
    assert od.TableYoung(TABLE.knots[:-1]) != TABLE


@st.composite
def vectors(draw):
    """Hand-picked entries (subnormal, huge, zero-scale) plus a seeded bulk,
    from 1 to about 10^3 entries in all."""
    special = draw(st.lists(st.one_of(moderate, subnormal, st.floats(1e-300, 1e300)), max_size=30))
    bulk = draw(st.sampled_from([0, 0, 7, 200, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = special + (rng.choice([-1.0, 1.0], bulk) * 10.0 ** rng.uniform(-3.0, 3.0, bulk)).tolist()
    values = [v for v in values if v != 0.0] or [draw(moderate.filter(bool))]
    return od.OrliczVector({(i,): v for i, v in enumerate(values)})


# Power norms take their closed form, not the bisection (test_power_norm).
# Alphalog and table norms close a certified bracket instead of bisecting,
# so they agree with the old bisection to its 1e-12 tolerance.
@settings(max_examples=40, deadline=None)
@given(st.one_of(alphalogs, st.just(TABLE)), vectors(), st.floats(1e-3, 1e3))
def test_modular_and_norm_match_the_scalar_code(phi, f, k):
    assert _bits(lambda: od.modular(f, phi, k)) == _bits(lambda: _old_modular(f, phi, k))
    expected = _bits(lambda: _old_norm(f, phi))
    if isinstance(expected, list):
        assert od.luxemburg_norm(f, phi) == pytest.approx(float.fromhex(expected[0]), rel=1e-12)
    else:
        assert _bits(lambda: od.luxemburg_norm(f, phi)) == expected


def test_modular_adds_its_terms_left_to_right():
    # Each 1e-16 is below half an ulp of 1, so the left fold stays at 1;
    # a compensated sum (builtin sum from Python 3.12 on) gives 1 + 2^-51.
    terms = [1.0, 1e-16, 1e-16, 1e-16, 1e-16]
    f = od.OrliczVector(dict(enumerate(terms)))
    assert od.modular(f, od.PowerYoung(1.0), 1.0).hex() == reduce(add, terms, 0.0).hex() == (1.0).hex()
