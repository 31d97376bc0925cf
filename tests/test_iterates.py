"""The batched lab iterates against the one-step-at-a-time loop, bit for bit."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics.groups import INT64_GUARD
from orlicz_dynamics.orlicz import vector_sum
from orlicz_dynamics.translations import iterates
from conftest import P2

small = st.integers(-40, 40)
# One coordinate in four lies near +-2^61 or past 2^63: some orbits stay
# under the int64 guard with huge values, the others take the scalar loop.
huge = st.sampled_from([-(2**61), 2**61, -(2**63), 2**63 + 5])
coordinate = st.one_of(small, small, small, st.tuples(huge, small).map(sum))
# Weights and values span the float range, so long orbits underflow to 0.0
# and overflow to inf.
weight_value = st.one_of(
    st.floats(0.125, 4.0),
    st.floats(1e-30, 1e30),
    st.sampled_from([2.0**-1074, 1e-300, 1e300, 1.7e308]),
)
value = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False).filter(bool)


def _step_T(sys, f):
    g, a, w = sys.group, sys.a, sys.weight
    out = {}
    for x, v in f.items():
        y = g.mul(x, a)
        out[y] = w(y) * v
    return od.OrliczVector(out)


def _step_S(sys, h):
    g, a, w = sys.group, sys.a, sys.weight
    a_inv = g.inv(a)
    out = {}
    for x, v in h.items():
        out[g.mul(x, a_inv)] = v / w(x)
    return od.OrliczVector(out)


def _reference(sys, f, step, count, backward):
    """The iterates as the lab built them before the batch existed: one
    scalar weight call and one ``mul`` per point and step."""
    apply = _step_S if backward else _step_T
    out, cur = [], f
    for _ in range(count):
        for _ in range(step):
            cur = apply(sys, cur)
        out.append(cur)
    return out


def _bits(v):
    return [(x, y.hex()) for x, y in v.items()]


@st.composite
def cases(draw):
    group = draw(
        st.sampled_from(
            [od.IntegerGroup(), od.LatticeGroup(d=2), od.HeisenbergGroup(), od.CyclicGroup(m=7)]
        )
    )
    rank = len(group.coords(group.identity()))
    element = st.lists(coordinate, min_size=rank, max_size=rank).map(group.element)
    a = draw(element.filter(lambda g: g != group.identity()))
    weights = [
        st.builds(od.ConstantWeight, weight_value),
        st.builds(
            od.TableWeight,
            st.lists(st.tuples(element, weight_value), max_size=6).map(tuple),
            weight_value,
        ),
    ]
    if group.kind in ("Z", "cyclic"):
        weights.append(st.builds(od.TwoSidedStepWeight, weight_value, weight_value))
    if group.kind == "heisenberg":
        weights.append(st.just(od.HeisenbergDyadicWeight()))
    sys = od.WeightedSystem(group=group, a=a, weight=draw(st.one_of(weights)), young=P2)
    f = od.OrliczVector(draw(st.dictionaries(element, value, max_size=6)))
    return sys, f


@settings(max_examples=400, deadline=None)
@given(cases(), st.integers(1, 9), st.integers(0, 7), st.booleans())
def test_iterates_match_step_loop_bit_for_bit(case, step, count, backward):
    sys, f = case
    got = iterates(sys, f, step, count, backward=backward)
    want = _reference(sys, f, step, count, backward)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_cyclic_iterates_wrap_around():
    table = od.TableWeight(entries=((1, 0.75), (4, 3.0), (6, 0.1)), default=1.5)
    sys = od.WeightedSystem(group=od.CyclicGroup(m=7), a=3, weight=table, young=P2)
    f = od.OrliczVector({0: 1.0, 5: -2.5, 6: 1e-3})
    for backward in (False, True):
        got = iterates(sys, f, 4, 6, backward=backward)
        assert [_bits(v) for v in got] == [_bits(v) for v in _reference(sys, f, 4, 6, backward)]


def test_underflowed_point_stays_pruned():
    # T f(1) = 1e-300 * 1e-300 underflows to 0.0 and the loop drops the
    # point; the huge weight at 2 must not bring it back.
    table = od.TableWeight(entries=((1, 1e-300), (2, 1e300)), default=1.0)
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=table, young=P2)
    f = od.OrliczVector({0: 1e-300, 5: -2.0})
    got = iterates(sys, f, 1, 3)
    assert [v.as_dict() for v in got] == [{6: -2.0}, {7: -2.0}, {8: -2.0}]
    assert got == _reference(sys, f, 1, 3, False)


def test_overflow_to_inf_and_points_past_the_int64_guard():
    sys = od.WeightedSystem(
        group=od.HeisenbergGroup(), a=(1, 1, 0), weight=od.ConstantWeight(1e200), young=P2
    )
    big = (2**61, 0, 0)
    assert sys.group.orbit_bound(big, sys.a, 6) >= INT64_GUARD
    f = od.OrliczVector({(0, 0, 0): 3.0, big: -1e100})
    got = iterates(sys, f, 2, 3)
    assert got[-1][(6, 6, 15)] == math.inf
    assert [_bits(v) for v in got] == [_bits(v) for v in _reference(sys, f, 2, 3, False)]


def test_one_step_views(step_system):
    f = od.OrliczVector({0: 1.0, 3: -2.0})
    assert od.apply_T(step_system, f) == iterates(step_system, f, 1, 1)[0]
    assert od.apply_S(step_system, f) == iterates(step_system, f, 1, 1, backward=True)[0]
    assert iterates(step_system, f, 3, 0) == []
    assert iterates(step_system, od.OrliczVector(), 2, 2) == [od.OrliczVector(), od.OrliczVector()]


# Few keys and values that cancel exactly, so running sums hit 0.0 and
# keys leave the stack and come back in later pieces.
cancelling = st.dictionaries(
    st.integers(0, 5),
    st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0**-1074, -(2.0**-1074)]), value),
    max_size=5,
).map(od.OrliczVector)


@settings(max_examples=300, deadline=None)
@given(st.lists(cancelling, min_size=1, max_size=8))
def test_stack_matches_repeated_addition(pieces):
    assert _bits(vector_sum(pieces)) == _bits(reduce(add, pieces, od.OrliczVector()))


def test_stack_reappends_a_cancelled_key():
    pieces = [od.OrliczVector({1: 1.0, 2: 2.0}), od.OrliczVector({1: -1.0}), od.OrliczVector({1: 4.0})]
    assert list(vector_sum(pieces).items()) == [(2, 2.0), (1, 4.0)]
    assert list(vector_sum(pieces).items()) == list((pieces[0] + pieces[1] + pieces[2]).items())
