"""The closed-form orbit kernel against the scalar ``mul`` loop, bit for bit."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics import groups, translations
from orlicz_dynamics.groups import INT64_GUARD
from conftest import P2

NEAR_2_61 = 2**61

small = st.integers(-40, 40)
# One coordinate in four lies near +-2^61: some of those orbits stay under
# the int64 guard and take the closed form with huge values, others cross
# it and fall back to the scalar loop.
near = st.tuples(st.sampled_from([-NEAR_2_61, NEAR_2_61]), small).map(sum)
coordinate = st.one_of(small, small, small, near)
positive = st.floats(0.125, 4.0, allow_nan=False, allow_infinity=False)


def _series(sys, points, depth, backward=False):
    """orbit_series' blocks stacked into (linear, log) arrays over all the
    points, checking that the blocks cover the points in order."""
    linear, logs, covered = [], [], 0
    for rows, lin, log in translations.orbit_series(sys, points, depth, backward=backward, logs=True):
        assert rows == slice(covered, covered + len(lin))
        covered = rows.stop
        linear.append(lin.copy())  # the next block overwrites the buffers
        logs.append(log.copy())
    assert covered == len(points)
    return np.concatenate(linear), np.concatenate(logs)


def _reference(sys, x, depth, backward):
    """The per-point series as computed before the kernel existed."""
    scalar = translations.orbit_weights_backward if backward else translations.orbit_weights_forward
    ws = scalar(sys, x, depth)
    with np.errstate(over="ignore", divide="ignore"):
        prods = np.cumprod(ws)
        linear = np.concatenate(([1.0], 1.0 / prods if backward else prods))
    logs = np.cumsum(np.log(ws))
    return linear, np.concatenate(([0.0], -logs if backward else logs))


@st.composite
def systems(draw):
    group = draw(
        st.sampled_from(
            [od.IntegerGroup(), od.LatticeGroup(d=2), od.HeisenbergGroup(), od.CyclicGroup(m=7)]
        )
    )
    rank = len(group.coords(group.identity()))
    element = st.lists(coordinate, min_size=rank, max_size=rank).map(group.element)
    a = draw(element.filter(lambda g: g != group.identity()))
    weights = [
        st.builds(od.ConstantWeight, positive),
        st.builds(
            od.TableWeight,
            st.lists(st.tuples(element, positive), max_size=6).map(tuple),
            positive,
        ),
    ]
    if group.kind in ("Z", "cyclic"):
        weights.append(st.builds(od.TwoSidedStepWeight, positive, positive))
    if group.kind == "heisenberg":
        weights.append(st.just(od.HeisenbergDyadicWeight()))
    weight = draw(st.one_of(weights))
    points = draw(st.lists(element, min_size=1, max_size=6))
    return od.WeightedSystem(group=group, a=a, weight=weight, young=P2), points


@settings(max_examples=300, deadline=None)
@given(systems(), st.integers(0, 60), st.booleans(), st.sampled_from([1, 7, 3 * 61, groups.BLOCK_ELEMENTS]))
def test_kernel_matches_scalar_loop_bit_for_bit(case, depth, backward, block):
    sys, points = case
    with mock.patch.object(groups, "BLOCK_ELEMENTS", block):
        blocks = [len(lin) for _, lin, _ in translations.orbit_series(sys, points, depth, backward=backward)]
        linear, logs = _series(sys, points, depth, backward)
    rows = max(1, block // (depth + 1))
    assert blocks == [min(rows, len(points) - start) for start in range(0, len(points), rows)]
    assert linear.shape == logs.shape == (len(points), depth + 1)
    for i, x in enumerate(points):
        ref_linear, ref_logs = _reference(sys, x, depth, backward)
        assert np.array_equal(linear[i], ref_linear)
        assert np.array_equal(logs[i], ref_logs)


def test_cyclic_orbits_wrap_around():
    sys = od.WeightedSystem(
        group=od.CyclicGroup(m=5), a=3, weight=od.TwoSidedStepWeight(0.75, 1.5), young=P2
    )
    for backward in (False, True):
        linear, logs = _series(sys, [0, 4], 23, backward)
        for i, x in enumerate([0, 4]):
            ref_linear, ref_logs = _reference(sys, x, 23, backward)
            assert np.array_equal(linear[i], ref_linear)
            assert np.array_equal(logs[i], ref_logs)


def test_int64_guard_sends_only_large_orbits_to_the_scalar_loop():
    # z of (2^61, 0, 0)·a^j is about j * 2^61: int64 would wrap from j = 4 on.
    sys = od.WeightedSystem(
        group=od.HeisenbergGroup(), a=(1, 1, 0), weight=od.HeisenbergDyadicWeight(), young=P2
    )
    big, small_point = (NEAR_2_61, 0, 0), (-3, 2, 5)
    assert sys.group.orbit_bound(big, sys.a, 16) >= INT64_GUARD
    assert sys.group.orbit_bound(small_point, sys.a, 16) < INT64_GUARD
    calls = []
    scalar = translations.orbit_weights_forward

    def counted(s, x, m):
        calls.append(x)
        return scalar(s, x, m)

    with mock.patch.object(translations, "orbit_weights_forward", counted):
        linear, logs = _series(sys, [small_point, big], 16)
    assert calls == [big]
    for i, x in enumerate([small_point, big]):
        ref_linear, ref_logs = _reference(sys, x, 16, False)
        assert np.array_equal(linear[i], ref_linear)
        assert np.array_equal(logs[i], ref_logs)


@pytest.mark.parametrize(
    "group,a",
    [
        (od.IntegerGroup(), 3),
        (od.LatticeGroup(d=2), (1, -2)),
        (od.HeisenbergGroup(), (1, 1, 0)),
        (od.CyclicGroup(m=7), 3),
    ],
)
def test_table_weight_orbits_under_the_guard_take_the_kernel(group, a):
    rank = len(group.coords(group.identity()))
    points = [group.element([0] * (rank - 1) + [c]) for c in (0, 1, NEAR_2_61 - 7, 7 - NEAR_2_61)]
    # Keys as config builds them: points of these orbits, some near +-2^61,
    # and one past the guard, which the weight's index leaves out.
    on_orbits = [group.mul(x, group.pow(a, j)) for x in points for j in (-3, 0, 2, 5)]
    keys = [group.coords(g) for g in on_orbits] + [[2**62 + 1] * rank]
    entries = tuple((group.element(c), 0.25 + 0.5 * i) for i, c in enumerate(keys))
    sys = od.WeightedSystem(group=group, a=a, weight=od.TableWeight(entries, default=1.5), young=P2)
    for backward in (False, True):
        refs = [_reference(sys, x, 24, backward) for x in points]
        with (
            mock.patch.object(od.TableWeight, "__call__", side_effect=AssertionError("weight called")),
            mock.patch.object(translations, "orbit_weights_forward", side_effect=AssertionError("loop ran")),
            mock.patch.object(translations, "orbit_weights_backward", side_effect=AssertionError("loop ran")),
        ):
            linear, logs = _series(sys, points, 24, backward)
        for i, (ref_linear, ref_logs) in enumerate(refs):
            assert np.array_equal(linear[i], ref_linear)
            assert np.array_equal(logs[i], ref_logs)


@pytest.mark.parametrize(
    "group,key",
    [
        # Keyed by (2,) on Z, orbit_series from 0 with a = 1 used the weights
        # [1, 4, 1] (the index compares coordinates) while the scalar loop
        # gave [1, 1, 1] (the dict compares elements).
        pytest.param(od.IntegerGroup(), (2,), id="Z-tuple"),
        pytest.param(od.CyclicGroup(m=6), 7, id="cyclic-unreduced"),
        pytest.param(od.HeisenbergGroup(), (1, 2), id="heisenberg-short"),
    ],
)
def test_table_weight_keys_must_be_group_elements(group, key):
    weight = od.TableWeight(((key, 4.0),))
    a = group.element([1] * len(group.coords(group.identity())))
    with pytest.raises(ValueError) as err:
        od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
    assert f"key {key!r} is not an element" in str(err.value)


def test_power_table_is_built_once_per_call():
    sys = od.WeightedSystem(
        group=od.HeisenbergGroup(), a=(3, 0, 2), weight=od.HeisenbergDyadicWeight(), young=P2
    )
    points = [(x, y, 0) for x in range(-1, 2) for y in range(-1, 2)]
    real = od.HeisenbergGroup.power_coords
    with (
        mock.patch.object(groups, "BLOCK_ELEMENTS", 41),
        mock.patch.object(od.HeisenbergGroup, "power_coords", autospec=True, side_effect=real) as spy,
    ):
        blocks = sum(1 for _ in translations.orbit_series(sys, points, 40, backward=True))
        assert (blocks, spy.call_count) == (9, 1)
        translations.iterates(sys, od.OrliczVector.indicator(points), 5, 8)
        assert spy.call_count == 2
        # No table when every orbit is past the guard.
        far = (INT64_GUARD, 0, 0)
        assert sum(1 for _ in translations.orbit_series(sys, [far, far], 40)) == 2
        assert spy.call_count == 2
