"""The closed-form orbit fills against the scalar ``mul`` loop, bit for bit."""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics import translations
from conftest import P2

NEAR_2_61 = 2**61

small = st.integers(-40, 40)
# One coordinate in four lies near +-2^61, +-2^63 or +-2^100, where int64
# arithmetic would wrap: the fills work in exact Python ints.
near = st.tuples(st.sampled_from([-NEAR_2_61, NEAR_2_61, -(2**63), 2**63, -(2**100), 2**100]), small).map(sum)
coordinate = st.one_of(small, small, small, near)
nonzero = st.one_of(st.integers(-40, -1), st.integers(1, 40))
positive = st.floats(0.125, 4.0, allow_nan=False, allow_infinity=False)


def _keys(sys, points, backward=False):
    return [sys.fillers[backward].key(x) for x in points]


def _series(sys, points, depth, backward=False):
    """keyed_series' blocks stacked into (linear, log) arrays over all the
    points, checking that the blocks cover the points in order."""
    linear, logs, covered = [], [], 0
    for rows, lin, log in translations.keyed_series(sys, _keys(sys, points, backward), depth, backward, True):
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
            [
                od.IntegerGroup(),
                od.LatticeGroup(d=2),
                od.LatticeGroup(d=3),
                od.HeisenbergGroup(),
                od.CyclicGroup(m=7),
                od.CyclicGroup(m=2**70 + 6),
            ]
        )
    )
    rank = len(group.coords(group.identity()))
    element = st.lists(coordinate, min_size=rank, max_size=rank).map(group.element)
    # The identity too: the obstruction diagnostics reach it (a = 0 on Z).
    a = draw(st.one_of(element, st.just(group.identity())))
    if group.kind == "heisenberg" and draw(st.booleans()):
        # a1*a2 != 0: the orbit's z coordinate is quadratic in the step.
        a = (draw(nonzero), draw(nonzero), draw(coordinate))
    points = draw(st.lists(element, min_size=1, max_size=6))
    # Table keys drawn on the points' orbits, a few steps either way, and
    # anywhere in the group.
    on_orbit = st.tuples(st.sampled_from(points), st.integers(-70, 70)).map(
        lambda p: group.mul(p[0], group.pow(a, p[1]))
    )
    key = st.one_of(element, on_orbit, on_orbit)
    # Every family on every group; WeightedSystem turns down the pairs whose
    # weight does not read the group's elements.
    weight = draw(
        st.one_of(
            st.builds(od.ConstantWeight, positive),
            st.builds(od.TableWeight, st.lists(st.tuples(key, positive), max_size=8).map(tuple), positive),
            st.builds(od.TwoSidedStepWeight, positive, positive),
            st.just(od.HeisenbergDyadicWeight()),
        )
    )
    try:
        sys = od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
    except ValueError:
        assume(False)
    return sys, points


@settings(max_examples=300, deadline=None)
@given(systems(), st.integers(0, 60), st.booleans(), st.sampled_from([1, 7, 3 * 61, translations.BLOCK_ELEMENTS]))
def test_kernel_matches_scalar_loop_bit_for_bit(case, depth, backward, block):
    sys, points = case
    with mock.patch.object(translations, "BLOCK_ELEMENTS", block):
        keys = _keys(sys, points, backward)
        blocks = [len(lin) for _, lin, _ in translations.keyed_series(sys, keys, depth, backward, False)]
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


# Powers of two multiply exactly; the rest need not.
weight_value = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), positive)


@st.composite
def finite_order_systems(draw):
    """Every system whose a has finite order: a cyclic group with m <= 12
    and any a, or a = identity on Z, Z^2 and the Heisenberg group."""
    group = draw(
        st.one_of(
            st.integers(1, 12).map(lambda m: od.CyclicGroup(m=m)),
            st.sampled_from([od.IntegerGroup(), od.LatticeGroup(d=2), od.HeisenbergGroup()]),
        )
    )
    rank = len(group.coords(group.identity()))
    element = st.lists(small, min_size=rank, max_size=rank).map(group.element)
    a = draw(element) if group.kind == "cyclic" else group.identity()
    weight = draw(
        st.one_of(
            st.builds(od.ConstantWeight, weight_value),
            st.builds(od.TwoSidedStepWeight, weight_value, weight_value),
            st.builds(od.TableWeight, st.lists(st.tuples(element, weight_value), max_size=8).map(tuple), weight_value),
            st.just(od.HeisenbergDyadicWeight()),
        )
    )
    try:
        sys = od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
    except ValueError:
        assume(False)
    return sys, draw(st.lists(element, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(finite_order_systems())
def test_cycle_counts_match_scalar_loop(case):
    sys, points = case
    order = sys.group.element_order(sys.a)
    values = translations.cycle_values(sys)
    for x in points:
        assert values(x) == Counter(translations.orbit_weights_forward(sys, x, order))


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
    # and one past 2^62.
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
        # Keyed by (2,) on Z, the series from 0 with a = 1 used the weights
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


def test_dyadic_weight_reads_z_through_the_group_law():
    # On Z^3 the third coordinate of (2, 0, 0) + j(1, 1, 0) stays 0, so every
    # weight is 1; a fill that restated the Heisenberg law saw z = j(j - 1)/2
    # + 2j and gave T^3 f = 1/8 there, and a false witness at n = 3.
    group = od.LatticeGroup(d=3)
    sys = od.WeightedSystem(group=group, a=(1, 1, 0), weight=od.HeisenbergDyadicWeight(), young=P2)
    assert od.apply_T_n(sys, od.OrliczVector({(2, 0, 0): 1.0}), 3) == od.OrliczVector({(5, 3, 0): 1.0})
    K = od.CompactSet.of([(2, 0, 0)])
    for prop in (od.Property.TRANSITIVE, od.Property.RECURRENT):
        req = od.CriterionRequest(system=sys, K=K, property=prop, epsilons=(0.5,), N_max=8)
        assert od.run_check(req).outcome is od.Outcome.INCONCLUSIVE


@pytest.mark.parametrize(
    "group,weight",
    [
        (od.IntegerGroup(), od.HeisenbergDyadicWeight()),
        (od.LatticeGroup(d=2), od.HeisenbergDyadicWeight()),
        (od.CyclicGroup(m=5), od.HeisenbergDyadicWeight()),
        (od.LatticeGroup(d=2), od.TwoSidedStepWeight(2.0, 0.5)),
        (od.HeisenbergGroup(), od.TwoSidedStepWeight(2.0, 0.5)),
    ],
)
def test_a_weight_that_does_not_read_the_group_is_rejected(group, weight):
    # Each pair used to crash deep inside a fill.
    with pytest.raises(ValueError) as err:
        od.WeightedSystem(group=group, a=group.identity(), weight=weight, young=P2)
    assert f"{type(weight).__name__} does not read {group.kind} elements" in str(err.value)
