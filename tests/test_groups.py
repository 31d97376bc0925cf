from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import all_groups, random_element

from orlicz_dynamics import groups
from orlicz_dynamics.errors import TorsionElementError


def test_heisenberg_multiplication_and_inverse():
    g = od.HeisenbergGroup()
    assert g.mul((1, 2, 3), (4, 5, 6)) == (5, 7, 9 + 1 * 5)
    assert g.inv((1, 2, 3)) == (-1, -2, 1 * 2 - 3)
    assert g.mul((1, 2, 3), g.inv((1, 2, 3))) == g.identity()
    # non-abelian: the twist shows up
    assert g.mul((1, 0, 0), (0, 1, 0)) != g.mul((0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("group", all_groups() + [od.CyclicGroup(6), od.CyclicGroup(7)])
def test_group_axioms_random_triples(group):
    rng = np.random.default_rng(11)
    e = group.identity()
    for _ in range(200):
        a, b, c = (random_element(group, rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, e) == a and group.mul(e, a) == a
        assert group.mul(a, group.inv(a)) == e
        assert group.mul(group.inv(a), a) == e


@pytest.mark.parametrize("group", all_groups() + [od.CyclicGroup(12)])
def test_pow_homomorphism(group):
    rng = np.random.default_rng(23)
    for _ in range(100):
        g = random_element(group, rng)
        n, m = (int(v) for v in rng.integers(-50, 51, size=2))
        assert group.pow(g, n + m) == group.mul(group.pow(g, n), group.pow(g, m))
        assert group.pow(g, 0) == group.identity()


def test_pow_examples():
    z = od.IntegerGroup()
    assert z.pow(1, 5) == 5
    h = od.HeisenbergGroup()
    for s in range(-6, 7):
        assert h.pow((3, 0, 2), s) == (3 * s, 0, 2 * s)
    c = od.CyclicGroup(6)
    assert c.pow(2, 3) == 0


def test_torsion_order():
    assert od.CyclicGroup(6).element_order(2) == 3
    assert od.IntegerGroup().element_order(1) is None
    assert od.CyclicGroup(6).element_order(5) == 6
    # identity always has order 1, even on torsion-free groups
    for group in all_groups():
        assert group.element_order(group.identity()) == 1


@pytest.mark.parametrize("m", [1, 2, 6, 7, 12, 30])
def test_cyclic_element_order_is_the_first_return_to_the_identity(m):
    c = od.CyclicGroup(m)
    for g in range(-m, 2 * m):
        power, n = c.element(g), 1
        while power != c.identity():
            power, n = c.mul(power, g), n + 1
        assert c.element_order(g) == n


def test_heisenberg_torsion_free_by_enumeration():
    h = od.HeisenbergGroup()
    a = (3, 0, 2)
    assert h.element_order(a) is None
    g = a
    for _ in range(64):
        assert g != h.identity()
        g = h.mul(g, a)


def test_separation_constant_integers():
    z = od.IntegerGroup()
    K = od.box(z, [[-5, 5]])
    assert od.separation_constant(z, K, 1, 64) == 10
    assert od.separation_constant(z, od.CompactSet.of([0]), 1, 64) == 0


def test_separation_constant_heisenberg():
    h = od.HeisenbergGroup()
    K = od.box(h, [[-1, 1], [-1, 1], [-1, 1]])
    assert od.separation_constant(h, K, (3, 0, 2), 32) == 0


@pytest.mark.parametrize(
    "bounds,a,n_max",
    [([[-5, 5]], 1, 40), ([[-3, 7]], 2, 30), ([[0, 9]], 3, 25)],
)
def test_separation_exhaustive_recheck(bounds, a, n_max):
    z = od.IntegerGroup()
    K = od.box(z, bounds)
    M = od.separation_constant(z, K, a, n_max)
    assert M is not None
    base = K.elements
    for n in range(M + 1, n_max + 1):
        for sign in (n, -n):
            shift = z.pow(a, sign)
            assert not any(z.mul(k, shift) in base for k in base)
    if M > 0:
        shift = z.pow(a, M)
        assert any(z.mul(k, shift) in base for k in base) or any(
            z.mul(k, z.inv(shift)) in base for k in base
        )


def test_separation_constant_uncertified_at_budget():
    z = od.IntegerGroup()
    K = od.box(z, [[-5, 5]])
    # every probed shift up to n_max = 8 still collides
    assert od.separation_constant(z, K, 1, 8) is None


def test_separation_constant_rejects_torsion():
    c = od.CyclicGroup(6)
    with pytest.raises(TorsionElementError):
        od.separation_constant(c, od.CompactSet.of([0, 1]), 2, 16)
    # a finite order is torsion whatever the budget: a^6 = e lies past n_max = 3
    with pytest.raises(TorsionElementError) as exc:
        od.separation_constant(c, od.CompactSet.of([0, 1]), 1, 3)
    assert exc.value.order == 6


def _scalar_separation(group, K, a, n_max):
    """separation_constant as its scalar mul loop alone computes it."""
    hits = np.flatnonzero(groups._scalar_collisions(group, K, a, n_max))
    last = int(hits[-1]) + 1 if hits.size else 0
    return None if last == n_max else last


@st.composite
def separation_cases(draw):
    group = draw(
        st.sampled_from([od.IntegerGroup(), od.LatticeGroup(d=2), od.LatticeGroup(d=3), od.HeisenbergGroup()])
    )
    rank = len(group.coords(group.identity()))
    point = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    a = draw(point.map(group.element).filter(lambda g: g != group.identity()))
    offset = draw(st.lists(st.integers(-10**6, 10**6), min_size=rank, max_size=rank))
    # Scattered points, so K is rarely a product of coordinate sets.
    points = draw(st.lists(point, min_size=1, max_size=12))
    K = od.CompactSet.of(group.element([o + c for o, c in zip(offset, p)]) for p in points)
    return group, K, a, draw(st.integers(1, 64))


@settings(max_examples=200, deadline=None)
@given(separation_cases(), st.sampled_from([groups.BLOCK_ELEMENTS, 1, 7]))
def test_separation_closed_form_matches_the_scalar_loop(case, block):
    group, K, a, n_max = case
    with mock.patch.object(groups, "BLOCK_ELEMENTS", block):
        closed = groups._closed_form_collisions(group, K, a, n_max)
    assert closed is not None
    assert np.array_equal(closed, groups._scalar_collisions(group, K, a, n_max))
    assert od.separation_constant(group, K, a, n_max) == _scalar_separation(group, K, a, n_max)


_small = st.integers(-5, 5)


@st.composite
def power_cases(draw):
    """A group, a non-identity a, a few points x and an exponent bound J.

    Some points sit just under the orbit_bound guard for J: their last
    coordinate (the modulus, on a cyclic group) is pushed until the bound
    lies a few units below INT64_GUARD."""
    kind = draw(st.sampled_from(["Z", "Zd", "heisenberg", "cyclic"]))
    J = draw(st.integers(0, 40))
    top = groups.INT64_GUARD - 1 - draw(st.integers(0, 3))
    if kind == "cyclic":
        a, points = draw(st.integers(1, 5)), draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
        m = draw(st.sampled_from([a + 1, 7, top - max(points) - (J + 1) * a]))
        return od.CyclicGroup(m=m), a % m, [x % m for x in points], J
    group = {"Z": od.IntegerGroup(), "Zd": od.LatticeGroup(d=3), "heisenberg": od.HeisenbergGroup()}[kind]
    rank = len(group.coords(group.identity()))
    element = st.lists(_small, min_size=rank, max_size=rank).map(group.element)
    a = draw(element.filter(lambda g: g != group.identity()))
    points = draw(st.lists(element, min_size=1, max_size=3))
    for i in draw(st.sets(st.integers(0, len(points) - 1))):
        # The bound grows by one per unit of |last coordinate| once that dominates.
        sign = draw(st.sampled_from([1, -1]))
        coords = group.coords(points[i])
        coords[-1] = sign * top
        coords[-1] = sign * (2 * top - group.orbit_bound(group.element(coords), a, J))
        points[i] = group.element(coords)
    return group, a, points, J


@settings(max_examples=300, deadline=None)
@given(power_cases())
def test_power_and_mul_coords_match_pow_and_mul(case):
    group, a, points, J = case
    assert all(group.orbit_bound(x, a, J) < groups.INT64_GUARD for x in points)
    js = np.arange(-J, J + 1)
    powers = group.power_coords(a, js)
    columns = tuple(np.array([[c] for c in col], dtype=np.int64) for col in zip(*map(group.coords, points)))
    products = group.mul_coords(columns, powers)
    for i, j in enumerate(js.tolist()):
        assert [int(p[i]) for p in powers] == group.coords(group.pow(a, j))
    step = {1: a, -1: group.inv(a)}
    for row, x in enumerate(points):
        orbit = {0: x}
        for j in range(1, J + 1):
            orbit[j] = group.mul(orbit[j - 1], step[1])
            orbit[-j] = group.mul(orbit[1 - j], step[-1])
        for i, j in enumerate(js.tolist()):
            assert [int(c[row, i]) for c in products] == group.coords(orbit[j])


def test_cyclic_orbits_past_the_int64_range_take_the_scalar_loop():
    # A modulus past int64 used to reach the closed form, whose numpy
    # arithmetic raised OverflowError inside run_check.
    group = od.CyclicGroup(m=2**64)
    assert group.orbit_bound(0, 1, 8) >= groups.INT64_GUARD
    system = od.WeightedSystem(group=group, a=1, weight=od.ConstantWeight(0.5), young=od.PowerYoung(2.0))
    verdict = od.run_check(od.CriterionRequest(system=system, K=od.CompactSet.of([0, 1]), property="mixing", N_max=8))
    assert verdict.obstruction.kind == "torsion" and verdict.obstruction.order == 2**64


def test_separation_past_the_orbit_guard_takes_the_scalar_loop():
    z = od.IntegerGroup()
    K = od.CompactSet.of([2**61, 2**61 + 3, 0])
    assert groups._closed_form_collisions(z, K, 2**60, 8) is None
    assert od.separation_constant(z, K, 2**60, 8) == _scalar_separation(z, K, 2**60, 8) == 2
    # A small step keeps the same points under the guard.
    assert groups._closed_form_collisions(z, K, 3, 8) is not None
    assert od.separation_constant(z, K, 3, 8) == 1
    assert groups._closed_form_collisions(z, od.CompactSet.of([]), 1, 8) is None
    assert od.separation_constant(z, od.CompactSet.of([]), 1, 8) == 0
    # 250 points with distinct coordinates in Z^8: their mixed-radix keys,
    # 250^8 of them, would pass 2^62, but the index re-ranks every prefix.
    z8 = od.LatticeGroup(d=8)
    K = od.CompactSet.of(tuple(3 * i + c for c in range(8)) for i in range(250))
    for a in ((3,) * 8, (1,) * 8):
        assert np.array_equal(groups._closed_form_collisions(z8, K, a, 8), groups._scalar_collisions(z8, K, a, 8))
    assert od.separation_constant(z8, K, (3,) * 8, 8) is None
    assert od.separation_constant(z8, K, (1,) * 8, 8) == 6  # shifts by multiples of 3 collide


# Few values per coordinate, so points often share a prefix of coordinates
# with a row of the set yet miss it; one in four lies near +-2^61.
_index_coordinate = st.one_of(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([-(2**61), 2**61 - 1])
)


@st.composite
def index_cases(draw):
    rank = draw(st.integers(1, 8))
    point = st.lists(_index_coordinate, min_size=rank, max_size=rank).map(tuple)
    rows = draw(st.lists(point, max_size=24, unique=True))
    queries = rows + draw(st.lists(point, min_size=1, max_size=24))
    return rows, draw(st.permutations(queries))


def _check_index(rows, queries):
    index = groups.CoordinateIndex(rows)
    expected = [{row: i for i, row in enumerate(rows)}.get(q, -1) for q in queries]
    cols = np.array(queries, dtype=np.int64).T
    assert index.find(tuple(cols)).tolist() == expected
    # Orbit coordinates come as (points, steps) blocks; find keeps the shape.
    assert index.find(tuple(c.reshape(-1, 1) for c in cols)).tolist() == [[e] for e in expected]


@settings(max_examples=300, deadline=None)
@given(index_cases())
def test_coordinate_index_matches_a_dict(case):
    _check_index(*case)


def test_coordinate_index_edge_cases():
    _check_index([], [(0,), (-(2**61),)])
    # A point of another rank is in no set, as in a dict of tuples.
    assert groups.CoordinateIndex([(0,)]).find((np.array([0]), np.array([0]))).tolist() == [-1]
    # The 250-point Z^8 set of the separation test: mixed-radix keys would
    # reach 250^8 > 2^62.
    rows = [tuple(3 * i + c for c in range(8)) for i in range(250)]
    shifted = [tuple(c + 1 for c in row) for row in rows]
    _check_index(rows, rows + shifted + [tuple(-c for c in rows[-1])])


def test_separation_counts_no_group_multiplications():
    z2 = od.LatticeGroup(d=2)
    K = od.box(z2, [[0, 10], [5, 15]])
    with mock.patch.object(od.LatticeGroup, "mul", side_effect=AssertionError("scalar loop ran")):
        assert od.separation_constant(z2, K, (1, 1), 64) == 10


def test_box_and_compact_set():
    z2 = od.LatticeGroup(d=2)
    K = od.box(z2, [[0, 1], [0, 2]])
    assert K.measure() == 6
    assert (1, 2) in K
    assert K.sorted_elements(z2)[0] == (0, 0)
    with pytest.raises(ValueError):
        od.box(z2, [[1, 0], [0, 0]])


def test_element_serialization_round_trip():
    for group in all_groups() + [od.CyclicGroup(9)]:
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_element(group, rng)
            assert group.element(group.coords(g)) == g
