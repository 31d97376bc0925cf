from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import all_groups, random_element

from orlicz_dynamics import groups, translations
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


_POW_GROUPS = [
    od.IntegerGroup(), od.LatticeGroup(d=3), od.HeisenbergGroup(), od.CyclicGroup(12), od.CyclicGroup(2**100 + 7)
]
# Past 2^63 and 2^100, and small, so the Heisenberg twist x·y is rarely 0.
_big = st.one_of(st.integers(-5, 5), st.integers(2**63, 2**64), st.integers(-(2**101), -(2**100)))


@st.composite
def pow_cases(draw):
    group = draw(st.sampled_from(_POW_GROUPS))
    rank = len(group.coords(group.identity()))
    return group, draw(st.lists(_big, min_size=rank, max_size=rank).map(group.element)), draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(pow_cases())
def test_pow_is_the_fold_of_mul(case):
    group, g, n = case
    fold = group.identity()
    for _ in range(n):
        fold = group.mul(fold, g)
    assert group.pow(g, n) == fold
    assert group.mul(group.pow(g, -n), group.pow(g, n)) == group.identity()
    assert group.mul(group.pow(g, n), group.pow(g, -n)) == group.identity()


def test_heisenberg_pow_has_its_quadratic_term():
    h = od.HeisenbergGroup()
    g = (2**100 + 3, -(2**63) - 5, 7)
    fold = h.identity()
    for n in range(1, 9):
        fold = h.mul(fold, g)
        assert h.pow(g, n) == fold
        assert (h.pow(g, n)[2] != n * g[2]) == (n > 1)  # the x·y·n(n-1)/2 term
    assert h.pow((2, 3, 5), 4) == (8, 12, 20 + 2 * 3 * 6)
    assert h.pow((2, 3, 5), -2) == (-4, -6, -10 + 2 * 3 * 3)


def test_inverse_formulas():
    assert od.IntegerGroup().inv(5) == -5
    assert od.LatticeGroup(d=2).inv((1, -2)) == (-1, 2)
    assert od.HeisenbergGroup().inv((2, 3, 5)) == (-2, -3, 2 * 3 - 5)
    assert od.CyclicGroup(6).inv(2) == 4 and od.CyclicGroup(6).inv(0) == 0


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
    base = set(K)
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
    # Offsets up to 2^90: coordinates and Heisenberg twists far past int64.
    scale = draw(st.sampled_from([10**6, 2**64, 2**90]))
    offset = draw(st.lists(st.integers(-scale, scale), min_size=rank, max_size=rank))
    # Scattered points, so K is rarely a product of coordinate sets.
    points = draw(st.lists(point, min_size=1, max_size=12))
    K = od.CompactSet.of(group.element([o + c for o, c in zip(offset, p)]) for p in points)
    return group, K, a, draw(st.integers(1, 64))


@settings(max_examples=200, deadline=None)
@given(separation_cases())
def test_separation_closed_form_matches_the_scalar_loop(case):
    group, K, a, n_max = case
    assert od.separation_constant(group, K, a, n_max) == _scalar_separation(group, K, a, n_max)


_coordinate = st.one_of(st.integers(-5, 5), st.integers(-(2**64), 2**64), st.integers(-(2**100), 2**100))
_ORBIT_GROUPS = [
    od.IntegerGroup(), od.LatticeGroup(d=3), od.HeisenbergGroup(), od.CyclicGroup(12), od.CyclicGroup(2**64 + 6)
]


@st.composite
def orbit_index_cases(draw):
    """A group, an element a (the identity too), a point x and a point y:
    either x·a^j for a small j, or drawn on its own."""
    group = draw(st.sampled_from(_ORBIT_GROUPS))
    rank = len(group.coords(group.identity()))
    element = st.lists(_coordinate, min_size=rank, max_size=rank).map(group.element)
    a = draw(st.one_of(st.just(group.identity()), element))
    x = draw(element)
    y = draw(st.one_of(st.integers(-20, 20).map(lambda j: group.mul(x, group.pow(a, j))), element))
    return group, a, x, y


def _within_steps(group, a, x, y, steps=20):
    """Whether y = x·a^j for some |j| <= steps, by repeated mul."""
    fwd = bwd = x
    a_inv = group.inv(a)
    for _ in range(steps + 1):
        if y in (fwd, bwd):
            return True
        fwd, bwd = group.mul(fwd, a), group.mul(bwd, a_inv)
    return False


@settings(max_examples=500, deadline=None)
@given(orbit_index_cases())
def test_orbit_index_is_exact(case):
    group, a, x, y = case
    order = group.element_order(a)
    r, i = group.orbit_index(x, a)
    assert group.mul(r, group.pow(a, i)) == x
    if order is not None:
        assert 0 <= i < order
    # One step along the orbit keeps r and adds 1 to i (mod the order).
    r1, i1 = group.orbit_index(group.mul(x, a), a)
    assert r1 == r
    assert i1 == (i + 1) % order if order is not None else i1 == i + 1
    # Points share r exactly when they share an orbit, and then
    # x·a^(i_y - i_x) = y.
    ry, iy = group.orbit_index(y, a)
    if ry == r:
        assert group.mul(x, group.pow(a, iy - i)) == y
    else:
        assert not _within_steps(group, a, x, y)


def test_orbit_index_examples():
    assert od.IntegerGroup().orbit_index(-7, 3) == (2, -3)
    assert od.IntegerGroup().orbit_index(-7, 0) == (-7, 0)
    assert od.LatticeGroup(d=2).orbit_index((5, 9), (0, -2)) == ((5, -1), -5)
    # a = (3, 0, 2): x·a^t = (x1 + 3t, x2, x3 + 2t), so r has x1 in {0, 1, 2}.
    assert od.HeisenbergGroup().orbit_index((7, 4, 1), (3, 0, 2)) == ((1, 4, -3), 2)
    # a = 4 in Z/10: orbits are the residues mod 2, with period 5.
    c = od.CyclicGroup(10)
    assert c.orbit_index(6, 4) == (0, 4) and c.orbit_index(c.mul(6, 4), 4) == (0, 0)


def test_cyclic_orbits_past_the_int64_range_take_the_scalar_loop():
    # A modulus past int64 once reached int64 coordinate arithmetic, which
    # raised OverflowError inside run_check; the orbit fills are exact
    # Python ints, and their series match the scalar loop's.
    group = od.CyclicGroup(m=2**64)
    system = od.WeightedSystem(group=group, a=1, weight=od.ConstantWeight(0.5), young=od.PowerYoung(2.0))
    verdict = od.run_check(od.CriterionRequest(system=system, K=od.CompactSet.of([0, 1]), property="mixing", N_max=8))
    assert verdict.obstruction.kind == "torsion" and verdict.obstruction.order == 2**64
    table = od.TableWeight(((2**64 - 1, 4.0), (3, 0.25)), default=0.5)
    system = od.WeightedSystem(group=group, a=2**64 - 1, weight=table, young=od.PowerYoung(2.0))
    for x in (0, 2**63 + 5):
        weights = translations.orbit_weights_forward(system, x, 8)
        assert np.array_equal(od.phi_series_pair(system, x, 8)[0], np.cumprod([1.0, *weights]))


def test_separation_past_the_orbit_guard_takes_the_scalar_loop():
    # Points and steps near 2^61 once sent separation to its scalar loop;
    # the orbit indices are exact at any size and agree with that loop.
    z = od.IntegerGroup()
    K = od.CompactSet.of([2**61, 2**61 + 3, 0])
    assert od.separation_constant(z, K, 2**60, 8) == _scalar_separation(z, K, 2**60, 8) == 2
    assert od.separation_constant(z, K, 3, 8) == _scalar_separation(z, K, 3, 8) == 1
    assert od.separation_constant(z, od.CompactSet.of([]), 1, 8) == 0
    # 250 points with distinct coordinates in Z^8.
    z8 = od.LatticeGroup(d=8)
    K = od.CompactSet.of(tuple(3 * i + c for c in range(8)) for i in range(250))
    for a in ((3,) * 8, (1,) * 8):
        assert od.separation_constant(z8, K, a, 8) == _scalar_separation(z8, K, a, 8)
    assert od.separation_constant(z8, K, (3,) * 8, 8) is None
    assert od.separation_constant(z8, K, (1,) * 8, 8) == 6  # shifts by multiples of 3 collide


def test_separation_counts_no_group_multiplications():
    z2 = od.LatticeGroup(d=2)
    K = od.box(z2, [[0, 10], [5, 15]])
    with mock.patch.object(od.LatticeGroup, "mul", side_effect=AssertionError("scalar loop ran")):
        assert od.separation_constant(z2, K, (1, 1), 64) == 10


def test_box_and_compact_set():
    z2 = od.LatticeGroup(d=2)
    K = od.box(z2, [[0, 1], [0, 2]])
    assert K.measure() == 6
    assert (1, 2) in K and (2, 2) not in K and (-1, 0) not in K and 0 not in K
    assert K.elements[0] == (0, 0) and K.elements[-1] == (1, 2)
    # However K is built, it holds each point once, in native order.
    points = [(1, 2), (0, 0), (1, 2), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert od.CompactSet(frozenset(points)) == od.CompactSet.of(points) == K
    assert K.elements == tuple(sorted(set(points)))
    with pytest.raises(ValueError):
        od.box(z2, [[1, 0], [0, 0]])


_ORDER_GROUPS = (
    od.IntegerGroup(),
    od.LatticeGroup(d=1),
    od.LatticeGroup(d=3),
    od.HeisenbergGroup(),
    od.CyclicGroup(5),
    od.CyclicGroup(12),
)


@settings(max_examples=150, deadline=None)
@given(
    group=st.sampled_from(_ORDER_GROUPS),
    raw=st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3), min_size=1, max_size=25),
    bounds=st.lists(st.tuples(st.integers(-15, 15), st.integers(0, 14)), min_size=3, max_size=3),
)
def test_native_order_is_coordinate_order(group, raw, bounds):
    # The premise of K's order: plain ints and int tuples sort natively
    # exactly as their coordinates do, on every group, also where cyclic
    # residues wrap around and where a list or a box repeats a point.
    rank = len(group.coords(group.identity()))
    by_coords = lambda g: tuple(group.coords(g))
    points = [group.element(c[:rank]) for c in raw]
    K = od.CompactSet.of(points)
    assert K.elements == tuple(sorted(set(points), key=by_coords))
    assert od.CompactSet(frozenset(points)) == K == od.CompactSet.of(reversed(points))
    boxed = od.box(group, [[lo, lo + w] for lo, w in bounds[:rank]])
    assert boxed.elements == tuple(sorted(set(boxed), key=by_coords))
    assert len(set(boxed)) == len(boxed)
    table = od.TableWeight(entries=tuple((g, 1.0) for g in reversed(K.elements)))
    assert tuple(g for g, _ in table.entries) == K.elements


def test_element_serialization_round_trip():
    for group in all_groups() + [od.CyclicGroup(9)]:
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_element(group, rng)
            assert group.element(group.coords(g)) == g
