from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2, all_groups, random_element, random_vector
from orlicz_dynamics.errors import NonFiniteVectorError
from orlicz_dynamics.orlicz import vector_sum


def test_vector_pruning_and_ops():
    f = od.OrliczVector({0: 1.0, 1: 0.0, 2: -2.0})
    assert f.support() == {0, 2}
    assert f[1] == 0.0
    g = f + od.OrliczVector({2: 2.0, 3: 1.0})
    assert g.support() == {0, 3}
    assert (f - f).support() == frozenset()
    assert f.scale(2.0)[2] == -4.0
    assert f.restrict([0]).support() == {0}
    assert f.mul_pointwise(lambda x: x + 1.0)[2] == -6.0


def test_modular_examples():
    assert od.modular(od.OrliczVector(), P2, 1.0) == 0.0
    chi2 = od.OrliczVector.indicator([0, 1])
    assert od.modular(chi2, P2, 1.0) == 1.0
    single = od.OrliczVector.delta(0, 3.0)
    assert od.modular(single, od.PowerYoung(1.0), 3.0) == 1.0
    with pytest.raises(ValueError):
        od.modular(chi2, P2, 0.0)


def test_luxemburg_norm_examples():
    assert od.luxemburg_norm(od.OrliczVector(), P2) == 0.0
    f = od.OrliczVector({0: 2.0, 7: 2.0})
    assert abs(od.luxemburg_norm(f, P2) - 2.0) <= 1e-12
    chi2 = od.OrliczVector.indicator([0, 1])
    assert abs(od.luxemburg_norm(chi2, P2) - 1.0) <= 1e-12
    assert abs(od.luxemburg_norm(od.OrliczVector.delta(0, 3.0), od.PowerYoung(1.0)) - 3.0) <= 1e-12


def test_norm_rejects_non_finite():
    with pytest.raises(NonFiniteVectorError):
        od.luxemburg_norm(od.OrliczVector({0: math.inf}), P2)
    with pytest.raises(NonFiniteVectorError):
        od.luxemburg_norm(od.OrliczVector({0: math.nan}), P2)


def test_power_norm_closed_form_randomized():
    rng = np.random.default_rng(17)
    group = od.IntegerGroup()
    for _ in range(60):
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
        phi = od.PowerYoung(p)
        f = random_vector(group, rng)
        values = np.array([v for _, v in f.items()])
        closed = p ** (-1.0 / p) * float(np.sum(np.abs(values) ** p)) ** (1.0 / p)
        assert abs(od.luxemburg_norm(f, phi) - closed) <= 1e-9 * closed


def test_indicator_closed_form_examples():
    z = od.IntegerGroup()
    assert abs(od.indicator_norm_closed_form(od.box(z, [[0, 0]]), od.PowerYoung(1.0)) - 1.0) <= 1e-12
    assert abs(od.indicator_norm_closed_form(od.box(z, [[0, 1]]), P2) - 1.0) <= 1e-12
    assert abs(od.indicator_norm_closed_form(od.box(z, [[0, 7]]), P2) - 2.0) <= 1e-12


@pytest.mark.parametrize("phi", [P2, od.AlphaLogYoung(1.5)])
def test_indicator_bisection_matches_closed_form(phi):
    z = od.IntegerGroup()
    for size in (1, 2, 3, 5, 8, 16, 33, 64):
        B = od.box(z, [[0, size - 1]])
        closed = od.indicator_norm_closed_form(B, phi)
        direct = od.luxemburg_norm(od.OrliczVector.indicator(B), phi)
        assert abs(direct - closed) <= 1e-9 * closed


def test_translate_examples():
    z = od.IntegerGroup()
    assert od.translate(od.OrliczVector.delta(0), z, 3) == od.OrliczVector.delta(3)
    h = od.HeisenbergGroup()
    assert od.translate(od.OrliczVector.delta((0, 0, 0)), h, (3, 0, 2)) == od.OrliczVector.delta(
        (3, 0, 2)
    )
    rng = np.random.default_rng(7)
    f = random_vector(z, rng)
    assert od.translate(od.translate(f, z, 5), z, -5) == f


@pytest.mark.parametrize("group", all_groups())
def test_translation_invariance(group):
    rng = np.random.default_rng(29)
    for phi in (P2, od.PowerYoung(1.0), od.AlphaLogYoung(1.5)):
        for _ in range(15):
            f = random_vector(group, rng)
            a = random_element(group, rng)
            base = od.luxemburg_norm(f, phi)
            shifted = od.luxemburg_norm(od.translate(f, group, a), phi)
            assert abs(shifted - base) <= 1e-12 * (1.0 + base)


def test_absolute_homogeneity():
    rng = np.random.default_rng(31)
    group = od.IntegerGroup()
    for _ in range(40):
        f = random_vector(group, rng)
        c = float(rng.uniform(-4.0, 4.0))
        if c == 0.0:
            continue
        lhs = od.luxemburg_norm(f.scale(c), P2)
        rhs = abs(c) * od.luxemburg_norm(f, P2)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)


def test_triangle_inequality():
    rng = np.random.default_rng(37)
    group = od.LatticeGroup(d=2)
    for phi in (P2, od.PowerYoung(1.0), od.PowerYoung(3.0)):
        for _ in range(25):
            f = random_vector(group, rng)
            g = random_vector(group, rng)
            assert od.luxemburg_norm(f + g, phi) <= od.luxemburg_norm(f, phi) + od.luxemburg_norm(
                g, phi
            ) + 1e-10


def test_definiteness():
    rng = np.random.default_rng(41)
    group = od.IntegerGroup()
    assert od.luxemburg_norm(od.OrliczVector(), P2) == 0.0
    for _ in range(30):
        f = random_vector(group, rng)
        assert od.luxemburg_norm(f, P2) > 0.0


def test_modular_monotone_and_definite_in_scale():
    rng = np.random.default_rng(47)
    group = od.IntegerGroup()
    for _ in range(20):
        f = random_vector(group, rng)
        ks = np.sort(rng.uniform(0.05, 10.0, size=10))
        values = [od.modular(f, P2, float(k)) for k in ks]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(v > 0.0 for v in values)
    assert all(od.modular(od.OrliczVector(), P2, float(k)) == 0.0 for k in (0.1, 1.0, 7.0))


def test_modular_at_returned_scale_is_one():
    rng = np.random.default_rng(43)
    group = od.IntegerGroup()
    for phi in (P2, od.PowerYoung(1.0), od.AlphaLogYoung(1.5)):
        for _ in range(25):
            f = random_vector(group, rng)
            k = od.luxemburg_norm(f, phi)
            assert 1.0 - 1e-9 <= od.modular(f, phi, k) <= 1.0 + 1e-9


def test_disjoint_support_modular_additivity():
    f = od.OrliczVector({0: 1.5, 1: -0.5})
    g = od.OrliczVector({10: 2.0, 11: 0.25})
    merged = f + g
    for k in (0.5, 1.0, 2.0, 3.7):
        assert od.modular(merged, P2, k) == pytest.approx(
            od.modular(f, P2, k) + od.modular(g, P2, k), rel=1e-15
        )


def test_norm_survives_extreme_magnitudes():
    for v in (1e-200, 1e-300, 1e200):
        f = od.OrliczVector.delta(0, v)
        expected = v / math.sqrt(2.0)
        assert od.luxemburg_norm(f, P2) == pytest.approx(expected, rel=1e-11)


def test_norm_with_custom_table_family():
    # a table sampled densely from the p = 2 family reproduces its norms
    gen = P2
    knots = tuple((0.01 * i, gen.evaluate(0.01 * i)) for i in range(4001))  # [0, 40]
    table = od.TableYoung(knots)
    rng = np.random.default_rng(53)
    group = od.IntegerGroup()
    for _ in range(10):
        f = random_vector(group, rng)
        exact = od.luxemburg_norm(f, gen)
        approx = od.luxemburg_norm(f, table)
        assert abs(approx - exact) <= 1e-4 * (1.0 + exact)
        assert 1.0 - 1e-9 <= od.modular(f, table, approx) <= 1.0 + 1e-9
    B = od.box(group, [[0, 7]])
    assert od.indicator_norm_closed_form(B, table) == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize(
    "table,size,expected",
    [
        # Phi(0.5) = 0.5: rho(2) = 0.5 at the edge k = 2, and the halving
        # used to probe k = 1, past the table.
        pytest.param(((0.0, 0.0), (0.5, 0.5)), 1, 2.0, id="short-table-low"),
        # domain_max 1.5 > 1: the bracket starts at max|f| = 1, rho(1) = 0.6,
        # and k = 0.5 lies past the table; the edge is 1/1.5, rho = 0.9 there.
        pytest.param(((0.0, 0.0), (1.5, 0.9)), 1, 1 / 1.5, id="long-table-low"),
        # A screened support: rho at the edge 2 is 20 * 0.01.
        pytest.param(((0.0, 0.0), (0.5, 0.01)), 20, 2.0, id="screened"),
    ],
)
def test_norm_stops_at_the_table_edge(table, size, expected):
    # Past the table Phi is infinite, so where rho stays below 1 at the
    # edge of the domain the norm is that edge.
    f = od.OrliczVector.indicator(range(size))
    phi = od.TableYoung(table)
    assert od.luxemburg_norm(f, phi) == expected
    assert od.modular(f, phi, expected) <= 1.0


def test_norm_bisects_above_the_table_edge():
    # Phi(t) = 0.2 t on [0, 1.5]: rho(k) = 0.8 / k, so rho(1) < 1, the
    # next halving (k = 0.5) lies past the edge 1/1.5, where rho = 1.2 > 1,
    # and the root 0.8 lies between the edge and 1.
    f = od.OrliczVector.indicator(range(4))
    phi = od.TableYoung(((0.0, 0.0), (1.5, 0.3)))
    norm = od.luxemburg_norm(f, phi)
    assert norm == pytest.approx(0.8, rel=1e-11)
    assert od.modular(f, phi, norm) == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("phi", [P2, od.PowerYoung(1.0), od.AlphaLogYoung(1.5)], ids=repr)
def test_norm_of_the_least_subnormal_is_the_least_subnormal(phi):
    # Its norm, 5e-324 / Phi^{-1}(1), rounds to 5e-324 or to 0.0, and the
    # halving of the bracket once reached 0.0 and raised RuntimeError.  No
    # norm lies below the least positive float.
    tiny = math.ulp(0.0)
    assert od.luxemburg_norm(od.OrliczVector({0: tiny}), phi) == tiny
    assert od.luxemburg_norm(od.OrliczVector({0: -tiny}), phi) == tiny


def test_norm_of_screened_least_subnormals():
    # Twenty entries take the screen: sqrt(10) * 5e-324 rounds to 3 ulps.
    f = od.OrliczVector({i: math.ulp(0.0) for i in range(20)})
    assert od.luxemburg_norm(f, P2) == 3 * math.ulp(0.0) == 1.5e-323


# Few keys and values that cancel exactly, so draws often share keys,
# cancel them to 0.0 and bring them back.
_KEYED = st.dictionaries(
    st.integers(0, 4), st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.1, -0.3, 5e-324, -5e-324, 1e308]), max_size=5
).map(od.OrliczVector)


def _bits(v: od.OrliczVector) -> list:
    return [(x, value.hex()) for x, value in v.items()]


def _holds_nonzero_floats(v: od.OrliczVector) -> bool:
    return all(type(value) is float and value != 0.0 for value in v.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_KEYED, _KEYED, _KEYED)
def test_difference_is_the_sum_with_the_negation(a, b, c):
    for left, right in ((a, b), (a, a), (a - b, c), (a - b, a), (vector_sum((a, b, c)), b)):
        assert _bits(left - right) == _bits(left + right.scale(-1.0))
    assert _bits((a - b) - c) == _bits(vector_sum((a, b.scale(-1.0), c.scale(-1.0))))
    for v in (a - b, (a - b) - c, vector_sum((a, b, c)), vector_sum((a,))):
        assert _holds_nonzero_floats(v)


def test_a_cancelled_key_comes_back_at_the_end():
    a, b, c = od.OrliczVector({0: 1.0, 1: 2.0}), od.OrliczVector({0: 1.0}), od.OrliczVector({0: -3.0, 2: 0.5})
    assert list((a - b).items()) == [(1, 2.0)]
    assert list(((a - b) - c).items()) == [(1, 2.0), (0, 3.0), (2, -0.5)]
    assert _bits((a - b) - c) == _bits(a + b.scale(-1.0) + c.scale(-1.0))
    assert not (a - a)


def test_the_constructor_keeps_its_checks():
    assert list(od.OrliczVector([(0, 1), (1, 0), (2, -0.0), (3, "2.5")]).items()) == [(0, 1.0), (3, 2.5)]
    assert _holds_nonzero_floats(od.OrliczVector({0: np.float64(1.5), 1: True}))
    with pytest.raises(ValueError):
        od.OrliczVector({0: "one"})
