from __future__ import annotations

import math

import numpy as np
import pytest

import orlicz_dynamics as od
from conftest import P2, all_groups, orbit_product, random_element, random_vector
# The per-point views, kept in translations only as span names of the
# benchmark's tracer, are tested there against the series they read.
from orlicz_dynamics.translations import (
    phi_product,
    phi_product_pair,
    phi_series_pair,
    phi_tilde_product,
    phi_tilde_product_pair,
    phi_tilde_series_pair,
)


def _random_system(group, rng):
    weights = [
        od.ConstantWeight(float(rng.uniform(0.3, 2.5))),
        od.TableWeight(
            entries=tuple(
                (random_element(group, rng), float(rng.uniform(0.25, 3.0))) for _ in range(6)
            ),
            default=float(rng.uniform(0.5, 1.5)),
        ),
    ]
    if group.kind == "Z":
        weights.append(od.TwoSidedStepWeight(2.0, 0.5))
    if group.kind == "heisenberg":
        weights.append(od.HeisenbergDyadicWeight())
    a = group.identity()
    while a == group.identity():
        a = random_element(group, rng)
    return od.WeightedSystem(
        group=group, a=a, weight=weights[int(rng.integers(len(weights)))], young=P2
    )


def test_apply_T_examples(step_system, zgroup):
    const = od.WeightedSystem(group=zgroup, a=3, weight=od.ConstantWeight(1.0), young=P2)
    f = od.OrliczVector({0: 1.0, 1: -2.0})
    assert od.apply_T(const, f) == od.translate(f, zgroup, 3)
    assert od.apply_T(step_system, od.OrliczVector.delta(0)) == od.OrliczVector.delta(1, 0.5)
    assert od.apply_T(step_system, od.OrliczVector()) == od.OrliczVector()


def test_apply_S_examples(step_system):
    h = od.OrliczVector.delta(1)
    assert od.apply_S(step_system, h) == od.OrliczVector.delta(0, 2.0)
    assert od.apply_S(step_system, od.OrliczVector()) == od.OrliczVector()
    f = od.OrliczVector({-2: 1.5, 3: -0.25})
    assert od.apply_S(step_system, od.apply_T(step_system, f)) == f


@pytest.mark.parametrize("group", all_groups())
def test_inverse_identities_randomized(group):
    rng = np.random.default_rng(53)
    for _ in range(25):
        sys = _random_system(group, rng)
        f = random_vector(group, rng)
        ts = od.apply_T(sys, od.apply_S(sys, f))
        st = od.apply_S(sys, od.apply_T(sys, f))
        for x, v in f.items():
            assert abs(ts[x] - v) <= 1e-14 * abs(v)
            assert abs(st[x] - v) <= 1e-14 * abs(v)
        assert ts.support() == f.support()
        assert st.support() == f.support()


@pytest.mark.parametrize("group", all_groups())
def test_iterate_closed_form_matches_repeated_application(group):
    rng = np.random.default_rng(59)
    for _ in range(8):
        sys = _random_system(group, rng)
        f = random_vector(group, rng, max_support=4)
        cur = f
        for n in range(0, 25):
            assert list(od.apply_T_n(sys, f, n).items()) == list(cur.items())
            cur = od.apply_T(sys, cur)


def test_iterate_examples(step_system):
    f = od.OrliczVector.delta(0)
    assert od.apply_T_n(step_system, f, 0) == f
    assert od.apply_T_n(step_system, f, 1) == od.apply_T(step_system, f)
    assert od.apply_T_n(step_system, f, 3) == od.OrliczVector.delta(3, 0.125)
    assert od.apply_S_n(step_system, f, 0) == f
    for apply_n in (od.apply_T_n, od.apply_S_n):
        with pytest.raises(ValueError):
            apply_n(step_system, f, -1)


def test_apply_S_n_matches_iteration(step_system):
    f = od.OrliczVector({0: 1.0, 2: -1.0})
    cur = f
    for n in range(0, 12):
        assert list(od.apply_S_n(step_system, f, n).items()) == list(cur.items())
        cur = od.apply_S(step_system, cur)


def test_phi_products_empty():
    sys = od.WeightedSystem(
        group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(0.7), young=P2
    )
    assert orbit_product(sys, 0, 0) == 1.0
    assert orbit_product(sys, 0, 0, backward=True) == 1.0


def test_phi_products_heisenberg_closed_form(heisenberg_system):
    for x in ((0, 0, 0), (4, -2, 0), (-7, 3, 0)):
        for n in (1, 2, 5, 10, 20):
            assert orbit_product(heisenberg_system, x, n) == 2.0 ** (-n)
            assert orbit_product(heisenberg_system, x, n, backward=True) == 2.0 ** (-(n - 1))


def test_phi_products_step_closed_form(step_system):
    for n in range(2, 20):
        assert orbit_product(step_system, -2, n) == 2.0 ** (4 - n)
        assert orbit_product(step_system, 2, n, backward=True) == 2.0 ** (4 - n)
        assert orbit_product(step_system, 0, n) == 2.0 ** (-n)
        assert orbit_product(step_system, 0, n, backward=True) == 2.0 ** (-n)


@pytest.mark.parametrize("group", all_groups())
def test_product_operator_duality(group):
    # N(T^n (f chi_E)) equals N(phi_n * f chi_E): the translation-invariance
    # identity behind every criterion
    rng = np.random.default_rng(61)
    for _ in range(10):
        sys = _random_system(group, rng)
        f = random_vector(group, rng, max_support=5)
        E = list(f.support())[: max(1, len(f) - 1)]
        fE = f.restrict(E)
        if not fE:
            continue
        for n in (1, 3, 7):
            lhs = od.luxemburg_norm(od.apply_T_n(sys, fE, n), P2)
            rhs = od.luxemburg_norm(
                fE.mul_pointwise(lambda x, n=n: orbit_product(sys, x, n)), P2
            )
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)


@pytest.mark.parametrize("group", all_groups())
def test_operator_norm_bound(group):
    rng = np.random.default_rng(67)
    for _ in range(15):
        sys = _random_system(group, rng)
        f = random_vector(group, rng)
        bound = max(sys.weight.values) * od.luxemburg_norm(f, P2)
        assert od.luxemburg_norm(od.apply_T(sys, f), P2) <= bound + 1e-9


def test_series_recurrence_matches_direct_products(step_system, heisenberg_system):
    for sys, x in ((step_system, -2), (heisenberg_system, (1, 1, 0))):
        lin, logs = phi_series_pair(sys, x, 40)
        tlin, tlogs = phi_tilde_series_pair(sys, x, 40)
        for n in range(0, 41):
            direct = phi_product(sys, x, n)
            assert abs(lin[n] - direct) <= 1e-13 * direct
            tdirect = phi_tilde_product(sys, x, n)
            assert abs(tlin[n] - tdirect) <= 1e-13 * tdirect
            assert abs(logs[n] - math.log(direct)) <= 1e-10 * (1.0 + abs(math.log(direct)))
            assert abs(tlogs[n] - math.log(tdirect)) <= 1e-10 * (1.0 + abs(math.log(tdirect)))


def test_pairs_are_views_of_the_series(step_system, heisenberg_system):
    for sys, x in ((step_system, -2), (heisenberg_system, (1, 1, 0))):
        lin, logs = phi_series_pair(sys, x, 40)
        tlin, tlogs = phi_tilde_series_pair(sys, x, 40)
        for n in range(0, 41):
            assert phi_product_pair(sys, x, n) == (logs[n], lin[n])
            assert phi_tilde_product_pair(sys, x, n) == (tlogs[n], tlin[n])
    for product in (phi_product, phi_tilde_product, phi_product_pair, phi_tilde_product_pair):
        with pytest.raises(ValueError):
            product(step_system, 0, -1)


def test_long_product_log_pair_survives_underflow():
    sys = od.WeightedSystem(
        group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(0.5), young=P2
    )
    log, linear = phi_product_pair(sys, 0, 2000)
    assert linear == 0.0  # legitimate underflow
    assert abs(log - 2000.0 * math.log(0.5)) <= 1e-9 * 2000.0
    log, linear = phi_tilde_product_pair(sys, 0, 2000)
    assert linear == math.inf  # legitimate overflow of 2^2000
    assert abs(log - 2000.0 * math.log(2.0)) <= 1e-9 * 2000.0


def test_weight_validation():
    with pytest.raises(ValueError):
        od.ConstantWeight(0.0)
    with pytest.raises(ValueError):
        od.TwoSidedStepWeight(-1.0, 0.5)
    with pytest.raises(ValueError):
        od.TableWeight(entries=((0, 0.0),), default=1.0)
    # An infinite weight is no bounded operator, and would turn a pruned
    # 0.0 of the step loop into 0 * inf = nan.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            od.ConstantWeight(bad)
        with pytest.raises(ValueError):
            od.TwoSidedStepWeight(2.0, bad)
        with pytest.raises(ValueError):
            od.TableWeight(entries=((0, bad),), default=1.0)
        with pytest.raises(ValueError):
            od.TableWeight(entries=(), default=bad)
    w = od.TableWeight(entries=((1, 0.5), (0, 2.0)), default=1.0)
    assert w.values == (0.5, 2.0, 1.0)
    assert w.entries == ((0, 2.0), (1, 0.5))  # in the keys' native order
    assert w(0) == 2.0 and w(99) == 1.0
    with pytest.raises(ValueError, match="do not compare"):
        od.TableWeight(entries=((0, 2.0), ((1, 0), 0.5)))


def test_declared_weight_bounds_are_honest():
    rng = np.random.default_rng(73)
    cases = [
        (od.ConstantWeight(0.7), od.IntegerGroup()),
        (od.TwoSidedStepWeight(2.0, 0.5), od.IntegerGroup()),
        (od.HeisenbergDyadicWeight(), od.HeisenbergGroup()),
        (
            od.TableWeight(entries=((3, 0.25), (-1, 4.0)), default=1.5),
            od.IntegerGroup(),
        ),
    ]
    for w, group in cases:
        seen = {w(random_element(group, rng, span=8)) for _ in range(300)}
        assert seen == set(w.values)


def test_heisenberg_weight_values():
    w = od.HeisenbergDyadicWeight()
    assert w((0, 0, 5)) == 0.5
    assert w((0, 0, 1)) == 0.5
    assert w((0, 0, 0)) == 1.0
    assert w((0, 0, -1)) == 2.0
    assert w((0, 0, -9)) == 2.0
