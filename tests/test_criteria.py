from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from orlicz_dynamics.errors import ConfigError
from conftest import P2, block_alternating_weight, orbit_product
from exact_oracle import exact_term


def _req(system, K, prop, **kw):
    return od.CriterionRequest(system=system, K=K, property=prop, **kw)


# ---------------------------------------------------------------- obstructions


def test_obstruction_torsion():
    sys = od.WeightedSystem(
        group=od.CyclicGroup(6),
        a=2,
        weight=od.TableWeight(entries=((0, 2.0), (1, 0.5)), default=1.0),
        young=P2,
    )
    obs = od.check_obstructions(_req(sys, od.CompactSet.of([0, 1]), od.Property.TRANSITIVE))
    assert obs is not None and obs.kind == "torsion" and obs.order == 3


def test_torsion_order_is_found_in_closed_form():
    # The order is m // gcd(a, m), not the first n with a^n = e by search:
    # a search over 10^12 steps would not end.
    sys = od.WeightedSystem(group=od.CyclicGroup(10**12), a=1, weight=od.ConstantWeight(1.0), young=P2)
    t0 = time.perf_counter()
    verdict = od.run_check(_req(sys, od.CompactSet.of([0, 1]), od.Property.CHAOTIC))
    assert time.perf_counter() - t0 < 1.0
    assert verdict.outcome is od.Outcome.OBSTRUCTION_FOUND
    assert verdict.obstruction.kind == "torsion" and verdict.obstruction.order == 10**12


def _cyclic4():
    # T^4 = I: every vector is periodic, so T is recurrent and multiply recurrent.
    return od.WeightedSystem(group=od.CyclicGroup(4), a=1, weight=od.ConstantWeight(1.0), young=P2)


@pytest.mark.parametrize("prop,L", [("recurrent", 1), ("multiply_recurrent", 2), ("multiply_recurrent", 3)])
def test_torsion_recurrence_is_decided_by_cycle_products(prop, L):
    sys = _cyclic4()
    K = od.CompactSet.of([0, 1])
    f = od.OrliczVector.indicator(K)
    assert od.apply_T_n(sys, f, 4) == f
    verdict = od.run_check(_req(sys, K, prop, L=L))
    assert verdict.outcome is od.Outcome.WITNESS_FOUND and verdict.obstruction is None
    assert [(w.epsilon, w.n, w.sup_by_l) for w in verdict.witness] == [
        (eps, 4, (0.0,) * L) for eps in od.DEFAULT_EPSILONS
    ]


@pytest.mark.parametrize("prop", ["transitive", "mixing", "chaotic"])
def test_torsion_still_blocks_transitivity_mixing_and_chaos(prop):
    verdict = od.run_check(_req(_cyclic4(), od.CompactSet.of([0, 1]), prop))
    assert verdict.obstruction.kind == "torsion" and verdict.obstruction.order == 4


def _cycle_obstruction(group, a, weight, K, prop="recurrent"):
    sys = od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
    verdict = od.run_check(_req(sys, od.CompactSet.of(K), prop))
    assert verdict.outcome is od.Outcome.OBSTRUCTION_FOUND and verdict.witness == ()
    assert verdict.obstruction.kind == "cycle_product"
    return verdict.obstruction


def test_cycle_products_other_than_1_obstruct_recurrence():
    # Z/6 with a = 2: cycles {0, 2, 4} (product 2) and {1, 3, 5} (product 1/2).
    table = od.TableWeight(((0, 2.0), (1, 0.5)), default=1.0)
    obs = _cycle_obstruction(od.CyclicGroup(6), 2, table, [1, 3], "multiply_recurrent")
    assert (obs.order, obs.bound) == (3, -1.0) and "[1]" in obs.detail
    # 3 * (1/3) rounds to 1.0, but the exact product of those floats is not 1.
    assert 3.0 * (1 / 3) == 1.0
    thirds = od.TableWeight(((0, 3.0), (2, 1 / 3)), default=1.0)
    assert _cycle_obstruction(od.CyclicGroup(6), 2, thirds, [0]).order == 3
    # a = 0 has order 1, so each point is its own cycle, with product w(x).
    obs = _cycle_obstruction(od.IntegerGroup(), 0, od.TwoSidedStepWeight(2.0, 0.5), [0])
    assert (obs.order, obs.bound) == (1, 1.0)
    # 1.5 = 0.75 * 2^1 has binary exponent 0 and is still not 1.
    obs = _cycle_obstruction(od.HeisenbergGroup(), (0, 0, 0), od.ConstantWeight(1.5), [(0, 0, 0)])
    assert obs.bound == math.log2(1.5)
    # The step weight on a cyclic group: 2 at 0, 1/2 at 1, 2, 3.
    obs = _cycle_obstruction(od.CyclicGroup(4), 1, od.TwoSidedStepWeight(2.0, 0.5), [0])
    assert (obs.order, obs.bound) == (4, -2.0)


def test_power_of_two_cycle_products_of_1_are_witnesses():
    group = od.CyclicGroup(6)
    table = od.TableWeight(((0, 2.0), (2, 0.25), (4, 2.0), (1, 0.25)), default=2.0)
    sys = od.WeightedSystem(group=group, a=2, weight=table, young=P2)
    verdict = od.run_check(_req(sys, od.CompactSet.of([0, 3, 5]), "recurrent"))
    assert verdict.outcome is od.Outcome.WITNESS_FOUND and {w.n for w in verdict.witness} == {3}
    step = od.WeightedSystem(group=od.CyclicGroup(3), a=1, weight=od.TwoSidedStepWeight(0.25, 2.0), young=P2)
    assert od.run_check(_req(step, od.CompactSet.of([1]), "recurrent")).outcome is od.Outcome.WITNESS_FOUND
    z = od.WeightedSystem(group=od.IntegerGroup(), a=0, weight=od.TwoSidedStepWeight(1.0, 0.5), young=P2)
    assert od.run_check(_req(z, od.CompactSet.of([-3, 0]), "recurrent")).witness[0].n == 1


def test_cycle_products_are_found_in_closed_form():
    # Cycles of 5 * 10^11 points, with no step along them.
    group = od.CyclicGroup(10**12)
    for entries, outcome in [
        (((0, 2.0), (2, 0.5), (1, 4.0)), od.Outcome.WITNESS_FOUND),
        (((0, 2.0), (4, 2.0)), od.Outcome.OBSTRUCTION_FOUND),
    ]:
        sys = od.WeightedSystem(group=group, a=2, weight=od.TableWeight(entries, default=1.0), young=P2)
        t0 = time.perf_counter()
        verdict = od.run_check(_req(sys, od.CompactSet.of([0, 2, 6]), "recurrent"))
        assert time.perf_counter() - t0 < 1.0
        assert verdict.outcome is outcome
    assert verdict.obstruction.order == 5 * 10**11 and verdict.obstruction.bound == 2.0


def test_obstruction_contraction_and_expansion(zgroup):
    half = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(0.5), young=P2)
    obs = od.check_obstructions(_req(half, od.CompactSet.of([0]), od.Property.TRANSITIVE))
    assert obs is not None and obs.kind == "contraction" and obs.bound == 0.5
    double = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(2.0), young=P2)
    obs = od.check_obstructions(_req(double, od.CompactSet.of([0]), od.Property.TRANSITIVE))
    assert obs is not None and obs.kind == "expansion" and obs.bound == 2.0


def test_no_obstruction_for_mixed_and_boundary_weights(step_system, zgroup):
    assert od.check_obstructions(_req(step_system, od.CompactSet.of([0]), od.Property.TRANSITIVE)) is None
    # unit weight sits exactly on the boundary: not claimed, search decides
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    assert od.check_obstructions(_req(unit, od.CompactSet.of([0]), od.Property.TRANSITIVE)) is None


def test_obstruction_soundness_on_diagnostic_series(zgroup):
    half = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(0.5), young=P2)
    v = od.run_check(_req(half, od.CompactSet.of([0]), od.Property.TRANSITIVE))
    assert v.outcome is od.Outcome.OBSTRUCTION_FOUND
    assert all(p.sup_phi_tilde >= 1.0 for p in v.series)
    assert [p.sup_phi_tilde for p in v.series[:8]] == [2.0**n for n in range(1, 9)]
    double = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(2.0), young=P2)
    v2 = od.run_check(_req(double, od.CompactSet.of([0]), od.Property.TRANSITIVE))
    assert all(p.sup_phi >= 1.0 for p in v2.series)
    assert [p.sup_phi for p in v2.series[:8]] == [2.0**n for n in range(1, 9)]


# ------------------------------------------------------- multiple recurrence


def test_multiply_recurrent_witness_on_step_weight(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    req = _req(step_system, K, od.Property.MULTIPLY_RECURRENT, L=3, epsilons=(1e-3,))
    v = od.run_check(req)
    assert v.outcome is od.Outcome.WITNESS_FOUND
    assert v.start_n == 5  # separation constant of K is 4
    entry = v.witness[0]
    assert entry.n == 14
    assert entry.sup_by_l[0] == 2.0 ** (4 - 14)
    # the depth maximum is attained at l = 1
    assert entry.sup_by_l[0] == max(entry.sup_by_l)

    # independent oracle: direct product enumeration over the raw operators
    def sup_at(n):
        return max(
            max(orbit_product(step_system, x, l * n), orbit_product(step_system, x, l * n, backward=True))
            for l in (1, 2, 3)
            for x in K
        )

    assert min(n for n in range(1, 65) if sup_at(n) < 1e-3) == 14


def test_multiply_recurrent_witness_on_heisenberg(heisenberg_system, heisenberg):
    K = od.box(heisenberg, [[-1, 1], [-1, 1], [0, 0]])
    req = _req(heisenberg_system, K, od.Property.MULTIPLY_RECURRENT, L=2, epsilons=(1e-2,))
    v = od.run_check(req)
    assert v.outcome is od.Outcome.WITNESS_FOUND
    entry = v.witness[0]

    def sup_at(n):
        return max(
            max(
                orbit_product(heisenberg_system, x, l * n),
                orbit_product(heisenberg_system, x, l * n, backward=True),
            )
            for l in (1, 2)
            for x in K
        )

    oracle_n = min(n for n in range(1, 65) if sup_at(n) < 1e-2)
    assert oracle_n == 8  # sup is 2^{1-n}; 2^{-7} < 1e-2 already
    assert entry.n == oracle_n
    assert entry.sup_by_l[0] == 2.0 ** (1 - 8)


def test_unit_weight_is_inconclusive(zgroup):
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    v = od.run_check(_req(unit, od.CompactSet.of([0]), od.Property.MULTIPLY_RECURRENT, L=2))
    assert v.outcome is od.Outcome.INCONCLUSIVE
    assert v.witness == ()
    assert all(p.sup_phi == 1.0 and p.sup_phi_tilde == 1.0 for p in v.series)


def test_depth_monotonicity(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    verdicts = {
        L: od.run_check(_req(step_system, K, od.Property.MULTIPLY_RECURRENT, L=L))
        for L in (1, 2, 3, 4)
    }
    assert all(v.outcome is od.Outcome.WITNESS_FOUND for v in verdicts.values())
    for L in (2, 3, 4):
        for deep, shallow in zip(verdicts[L].witness, verdicts[L - 1].witness):
            assert deep.epsilon == shallow.epsilon
            assert len(deep.sup_by_l) == L
            # deeper checks succeed no earlier, and at the deep witness the
            # shallower predicate holds with a sup that is no larger
            assert deep.n >= shallow.n
            assert max(deep.sup_by_l[: L - 1]) <= max(deep.sup_by_l)
            assert max(shallow.sup_by_l) < shallow.epsilon


def test_term_domination(step_system):
    rng = np.random.default_rng(71)
    for _ in range(50):
        x = int(rng.integers(-5, 6))
        n = int(rng.integers(1, 12))
        total = sum(orbit_product(step_system, x, l * n) for l in range(1, 9))
        for l in range(1, 9):
            assert orbit_product(step_system, x, l * n) <= total


# ------------------------------------------- recurrent / transitive equality


def test_recurrent_equals_transitive_everywhere(step_system, block_system, zgroup):
    systems = [
        step_system,
        block_system,
        od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2),
        od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(0.5), young=P2),
        od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(2.0), young=P2),
    ]
    for sys in systems:
        for K in (od.CompactSet.of([0]), od.box(zgroup, [[-2, 2]])):
            r = od.run_check(_req(sys, K, od.Property.RECURRENT))
            t = od.run_check(_req(sys, K, od.Property.TRANSITIVE))
            assert dataclasses.replace(r, request=t.request) == t


def test_verdict_determinism(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    req = _req(step_system, K, od.Property.MULTIPLY_RECURRENT, L=3)
    assert od.run_check(req) == od.run_check(req)
    creq = _req(step_system, K, od.Property.CHAOTIC, L=3)
    assert od.run_check(creq) == od.run_check(creq)


# ----------------------------------------------------------------- mixing


def test_mixing_on_step_weight(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    v = od.run_check(_req(step_system, K, od.Property.MIXING))
    assert v.outcome is od.Outcome.WITNESS_FOUND
    # the combined sup series 2^{4-n} is monotone beyond the start
    sups = [max(p.sup_phi, p.sup_phi_tilde) for p in v.series]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    for entry in v.witness:
        assert entry.sup_by_l[0] < entry.epsilon


def test_block_weight_separates_transitive_from_mixing(block_system):
    K = od.CompactSet.of([0])
    t = od.run_check(_req(block_system, K, od.Property.TRANSITIVE, N_max=150))
    m = od.run_check(_req(block_system, K, od.Property.MIXING, N_max=150))
    assert t.outcome is od.Outcome.WITNESS_FOUND
    assert m.outcome is od.Outcome.INCONCLUSIVE
    # witnesses land on the square block midpoints: first dip below 2^-k is
    # at n = (k+1)^2
    for k, entry in enumerate(t.witness, start=1):
        assert entry.epsilon == 0.5**k
        assert entry.n == (k + 1) ** 2

    # oracle: direct enumeration of the product series from 0
    sups = [
        max(orbit_product(block_system, 0, n), orbit_product(block_system, 0, n, backward=True))
        for n in range(1, 151)
    ]
    assert min(n for n, s in zip(range(1, 151), sups) if s < 0.5) == 4
    # products return to 1 at every block end (n = m(m+1)), so dips never
    # persist; the budget's last point still violates the finest epsilon
    assert sups[11 * 12 - 1] == 1.0
    assert sups[-1] >= min(od.DEFAULT_EPSILONS)


def test_mixing_unit_weight_inconclusive(zgroup):
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    v = od.run_check(_req(unit, od.CompactSet.of([0]), od.Property.MIXING))
    assert v.outcome is od.Outcome.INCONCLUSIVE


# ----------------------------------------------------------------- chaotic


def test_chaotic_heisenberg_matches_closed_form(heisenberg_system, heisenberg):
    K = od.box(heisenberg, [[-1, 1], [-1, 1], [0, 0]])
    req = _req(heisenberg_system, K, od.Property.CHAOTIC, L=2, N_max=20, L_max=64)
    v = od.run_check(req)
    assert v.outcome is od.Outcome.WITNESS_FOUND
    assert v.tail_bounded is True
    # summed products with tail bound reproduce 3 / (2^n - 1)
    for p in v.series:
        assert p.chaos_sum == pytest.approx(3.0 / (2.0**p.n - 1.0), rel=1e-9)
    for entry in v.witness:
        assert entry.sup_by_l[0] < entry.epsilon


def test_chaotic_step_weight_single_point(step_system):
    K = od.CompactSet.of([0])
    v = od.run_check(_req(step_system, K, od.Property.CHAOTIC, N_max=20, L_max=64))
    assert v.outcome is od.Outcome.WITNESS_FOUND
    for p in v.series:
        assert p.chaos_sum == pytest.approx(2.0 / (2.0**p.n - 1.0), rel=1e-9)


def test_chaotic_unit_weight_tail_unbounded(zgroup):
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    v = od.run_check(_req(unit, od.CompactSet.of([0]), od.Property.CHAOTIC))
    assert v.outcome is od.Outcome.INCONCLUSIVE
    assert v.tail_bounded is False


def test_chaotic_block_weight_not_witness(block_system):
    v = od.run_check(
        _req(block_system, od.CompactSet.of([0]), od.Property.CHAOTIC, N_max=100, L_max=8)
    )
    assert v.outcome is od.Outcome.INCONCLUSIVE


def test_chaos_witness_validates_recurrence_predicate(step_system, zgroup):
    # single product terms are dominated by the summed series, so every
    # chaos witness step satisfies the depth predicate at the same epsilon
    K = od.box(zgroup, [[-2, 2]])
    v = od.run_check(_req(step_system, K, od.Property.CHAOTIC, L=3))
    assert v.outcome is od.Outcome.WITNESS_FOUND
    for entry in v.witness:
        for l in (1, 2, 3):
            for x in K:
                assert orbit_product(step_system, x, l * entry.n) < entry.epsilon
                assert orbit_product(step_system, x, l * entry.n, backward=True) < entry.epsilon


# ------------------------------------- known false witnesses (ROADMAP item 1)


def _dip_then_growth(zgroup, growth):
    """Weight 0.5 on [1, 20], growth on [21, 399], 2 on [-400, 0], 1 elsewhere.

    The forward products at 0 dip to 2^-20, then grow like growth^n up to
    n = 399 and stay there: for growth > 2 they never tend to 0, so the
    operator is neither mixing nor chaotic."""
    entries = {j: 0.5 for j in range(1, 21)}
    entries.update({j: growth for j in range(21, 400)})
    entries.update({j: 2.0 for j in range(-400, 1)})
    weight = od.TableWeight(entries=tuple(entries.items()), default=1.0)
    return od.WeightedSystem(group=zgroup, a=1, weight=weight, young=P2)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_chaos_scan_does_not_extrapolate_the_tail_ratio(zgroup):
    # The largest term ratio seen in L_max = 4 terms is below 1, but the
    # terms grow again from step 21 on.
    sys = _dip_then_growth(zgroup, 3.0)
    req = _req(sys, od.CompactSet.of([0]), od.Property.CHAOTIC, N_max=4, L_max=4, epsilons=(0.5, 0.25))
    assert od.run_check(req).outcome is not od.Outcome.WITNESS_FOUND


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_mixing_scan_does_not_stop_at_the_budget(zgroup):
    # Every step n <= 16 is in the dip; the products reach 1 at n = 30 and grow on.
    sys = _dip_then_growth(zgroup, 4.0)
    req = _req(sys, od.CompactSet.of([0]), od.Property.MIXING, N_max=16)
    assert od.run_check(req).outcome is not od.Outcome.WITNESS_FOUND


# ------------------------------------------------ series overflow (open)


@pytest.mark.xfail(strict=True, reason="the running cumprod passes the float range and stays inf")
def test_series_survive_overflow_along_the_orbit(step_system):
    # From x = -R the forward product doubles up to 2^R at n = R, then
    # halves: the exact sup over K = [-R, R] is 2^(2R - n) <= 1/2 for
    # n > 2R, a witness at n = 2R + 2.  With R = 1100 the running product
    # passes 2^1024 on the way (2^-1074 backward) and every series point
    # reads inf; with R = 1000 the witness is found.
    R = 1100
    K = od.box(od.IntegerGroup(), [(-R, R)])
    verdict = od.run_check(_req(step_system, K, od.Property.TRANSITIVE, epsilons=(0.5,), N_max=2 * R + 64))
    assert verdict.outcome is od.Outcome.WITNESS_FOUND and verdict.witness[0].n == 2 * R + 2
    assert verdict.series[-1].sup_phi == 2.0**-64


# ------------------------------------ rounding-certified witnesses (item 10)


def test_witness_needs_the_rounding_margin(zgroup):
    # c_pos^13 rounds to 0.014443788506004532, just below epsilon, but the
    # exact product of the float weights lies above it (as does every
    # c_pos^k, k <= 13): no step in the budget meets the predicate.
    sys = od.WeightedSystem(group=zgroup, a=1, weight=od.TwoSidedStepWeight(2.0, 0.7218334595390007), young=P2)
    eps = 0.014443788506004534
    req = _req(sys, od.CompactSet.of([0]), od.Property.RECURRENT, N_max=13, epsilons=(eps,))
    assert exact_term(req, 13) > Fraction(eps)
    assert od.run_check(req).outcome is od.Outcome.INCONCLUSIVE


def test_dyadic_weights_need_no_margin(step_system, zgroup):
    # Products of powers of two are exact: an epsilon one ulp above a term
    # is met at that term's step.
    req = _req(step_system, od.CompactSet.of([0]), od.Property.RECURRENT, N_max=13, epsilons=(0.5,))
    last = od.run_check(req).series[-1]
    term = max(last.sup_phi, last.sup_phi_tilde)
    tight = dataclasses.replace(req, epsilons=(math.nextafter(term, 1.0),))
    assert [w.n for w in od.run_check(tight).witness] == [13]


def _row_maxima(verdict: od.Verdict) -> list[float]:
    """Each candidate step's largest term, as the scan computed it, from
    the verdict's series."""
    rows = [max(p.sup_phi, p.sup_phi_tilde) for p in verdict.series]
    if verdict.request.property is od.Property.MIXING:
        rows = [max(rows[i:]) for i in range(len(rows))]
    return rows


_weights = st.one_of(
    st.builds(od.TwoSidedStepWeight, st.floats(1.0, 3.0), st.floats(0.3, 1.0)),
    st.builds(
        od.TableWeight,
        st.dictionaries(st.integers(-6, 6), st.floats(0.3, 3.0), max_size=6).map(lambda d: tuple(d.items())),
        st.floats(0.3, 3.0),
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    weight=_weights,
    a=st.sampled_from([1, -1, 2]),
    points=st.sets(st.integers(-4, 4), min_size=1, max_size=3),
    prop=st.sampled_from([od.Property.RECURRENT, od.Property.MULTIPLY_RECURRENT, od.Property.MIXING]),
    L=st.integers(1, 3),
    N_max=st.integers(4, 16),
    data=st.data(),
)
def test_every_witness_meets_the_exact_predicate(weight, a, points, prop, L, N_max, data):
    # Epsilons one ulp above a computed term sit where rounding decides the
    # comparison; each reported witness must hold for the exact products.
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=a, weight=weight, young=P2)
    req = _req(sys, od.CompactSet.of(points), prop, L=L, N_max=N_max)
    if od.check_obstructions(req) is not None:
        return
    # Only a record low is the first row below an epsilon one ulp above it.
    rows = _row_maxima(od.run_check(req))
    lows = [t for i, t in enumerate(rows) if t < min(rows[:i], default=math.inf)]
    tight = [math.nextafter(t, 1.0) for t in lows if 0.0 < t < 0.5]
    if not tight:
        return
    eps = data.draw(st.lists(st.sampled_from(tight), min_size=1, max_size=3, unique=True))
    verdict = od.run_check(dataclasses.replace(req, epsilons=tuple(eps)))
    for w in verdict.witness:
        assert exact_term(req, w.n) < Fraction(w.epsilon)


# ------------------------------------------------------------ request plumbing


def test_default_epsilon_schedule():
    assert od.DEFAULT_EPSILONS == tuple(0.5**k for k in range(1, 11))


def test_request_validation(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    with pytest.raises(ValueError):
        _req(step_system, K, od.Property.TRANSITIVE, L=0)
    with pytest.raises(ValueError):
        _req(step_system, K, od.Property.TRANSITIVE, N_max=0)
    with pytest.raises(ValueError):
        _req(step_system, K, od.Property.TRANSITIVE, epsilons=(1.5,))
    with pytest.raises(ValueError):
        _req(step_system, K, od.Property.TRANSITIVE, epsilons=())
    with pytest.raises(ConfigError) as exc:
        _req(step_system, K, od.Property.TRANSITIVE, epsilons=(0.5, 0.5))
    assert exc.value.field == "epsilons"
    with pytest.raises(ValueError):
        _req(step_system, od.CompactSet.of([]), od.Property.TRANSITIVE)


def test_criteria_on_lattice_group():
    # 2-D lattice with a diagonal step and a half-plane step weight: the
    # products along the diagonal behave like the integer case
    z2 = od.LatticeGroup(d=2)
    entries = tuple(((i, j), 0.5) for i in range(1, 13) for j in range(1, 13))
    weight = od.TableWeight(entries=entries, default=2.0)
    sys = od.WeightedSystem(group=z2, a=(1, 1), weight=weight, young=P2)
    K = od.CompactSet.of([(0, 0)])
    v = od.run_check(_req(sys, K, od.Property.RECURRENT, N_max=12, epsilons=(0.1,)))
    assert v.outcome is od.Outcome.WITNESS_FOUND
    entry = v.witness[0]
    # oracle: forward products halve along the diagonal, backward products
    # 1/2^n; sup is 2^-n, first below 0.1 at n = 4
    assert entry.n == 4
    assert orbit_product(sys, (0, 0), 4) == 2.0**-4
    assert orbit_product(sys, (0, 0), 4, backward=True) == 2.0**-4


def test_uncertified_separation_starts_search_at_one(step_system, zgroup):
    # budget too small to certify separation of a wide K: the search must
    # fall back to starting at n = 1 rather than fail
    K = od.box(zgroup, [[-5, 5]])
    assert od.separation_constant(zgroup, K, 1, 8) is None
    v = od.run_check(_req(step_system, K, od.Property.RECURRENT, N_max=8))
    assert v.start_n == 1
    assert v.budget == 8


def test_run_check_dispatch(step_system, zgroup):
    K = od.CompactSet.of([0])
    for prop in od.Property:
        v = od.run_check(_req(step_system, K, prop))
        assert v.request.property is prop
        assert v.to_json()["property"] == prop.value


def test_verdict_json_schema(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    v = od.run_check(_req(step_system, K, od.Property.CHAOTIC))
    blob = v.to_json()
    assert set(blob) == {
        "property", "outcome", "witness", "obstruction", "series",
        "budget", "start_n", "tail_bounded",
    }
    assert all(set(w) == {"epsilon", "n", "sup_by_l"} for w in blob["witness"])
    assert all(set(p) == {"n", "sup_phi", "sup_phi_tilde", "chaos_sum"} for p in blob["series"])
