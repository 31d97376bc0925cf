from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics.errors import SeparationViolatedError, TailUnboundedError
from orlicz_dynamics.orlicz import vector_sum


def test_witness_vector_trivial_depth(step_system):
    f = od.OrliczVector({0: 1.0, 1: -2.0})
    assert od.recurrence_witness_vector(od.SeedOrbit(step_system, f), 5, 0) == f


def test_witness_vector_unrolled_values(step_system):
    # oracle: unroll apply_S by hand; starting from delta_0 each S step
    # shifts left and divides by the weight at the pre-shift point
    f = od.OrliczVector.delta(0)
    oracle = f
    pieces = {0: 1.0}
    cur = f
    for l in (1, 2):
        for _ in range(5):
            cur = od.apply_S(step_system, cur)
        ((x, v),) = cur.items()
        pieces[x] = v
    v = od.recurrence_witness_vector(od.SeedOrbit(step_system, f), 5, 2)
    assert v.as_dict() == pieces
    assert v.support() == {0, -5, -10}
    assert v[-5] == 2.0**-5  # 1 / (w(0) w(-1) w(-2) w(-3) w(-4))
    assert v[-10] == 2.0**-10


def test_witness_vector_separation_guard(step_system, zgroup):
    f = od.OrliczVector.indicator(od.box(zgroup, [[-2, 2]]))
    # separation constant of {-2..2} is 4: n = 4 overlaps, n = 5 clears it
    with pytest.raises(SeparationViolatedError):
        od.recurrence_witness_vector(od.SeedOrbit(step_system, f), 4, 1)
    v = od.recurrence_witness_vector(od.SeedOrbit(step_system, f), 5, 2)
    assert len(v) == 15


class _Pieces:
    """A stand-in for a SeedOrbit whose piece at -l*n is pieces[l]."""

    def __init__(self, pieces, n):
        self.pieces, self.n = pieces, n

    def piece(self, m):
        return self.pieces[-m // self.n]


# Pieces on a few points, so that supports often meet, with values that
# cancel to 0.0 where they do (1 - 1, 0.5 - 0.5) and values that do not.
_PIECES = st.lists(
    st.dictionaries(st.integers(0, 7), st.sampled_from([1.0, -1.0, 0.5, -0.5, 3.0]), max_size=4).map(od.OrliczVector),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_PIECES, st.integers(1, 3))
def test_witness_overlap_is_read_off_the_sum(pieces, n):
    # The rule the guard replaced: the union of the supports is smaller
    # than the pieces.
    overlap = len(frozenset().union(*(p.support() for p in pieces))) < sum(map(len, pieces))
    orbit = _Pieces(pieces, n)
    if overlap:
        with pytest.raises(SeparationViolatedError):
            od.recurrence_witness_vector(orbit, n, len(pieces) - 1)
    else:
        assert od.recurrence_witness_vector(orbit, n, len(pieces) - 1) == vector_sum(pieces)


def test_empirical_return_step_weight(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    f = od.OrliczVector.indicator(K)
    report = od.empirical_return(od.SeedOrbit(step_system, f), 14, 3, epsilon=1e-2)
    assert report.success
    assert report.residual_to_f < 1e-2
    assert all(r < 1e-2 for r in report.return_residuals)
    assert len(report.return_residuals) == 3


def test_empirical_return_trivial_depth(step_system):
    f = od.OrliczVector.delta(0)
    report = od.empirical_return(od.SeedOrbit(step_system, f), 5, 0, epsilon=0.5)
    assert report.residual_to_f == 0.0
    assert report.return_residuals == ()
    assert report.success


def test_empirical_return_unit_weight_never_decays(zgroup):
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    f = od.OrliczVector.indicator(od.box(zgroup, [[-1, 1]]))
    base = od.luxemburg_norm(f, P2)
    report = od.empirical_return(od.SeedOrbit(unit, f), 10, 2, epsilon=0.5)
    assert not report.success
    # pure translation: the shifted copy of f never leaves the residual
    for r in report.return_residuals:
        assert r >= base * (1.0 - 1e-9)


def test_residual_bound_chain(step_system, zgroup):
    # N(v - f) <= sum_l N(S^{ln} f) and each term <= sup phi~_{ln} * N(f),
    # mirroring the triangle-inequality estimate behind the construction
    K = od.box(zgroup, [[-2, 2]])
    f = od.OrliczVector.indicator(K)
    n, L = 9, 3
    v = od.recurrence_witness_vector(od.SeedOrbit(step_system, f), n, L)
    norm_f = od.luxemburg_norm(f, P2)
    lhs = od.luxemburg_norm(v - f, P2)
    terms = []
    cur = f
    for _ in range(L):
        for _ in range(n):
            cur = od.apply_S(step_system, cur)
        terms.append(od.luxemburg_norm(cur, P2))
    assert lhs <= sum(terms) + 1e-12
    for l, term in enumerate(terms, start=1):
        sup_tilde = max(od.phi_tilde_product(step_system, x, l * n) for x in K)
        assert term <= sup_tilde * norm_f + 1e-12


def test_disjoint_sum_norm_exactness(step_system, zgroup):
    # with disjoint supports the norm of the sum is computed from the
    # merged support: the modular splits additively at every scale
    K = od.box(zgroup, [[-2, 2]])
    f = od.OrliczVector.indicator(K)
    n, L = 7, 2
    v = od.recurrence_witness_vector(od.SeedOrbit(step_system, f), n, L)
    pieces = [f]
    cur = f
    for _ in range(L):
        for _ in range(n):
            cur = od.apply_S(step_system, cur)
        pieces.append(cur)
    for k in (0.25, 1.0, 3.0):
        merged = od.modular(v, P2, k)
        split = sum(od.modular(piece, P2, k) for piece in pieces)
        assert merged == pytest.approx(split, rel=1e-14)


def test_chaos_periodic_vector_step_weight(step_system, zgroup):
    K = od.box(zgroup, [[-2, 2]])
    f = od.OrliczVector.indicator(K)
    v, report = od.chaos_periodic_vector(od.SeedOrbit(step_system, f), 10, 8)
    assert report.within_bound
    assert report.defect <= report.predicted_bound * (1.0 + 1e-9)
    assert report.defect < 1e-12
    assert len(v) == 5 * (2 * 8 + 1)


def test_chaos_periodic_vector_trivial_truncation(step_system, zgroup):
    f = od.OrliczVector.indicator(od.box(zgroup, [[-2, 2]]))
    v, report = od.chaos_periodic_vector(od.SeedOrbit(step_system, f), 6, 0)
    assert v == f
    direct = od.luxemburg_norm(od.apply_T_n(step_system, f, 6) - f, P2)
    assert report.defect == pytest.approx(direct, rel=1e-12)
    assert report.within_bound


def test_lab_constructions_call_no_scalar_weight(step_system, zgroup):
    # The stacks take their weights from the closed-form orbit block, never
    # one scalar weight call per point and step.
    f = od.OrliczVector.indicator(od.box(zgroup, [[-2, 2]]))
    with mock.patch.object(
        od.TwoSidedStepWeight, "__call__", side_effect=AssertionError("scalar weight call")
    ):
        assert len(od.recurrence_witness_vector(od.SeedOrbit(step_system, f), 9, 3)) == 20
        v, report = od.chaos_periodic_vector(od.SeedOrbit(step_system, f), 10, 4)
    assert len(v) == 5 * (2 * 4 + 1)
    assert report.within_bound


def test_chaos_periodic_defect_shrinks_with_truncation(heisenberg_system, heisenberg):
    K = od.box(heisenberg, [[-1, 1], [-1, 1], [0, 0]])
    f = od.OrliczVector.indicator(K)
    defects = []
    for L in (1, 2, 4, 6):
        _, report = od.chaos_periodic_vector(od.SeedOrbit(heisenberg_system, f), 5, L)
        assert report.within_bound
        defects.append(report.defect)
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_chaos_periodic_vector_rejects_flat_tail(zgroup):
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    f = od.OrliczVector.delta(0)
    with pytest.raises(TailUnboundedError):
        od.chaos_periodic_vector(od.SeedOrbit(unit, f), 3, 4)


def test_chaos_periodic_vector_magnitude_cap(zgroup):
    growing = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(10.0), young=P2)
    f = od.OrliczVector.delta(0)
    with pytest.raises(TailUnboundedError):
        od.chaos_periodic_vector(od.SeedOrbit(growing, f), 5, 3)  # T-side reaches 10^15


def test_choose_truncation(step_system, zgroup):
    f = od.OrliczVector.indicator(od.box(zgroup, [[-2, 2]]))
    L = od.choose_truncation(od.SeedOrbit(step_system, f), 10, cap=32)
    assert 1 <= L <= 32
    t_bound = od.luxemburg_norm(
        f.mul_pointwise(lambda x: od.phi_product(step_system, x, (L + 1) * 10)), P2
    )
    s_bound = od.luxemburg_norm(
        f.mul_pointwise(lambda x: od.phi_tilde_product(step_system, x, L * 10)), P2
    )
    assert t_bound + s_bound < 1e-15


def _odd_table_system(zgroup):
    """Weights that are not powers of two, so the order of the multiplies
    shows in the last bits: contracting on the right, expanding on the left."""
    entries = tuple(
        (x, 0.37 + 0.01 * (x % 7) if x >= 1 else 2.9 - 0.03 * (x % 5)) for x in range(-300, 301)
    )
    weight = od.TableWeight(entries=entries, default=1.0)
    return od.WeightedSystem(group=zgroup, a=1, weight=weight, young=P2)


def test_boundary_terms_equal_the_rebuilt_iterates_bit_for_bit(zgroup):
    sys = _odd_table_system(zgroup)
    f = od.OrliczVector({-2: 1.0, 0: -0.7, 1: 1.3, 3: 0.1})
    for n, L_trunc in ((3, 0), (3, 1), (4, 3), (5, 6)):
        _, report = od.chaos_periodic_vector(od.SeedOrbit(sys, f), n, L_trunc)
        t_edge = od.apply_T_n(sys, f, (L_trunc + 1) * n)
        s_edge = od.apply_S_n(sys, f, L_trunc * n)
        assert report.predicted_bound == od.luxemburg_norm(t_edge, P2) + od.luxemburg_norm(s_edge, P2)


def test_choose_truncation_matches_the_per_level_rebuild(zgroup):
    sys = _odd_table_system(zgroup)
    f = od.OrliczVector({-2: 1.0, 0: -0.7, 1: 1.3, 3: 0.1})

    def rebuilt(n, cap):
        for L in range(1, cap + 1):
            t_edge = od.apply_T_n(sys, f, (L + 1) * n)
            s_edge = od.apply_S_n(sys, f, L * n)
            if od.luxemburg_norm(t_edge, P2) + od.luxemburg_norm(s_edge, P2) < 1e-15:
                return L
        return cap

    for n in (2, 3, 5, 7):
        for cap in (3, 32):
            assert od.choose_truncation(od.SeedOrbit(sys, f), n, cap=cap) == rebuilt(n, cap)
    assert 3 < od.choose_truncation(od.SeedOrbit(sys, f), 3, cap=32) < 32


def test_criterion_dynamics_agreement(step_system, zgroup):
    # whenever the checker reports a witness, the construction meets its
    # epsilon targets (scaled by the proven residual bound) at the same n
    K = od.box(zgroup, [[-2, 2]])
    f = od.OrliczVector.indicator(K)
    norm_f = od.luxemburg_norm(f, P2)
    L = 3
    req = od.CriterionRequest(system=step_system, K=K, property=od.Property.MULTIPLY_RECURRENT, L=L)
    verdict = od.run_check(req)
    assert verdict.outcome is od.Outcome.WITNESS_FOUND
    for entry in verdict.witness:
        target = entry.epsilon * L * norm_f * (1.0 + 1e-9)
        report = od.empirical_return(od.SeedOrbit(step_system, f), entry.n, L, epsilon=target)
        assert report.success


def test_orbit_norm_series_closed_forms(step_system, zgroup):
    f = od.OrliczVector.delta(0)
    base = od.luxemburg_norm(f, P2)
    unit = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2)
    series = od.orbit_norm_series(od.SeedOrbit(unit, f), 6)
    assert all(v == pytest.approx(base, rel=1e-12) for v in series)
    doubling = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(2.0), young=P2)
    series = od.orbit_norm_series(od.SeedOrbit(doubling, f), 6)
    for n, v in enumerate(series):
        assert v == pytest.approx(2.0**n * base, rel=1e-10)
    series = od.orbit_norm_series(od.SeedOrbit(step_system, f), 6)
    for n, v in enumerate(series):
        assert v == pytest.approx(2.0**-n * base, rel=1e-10)
