from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest

import orlicz_dynamics as od
from orlicz_dynamics.errors import OrliczDynamicsError, OutOfRangeError
from orlicz_dynamics.numerics import golden_max


def test_evaluate_closed_forms():
    assert od.PowerYoung(2.0).evaluate(3.0) == 4.5
    assert od.AlphaLogYoung(2.0).evaluate(1.0) == 1.0
    assert od.PowerYoung(1.0).evaluate(-4.0) == 4.0
    assert od.PowerYoung(3.0).evaluate(0.0) == 0.0
    assert od.AlphaLogYoung(1.5).evaluate(0.0) == 0.0


def test_alphalog_evaluates_zero_by_its_formula():
    phi = od.AlphaLogYoung(1.5)
    ts = [0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 0.0]
    scalar = [phi.evaluate(t) for t in ts]
    assert scalar[0] == scalar[-1] == 0.0
    assert list(phi.evaluate_many(ts)) == scalar
    array = phi.evaluate_array(np.array(ts))
    assert array[0] == array[-1] == 0.0 and not np.isnan(array).any()
    assert np.allclose(array, scalar, rtol=1e-14, atol=0.0)


def test_alphalog_conjugate_table_batches_its_grid(monkeypatch):
    # The 128-row conjugate table of probe-young: each grid of the
    # conjugate's maximization starts at 0.0 and is one evaluate_many call.
    phi = od.AlphaLogYoung(1.5)
    calls = []
    evaluate = od.AlphaLogYoung.evaluate
    monkeypatch.setattr(od.AlphaLogYoung, "evaluate", lambda self, t: calls.append(t) or evaluate(self, t))
    for i in range(128):
        od.complementary(phi, 8.0 * i / 127.0)
    assert len(calls) <= 7000


@pytest.mark.parametrize(
    "phi",
    [od.PowerYoung(1.0), od.PowerYoung(2.0), od.PowerYoung(3.5), od.AlphaLogYoung(1.5)],
)
def test_evenness_and_monotonicity(phi):
    rng = np.random.default_rng(2)
    for _ in range(200):
        t = float(rng.uniform(0.0, 20.0))
        assert phi.evaluate(-t) == phi.evaluate(t)
        t1, t2 = sorted(rng.uniform(0.0, 20.0, size=2))
        assert phi.evaluate(float(t1)) <= phi.evaluate(float(t2))


def test_inverse_examples():
    assert abs(od.inverse(od.PowerYoung(2.0), 0.5) - 1.0) <= 1e-12
    assert od.inverse(od.PowerYoung(2.0), 0.0) == 0.0
    assert abs(od.inverse(od.PowerYoung(1.0), 7.0) - 7.0) <= 1e-11


def test_inverse_of_a_target_near_the_largest_float_is_finite():
    # The doubling passed DBL_MAX and the midpoint 0.5 (lo + hi)
    # overflowed: this returned inf.
    assert od.inverse(od.PowerYoung(1.0), 1e308) == pytest.approx(1e308, rel=1e-12)
    assert od.inverse(od.PowerYoung(1.0), math.inf) == math.inf
    with pytest.raises(ValueError, match=">= 0"):
        od.inverse(od.PowerYoung(1.0), math.nan)


def _reference_inverse(phi, s: float) -> mpmath.mpf:
    """Phi^{-1}(s) to 60 digits: closed for power; for alphalog, bisection
    on u = log t of alpha u + log(1 + |u|) = log s, increasing in u."""
    with mpmath.workdps(60):
        if isinstance(phi, od.PowerYoung):
            return (mpmath.mpf(phi.p) * s) ** (1 / mpmath.mpf(phi.p))
        alpha, target = mpmath.mpf(phi.alpha), mpmath.log(s)
        lo, hi = mpmath.mpf(-2000), mpmath.mpf(2000)
        for _ in range(220):
            u = (lo + hi) / 2
            lo, hi = (u, hi) if alpha * u + mpmath.log(1 + abs(u)) < target else (lo, u)
        return mpmath.exp((lo + hi) / 2)


def _assert_inverse_matches_reference(phi, s: float):
    reference = _reference_inverse(phi, s)
    assert abs(od.inverse(phi, s) - reference) <= 1e-12 * reference, (phi, s)


@pytest.mark.parametrize(
    "phi,s,expected",
    [
        (od.PowerYoung(1.0), 1e-100, 1e-100),
        (od.PowerYoung(2.0), 1e-300, math.sqrt(2.0) * 1e-150),
        (od.AlphaLogYoung(1.5), 1e-200, 1.0093592255e-135),
        (od.PowerYoung(2.0), 1e308, math.sqrt(2.0) * 1e154),
        (od.AlphaLogYoung(1.5), 1e308, 3.5655131437e203),
        (od.AlphaLogYoung(40.0), 1e308, 46583176.554),
    ],
    ids=["p1-tiny", "p2-tiny", "alphalog-tiny", "p2-huge", "alphalog-huge", "alphalog-overflows"],
)
def test_inverse_at_both_ends_of_the_float_range(phi, s, expected):
    # Answers below about 2^-256 came back as 4.318e-78 (a 256-step cap and
    # a 1e-300 absolute floor in the bisection), and p = 2 targets above
    # about DBL_MAX / 4 raised OverflowError from |t|^p, as did alphalog
    # where the doubling's |t|^alpha passed the largest float.
    assert od.inverse(phi, s) == pytest.approx(expected, rel=1e-10)
    _assert_inverse_matches_reference(phi, s)


@pytest.mark.parametrize(
    "phi",
    [
        od.PowerYoung(1.0),
        od.PowerYoung(1.5),
        od.PowerYoung(2.0),
        od.PowerYoung(7.5),
        od.AlphaLogYoung(1.1),
        od.AlphaLogYoung(1.5),
        od.AlphaLogYoung(40.0),
    ],
    ids=repr,
)
def test_inverse_matches_a_60_digit_reference_over_the_normal_range(phi):
    smallest, largest = sys.float_info.min, sys.float_info.max
    for s in [smallest, *np.geomspace(smallest, 1e308, 61).tolist()[1:], largest]:
        _assert_inverse_matches_reference(phi, s)


@pytest.mark.parametrize(
    "phi",
    [od.PowerYoung(1.0), od.PowerYoung(2.0), od.PowerYoung(3.0), od.AlphaLogYoung(1.5)],
)
def test_inverse_round_trip(phi):
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = float(rng.uniform(1e-3, 15.0))
        assert abs(od.inverse(phi, phi.evaluate(t)) - t) <= 1e-9 * (1.0 + t)


def test_inverse_against_power_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = float(rng.uniform(1.0, 4.0))
        s = float(rng.uniform(1e-4, 50.0))
        assert abs(od.inverse(od.PowerYoung(p), s) - (p * s) ** (1.0 / p)) <= 1e-10 * (
            1.0 + (p * s) ** (1.0 / p)
        )


def test_complementary_power_examples():
    assert abs(od.complementary(od.PowerYoung(2.0), 3.0) - 4.5) <= 1e-9
    assert od.complementary(od.PowerYoung(2.0), 0.0) == 0.0
    assert od.complementary(od.PowerYoung(1.0), 2.0) == math.inf
    assert od.complementary(od.PowerYoung(1.0), 1.0) == 0.0
    assert od.complementary(od.PowerYoung(1.0), 0.5) == 0.0


def test_complementary_against_dense_grid_oracle():
    phi = od.PowerYoung(2.0)
    for y in (0.5, 1.0, 3.0, 6.0):
        xs = np.linspace(0.0, 12.0, 240001)
        grid_max = float(np.max(xs * y - xs**2 / 2.0))
        assert abs(od.complementary(phi, y) - grid_max) <= 1e-8


def test_complementary_unbounded_by_monotone_growth():
    # objective x*(|y| - 1) for p = 1 grows along any expanding bracket
    phi = od.PowerYoung(1.0)
    y = 2.0
    values = [x * y - phi.evaluate(x) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert od.complementary(phi, y) == math.inf


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0])
def test_complementary_power_conjugate_closed_form(p):
    phi = od.PowerYoung(p)
    q = p / (p - 1.0)
    for y in (0.25, 0.7, 1.0, 2.0, 4.5):
        assert abs(od.complementary(phi, y) - y**q / q) <= 1e-8


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_biconjugation_recovers_power_family(p):
    phi = od.PowerYoung(p)

    def psi(x):
        return od.complementary(phi, x)

    for t in (0.5, 1.0, 2.0):
        biconj = golden_max(lambda x: x * t - psi(x), 0.0, 50.0)[1]
        assert abs(biconj - phi.evaluate(t)) <= 1e-6


def test_complementary_handles_bimodal_objective():
    # the alphalog conjugate objective has two local maxima for small
    # alpha; the grid-plus-golden search must find the global one
    phi = od.AlphaLogYoung(1.5)
    for y in (0.5, 1.0, 1.8, 3.0, 6.0):
        best = 0.0
        for x in np.linspace(0.0, 30.0, 120001):
            best = max(best, float(x) * y - phi.evaluate(float(x)))
        assert od.complementary(phi, y) >= best - 1e-6


def test_young_inequality_check():
    assert od.young_inequality_check(od.PowerYoung(2.0), 2000, seed=1) <= 1e-8
    assert od.young_inequality_check(od.PowerYoung(1.0), 500, seed=2) <= 1e-8
    assert od.young_inequality_check(od.PowerYoung(3.0), 10_000, seed=3) <= 1e-8


def test_young_inequality_closed_form_oracle():
    # same inequality against the exact conjugate of the p = 3 family
    rng = np.random.default_rng(9)
    p, q = 3.0, 1.5
    xs = rng.uniform(0.0, 8.0, size=10_000)
    ys = rng.uniform(0.0, 8.0, size=10_000)
    worst = float(np.max(xs * ys - xs**p / p - ys**q / q))
    assert worst <= 1e-8


def test_delta2_probe():
    r2 = od.delta2_probe(od.PowerYoung(2.0), 1e-3, 1e3, 200)
    assert abs(r2.ratio_sup - 4.0) <= 1e-12
    assert r2.evidence_only is True
    r1 = od.delta2_probe(od.PowerYoung(1.0), 1e-3, 1e3, 200)
    assert abs(r1.ratio_sup - 2.0) <= 1e-12
    ra = od.delta2_probe(od.AlphaLogYoung(2.0), 1e-3, 1e3, 400)
    assert math.isfinite(ra.ratio_sup)
    # direct grid oracle for the alphalog ratio
    grid = np.geomspace(1e-3, 1e3, 400)
    phi = od.AlphaLogYoung(2.0)
    oracle = max(phi.evaluate(2.0 * float(t)) / phi.evaluate(float(t)) for t in grid)
    assert abs(ra.ratio_sup - oracle) <= 1e-12


def test_delta2_probe_skips_underflow_and_overflow():
    # p = 200: Phi(t) is subnormal or 0 below t ~ 0.03 and Phi(2t)
    # overflows above t ~ 17; the ratio comes from the points between.
    report = od.delta2_probe(od.PowerYoung(200.0), 1e-3, 1e3, 200)
    assert report.ratio_sup == pytest.approx(2.0**200, rel=1e-12)
    # p = 10^4: no grid point has a normal Phi(t) and a finite Phi(2t).
    with pytest.raises(OrliczDynamicsError, match="each grid point"):
        od.delta2_probe(od.PowerYoung(1e4), 1e-3, 1e3, 200)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_delta2_lower_bound_for_convex_families(p):
    # convexity with Phi(0) = 0 forces Phi(2t) >= 2 Phi(t)
    report = od.delta2_probe(od.PowerYoung(p), 1e-2, 1e2, 100)
    assert report.ratio_sup >= 2.0 - 1e-12


@pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 4.0])
def test_midpoint_convexity_power(p):
    phi = od.PowerYoung(p)
    rng = np.random.default_rng(12)
    for _ in range(300):
        s, t = (float(v) for v in rng.uniform(0.0, 10.0, size=2))
        assert phi.evaluate((s + t) / 2.0) <= (phi.evaluate(s) + phi.evaluate(t)) / 2.0 + 1e-12


def test_alphalog_midpoint_dip_near_one_is_real():
    # the raw alphalog formula is not midpoint-convex just left of t = 1;
    # this pins the known dip so the convexity suite stays scoped to the
    # families where it genuinely holds
    phi = od.AlphaLogYoung(1.5)
    s, t = 0.7, 0.9
    gap = (phi.evaluate(s) + phi.evaluate(t)) / 2.0 - phi.evaluate((s + t) / 2.0)
    assert gap < -1e-6


def test_table_young_matches_generator_and_validates():
    gen = od.PowerYoung(2.0)
    knots = tuple((0.1 * i, gen.evaluate(0.1 * i)) for i in range(51))
    table = od.TableYoung(knots)
    assert table.evaluate(1.0) == gen.evaluate(1.0)
    assert abs(table.evaluate(1.23) - gen.evaluate(1.23)) <= 2e-3
    assert table.evaluate(-2.0) == table.evaluate(2.0)
    with pytest.raises(OutOfRangeError):
        table.evaluate(5.0 + 1e-9)
    # generalized inverse stays within the table
    assert abs(od.inverse(table, table.evaluate(2.0)) - 2.0) <= 1e-9
    # finite-difference convexity on the sampled grid
    ts = [k[0] for k in table.knots]
    vs = [k[1] for k in table.knots]
    for i in range(1, len(ts) - 1):
        second = vs[i + 1] - 2.0 * vs[i] + vs[i - 1]
        assert second >= -1e-12


@pytest.mark.parametrize("ts", [[math.nan], [0.0, math.nan, 0.1, 20.0, 40.0, -math.nan, 40.0]])
def test_table_gives_nan_for_nan_on_every_path(ts):
    # bisect_right puts NaN after every knot, where evaluate's last-knot
    # case must not take it; 40.0 is the last knot itself.
    table = od.TableYoung(tuple((0.1 * i, 0.1 * i * 0.1 * i / 2.0) for i in range(401)))
    scalar = [table.evaluate(t) for t in ts]
    many = list(table.evaluate_many(ts))
    array = table.evaluate_array(np.array(ts)).tolist()
    nan = [math.isnan(t) for t in ts]
    for path in (scalar, many, array):
        assert [math.isnan(v) for v in path] == nan
    assert [v for v, miss in zip(many, nan) if not miss] == [v for v, miss in zip(scalar, nan) if not miss]


@pytest.mark.parametrize(
    "family,value", [(od.PowerYoung, math.inf), (od.PowerYoung, math.nan), (od.AlphaLogYoung, math.inf)]
)
def test_young_exponents_must_be_finite(family, value):
    # PowerYoung(inf) used to be accepted, and its norm bracket then failed.
    with pytest.raises(ValueError, match="inf"):
        family(value)


def test_table_young_rejects_bad_tables():
    with pytest.raises(ValueError):
        od.TableYoung(((0.0, 0.0), (1.0, 1.0), (2.0, 1.5)))  # slopes decrease
    with pytest.raises(ValueError):
        od.TableYoung(((0.0, 0.1), (1.0, 1.0)))  # nonzero at origin
    with pytest.raises(ValueError):
        od.TableYoung(((0.0, 0.0), (1.0, -1.0)))  # negative value
    with pytest.raises(ValueError):
        od.TableYoung(((0.0, 0.0),))  # too short
    # Non-finite knots passed every other check and broke the norm later.
    with pytest.raises(ValueError, match="finite"):
        od.TableYoung(((0.0, 0.0), (1.0, math.inf)))
    with pytest.raises(ValueError, match="finite"):
        od.TableYoung(((0.0, 0.0), (math.nan, 1.0), (2.0, 3.0)))
    # A decrease within the convexity slack is still a decrease: np.interp
    # would then lose the relative accuracy the norm screen relies on.
    with pytest.raises(ValueError, match="nondecreasing"):
        od.TableYoung(((0.0, 0.0), (1.0, 1e-20), (2.0, 1e-21)))


def test_table_conjugate_is_domain_restricted():
    gen = od.PowerYoung(2.0)
    knots = tuple((0.05 * i, gen.evaluate(0.05 * i)) for i in range(201))  # [0, 10]
    table = od.TableYoung(knots)
    # interior maximum matches the smooth family
    assert abs(od.complementary(table, 3.0) - 4.5) <= 1e-3
    # beyond the domain the sup saturates at the boundary, stays finite
    val = od.complementary(table, 50.0)
    assert math.isfinite(val)
    assert abs(val - (10.0 * 50.0 - gen.evaluate(10.0))) <= 1e-6


def test_growth_to_infinity():
    for phi in (od.PowerYoung(1.0), od.PowerYoung(2.5), od.AlphaLogYoung(1.5)):
        assert phi.evaluate(1e6) > 1e5
