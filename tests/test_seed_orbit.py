"""``lab.SeedOrbit`` against the per-call constructions it replaced: every
piece, norm and report bit for bit, each norm taken once, each stack
grown by doubling, and the stacks held to the memory cap."""

from __future__ import annotations

import math
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics import cli, lab, translations
from orlicz_dynamics.config import load_config
from orlicz_dynamics.errors import (
    ConfigError,
    NonFiniteVectorError,
    OrliczDynamicsError,
    SeparationViolatedError,
    TailUnboundedError,
)
from orlicz_dynamics.orlicz import vector_sum
from orlicz_dynamics.translations import iterates, iterates_bytes

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Products that round, products that are exact, and the weight 1.
VALUES = st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 0.7218334595390007])

# Subnormal seed values: a weight of 1/2 (T) or 2 (S) sends 5e-324 to 0.0
# in one step, and the piece drops that point.
SEED_VALUES = st.sampled_from([1.0, -0.7, 2.5, 0.3, 5e-324, -1e-323, 2.0**-1070])

# Every group a family reads; a cyclic group gives an a of finite order,
# and so does the identity, which the draw of a may give anywhere.
GROUPS = st.one_of(
    st.sampled_from([od.IntegerGroup(), od.LatticeGroup(d=2), od.LatticeGroup(d=3), od.HeisenbergGroup()]),
    st.integers(1, 12).map(lambda m: od.CyclicGroup(m=m)),
)


@st.composite
def seeded_systems(draw):
    """A system of any weight family on a group it reads, and a seed of 1
    to 6 points near the origin; table keys lie in the same window."""
    group = draw(GROUPS)
    rank = len(group.coords(group.identity()))
    element = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(group.element)
    families = [
        st.builds(od.ConstantWeight, VALUES),
        st.builds(od.TableWeight, st.lists(st.tuples(element, VALUES), max_size=8).map(tuple), VALUES),
    ]
    if group.kind in ("Z", "cyclic"):
        families.append(st.builds(od.TwoSidedStepWeight, VALUES, VALUES))
    if rank == 3:
        families.append(st.just(od.HeisenbergDyadicWeight()))
    system = od.WeightedSystem(group=group, a=draw(element), weight=draw(st.one_of(families)), young=P2)
    f = od.OrliczVector(draw(st.dictionaries(element, SEED_VALUES, min_size=1, max_size=6)))
    return system, f


def _bits(v: od.OrliczVector) -> list:
    """A vector's entries in insertion order, each value by its bits."""
    return [(x, value.hex()) for x, value in v.items()]


def _chain(sys, f, m: int) -> od.OrliczVector:
    """T^m f (S^{-m} f for m < 0) by applying T (or S) one step at a time."""
    apply = od.apply_T if m > 0 else od.apply_S
    for _ in range(abs(m)):
        f = apply(sys, f)
    return f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeded_systems(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_pieces_match_the_per_call_iterates_and_the_one_step_chain(case, n, L, data):
    system, f = case
    forward, backward = iterates(system, f, n, L), iterates(system, f, n, L, backward=True)
    orbit = od.SeedOrbit(system, f)
    # Asked in any order, so a piece comes from a stack grown past it or
    # from one built to it.
    order = data.draw(st.permutations([s * l * n for l in range(1, L + 1) for s in (1, -1)]))
    for m in order:
        piece = orbit.piece(m)
        per_call = (forward if m > 0 else backward)[abs(m) // n - 1]
        step_n = f
        for _ in range(abs(m) // n):
            step_n = (od.apply_T_n if m > 0 else od.apply_S_n)(system, step_n, n)
        assert _bits(piece) == _bits(per_call) == _bits(step_n) == _bits(_chain(system, f, m))
        assert _outcome(orbit.norm, m) == _outcome(od.luxemburg_norm, piece, P2)
    assert orbit.piece(0) is f and _outcome(orbit.norm, 0) == _outcome(od.luxemburg_norm, f, P2)
    # Under a cap that the deepest stack of f just fits, stacks go on from
    # the last piece of the stack before and drop the other direction's.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translations, "SERIES_MEMORY_CAP", translations.stack_bytes(len(f), L * n))
        tight = od.SeedOrbit(system, f)
        for m in order:
            assert _bits(tight.piece(m)) == _bits(orbit.piece(m))
            assert _outcome(tight.norm, m) == _outcome(orbit.norm, m)


def test_pieces_drop_the_points_that_underflow():
    # 5e-324 * 1/2 rounds to 0.0, and -1e-323 takes two halvings.
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(0.5), young=P2)
    f = od.OrliczVector({0: 5e-324, 1: 1.0, 2: -1e-323})
    orbit = od.SeedOrbit(sys, f)
    assert [len(orbit.piece(m)) for m in (3, 1, 2)] == [1, 2, 1]
    for m in (1, 2, 3, -1, -2):
        assert _bits(orbit.piece(m)) == _bits(_chain(sys, f, m))
    assert list(orbit.piece(1).items()) == [(2, 0.5), (3, -5e-324)]


# Power, alphalog and table norms: a column norm takes the closed form or
# the secant bracket as the piece's norm does.
PHIS = [P2, od.AlphaLogYoung(1.5), od.TableYoung(((0, 0), (1, 0.5), (2, 2), (40, 800)))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_systems(), st.integers(1, 5))
def test_a_column_is_its_piece_and_has_its_norm(case, depth):
    system, f = case
    for backward in (False, True):
        stack = translations.orbit_stack(system, f, depth, backward)
        for c in range(1, depth + 1):
            piece, column = stack.iterate(c), stack.column(c)
            assert all(type(v) is float and v != 0.0 for v in piece.values())
            assert column.dtype == np.float64 and [v.hex() for v in column.tolist()] == [h for _, h in _bits(piece)]
            for phi in PHIS:
                assert _outcome(od.luxemburg_norm, column, phi) == _outcome(od.luxemburg_norm, piece, phi)
                if piece:
                    k = piece.max_abs()
                    assert _outcome(od.modular, column, phi, k) == _outcome(od.modular, piece, phi, k)


def test_an_overflowed_column_raises_as_its_piece():
    # 1e200 * 1e200 overflows to inf in the first step; -inf comes first.
    f = od.OrliczVector({0: -1e200, 1: 1e200, 2: 1.0})
    for phi in PHIS:
        sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(1e200), young=phi)
        stack = translations.orbit_stack(sys, f, 1, False)
        with pytest.raises(NonFiniteVectorError) as by_piece:
            od.luxemburg_norm(stack.iterate(1), phi)
        with pytest.raises(NonFiniteVectorError) as by_column:
            od.luxemburg_norm(stack.column(1), phi)
        with pytest.raises(NonFiniteVectorError) as by_orbit:
            od.SeedOrbit(sys, f).norm(1)
        assert str(by_piece.value) == str(by_column.value) == str(by_orbit.value) == "entry -inf is not finite"


# The lab functions as they took (sys, f), each call rebuilding its pieces.


def _ref_witness(sys, f, n, L):
    pieces = [f, *iterates(sys, f, n, L, backward=True)]
    if len(set().union(*(piece.support() for piece in pieces))) < sum(map(len, pieces)):
        raise SeparationViolatedError(
            f"witness summand supports overlap at n={n}; "
            "n must exceed the separation constant of supp(f)"
        )
    return vector_sum(pieces)


def _ref_return(sys, f, n, L, epsilon):
    order = sys.group.element_order(sys.a)
    v = f if order is not None and n % order == 0 else _ref_witness(sys, f, n, L)
    phi = sys.young
    r0 = od.luxemburg_norm(v - f, phi)
    returns = tuple(od.luxemburg_norm(piece - f, phi) for piece in iterates(sys, v, n, L))
    ok = r0 < epsilon and all(r < epsilon for r in returns)
    return od.ReturnReport(n=n, L=L, epsilon=epsilon, residual_to_f=r0, return_residuals=returns, success=ok)


def _ref_periodic(sys, f, n, L_trunc):
    phi = sys.young
    *t_pieces, t_edge = iterates(sys, f, n, L_trunc + 1)
    s_pieces = iterates(sys, f, n, L_trunc, backward=True)
    if any(piece.max_abs() > lab.TERM_MAGNITUDE_CAP for piece in t_pieces + s_pieces):
        raise TailUnboundedError(f"summand magnitude exceeds cap {lab.TERM_MAGNITUDE_CAP:g} at n={n}")
    s_last = od.luxemburg_norm(s_pieces[-1] if s_pieces else f, phi)
    if L_trunc >= 2:
        t_last, t_prev = od.luxemburg_norm(t_pieces[-1], phi), od.luxemburg_norm(t_pieces[-2], phi)
        s_prev = od.luxemburg_norm(s_pieces[-2], phi)
        if t_last >= t_prev or s_last >= s_prev:
            raise TailUnboundedError(
                f"trailing terms do not decay at n={n} (T: {t_prev} -> {t_last}, "
                f"S: {s_prev} -> {s_last})"
            )
    v = vector_sum([f, *t_pieces, *s_pieces])
    defect = od.luxemburg_norm(od.apply_T_n(sys, v, n) - v, phi)
    bound = od.luxemburg_norm(t_edge, phi) + s_last
    residual = od.luxemburg_norm(v - f, phi)
    within = defect <= bound * (1.0 + 1e-9) + 1e-300
    g = 0.0 if within else translations.product_gamma(sys.weight, (L_trunc + 1) * n + 2 * L_trunc + 4)
    if g:
        allowance = g * (bound + 2.0 * (residual + od.luxemburg_norm(f, phi)))
        within = defect <= (bound + allowance) * (1.0 + 1e-9) + 1e-300
    return v, od.PeriodicityReport(
        n=n, L_trunc=L_trunc, defect=defect, predicted_bound=bound, approx_residual=residual, within_bound=within
    )


def _ref_truncation(sys, f, n, cap):
    t_edge, s_edge = od.apply_T_n(sys, f, n), f
    for L in range(1, cap + 1):
        t_edge, s_edge = od.apply_T_n(sys, t_edge, n), od.apply_S_n(sys, s_edge, n)
        if od.luxemburg_norm(t_edge, sys.young) + od.luxemburg_norm(s_edge, sys.young) < 1e-15:
            return L
    return cap


def _ref_norm_series(sys, f, n_steps):
    return [od.luxemburg_norm(piece, sys.young) for piece in [f, *iterates(sys, f, 1, n_steps)]]


def _outcome(fn, *args):
    """What a call gives: its value, with vectors by their bits and floats
    by repr (exact, and -0.0 apart from 0.0), or the error it raises."""

    def plain(x):
        if isinstance(x, od.OrliczVector):
            return _bits(x)
        if isinstance(x, (tuple, list)):
            return [plain(y) for y in x]
        return repr(x)

    try:
        return "ok", plain(fn(*args))
    except OrliczDynamicsError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seeded_systems(),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 6),
    st.sampled_from([1e-3, 0.5, 4.0]),
)
def test_reports_match_the_per_call_constructions(case, n, L, cap, epsilon):
    system, f = case
    # One orbit for every call, in cmd_simulate's order, as one run shares it.
    orbit = od.SeedOrbit(system, f)
    truncation = _outcome(od.choose_truncation, orbit, n, cap)
    assert truncation == _outcome(_ref_truncation, system, f, n, cap)
    L_trunc = int(truncation[1]) if truncation[0] == "ok" else L
    assert _outcome(od.chaos_periodic_vector, orbit, n, L_trunc) == _outcome(_ref_periodic, system, f, n, L_trunc)
    assert _outcome(od.empirical_return, orbit, n, L, epsilon) == _outcome(_ref_return, system, f, n, L, epsilon)
    assert _outcome(od.recurrence_witness_vector, orbit, n, L) == _outcome(_ref_witness, system, f, n, L)
    assert _outcome(od.orbit_norm_series, orbit, cap) == _outcome(_ref_norm_series, system, f, cap)


def _traced_simulate(monkeypatch, name: str):
    """cmd_simulate on a shipped config, recording the norms it takes
    (inside ``SeedOrbit.norm`` or not), each m asked of the orbit for a
    norm or a piece, and the depth of every stack it builds, by direction."""
    calls, asked, built = Counter(), {"norm": [], "piece": []}, {False: [], True: []}
    inside = []
    norm, piece, luxemburg, stack = od.SeedOrbit.norm, od.SeedOrbit.piece, lab.luxemburg_norm, lab.orbit_stack

    def asked_norm(self, m):
        asked["norm"].append(m)
        inside.append(m)
        try:
            return norm(self, m)
        finally:
            inside.pop()

    def asked_piece(self, m):
        asked["piece"].append(m)
        return piece(self, m)

    def counted(v, phi):
        calls["orbit" if inside else "other"] += 1
        return luxemburg(v, phi)

    def spy(sys, f, depth, backward):
        built[backward].append(depth)
        return stack(sys, f, depth, backward)

    monkeypatch.setattr(od.SeedOrbit, "norm", asked_norm)
    monkeypatch.setattr(od.SeedOrbit, "piece", asked_piece)
    monkeypatch.setattr(lab, "luxemburg_norm", counted)
    monkeypatch.setattr(cli, "luxemburg_norm", counted)
    monkeypatch.setattr(lab, "orbit_stack", spy)
    _, code = cli.cmd_simulate(load_config(CONFIG_DIR / f"{name}.json"))
    assert code == 0
    return calls, asked, built


def test_simulate_takes_each_norm_on_the_orbit_once(monkeypatch):
    calls, asked, _ = _traced_simulate(monkeypatch, "heisenberg_paper")
    # One norm per distinct signed m, and 20 of vectors off the orbit (the
    # period defects and residuals): 116, where rebuilding the pieces for
    # each call took 280.
    assert len(asked["norm"]) > calls["orbit"] == len(set(asked["norm"]))
    assert (calls["orbit"], calls["other"]) == (96, 20)


@pytest.mark.parametrize("name", ["heisenberg_paper", "z_shift_chaotic"])
def test_each_stack_is_rebuilt_by_doubling(monkeypatch, name):
    _, asked, built = _traced_simulate(monkeypatch, name)
    ms = asked["norm"] + asked["piece"]
    for backward, depths in built.items():
        deepest = max(-m if backward else m for m in ms if m and (m < 0) == backward)
        assert depths == sorted(depths) and depths[-1] >= deepest
        assert len(depths) <= math.ceil(math.log2(deepest)) + 1


def test_the_stacks_stay_within_the_cap_and_take_what_iterates_took(monkeypatch):
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.ConstantWeight(0.75), young=P2)
    f = od.OrliczVector({x: 1.0 + x for x in range(100)})
    D = 200
    # The cap at which apply_T_n(sys, f, D), one iterate of a stack of
    # depth D, is just accepted.
    cap = iterates_bytes(sys.group, len(f), D, 1)
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", cap)
    orbit = od.SeedOrbit(sys, f)
    for m in (D - 1, D, -D, -1, D):
        # Growing from D - 1 would double it; the growth is clipped instead.
        assert _bits(orbit.piece(m)) == _bits((od.apply_T_n if m > 0 else od.apply_S_n)(sys, f, abs(m)))
        assert orbit.held() <= cap
    monkeypatch.setattr(translations.np, "empty", lambda *args: pytest.fail("stack allocated"))
    with pytest.raises(ConfigError) as err:
        orbit.piece(-(cap // (8 * len(f))))  # its stack alone passes the cap
    assert err.value.field == "N_max" and "GiB cap" in str(err.value)


def test_the_orbit_releases_its_stacks_for_the_whole_price_of_an_iterates_call(monkeypatch):
    # The orbit made room for the stack of the returns (and of the period
    # defect) alone: at 10 111 bytes it kept its 1 616 bytes of stacks
    # beside an iterates call priced at 4 848 + 3 648.
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.TwoSidedStepWeight(1.1, 0.9), young=P2)
    f = od.OrliczVector({0: 1.0, 1: 0.5})
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", 10_111)
    priced = []

    def spy(sys, v, step, count, backward=False):
        priced.append(orbit.held() + iterates_bytes(sys.group, len(v), step, count))
        return iterates(sys, v, step, count, backward)

    # lab calls iterates for the returns, and apply_T_n for the defect.
    monkeypatch.setattr(lab, "iterates", spy)
    monkeypatch.setattr(translations, "iterates", spy)
    orbit = od.SeedOrbit(sys, f)
    assert lab.empirical_return(orbit, 50, 2, 0.5).success
    orbit = od.SeedOrbit(sys, f)
    assert lab.chaos_periodic_vector(orbit, 50, 2)[1].within_bound
    assert len(priced) == 2 and max(priced) <= translations.SERIES_MEMORY_CAP


def _stacks_under(monkeypatch, cap: int, run):
    """run() under a SERIES_MEMORY_CAP of cap, with the most bytes of
    stack blocks alive at once (those alive when a stack is built, and
    the new one) and, by direction, the depth of each stack the orbit
    builds."""
    alive, peak, built = [], [0], {False: [], True: []}
    stack = translations.orbit_stack

    def spy(sys, f, depth, backward):
        live = sum(block.nbytes for block in (ref() for ref in alive) if block is not None)
        peak[0] = max(peak[0], live + translations.stack_bytes(len(f), depth))
        built_stack = stack(sys, f, depth, backward)
        alive.append(weakref.ref(built_stack.block))
        return built_stack

    def orbit_spy(sys, f, depth, backward):
        built[backward].append(depth)
        return spy(sys, f, depth, backward)

    monkeypatch.setattr(translations, "orbit_stack", spy)
    monkeypatch.setattr(lab, "orbit_stack", orbit_spy)
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", cap)
    return run(), peak[0], built


def test_the_stacks_of_the_lab_fit_the_cap_with_the_orbit_kept(monkeypatch):
    # Near the cap, the orbit frees its stacks for the period defect's
    # stack of v and the returns' stack, so the stacks alive at once stay
    # within it: keeping them took 38,480 bytes against a cap of 23,000.
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.TwoSidedStepWeight(1.1, 0.9), young=P2)
    f = od.OrliczVector({0: 1.0, 1: 0.5})
    n = 200

    def run():
        orbit = od.SeedOrbit(sys, f)
        L = od.choose_truncation(orbit, n, 32)
        _, periodic = od.chaos_periodic_vector(orbit, n, L)
        return L, periodic, od.empirical_return(orbit, n, 2, 1.0)

    want = run()
    assert want[0] == 2
    got, peak, _ = _stacks_under(monkeypatch, 23_000, run)
    assert got == want and peak <= 23_000


def test_alternating_requests_near_the_cap_build_few_stacks(monkeypatch):
    # Each direction's deepest stack of f fits the cap, the two together
    # do not.  Dropping the other stack at each request rebuilt both at
    # every level of choose_truncation: 20 and 21 stacks, of 4,644 and
    # 4,950 columns.  Continuing from the last piece builds about as much
    # as doubling up to the deepest request does.
    sys = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=od.TwoSidedStepWeight(1.01, 0.99), young=P2)
    f = od.OrliczVector({x: 1.0 for x in range(4)})
    cap = 15_000
    assert translations.stack_bytes(len(f), 330) < cap < 2 * translations.stack_bytes(len(f), 320)
    L, peak, built = _stacks_under(monkeypatch, cap, lambda: od.choose_truncation(od.SeedOrbit(sys, f), 10, 32))
    assert L == 32 and peak <= cap
    for depths, deepest in ((built[False], 330), (built[True], 320)):
        assert len(depths) <= math.ceil(math.log2(deepest)) + 1 and sum(depths) <= 3 * deepest
