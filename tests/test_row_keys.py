"""Row keys: points whose keys are equal have equal weight rows, so the
criteria scans and ``iterates`` build each distinct row once.

A system's ``fillers`` name the row of a point by a key.  Equal keys
must give equal rows at every length, forward or backward; the scans
run on the first point of K for each distinct (forward, backward) pair and
must give the verdict of a scan over every point of K."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics import criteria, lab, translations
from orlicz_dynamics.translations import (
    iterates,
    iterates_bytes,
    keyed_series,
    orbit_weights_backward,
    orbit_weights_forward,
)

# Rows of this length cover every shorter one: a row is a prefix of the
# longer rows of its point.
LENGTH = 64

# Products that round, products that are exact, and the weight 1.
VALUES = st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 0.7218334595390007])

# Every group a family reads: the dyadic weight reads the third coordinate,
# so it runs on Z^3 and the Heisenberg group.  Cyclic groups give an a of
# finite order; so does the identity, which the draw of a may give anywhere.
GROUPS = st.one_of(
    st.sampled_from([od.IntegerGroup(), od.LatticeGroup(d=2), od.LatticeGroup(d=3), od.HeisenbergGroup()]),
    st.integers(1, 12).map(lambda m: od.CyclicGroup(m=m)),
).flatmap(lambda g: st.sampled_from([g, od.IntegerGroup()]))  # Z, which reads every family, half the time


@st.composite
def keyed_systems(draw):
    """A system and 2 to 12 points in a small window, the window at
    the origin or with coordinates past 2^63.  Table keys lie in the same
    window, so some points sit on orbits that hold keys and some do not."""
    group = draw(GROUPS)
    rank = len(group.coords(group.identity()))
    offset = draw(st.lists(st.sampled_from([0, 0, 0, 2**63 + 5, -(2**64) - 3]), min_size=rank, max_size=rank))
    near = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    element = near.map(lambda c: group.element([o + x for o, x in zip(offset, c)]))
    a = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(group.element))
    families = [
        st.builds(od.ConstantWeight, VALUES),
        st.builds(od.TableWeight, st.lists(st.tuples(element, VALUES), max_size=8).map(tuple), VALUES),
    ]
    if group.kind in ("Z", "cyclic"):
        families.append(st.builds(od.TwoSidedStepWeight, VALUES, VALUES))
    if rank == 3:
        families.append(st.just(od.HeisenbergDyadicWeight()))
    system = od.WeightedSystem(group=group, a=a, weight=draw(st.one_of(families)), young=P2)
    points = draw(st.lists(element, min_size=2, max_size=12, unique=True))
    return system, points


@settings(max_examples=300, deadline=None)
@given(keyed_systems(), st.booleans())
def test_equal_keys_give_equal_rows(case, backward):
    system, points = case
    key = system.fillers[backward].key
    oracle = orbit_weights_backward if backward else orbit_weights_forward
    rows = defaultdict(set)
    for x in points:
        rows[key(x)].add(oracle(system, x, LENGTH).tobytes())
    assert all(len(same) == 1 for same in rows.values())


def _json(verdict: od.Verdict) -> str:
    return json.dumps(verdict.to_json(), sort_keys=True)


def _every_point(req: od.CriterionRequest) -> list:
    """A stand-in for ``criteria._distinct_rows`` that scans every point:
    each direction's key of each point of K, in K's order, from that
    direction's own filler."""
    return [[filler.key(x) for x in req.K.elements] for filler in req.system.fillers]


@settings(max_examples=300, deadline=None)
@given(
    keyed_systems(),
    st.sampled_from(list(od.Property)),
    st.integers(1, 16),
    st.integers(1, 3),
    st.integers(1, 4),
)
def test_scans_on_distinct_rows_match_a_scan_of_every_point(case, prop, N_max, L, L_max):
    system, points = case
    req = od.CriterionRequest(
        system=system, K=od.CompactSet.of(points), property=prop, L=L, N_max=N_max, L_max=L_max
    )
    distinct = _json(od.run_check(req))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "_distinct_rows", _every_point)
        assert _json(od.run_check(req)) == distinct


def _points_asked(monkeypatch, req: od.CriterionRequest) -> tuple[od.Verdict, dict]:
    """run_check's verdict and the number of rows each keyed_series call
    is asked for, by direction."""
    asked = {False: [], True: []}

    def spy(sys, keys, depth, backward, logs):
        asked[backward].append(len(keys))
        return keyed_series(sys, keys, depth, backward, logs)

    monkeypatch.setattr(criteria, "keyed_series", spy)
    return od.run_check(req), asked


def test_heisenberg_chaos_builds_one_row_each_way(monkeypatch, heisenberg_system):
    # The a = (3, 0, 2) orbit of (x, y, 0) has z = 2j whatever x and y are.
    K = od.box(od.HeisenbergGroup(), [[32, 42], [-17, -7], [0, 0]])
    req = od.CriterionRequest(system=heisenberg_system, K=K, property="chaotic", L=2, N_max=256, L_max=64)
    verdict, asked = _points_asked(monkeypatch, req)
    assert verdict.outcome is od.Outcome.WITNESS_FOUND
    assert len(K) == 121 and asked == {False: [1], True: [1]}


def test_constant_box_builds_one_row_each_way(monkeypatch):
    system = od.WeightedSystem(group=od.LatticeGroup(d=2), a=(1, 0), weight=od.ConstantWeight(1.0), young=P2)
    K = od.box(system.group, [[-23, -13], [30, 40]])
    req = od.CriterionRequest(system=system, K=K, property="multiply_recurrent", L=4, N_max=128)
    verdict, asked = _points_asked(monkeypatch, req)
    assert verdict.outcome is od.Outcome.INCONCLUSIVE
    assert asked == {False: [1], True: [1]}


@pytest.mark.parametrize("prop", list(od.Property), ids=lambda p: p.value)
def test_step_rows_all_differ(monkeypatch, step_system, prop):
    req = od.CriterionRequest(system=step_system, K=od.CompactSet.of(range(-7, 8)), property=prop, L=3, N_max=64)
    verdict, asked = _points_asked(monkeypatch, req)
    assert asked == {False: [15], True: [15]}
    monkeypatch.setattr(criteria, "_distinct_rows", _every_point)
    assert od.run_check(req) == verdict


def test_keys_are_compared_over_all_of_K_at_once(monkeypatch, heisenberg_system):
    # 2,049 points of one row: one row, not one per block of K's points
    # (blocks of 1,024 gave three), and the verdict of a scan of every point.
    K = od.box(od.HeisenbergGroup(), [[0, 2048], [0, 0], [0, 0]])
    req = od.CriterionRequest(system=heisenberg_system, K=K, property="chaotic", N_max=16, L_max=4)
    rows = criteria._distinct_rows(req)
    assert [list(keys) for keys in rows] == [[fl.key(K.elements[0])] for fl in req.system.fillers]
    verdict = od.run_check(req)
    monkeypatch.setattr(criteria, "_distinct_rows", _every_point)
    assert od.run_check(req) == verdict


def test_iterates_fill_one_row_for_points_that_share_a_key(monkeypatch, heisenberg_system):
    written = []
    (key, fill), backward = heisenberg_system.fillers

    def counted(keys, out):
        written.append(len(out))
        fill(keys, out)

    # The system's forward filler, wrapped where every reader takes it.
    monkeypatch.setitem(vars(heisenberg_system), "fillers", (translations.Filler(key, counted), backward))
    f = od.OrliczVector({(x, y, 0): 1.0 + x + 3 * y for x in (-1, 0, 1) for y in (-1, 0, 1)})
    step, count = 8, 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pieces = iterates(heisenberg_system, f, step, count)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert written == [1]
    assert peak <= iterates_bytes(heisenberg_system.group, len(f), step, count)
    # Every value is the one-step loop's: f(x) times each weight in turn.
    g, a = heisenberg_system.group, heisenberg_system.a
    for x, v in f.items():
        row = orbit_weights_forward(heisenberg_system, x, count * step)
        for l, piece in enumerate(pieces, start=1):
            want = v
            for w in row[: l * step]:
                want *= w
            assert piece[g.mul(x, g.pow(a, l * step))] == want


def _table_401() -> od.CriterionRequest:
    table = od.TableWeight(entries=tuple((k, (0.5, 1.5, 0.75, 2.0)[k % 4]) for k in range(401)), default=1.0)
    system = od.WeightedSystem(group=od.IntegerGroup(), a=1, weight=table, young=P2)
    return od.CriterionRequest(system=system, K=od.CompactSet.of(range(401)), property="recurrent", N_max=512)


def test_dense_table_verdict_is_unchanged():
    # 401 keys on one orbit, each row holding up to 401 of them.  The pin
    # is the verdict from before the rows took their hits as one array.
    verdict = od.run_check(_table_401())
    assert (verdict.outcome, verdict.start_n, verdict.budget) == (od.Outcome.INCONCLUSIVE, 401, 112)
    digest = hashlib.sha256(_json(verdict).encode()).hexdigest()
    assert digest == "ad123bcd2fc5abe74922b8fd7eeef27df98faafa7bd2a54c610a3bd43aeb6126"


@pytest.mark.parametrize("a", [1, -1, 3, 2**69], ids=["1", "-1", "3", "2^69"])
def test_table_keys_far_apart_match_the_scalar_loop(a):
    # Exponent gaps of 2^70 pass int64; with a = 2^69 the same keys are two
    # steps apart, inside one row.
    big = 2**70
    table = od.TableWeight(
        entries=((0, 0.5), (3, 2.0), (big, 0.75), (big + 2, 1.5), (2 * big, 3.0), (-big, 0.5)), default=1.25
    )
    system = od.WeightedSystem(group=od.IntegerGroup(), a=a, weight=table, young=P2)
    points = [-2, 0, 1, big - 3, big, big + 1, 2 * big - 1, -big + 1, -(2**69), 2**69]
    depth = 9
    for backward, oracle in ((False, orbit_weights_forward), (True, orbit_weights_backward)):
        want = np.array([np.cumprod(oracle(system, x, depth)) for x in points])
        if backward:
            want = 1.0 / want
        keys = [system.fillers[backward].key(x) for x in points]
        _, linear, _ = next(keyed_series(system, keys, depth, backward, False))
        assert linear[:, 1:].tobytes() == want.tobytes()


def _count_groupings(monkeypatch) -> tuple[list, list]:
    """The directions of the table fillers built and the systems whose
    table was grouped by orbit, from here on."""
    builds, groupings = [], []
    table_filler = translations._table_filler
    orbits = vars(od.WeightedSystem)["_orbits"]  # the cached property
    group_by_orbit = orbits.func

    def built(*args):
        builds.append(args[2])
        return table_filler(*args)

    def grouped(system):
        groupings.append(system)
        return group_by_orbit(system)

    monkeypatch.setattr(translations, "_table_filler", built)
    monkeypatch.setattr(orbits, "func", grouped)
    return builds, groupings


def test_dense_table_builds_each_filler_once(monkeypatch):
    # The system groups the table by orbit once and builds one filler each
    # way from it: one orbit_index per table key, one per point of K each
    # way for its keys, and K's 401 in separation_constant.  Each filler
    # grouping the table on its own took 2,005.
    builds, groupings = _count_groupings(monkeypatch)
    indices = []
    orbit_index = od.IntegerGroup.orbit_index

    def counted(group, x, a):
        indices.append(x)
        return orbit_index(group, x, a)

    monkeypatch.setattr(od.IntegerGroup, "orbit_index", counted)
    verdict = od.run_check(_table_401())
    assert builds == [False, True] and len(groupings) == 1 and len(indices) <= 1604
    digest = hashlib.sha256(_json(verdict).encode()).hexdigest()
    assert digest == "ad123bcd2fc5abe74922b8fd7eeef27df98faafa7bd2a54c610a3bd43aeb6126"


TABLE = od.TableWeight(entries=((0, 0.5), (1, 2.0), (3, 0.75), (7, 1.5)), default=1.25)


@pytest.mark.parametrize(
    "group,a,weight",
    [
        (od.IntegerGroup(), 1, TABLE),
        (od.CyclicGroup(m=12), 5, TABLE),
        (od.CyclicGroup(m=12), 5, od.TwoSidedStepWeight(2.0, 0.5)),
    ],
    ids=["table-Z", "table-cyclic", "step-cyclic"],
)
def test_every_reader_takes_the_one_grouping(monkeypatch, group, a, weight):
    # A check (scans, or the cycle products and their diagnostic series),
    # a seed orbit whose stacks grow, iterates and apply_T_n all read the
    # system's one grouping and its two fillers.
    builds, groupings = _count_groupings(monkeypatch)
    stacks = []
    orbit_stack = lab.orbit_stack

    def stacked(sys, f, depth, backward):
        stacks.append(backward)
        return orbit_stack(sys, f, depth, backward)

    monkeypatch.setattr(lab, "orbit_stack", stacked)
    system = od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
    K = od.CompactSet.of(range(-3, 4) if group.kind == "Z" else range(0, 12, 2))
    od.run_check(od.CriterionRequest(system=system, K=K, property="recurrent", N_max=16))
    orbit = od.SeedOrbit(system, od.OrliczVector({x: 1.0 for x in K}))
    for m in (1, 3, 9, -2, -9):
        orbit.norm(m)
    iterates(system, orbit.f, 2, 3, backward=True)
    od.apply_T_n(system, orbit.f, 5)
    assert stacks.count(False) >= 2 and stacks.count(True) >= 2
    assert builds == [False, True] and len(groupings) == 1
