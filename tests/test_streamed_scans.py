"""The criteria scans run over K a block of points at a time.

Verdicts must not depend on the block size, the chaos scan must hold one
block's series rather than all of K's, and SERIES_MEMORY_CAP bounds what a
scan holds at once, not |K| full-depth series."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2
from orlicz_dynamics import criteria, translations
from orlicz_dynamics.config import parse_config
from orlicz_dynamics.translations import keyed_series
from orlicz_dynamics.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def _config(name: str, **overrides):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.update(overrides)
    return parse_config(raw).request


def _run_with_rows(monkeypatch, req: od.CriterionRequest, rows: int) -> od.Verdict:
    """run_check with a block size of rows points of the scan's series,
    checking that the scan's blocks of that depth hold that many, or all of
    K's distinct rows when there are fewer: the scans run on those."""
    depth = criteria.series_depth(req)
    monkeypatch.setattr(translations, "BLOCK_ELEMENTS", rows * (depth + 1))
    seen = []

    def spy(sys, keys, d, *args):
        for block in keyed_series(sys, keys, d, *args):
            if d == depth:
                seen.append(len(block[1]))
            yield block

    monkeypatch.setattr(criteria, "keyed_series", spy)
    verdict = od.run_check(req)
    assert not seen or max(seen) == min(rows, len(criteria._distinct_rows(req)[0]))
    return verdict


def _requests():
    for name in SHIPPED:
        for prop in od.Property:
            yield pytest.param(name, prop, id=f"{name}-{prop.value}")


@pytest.mark.parametrize("name,prop", _requests())
def test_verdicts_do_not_depend_on_the_block_size(monkeypatch, name, prop):
    req = _config(name, property=prop.value)
    whole = _run_with_rows(monkeypatch, req, len(req.K))
    assert _run_with_rows(monkeypatch, req, 1) == whole
    assert _run_with_rows(monkeypatch, req, 3) == whole
    assert _run_with_rows(monkeypatch, req, len(req.K) + 5) == whole


@pytest.mark.parametrize("prop", list(od.Property), ids=lambda p: p.value)
def test_step_system_verdicts_do_not_depend_on_the_block_size(monkeypatch, step_system, prop):
    req = od.CriterionRequest(
        system=step_system, K=od.CompactSet.of(list(range(-7, 8))), property=prop, L=3, N_max=64, L_max=8
    )
    whole = _run_with_rows(monkeypatch, req, len(req.K))
    assert whole.outcome is od.Outcome.WITNESS_FOUND
    for rows in (1, 3):
        assert _run_with_rows(monkeypatch, req, rows) == whole


@settings(max_examples=40, deadline=None)
@given(
    entries=st.dictionaries(st.integers(-8, 8), st.sampled_from([0.25, 0.5, 0.75, 1.5, 2.0, 3.0]), max_size=8),
    default=st.sampled_from([0.5, 1.0, 2.0]),
    points=st.sets(st.integers(-6, 6), min_size=1, max_size=6),
    prop=st.sampled_from(list(od.Property)),
    N_max=st.integers(1, 10),
    L_max=st.integers(1, 6),
)
def test_table_weight_verdicts_do_not_depend_on_the_block_size(entries, default, points, prop, N_max, L_max):
    system = od.WeightedSystem(
        group=od.IntegerGroup(),
        a=1,
        weight=od.TableWeight(entries=tuple(entries.items()), default=default),
        young=P2,
    )
    req = od.CriterionRequest(system=system, K=od.CompactSet.of(sorted(points)), property=prop, L=2, N_max=N_max, L_max=L_max)
    with pytest.MonkeyPatch.context() as mp:
        whole = _run_with_rows(mp, req, len(req.K))
        assert _run_with_rows(mp, req, 1) == whole
        assert _run_with_rows(mp, req, 2) == whole


def _traced_peak(req: od.CriterionRequest) -> tuple[od.Verdict, int]:
    """run_check's verdict and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        verdict = od.run_check(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return verdict, peak


def test_chaos_scan_holds_one_block_not_all_of_K():
    # K = [-5,5]^2 x {0}, N_max = 256 and L_max = 64: the scan used to hold
    # four series of 121 x 16 385 float64 at once, about 61 MiB, and then
    # blocks of 15 points, 12 MiB.  One point's series is 128 KiB.
    req = _config(
        "heisenberg_paper", K={"box": [[-5, 5], [-5, 5], [0, 0]]}, N_max=256, L_max=64
    )
    verdict, peak = _traced_peak(req)
    assert verdict.outcome is od.Outcome.WITNESS_FOUND
    assert peak < 3 * 2**20


@pytest.mark.parametrize(
    "overrides",
    [
        # 401 points to depth 512 (3.7 MiB in blocks of 2 MiB series).
        pytest.param({"property": "mixing", "K": {"box": [[-200, 200]]}, "N_max": 512}, id="z-mixing"),
        # 41 points to depth 4096 (6.3 MiB in blocks of 2 MiB series).
        pytest.param({"K": {"box": [[-20, 20]]}, "N_max": 128}, id="z-chaos"),
    ],
)
def test_step_scans_hold_one_cache_sized_block(overrides):
    verdict, peak = _traced_peak(_config("z_shift_chaotic", **overrides))
    assert verdict.outcome is od.Outcome.WITNESS_FOUND
    assert peak < 2**20


def _full_depth_bytes(req: od.CriterionRequest) -> int:
    """The cap's old measure: every series of all of K at full depth."""
    arrays = 4 if req.property is od.Property.CHAOTIC else 2
    return len(req.K) * (criteria.series_depth(req) + 1) * arrays * 8


@pytest.mark.parametrize(
    "name,overrides,cap",
    [
        pytest.param("heisenberg_paper", {}, 500_000, id="chaotic"),
        # K itself counts, 608 bytes a point on Z (the point and its key
        # pair): 2.4 MB of the cap.
        pytest.param("z_shift_chaotic", {"property": "mixing", "K": {"box": [[-2000, 2000]]}}, 3_000_000, id="mixing"),
    ],
)
def test_cap_bounds_what_a_scan_holds_at_once(monkeypatch, name, overrides, cap):
    req = _config(name, **overrides)
    expected = od.run_check(req)
    assert _full_depth_bytes(req) > cap
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", cap)
    assert od.run_check(dataclasses.replace(req)) == expected


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"property": "chaotic", "N_max": 256, "L_max": 256}, id="chaotic"),
        pytest.param({"property": "multiply_recurrent", "L": 256, "N_max": 256}, id="multiply_recurrent"),
        pytest.param({"property": "recurrent", "N_max": 2**16}, id="recurrent"),
    ],
)
def test_cap_counts_the_gathers_and_the_candidates(overrides):
    # Depth 2^16 over two points: the gathers, their int64 index and one
    # SeriesPoint per candidate n outweigh the series themselves, which
    # were all the cap used to count.
    req = _config("heisenberg_paper", K={"points": [[0, 0, 0], [1, 0, 0]]}, **overrides)
    assert criteria.series_depth(req) == 2**16
    _, peak = _traced_peak(req)
    assert peak <= criteria._held_bytes(req) + 2**20


_B = 2**70


@pytest.mark.parametrize(
    "name,overrides",
    [
        pytest.param("z_shift_chaotic", {"K": {"box": [[-20000, 20000]]}}, id="Z-40001"),
        pytest.param("heisenberg_paper", {"K": {"box": [[-60, 60], [-60, 60], [0, 0]]}}, id="heisenberg-14641"),
        # A one-key table gives every point of K on the key's orbit its own
        # key pair: 13.7 MiB against the 12.6 that counted the points alone.
        pytest.param(
            "z_shift_chaotic",
            {"K": {"box": [[-20000, 20000]]}, "weight": {"family": "table", "entries": [[[0], 2.0]]}},
            id="Z-table-40001",
        ),
        # The same at coordinates near 2^70, whose keys are larger: 10.1 MiB
        # against 6.6.
        pytest.param(
            "heisenberg_paper",
            {
                "a": [1, 0, 0],
                "K": {"box": [[_B - 7320, _B + 7320], [_B, _B], [_B, _B]]},
                "weight": {"family": "table", "entries": [[[_B, _B, _B], 2.0]]},
            },
            id="heisenberg-table-14641",
        ),
    ],
)
def test_cap_counts_K(name, overrides):
    # Short series over a large K: K itself, the orbit entry that
    # separation_constant makes per point and the key pairs of K's rows
    # outweigh the series, which were all the cap counted (1.4 KB against
    # a peak of several MB).
    tracemalloc.start()
    try:
        req = _config(name, property="recurrent", N_max=4, **overrides)
        od.run_check(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= criteria._held_bytes(req) + 2**20


def test_cap_still_counts_what_the_chaos_scan_keeps_over_K(monkeypatch):
    # The kept truncated sums and last terms grow with |K| x N_max.
    req = _config("z_shift_chaotic", K={"box": [[-20000, 20000]]}, N_max=64, L_max=2)
    monkeypatch.setattr(translations, "SERIES_MEMORY_CAP", 2 * len(req.K) * req.N_max * 8)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(req)
    assert err.value.field == "N_max"
