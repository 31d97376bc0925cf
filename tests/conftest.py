"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import orlicz_dynamics as od
from orlicz_dynamics.translations import keyed_series

P2 = od.PowerYoung(2.0)


@pytest.fixture
def zgroup():
    return od.IntegerGroup()


@pytest.fixture
def heisenberg():
    return od.HeisenbergGroup()


@pytest.fixture
def step_system(zgroup):
    """Bilateral shift with the two-sided step weight (2 left, 1/2 right)."""
    return od.WeightedSystem(
        group=zgroup, a=1, weight=od.TwoSidedStepWeight(2.0, 0.5), young=P2
    )


@pytest.fixture
def heisenberg_system(heisenberg):
    return od.WeightedSystem(
        group=heisenberg, a=(3, 0, 2), weight=od.HeisenbergDyadicWeight(), young=P2
    )


def orbit_product(sys, x, n, backward=False):
    """phi_n(x), or phi~_n(x) when backward: the last value of the row of
    x's key in ``keyed_series``, run to depth n."""
    _, linear, _ = next(keyed_series(sys, [sys.fillers[backward].key(x)], n, backward, False))
    return float(linear[0, n])


def all_groups():
    return [od.IntegerGroup(), od.LatticeGroup(d=2), od.HeisenbergGroup()]


def random_element(group, rng, span=5):
    coords = [int(c) for c in rng.integers(-span, span + 1, size=len(group.coords(group.identity())))]
    return group.element(coords)


def random_vector(group, rng, max_support=8, span=6):
    size = int(rng.integers(1, max_support + 1))
    data = {}
    while len(data) < size:
        x = random_element(group, rng, span=span)
        v = float(rng.uniform(-3.0, 3.0))
        if v != 0.0:
            data[x] = v
    return od.OrliczVector(data)


def block_alternating_weight(extent=200):
    """Table weight on the integers whose orbit products from 0 dip to 2^-m
    at the midpoint of the m-th block but return to 1 at block ends."""
    entries = {}
    j, m = 1, 1
    while j <= extent:
        for _ in range(m):
            if j <= extent:
                entries[j] = 0.5
            j += 1
        for _ in range(m):
            if j <= extent:
                entries[j] = 2.0
            j += 1
        m += 1
    j, m = 0, 1
    while j >= -extent:
        for _ in range(m):
            if j >= -extent:
                entries[j] = 2.0
            j -= 1
        for _ in range(m):
            if j >= -extent:
                entries[j] = 0.5
            j -= 1
        m += 1
    return od.TableWeight(entries=tuple(entries.items()), default=1.0)


@pytest.fixture
def block_system(zgroup):
    return od.WeightedSystem(group=zgroup, a=1, weight=block_alternating_weight(), young=P2)
