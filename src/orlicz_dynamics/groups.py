"""Discrete groups with exact integer arithmetic.

Concrete groups: the integers, integer lattices, the integer Heisenberg
group and finite cyclic groups.  Elements are plain ints or int tuples,
so they hash and compare natively.  Haar measure is counting measure
throughout; "compact set" means a finite explicit set of elements.  Each
group gives the order of an element in closed form (``element_order``).

Besides the scalar ``mul``, each group gives its orbits x·a^j in closed
form over a whole range of exponents j (negative j included), as int64
coordinate arrays.  ``orbit_bound`` is the exact Python-int guard for
that form: callers use it only while the bound stays below
``INT64_GUARD``, so no int64 intermediate can wrap.  ``CoordinateIndex``
looks such coordinates up in a finite set, for ``separation_constant``
and for table weights.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import TorsionElementError

Element = Hashable

# Closed-form orbits are used only while orbit_bound stays below this:
# every int64 intermediate of orbit_coords then stays clear of 2^63.
INT64_GUARD = 2**62


class Group(ABC):
    """Countable discrete group: identity, multiplication, inversion."""

    kind: str = ""

    @abstractmethod
    def identity(self) -> Element: ...

    @abstractmethod
    def mul(self, g: Element, h: Element) -> Element: ...

    @abstractmethod
    def inv(self, g: Element) -> Element: ...

    @abstractmethod
    def coords(self, g: Element) -> list[int]:
        """Serialize an element as a list of ints."""

    @abstractmethod
    def element(self, coords: Sequence[int] | int) -> Element:
        """Inverse of :meth:`coords`; accepts a bare int for rank-1 groups."""

    @abstractmethod
    def orbit_bound(self, x: Element, a: Element, J: int) -> int:
        """Exact bound on |c| for every coordinate c of x·a^j with |j| <= J
        and on every intermediate :meth:`orbit_coords` computes for it."""

    @abstractmethod
    def orbit_coords(self, xs: np.ndarray, a: Element, js: np.ndarray) -> tuple[np.ndarray, ...]:
        """Coordinates of x·a^j in closed form, one int64 array per
        coordinate of shape (len(xs), len(js)).

        xs is the int64 (points, rank) array of the starting points and js
        the int64 exponents.  Each point must pass the ``orbit_bound`` guard
        for max |j|; the arrays then equal the coordinates ``mul`` reaches
        by repeated multiplication with a (or its inverse).
        """

    def element_order(self, g: Element) -> Optional[int]:
        """Least n >= 1 with g^n = identity, or None when g has infinite
        order.  This default serves the torsion-free groups, where only
        the identity has finite order; finite groups override it."""
        return 1 if g == self.identity() else None

    def pow(self, g: Element, n: int) -> Element:
        """n-fold product of g (inverse-fold for negative n), by
        square-and-multiply over ``mul``."""
        if n < 0:
            return self.pow(self.inv(g), -n)
        acc = self.identity()
        base = g
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return acc


@dataclass(frozen=True)
class IntegerGroup(Group):
    """The additive group of integers."""

    kind: str = "Z"

    def identity(self):
        return 0

    def mul(self, g, h):
        return g + h

    def inv(self, g):
        return -g

    def orbit_bound(self, x, a, J):
        return abs(x) + (J + 1) * abs(a)

    def orbit_coords(self, xs, a, js):
        return (xs[:, :1] + js * a,)

    def coords(self, g):
        return [g]

    def element(self, coords):
        if isinstance(coords, int):
            return coords
        (x,) = coords
        return int(x)


@dataclass(frozen=True)
class LatticeGroup(Group):
    """The additive lattice of integer d-tuples."""

    d: int = 2
    kind: str = "Zd"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("lattice rank must be >= 1")

    def identity(self):
        return (0,) * self.d

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        return tuple(-a for a in g)

    def orbit_bound(self, x, a, J):
        return max(abs(xk) + (J + 1) * abs(ak) for xk, ak in zip(x, a))

    def orbit_coords(self, xs, a, js):
        return tuple(xs[:, k : k + 1] + js * ak for k, ak in enumerate(a))

    def coords(self, g):
        return list(g)

    def element(self, coords):
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class HeisenbergGroup(Group):
    """Integer Heisenberg group on triples (x, y, z) with
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y') and inverse (-x,-y,xy-z)."""

    kind: str = "heisenberg"

    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        x, y, z = g
        xp, yp, zp = h
        return (x + xp, y + yp, z + zp + x * yp)

    def inv(self, g):
        x, y, z = g
        return (-x, -y, x * y - z)

    def orbit_bound(self, x, a, J):
        # a^j = (j*a1, j*a2, j*a3 + a1*a2*j*(j-1)/2), so the z coordinate of
        # x·a^j is quadratic in j; the bound sums every term's magnitude.
        (x1, x2, x3), (a1, a2, a3) = x, a
        J1 = J + 1
        return (
            abs(x1) + abs(x2) + abs(x3)
            + J1 * (abs(a1) + abs(a2) + abs(a3) + abs(x1 * a2))
            + J1 * J1 * (1 + abs(a1 * a2))
        )

    def orbit_coords(self, xs, a, js):
        a1, a2, a3 = a
        x1, x2, x3 = xs[:, :1], xs[:, 1:2], xs[:, 2:]
        z_of_power = js * a3 + (a1 * a2) * (js * (js - 1) // 2)
        return (x1 + js * a1, x2 + js * a2, x3 + z_of_power + (x1 * a2) * js)

    def coords(self, g):
        return list(g)

    def element(self, coords):
        x, y, z = coords
        return (int(x), int(y), int(z))


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Finite cyclic group of residues mod m (additive)."""

    m: int = 2
    kind: str = "cyclic"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("cyclic modulus must be >= 1")

    def identity(self):
        return 0

    def mul(self, g, h):
        return (g + h) % self.m

    def inv(self, g):
        return (-g) % self.m

    def orbit_bound(self, x, a, J):
        return abs(x) + (J + 1) * abs(a)

    def orbit_coords(self, xs, a, js):
        return ((xs[:, :1] + js * a) % self.m,)

    def coords(self, g):
        return [g]

    def element(self, coords):
        if isinstance(coords, int):
            return coords % self.m
        (x,) = coords
        return int(x) % self.m

    def element_order(self, g):
        return self.m // math.gcd(g, self.m)


@dataclass(frozen=True)
class CompactSet:
    """Finite explicit element set; the counting measure is its size."""

    elements: frozenset

    @classmethod
    def of(cls, elements: Iterable[Element]) -> "CompactSet":
        return cls(frozenset(elements))

    def measure(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def sorted_elements(self, group: Group) -> list[Element]:
        """Elements in coordinate order, for deterministic iteration."""
        return sorted(self.elements, key=lambda g: tuple(group.coords(g)))


def box(group: Group, bounds: Sequence[Sequence[int]]) -> CompactSet:
    """Coordinate box: bounds is one (lo, hi) inclusive pair per coordinate."""
    ranges = []
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError(f"empty bound ({lo}, {hi})")
        ranges.append(range(int(lo), int(hi) + 1))
    return CompactSet(frozenset(group.element(list(c)) for c in itertools.product(*ranges)))


def separation_constant(group: Group, K: CompactSet, a: Element, n_max: int) -> Optional[int]:
    """Smallest M with K ∩ K·a^{±n} = ∅ for every n in (M, n_max].

    Returns None when separation cannot be certified within the budget
    (the last probed shift still collides).  Raises TorsionElementError
    for elements of finite order, for which no such M can exist.

    K meets K·a^n exactly when it meets K·a^{-n} (k·a^n = k' gives
    k = k'·a^{-n}), so only the shifts K·a^n are formed, from the
    closed-form ``orbit_coords`` a block of exponents at a time, and their
    membership in K is looked up in a ``CoordinateIndex`` of K.  When a
    point of K is past the ``orbit_bound`` guard, the scalar ``mul`` loop
    decides instead.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    order = group.element_order(a)
    if order is not None:
        raise TorsionElementError(order)
    collides = _closed_form_collisions(group, K, a, n_max)
    if collides is None:
        collides = _scalar_collisions(group, K, a, n_max)
    hits = np.flatnonzero(collides)
    last_collision = int(hits[-1]) + 1 if hits.size else 0
    if last_collision == n_max:
        return None
    return last_collision


def _scalar_collisions(group: Group, K: CompactSet, a: Element, n_max: int) -> np.ndarray:
    """Entry n - 1 tells whether K ∩ K·a^{±n} ≠ ∅, for n = 1..n_max, by
    repeated ``mul``: the reference for the closed form."""
    base = K.elements
    collides = np.zeros(n_max, dtype=bool)
    an = group.identity()
    for n in range(1, n_max + 1):
        an = group.mul(an, a)
        a_neg = group.inv(an)
        collides[n - 1] = any(group.mul(k, an) in base for k in base) or any(
            group.mul(k, a_neg) in base for k in base
        )
    return collides


class CoordinateIndex:
    """Row lookup over a finite set of distinct int64 coordinate rows.

    Each prefix of a row's coordinates is keyed by its rank among the
    set's own prefixes: the previous key times the number of values of the
    next coordinate, plus that value's rank, re-ranked.  Keys thus stay
    below the set's size squared, whatever the rank or the coordinates."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        # An empty set has one coordinate, which takes no values.
        cols = np.array(rows, dtype=np.int64).T if len(rows) else np.zeros((1, 0), dtype=np.int64)
        self._values = [_sorted_unique(col) for col in cols]
        self._levels = []
        key = np.searchsorted(self._values[0], cols[0])  # already a rank among the set's own
        for v, col in zip(self._values[1:], cols[1:]):
            key = key * len(v) + np.searchsorted(v, col)
            self._levels.append(_sorted_unique(key))
            key = np.searchsorted(self._levels[-1], key)
        self._row_of = np.full(len(rows) + 1, -1)  # the last slot answers every miss
        self._row_of[key] = np.arange(len(rows))

    def find(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """The row each query point equals, or -1; cols holds one int64 array per coordinate."""
        key, found = _lookup(self._values[0], cols[0])
        found &= len(cols) == len(self._values)  # a point of another rank is in no set
        for v, level, col in zip(self._values[1:], self._levels, cols[1:]):
            rank, ok = _lookup(v, col)
            key, ok_key = _lookup(level, key * len(v) + rank)
            found &= ok & ok_key
        return self._row_of[np.where(found, key, -1)]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    # Python's sort keeps numpy's SIMD sort kernels (1 MB resident) out of the
    # process; int64's maximum, past any guarded value, stops every search.
    return np.array([*sorted(set(values.tolist())), 2**63 - 1], dtype=np.int64)


def _lookup(sorted_values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, present) of each x in sorted_values."""
    at = np.searchsorted(sorted_values, x)
    return at, sorted_values[at] == x


# Shifted copies of K are tested this many points at a time: a block's
# int64 temporaries then stay under 1 MiB, and larger blocks ran slower.
_BLOCK_POINTS = 1 << 14


def _closed_form_collisions(group: Group, K: CompactSet, a: Element, n_max: int) -> Optional[np.ndarray]:
    """``_scalar_collisions`` from the closed-form orbits, or None when K
    is empty or a point of K is past the ``orbit_bound`` guard."""
    base = list(K.elements)
    if not base or any(group.orbit_bound(k, a, n_max) >= INT64_GUARD for k in base):
        return None
    ks = np.array([group.coords(k) for k in base], dtype=np.int64)
    index = CoordinateIndex(ks)
    collides = np.zeros(n_max, dtype=bool)
    step = max(1, _BLOCK_POINTS // len(base))
    for start in range(1, n_max + 1, step):
        js = np.arange(start, min(start + step, n_max + 1))
        collides[js - 1] = (index.find(group.orbit_coords(ks, a, js)) >= 0).any(axis=0)
    return collides


GROUP_KINDS = {
    "Z": IntegerGroup,
    "Zd": LatticeGroup,
    "heisenberg": HeisenbergGroup,
    "cyclic": CyclicGroup,
}
