"""Discrete groups with exact integer arithmetic.

Concrete groups: the integers, integer lattices, the integer Heisenberg
group and finite cyclic groups.  Elements are plain ints or int tuples,
so they hash and compare natively.  A group's ``kind``, its name in a
config, is a class constant, and ``GROUP_KINDS`` maps it to the class;
the dataclass fields (``d``, ``m``) are the only constructor parameters.
Haar measure is counting measure throughout; "compact set" means a
finite explicit set of elements.  Each group states its law in closed
form twice: ``mul``, and ``pow(g, n)`` for every integer n.  The inverse
is derived once, as ``pow(g, -1)``.  Each group also gives the order of
an element in closed form (``element_order``).

Each group also gives ``orbit_index(x, a) = (r, i)``: x = r·a^i, where r
is the same for every point of the orbit x·a^n (n in Z), and i is taken
modulo the order of a when that is finite.  Two points share an orbit
exactly when their r agree, and then x·a^j = y exactly when j = i_y - i_x.
It is exact integer arithmetic with no size limit; ``separation_constant``
and the weight fills in ``translations`` derive every orbit from it.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar, Hashable, Iterable, Optional, Sequence


from .errors import TorsionElementError

Element = Hashable


class Group(ABC):
    """Countable discrete group: identity, multiplication and powers."""

    kind: ClassVar[str]

    @abstractmethod
    def identity(self) -> Element: ...

    @abstractmethod
    def mul(self, g: Element, h: Element) -> Element: ...

    @abstractmethod
    def pow(self, g: Element, n: int) -> Element:
        """g^n for every integer n, in closed form."""

    def inv(self, g: Element) -> Element:
        """g^-1, derived from ``pow``."""
        return self.pow(g, -1)

    @abstractmethod
    def coords(self, g: Element) -> list[int]:
        """Serialize an element as a list of ints."""

    @abstractmethod
    def element(self, coords: Sequence[int] | int) -> Element:
        """Inverse of :meth:`coords`; accepts a bare int for rank-1 groups."""

    @abstractmethod
    def orbit_index(self, x: Element, a: Element) -> tuple[Element, int]:
        """(r, i) with x = r·a^i, where r is the same for every point of
        the orbit x·a^n and i is taken modulo ``element_order(a)`` when
        that is finite: x·a^j = y exactly when both give the same r and
        j = i_y - i_x (modulo that order)."""

    def element_order(self, g: Element) -> Optional[int]:
        """Least n >= 1 with g^n = identity, or None when g has infinite
        order.  This default serves the torsion-free groups, where only
        the identity has finite order; finite groups override it."""
        return 1 if g == self.identity() else None


@dataclass(frozen=True)
class IntegerGroup(Group):
    """The additive group of integers."""

    kind: ClassVar[str] = "Z"

    def identity(self):
        return 0

    def mul(self, g, h):
        return g + h

    def pow(self, g, n):
        return n * g

    def orbit_index(self, x, a):
        i = _lead_index((x,), (a,))
        return x - i * a, i

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
    kind: ClassVar[str] = "Zd"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("lattice rank must be >= 1")

    def identity(self):
        return (0,) * self.d

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def pow(self, g, n):
        return tuple(n * c for c in g)

    def orbit_index(self, x, a):
        i = _lead_index(x, a)
        return tuple(xk - i * ak for xk, ak in zip(x, a)), i

    def coords(self, g):
        return list(g)

    def element(self, coords):
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class HeisenbergGroup(Group):
    """Integer Heisenberg group on triples (x, y, z) with
    (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+x*y') and
    (x,y,z)^n = (nx, ny, nz + xy n(n-1)/2)."""

    kind: ClassVar[str] = "heisenberg"

    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        x, y, z = g
        xp, yp, zp = h
        return (x + xp, y + yp, z + zp + x * yp)

    def pow(self, g, n):
        x, y, z = g
        return (n * x, n * y, n * z + x * y * (n * (n - 1) // 2))

    def orbit_index(self, x, a):
        # The first two coordinates of x·a^t are linear in t, and so is the
        # third when a1 = a2 = 0.
        i = _lead_index(x, a)
        return self.mul(x, self.pow(a, -i)), i

    def coords(self, g):
        return list(g)

    def element(self, coords):
        x, y, z = coords
        return (int(x), int(y), int(z))


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Finite cyclic group of residues mod m (additive)."""

    m: int = 2
    kind: ClassVar[str] = "cyclic"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("cyclic modulus must be >= 1")

    def identity(self):
        return 0

    def mul(self, g, h):
        return (g + h) % self.m

    def pow(self, g, n):
        return n * g % self.m

    def orbit_index(self, x, a):
        # x·a^i = x + i*a covers the residues x mod g, g = gcd(a, m), with
        # period m / g; a / g is invertible modulo that period.
        g = math.gcd(a, self.m)
        r = x % g
        period = self.m // g
        return r, (x - r) // g * pow(a // g, -1, period) % period

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
    """Finite explicit element set; the counting measure is its size.  Its
    points are held once, in native order, which is coordinate order on
    every group here, whatever iterable built it."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def of(cls, elements: Iterable[Element]) -> "CompactSet":
        return cls(elements)

    def measure(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        try:
            i = bisect_left(self.elements, g)
        except TypeError:  # g does not compare with the points: not one of them
            return False
        return i < len(self.elements) and self.elements[i] == g


def box(group: Group, bounds: Sequence[Sequence[int]]) -> CompactSet:
    """Coordinate box: bounds is one (lo, hi) inclusive pair per coordinate."""
    ranges = []
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError(f"empty bound ({lo}, {hi})")
        ranges.append(range(int(lo), int(hi) + 1))
    return CompactSet.of(group.element(list(c)) for c in itertools.product(*ranges))


def separation_constant(group: Group, K: CompactSet, a: Element, n_max: int) -> Optional[int]:
    """Smallest M with K ∩ K·a^{±n} = ∅ for every n in (M, n_max].

    Returns None when separation cannot be certified within the budget
    (the last probed shift still collides).  Raises TorsionElementError
    for elements of finite order, for which no such M can exist.

    K meets K·a^{±n} exactly when two points of K share an orbit and
    their ``orbit_index`` exponents differ by n.  So K is grouped by
    orbit, each orbit's exponents are sorted, and the last collision is
    the largest difference within an orbit that is at most n_max, found
    with two pointers: exact, and O(|K| log |K|) whatever n_max is.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    order = group.element_order(a)
    if order is not None:
        raise TorsionElementError(order)
    orbits: dict = {}
    for k in K:
        r, i = group.orbit_index(k, a)
        orbits.setdefault(r, []).append(i)
    last_collision = 0
    for exps in orbits.values():
        exps.sort()
        lo = 0
        for top in exps:
            while top - exps[lo] > n_max:
                lo += 1
            last_collision = max(last_collision, top - exps[lo])
    if last_collision == n_max:
        return None
    return last_collision


def point_bytes(group: Group) -> int:
    """Bytes a point costs besides any series: as a member of K with its
    orbit entry in ``separation_constant`` (up to 250 + 46 d on rank d, d =
    1..24, by tracemalloc), or as a vector entry (up to 250 on ranks 1..3;
    CPython 3.11, coordinates up to 2^100).  This rounds up.  Two price
    functions read it: ``criteria.K_bytes``, the price of K, and
    ``translations.iterates_bytes``, that of an ``iterates`` call."""
    return 256 + 48 * len(group.coords(group.identity()))


def _lead_index(x: Sequence[int], a: Sequence[int]) -> int:
    """x_k // a_k at the first nonzero coordinate a_k of a (0 when a is the
    identity): the exponent i of x = r·a^i on a coordinate linear in i."""
    for xk, ak in zip(x, a):
        if ak:
            return xk // ak
    return 0


GROUP_KINDS = {cls.kind: cls for cls in (IntegerGroup, LatticeGroup, HeisenbergGroup, CyclicGroup)}
