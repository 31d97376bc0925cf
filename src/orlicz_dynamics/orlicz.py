"""Finitely supported vectors on a discrete group and the Luxemburg norm.

With counting measure the modular is a finite sum
rho(f/k) = sum_x Phi(|f(x)|/k), and the Luxemburg norm
inf{k > 0 : rho(f/k) <= 1} is the root of rho(f/k) = 1, found by a
doubling/halving bracket and bisection.

Each modular pass streams the vector's values, in insertion order,
through the Young function's batched ``evaluate_many`` and adds the terms
with builtin ``sum``.  The terms are bit-identical to scalar ``evaluate``
calls and the summation order is the same, so every modular, and with it
every bisection iterate and norm, matches the per-entry scalar loop
exactly.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import truediv
from typing import Callable, Iterable, Mapping

from .errors import NonFiniteVectorError
from .groups import CompactSet, Element, Group
from .numerics import bisect_root
from .young import YoungFunction, inverse


class OrliczVector:
    """Sparse real-valued function on a group; zero entries are pruned.

    Treat instances as immutable values: every operation returns a new
    vector and never mutates the receiver.
    """

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[Element, float] | Iterable[tuple[Element, float]] = ()):
        items = data.items() if isinstance(data, Mapping) else data
        self._data = {x: float(v) for x, v in items if float(v) != 0.0}

    @classmethod
    def delta(cls, x: Element, value: float = 1.0) -> "OrliczVector":
        return cls({x: value})

    @classmethod
    def indicator(cls, elements: Iterable[Element]) -> "OrliczVector":
        return cls({x: 1.0 for x in elements})

    def support(self) -> frozenset:
        return frozenset(self._data)

    def items(self):
        return self._data.items()

    def values(self):
        return self._data.values()

    def as_dict(self) -> dict:
        return dict(self._data)

    def __getitem__(self, x: Element) -> float:
        return self._data.get(x, 0.0)

    def __len__(self):
        return len(self._data)

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        return isinstance(other, OrliczVector) and self._data == other._data

    def __repr__(self):
        return f"OrliczVector({self._data!r})"

    def max_abs(self) -> float:
        return max((abs(v) for v in self._data.values()), default=0.0)

    def scale(self, c: float) -> "OrliczVector":
        return OrliczVector({x: c * v for x, v in self._data.items()})

    def __add__(self, other: "OrliczVector") -> "OrliczVector":
        merged = dict(self._data)
        for x, v in other._data.items():
            merged[x] = merged.get(x, 0.0) + v
        return OrliczVector(merged)

    def __sub__(self, other: "OrliczVector") -> "OrliczVector":
        return self + other.scale(-1.0)

    def restrict(self, elements: Iterable[Element] | CompactSet) -> "OrliczVector":
        """Pointwise product with the indicator of ``elements``."""
        keep = set(elements)
        return OrliczVector({x: v for x, v in self._data.items() if x in keep})

    def mul_pointwise(self, factor: Callable[[Element], float]) -> "OrliczVector":
        """Pointwise product f(x) * factor(x) over the support."""
        return OrliczVector({x: v * factor(x) for x, v in self._data.items()})

    def to_pairs(self, group: Group) -> list:
        """Serialize as sorted [coords, value] pairs."""
        rows = [(group.coords(x), v) for x, v in self._data.items()]
        rows.sort(key=lambda r: tuple(r[0]))
        return [[c, v] for c, v in rows]

    @classmethod
    def from_pairs(cls, group: Group, pairs: Iterable) -> "OrliczVector":
        return cls({group.element(c): float(v) for c, v in pairs})


def modular(f: OrliczVector, phi: YoungFunction, k: float) -> float:
    """Sum of Phi(|f(x)|/k) over the support (counting measure)."""
    if not k > 0.0:
        raise ValueError("modular scale k must be > 0")
    return sum(phi.evaluate_many(map(truediv, map(abs, f.values()), repeat(k))))


def luxemburg_norm(f: OrliczVector, phi: YoungFunction) -> float:
    """inf{k > 0 : modular(f, phi, k) <= 1}; 0 for the zero vector.

    The modular is continuous and strictly decreasing in k on finitely
    supported vectors, so the infimum is the root of rho(k) = 1.
    Bracket: start at max|f|, double until rho <= 1, halve until rho >= 1,
    then bisect to relative tolerance 1e-12 on k.
    """
    if not f:
        return 0.0
    for _, v in f.items():
        if not math.isfinite(v):
            raise NonFiniteVectorError(f"entry {v!r} is not finite")
    k0 = f.max_abs()
    hi = k0
    guard = 0
    while modular(f, phi, hi) > 1.0:
        hi *= 2.0
        guard += 1
        if guard > 4096:
            raise RuntimeError("norm bracket expansion failed to terminate")
    lo = hi
    while modular(f, phi, lo) < 1.0:
        lo *= 0.5
        guard += 1
        if guard > 8192 or lo == 0.0:
            raise RuntimeError("norm bracket contraction failed to terminate")
    if lo == hi:
        return lo
    return bisect_root(lambda k: modular(f, phi, k) - 1.0, lo, hi, rel_tol=1e-12)


def indicator_norm_closed_form(B: CompactSet, phi: YoungFunction) -> float:
    """Norm of a characteristic function: 1 / Phi^{-1}(1/|B|)."""
    size = B.measure()
    if size < 1:
        raise ValueError("indicator set must be nonempty")
    return 1.0 / inverse(phi, 1.0 / size)


def translate(f: OrliczVector, group: Group, a: Element) -> OrliczVector:
    """Right translate: result(x * a) = f(x) for every support point x."""
    return OrliczVector({group.mul(x, a): v for x, v in f.items()})
