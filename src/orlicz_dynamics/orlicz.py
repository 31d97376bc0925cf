"""Finitely supported vectors on a discrete group and the Luxemburg norm.

With counting measure the modular is a finite sum
rho(f/k) = sum_x Phi(|f(x)|/k), and the Luxemburg norm
inf{k > 0 : rho(f/k) <= 1} is the root of rho(f/k) = 1, found by a
doubling/halving bracket and bisection.

``modular`` is the exact pass: it streams the vector's values, in
insertion order, through the Young function's ``evaluate_many`` (libm,
bit-identical to scalar ``evaluate``) and adds the terms left to right,
one rounding per addition, on every Python version.  Every norm is
defined by it.

The bracket loops and ``bisect_root`` read only the sign of
rho(f/k) - 1 and whether it is zero.  On supports of at least
``SCREEN_MIN`` entries ``luxemburg_norm`` takes that sign from a numpy
screen: the family's ``evaluate_array`` on |f|/k in one buffer, summed
pairwise by ``np.add.reduce``.  The screen's sum s decides a step when

    s < SCREEN_CEILING  and  |s - 1| > E(n, s) = (4n + 64) u s + n 2^-1000,

with u = 2^-53 and n the support size; otherwise ``modular`` decides it.
E bounds |s - r| for the exact pass's value r.  Let a_i be the exact
terms and b_i the screen's, A and B their exact sums.  Summing n
nonnegative terms in any order, sequentially or pairwise, errs by at most
(n - 1) u / (1 - (n - 1) u) times their sum, so |r - A| and |s - B| are
each below about (n - 1) u s.  Each |a_i - b_i| is at most 32 u a_i, or
2^-1000 where both are that small (see ``young``), so |A - B| is below
about 32 u s + n 2^-1000.  That totals under E while n u stays far below
1.  Hence |s - 1| > E gives r - 1 the sign of s - 1 and r != 1, and
returning s - 1 in place of r - 1 leaves every bracket step, bisection
iterate and norm bit-identical.  A term that the exact pass would
overflow or reject (OverflowError, OutOfRangeError) makes s inf, nan or
at least the ceiling, so those steps run ``modular`` and raise as before.

Below ``SCREEN_MIN`` one exact pass costs less than a screened one (the
crossover is about 16 entries), so small supports take ``modular`` at
every step.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import repeat
from operator import add, truediv
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NonFiniteVectorError
from .groups import CompactSet, Element, Group
from .numerics import bisect_root
from .young import SCREEN_CEILING, YoungFunction, inverse

# Supports at least this large take their bisection decisions from the
# numpy screen; the measured break-even with the exact pass.
SCREEN_MIN = 16

if sys.version_info >= (3, 12):
    # From 3.12 on builtin sum compensates (Neumaier), so its bits depend
    # on the interpreter; the plain fold gives 3.11's.
    def _left_sum(terms: Iterable[float]) -> float:
        return reduce(add, terms, 0.0)
else:
    _left_sum = sum  # the same fold, about 6 times faster


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
        return vector_sum((self, other))

    def __sub__(self, other: "OrliczVector") -> "OrliczVector":
        return self + other.scale(-1.0)

    def restrict(self, elements: Iterable[Element] | CompactSet) -> "OrliczVector":
        """Pointwise product with the indicator of ``elements``."""
        keep = set(elements)
        return OrliczVector({x: v for x, v in self._data.items() if x in keep})

    def mul_pointwise(self, factor: Callable[[Element], float]) -> "OrliczVector":
        """Pointwise product f(x) * factor(x) over the support."""
        return OrliczVector({x: v * factor(x) for x, v in self._data.items()})


def vector_sum(pieces: Sequence[OrliczVector]) -> OrliczVector:
    """The sum of one or more vectors, added left to right.

    A key whose running sum reaches 0.0 is dropped at once and, should a
    later piece bring it back, appended at the end: the keys, their order
    and the bits of repeated ``+``, since a piece holds each key once."""
    first, *rest = pieces
    acc = dict(first._data)
    for piece in rest:
        for x, v in piece._data.items():
            s = acc.get(x, 0.0) + v
            if s != 0.0:
                acc[x] = s
            else:
                del acc[x]
    return OrliczVector(acc)


def modular(f: OrliczVector, phi: YoungFunction, k: float) -> float:
    """Sum of Phi(|f(x)|/k) over the support (counting measure)."""
    if not k > 0.0:
        raise ValueError("modular scale k must be > 0")
    return _left_sum(phi.evaluate_many(map(truediv, map(abs, f.values()), repeat(k))))


def luxemburg_norm(f: OrliczVector, phi: YoungFunction) -> float:
    """inf{k > 0 : modular(f, phi, k) <= 1}; 0 for the zero vector.

    The modular is continuous and strictly decreasing in k on finitely
    supported vectors, so the infimum is the root of rho(k) = 1.
    Bracket: start at max|f| / min(1, domain_max), where every |f|/k lies
    in Phi's domain, double until rho <= 1, halve until rho >= 1, then
    bisect to relative tolerance 1e-12 on k.  Supports of at least
    ``SCREEN_MIN`` entries take each step's sign from the numpy screen
    where it is certain (see the module docstring).
    """
    if not f:
        return 0.0
    for _, v in f.items():
        if not math.isfinite(v):
            raise NonFiniteVectorError(f"entry {v!r} is not finite")
    k0 = f.max_abs() / min(1.0, phi.domain_max)
    if len(f) < SCREEN_MIN:
        return _norm_root(lambda k: modular(f, phi, k) - 1.0, k0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _norm_root(_screened_excess(f, phi), k0)


def _screened_excess(f: OrliczVector, phi: YoungFunction) -> Callable[[float], float]:
    """k -> a float with the sign of rho(f/k) - 1 that is 0 only when
    rho(f/k) == 1: the screen's s - 1 where E certifies it, else the
    exact ``modular(f, phi, k) - 1``."""
    n = len(f)
    absf = np.abs(np.fromiter(f.values(), float, n))
    buf = np.empty(n)
    rel, floor = _screen_tolerance(n)

    def excess(k: float) -> float:
        np.divide(absf, k, out=buf)
        s = float(np.add.reduce(phi.evaluate_array(buf)))
        if s < SCREEN_CEILING and abs(s - 1.0) > rel * s + floor:
            return s - 1.0
        return modular(f, phi, k) - 1.0

    return excess


def _screen_tolerance(n: int) -> tuple[float, float]:
    """(rel, floor) with E(n, s) = rel * s + floor."""
    return (4 * n + 64) * 2.0**-53, n * 2.0**-1000


def _norm_root(excess: Callable[[float], float], k0: float) -> float:
    """Bracket and bisect the root of excess, which is positive below
    the norm and negative above it, starting from k0."""
    hi = k0
    guard = 0
    while excess(hi) > 0.0:
        hi *= 2.0
        guard += 1
        if guard > 4096:
            raise RuntimeError("norm bracket expansion failed to terminate")
    lo = hi
    while excess(lo) < 0.0:
        lo *= 0.5
        guard += 1
        if guard > 8192 or lo == 0.0:
            raise RuntimeError("norm bracket contraction failed to terminate")
    if lo == hi:
        return lo
    return bisect_root(excess, lo, hi)


def indicator_norm_closed_form(B: CompactSet, phi: YoungFunction) -> float:
    """Norm of a characteristic function: 1 / Phi^{-1}(1/|B|)."""
    size = B.measure()
    if size < 1:
        raise ValueError("indicator set must be nonempty")
    return 1.0 / inverse(phi, 1.0 / size)


def translate(f: OrliczVector, group: Group, a: Element) -> OrliczVector:
    """Right translate: result(x * a) = f(x) for every support point x."""
    return OrliczVector({group.mul(x, a): v for x, v in f.items()})
