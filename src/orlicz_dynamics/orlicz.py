"""Finitely supported vectors on a discrete group and the Luxemburg norm.

With counting measure the modular is a finite sum
rho(f/k) = sum_x Phi(|f(x)|/k), and the Luxemburg norm
inf{k > 0 : rho(f/k) <= 1} is the root of rho(f/k) = 1.

For Phi(t) = |t|^p / p the root has a closed form,
N(f) = (sum_x |f(x)|^p / p)^(1/p), and ``luxemburg_norm`` takes it with
no bracket: M = max|f|, S = ``math.fsum`` of (|f(x)| / M)^p, and
N = M (S / p)^(1/p) (see ``_power_norm``).  Each term is one libm
``math.pow``, as in ``evaluate_many``.  The largest term is exactly 1,
so nothing overflows before the last product, and a term that underflows
moves S by less than n 2^-1074.  fsum rounds once and does not depend on
the order of the entries.

For alphalog and table Young functions the root is found by a
doubling/halving bracket and bisection.  ``modular`` is the exact pass:
it streams the vector's values, in insertion order, through the Young
function's ``evaluate_many`` (libm, bit-identical to scalar
``evaluate``) and adds the terms left to right, one rounding per
addition, on every Python version.  Every such norm is defined by it.

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
at least the ceiling, so those steps run ``modular``.

Before the bracket starts, ``_band`` looks for a band (a, b) around the
root outside which the sign of rho(f/k) - 1 is proven, from the value v
the norm already computes: the screen's s, or the exact r below
``SCREEN_MIN``.  The proof rests on four facts.

* T(k) = sum_i Phi(fl(|f_i|/k)), with Phi evaluated exactly, is
  nonincreasing in k: a correctly rounded division is monotone in k and
  every family's Phi is nondecreasing.
* r and s each lie within E(n, v) of T.  Each exact term is within 8u
  of its Phi (libm's pow and log err by at most one ulp, 2u, and a table
  term takes six roundings), each screen term within 32u more, unless
  the terms are below 2^-1000; the sums add (n - 1) u.  So with
  B = (n + 39) u, T is within B max(v, T) + n 2^-1000 of v, well inside
  E(n, v).
* So v(a) - 1 > 2 E(n, v(a)) proves rho(f/k) > 1 at every k <= a:
  r(k) >= (1 - B) T(k) - n 2^-1000 >= (1 - B) T(a) - n 2^-1000
  >= (1 - B)^2 v(a) - 2n 2^-1000 > 1.
* Likewise 1 - v(b) > 2 E(n, v(b)) proves rho(f/k) < 1 at every k >= b.

The wrapper that ``_norm_root`` calls answers -1.0 at k >= b and 1.0 at
k <= a, and runs the real step inside (a, b).  The bracket loops and
``bisect_root`` read only signs and zeros, so every step, iterate, norm
and hash stays the same.  No step the wrapper answers would have raised
on the exact path, so it answers them without a check.  A table is only
asked at k >= its domain edge, where every |f_i|/k lies in its domain,
and its interpolation raises nothing there.  Alphalog has Phi(1) = 1
exactly and the bracket starts at k0 = max|f|, so rho(k0) >= 1: the
doubling only rises from k0, the halving undoes at most one doubling,
and the bisection stays between them.  Every step therefore has
|f_i|/k <= 1, where no term overflows.  The band search itself never
raises; where it certifies no end it leaves that side to the real steps.

Below ``SCREEN_MIN`` a norm costs less from exact passes than from the
screen, so small supports take ``modular`` for v and for every step
inside the band.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import repeat
from operator import add, truediv
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NonFiniteVectorError, OrliczDynamicsError, OutOfRangeError
from .groups import CompactSet, Element, Group
from .numerics import UNIT_ROUNDOFF, bisect_root
from .young import SCREEN_CEILING, PowerYoung, YoungFunction, inverse

# Alphalog and table supports at least this large take v and their steps
# from the numpy screen (power norms take the closed form at every size).
# Measured under the band (best of 7 runs of 40 norms a size on a 2-vCPU
# x86-64 VM, CPython 3.11, numpy 2.4), an alphalog norm costs the same
# both ways at about 20 entries, while a 401-knot table is faster screened
# at every size (at 16 entries: alphalog 70 us screened against 61 exact,
# table 62 against 163).
SCREEN_MIN = 16
# The bracket doubles k only up to here: past it the next doubling
# overflows, and the norm is larger still.
_HALF_MAX = sys.float_info.max / 2.0

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
    supported vectors, so the infimum is the root of rho(k) = 1.  A
    power norm takes its closed form (``_power_norm``); a norm past the
    float range raises OrliczDynamicsError.  Otherwise, bracket: start
    at max|f| / min(1, domain_max), where every |f|/k lies in Phi's
    domain (or at the domain's edge, see ``_domain_edge``, should that
    quotient round below it), double until rho <= 1, halve until
    rho >= 1, then bisect to relative tolerance 1e-12 on k.  The halving
    stops at the edge: below it Phi(max|f|/k) is infinite, so when rho is
    still at most 1 there the norm is the edge.
    A certified band around the root answers every step outside it, and
    supports of at least ``SCREEN_MIN`` entries take each step's sign
    from the numpy screen where it is certain (see the module docstring).
    """
    if not f:
        return 0.0
    if isinstance(phi, PowerYoung):
        return _power_norm(f, phi.p)
    n = len(f)
    if n < SCREEN_MIN:
        for v in f.values():
            if not math.isfinite(v):
                raise NonFiniteVectorError(f"entry {v!r} is not finite")

        def rho(k: float) -> float:
            return modular(f, phi, k)

        return _banded_root(rho, lambda k: rho(k) - 1.0, phi, f.max_abs(), n)
    values = np.fromiter(f.values(), float, n)
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteVectorError(f"entry {float(values[finite.argmin()])!r} is not finite")
    absf = np.abs(values, out=values)
    screen = _screen(phi, absf)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _banded_root(screen, _screened_excess(f, phi, screen), phi, float(absf.max()), n)


def _power_norm(f: OrliczVector, p: float) -> float:
    """(sum |f|^p / p)^(1/p), the norm under Phi(t) = |t|^p / p, as
    M (S / p)^(1/p) with M = max|f| and S the fsum of (|f| / M)^p."""
    absf = np.fromiter(f.values(), float, len(f))
    top = float(np.abs(absf, out=absf).max())  # nan or inf where an entry is not finite
    if not math.isfinite(top):
        v = next(v for v in f.values() if not math.isfinite(v))
        raise NonFiniteVectorError(f"entry {v!r} is not finite")
    absf /= top
    norm = top * math.pow(math.fsum(map(math.pow, absf.tolist(), repeat(p))) / p, 1.0 / p)
    if norm == math.inf:
        raise OrliczDynamicsError(f"norm under PowerYoung(p={p!r}) exceeds the largest float")
    return norm


def _banded_root(
    value: Callable[[float], float], excess: Callable[[float], float], phi: YoungFunction, top: float, n: int
) -> float:
    """The norm from value (k -> the exact modular or the screen) and
    excess, on a support of n entries whose largest |f| is top."""
    edge = _domain_edge(top, phi.domain_max)
    if edge == math.inf:
        raise OrliczDynamicsError(f"norm exceeds the largest float: {top!r} / {phi.domain_max!r} overflows")
    k0 = max(top / min(1.0, phi.domain_max), edge)
    a, b = _band(value, k0, n)

    def banded(k: float) -> float:
        # No step at k <= a raises on the exact path (module docstring).
        if k >= b:
            return -1.0
        return excess(k) if k > a else 1.0

    return _norm_root(banded, k0, edge)


def _domain_edge(top: float, domain_max: float) -> float:
    """The least float k > 0 with top / k <= domain_max (top > 0): from
    there up every |f|/k lies in Phi's domain, below it the largest entry
    leaves it; 5e-324 where top / domain_max underflows, as on an unbounded
    domain.  top / k rounds monotonically in k: step from top / domain_max."""
    edge = top / domain_max
    if edge == 0.0:
        return math.ulp(0.0)
    while top / edge > domain_max:
        edge = math.nextafter(edge, math.inf)
    while top / math.nextafter(edge, 0.0) <= domain_max:
        edge = math.nextafter(edge, 0.0)
    return edge


def _screen(phi: YoungFunction, absf: np.ndarray) -> Callable[[float], float]:
    """k -> the screen's sum s of Phi(|f|/k), through one buffer."""
    buf = np.empty(len(absf))

    def screen(k: float) -> float:
        np.divide(absf, k, out=buf)
        return float(np.add.reduce(phi.evaluate_array(buf)))

    return screen


def _screened_excess(f: OrliczVector, phi: YoungFunction, screen: Callable[[float], float]) -> Callable[[float], float]:
    """k -> a float with the sign of rho(f/k) - 1 that is 0 only when
    rho(f/k) == 1: the screen's s - 1 where E certifies it, else the
    exact ``modular(f, phi, k) - 1``."""
    rel, floor = _screen_tolerance(len(f))

    def excess(k: float) -> float:
        s = screen(k)
        if s < SCREEN_CEILING and abs(s - 1.0) > rel * s + floor:
            return s - 1.0
        return modular(f, phi, k) - 1.0

    return excess


def _screen_tolerance(n: int) -> tuple[float, float]:
    """(rel, floor) with E(n, s) = rel * s + floor."""
    return (4 * n + 64) * UNIT_ROUNDOFF, n * 2.0**-1000


def _band(value: Callable[[float], float], k0: float, n: int) -> tuple[float, float]:
    """A certified band (a, b) around the root of value(k) = 1: the
    modular exceeds 1 at every k <= a and falls below it at every k >= b
    (see the module docstring).  value is the exact modular or the
    screen on a support of n entries.

    Secant steps in log k on log value, the first from k0 with slope -1,
    aim each probe just below or just above the estimated root, at
    relative distance h = 8 rel, on whichever side is looser.  A probe
    whose value lies within 2E of 1 widens h 64-fold, at most 3 times.
    A probe that raises or whose value leaves (0, SCREEN_CEILING) is
    retried halfway, in log k, back to the last good one.  The search
    stops at a band at most 4h wide or after 12 probes, and returns the
    ends certified so far, 0 and inf where none.  It never raises."""
    rel, floor = _screen_tolerance(n)
    a, b = 0.0, math.inf
    h, widenings = 8.0 * rel, 0
    k, prev = k0, None
    for _ in range(12):
        try:
            v = value(k)
        except (OverflowError, OutOfRangeError):
            v = math.nan
        if not 0.0 < v < SCREEN_CEILING:
            if prev is None:
                break
            k = math.sqrt(k) * math.sqrt(prev[0])
            continue
        margin = 2.0 * (rel * v + floor)
        if v - 1.0 > margin:
            a = max(a, k)
        elif 1.0 - v > margin:
            b = min(b, k)
        elif prev is not None:  # a probe too close to the root for its bounds
            if widenings == 3:
                break
            h, widenings = 64.0 * h, widenings + 1
        if b <= a * (1.0 + 4.0 * h):
            break
        y = math.log(v)
        if prev is None:
            step = y  # slope -1
        else:  # to the secant's root, where its slope is negative
            dx, dy = math.log(k / prev[0]), prev[1] - y
            step = y * dx / dy if dx * dy > 0.0 else math.nan
        est = k * math.exp(step) if abs(step) < 700.0 else math.nan
        if not a < est < b:
            if a == 0.0 or b == math.inf:
                break
            est = math.sqrt(a) * math.sqrt(b)
        prev = (k, y)
        k = est * (1.0 - h) if a == 0.0 or est / a >= b / est else est * (1.0 + h)
    return a, b


def _norm_root(excess: Callable[[float], float], k0: float, edge: float) -> float:
    """Bracket and bisect the root of excess, which is positive below
    the norm and negative above it, starting from k0 >= edge; excess is
    only asked at k >= edge, below which it is +inf.  Each loop ends
    within about 2,100 steps, the span of the floats; a norm the
    doubling cannot reach raises OrliczDynamicsError."""
    hi = k0
    while excess(hi) > 0.0:
        if hi > _HALF_MAX:
            raise OrliczDynamicsError(f"norm exceeds {hi!r}: its bracket would double past the largest float")
        hi *= 2.0
    lo = hi
    while excess(lo) < 0.0:
        if lo * 0.5 < edge:
            if lo == edge or excess(edge) <= 0.0:
                return edge
            lo = edge
            break
        lo *= 0.5
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
