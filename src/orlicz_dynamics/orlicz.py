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

``luxemburg_norm`` and ``modular`` read only the vector's values, so
both also take them as a float64 array of its nonzero values in its
insertion order, such as ``translations.Stack.column``, and give the
vector's result bit for bit.

For alphalog and table Young functions the root has no closed form.
``modular`` is the exact pass: it divides the vector's absolute values
by k (numpy's abs and / round as Python's do) a block at a time, and
streams them, in insertion order, through the Young function's
``evaluate_many`` (libm, bit-identical to scalar ``evaluate``) and adds
the terms left to right, one rounding per addition, on every Python
version.  Every such norm is
defined by it: ``_secant_bracket`` closes a bracket (a, b) with the
exact modular r above 1 at a and below 1 at b, until b <= a (1 + 1e-12)
or a and b are adjacent floats, and the norm is a + (b - a) / 2.  The
bracket holds a sign change of the computed r, not of the exact rho:
where log rho is nearly flat at the root (alphalog alpha = 1.0000001
with one dominant entry, slope about -1e-7 in log k), r's rounding
spreads its sign changes over up to about 6e-9 of k, relative, and the
norm is only that accurate there.

Each probe k reads v, a float on the same side of 1 as r(k): the sum s
of a numpy screen where it is certain, r(k) itself elsewhere.  The
screen is the family's ``evaluate_array`` on |f|/k in one buffer,
summed pairwise by ``np.add.reduce``, and s decides a probe when

    s < SCREEN_CEILING  and  |s - 1| > E(n, s) = (4n + 64) u s + n 2^-1000,

with u = 2^-53 and n the support size.  E bounds |s - r|.  Let a_i be
the exact terms and b_i the screen's, A and B their exact sums.  Four
facts certify each end of the bracket.

* |r - A| is below about (n - 1) u s: summing n nonnegative terms in
  any order, sequentially or pairwise, errs by at most
  (n - 1) u / (1 - (n - 1) u) times their sum.
* |s - B| is below about (n - 1) u s, for the same reason.
* |A - B| is below about 32 u s + n 2^-1000: each |a_i - b_i| is at
  most 32 u a_i, or 2^-1000 where both are that small (see ``young``).
* The three total under E while n u stays far below 1.

Hence |s - 1| > E gives r - 1 the sign of s - 1 and r != 1: the end s
moves is an end r certifies.  A term that the exact pass would overflow
or reject (OverflowError, OutOfRangeError) makes s inf, nan or at least
the ceiling, so those probes run ``modular``.

The steps are a safeguarded secant in log k on log v.  The first probe
is k0 = max|f| / min(1, domain_max), or the domain's edge should that
quotient round below it (see ``_domain_edge``).  While one end is open,
the next probe extrapolates through the last probe and the earlier one
of least |log v|, or with slope -1 from the first; it never leaves
[edge, DBL_MAX].  Once both ends hold, it is the secant root through
the same two probes, aimed 2.5e-13 past it toward the wider end, so that
a close estimate moves that end to within 2.5e-13 of the root.  Where
that leaves (a, b), or the bracket's width in log k did not halve over
the last two probes, the probe is the midpoint in log k.  Every probe
lies strictly between the certified ends, so the loop ends, and a
subnormal norm stops on adjacent floats.  A probe whose exact modular
is 1 is the norm.

No exact pass raises.  A table is only probed at k >= its domain edge,
where every |f_i|/k lies in its domain and its interpolation raises
nothing; below the edge Phi(max|f|/k) is infinite, so where v <= 1 at
the edge the norm is the edge.  Alphalog has Phi(1) = 1 exactly and
starts at k0 = max|f|, where rho >= 1: k0 is a (or the norm), and every
later probe lies above it, where every |f_i|/k <= 1 and no term
overflows.  A norm past the float range shows as v > 1 at DBL_MAX and
raises OrliczDynamicsError.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import NonFiniteVectorError, OrliczDynamicsError
from .groups import CompactSet, Element, Group
from .numerics import UNIT_ROUNDOFF
from .young import SCREEN_CEILING, PowerYoung, YoungFunction, inverse

_MAX = sys.float_info.max
# How far past the secant's root, relative, a probe is aimed: a quarter
# of the 1e-12 stop, so one close probe on each side meets it.
_AIM = 2.5e-13
# Values per numpy step of the exact modular.
_BLOCK = 4096

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
        self._data = {x: fv for x, v in items if (fv := float(v)) != 0.0}

    @classmethod
    def _adopt(cls, data: dict) -> "OrliczVector":
        """The vector that holds data itself, whose values are already
        nonzero Python floats: no copy and no check."""
        vec = cls.__new__(cls)
        vec._data = data
        return vec

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
        # a - b is a + (-b) in IEEE arithmetic: the bits and key order of
        # self + other.scale(-1.0), in one merge.
        acc = dict(self._data)
        for x, v in other._data.items():
            d = acc.get(x, 0.0) - v
            if d != 0.0:
                acc[x] = d
            else:
                del acc[x]
        return OrliczVector._adopt(acc)

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
    return OrliczVector._adopt(acc)


def modular(f: OrliczVector | np.ndarray, phi: YoungFunction, k: float) -> float:
    """Sum of Phi(|f(x)|/k) over the support (counting measure); f is a
    vector or the array of its values (see ``_values``)."""
    if not k > 0.0:
        raise ValueError("modular scale k must be > 0")
    values = _values(f)
    # A block of terms at a time, so a large support's terms never all
    # exist at once.  numpy's abs and / round as Python's, and past the
    # float range both give inf.
    blocks = (np.abs(values[i : i + _BLOCK]) / k for i in range(0, len(values), _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        return _left_sum(chain.from_iterable(phi.evaluate_many(block.tolist()) for block in blocks))


def luxemburg_norm(f: OrliczVector | np.ndarray, phi: YoungFunction) -> float:
    """inf{k > 0 : modular(f, phi, k) <= 1}; 0 for the zero vector.

    The modular is continuous and strictly decreasing in k on finitely
    supported vectors, so the infimum is the root of rho(k) = 1.  A
    power norm takes its closed form (``_power_norm``); any other norm
    is the midpoint a + (b - a) / 2 of the certified bracket that
    ``_secant_bracket`` closes, to 1e-12 relative, around a sign change
    of the computed modular.  That is within 1e-12 of the root except
    where log rho is nearly flat there: with alphalog alpha = 1.0000001
    and one dominant entry, its slope in log k is about -1e-7, so the
    modular's rounding spreads its sign changes over up to about 6e-9 of
    k, relative, and the bracket certifies one of them.  A norm past the
    float range raises OrliczDynamicsError.
    f is a vector or the array of its values (see ``_values``).
    """
    values = _values(f)
    if not len(values):
        return 0.0
    absf = np.abs(values)
    top = float(absf.max())
    if not math.isfinite(top):  # nan or inf where an entry is not finite
        raise NonFiniteVectorError(f"entry {float(values[np.isfinite(values).argmin()])!r} is not finite")
    if isinstance(phi, PowerYoung):
        return _power_norm(absf, top, phi.p)
    a, b = _secant_bracket(absf, top, phi)
    return a + (b - a) / 2.0


def _values(f: OrliczVector | np.ndarray) -> np.ndarray:
    """The values of f in its order as float64: a vector's read into a new
    array, and an array of a vector's nonzero values, such as a stack's
    ``translations.Stack.column``, as it is.  The norms and the modular
    read f only through these values."""
    return f if isinstance(f, np.ndarray) else np.fromiter(f.values(), float, len(f))


def _power_norm(absf: np.ndarray, top: float, p: float) -> float:
    """(sum |f|^p / p)^(1/p), the norm under Phi(t) = |t|^p / p, as
    M (S / p)^(1/p) with M = top = max|f| and S the fsum of (|f| / M)^p,
    from |f|'s finite values, which it overwrites."""
    absf /= top
    norm = top * math.pow(math.fsum(map(math.pow, absf.tolist(), repeat(p))) / p, 1.0 / p)
    if norm == math.inf:
        raise OrliczDynamicsError(f"norm under PowerYoung(p={p!r}) exceeds the largest float")
    return norm


def _secant_bracket(absf: np.ndarray, top: float, phi: YoungFunction) -> tuple[float, float]:
    """Floats a <= b around the norm under an alphalog or table phi of a
    vector f, given |f|'s finite values and top = max|f|: the exact
    modular exceeds 1 at a and falls below it at b, and b <= a (1 + 1e-12)
    or a and b are adjacent.  a == b where a probe's exact modular is 1,
    or where the norm is the table's domain edge.  See the module
    docstring for the probes and why no exact pass raises."""
    n = len(absf)
    edge = _domain_edge(top, phi.domain_max)
    if edge == math.inf:
        raise OrliczDynamicsError(f"norm exceeds the largest float: {top!r} / {phi.domain_max!r} overflows")
    rel, floor = _screen_tolerance(n)
    buf = np.empty(n)

    def value(k: float) -> float:
        # The screen's sum where E certifies its side of 1, else the exact pass.
        np.divide(absf, k, out=buf)
        s = float(np.add.reduce(phi.evaluate_array(buf)))
        if s < SCREEN_CEILING and abs(s - 1.0) > rel * s + floor:
            return s
        return modular(absf, phi, k)

    a, b = 0.0, math.inf  # no end certified yet
    k, best = max(top / min(1.0, phi.domain_max), edge), None
    widths = (math.inf, math.inf)  # log(b / a) after each of the last two probes
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            v = value(k)
            if v == 1.0 or (v < 1.0 and k == edge):
                return k, k
            if v > 1.0:
                a = k
            else:
                b = k
            if a == _MAX:
                raise OrliczDynamicsError(f"norm exceeds the largest float: rho(f / {_MAX!r}) > 1")
            if b - a <= 1e-12 * a or math.nextafter(a, b) == b:
                return a, b
            # The secant through this probe and the earlier one nearest the
            # root, the least |log v|.
            y = math.log(max(v, 5e-324))
            d = math.log(k / best[0]) if best else 0.0
            slope = (y - best[1]) / d if d else 0.0
            if not best or abs(y) <= abs(best[1]):
                best = (k, y)
            est = k * math.exp(min(y / -slope if slope < 0.0 else y, 709.0))
            mid = math.sqrt(a) * math.sqrt(b)
            k = est * (1.0 + _AIM) if est < mid else est * (1.0 - _AIM)
            if b == math.inf:
                k = min(max(k, math.nextafter(a, b)), _MAX)
            elif a == 0.0:
                k = max(min(k, math.nextafter(b, a)), edge)
            else:
                w = math.log(b / a)
                if w > 0.5 * widths[0] or not a < k < b:
                    k = mid if a < mid < b else a + (b - a) / 2.0
                widths = (widths[1], w)


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
    while (lower := math.nextafter(edge, 0.0)) > 0.0 and top / lower <= domain_max:
        edge = lower
    return edge


def _screen_tolerance(n: int) -> tuple[float, float]:
    """(rel, floor) with E(n, s) = rel * s + floor."""
    return (4 * n + 64) * UNIT_ROUNDOFF, n * 2.0**-1000


def indicator_norm_closed_form(B: CompactSet, phi: YoungFunction) -> float:
    """Norm of a characteristic function: 1 / Phi^{-1}(1/|B|)."""
    size = B.measure()
    if size < 1:
        raise ValueError("indicator set must be nonempty")
    return 1.0 / inverse(phi, 1.0 / size)


def translate(f: OrliczVector, group: Group, a: Element) -> OrliczVector:
    """Right translate: result(x * a) = f(x) for every support point x."""
    return OrliczVector({group.mul(x, a): v for x, v in f.items()})
