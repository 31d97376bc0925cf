"""Weighted translation operators and their orbit weight products.

The operator T applies a positive weight after a right translation by a
fixed group element a; S divides by the weight and translates back, so
T(S(h)) = h exactly.  All dynamical criteria reduce to the two product
sequences along the orbit of a point x:

    forward products   prod_{j=1..n} w(x * a^j)
    backward products  1 / prod_{j=0..n-1} w(x * a^{-j})

``keyed_series`` computes both for a set of rows, named by their keys
(below), and yields them a block of rows at a time.  Each weight fills
the (points, steps) block of its values along the orbits in closed
form, straight into the block's series buffer, which is reused from
block to block and holds about ``BLOCK_ELEMENTS`` values.  The system
owns one ``Filler`` each way (``WeightedSystem.fillers``, built on first
use), which every stack and scan reads: key(x), the row key of a point,
and fill(keys, out), which writes the row of each key, reading only the
keys.  Points with equal keys have equal rows at every length.  Along an
orbit every weight family is a few constant runs, solved in exact
Python ints:

* a constant weight is one run, and every point has the one key None;
* a step weight on Z has one cut per row, where x + j·a crosses 1, and
  the key is that cut (inf when a = 0 and the row never reaches it);
* the dyadic weight has at most five sign runs of the integer quadratic
  2z = A c^2 + B c + C in the column c, and the key is (A, B, C), read
  through ``Group.mul`` and ``Group.pow`` from the z of the row's first
  three columns;
* a table weight (and the step weight on a cyclic group, the table
  {0: c_neg} with default c_pos) has its keys grouped by
  ``Group.orbit_index`` once a system.  On an orbit that holds keys the
  row key is the point's (r, i), and the row's hits are the keys at
  exponents j = i_key - i_x, from unsigned int64 exponent gaps given the
  direction's sign (a strided slice when a has finite order); on every
  other orbit the key is None and the row the default.

The series are then one sequential cumprod per row, and a cumsum of the
logs: the same operations, in the same order, on the same float64
weights as the scalar loop ``orbit_weights_forward`` /
``orbit_weights_backward`` that applies ``Group.mul`` once per step, so
every product is bit-identical to it.  That loop is kept as the
reference; no computation takes it.  The per-point views at the end
(``phi_product``, ``phi_series_pair``, ..., and ``_point_series``) have
no caller: they stay only as names the benchmark's tracer spans.

``orbit_stack`` builds the stack of a vector f to a depth: T^c f (or
S^c f) for c = 0..depth, one column each, from the same weight rows, and
refuses one that would pass ``SERIES_MEMORY_CAP`` before it allocates.
It fills the row of each distinct key once and copies it, in place, to
the rows of the other points with that key.  Each point's row starts
with its value in f, and a multiply (T) or divide (S) accumulate along
the row repeats the one-step loop's v * w(x * a) or v / w(x), in its
order.  numpy's float64 * and / round exactly like Python's, so every
value is the loop's bit for bit, and column c does not depend on the
depth.  Weights are positive and finite, so a value that reaches 0.0,
which the loop pruned, stays 0.0 and is pruned from every later piece;
pieces keep f's insertion order.  So T^m f is the same vector, bit for
bit and in the same insertion order, however m is split into steps.
The stack is the package's only way to build T^n f or S^n f:
``iterates`` reads the columns l*step, l = 1..count, of one stack;
``apply_T`` and ``apply_S`` are its one-step views, ``apply_T_n`` and
``apply_S_n`` its views with step n; and ``lab.SeedOrbit`` keeps one
stack of its seed each way.  ``Stack.iterate(c)`` builds T^c f from
column c, moving each point by a^{+-c}; ``Stack.column(c)`` is the array
of that vector's values alone, the column's nonzero values in f's order,
with no point moved and no vector built: all that a norm reads.

A weight acts on the groups whose elements it reads (``WeightedSystem``
checks it at the identity): the step weight on Z and cyclic groups, the
dyadic weight on the Heisenberg group and Z^d, d >= 3, the rest on any.

Each weight states the finite set of values it takes as ``values``:
(c,), (c_neg, c_pos), (1/2, 1, 2), or the table values and the default.
They are checked once, positive and finite, and they are what the
obstruction gate and the rounding bounds (``product_gamma``) read.  When
a has finite order, ``cycle_values`` counts the weights on each cycle in
closed form, for the exact cycle products of the criteria.  The config
module alone reads and writes the weights' JSON form.

On a long orbit the linear series may underflow to 0.0 or overflow to
inf while its log stays finite.  The log series is built only when it is
asked for (``logs=``): by the chaos scan.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .groups import CyclicGroup, Element, Group, point_bytes
from .numerics import gamma
from .orlicz import OrliczVector

# The block size of the orbit-product kernel ``keyed_series``, whose blocks
# the criteria scans read: this many values (128 KiB of float64) per block.
# Smaller blocks cost per-block overhead, larger ones leave the cache and,
# past glibc's mmap threshold, fault in fresh pages.  The exact modular
# streams its terms in blocks of its own, ``orlicz._BLOCK``.
BLOCK_ELEMENTS = 1 << 14

# The most bytes a checker's scan (``criteria``), a ``K.box`` (``config``), a
# stack or an ``iterates`` call holds.  Only ``refuse_past_cap`` refuses on it.
SERIES_MEMORY_CAP = 1 << 30


def refuse_past_cap(field: str, what: str, nbytes: int, *counts: int) -> None:
    """Raise ConfigError on field when nbytes, the bytes that what would
    hold, pass SERIES_MEMORY_CAP: the one refusal of the cap and its one
    message.  what is a ``str.format`` template of the counts.  A count
    past the digits ``str`` writes (``sys.get_int_max_str_digits``), and
    a size in GiB past the float range, are given as a power of two."""
    if nbytes > SERIES_MEMORY_CAP:
        try:
            gib = f"{nbytes / 2**30:.3g}"
        except OverflowError:
            gib = _at_least(nbytes >> 30)
        text = what.format(*map(_decimal, counts))
        raise ConfigError(field, f"{text}: {gib} GiB, over the {SERIES_MEMORY_CAP / 2**30:g} GiB cap")


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        return _at_least(n)


def _at_least(n: int) -> str:
    return f"at least 2^{n.bit_length() - 1}"


class _Weight:
    """Every weight family: its ``values`` are checked once, here."""

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in self.values):
            raise ValueError("weights must be positive and finite")


@dataclass(frozen=True)
class ConstantWeight(_Weight):
    c: float

    @property
    def values(self) -> tuple[float, ...]:
        return (self.c,)

    def __call__(self, g: Element) -> float:
        return self.c

    def orbit_filler(self, group: Group, a: Element, backward: bool) -> Filler:
        return Filler(lambda x: None, lambda keys, out: out.fill(self.c))


@dataclass(frozen=True)
class TwoSidedStepWeight(_Weight):
    """On the integers: c_neg for x <= 0, c_pos for x >= 1."""

    c_neg: float
    c_pos: float

    @property
    def values(self) -> tuple[float, ...]:
        return (self.c_neg, self.c_pos)

    def __call__(self, g: int) -> float:
        return self.c_pos if g >= 1 else self.c_neg

    def orbit_filler(self, group: Group, a: int, backward: bool) -> Filler:
        first, step = _exponents(backward)
        b = step * a  # column c of a row holds the weight at x0 + c*b
        # Columns before a row's cut hold `before`, the rest `after`.
        before, after = (self.c_neg, self.c_pos) if b >= 0 else (self.c_pos, self.c_neg)

        s = first * a - 1  # x0 - 1 of the row of x is x + s

        def cut(x: int) -> int | float:
            if b > 0:
                c = -((x + s) // b)  # the first c with x0 + c*b >= 1
            elif b < 0:
                c = (x + s) // -b + 1  # the first c with x0 + c*b <= 0
            else:
                c = 0 if x + s >= 0 else math.inf
            return c

        def fill(cuts: Sequence[int | float], out: np.ndarray) -> None:
            m = out.shape[1]
            out.fill(before)
            np.copyto(out, after, where=np.arange(m) >= np.array([min(max(c, 0), m) for c in cuts])[:, None])

        return Filler(cut, fill)


@dataclass(frozen=True)
class HeisenbergDyadicWeight(_Weight):
    """Dyadic step weight keyed by the third coordinate z: 1/2 for z >= 1,
    1 at z = 0 and 2 for z <= -1, so its orbit products are exact."""

    values = (0.5, 1.0, 2.0)

    def __call__(self, g: tuple[int, ...]) -> float:
        return _dyadic(g[2])

    def orbit_filler(self, group: Group, a: tuple[int, ...], backward: bool) -> Filler:
        first, step = _exponents(backward)
        a_first, a_step = group.pow(a, first), group.pow(a, step)

        def quadratic(x: tuple[int, ...]) -> tuple[int, int, int]:
            # z at columns 0, 1, 2 by the group law: z is at most quadratic
            # in the column c, so 2z = A c^2 + B c + C.
            g0 = group.mul(x, a_first)
            g1 = group.mul(g0, a_step)
            z0, z1, z2 = g0[2], g1[2], group.mul(g1, a_step)[2]
            return z2 - 2 * z1 + z0, 4 * z1 - 3 * z0 - z2, 2 * z0

        def fill(keys: Sequence[tuple[int, int, int]], out: np.ndarray) -> None:
            m = out.shape[1]
            for row, (A, B, C) in zip(out, keys):
                for lo, hi in _sign_runs(A, B, C, m):
                    row[lo:hi] = _dyadic((A * lo + B) * lo + C)

        return Filler(quadratic, fill)


def _dyadic(z: int) -> float:
    """The dyadic weight at any z of the sign of the given int."""
    return 0.5 if z > 0 else 2.0 if z < 0 else 1.0


@dataclass(frozen=True)
class TableWeight(_Weight):
    """Explicit per-element weights with a default for everything else.
    The entries are kept in the native order of their keys."""

    entries: tuple[tuple[Element, float], ...]
    default: float = 1.0

    def __post_init__(self):
        table = {g: float(v) for g, v in self.entries}
        try:
            entries = tuple(sorted(table.items()))
        except TypeError as exc:
            raise ValueError(f"table weight keys do not compare: {exc}") from exc
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_table", table)
        super().__post_init__()

    @property
    def values(self) -> tuple[float, ...]:
        return (*self._table.values(), self.default)

    def __call__(self, g: Element) -> float:
        return self._table.get(g, self.default)


Weight = ConstantWeight | TwoSidedStepWeight | HeisenbergDyadicWeight | TableWeight


class Filler(NamedTuple):
    """One direction's orbit rows of a system.  key(x) is the row key of
    the point x, and fill(keys, out) writes the weights along the orbit of
    a point of each key into the matching row of out, as
    orbit_weights_forward (or _backward) gives them, for every row length.
    Points with equal keys have equal rows at every length."""

    key: Callable[[Element], Hashable]
    fill: Callable[[Sequence[Hashable], np.ndarray], None]


def product_gamma(w: Weight, k: int) -> float:
    """Relative error bound of a value computed from exact inputs by k
    multiplies or divides by values of w: ``numerics.gamma(k)``, or 0 when
    every value of w is a power of two, which scales a normal float
    exactly."""
    if all(math.frexp(v)[0] == 0.5 for v in w.values):
        return 0.0
    return gamma(k)


def cycle_values(sys: WeightedSystem) -> Callable[[Element], Counter]:
    """For an a of finite order P: x -> the weights w(x·a^j), j < P, on the
    cycle through x, as a Counter {value: count}, in closed form.  When
    P = 1 the cycle is x alone.  Otherwise the group is cyclic: a constant
    c gives c P times, and a table (the step weight's too) the values of
    its keys on that cycle (``WeightedSystem._orbits``) and the default."""
    group, a, w = sys.group, sys.a, sys.weight
    order = group.element_order(a)
    if order == 1:
        return lambda x: Counter({w(x): 1})
    if isinstance(w, ConstantWeight):
        return lambda x: Counter({w.c: order})
    orbits, default = sys._orbits

    def values(x: Element) -> Counter:
        hits = orbits.get(group.orbit_index(x, a)[0])
        counts = Counter(() if hits is None else hits[2].tolist())
        counts[default] += order - counts.total()
        return +counts  # drops the default when keys fill the cycle

    return values


def _exponents(backward: bool) -> tuple[int, int]:
    """(first, step): column c of a filled row holds the weight at
    x·a^(first + step*c), which is j = c + 1 forward and j = -c backward."""
    return (0, -1) if backward else (1, 1)


def _sign_runs(A: int, B: int, C: int, m: int) -> list[tuple[int, int]]:
    """Cut [0, m) into runs [lo, hi) on which the integer quadratic
    A c^2 + B c + C keeps one sign.  Its sign can change only next to a
    real root; each root is approximated to within 2 (isqrt, floor
    division), and every integer within 3 of that is a cut."""
    if A:
        disc = B * B - 4 * A * C
        s = math.isqrt(disc) if disc >= 0 else None
        roots = [] if s is None else [(-B - s) // (2 * A), (-B + s) // (2 * A)]
    else:
        roots = [-C // B] if B else []
    cuts = sorted({0, m, *(min(max(r + k, 0), m) for r in roots for k in range(-3, 4))})
    return list(zip(cuts, cuts[1:]))


def _table_filler(group: Group, a: Element, backward: bool, orbits: dict, default: float) -> Filler:
    """The fill of a table of weights with a default, from its keys grouped
    by orbit (``WeightedSystem._orbits``).  A point's row key is its
    ``orbit_index`` on an orbit that holds keys, else None: the default."""
    first, step = _exponents(backward)
    order = group.element_order(a)

    def key(x: Element) -> Optional[tuple[Element, int]]:
        r, i = group.orbit_index(x, a)
        return (r, i) if r in orbits else None

    def fill(keys: Sequence[Optional[tuple[Element, int]]], out: np.ndarray) -> None:
        m = out.shape[1]
        out.fill(default)
        for row, k in zip(out, keys):
            if k is None:
                continue  # no key on this orbit
            r, i = k
            exps, gaps, values = orbits[r]
            # Column c holds the point of exponent base + step*c on the orbit.
            base = i + first
            if order is not None:
                for e, v in zip(exps, values):
                    row[step * (e - base) % order :: order] = v
                continue
            if step > 0:
                lo, hi = bisect_left(exps, base), bisect_left(exps, base + m)
            else:
                lo, hi = bisect_right(exps, base - m), bisect_right(exps, base)
            if lo < hi:
                # Each hit's exponent less base, from the running gaps, signed by step: its column.
                cols = np.cumsum(gaps[lo:hi])
                cols += exps[lo] - base - int(cols[0])
                row[cols if step > 0 else -cols] = values[lo:hi]

    return Filler(key, fill)


@dataclass(frozen=True)
class WeightedSystem:
    """A group, a translation element a, a weight and a Young function."""

    group: Group
    a: Element
    weight: Weight
    young: object

    def __post_init__(self):
        try:
            self.weight(self.group.identity())
        except (TypeError, IndexError) as exc:
            raise ValueError(f"{type(self.weight).__name__} does not read {self.group.kind} elements: {exc}") from exc
        # The fills find table keys by their orbit_index, the scalar loop by
        # element: a key that is not a group element splits the two.
        for g, _ in self.weight.entries if isinstance(self.weight, TableWeight) else ():
            try:
                ok = self.group.element(self.group.coords(g)) == g
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"table weight key {g!r} is not an element of the {self.group.kind} group")

    @cached_property
    def fillers(self) -> tuple[Filler, Filler]:
        """The forward and the backward ``Filler``, built on first use and
        left out of ==, hash and repr; a table's two share ``_orbits``."""
        if self._orbits is None:
            return tuple(self.weight.orbit_filler(self.group, self.a, b) for b in (False, True))
        return tuple(_table_filler(self.group, self.a, b, *self._orbits) for b in (False, True))

    @cached_property
    def _orbits(self) -> Optional[tuple[dict, float]]:
        """(orbits, default) of a table weight, or of the step weight on a
        cyclic group, else None: orbits maps r to the sorted i of the keys
        r·a^i, their gaps (0 first) and weights."""
        w, cyclic = self.weight, isinstance(self.group, CyclicGroup)
        if not (isinstance(w, TableWeight) or cyclic and isinstance(w, TwoSidedStepWeight)):
            return None
        # On a cyclic group the residues x >= 1 are the x != 0.
        table, default = ({0: w.c_neg}, w.c_pos) if isinstance(w, TwoSidedStepWeight) else (w._table, w.default)
        orbits: dict = {}
        for g, v in table.items():
            r, i = self.group.orbit_index(g, self.a)
            orbits.setdefault(r, []).append((i, v))
        for r, hits in orbits.items():
            hits.sort()
            exps = [i for i, _ in hits]
            # Gaps clipped at 2^62: a row's window is far narrower, so the gaps inside it are exact.
            gaps = np.array([0] + [min(e - d, 1 << 62) for d, e in zip(exps, exps[1:])], dtype=np.int64)
            orbits[r] = (exps, gaps, np.array([v for _, v in hits]))
        return orbits, default


def apply_T(sys: WeightedSystem, f: OrliczVector) -> OrliczVector:
    """(T f)(x) = w(x) * f(x * a^{-1}); support shifts right by a."""
    return iterates(sys, f, 1, 1)[0]


def apply_S(sys: WeightedSystem, h: OrliczVector) -> OrliczVector:
    """(S h)(x) = h(x * a) / w(x * a); right inverse of T."""
    return iterates(sys, h, 1, 1, backward=True)[0]


def apply_T_n(sys: WeightedSystem, f: OrliczVector, n: int) -> OrliczVector:
    """n-th iterate T^n f (T^0 f is f); n < 0 raises ValueError."""
    return iterates(sys, f, n, 1)[0] if n else f


def apply_S_n(sys: WeightedSystem, f: OrliczVector, n: int) -> OrliczVector:
    """n-th iterate S^n f (S^0 f is f); n < 0 raises ValueError."""
    return iterates(sys, f, n, 1, backward=True)[0] if n else f


def iterates(
    sys: WeightedSystem, f: OrliczVector, step: int, count: int, backward: bool = False
) -> list[OrliczVector]:
    """[T^{step} f, T^{2 step} f, ..., T^{count step} f], or the S iterates
    when backward is set, bit for bit as applying T (or S) one step at a
    time builds them; see the module docstring.  Refused, before the stack
    allocates, when ``iterates_bytes`` passes SERIES_MEMORY_CAP."""
    if step < 1 or count < 0:
        raise ValueError("need step >= 1 and count >= 0")
    what = "{} iterates of step {} on {} points, with their stack"
    refuse_past_cap("N_max", what, iterates_bytes(sys.group, len(f), step, count), count, step, len(f))
    stack = orbit_stack(sys, f, count * step, backward)
    return [stack.iterate(l * step) for l in range(1, count + 1)]


def iterates_bytes(group: Group, points: int, step: int, count: int) -> int:
    """Bytes an ``iterates`` call on a vector of that many points holds at
    once: its stack to depth count*step and the count vectors it returns,
    at one ``groups.point_bytes`` an entry."""
    return stack_bytes(points, count * step) + count * points * point_bytes(group)


class Stack(NamedTuple):
    """A vector f under T (or S, when backward) one step at a time, to a
    depth: row at[i] of block holds f's value at pts[i] in column 0, and in
    column c the value that c steps move to pts[i] * a^{+-c}."""

    sys: WeightedSystem
    pts: list
    block: np.ndarray
    at: np.ndarray | slice
    backward: bool

    @property
    def depth(self) -> int:
        return self.block.shape[1] - 1

    def iterate(self, c: int) -> OrliczVector:
        """T^c f (S^c f when backward), 1 <= c <= depth: column c, moved by
        a^{+-c}, in f's order; zero values are pruned."""
        g = self.sys.group
        shift = g.pow(self.sys.a, -c if self.backward else c)
        column = zip(self.pts, self.block[self.at, c].tolist())
        return OrliczVector._adopt({g.mul(y, shift): v for y, v in column if v})

    def column(self, c: int) -> np.ndarray:
        """The nonzero values of column c, in f's order: the values of
        ``iterate(c)``, in its order, with no point moved and no vector built."""
        values = self.block[self.at, c]
        return values[values != 0.0]


def orbit_stack(sys: WeightedSystem, f: OrliczVector, depth: int, backward: bool) -> Stack:
    """f's ``Stack`` to depth, bit for bit the one-step loop's values (see
    the module docstring).  Refused before it allocates when its own
    ``stack_bytes`` would pass SERIES_MEMORY_CAP; a caller that holds more
    beside it refuses on its own price first, as ``iterates`` does."""
    pts = [x for x, _ in f.items()]
    refuse_past_cap("N_max", "a stack of depth {} on {} points", stack_bytes(len(pts), depth), depth, len(pts))
    block = np.empty((len(pts), depth + 1))
    at = _fill_by_key(sys.fillers[backward], pts, block)
    block[at, 0] = np.fromiter(f.values(), float, len(pts))
    with np.errstate(over="ignore"):
        (np.divide if backward else np.multiply).accumulate(block, axis=1, out=block)
    return Stack(sys, pts, block, at, backward)


def stack_bytes(points: int, depth: int) -> int:
    """Bytes of the block of a ``Stack`` of depth on a number of points."""
    return 8 * points * (depth + 1)


def _fill_by_key(filler: Filler, points: Sequence[Element], block: np.ndarray) -> np.ndarray | slice:
    """Fill columns 1.. of block with the weights of points, each distinct
    row key once: row j holds the j-th distinct key, in the order the keys
    first appear, and the later points of each key take the rows after
    those, copied from their key's row.  Returns the row of each point:
    an index array, or a slice of every row when no two points share a key."""
    keys = list(map(filler.key, points))
    distinct = list(dict.fromkeys(keys))  # in the order the keys first appear
    d = len(distinct)
    rows = _block_rows(block.shape[1])
    for start in range(0, d, rows):
        chunk = distinct[start : start + rows]
        filler.fill(chunk, block[start : start + len(chunk), 1:])
    if d == len(keys):
        return slice(None)
    key_row = dict(zip(distinct, range(d)))
    at, src = [], []  # each point's row, and the key row each later row copies
    for row in map(key_row.__getitem__, keys):
        if row == len(at) - len(src):  # the first point of its key
            at.append(row)
        else:
            at.append(d + len(src))
            src.append(row)
    # Whole rows are contiguous, so mode="clip" writes straight into the
    # block, with no buffer of its size.
    np.take(block[:d], src, axis=0, out=block[d:], mode="clip")
    return np.array(at)


def orbit_weights_forward(sys: WeightedSystem, x: Element, m: int) -> np.ndarray:
    """Array [w(x*a), w(x*a^2), ..., w(x*a^m)], by repeated ``mul``: the
    scalar reference for the weight fills."""
    g, a, w = sys.group, sys.a, sys.weight
    out = np.empty(m)
    cur = x
    for j in range(m):
        cur = g.mul(cur, a)
        out[j] = w(cur)
    return out


def orbit_weights_backward(sys: WeightedSystem, x: Element, m: int) -> np.ndarray:
    """Array [w(x), w(x*a^{-1}), ..., w(x*a^{-(m-1)})], by repeated ``mul``;
    the backward scalar reference."""
    g, a, w = sys.group, sys.a, sys.weight
    a_inv = g.inv(a)
    out = np.empty(m)
    cur = x
    for j in range(m):
        out[j] = w(cur)
        cur = g.mul(cur, a_inv)
    return out


def _block_rows(width: int) -> int:
    """Rows of width values each that make one block (at least one)."""
    return max(1, BLOCK_ELEMENTS // width)


def keyed_series(
    sys: WeightedSystem,
    keys: Sequence[Hashable],
    depth: int,
    backward: bool,
    logs: bool,
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """Product series of the rows with the given keys for n = 0..depth, a
    block of rows at a time: yields (rows, linear, log), where rows is the
    slice of keys the block covers and linear and log are (rows, depth + 1)
    arrays (log is None unless asked).  Row i of a block is the series
    phi_n(x) (phi~_n(x) when backward is set) of every point x whose key
    is keys[rows][i], bit for bit the scalar loop's: each row is the same
    sequential cumprod (and cumsum of logs) over the same weights.  Every
    block reuses the same buffers of about ``BLOCK_ELEMENTS`` values, so a
    block's arrays hold only until the next block is asked for."""
    rows = _block_rows(depth + 1)
    shape = (min(rows, len(keys)), depth + 1)
    linear = np.empty(shape)
    linear[:, 0] = 1.0
    log = None
    if logs:
        log = np.empty(shape)
        log[:, 0] = 0.0
    for start in range(0, len(keys), rows):
        blk = slice(start, min(start + rows, len(keys)))
        n = blk.stop - start
        lin = linear[:n]
        ws = lin[:, 1:]
        sys.fillers[backward].fill(keys[blk], ws)
        lg = None
        if logs:
            lg = log[:n]
            tail = lg[:, 1:]
            np.log(ws, out=tail)
            np.cumsum(tail, axis=1, out=tail)
            if backward:
                np.negative(tail, out=tail)
        with np.errstate(over="ignore", divide="ignore"):
            np.cumprod(ws, axis=1, out=ws)
            if backward:
                np.divide(1.0, ws, out=ws)
        yield blk, lin, lg


# The per-point views: span names of the benchmark's tracer, with no caller.
def _point_series(
    sys: WeightedSystem, x: Element, depth: int, backward: bool = False, logs: bool = False
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The (linear, log) series of the one point x, from its key's single
    block; a negative depth raises ValueError."""
    if depth < 0:
        raise ValueError("product length must be >= 0")
    _, linear, log = next(keyed_series(sys, [sys.fillers[backward].key(x)], depth, backward, logs))
    return linear[0], None if log is None else log[0]


def phi_product(sys: WeightedSystem, x: Element, n: int) -> float:
    """Forward product prod_{j=1..n} w(x * a^j); empty product is 1."""
    return float(_point_series(sys, x, n)[0][n])


def phi_tilde_product(sys: WeightedSystem, x: Element, n: int) -> float:
    """Reciprocal backward product [prod_{j=0..n-1} w(x * a^{-j})]^{-1},
    inf where the backward product underflows."""
    return float(_point_series(sys, x, n, backward=True)[0][n])


def phi_product_pair(sys: WeightedSystem, x: Element, n: int) -> tuple[float, float]:
    """Forward product as (log, linear); see module notes on underflow."""
    linear, log = phi_series_pair(sys, x, n)
    return float(log[n]), float(linear[n])


def phi_tilde_product_pair(sys: WeightedSystem, x: Element, n: int) -> tuple[float, float]:
    """Reciprocal backward product as (log, linear)."""
    linear, log = phi_tilde_series_pair(sys, x, n)
    return float(log[n]), float(linear[n])


def phi_series_pair(sys: WeightedSystem, x: Element, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(linear, log) arrays of the forward products for n = 0..n_max."""
    return _point_series(sys, x, n_max, logs=True)


def phi_tilde_series_pair(sys: WeightedSystem, x: Element, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(linear, log) arrays of the reciprocal backward products for n = 0..n_max."""
    return _point_series(sys, x, n_max, backward=True, logs=True)
