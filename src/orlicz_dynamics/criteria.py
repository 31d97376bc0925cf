"""Semi-decision checks of dynamical properties of weighted translations.

``run_check`` reduces each property to the behaviour of the forward and
backward orbit weight products over a user-supplied finite set K (with
counting measure, the inner approximating subsets collapse to K itself,
so all suprema run over the whole of K):

* recurrent / transitive: both product families dip below each epsilon at
  some common step n (subsequence decay); the two properties share one
  scan and get identical verdicts whenever a has infinite order.
* multiply recurrent: the dip must hold simultaneously at n, 2n, ..., Ln.
* mixing: the dip must hold for every n in a whole tail of the budget.
* chaotic: the summed products over all multiples of n, bounded by a
  geometric tail majorant, must dip below each epsilon.

``run_check`` checks the obstructions, then the property's scan (the
``_SCANS`` table) turns the sup series over K into one row of terms per
candidate step n, and each epsilon's witness is the first n whose terms,
raised by a rounding margin, all lie below it.

The scans run on K's distinct rows: the first point of K, in K's order,
for each distinct pair of forward and backward row keys (the system's
``fillers``), compared 1024 points of K at a time.  Points with equal
pairs have equal series in both directions, hence equal terms, equal
truncated chaos sums and equal term ratios.  Every reduction over K is a
maximum (the sups, each point's truncated sum plus its tail, the ratio
r), and a maximum does not change when equal values are dropped, so
every series point, witness and verdict is the one a scan of every point
of K gives, bit for bit.  On the Heisenberg example, a = (3, 0, 2) with
the dyadic weight, every point of a K in the plane z = 0 has the one row
z = 2j.  The separation constant and the memory cap still read all of K.

The scans hand those rows' keys to ``translations.keyed_series``, which
fills them from the same fillers: a check builds no filler of its own
and finds each key once.  The series come a block of rows at a time
(about ``translations.BLOCK_ELEMENTS`` values, and at least one row, per
block), and each block is reduced before the next overwrites it: sups
are maxima and merge block by block, and the chaos scan keeps only each
row's truncated sum and last term per n.  So what a scan holds at once
is one block's series plus what it keeps, not |K| series of the full
depth, held to ``translations.SERIES_MEMORY_CAP``.

A verdict is *WitnessFound* (witnesses recorded per epsilon),
*ObstructionFound* (torsion element, cycle product other than 1,
contracting weight, expanding weight), or *Inconclusive*.  An a of
finite order P decides every property in closed form: transitivity,
mixing and chaos are obstructed, and recurrence (multiple too) holds
on K exactly when every cycle through K has weight product 1, with
witness n = P (``check_obstructions``).  Absence of a witness within the budget is
never reported as a negative result.  The operator-norm obstructions are
claimed only with strict margin (max and min of the weight's ``values``:
sup w < 1, inf w > 1); boundary weights fall through to an inconclusive
search.

The rounding margin g makes each exact term, the one the float weights
define, at most term * (1 + g), so a witness holds for those weights, not
only for their rounded products.  g is ``translations.product_gamma`` of
the longest product the scan builds (m weights take m - 1 multiplies, and
the reciprocal one divide more), 0 when every weight value is a power of
two; the chaos sums add a gamma of their additions, but not the error of
the tail majorant, a heuristic.  g counts two roundings more, for
term * (1 + g) itself, and holds while no product leaves the normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .groups import CompactSet, point_bytes, separation_constant
from .numerics import gamma
from .translations import SERIES_MEMORY_CAP, WeightedSystem, cycle_values, keyed_series, product_gamma


class Property(str, Enum):
    RECURRENT = "recurrent"
    MULTIPLY_RECURRENT = "multiply_recurrent"
    TRANSITIVE = "transitive"
    MIXING = "mixing"
    CHAOTIC = "chaotic"


class Outcome(str, Enum):
    WITNESS_FOUND = "witness_found"
    OBSTRUCTION_FOUND = "obstruction_found"
    INCONCLUSIVE = "inconclusive"


DEFAULT_EPSILONS: tuple[float, ...] = tuple(0.5**k for k in range(1, 11))

# Length cap for the diagnostic product series attached to obstruction verdicts.
OBSTRUCTION_SERIES_CAP = 64

# Points of K whose row keys are compared at once: a distinct key pair
# holds up to about 600 bytes (a table key on the Heisenberg group at
# coordinates past 2^63, by tracemalloc), so the keys held stay under a
# megabyte whatever |K| is, as the cap (_held_bytes) assumes.
_KEY_BLOCK = 1024

# Bytes each candidate step n costs a scan beyond its series: its
# SeriesPoint (the object, its floats and n, and its slots in the lists and
# tuple that carry it into the Verdict) and the scan's per-n arrays.
# tracemalloc measures 216 to 258 bytes (CPython 3.11, every scan); this
# rounds up.
_CANDIDATE_BYTES = 288


@dataclass(frozen=True)
class Obstruction:
    """Analytic reason the search cannot succeed.

    kind is "torsion" (a has finite order, so T is not transitive, mixing
    or chaotic), "cycle_product" (a has finite order and the weights on
    a cycle through K do not multiply to 1, so T is not recurrent),
    "contraction" (sup w < 1, so backward products stay >= 1) or
    "expansion" (inf w > 1, so forward products stay >= 1).
    """

    kind: str
    order: Optional[int] = None
    bound: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class WitnessEntry:
    epsilon: float
    n: int
    sup_by_l: tuple[float, ...]


@dataclass(frozen=True)
class SeriesPoint:
    n: int
    sup_phi: float
    sup_phi_tilde: float
    chaos_sum: Optional[float] = None


@dataclass(frozen=True)
class CriterionRequest:
    """One criterion run: system, finite set K, property and budgets.

    The one owner of the request defaults and rules, which configs
    inherit: epsilons defaults to the halving schedule 2^{-k}, k = 1..10;
    N_max bounds the step search; L_max truncates the chaos series.  A
    field out of range, or a repeated epsilon, raises ConfigError on its
    name.  Budgets whose scan would hold more than the bytes of
    ``translations.SERIES_MEMORY_CAP`` at once (one point's series and
    their gathers, plus K and what the scan keeps over it and per
    candidate step; see _held_bytes) raise it on the N_max field.
    """

    system: WeightedSystem
    K: CompactSet
    property: Property
    L: int = 1
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    N_max: int = 64
    L_max: int = 32

    def __post_init__(self):
        object.__setattr__(self, "property", Property(self.property))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if len(self.K) == 0:
            raise ConfigError("K", "must be nonempty")
        if self.L < 1:
            raise ConfigError("L", "must be >= 1")
        if self.N_max < 1:
            raise ConfigError("N_max", "must be >= 1")
        if self.L_max < 1:
            raise ConfigError("L_max", "must be >= 1")
        if not self.epsilons or any(not (0.0 < e < 1.0) for e in self.epsilons):
            raise ConfigError("epsilons", "must be nonempty, each in (0, 1)")
        if len(set(self.epsilons)) != len(self.epsilons):
            raise ConfigError("epsilons", f"duplicate values in {list(self.epsilons)}")
        size = _held_bytes(self)
        if size > SERIES_MEMORY_CAP:
            raise ConfigError(
                "N_max",
                f"{self.property.value} with N_max = {self.N_max}, L = {self.L} and "
                f"L_max = {self.L_max} holds product series of {series_depth(self)} steps over "
                f"|K| = {len(self.K)} points: {size / 2**30:.3g} GiB at once, over the "
                f"{SERIES_MEMORY_CAP / 2**30:g} GiB cap",
            )


def _held_bytes(req: CriterionRequest) -> int:
    """Bytes the scan of req holds at once when a block of K is one point
    (a block of several points holds at most ``translations.BLOCK_ELEMENTS``
    values a series).  Six arrays of depth + 1 float64 or int64 values:
    for chaotic, that point's linear and log series, the int64 gather
    index and the three gathers taken from it (the linear terms, the log
    terms and their differences); otherwise the two sups over K, the
    gather index and its three gathers (or the point's series, a max over
    it and the weight fill's temporaries, before the sups are gathered).
    Plus, for chaotic, the truncated sum and last term of every point of K
    per candidate n, _CANDIDATE_BYTES per candidate n for every scan, and
    ``groups.point_bytes`` per point of K; ``translations.SERIES_MEMORY_CAP``
    bounds it."""
    depth = series_depth(req)
    kept = 2 * len(req.K) * req.N_max if req.property is Property.CHAOTIC else 0
    K_bytes = len(req.K) * point_bytes(req.system.group)
    return (6 * (depth + 1) + kept) * 8 + req.N_max * _CANDIDATE_BYTES + K_bytes


def series_depth(req: CriterionRequest) -> int:
    """Last step of the product series run_check builds on K for req."""
    if req.property is Property.CHAOTIC:
        return max(req.L_max, 2) * req.N_max  # the tail ratio needs two terms
    if req.property is Property.MULTIPLY_RECURRENT:
        return req.L * req.N_max
    return req.N_max


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion check with its full evidence trail."""

    request: CriterionRequest
    outcome: Outcome
    witness: tuple[WitnessEntry, ...]
    obstruction: Optional[Obstruction]
    series: tuple[SeriesPoint, ...]
    budget: int
    start_n: int
    tail_bounded: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "property": self.request.property.value,
            "outcome": self.outcome.value,
            "witness": [vars(w).copy() for w in self.witness],
            "obstruction": vars(self.obstruction).copy() if self.obstruction else None,
            "series": [vars(s).copy() for s in self.series],
            "budget": self.budget,
            "start_n": self.start_n,
            "tail_bounded": self.tail_bounded,
        }


def check_obstructions(req: CriterionRequest) -> Optional[Obstruction]:
    """Torsion (for recurrence, a cycle product other than 1), contraction
    and expansion gates, in that order.  None for a recurrence check with
    an a of finite order means that check is decided: see run_check."""
    group, a, w = req.system.group, req.system.a, req.system.weight
    order = group.element_order(a)
    if order is not None:
        if req.property in (Property.RECURRENT, Property.MULTIPLY_RECURRENT):
            return _cycle_obstruction(req, order)
        return Obstruction("torsion", order=order, detail=f"a^{order} is the identity")
    sup = max(w.values)
    if sup < 1.0:
        return Obstruction(
            "contraction", bound=sup, detail="sup w < 1: backward products never drop below 1"
        )
    inf_ = min(w.values)
    if inf_ > 1.0:
        return Obstruction(
            "expansion", bound=inf_, detail="inf w > 1: forward products never drop below 1"
        )
    return None


def _cycle_obstruction(req: CriterionRequest, order: int) -> Optional[Obstruction]:
    """None when every cycle through K has product h(x) = prod_{j<P}
    w(x·a^j) = 1 exactly, P the order of a; else the cycle_product
    obstruction of the first x of K where it does not.

    On each cycle T^P multiplies by h, and a finite-dimensional operator
    is recurrent exactly when it is similar to a diagonal one with
    unimodular eigenvalues, so T is recurrent on the cycles through K
    exactly when h = 1 on each (then T^P = I there).  A float is an odd
    integer times a power of two, and a product of odd integers is 1 only
    when each is, so h = 1 exactly when every weight on the cycle is a
    power of two and their exponents sum to 0: integer counts, with no P
    steps.  ``bound`` is log2 h, rounded."""
    values = cycle_values(req.system)
    for x in req.K:
        counts = values(x)
        exps = [(n, *math.frexp(v)) for v, n in counts.items()]  # v = m 2^e
        if all(m == 0.5 for _, m, _ in exps) and sum(n * (e - 1) for n, _, e in exps) == 0:
            continue
        return Obstruction(
            "cycle_product",
            order=order,
            bound=math.fsum(n * math.log2(v) for v, n in counts.items()),
            detail=f"the weights on the cycle through {req.system.group.coords(x)} do not multiply to 1",
        )
    return None


def _start_n(req: CriterionRequest) -> int:
    """First candidate step: one past the separation constant of K.

    When separation cannot be certified within the budget the search
    simply starts at 1 (harmless, the criterion predicate does not need
    it; only witness-vector construction does)."""
    M = separation_constant(req.system.group, req.K, req.system.a, n_max=req.N_max)
    if M is None:
        return 1
    return min(M + 1, req.N_max)


def _distinct_rows(req: CriterionRequest) -> list[tuple]:
    """The forward and the backward row keys of the first point, in K's
    order, of each distinct pair of forward and backward keys in each
    _KEY_BLOCK points of K.  Points with equal pairs have equal series both
    ways, so a scan that reduces over K by maxima gets the same values."""
    forward, backward = (filler.key for filler in req.system.fillers)
    pairs: list = []
    for start in range(0, len(req.K), _KEY_BLOCK):
        pairs += dict.fromkeys((forward(x), backward(x)) for x in req.K.elements[start : start + _KEY_BLOCK])
    return list(zip(*pairs))


def _sup_series(req: CriterionRequest, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sup over K of the product series, for m = 0..depth, from
    K's distinct rows, merged block by block."""
    sups = np.full((2, depth + 1), -np.inf)
    for sup, backward, keys in zip(sups, (False, True), _distinct_rows(req)):
        for _, linear, _ in keyed_series(req.system, keys, depth, backward, False):
            np.maximum(sup, linear.max(axis=0), out=sup)
    return sups[0], sups[1]


def _decided_verdict(req: CriterionRequest, obs: Optional[Obstruction]) -> Verdict:
    """The verdict of a gate, with a diagnostic series: obs, or when obs is
    None (a recurrence check with an a of finite order P and every cycle
    product 1) T^P = I on the cycles through K, so each epsilon's witness
    is n = P, with terms 0."""
    cap = min(req.N_max, OBSTRUCTION_SERIES_CAP)
    sup_phi, sup_tilde = _sup_series(req, cap)
    ns = np.arange(1, cap + 1)
    witness = ()
    if obs is None:
        period = req.system.group.element_order(req.system.a)
        zeros = (0.0,) * (series_depth(req) // req.N_max)
        witness = tuple(WitnessEntry(eps, period, zeros) for eps in req.epsilons)
    return Verdict(
        request=req,
        outcome=Outcome.OBSTRUCTION_FOUND if obs else Outcome.WITNESS_FOUND,
        witness=witness,
        obstruction=obs,
        series=tuple(_series_points(ns, sup_phi[ns], sup_tilde[ns])),
        budget=0,
        start_n=0,
    )


# What a per-property scan returns: one SeriesPoint and one row of terms
# per candidate step, and the verdict's tail_bounded flag.
_ScanResult = tuple[list[SeriesPoint], np.ndarray, Optional[bool]]


def _series_points(ns: np.ndarray, *columns: np.ndarray) -> list[SeriesPoint]:
    """One SeriesPoint per n from the columns sup_phi, sup_phi_tilde and
    optionally chaos_sum."""
    return [SeriesPoint(*p) for p in zip(ns.tolist(), *(c.tolist() for c in columns))]


def _subsequence_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """Terms max(sup phi_{ln}, sup phi~_{ln}) for l = 1..L: the predicate
    max_{1<=l<=L} max_{x in K} max(phi_{ln}(x), phi~_{ln}(x)) < epsilon.

    L is req.L for multiple recurrence and 1 for recurrence and
    transitivity, which share this predicate and so agree whenever a has
    infinite order."""
    depth = series_depth(req)
    sup_phi, sup_tilde = _sup_series(req, depth)
    idx = np.outer(ns, np.arange(1, depth // req.N_max + 1))
    sp, st = sup_phi[idx], sup_tilde[idx]
    return _series_points(ns, sp.max(axis=1), st.max(axis=1)), np.maximum(sp, st), None


def _mixing_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the sup of both product families over [n, N_max].

    A witness means the tail condition holds up to the budget; this is
    explicitly a semi-decision."""
    sup_phi, sup_tilde = _sup_series(req, req.N_max)
    sp, st = sup_phi[ns], sup_tilde[ns]
    tail = np.maximum.accumulate(np.maximum(sp, st)[::-1])[::-1]
    return _series_points(ns, sp, st), tail[:, None], None


def _chaotic_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the certified total

        max_{x in K} [ sum_{l=1}^{L_max} (phi_{ln}(x) + phi~_{ln}(x)) + tail ]

    where tail is a geometric majorant: with r the largest consecutive
    term ratio observed over K and both families, tail <= last * r/(1-r),
    valid only when r < 1.  Where no tail bound exists the term is inf,
    so that n is never a witness; tail_bounded records whether any
    candidate had one.

    K's distinct rows are scanned a block of points at a time, each
    family's series gathered at the steps l*n (l = 1..n_terms, one row per
    candidate n): only the truncated sums over l <= L_max and the L_max-th
    terms of each of those points per n are kept, and the sups of the
    first terms and the ratio r, being maxima, merge across blocks."""
    n_terms = series_depth(req) // req.N_max
    idx = ns[:, None] * np.arange(1, n_terms + 1)
    directions = _distinct_rows(req)
    n_rows = len(directions[0])
    trunc = np.zeros((n_rows, len(ns)))
    last = np.zeros((n_rows, len(ns)))
    firsts = np.full((2, len(ns)), -np.inf)  # sup phi_n, sup phi~_n
    r_log = np.full(len(ns), -np.inf)
    for first, backward, keys in zip(firsts, (False, True), directions):
        for rows, linear, log in keyed_series(req.system, keys, series_depth(req), backward, True):
            # np.take gathers a few-point block several times faster than linear[:, idx].
            terms = np.take(linear, idx, axis=1)
            trunc[rows] += terms[:, :, : req.L_max].sum(axis=-1)
            last[rows] += terms[:, :, req.L_max - 1]
            np.maximum(first, terms[:, :, 0].max(axis=0), out=first)
            np.maximum(r_log, np.diff(np.take(log, idx, axis=1), axis=-1).max(axis=(0, 2)), out=r_log)
            del terms  # freed before the next block, whose kernel then reuses its pages
    # math.exp, not np.exp, whose rounding may differ from the C library's.
    r = np.array([math.exp(x) if x < 700.0 else math.inf for x in r_log.tolist()])
    bounded = r < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        last *= r / (1.0 - r)
    last[:, ~bounded] = 0.0
    last += trunc  # in place: no third |K| x |ns| array
    sup_total = last.max(axis=0)
    terms = np.where(bounded, sup_total, math.inf)[:, None]
    return _series_points(ns, firsts[0], firsts[1], sup_total), terms, bool(bounded.any())


def _rounding_margin(req: CriterionRequest) -> float:
    """g with exact term <= term * (1 + g) on every term of req's scan (see
    the module docstring): the chaos sums have 2 L_max additions, and a
    gamma of twice that bounds their error relative to the computed sum."""
    g = product_gamma(req.system.weight, series_depth(req) + 2)
    if req.property is Property.CHAOTIC:
        g += gamma(4 * req.L_max + 4)
    return g


_SCANS: dict[Property, Callable[[CriterionRequest, np.ndarray], _ScanResult]] = {
    Property.RECURRENT: _subsequence_scan,
    Property.MULTIPLY_RECURRENT: _subsequence_scan,
    Property.TRANSITIVE: _subsequence_scan,
    Property.MIXING: _mixing_scan,
    Property.CHAOTIC: _chaotic_scan,
}


def run_check(req: CriterionRequest) -> Verdict:
    """Check req.property on K within the request's budgets.

    The gates decide every a of finite order (see ``check_obstructions``).
    Otherwise, after the obstruction gate, the property's scan runs on the candidate
    steps ns = start..N_max.  Each epsilon's witness is the first n whose
    terms, times 1 + the rounding margin, all lie below it, recorded with
    that row of terms."""
    obs = check_obstructions(req)
    if obs is not None or req.system.group.element_order(req.system.a) is not None:
        return _decided_verdict(req, obs)
    start = _start_n(req)
    ns = np.arange(start, req.N_max + 1)
    series, terms, tail_bounded = _SCANS[req.property](req, ns)
    row_max = terms.max(axis=1) * (1.0 + _rounding_margin(req))
    witness = []
    for eps in req.epsilons:
        hits = np.flatnonzero(row_max < eps)
        if hits.size:
            i = hits[0]
            witness.append(WitnessEntry(eps, int(ns[i]), tuple(terms[i].tolist())))
    return Verdict(
        request=req,
        outcome=Outcome.WITNESS_FOUND if len(witness) == len(req.epsilons) else Outcome.INCONCLUSIVE,
        witness=tuple(witness),
        obstruction=None,
        series=tuple(series),
        budget=len(series),
        start_n=start,
        tail_bounded=tail_bounded,
    )
