"""Semi-decision checks of dynamical properties of weighted translations.

``run_check`` reduces each property to the behaviour of the forward and
backward orbit weight products over a user-supplied finite set K (with
counting measure, the inner approximating subsets collapse to K itself,
so all suprema run over the whole of K):

* recurrent / transitive: both product families dip below each epsilon at
  some common step n (subsequence decay); the two properties share one
  scan and always get identical verdicts.
* multiply recurrent: the dip must hold simultaneously at n, 2n, ..., Ln.
* mixing: the dip must hold for every n in a whole tail of the budget.
* chaotic: the summed products over all multiples of n, bounded by a
  geometric tail majorant, must dip below each epsilon.

``run_check`` checks the obstructions, then the property's scan (the
``_SCANS`` table) turns the sup series over K into one row of terms per
candidate step n, and each epsilon's witness is the first n whose terms
all lie below it.  The scans run over K a block of points at a time and
drop each block's series once reduced: sups over K are maxima and merge
block by block, and the chaos scan keeps only each point's truncated sum
and last term per n.  So what a scan holds at once is one block's series
plus what it keeps, not |K| series of the full depth.

A verdict is *WitnessFound* (witnesses recorded per epsilon),
*ObstructionFound* (torsion element, contracting weight, expanding
weight), or *Inconclusive*.  Absence of a witness within the budget is
never reported as a negative result.  The operator-norm obstructions are
claimed only with strict margin (sup w < 1, inf w > 1); boundary weights
fall through to an inconclusive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ConfigError
from .groups import CompactSet, separation_constant
from .translations import WeightedSystem, orbit_series


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

# Largest size, in bytes, of the float64 product series one checker holds
# at once (see _held_bytes).  Requests above it fail validation instead of
# dying in allocation.
SERIES_MEMORY_CAP = 1 << 30

# The scans run over K a block of points at a time, each block as many
# points as fit one float64 series of theirs in this many bytes.
_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class Obstruction:
    """Analytic reason the search cannot succeed.

    kind is "torsion" (a has finite order), "contraction" (sup w < 1, so
    backward products stay >= 1) or "expansion" (inf w > 1, so forward
    products stay >= 1).
    """

    kind: str
    order: Optional[int] = None
    bound: Optional[float] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"kind": self.kind, "order": self.order, "bound": self.bound, "detail": self.detail}


@dataclass(frozen=True)
class WitnessEntry:
    epsilon: float
    n: int
    sup_by_l: tuple[float, ...]

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon, "n": self.n, "sup_by_l": list(self.sup_by_l)}


@dataclass(frozen=True)
class SeriesPoint:
    n: int
    sup_phi: float
    sup_phi_tilde: float
    chaos_sum: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sup_phi": self.sup_phi,
            "sup_phi_tilde": self.sup_phi_tilde,
            "chaos_sum": self.chaos_sum,
        }


@dataclass(frozen=True)
class CriterionRequest:
    """One criterion run: system, finite set K, property and budgets.

    The one owner of the request defaults and rules, which configs
    inherit: epsilons defaults to the halving schedule 2^{-k}, k = 1..10;
    N_max bounds the step search; L_max truncates the chaos series.  A
    field out of range, or a repeated epsilon, raises ConfigError on its
    name, and budgets whose scan would hold more than SERIES_MEMORY_CAP
    bytes at once (the series of one point of K plus what the scan keeps
    over K; see _held_bytes) raise it on the N_max field.
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
    """Bytes of float64 the scan of req holds at once when a block of K is
    one point.  For chaotic: that point's linear and log series, their
    gathers at the candidate steps and the log-ratio differences, plus the
    truncated sum and last term of every point of K per candidate n.
    Otherwise: one series of that point and the two sups over K."""
    depth = series_depth(req)
    if req.property is Property.CHAOTIC:
        return (5 * (depth + 1) + 2 * len(req.K) * req.N_max) * 8
    return 3 * (depth + 1) * 8


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
            "witness": [w.to_json() for w in self.witness],
            "obstruction": self.obstruction.to_json() if self.obstruction else None,
            "series": [s.to_json() for s in self.series],
            "budget": self.budget,
            "start_n": self.start_n,
            "tail_bounded": self.tail_bounded,
        }


def check_obstructions(req: CriterionRequest) -> Optional[Obstruction]:
    """Torsion, contraction and expansion gates, in that order."""
    group, a, w = req.system.group, req.system.a, req.system.weight
    order = group.element_order(a)
    if order is not None:
        return Obstruction("torsion", order=order, detail=f"a^{order} is the identity")
    sup = w.sup_bound()
    if sup < 1.0:
        return Obstruction(
            "contraction", bound=sup, detail="sup w < 1: backward products never drop below 1"
        )
    inf_ = w.inf_bound()
    if inf_ > 1.0:
        return Obstruction(
            "expansion", bound=inf_, detail="inf w > 1: forward products never drop below 1"
        )
    return None


def _sorted_points(req: CriterionRequest) -> list:
    return req.K.sorted_elements(req.system.group)


def _start_n(req: CriterionRequest) -> int:
    """First candidate step: one past the separation constant of K.

    When separation cannot be certified within the budget the search
    simply starts at 1 (harmless, the criterion predicate does not need
    it; only witness-vector construction does)."""
    M = separation_constant(req.system.group, req.K, req.system.a, n_max=req.N_max)
    if M is None:
        return 1
    return min(M + 1, req.N_max)


def _point_blocks(req: CriterionRequest, depth: int) -> Iterator[list]:
    """The sorted points of K in blocks small enough that one float64
    series of depth + 1 steps over a block fits in _BLOCK_BYTES (a block
    has at least one point)."""
    pts = _sorted_points(req)
    rows = max(1, _BLOCK_BYTES // (8 * (depth + 1)))
    for start in range(0, len(pts), rows):
        yield pts[start : start + rows]


def _sup_series(req: CriterionRequest, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sup over K of the product series, for m = 0..depth,
    merged block by block."""
    sups = np.full((2, depth + 1), -np.inf)
    for blk in _point_blocks(req, depth):
        for sup, backward in zip(sups, (False, True)):
            np.maximum(sup, orbit_series(req.system, blk, depth, backward=backward)[0].max(axis=0), out=sup)
    return sups[0], sups[1]


def _obstruction_verdict(req: CriterionRequest, obs: Obstruction) -> Verdict:
    cap = min(req.N_max, OBSTRUCTION_SERIES_CAP)
    sup_phi, sup_tilde = _sup_series(req, cap)
    ns = np.arange(1, cap + 1)
    return Verdict(
        request=req,
        outcome=Outcome.OBSTRUCTION_FOUND,
        witness=(),
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
    transitivity, which share this predicate and so always agree."""
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


def _chaos_block(
    req: CriterionRequest, pts: list, idx: np.ndarray, backward: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One product family on a block of points, gathered at the steps idx
    (one row l*n, l = 1..n_terms, per candidate n): the truncated sum over
    l <= L_max and the L_max-th term of every point per n, and the sup over
    the block of the first term and of the consecutive log-term ratios."""
    lin, log = orbit_series(req.system, pts, series_depth(req), backward=backward, logs=True)
    terms = lin[:, idx]
    ratio = np.diff(log[:, idx], axis=-1).max(axis=(0, 2))
    L_sum = req.L_max
    # The last terms stay a view of the gather on purpose: it then lives
    # until the next block's series are allocated, and the allocator keeps
    # its pages instead of returning them (a copy measured nearly three
    # times the page faults on the Heisenberg chaos check).
    return terms[:, :, :L_sum].sum(axis=-1), terms[:, :, L_sum - 1], terms[:, :, 0].max(axis=0), ratio


def _chaotic_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the certified total

        max_{x in K} [ sum_{l=1}^{L_max} (phi_{ln}(x) + phi~_{ln}(x)) + tail ]

    where tail is a geometric majorant: with r the largest consecutive
    term ratio observed over K and both families, tail <= last * r/(1-r),
    valid only when r < 1.  Where no tail bound exists the term is inf,
    so that n is never a witness; tail_bounded records whether any
    candidate had one.

    K is scanned a block of points at a time: only the truncated sums and
    last terms of every point per n are kept, and the sups and the ratio
    r, being maxima, merge across blocks."""
    n_terms = max(req.L_max, 2)  # ratio estimation needs two consecutive terms
    idx = ns[:, None] * np.arange(1, n_terms + 1)
    trunc = np.zeros((len(req.K), len(ns)))
    last = np.zeros((len(req.K), len(ns)))
    firsts = np.full((2, len(ns)), -np.inf)  # sup phi_n, sup phi~_n
    r_log = np.full(len(ns), -np.inf)
    row = 0
    for blk in _point_blocks(req, series_depth(req)):
        rows = slice(row, row + len(blk))
        row += len(blk)
        for first, backward in zip(firsts, (False, True)):
            t, end, f, ratio = _chaos_block(req, blk, idx, backward)
            trunc[rows] += t
            last[rows] += end
            np.maximum(first, f, out=first)
            np.maximum(r_log, ratio, out=r_log)
    # math.exp, not np.exp, whose rounding may differ from the C library's.
    r = np.array([math.exp(x) if x < 700.0 else math.inf for x in r_log.tolist()])
    bounded = r < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        last *= r / (1.0 - r)
    last[:, ~bounded] = 0.0
    sup_total = (trunc + last).max(axis=0)
    terms = np.where(bounded, sup_total, math.inf)[:, None]
    return _series_points(ns, firsts[0], firsts[1], sup_total), terms, bool(bounded.any())


_SCANS: dict[Property, Callable[[CriterionRequest, np.ndarray], _ScanResult]] = {
    Property.RECURRENT: _subsequence_scan,
    Property.MULTIPLY_RECURRENT: _subsequence_scan,
    Property.TRANSITIVE: _subsequence_scan,
    Property.MIXING: _mixing_scan,
    Property.CHAOTIC: _chaotic_scan,
}


def run_check(req: CriterionRequest) -> Verdict:
    """Check req.property on K within the request's budgets.

    After the obstruction gate, the property's scan runs on the candidate
    steps ns = start..N_max.  Each epsilon's witness is the first n whose
    terms all lie below it, recorded with that row of terms."""
    obs = check_obstructions(req)
    if obs is not None:
        return _obstruction_verdict(req, obs)
    start = _start_n(req)
    ns = np.arange(start, req.N_max + 1)
    series, terms, tail_bounded = _SCANS[req.property](req, ns)
    row_max = terms.max(axis=1)
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
