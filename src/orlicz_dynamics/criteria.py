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
all lie below it.

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
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .groups import CompactSet, separation_constant, torsion_order
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

# Largest total size, in bytes, of the float64 product series one checker
# holds for all of K.  Requests above it fail validation instead of
# dying in allocation.
SERIES_MEMORY_CAP = 1 << 30


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

    epsilons defaults to the halving schedule 2^{-k}, k = 1..10; N_max
    bounds the step search; L_max truncates the chaos series.  A field out
    of range raises ConfigError on its name, and budgets whose product
    series (see series_depth) would pass SERIES_MEMORY_CAP raise it on the
    N_max field.
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
        depth = series_depth(self)
        arrays = 4 if self.property is Property.CHAOTIC else 2
        size = len(self.K) * (depth + 1) * arrays * 8
        if size > SERIES_MEMORY_CAP:
            raise ConfigError(
                "N_max",
                f"{self.property.value} with N_max = {self.N_max}, L = {self.L} and "
                f"L_max = {self.L_max} needs {arrays} product series of {depth} steps "
                f"over |K| = {len(self.K)} points: {size / 2**30:.3g} GiB, over the "
                f"{SERIES_MEMORY_CAP / 2**30:g} GiB cap",
            )


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
    budget = group.order() or max(req.N_max, 64)
    order = torsion_order(group, a, budget)
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


def _sup_series(req: CriterionRequest, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sup over K of the product series, for m = 0..depth."""
    pts = _sorted_points(req)
    phi, _ = orbit_series(req.system, pts, depth)
    tilde, _ = orbit_series(req.system, pts, depth, backward=True)
    return phi.max(axis=0), tilde.max(axis=0)


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


def _series_points(ns: np.ndarray, sup_phi: np.ndarray, sup_tilde: np.ndarray) -> list[SeriesPoint]:
    return [SeriesPoint(*p) for p in zip(ns.tolist(), sup_phi.tolist(), sup_tilde.tolist())]


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


def _chaotic_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the certified total

        max_{x in K} [ sum_{l=1}^{L_max} (phi_{ln}(x) + phi~_{ln}(x)) + tail ]

    where tail is a geometric majorant: with r the largest consecutive
    term ratio observed over K and both families, tail <= last * r/(1-r),
    valid only when r < 1.  Where no tail bound exists the term is inf,
    so that n is never a witness; tail_bounded records whether any
    candidate had one."""
    L_sum = req.L_max
    n_terms = max(L_sum, 2)  # ratio estimation needs two consecutive terms
    depth = series_depth(req)
    pts = _sorted_points(req)
    phi_lin, phi_log = orbit_series(req.system, pts, depth, logs=True)
    til_lin, til_log = orbit_series(req.system, pts, depth, backward=True, logs=True)
    series = []
    terms = np.empty((len(ns), 1))
    tail_any = False
    for i, n in enumerate(ns.tolist()):
        idx = np.arange(1, n_terms + 1) * n
        tp_lin, tp_log = phi_lin[:, idx], phi_log[:, idx]
        tt_lin, tt_log = til_lin[:, idx], til_log[:, idx]
        trunc = tp_lin[:, :L_sum].sum(axis=1) + tt_lin[:, :L_sum].sum(axis=1)
        r_log = max(float(np.diff(tp_log, axis=1).max()), float(np.diff(tt_log, axis=1).max()))
        r = math.exp(r_log) if r_log < 700.0 else math.inf
        if r < 1.0:
            tail = (tp_lin[:, L_sum - 1] + tt_lin[:, L_sum - 1]) * (r / (1.0 - r))
            sup_total = float((trunc + tail).max())
            terms[i] = sup_total
            tail_any = True
        else:
            sup_total = float(trunc.max())
            terms[i] = math.inf
        series.append(
            SeriesPoint(n, float(tp_lin[:, 0].max()), float(tt_lin[:, 0].max()), chaos_sum=sup_total)
        )
    return series, terms, tail_any


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
