"""Semi-decision checkers for dynamical properties of weighted translations.

Every checker reduces its property to the behaviour of the forward and
backward orbit weight products over a user-supplied finite set K (with
counting measure, the inner approximating subsets collapse to K itself,
so all suprema run over the whole of K):

* recurrent / transitive: both product families dip below each epsilon at
  some common step n (subsequence decay); the two checkers share one
  predicate and always return identical verdicts.
* multiply recurrent: the dip must hold simultaneously at n, 2n, ..., Ln.
* mixing: the dip must hold for every n in a whole tail of the budget.
* chaotic: the summed products over all multiples of n, bounded by a
  geometric tail majorant, must dip below each epsilon.

All five run on one engine: it checks the obstructions, then a
per-property scan turns the sup series over K into one row of terms per
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
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, InconsistentVerdictsError
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
        depth = series_depth(self, self.property)
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


def series_depth(req: CriterionRequest, prop: Property) -> int:
    """Last step of the product series the checker for prop builds on K."""
    if prop is Property.CHAOTIC:
        return max(req.L_max, 2) * req.N_max  # the tail ratio needs two terms
    if prop is Property.MULTIPLY_RECURRENT:
        return req.L * req.N_max
    return req.N_max


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion check with its full evidence trail."""

    request: CriterionRequest
    property: Property
    outcome: Outcome
    witness: tuple[WitnessEntry, ...]
    obstruction: Optional[Obstruction]
    series: tuple[SeriesPoint, ...]
    budget: int
    start_n: int
    tail_bounded: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "property": self.property.value,
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


def _obstruction_verdict(req: CriterionRequest, prop: Property, obs: Obstruction) -> Verdict:
    cap = min(req.N_max, OBSTRUCTION_SERIES_CAP)
    sup_phi, sup_tilde = _sup_series(req, cap)
    ns = np.arange(1, cap + 1)
    return Verdict(
        request=req,
        property=prop,
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


def _scan_verdict(
    req: CriterionRequest, prop: Property, scan: Callable[[CriterionRequest, np.ndarray], _ScanResult]
) -> Verdict:
    """Shared engine of the five checkers.

    After the obstruction gate, scan(req, ns) runs on the candidate steps
    ns = start..N_max.  Each epsilon's witness is the first n whose terms
    all lie below it, recorded with that row of terms.  The request must
    name prop: its memory cap was checked for its own property's series."""
    if req.property is not prop:
        raise ConfigError("property", f"{prop.value} checker given a {req.property.value} request")
    obs = check_obstructions(req)
    if obs is not None:
        return _obstruction_verdict(req, prop, obs)
    start = _start_n(req)
    ns = np.arange(start, req.N_max + 1)
    series, terms, tail_bounded = scan(req, ns)
    row_max = terms.max(axis=1)
    witness = []
    for eps in req.epsilons:
        hits = np.flatnonzero(row_max < eps)
        if hits.size:
            i = hits[0]
            witness.append(WitnessEntry(eps, int(ns[i]), tuple(terms[i].tolist())))
    return Verdict(
        request=req,
        property=prop,
        outcome=Outcome.WITNESS_FOUND if len(witness) == len(req.epsilons) else Outcome.INCONCLUSIVE,
        witness=tuple(witness),
        obstruction=None,
        series=tuple(series),
        budget=len(series),
        start_n=start,
        tail_bounded=tail_bounded,
    )


def _subsequence_scan(req: CriterionRequest, ns: np.ndarray, L: int = 1) -> _ScanResult:
    """Terms max(sup phi_{ln}, sup phi~_{ln}) for l = 1..L: the predicate
    max_{1<=l<=L} max_{x in K} max(phi_{ln}(x), phi~_{ln}(x)) < epsilon."""
    sup_phi, sup_tilde = _sup_series(req, L * req.N_max)
    idx = np.outer(ns, np.arange(1, L + 1))
    sp, st = sup_phi[idx], sup_tilde[idx]
    return _series_points(ns, sp.max(axis=1), st.max(axis=1)), np.maximum(sp, st), None


def multiply_recurrent_check(req: CriterionRequest) -> Verdict:
    """Depth-L simultaneous decay of both product families (subsequence)."""
    return _scan_verdict(req, Property.MULTIPLY_RECURRENT, partial(_subsequence_scan, L=req.L))


def recurrent_check(req: CriterionRequest) -> Verdict:
    """Depth-1 subsequence decay. Identical predicate to transitive_check."""
    return _scan_verdict(req, Property.RECURRENT, _subsequence_scan)


def transitive_check(req: CriterionRequest) -> Verdict:
    """Depth-1 subsequence decay. Identical predicate to recurrent_check."""
    return _scan_verdict(req, Property.TRANSITIVE, _subsequence_scan)


def _mixing_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the sup of both product families over [n, N_max]."""
    sup_phi, sup_tilde = _sup_series(req, req.N_max)
    sp, st = sup_phi[ns], sup_tilde[ns]
    tail = np.maximum.accumulate(np.maximum(sp, st)[::-1])[::-1]
    return _series_points(ns, sp, st), tail[:, None], None


def mixing_check(req: CriterionRequest) -> Verdict:
    """Full-tail decay: for each epsilon, an N0 such that both product
    families stay below epsilon for every n in [N0, N_max].

    WitnessFound means the tail condition holds up to the budget; this is
    explicitly a semi-decision.  The per-n series makes the decay (or its
    failure) auditable.
    """
    return _scan_verdict(req, Property.MIXING, _mixing_scan)


def _chaotic_scan(req: CriterionRequest, ns: np.ndarray) -> _ScanResult:
    """One term per n: the certified total, or inf where no tail bound exists."""
    L_sum = req.L_max
    n_terms = max(L_sum, 2)  # ratio estimation needs two consecutive terms
    depth = series_depth(req, Property.CHAOTIC)
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


def chaotic_check(req: CriterionRequest) -> Verdict:
    """Summed-product decay: for each epsilon, an n with

        max_{x in K} [ sum_{l=1}^{L_max} (phi_{ln}(x) + phi~_{ln}(x)) + tail ] < epsilon

    where tail is a geometric majorant: with r the largest consecutive
    term ratio observed over K and both families, tail <= last * r/(1-r),
    valid only when r < 1.  Candidates without a certified tail are never
    witnesses; the verdict's tail_bounded flag records whether any
    candidate had one.
    """
    return _scan_verdict(req, Property.CHAOTIC, _chaotic_scan)


_CHECKERS = {
    Property.RECURRENT: recurrent_check,
    Property.MULTIPLY_RECURRENT: multiply_recurrent_check,
    Property.TRANSITIVE: transitive_check,
    Property.MIXING: mixing_check,
    Property.CHAOTIC: chaotic_check,
}


def run_check(req: CriterionRequest) -> Verdict:
    """Dispatch to the checker named by the request's property."""
    return _CHECKERS[req.property](req)


@dataclass(frozen=True)
class AuditCheck:
    description: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"description": self.description, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def consistent(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"consistent": self.consistent, "checks": [c.to_json() for c in self.checks]}


def implication_audit(verdicts: Sequence[Verdict]) -> AuditReport:
    """Cross-verdict sanity: a chaos or mixing witness must yield multiple
    recurrence.

    Two layers are checked.  First, when a multiply-recurrent verdict is
    present alongside a chaos/mixing witness, it must itself be a witness.
    Second, every chaos/mixing witness step n is re-validated against the
    depth-L predicate directly (each single product term is dominated by
    the summed series, and every tail step covers all multiples).  Any
    violation raises InconsistentVerdictsError: it signals a bug in this
    package, never a statement about the mathematics.
    """
    vs = list(verdicts)
    if not vs:
        return AuditReport(())
    by_prop: dict[Property, Verdict] = {}
    for v in vs:
        if v.property in by_prop:
            raise ValueError(f"duplicate verdict for property {v.property}")
        by_prop[v.property] = v
    base = vs[0].request
    for v in vs[1:]:
        if v.request.system != base.system or v.request.K != base.K:
            raise ValueError("audit requires verdicts on the same system and K")
    mr = by_prop.get(Property.MULTIPLY_RECURRENT)
    checks: list[AuditCheck] = []
    for prop in (Property.CHAOTIC, Property.MIXING):
        src = by_prop.get(prop)
        if src is None:
            continue
        if src.outcome is not Outcome.WITNESS_FOUND:
            checks.append(AuditCheck(f"{prop.value}: no witness, nothing to imply", True))
            continue
        if mr is not None:
            ok = mr.outcome is Outcome.WITNESS_FOUND
            checks.append(
                AuditCheck(
                    f"{prop.value} witness implies multiply_recurrent witness",
                    ok,
                    f"multiply_recurrent outcome = {mr.outcome.value}",
                )
            )
        depth = mr.request.L if mr is not None else max(src.request.L, 1)
        last = depth * max((entry.n for entry in src.witness), default=0)
        sup_phi, sup_tilde = _sup_series(src.request, last)
        for entry in src.witness:
            steps = np.arange(1, depth + 1) * entry.n
            sup = max(float(sup_phi[steps].max()), float(sup_tilde[steps].max()))
            checks.append(
                AuditCheck(
                    f"{prop.value} witness n={entry.n} validates depth-{depth} "
                    f"predicate at epsilon={entry.epsilon}",
                    sup < entry.epsilon,
                    f"sup = {sup}",
                )
            )
    report = AuditReport(tuple(checks))
    if not report.consistent:
        failed = "; ".join(c.description for c in report.checks if not c.ok)
        raise InconsistentVerdictsError(failed)
    return report
