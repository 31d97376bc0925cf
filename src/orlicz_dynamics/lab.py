"""Constructive dynamics lab: witness vectors, periodic vectors and
orbit norm series, all measured in the Luxemburg norm.

The recurrence witness stacks backward iterates of a seed vector at
steps n, 2n, ..., Ln; past the separation constant of the support the
summands live on pairwise disjoint sets, returns to the seed's
neighbourhood are then governed by the orbit weight products.  The
periodic construction additionally stacks forward iterates, and its
period defect is exactly the two dropped boundary terms of the
truncation.

Every iterate comes from ``translations.iterates``, bit for bit the
vectors of applying S or T one step at a time.  The returns, the two
boundary terms and each truncation level reuse a stack or the level
before instead of starting again from f, and each stack is one
``orlicz.vector_sum``, bit for bit repeated ``+``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import SeparationViolatedError, TailUnboundedError
from .orlicz import OrliczVector, luxemburg_norm, vector_sum
from .translations import WeightedSystem, apply_S_n, apply_T_n, iterates

# Witness/periodic summands larger than this abort the construction
# instead of producing meaningless floating-point towers.
TERM_MAGNITUDE_CAP = 1e12


@dataclass(frozen=True)
class ReturnReport:
    """Residuals of one recurrence witness against its seed vector."""

    n: int
    L: int
    epsilon: float
    residual_to_f: float
    return_residuals: tuple[float, ...]
    success: bool

    def to_json(self) -> dict:
        return {**asdict(self), "return_residuals": list(self.return_residuals)}


@dataclass(frozen=True)
class PeriodicityReport:
    """Period defect of one truncated periodic vector."""

    n: int
    L_trunc: int
    defect: float
    predicted_bound: float
    approx_residual: float
    within_bound: bool

    def to_json(self) -> dict:
        return asdict(self)


def recurrence_witness_vector(sys: WeightedSystem, f: OrliczVector, n: int, L: int) -> OrliczVector:
    """v = f + S^n f + S^{2n} f + ... + S^{Ln} f, by iterated application.

    Requires n past the separation constant of supp(f): the L+1 summand
    supports must be pairwise disjoint, otherwise SeparationViolatedError
    is raised.
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    if L < 0:
        raise ValueError("depth L must be >= 0")
    pieces = [f, *iterates(sys, f, n, L, backward=True)]
    if len(set().union(*(piece.support() for piece in pieces))) < sum(map(len, pieces)):
        raise SeparationViolatedError(
            f"witness summand supports overlap at n={n}; "
            "n must exceed the separation constant of supp(f)"
        )
    return vector_sum(pieces)


def empirical_return(
    sys: WeightedSystem, f: OrliczVector, n: int, L: int, epsilon: float
) -> ReturnReport:
    """Build the witness vector and measure its returns: the norm residuals
    N(v - f) and N(T^{ln} v - f) for l = 1..L, all vs the target epsilon."""
    v = recurrence_witness_vector(sys, f, n, L)
    phi = sys.young
    r0 = luxemburg_norm(v - f, phi)
    returns = tuple(luxemburg_norm(piece - f, phi) for piece in iterates(sys, v, n, L))
    ok = r0 < epsilon and all(r < epsilon for r in returns)
    return ReturnReport(
        n=n, L=L, epsilon=epsilon, residual_to_f=r0, return_residuals=returns, success=ok
    )


def chaos_periodic_vector(
    sys: WeightedSystem, f: OrliczVector, n: int, L_trunc: int
) -> tuple[OrliczVector, PeriodicityReport]:
    """Truncated periodic vector v = f + sum_{l<=L} T^{ln} f + sum_{l<=L} S^{ln} f.

    Applying T^n maps the stack onto itself except for the two boundary
    terms, so the period defect N(T^n v - v) is bounded by
    N(T^{(L+1)n} f) + N(S^{Ln} f), which is reported as the predicted
    bound.  TailUnboundedError is raised when a summand exceeds the
    magnitude cap or the trailing terms show no decay.
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    if L_trunc < 0:
        raise ValueError("truncation level must be >= 0")
    phi = sys.young
    *t_pieces, t_edge = iterates(sys, f, n, L_trunc + 1)
    s_pieces = iterates(sys, f, n, L_trunc, backward=True)
    if any(piece.max_abs() > TERM_MAGNITUDE_CAP for piece in t_pieces + s_pieces):
        raise TailUnboundedError(f"summand magnitude exceeds cap {TERM_MAGNITUDE_CAP:g} at n={n}")
    s_last = luxemburg_norm(s_pieces[-1] if s_pieces else f, phi)
    if L_trunc >= 2:
        t_last, t_prev = luxemburg_norm(t_pieces[-1], phi), luxemburg_norm(t_pieces[-2], phi)
        s_prev = luxemburg_norm(s_pieces[-2], phi)
        if t_last >= t_prev or s_last >= s_prev:
            raise TailUnboundedError(
                f"trailing terms do not decay at n={n} (T: {t_prev} -> {t_last}, "
                f"S: {s_prev} -> {s_last})"
            )
    v = vector_sum([f, *t_pieces, *s_pieces])
    defect = luxemburg_norm(apply_T_n(sys, v, n) - v, phi)
    bound = luxemburg_norm(t_edge, phi) + s_last
    report = PeriodicityReport(
        n=n,
        L_trunc=L_trunc,
        defect=defect,
        predicted_bound=bound,
        approx_residual=luxemburg_norm(v - f, phi),
        within_bound=defect <= bound * (1.0 + 1e-9) + 1e-300,
    )
    return v, report


def choose_truncation(sys: WeightedSystem, f: OrliczVector, n: int, cap: int = 32) -> int:
    """Smallest truncation level L whose boundary terms N(T^{(L+1)n} f) and
    N(S^{Ln} f) sum below 1e-15, capped at ``cap``."""
    t_edge, s_edge = apply_T_n(sys, f, n), f
    for L in range(1, cap + 1):
        t_edge, s_edge = apply_T_n(sys, t_edge, n), apply_S_n(sys, s_edge, n)
        if luxemburg_norm(t_edge, sys.young) + luxemburg_norm(s_edge, sys.young) < 1e-15:
            return L
    return cap


def orbit_norm_series(sys: WeightedSystem, f: OrliczVector, n_steps: int) -> list[float]:
    """Norms N(T^n f) for n = 0..n_steps, from the step-by-step iterates."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return [luxemburg_norm(piece, sys.young) for piece in [f, *iterates(sys, f, 1, n_steps)]]
