"""Constructive dynamics lab: witness vectors, periodic vectors and
orbit norm series, all measured in the Luxemburg norm.

The recurrence witness stacks backward iterates of a seed vector at
steps n, 2n, ..., Ln; past the separation constant of the support the
summands live on pairwise disjoint sets, returns to the seed's
neighbourhood are then governed by the orbit weight products.  The
periodic construction additionally stacks forward iterates, and its
period defect is exactly the two dropped boundary terms of the
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SeparationViolatedError, TailUnboundedError
from .orlicz import OrliczVector, luxemburg_norm
from .translations import (
    WeightedSystem,
    apply_S,
    apply_T,
    apply_T_n,
    orbit_series,
)

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
        return {
            "n": self.n,
            "L": self.L,
            "epsilon": self.epsilon,
            "residual_to_f": self.residual_to_f,
            "return_residuals": list(self.return_residuals),
            "success": self.success,
        }


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
        return {
            "n": self.n,
            "L_trunc": self.L_trunc,
            "defect": self.defect,
            "predicted_bound": self.predicted_bound,
            "approx_residual": self.approx_residual,
            "within_bound": self.within_bound,
        }


def _iterate_S(sys: WeightedSystem, f: OrliczVector, steps: int) -> OrliczVector:
    cur = f
    for _ in range(steps):
        cur = apply_S(sys, cur)
    return cur


def _iterate_T(sys: WeightedSystem, f: OrliczVector, steps: int) -> OrliczVector:
    cur = f
    for _ in range(steps):
        cur = apply_T(sys, cur)
    return cur


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
    pieces = [f]
    cur = f
    for _ in range(L):
        cur = _iterate_S(sys, cur, n)
        pieces.append(cur)
    seen: set = set()
    for piece in pieces:
        sup = piece.support()
        if seen & sup:
            raise SeparationViolatedError(
                f"witness summand supports overlap at n={n}; "
                "n must exceed the separation constant of supp(f)"
            )
        seen |= sup
    v = OrliczVector()
    for piece in pieces:
        v = v + piece
    return v


def empirical_return(
    sys: WeightedSystem, f: OrliczVector, n: int, L: int, epsilon: float
) -> ReturnReport:
    """Build the witness vector and measure its returns: the norm residuals
    N(v - f) and N(T^{ln} v - f) for l = 1..L, all vs the target epsilon."""
    v = recurrence_witness_vector(sys, f, n, L)
    phi = sys.young
    r0 = luxemburg_norm(v - f, phi)
    returns = tuple(luxemburg_norm(apply_T_n(sys, v, l * n) - f, phi) for l in range(1, L + 1))
    ok = r0 < epsilon and all(r < epsilon for r in returns)
    return ReturnReport(
        n=n, L=L, epsilon=epsilon, residual_to_f=r0, return_residuals=returns, success=ok
    )


def _boundary_norms(sys: WeightedSystem, f: OrliczVector, n: int, L_trunc: int) -> tuple[float, float]:
    """Norms of the two terms dropped by the truncation, computed from the
    orbit products: N(phi_{(L+1)n} f) and N(phi~_{Ln} f)."""
    phi = sys.young
    pts = [x for x, _ in f.items()]
    t_prod, _ = orbit_series(sys, pts, (L_trunc + 1) * n)
    s_prod, _ = orbit_series(sys, pts, L_trunc * n, backward=True)
    t_side = f.mul_pointwise(dict(zip(pts, t_prod[:, -1].tolist())).__getitem__)
    s_side = f.mul_pointwise(dict(zip(pts, s_prod[:, -1].tolist())).__getitem__)
    return luxemburg_norm(t_side, phi), luxemburg_norm(s_side, phi)


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
    t_pieces, s_pieces = [], []
    cur_t, cur_s = f, f
    for _ in range(L_trunc):
        cur_t = _iterate_T(sys, cur_t, n)
        cur_s = _iterate_S(sys, cur_s, n)
        for piece in (cur_t, cur_s):
            if piece.max_abs() > TERM_MAGNITUDE_CAP:
                raise TailUnboundedError(
                    f"summand magnitude exceeds cap {TERM_MAGNITUDE_CAP:g} at n={n}"
                )
        t_pieces.append(cur_t)
        s_pieces.append(cur_s)
    if L_trunc >= 2:
        t_last, t_prev = luxemburg_norm(t_pieces[-1], phi), luxemburg_norm(t_pieces[-2], phi)
        s_last, s_prev = luxemburg_norm(s_pieces[-1], phi), luxemburg_norm(s_pieces[-2], phi)
        if t_last >= t_prev or s_last >= s_prev:
            raise TailUnboundedError(
                f"trailing terms do not decay at n={n} (T: {t_prev} -> {t_last}, "
                f"S: {s_prev} -> {s_last})"
            )
    v = f
    for piece in t_pieces:
        v = v + piece
    for piece in s_pieces:
        v = v + piece
    defect = luxemburg_norm(apply_T_n(sys, v, n) - v, phi)
    bt, bs = _boundary_norms(sys, f, n, L_trunc)
    bound = bt + bs
    residual = luxemburg_norm(v - f, phi)
    report = PeriodicityReport(
        n=n,
        L_trunc=L_trunc,
        defect=defect,
        predicted_bound=bound,
        approx_residual=residual,
        within_bound=defect <= bound * (1.0 + 1e-9) + 1e-300,
    )
    return v, report


def choose_truncation(
    sys: WeightedSystem, f: OrliczVector, n: int, cap: int = 32, tol: float = 1e-15
) -> int:
    """Smallest truncation level whose boundary terms fall below ``tol``,
    capped at ``cap``."""
    for L in range(1, cap + 1):
        bt, bs = _boundary_norms(sys, f, n, L)
        if bt + bs < tol:
            return L
    return cap


def orbit_norm_series(sys: WeightedSystem, f: OrliczVector, n_steps: int) -> list[float]:
    """Norms N(T^n f) for n = 0..n_steps, by exact iteration."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    phi = sys.young
    out = [luxemburg_norm(f, phi)]
    cur = f
    for _ in range(n_steps):
        cur = apply_T(sys, cur)
        out.append(luxemburg_norm(cur, phi))
    return out
