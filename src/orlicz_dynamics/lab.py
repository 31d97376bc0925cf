"""Constructive dynamics lab: witness vectors, periodic vectors and
orbit norm series, all measured in the Luxemburg norm.

The recurrence witness stacks backward iterates of a seed vector at
steps n, 2n, ..., Ln; past the separation constant of the support the
summands live on pairwise disjoint sets, returns to the seed's
neighbourhood are then governed by the orbit weight products.  The
periodic construction additionally stacks forward iterates, and its
period defect is exactly the two dropped boundary terms of the
truncation.

Every summand of both constructions, their boundary terms and the orbit
norm series lie on one orbit {T^m f, S^m f : m >= 0} of the seed f, and
the lab functions take it as a ``SeedOrbit``.  It keeps one forward and
one backward ``translations.orbit_stack``, of f or, near the memory cap,
of a piece of f, builds a new one only when a request passes the one it
has, and takes each piece's norm once.  A piece is one column of a
stack, and T^m f is the same vector, bit for bit and in the same
insertion order, however m is split into steps (see ``translations``):
each piece is the vector that applying T or S to f one step at a time
gives, whatever stack it is read from.  A norm reads the piece's values
straight from its stack: ``translations.Stack.column`` gives the
column's nonzero float64 values in f's order, which are the piece's
values in its order.  ``luxemburg_norm`` reads the values alone
(alphalog and table norms in order, power norms in any order), so that
is the piece's norm bit for bit, and no point is moved and no vector is
built for it.  The period defect T^n v - v and the returns T^{ln} v of a
witness v lie on v's orbit, not f's, and take ``translations.apply_T_n``
and ``translations.iterates``, with the orbit's stacks released first
when they and the call's price, ``translations.iterates_bytes``, would
not fit the cap together.  Each sum of pieces is one
``orlicz.vector_sum``, bit for bit repeated ``+``.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import translations
from .errors import SeparationViolatedError, TailUnboundedError
from .orlicz import OrliczVector, luxemburg_norm, vector_sum
from .translations import Stack, WeightedSystem, apply_T_n, iterates, orbit_stack, product_gamma, stack_bytes

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


@dataclass(frozen=True)
class PeriodicityReport:
    """Period defect of one truncated periodic vector."""

    n: int
    L_trunc: int
    defect: float
    predicted_bound: float
    approx_residual: float
    within_bound: bool


class SeedOrbit:
    """The orbit of a seed f under a system: ``piece(m)`` is T^m f for
    m > 0, S^{-m} f for m < 0 and f at 0, and ``norm(m)`` its Luxemburg
    norm, taken once from the values of piece(m) in its stack's column
    (``translations.Stack.column``; see the module docstring).

    Each direction keeps one stack (``translations.orbit_stack``) of a
    piece: of f, or of the last piece of the stack before.  A request the
    stack does not hold builds a new one, with the old freed first.  It is
    a stack of f to max(request, twice the old one's reach), as far as
    fits in half of ``translations.SERIES_MEMORY_CAP`` and beside the
    other direction's stack; so it at most doubles, and two grown stacks
    fit together.  When the request itself does not fit there, the new
    stack goes on from the old one's last piece instead, to the same
    reach as far as fits, and does not fill the old columns again; a
    later request below that piece builds a stack of f.  A new stack
    that does not fit beside the other direction's drops that one, and
    ``release`` drops both for an ``iterates`` call off the orbit whose
    price does not fit beside them.  So a request is refused only when
    its stack of f alone passes the cap (``orbit_stack``'s refusal)."""

    def __init__(self, sys: WeightedSystem, f: OrliczVector):
        self.sys, self.f = sys, f
        self._stacks: dict[bool, tuple[int, Stack]] = {}  # direction -> (base, stack of piece(+-base))
        self._norms: dict[int, float] = {}

    def piece(self, m: int) -> OrliczVector:
        if m == 0 or not self.f:
            return self.f
        base, stack = self._stack(m)
        return stack.iterate(abs(m) - base)

    def norm(self, m: int) -> float:
        if m not in self._norms:
            if m == 0 or not self.f:
                column = self.f
            else:
                base, stack = self._stack(m)
                column = stack.column(abs(m) - base)
            self._norms[m] = luxemburg_norm(column, self.sys.young)
        return self._norms[m]

    def held(self) -> int:
        """Bytes of the stacks kept."""
        return sum(stack.block.nbytes for _, stack in self._stacks.values())

    def release(self, nbytes: int) -> None:
        """Drop the stacks kept when nbytes more beside them would pass the cap."""
        if self.held() + nbytes > translations.SERIES_MEMORY_CAP:
            self._stacks.clear()

    def _stack(self, m: int) -> tuple[int, Stack]:
        """(base, stack) of m's direction, whose column |m| - base holds piece(m)."""
        backward, c = m < 0, abs(m)
        base, stack = self._stacks.pop(backward, (0, None))
        if stack is not None and base < c <= base + stack.depth:
            self._stacks[backward] = base, stack
            return base, stack
        reach = 0 if stack is None else base + stack.depth
        cap, other = translations.SERIES_MEMORY_CAP, self.held()
        room = min(cap // 2, cap - other)
        whole = stack_bytes(len(self.f), c)
        if stack is not None and reach < c and room < whole <= cap:
            start, base = stack.iterate(stack.depth), reach
        else:
            start, base = self.f, 0
        stack = None  # the old stack is freed before the new one allocates
        if stack_bytes(len(start), c - base) > cap - other:
            self._stacks.clear()
            other, room = 0, cap // 2
        fits = room // stack_bytes(len(start), 0) - 1 + base if start else c
        stack = orbit_stack(self.sys, start, max(c, min(2 * reach, fits)) - base, backward)
        self._stacks[backward] = base, stack
        return base, stack


def recurrence_witness_vector(orbit: SeedOrbit, n: int, L: int) -> OrliczVector:
    """v = f + S^n f + S^{2n} f + ... + S^{Ln} f, from the seed's orbit.

    Requires n past the separation constant of supp(f): the L+1 summand
    supports must be pairwise disjoint, otherwise SeparationViolatedError
    is raised.
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    if L < 0:
        raise ValueError("depth L must be >= 0")
    pieces = [orbit.piece(-l * n) for l in range(L + 1)]
    v = vector_sum(pieces)
    # Each piece holds nonzero values on distinct keys, so the sum has
    # fewer keys than the pieces exactly when two supports meet.
    if len(v) < sum(map(len, pieces)):
        raise SeparationViolatedError(
            f"witness summand supports overlap at n={n}; "
            "n must exceed the separation constant of supp(f)"
        )
    return v


def empirical_return(orbit: SeedOrbit, n: int, L: int, epsilon: float) -> ReturnReport:
    """Build the witness vector and measure its returns: the norm residuals
    N(v - f) and N(T^{ln} v - f) for l = 1..L, all vs the target epsilon.

    When the order of a divides n, T^n keeps every point in place, so
    S^{ln} f lies on supp(f): f itself is then the witness vector, and
    its returns are N(T^{ln} f - f)."""
    sys, f = orbit.sys, orbit.f
    order = sys.group.element_order(sys.a)
    v = f if order is not None and n % order == 0 else recurrence_witness_vector(orbit, n, L)
    phi = sys.young
    r0 = luxemburg_norm(v - f, phi)
    orbit.release(translations.iterates_bytes(sys.group, len(v), n, L))
    returns = tuple(luxemburg_norm(piece - f, phi) for piece in iterates(sys, v, n, L))
    ok = r0 < epsilon and all(r < epsilon for r in returns)
    return ReturnReport(
        n=n, L=L, epsilon=epsilon, residual_to_f=r0, return_residuals=returns, success=ok
    )


def chaos_periodic_vector(orbit: SeedOrbit, n: int, L_trunc: int) -> tuple[OrliczVector, PeriodicityReport]:
    """Truncated periodic vector v = f + sum_{l<=L} T^{ln} f + sum_{l<=L} S^{ln} f.

    Applying T^n maps the stack onto itself except for the two boundary
    terms, so the period defect N(T^n v - v) is bounded by
    N(T^{(L+1)n} f) + N(S^{Ln} f), which is reported as the predicted
    bound.  TailUnboundedError is raised when a summand exceeds the
    magnitude cap or the trailing terms show no decay.

    In floats T^n(S^{ln} f) is S^{(l-1)n} f only when the divisions are
    exact, so ``within_bound`` allows a defect past the bound by rounding:
    each entry of the computed T^n v - v takes k = (L+1)n + 2L + 1
    roundings, so (summands on disjoint supports) it errs by at most
    gamma_k (|v| + |T^n v|), whose norm is at most gamma_k (bound + 2 N(v)),
    with N(v) <= approx_residual + N(f).  k counts three more for the
    second-order terms; gamma is 0 with dyadic weights (``product_gamma``).
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    if L_trunc < 0:
        raise ValueError("truncation level must be >= 0")
    sys, f, phi = orbit.sys, orbit.f, orbit.sys.young
    t_pieces = [orbit.piece(l * n) for l in range(1, L_trunc + 1)]
    s_pieces = [orbit.piece(-l * n) for l in range(1, L_trunc + 1)]
    if any(piece.max_abs() > TERM_MAGNITUDE_CAP for piece in t_pieces + s_pieces):
        raise TailUnboundedError(f"summand magnitude exceeds cap {TERM_MAGNITUDE_CAP:g} at n={n}")
    s_last = orbit.norm(-L_trunc * n)
    if L_trunc >= 2:
        t_last, t_prev = orbit.norm(L_trunc * n), orbit.norm((L_trunc - 1) * n)
        s_prev = orbit.norm(-(L_trunc - 1) * n)
        if t_last >= t_prev or s_last >= s_prev:
            raise TailUnboundedError(
                f"trailing terms do not decay at n={n} (T: {t_prev} -> {t_last}, "
                f"S: {s_prev} -> {s_last})"
            )
    bound = orbit.norm((L_trunc + 1) * n) + s_last
    v = vector_sum([f, *t_pieces, *s_pieces])
    orbit.release(translations.iterates_bytes(sys.group, len(v), n, 1))
    defect = luxemburg_norm(apply_T_n(sys, v, n) - v, phi)
    residual = luxemburg_norm(v - f, phi)
    within = defect <= bound * (1.0 + 1e-9) + 1e-300
    g = 0.0 if within else product_gamma(sys.weight, (L_trunc + 1) * n + 2 * L_trunc + 4)
    if g:
        allowance = g * (bound + 2.0 * (residual + orbit.norm(0)))
        within = defect <= (bound + allowance) * (1.0 + 1e-9) + 1e-300
    report = PeriodicityReport(
        n=n,
        L_trunc=L_trunc,
        defect=defect,
        predicted_bound=bound,
        approx_residual=residual,
        within_bound=within,
    )
    return v, report


def choose_truncation(orbit: SeedOrbit, n: int, cap: int = 32) -> int:
    """Smallest truncation level L whose boundary terms N(T^{(L+1)n} f) and
    N(S^{Ln} f) sum below 1e-15, capped at ``cap``."""
    for L in range(1, cap + 1):
        if orbit.norm((L + 1) * n) + orbit.norm(-L * n) < 1e-15:
            return L
    return cap


def orbit_norm_series(orbit: SeedOrbit, n_steps: int) -> list[float]:
    """Norms N(T^n f) for n = 0..n_steps, from the seed's orbit."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return [orbit.norm(m) for m in range(n_steps + 1)]
