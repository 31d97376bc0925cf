"""Exact reference for the criteria scans and for power norms.

Every float is a rational number, so ``fractions.Fraction`` gives the
orbit products that the float weights define with no rounding at all.
The witness predicates are then decided exactly: a reported witness
(epsilon, n) is sound when ``exact_term(req, n) < epsilon``.  The weights
come from the scalar ``__call__`` along ``Group.mul``, independent of the
array fills the scans use.  Power norms have closed forms in the
vector's entries, so their references are exact too.
"""

from __future__ import annotations

from fractions import Fraction

import orlicz_dynamics as od


def exact_series(sys: od.WeightedSystem, x, depth: int, backward: bool = False) -> list[Fraction]:
    """Exact products for n = 0..depth: prod_{j=1..n} w(x a^j), or with
    backward set 1 / prod_{j=0..n-1} w(x a^{-j})."""
    g, w = sys.group, sys.weight
    step = g.inv(sys.a) if backward else sys.a
    out, acc, cur = [Fraction(1)], Fraction(1), x
    for _ in range(depth):
        if not backward:
            cur = g.mul(cur, step)
        acc *= Fraction(w(cur))
        if backward:
            cur = g.mul(cur, step)
        out.append(1 / acc if backward else acc)
    return out


def exact_sup(req: od.CriterionRequest, depth: int) -> list[Fraction]:
    """max over K of max(phi_m(x), phi~_m(x)) for m = 0..depth, exactly."""
    series = [s for x in req.K for s in (exact_series(req.system, x, depth), exact_series(req.system, x, depth, True))]
    return [max(column) for column in zip(*series)]


def exact_term(req: od.CriterionRequest, n: int) -> Fraction:
    """The exact term of step n that the property's witness predicate
    compares with epsilon: the sup of both product families at n (at n,
    2n, ..., Ln for multiple recurrence, over [n, N_max] for mixing), or
    for chaos the truncated sum over l <= L_max, without its tail."""
    prop = req.property
    if prop is od.Property.CHAOTIC:
        return max(_chaos_sum(req, x, n) for x in req.K)
    if prop is od.Property.MIXING:
        return max(exact_sup(req, req.N_max)[n:])
    L = req.L if prop is od.Property.MULTIPLY_RECURRENT else 1
    sup = exact_sup(req, L * n)
    return max(sup[l * n] for l in range(1, L + 1))


def _chaos_sum(req: od.CriterionRequest, x, n: int) -> Fraction:
    depth = req.L_max * n
    forward, backward = exact_series(req.system, x, depth), exact_series(req.system, x, depth, True)
    return sum(forward[l * n] + backward[l * n] for l in range(1, req.L_max + 1))


def power1_norm(values) -> Fraction:
    """The Luxemburg norm under Phi(t) = |t|: N = sum |v|, exactly."""
    return sum((abs(Fraction(v)) for v in values), Fraction(0))


def power2_norm_squared(values) -> Fraction:
    """The square of the Luxemburg norm under Phi(t) = t^2 / 2:
    N^2 = sum v^2 / 2, exactly."""
    return sum((Fraction(v) ** 2 for v in values), Fraction(0)) / 2
