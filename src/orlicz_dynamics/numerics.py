"""Scalar bisection and golden-section search: the numerical core behind
generalized inverses of Young functions and the numeric convex conjugate
(1-D concave maximization).  Plus the rounding bound gamma.
"""

from __future__ import annotations

import math
from typing import Callable

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u) for k u < 1: k rounded multiplies or
    divides, or k additions of nonnegative terms, err by at most gamma_k
    relative to the exact result while no step leaves the normal range
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Lemma 3.1 and section 4.2)."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    Terminates when the bracket width falls below 1e-12 relative to the
    midpoint, or when lo and hi are adjacent floats, so a root near 0 or
    among the subnormals keeps its relative accuracy.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi overflows
            mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= 1e-12 * abs(mid) or mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo = mid


def golden_max(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal g on [lo, hi].

    Returns (argmax, max value) once the bracket is 1e-10 wide or after
    400 steps.  Endpoints are included in the final comparison, so
    monotone objectives resolve to the better endpoint.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    it = 0
    while b - a > 1e-10 and it < 400:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + GOLDEN * (b - a)
            gd = g(d)
        it += 1
    candidates = [(lo, g(lo)), (hi, g(hi)), (c, gc), (d, gd)]
    return max(candidates, key=lambda p: p[1])


def expand_while_increasing(g: Callable[[float], float]) -> float | None:
    """Grow x geometrically from 1 while g keeps increasing at the right end.

    Returns an upper bracket x with g(x) past the peak, or None when the
    objective is still climbing at the cap 1e18 (callers treat this as an
    unbounded supremum).
    """
    x = 1.0
    gx = g(x)
    while x < 1e18:
        x2 = 2.0 * x
        gx2 = g(x2)
        if gx2 <= gx:
            return x2
        x, gx = x2, gx2
    return None
