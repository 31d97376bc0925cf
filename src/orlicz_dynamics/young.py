"""Young functions and their numeric calculus.

A Young function is continuous, even, convex, vanishes only at 0 and grows
to infinity.  Built-in families:

* ``PowerYoung(p)``      -- |t|^p / p, p >= 1
* ``AlphaLogYoung(a)``   -- |t|^a * (1 + |log|t||), a > 1
* ``TableYoung(knots)``  -- piecewise-linear interpolation of a sampled
  table on [0, T], validated for monotonicity and convexity

Exponents and knots must be finite.  Every family has ``domain_max``, the
largest |t| it is defined at: inf for power and alphalog, the last knot
for tables.  The config module alone reads and writes the JSON form of
these families (``power``, ``alphalog``, ``custom``).

Each family evaluates two ways, alphalog and table three:

* ``evaluate(t)`` is the scalar reference.
* ``evaluate_many(ts)`` maps an iterable of nonnegative floats to Python
  floats equal, bit for bit, to ``evaluate`` on each element: the power
  and alphalog kernels call libm ``math.pow`` and ``math.log`` through
  ``map`` or one list comprehension (numpy's ``power`` and ``log`` round
  differently on a few inputs), and the table kernel runs ``evaluate``'s
  segment search and four operations elementwise in numpy.  An overflow
  in ``pow`` raises OverflowError and a table argument past the domain
  raises OutOfRangeError, as in the scalar path.  A table gives nan for
  a NaN argument on all three paths.
  The exact modular sums it.
* ``evaluate_array(ts)``, on alphalog and table only, is the float64
  numpy screen that decides the Luxemburg norm's probes where its error
  bound allows (see ``orlicz``): ``np.power`` and ``np.log`` for alphalog,
  ``np.interp`` for tables (faster than the exact table kernel).  It may
  overwrite ``ts`` and returns the terms.  Each term is within 32 units
  of 2^-53, relative, of ``evaluate`` (both sides are within a few ulps
  of the true value: numpy 2.4's AVX-512 ``power`` and ``log`` differ
  from libm by at most 1 ulp over 8·10^5 sampled arguments per
  exponent), or both are below 2^-1000.  Where ``evaluate`` would raise,
  or its pow overflow, the screen's term is inf, nan or at least
  ``SCREEN_CEILING``.  The caller suppresses numpy's floating-point
  warnings.  A power norm needs no screen: it takes its closed form.

The complementary (conjugate) function, the generalized inverse, the
doubling-ratio probe and the Young-inequality sampler are all numeric and
work uniformly across families; closed forms exist only in tests as
oracles.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import truediv
from typing import Iterable

import numpy as np

from .errors import OrliczDynamicsError, OutOfRangeError
from .numerics import bisect_root, expand_while_increasing, golden_max

CONVEXITY_SLACK = 1e-12
# A screen term at or above this may stand for an exact term that raises
# or overflows; the norm then takes the exact modular.
SCREEN_CEILING = 2.0**1000


@dataclass(frozen=True)
class PowerYoung:
    """Phi(t) = |t|^p / p."""

    p: float
    domain_max = math.inf

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValueError("power exponent must satisfy 1 <= p < inf")

    def evaluate(self, t: float) -> float:
        return abs(t) ** self.p / self.p

    def evaluate_many(self, ts: Iterable[float]) -> Iterable[float]:
        p = self.p
        return map(truediv, map(math.pow, ts, repeat(p)), repeat(p))


@dataclass(frozen=True)
class AlphaLogYoung:
    """Phi(t) = |t|^alpha * (1 + |log|t||).

    Strictly increasing on t >= 0 with Phi(0) = 0.  Note: for small alpha
    the raw formula has a mild concavity dip just left of t = 1 (it is
    equivalent to, but not literally, a convex function); the doubling
    probe and all norm machinery only rely on monotonicity.
    """

    alpha: float
    domain_max = math.inf

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError("alphalog exponent must satisfy 1 < alpha < inf")

    # Each log is taken at t, or at 5e-324, the least positive float, when
    # t = 0: it is finite there, and the power makes the term 0.
    def evaluate(self, t: float) -> float:
        at = abs(t)
        return at**self.alpha * (1.0 + abs(math.log(at or 5e-324)))

    def evaluate_many(self, ts: Iterable[float]) -> Iterable[float]:
        alpha, log, pow_ = self.alpha, math.log, math.pow
        return [pow_(t, alpha) * (1.0 + abs(log(t or 5e-324))) for t in ts]

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        logs = np.maximum(ts, 5e-324)
        np.log(logs, out=logs)
        np.abs(logs, out=logs)
        logs += 1.0
        np.power(ts, self.alpha, out=ts)
        ts *= logs
        return ts


@dataclass(frozen=True)
class TableYoung:
    """Piecewise-linear Young function from a sampled table on [0, T].

    ``knots`` is a sequence of (t, value) pairs with t ascending from 0,
    value(0) = 0, values positive for t > 0, nondecreasing, and secant
    slopes nondecreasing (convexity) up to a 1e-12 slack.  Evaluation
    beyond the last knot raises OutOfRangeError.  The knot abscissae are
    collected once, so ``evaluate`` is an O(log knots) bisection, and the
    knots are kept as float64 arrays for ``evaluate_many`` and the
    ``np.interp`` screen.
    """

    knots: tuple[tuple[float, float], ...]
    # Derived in __post_init__, out of eq, hash and repr: the knot
    # abscissae, and the knots as the (xp, fp) arrays of np.interp.
    _ts: tuple = field(init=False, repr=False, compare=False)
    _grid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", ks)
        if len(ks) < 2:
            raise ValueError("table needs at least two knots")
        if not all(math.isfinite(x) for knot in ks for x in knot):
            raise ValueError("knots must be finite")
        ts = [t for t, _ in ks]
        vs = [v for _, v in ks]
        if ts[0] != 0.0 or vs[0] != 0.0:
            raise ValueError("table must start at (0, 0)")
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        if any(v <= 0.0 for v in vs[1:]):
            raise ValueError("values must be positive for t > 0")
        # The convexity slack alone would let values fall a little; the
        # np.interp screen's error bound needs every segment to rise.
        if any(v1 > v2 for v1, v2 in zip(vs, vs[1:])):
            raise ValueError("table values must be nondecreasing")
        slopes = [(v2 - v1) / (t2 - t1) for (t1, v1), (t2, v2) in zip(ks, ks[1:])]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 - s1 < -CONVEXITY_SLACK * max(1.0, abs(s1), abs(s2)):
                raise ValueError("table violates convexity (secant slopes decrease)")
        object.__setattr__(self, "_ts", tuple(ts))
        object.__setattr__(self, "_grid", (np.array(ts), np.array(vs)))

    @property
    def domain_max(self) -> float:
        return self.knots[-1][0]

    def evaluate(self, t: float) -> float:
        at = abs(t)
        ts = self._ts
        if at > ts[-1]:
            raise OutOfRangeError(f"|t| = {at} beyond table range {ts[-1]}")
        i = bisect_right(ts, at) - 1
        if i >= len(ts) - 1:
            # The last knot, or NaN, which bisect_right puts after every knot.
            return self.knots[-1][1] if at == ts[-1] else math.nan
        t1, v1 = self.knots[i]
        t2, v2 = self.knots[i + 1]
        return v1 + (v2 - v1) * (at - t1) / (t2 - t1)

    def evaluate_many(self, ts: Iterable[float]) -> Iterable[float]:
        # Bit for bit evaluate: the same segment and four operations.
        xp, fp = self._grid
        at = np.abs(np.fromiter(ts, float))
        past = at > xp[-1]
        if past.any():
            raise OutOfRangeError(f"|t| = {float(at[past.argmax()])} beyond table range {self._ts[-1]}")
        i = np.minimum(np.searchsorted(xp, at, side="right") - 1, len(xp) - 2)
        t1, v1 = xp[i], fp[i]
        out = v1 + (fp[i + 1] - v1) * (at - t1) / (xp[i + 1] - t1)
        return np.where(at == xp[-1], fp[-1], out).tolist()

    def evaluate_array(self, ts: np.ndarray) -> np.ndarray:
        # Past the domain the term is inf, so the caller takes the exact
        # path, which raises OutOfRangeError.
        xp, fp = self._grid
        return np.interp(ts, xp, fp, right=math.inf)


YoungFunction = PowerYoung | AlphaLogYoung | TableYoung


@dataclass(frozen=True)
class Delta2Report:
    """Probed doubling ratio sup Phi(2t)/Phi(t) over a log-spaced grid.

    Numeric evidence only, never a proof; downstream criteria must not
    branch on it.
    """

    ratio_sup: float
    t_lo: float
    t_hi: float
    n_grid: int
    evidence_only: bool = True


def inverse(phi: YoungFunction, s: float) -> float:
    """Generalized inverse inf{t >= 0 : Phi(t) >= s}.

    Power in closed form, p^(1/p) s^(1/p), which no finite s overflows.
    Otherwise doubling up to the domain's end or the largest float, then
    bisection to relative tolerance 1e-12.  inf where s is: every finite
    t has Phi(t) < inf.
    """
    if not s >= 0.0:
        raise ValueError("inverse argument must be >= 0")
    if s == 0.0:
        return 0.0
    if isinstance(phi, PowerYoung):
        root = 1.0 / phi.p
        return phi.p**root * s**root
    cap = phi.domain_max
    if phi.evaluate(cap) < s:
        raise OutOfRangeError(f"target {s} above table maximum {phi.evaluate(cap)}")
    if s == math.inf:
        return math.inf

    def excess(t: float) -> float:
        try:
            return phi.evaluate(t) - s
        except OverflowError:  # alphalog: t^alpha alone is past DBL_MAX >= s
            return math.inf

    hi = min(1.0, cap)
    while excess(hi) < 0.0:
        hi = min(2.0 * hi, cap, sys.float_info.max)
    return bisect_root(excess, 0.0, hi)


def _conjugate_objective(phi: YoungFunction, ay: float):
    """x -> x|y| - Phi(x), the objective whose sup is Psi(y)."""
    return lambda x: x * ay - phi.evaluate(x)


def _bracketed_max(phi: YoungFunction, ay: float, lo: float, hi: float) -> float:
    """Max of the conjugate objective on [lo, hi]: coarse grid scan, then
    golden refinement around the best cell.  The grid takes Phi from one
    ``evaluate_many`` call, bit for bit the scalar objective.

    The scan costs nothing for concave objectives and protects against the
    mild non-unimodality of equivalent-to-convex families, whose conjugate
    objective can carry two local maxima.
    """
    xs = np.linspace(lo, hi, 129).tolist()
    vals = [x * ay - v for x, v in zip(xs, phi.evaluate_many(xs))]
    i = int(np.argmax(vals))
    _, refined = golden_max(_conjugate_objective(phi, ay), xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)])
    return max(refined, max(vals))


def complementary(phi: YoungFunction, y: float) -> float:
    """Complementary function sup{x|y| - Phi(x) : x >= 0}, numerically.

    Bracket expansion followed by golden-section refinement (absolute
    tolerance 1e-10 on x).  Returns math.inf when the objective is still
    increasing at the expansion cap; for table families the supremum is
    taken over the table domain.
    """
    ay = abs(y)
    if ay == 0.0:
        return 0.0
    hi = phi.domain_max
    if hi == math.inf:
        hi = expand_while_increasing(_conjugate_objective(phi, ay))
        if hi is None:
            return math.inf
    return max(_bracketed_max(phi, ay, 0.0, hi), 0.0)


def young_inequality_check(phi: YoungFunction, samples: int, seed: int = 0) -> float:
    """Max of x*y - Phi(x) - Psi(y) over random (x, y) >= 0.

    Points where the numeric conjugate is infinite are skipped.  For a
    genuine Young pair the result is <= 0 up to conjugation error.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    x_hi = phi.domain_max if phi.domain_max < math.inf else 8.0
    worst = -math.inf
    for _ in range(samples):
        x = float(rng.uniform(0.0, x_hi))
        y = float(rng.uniform(0.0, 8.0))
        psi = complementary(phi, y)
        if math.isinf(psi):
            continue
        worst = max(worst, x * y - phi.evaluate(x) - psi)
    return worst


def delta2_probe(phi: YoungFunction, t_lo: float, t_hi: float, n_grid: int) -> Delta2Report:
    """Sup of Phi(2t)/Phi(t) on a log-spaced grid in [t_lo, t_hi], over the
    points where Phi(t) is a normal float and Phi(2t) does not overflow."""
    if not (0.0 < t_lo < t_hi):
        raise ValueError("need 0 < t_lo < t_hi")
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    ratios = []
    for t in np.geomspace(t_lo, t_hi, n_grid).tolist():
        try:
            low, high = phi.evaluate(t), phi.evaluate(2.0 * t)
        except OverflowError:
            continue
        if low >= sys.float_info.min and high < math.inf:
            ratios.append(high / low)
    if not ratios:
        raise OrliczDynamicsError(f"Phi(t) underflows or Phi(2t) overflows at each grid point in [{t_lo}, {t_hi}]")
    return Delta2Report(ratio_sup=max(ratios), t_lo=t_lo, t_hi=t_hi, n_grid=n_grid)
