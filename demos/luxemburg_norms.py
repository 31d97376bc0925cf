"""
Luxemburg norms on discrete groups
==================================

The norm of a finitely supported vector is the root of its modular: in
closed form for the power family, by a safeguarded secant for the others.  For
characteristic functions there is a closed form under every family, and
translation by any group element is an exact isometry.
"""

import numpy as np

import orlicz_dynamics as od

group = od.IntegerGroup()
p2 = od.PowerYoung(2.0)

print("luxemburg_norm vs the p-norm in numpy (power family):")
rng = np.random.default_rng(3)
for p in (1.0, 2.0, 3.0):
    phi = od.PowerYoung(p)
    values = rng.uniform(0.5, 3.0, size=5)
    f = od.OrliczVector({i: float(v) for i, v in enumerate(values)})
    closed = p ** (-1.0 / p) * float(np.sum(np.abs(values) ** p)) ** (1.0 / p)
    print(f"  p = {p}: luxemburg_norm = {od.luxemburg_norm(f, phi):.12f}   "
          f"numpy = {closed:.12f}")

print("\nIndicator norms 1 / Phi^-1(1/|B|), alphalog family (secant):")
alphalog = od.AlphaLogYoung(1.5)
for size in (1, 2, 8, 32):
    B = od.box(group, [[0, size - 1]])
    chi = od.OrliczVector.indicator(B)
    print(f"  |B| = {size:2d}: closed form = {od.indicator_norm_closed_form(B, alphalog):.10f}   "
          f"secant = {od.luxemburg_norm(chi, alphalog):.10f}")

print("\nTranslation is an exact isometry (here on the Heisenberg group):")
heis = od.HeisenbergGroup()
f = od.OrliczVector({(0, 0, 0): 1.5, (1, -1, 2): -0.25, (2, 0, 1): 0.75})
base = od.luxemburg_norm(f, p2)
for a in [(3, 0, 2), (-1, 4, 0), (2, 2, -5)]:
    shifted = od.translate(f, heis, a)
    print(f"  a = {a!s:<12}: N(f * delta_a) = {od.luxemburg_norm(shifted, p2):.15f}   "
          f"N(f) = {base:.15f}")

print("\nOrbit norm series under weighted translations:")
step = od.WeightedSystem(group=group, a=1, weight=od.TwoSidedStepWeight(2.0, 0.5), young=p2)
doubling = od.WeightedSystem(group=group, a=1, weight=od.ConstantWeight(2.0), young=p2)
delta = od.OrliczVector.delta(0)
for label, system in (("two-sided step,", step), ("constant 2,    ", doubling)):
    series = od.orbit_norm_series(od.SeedOrbit(system, delta), 6)
    print(f"  {label} f = delta_0:", [f"{v:.4f}" for v in series])
