"""
Chaos on the integer Heisenberg group
=====================================

The dyadic step weight keyed by the z coordinate makes the translation by
a = (3, 0, 2) chaotic: along the orbit of any point with z = 0 the summed
weight products collapse to the geometric closed form 3 / (2^n - 1).
This script reproduces that closed form, runs the chaos checker, and
builds a truncated periodic vector whose period defect matches the
predicted truncation bound.
"""

import orlicz_dynamics as od

group = od.HeisenbergGroup()
system = od.WeightedSystem(
    group=group, a=(3, 0, 2), weight=od.HeisenbergDyadicWeight(), young=od.PowerYoung(2.0)
)

# The chaos check on the one point x reports, for each step n, the summed
# products sum_{l=1..L_max} (phi_{ln}(x) + phi~_{ln}(x)) plus a tail bound.
x = (4, -2, 0)
single = od.CriterionRequest(
    system=system, K=od.CompactSet.of([x]), property=od.Property.CHAOTIC, N_max=10, L_max=64
)
sums = {point.n: point.chaos_sum for point in od.run_check(single).series}
print(f"Summed products at x = {x}, truncated at L = 64 terms:")
for n in (3, 5, 10):
    print(f"  n = {n:2d}: sum = {sums[n]:.12e}   closed form 3/(2^n - 1) = {3 / (2**n - 1):.12e}")

K = od.box(group, [[-1, 1], [-1, 1], [0, 0]])
request = od.CriterionRequest(
    system=system, K=K, property=od.Property.CHAOTIC, L=2, N_max=64, L_max=64
)
verdict = od.run_check(request)
print(f"\nChaos check on the box K (z = 0): {verdict.outcome.value}, "
      f"tail bounded: {verdict.tail_bounded}")
for entry in verdict.witness[:4]:
    print(f"  epsilon = {entry.epsilon:<8g} witness n = {entry.n:2d}  total = {entry.sup_by_l[0]:.6e}")

f = od.OrliczVector.indicator(K)
n = verdict.witness[-1].n
orbit = od.SeedOrbit(system, f)
L_trunc = od.choose_truncation(orbit, n)
v, report = od.chaos_periodic_vector(orbit, n, L_trunc)
print(f"\nPeriodic vector at n = {n}, truncation L = {L_trunc}:")
print(f"  support size       = {len(v)}")
print(f"  approx residual    = {report.approx_residual:.6e}")
print(f"  period defect      = {report.defect:.6e}")
print(f"  predicted bound    = {report.predicted_bound:.6e}")
print(f"  defect <= bound    : {report.within_bound}")
