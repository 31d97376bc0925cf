"""
Criteria tour on the integers
=============================

A two-sided step weight (2 on the nonpositive half line, 1/2 past it)
drives the bilateral weighted shift through the whole criteria ladder:
no obstruction, recurrent = transitive, multiply recurrent at every
depth, mixing along the full tail, and chaotic. A block-alternating
table weight then separates transitivity from mixing: its products dip
along a sparse subsequence but keep returning to 1.
"""

import orlicz_dynamics as od

group = od.IntegerGroup()
step = od.WeightedSystem(
    group=group, a=1, weight=od.TwoSidedStepWeight(2.0, 0.5), young=od.PowerYoung(2.0)
)
K = od.box(group, [[-2, 2]])

print("Two-sided step weight, K = {-2..2}:")
print("  obstructions:", od.check_obstructions(
    od.CriterionRequest(system=step, K=K, property=od.Property.TRANSITIVE)))

for prop in (
    od.Property.RECURRENT,
    od.Property.TRANSITIVE,
    od.Property.MULTIPLY_RECURRENT,
    od.Property.MIXING,
    od.Property.CHAOTIC,
):
    verdict = od.run_check(od.CriterionRequest(system=step, K=K, property=prop, L=3))
    first = verdict.witness[0] if verdict.witness else None
    tag = f"first witness n = {first.n} at epsilon = {first.epsilon}" if first else ""
    print(f"  {prop.value:<20s}: {verdict.outcome.value:<15s} {tag}")

print("\nWitness construction at the finest epsilon:")
request = od.CriterionRequest(
    system=step, K=K, property=od.Property.MULTIPLY_RECURRENT, L=3, epsilons=(1e-3,)
)
entry = od.run_check(request).witness[0]
f = od.OrliczVector.indicator(K)
report = od.empirical_return(od.SeedOrbit(step, f), entry.n, 3, epsilon=1e-2)
print(f"  n = {entry.n}: N(v - f) = {report.residual_to_f:.6e}")
for l, r in enumerate(report.return_residuals, start=1):
    print(f"    N(T^({l}*{entry.n}) v - f) = {r:.6e}")

# Block-alternating weight: m halvings then m doublings per block on the
# positive side (mirrored on the other side), so products dip to 2^-m at
# block midpoints but return to 1 at block ends.
entries = {}
j, m = 1, 1
while j <= 200:
    for _ in range(m):
        if j <= 200:
            entries[j] = 0.5
        j += 1
    for _ in range(m):
        if j <= 200:
            entries[j] = 2.0
        j += 1
    m += 1
j, m = 0, 1
while j >= -200:
    for _ in range(m):
        if j >= -200:
            entries[j] = 2.0
        j -= 1
    for _ in range(m):
        if j >= -200:
            entries[j] = 0.5
        j -= 1
    m += 1
blocks = od.WeightedSystem(
    group=group,
    a=1,
    weight=od.TableWeight(entries=tuple(entries.items()), default=1.0),
    young=od.PowerYoung(2.0),
)
K0 = od.CompactSet.of([0])
print("\nBlock-alternating weight, K = {0}:")
for prop in (od.Property.TRANSITIVE, od.Property.MIXING):
    verdict = od.run_check(od.CriterionRequest(system=blocks, K=K0, property=prop, N_max=150))
    ns = [entry.n for entry in verdict.witness][:5]
    print(f"  {prop.value:<12s}: {verdict.outcome.value:<15s} witnesses at n = {ns}")
print("  (transitive witnesses land on the square block midpoints; the tail never settles)")
