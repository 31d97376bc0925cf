"""The paper's implications between the properties, on each finite K.

The paper shows that chaos implies multiple recurrence for weighted
translations.  The scans make per-K versions of that and of three more
implications hold by construction, on the same K, N_max and epsilons:

* a ``chaotic`` witness at (epsilon, n) gives a ``multiply_recurrent``
  witness at epsilon with some n' <= n, for every L <= L_max: each chaos
  term bounds every phi_{ln} and phi~_{ln} with l <= L_max, a float sum
  of nonnegative terms is at least each of them, and the chaos rounding
  margin is at least the multiple-recurrence one;
* a ``mixing`` witness at (epsilon, n) gives a ``transitive`` witness at
  epsilon with some n' <= n;
* ``recurrent`` and ``transitive`` give equal witnesses when a has
  infinite order;
* an obstruction to ``multiply_recurrent`` is also one to ``chaotic``.

The draws are Z systems whose weights round: values that mix powers of
two with 0.7218334595390007, 1.5, 0.9 and 1.1.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_dynamics as od
from conftest import P2

Prop = od.Property
VALUES = st.sampled_from([2.0**k for k in range(-3, 4)] + [0.7218334595390007, 1.5, 0.9, 1.1])
WEIGHTS = st.one_of(
    st.builds(od.ConstantWeight, VALUES),
    st.builds(od.TwoSidedStepWeight, VALUES, VALUES),
    # The paper's shape, which has witnesses for a > 0.
    st.builds(od.TwoSidedStepWeight, VALUES.filter(lambda v: v > 1.0), VALUES.filter(lambda v: v < 1.0)),
    st.builds(
        od.TableWeight,
        st.dictionaries(st.integers(-12, 12), VALUES, max_size=8).map(lambda d: tuple(d.items())),
        VALUES,
    ),
)


def _witnesses(verdict: od.Verdict) -> dict[float, int]:
    return {w.epsilon: w.n for w in verdict.witness}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    weight=WEIGHTS,
    a=st.sampled_from([1, -1, 2, 3]),
    points=st.sets(st.integers(-6, 6), min_size=1, max_size=5),
    N_max=st.integers(1, 32),
    L_max=st.integers(1, 4),
    epsilons=st.lists(st.sampled_from([0.5, 0.25, 0.125]), min_size=1, max_size=3, unique=True),
)
def test_the_paper_implications_hold_on_each_K(weight, a, points, N_max, L_max, epsilons):
    system = od.WeightedSystem(group=od.IntegerGroup(), a=a, weight=weight, young=P2)
    K = od.CompactSet.of(sorted(points))

    def check(prop: Prop, **budgets) -> od.Verdict:
        req = od.CriterionRequest(system=system, K=K, property=prop, N_max=N_max, epsilons=tuple(epsilons), **budgets)
        return od.run_check(req)

    chaotic = check(Prop.CHAOTIC, L_max=L_max)
    for L in range(1, L_max + 1):
        multiply = check(Prop.MULTIPLY_RECURRENT, L=L)
        found = _witnesses(multiply)
        for eps, n in _witnesses(chaotic).items():
            assert found.get(eps, n + 1) <= n, (L, eps)
        if multiply.outcome is od.Outcome.OBSTRUCTION_FOUND:
            assert chaotic.outcome is od.Outcome.OBSTRUCTION_FOUND
            assert chaotic.obstruction == multiply.obstruction

    transitive = check(Prop.TRANSITIVE)
    found = _witnesses(transitive)
    for eps, n in _witnesses(check(Prop.MIXING)).items():
        assert found.get(eps, n + 1) <= n, eps

    recurrent = check(Prop.RECURRENT)
    assert (recurrent.outcome, recurrent.witness) == (transitive.outcome, transitive.witness)
