"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import orlicz_dynamics as od
from conftest import all_groups, block_alternating_weight, orbit_product, random_element, random_vector
from orlicz_dynamics.config import load_config

P2 = od.PowerYoung(2.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CANNED = [
    "heisenberg_paper.json",
    "z_shift_chaotic.json",
    "cyclic_torsion.json",
    "constant_contraction.json",
]


def _report(num: int, ok: bool, detail: str):
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_heisenberg_chaos_sum_closed_form():
    t0 = time.perf_counter()
    sys = od.WeightedSystem(
        group=od.HeisenbergGroup(), a=(3, 0, 2), weight=od.HeisenbergDyadicWeight(), young=P2
    )
    worst = 0.0
    for x in ((0, 0, 0), (5, -3, 0), (-7, 2, 0), (1, 1, 0)):
        for n in (5, 10):
            total = sum(
                orbit_product(sys, x, l * n) + orbit_product(sys, x, l * n, backward=True)
                for l in range(1, 65)
            )
            worst = max(worst, abs(total - 3.0 / (2.0**n - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"truncated chaos sums match 3/(2^n - 1): n=5 -> 3/31, n=10 -> 3/1023; "
        f"max abs error {worst:.3e} (tol 1e-12), {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_translation_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    groups = all_groups()
    youngs = [od.PowerYoung(1.0), P2, od.PowerYoung(3.0), od.AlphaLogYoung(1.5)]
    worst = 0.0
    for i in range(200):
        group = groups[i % len(groups)]
        phi = youngs[i % len(youngs)]
        f = random_vector(group, rng)
        a = random_element(group, rng)
        base = od.luxemburg_norm(f, phi)
        shifted = od.luxemburg_norm(od.translate(f, group, a), phi)
        worst = max(worst, abs(shifted - base) / (1.0 + base))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(
        2,
        ok,
        f"200 randomized (group, f, a) triples: max scaled norm drift {worst:.3e} "
        f"(tol 1e-12), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_luxemburg_norm_oracles():
    rng = np.random.default_rng(3)
    group = od.IntegerGroup()
    worst_vec = 0.0
    for _ in range(100):
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
        phi = od.PowerYoung(p)
        f = random_vector(group, rng)
        values = np.array([v for _, v in f.items()])
        closed = p ** (-1.0 / p) * float(np.sum(np.abs(values) ** p)) ** (1.0 / p)
        worst_vec = max(worst_vec, abs(od.luxemburg_norm(f, phi) - closed) / closed)
    worst_ind = 0.0
    for phi in (P2, od.AlphaLogYoung(1.5)):
        for size in range(1, 65):
            B = od.box(group, [[0, size - 1]])
            closed = od.indicator_norm_closed_form(B, phi)
            direct = od.luxemburg_norm(od.OrliczVector.indicator(B), phi)
            worst_ind = max(worst_ind, abs(direct - closed) / closed)
    ok = worst_vec <= 1e-9 and worst_ind <= 1e-9
    _report(
        3,
        ok,
        f"norm vs numpy p-norm closed form on 100 random vectors: {worst_vec:.3e}; "
        f"indicator closed form |B|=1..64, both families: {worst_ind:.3e} (tol 1e-9)",
    )


def test_criterion_4_inverse_and_iterate_identities():
    rng = np.random.default_rng(4)
    worst_inv = 0.0
    mismatches = 0
    for group in all_groups():
        for _ in range(10):
            if group.kind == "Z":
                weight = od.TwoSidedStepWeight(2.0, 0.5)
            elif group.kind == "heisenberg":
                weight = od.HeisenbergDyadicWeight()
            else:
                weight = od.TableWeight(
                    entries=tuple(
                        (random_element(group, rng), float(rng.uniform(0.25, 3.0)))
                        for _ in range(5)
                    ),
                    default=1.0,
                )
            a = group.identity()
            while a == group.identity():
                a = random_element(group, rng)
            sys = od.WeightedSystem(group=group, a=a, weight=weight, young=P2)
            f = random_vector(group, rng, max_support=4)
            ts = od.apply_T(sys, od.apply_S(sys, f))
            st = od.apply_S(sys, od.apply_T(sys, f))
            for x, v in f.items():
                worst_inv = max(worst_inv, abs(ts[x] - v) / abs(v), abs(st[x] - v) / abs(v))
            cur = f
            for n in range(0, 65):
                mismatches += list(od.apply_T_n(sys, f, n).items()) != list(cur.items())
                cur = od.apply_T(sys, cur)
    ok = worst_inv <= 1e-14 and mismatches == 0
    _report(
        4,
        ok,
        f"T(S(h)) = h and S(T(f)) = f per entry: {worst_inv:.3e} (tol 1e-14); "
        f"T^n f vs repeated application, n <= 64: {mismatches} inexact iterates (exact ==)",
    )


def test_criterion_5_criterion_dynamics_loop_on_integers():
    t0 = time.perf_counter()
    zgroup = od.IntegerGroup()
    sys = od.WeightedSystem(group=zgroup, a=1, weight=od.TwoSidedStepWeight(2.0, 0.5), young=P2)
    K = od.box(zgroup, [[-2, 2]])
    mr = od.run_check(
        od.CriterionRequest(
            system=sys, K=K, property=od.Property.MULTIPLY_RECURRENT, L=3, epsilons=(1e-3,)
        )
    )
    witness_ok = (
        mr.outcome is od.Outcome.WITNESS_FOUND
        and mr.witness[0].n == 14
        and mr.witness[0].sup_by_l[0] == 2.0 ** (4 - 14)
    )
    f = od.OrliczVector.indicator(K)
    back = od.empirical_return(od.SeedOrbit(sys, f), 14, 3, epsilon=1e-2)
    chaos = od.run_check(
        od.CriterionRequest(system=sys, K=K, property=od.Property.CHAOTIC, L=3)
    )
    chaos_ok = chaos.outcome is od.Outcome.WITNESS_FOUND and chaos.tail_bounded is True
    _, periodic = od.chaos_periodic_vector(od.SeedOrbit(sys, f), chaos.witness[-1].n, 8)
    elapsed = time.perf_counter() - t0
    ok = witness_ok and back.success and chaos_ok and periodic.within_bound and elapsed < 5.0
    _report(
        5,
        ok,
        f"witness n=14 with sup 2^-10; residuals "
        f"{[f'{r:.2e}' for r in (back.residual_to_f, *back.return_residuals)]} < 1e-2; "
        f"chaos witness with bounded tail; period defect {periodic.defect:.2e} <= "
        f"bound {periodic.predicted_bound:.2e}; {elapsed:.2f}s (< 5s)",
    )


def test_criterion_6_obstruction_suite():
    zgroup = od.IntegerGroup()
    cyc = od.WeightedSystem(
        group=od.CyclicGroup(6),
        a=2,
        weight=od.TableWeight(entries=((0, 2.0), (1, 0.5)), default=1.0),
        young=P2,
    )
    tv = od.run_check(
        od.CriterionRequest(system=cyc, K=od.CompactSet.of([0, 1]), property=od.Property.TRANSITIVE)
    )
    torsion_ok = (
        tv.outcome is od.Outcome.OBSTRUCTION_FOUND
        and tv.obstruction.kind == "torsion"
        and tv.obstruction.order == 3
    )
    half = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(0.5), young=P2)
    hv = od.run_check(
        od.CriterionRequest(system=half, K=od.CompactSet.of([0]), property=od.Property.TRANSITIVE)
    )
    contraction_ok = (
        hv.outcome is od.Outcome.OBSTRUCTION_FOUND
        and hv.obstruction.kind == "contraction"
        and [p.sup_phi_tilde for p in hv.series[:10]] == [2.0**n for n in range(1, 11)]
    )
    double = od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(2.0), young=P2)
    dv = od.run_check(
        od.CriterionRequest(system=double, K=od.CompactSet.of([0]), property=od.Property.TRANSITIVE)
    )
    expansion_ok = (
        dv.outcome is od.Outcome.OBSTRUCTION_FOUND
        and dv.obstruction.kind == "expansion"
        and [p.sup_phi for p in dv.series[:10]] == [2.0**n for n in range(1, 11)]
    )
    ok = torsion_ok and contraction_ok and expansion_ok
    _report(
        6,
        ok,
        "cyclic(6), a=2 -> torsion of order 3; constant 1/2 -> contraction with "
        "backward series 2^n; constant 2 -> expansion with forward series 2^n",
    )


def test_criterion_7_implication_audit_on_shipped_configs():
    # Chaos and mixing imply multiple recurrence: at every chaos or mixing
    # witness (epsilon, n), the multiply-recurrent verdict with the same K,
    # L, epsilons and budgets has its depth-L sup below epsilon at n.
    zgroup = od.IntegerGroup()
    step = od.WeightedSystem(group=zgroup, a=1, weight=od.TwoSidedStepWeight(2.0, 0.5), young=P2)
    bases = [load_config(CONFIG_DIR / name).request for name in CANNED]
    bases.append(
        od.CriterionRequest(system=step, K=od.box(zgroup, [[-2, 2]]), property=od.Property.MIXING, L=3)
    )
    witness_verdicts = 0
    steps = 0
    for base in bases:
        mr = od.run_check(dataclasses.replace(base, property=od.Property.MULTIPLY_RECURRENT))
        for prop in (od.Property.MIXING, od.Property.CHAOTIC):
            v = od.run_check(dataclasses.replace(base, property=prop))
            if v.outcome is od.Outcome.WITNESS_FOUND:
                assert mr.outcome is od.Outcome.WITNESS_FOUND
                witness_verdicts += 1
            for entry in v.witness:
                p = mr.series[entry.n - mr.start_n]
                assert p.n == entry.n
                assert max(p.sup_phi, p.sup_phi_tilde) < entry.epsilon
                steps += 1
    ok = witness_verdicts >= 6
    _report(
        7,
        ok,
        f"chaos/mixing witnesses imply multiple recurrence on the {len(CANNED)} shipped "
        f"configs and the Z step system ({witness_verdicts} witness verdicts, {steps} "
        f"witness steps within the multiply-recurrent series)",
    )


def test_criterion_8_recurrent_transitive_equivalence_matrix():
    zgroup = od.IntegerGroup()
    systems = [load_config(CONFIG_DIR / name) for name in CANNED]
    matrix = [(cfg.request.system, cfg.request.K) for cfg in systems]
    matrix.append(
        (
            od.WeightedSystem(group=zgroup, a=1, weight=od.ConstantWeight(1.0), young=P2),
            od.CompactSet.of([0]),
        )
    )
    matrix.append(
        (
            od.WeightedSystem(group=zgroup, a=1, weight=block_alternating_weight(), young=P2),
            od.CompactSet.of([0]),
        )
    )
    checked = 0
    for sys, K in matrix:
        r = od.run_check(od.CriterionRequest(system=sys, K=K, property=od.Property.RECURRENT))
        t = od.run_check(
            od.CriterionRequest(system=sys, K=K, property=od.Property.TRANSITIVE)
        )
        if sys.group.element_order(sys.a) is None:
            r_core = dataclasses.replace(r, request=t.request)
            assert r_core == t
        else:
            # A finite order blocks transitivity, while recurrence is
            # decided by the cycle products.
            assert t.obstruction.kind == "torsion"
            assert r.obstruction.kind == "cycle_product" and r.obstruction.order == t.obstruction.order
        checked += 1
    _report(
        8,
        checked == len(matrix),
        f"recurrent and transitive checkers returned identical verdicts on all "
        f"{checked} systems in the config matrix where a has infinite order, and "
        f"torsion / cycle_product obstructions where it has finite order",
    )
