"""The package's public names are pinned: a new export is a deliberate edit here."""

from __future__ import annotations

import types

import orlicz_dynamics as od

PUBLIC_NAMES = [
    "AlphaLogYoung",
    "CompactSet",
    "ConstantWeight",
    "CriterionRequest",
    "CyclicGroup",
    "DEFAULT_EPSILONS",
    "Delta2Report",
    "Group",
    "HeisenbergDyadicWeight",
    "HeisenbergGroup",
    "IntegerGroup",
    "LatticeGroup",
    "Obstruction",
    "OrliczVector",
    "Outcome",
    "PeriodicityReport",
    "PowerYoung",
    "ProductValue",
    "Property",
    "ReturnReport",
    "TableWeight",
    "TableYoung",
    "TwoSidedStepWeight",
    "Verdict",
    "WeightedSystem",
    "WitnessEntry",
    "apply_S",
    "apply_S_n",
    "apply_T",
    "apply_T_n",
    "box",
    "chaos_periodic_vector",
    "check_obstructions",
    "choose_truncation",
    "complementary",
    "delta2_probe",
    "empirical_return",
    "indicator_norm_closed_form",
    "inverse",
    "luxemburg_norm",
    "modular",
    "orbit_norm_series",
    "phi_product",
    "phi_product_pair",
    "phi_series_pair",
    "phi_tilde_product",
    "phi_tilde_product_pair",
    "phi_tilde_series_pair",
    "recurrence_witness_vector",
    "run_check",
    "separation_constant",
    "translate",
    "young_inequality_check",
]


def test_public_names_are_pinned():
    # Submodules are left out: importing one (say orlicz_dynamics.config)
    # binds it on the package, whatever __init__ exports.
    public = sorted(
        name
        for name, value in vars(od).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES
