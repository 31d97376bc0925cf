"""The package's public names are pinned: a new export is a deliberate edit
here.  Names kept only for the benchmark tracer's spans gain no caller."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import orlicz_dynamics as od

SRC = Path(od.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"

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
    "Property",
    "ReturnReport",
    "SeedOrbit",
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


# Uncalled names that stay in their module only as span names of
# bench/tracing.py, until the bench revision of ROADMAP item 2 deletes
# them with those spans; ProductValue is gone already.
VIEWS = {
    "phi_product",
    "phi_tilde_product",
    "phi_product_pair",
    "phi_tilde_product_pair",
    "phi_series_pair",
    "phi_tilde_series_pair",
    "_point_series",
}
SPAN_ONLY = VIEWS | {"ProductValue", "write_series_csv"}


def _names(path: Path) -> set[str]:
    """Every identifier the file's code names: bare, as an attribute, in
    an import or as a definition."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_span_only_names_stay_in_their_own_module():
    files = [*SRC.glob("*.py"), *DEMOS.glob("*.py")]
    assert DEMOS / "chaotic_heisenberg.py" in files
    named = {path.relative_to(SRC.parents[1]).as_posix(): _names(path) & SPAN_ONLY for path in files}
    assert {path: names for path, names in named.items() if names} == {
        "src/orlicz_dynamics/translations.py": VIEWS,
        "src/orlicz_dynamics/report.py": {"write_series_csv"},
    }
