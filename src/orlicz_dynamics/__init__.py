"""Linear dynamics of weighted translation operators on Orlicz sequence
spaces over discrete groups: Luxemburg norms, weight-product criteria for
recurrence / transitivity / mixing / chaos, and constructive witness
checks."""

__version__ = "0.1.0"

from .criteria import (
    DEFAULT_EPSILONS,
    CriterionRequest,
    Obstruction,
    Outcome,
    Property,
    Verdict,
    WitnessEntry,
    check_obstructions,
    run_check,
)
from .groups import (
    CompactSet,
    CyclicGroup,
    Group,
    HeisenbergGroup,
    IntegerGroup,
    LatticeGroup,
    box,
    separation_constant,
)
from .lab import (
    PeriodicityReport,
    ReturnReport,
    SeedOrbit,
    chaos_periodic_vector,
    choose_truncation,
    empirical_return,
    orbit_norm_series,
    recurrence_witness_vector,
)
from .orlicz import (
    OrliczVector,
    indicator_norm_closed_form,
    luxemburg_norm,
    modular,
    translate,
)
from .translations import (
    ConstantWeight,
    HeisenbergDyadicWeight,
    TableWeight,
    TwoSidedStepWeight,
    WeightedSystem,
    apply_S,
    apply_S_n,
    apply_T,
    apply_T_n,
)
from .young import (
    AlphaLogYoung,
    Delta2Report,
    PowerYoung,
    TableYoung,
    complementary,
    delta2_probe,
    inverse,
    young_inequality_check,
)
