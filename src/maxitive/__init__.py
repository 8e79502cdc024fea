"""Maxitive measures, idempotent ⊙-integrals, and Radon-Nikodym densities.

Measures here take values in [0, ∞] and turn unions into maxima instead
of sums.  Integration pairs the max with a pluggable
pseudo-multiplication ⊙ (the product gives the Shilkret integral, the
minimum the Sugeno integral).  The library works on finite measurable
spaces with exact rational arithmetic and covers: the ⊙-finiteness
theory of [0, ∞], the ⊙-integral with independent evaluation routes, a
density solver with per-atom failure certificates, the diagnosis of
when every dominated measure admits a density, and the quotient-lattice
machinery (σ-ideals, localization, disjoint variation, CCC).
"""

from .errors import (
    CarrierDomainError,
    CrossCheckError,
    DegenerateOperationError,
    MaxitiveError,
    PreconditionError,
    SizeCapError,
    SpaceMismatchError,
    SpecValidationError,
    UnresolvedInfimumError,
)
from .extreal import INF, ONE, ZERO, ExtNonneg, as_extnn, ext_max, ext_min
from .pseudomul import (
    AxiomCheck,
    AxiomReport,
    CustomContinuous,
    DiscreteChain,
    FinitenessProfile,
    FrontierShape,
    Minimum,
    PseudoMul,
    StandardProduct,
    validate_pseudo_mul,
)
from .spaces import Space, SubsetB
from .measure import (
    MaxMeasure,
    MeasurableFn,
    SetFunctionTable,
    SigmaIdeal,
    SpotReport,
    check_maxitive,
    check_maxitive_bruteforce,
    delta_sharp,
    find_odot_spots,
    is_negligible,
    is_semi_odot_finite,
    is_sigma_odot_finite,
    measure_eval,
    semi_odot_finite_bruteforce,
)
from .integral import (
    assert_oracle_consistent,
    canonical_grid,
    integrate_atomwise,
    integrate_oracle,
    integrate_threshold,
    pushforward,
    pushforward_measure,
    threshold_sweep,
)
from .density import (
    AchievableSet,
    AtomFailure,
    DensityResult,
    FailureReason,
    RNDiagnosis,
    TotalVsPhi,
    achievable_set,
    diagnose_rn,
    finitize_density,
    is_abs_continuous,
    is_abs_continuous_exhaustive,
    rn_failure_witness,
    solve_atom_density,
    solve_density,
    verify_density,
)
from .quotient import (
    AdditiveMeasure,
    CCCVerdict,
    CCCWitness,
    QuotientClass,
    QuotientLattice,
    build_quotient,
    canonical_rep,
    check_ccc,
    ideal_restriction_measure,
    disjoint_variation,
    disjoint_variation_bruteforce,
    enumerate_quotient_sigma_ideals,
    localize,
    nguyen_bruteforce,
    nguyen_measure,
    quotient_leq,
    same_null_sets,
    set_partitions,
    verify_lattice_complete,
    verify_localization,
    verify_nguyen_measure,
)
from .specdoc import SpecDoc, load_spec, parse_spec
from .report import Report, jsonable
from .gallery import GALLERY, run_gallery

__version__ = "0.1.0"
