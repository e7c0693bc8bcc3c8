"""Exact combinatorics of three-band circulant determinants and permanents.

The central object is the determinant of the p x p circulant matrix
with 1 on the diagonal, -x on the cyclic offset-1 band and -y on the
cyclic offset-q band: a bivariate integer polynomial whose coefficients
count permutations with displacements in {0, 1, q}.  The package
computes it by independent exact backends, exposes the permutation
classes behind each coefficient (structure, sign, explicit witnesses),
computes the companion permanent with two-sided growth bounds, and
ships a verification harness that checks every structural fact against
brute-force oracles.
"""

from .bipoly import ONE, X, Y, ZERO, BiPoly, Monomial, exact_div
from .circulant import (
    BAREISS_LIMIT,
    BRUTEFORCE_LIMIT,
    DP_BUDGET,
    NEWTON_LIMIT,
    CirculantSpec,
    FloatCheckReport,
    ReducedSpec,
    cycle_cover_counts,
    det_bareiss,
    det_bruteforce,
    det_cycle_cover,
    det_float_check,
    det_newton,
    dp_cost,
    reduce_theta,
    window_width,
)
from .errors import (
    EmptyClass,
    InternalInconsistency,
    InvalidKey,
    IrreducibleSpec,
    NonExactDivision,
    NotACycle,
    StateSpaceTooLarge,
    TooLarge,
)
from .permanent import (
    RYSER_LIMIT,
    GrowthRow,
    PermanentReport,
    bounds_report,
    growth_table,
    growth_table_csv,
    permanent_generating,
    permanent_ryser,
)
from .permclass import (
    ENUMERATION_LIMIT,
    CycleWord,
    LatticePath,
    PermClassKey,
    Permutation,
    StructureReport,
    build_path,
    construct_witness,
    cycle_from_word,
    cyclic_order,
    displacement_profile,
    enumerate_by_profile,
    enumerate_class,
    path_bound_check,
    predict_structure,
    reduce_1p,
    rotate,
)
from .phi import (
    BACKENDS,
    CoefficientReport,
    binomial_power,
    coefficient,
    default_backend,
    phi_polynomial,
    primality_check,
    support,
    trial_division,
)
from .verify import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"
