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

The public names below are loaded on first use (PEP 562), so importing
the package, or one submodule, loads only the modules that are used.
Each access reads the name from its home module afresh: nothing is
cached here, so ``tricirc.X`` is always ``tricirc.<module>.X``.
"""

import importlib

#: home submodule -> the public names it gives the package
_HOMES = {
    "bipoly": "ONE X Y ZERO BiPoly Monomial exact_div",
    "circulant": (
        "BAREISS_LIMIT BRUTEFORCE_LIMIT DP_BUDGET FloatCheckReport "
        "cycle_cover_counts det_bareiss det_bruteforce det_cycle_cover "
        "det_float_check dp_cost window_width"
    ),
    "errors": "InternalInconsistency IrreducibleSpec NonExactDivision TooLarge",
    "permanent": (
        "RYSER_LIMIT GrowthRow PermanentReport bounds_report growth_table "
        "growth_table_csv permanent_ryser"
    ),
    "permclass": (
        "ENUMERATION_LIMIT Permutation StructureReport build_path "
        "construct_witness cycle_notation displacement_profile "
        "enumerate_by_profile enumerate_class path_bound_check "
        "predict_structure"
    ),
    "phi": (
        "BACKENDS NEWTON_LIMIT CirculantSpec CoefficientReport PermClassKey "
        "ReducedSpec binomial_power coefficient default_backend det_newton "
        "phi_polynomial primality_check reduce_theta support trial_division"
    ),
    "verify": "SUITES SuiteResult run_suite",
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
