"""The package namespace: every public name, loaded from its home module."""

import importlib
import subprocess
import sys

import pytest

import tricirc

#: home module -> the names the package has always exported from it
PUBLIC = {
    "bipoly": "ONE X Y ZERO BiPoly Monomial exact_div",
    "circulant": (
        "BAREISS_LIMIT BRUTEFORCE_LIMIT DP_BUDGET FloatCheckReport "
        "cycle_cover_counts det_bareiss det_bruteforce det_cycle_cover "
        "det_float_check dp_cost window_width"
    ),
    "errors": (
        "EmptyClass InternalInconsistency InvalidKey IrreducibleSpec "
        "NonExactDivision NotACycle StateSpaceTooLarge TooLarge"
    ),
    "permanent": (
        "RYSER_LIMIT GrowthRow PermanentReport bounds_report growth_table "
        "growth_table_csv permanent_generating permanent_ryser"
    ),
    "permclass": (
        "ENUMERATION_LIMIT Permutation "
        "StructureReport build_path construct_witness cyclic_order "
        "displacement_profile enumerate_by_profile enumerate_class "
        "path_bound_check predict_structure reduce_1p rotate"
    ),
    "phi": (
        "BACKENDS NEWTON_LIMIT CirculantSpec CoefficientReport PermClassKey "
        "ReducedSpec binomial_power coefficient default_backend det_newton "
        "phi_polynomial primality_check reduce_theta support trial_division"
    ),
    "verify": "SUITES SuiteResult run_suite",
}

CASES = [(mod, name) for mod, names in PUBLIC.items() for name in names.split()]


def test_every_name_resolves_to_its_home_object():
    for module, name in CASES:
        home = getattr(importlib.import_module(f"tricirc.{module}"), name)
        scope = {}
        exec(f"from tricirc import {name}", scope)
        assert getattr(tricirc, name) is home, name
        assert scope[name] is home, name


def test_all_lists_exactly_the_public_names():
    assert sorted(tricirc.__all__) == sorted(name for _, name in CASES)
    assert set(tricirc.__all__) <= set(dir(tricirc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        tricirc.nonexistent
    with pytest.raises(ImportError):
        exec("from tricirc import nonexistent", {})


def test_names_are_read_afresh_on_every_access(monkeypatch):
    # nothing is cached in the package, so rebinding a name in its home
    # module (as an outside tracer does) and undoing it both show through
    from tricirc import phi

    original = phi.det_newton
    marker = object()
    monkeypatch.setattr(phi, "det_newton", marker)
    assert tricirc.det_newton is marker
    monkeypatch.undo()
    assert tricirc.det_newton is original
    assert "det_newton" not in vars(tricirc)


def test_importing_the_package_loads_no_submodule():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, tricirc; print(sorted(m for m in sys.modules if m.startswith('tricirc.')))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
