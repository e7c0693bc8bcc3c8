"""The package namespace: every public name, loaded from its home module."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

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


def test_every_internal_check_raises_internal_inconsistency():
    # one type for a failed check, so the CLI maps it to one exit code; an
    # ``assert`` would also vanish under ``python -O``
    src = Path(tricirc.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_phi_inverts_units_mod_p():
    # phi's re-indexing table is the one place that inverts a unit of Z_p
    # (pow(_, -1, _)), so no second copy of it can grow in another module
    src = Path(tricirc.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "pow"
                and len(node.args) == 3
                and ast.unparse(node.args[1]) == "-1"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found and all(site.startswith("phi.py:") for site in found), found


def sites(match) -> list[str]:
    """``module.function`` of each package node that ``match`` accepts, by its innermost def."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.partition('.')[0]}.{child.name}")
            else:
                visit(child, where)

    for path in sorted(Path(tricirc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.<module>")
    return found


def dotted_names(node) -> set[str]:
    """What ``node`` imports (``module`` or ``module.name``), or the ``name.attr`` it reads."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {f"{node.module}.{alias.name}" for alias in node.names}
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return {f"{node.value.id}.{node.attr}"}
    return set()


def test_only_main_freezes_the_heap():
    # the CLI process skips finalization's collections in one place, right
    # before it exits; run() and the library keep a normal collector
    found = sites(lambda node: any(
        name == "gc" or name.startswith("gc.") for name in dotted_names(node)
    ))
    assert found == ["cli.main", "cli.main"]  # import gc; gc.freeze()


def test_each_function_has_one_binding():
    # a module imports another package module's classes and constants by
    # name and calls its functions through that module, so a function
    # rebound on its home module (as a test or a tracer does) is the one
    # every caller reaches; any non-class callable counts, an lru_cache
    # wrapper too.  circulant imports reduce_theta for make_refs.py alone
    found = []
    for path in sorted(Path(tricirc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            module = f"tricirc.{node.module}" if node.level else node.module
            if not module.startswith("tricirc."):
                continue
            home = importlib.import_module(module)
            for alias in node.names:
                obj = getattr(home, alias.name)
                if callable(obj) and not isinstance(obj, type):
                    found.append(f"{path.stem}: {module}.{alias.name}")
    assert found == ["circulant: tricirc.phi.reduce_theta"]


def package_modules():
    """Every module of the package, imported; ``__main__`` would run the CLI."""
    for path in sorted(Path(tricirc.__file__).parent.glob("*.py")):
        if path.stem != "__main__":
            name = "tricirc" if path.stem == "__init__" else f"tricirc.{path.stem}"
            yield importlib.import_module(name)


def package_functions_in(value) -> list:
    """The package functions that a (nested) dict, tuple or list holds."""
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list)):
        items = value
    elif callable(value) and not isinstance(value, type):
        return [value] if getattr(value, "__module__", "").startswith("tricirc") else []
    else:
        return []
    return [fn for item in items for fn in package_functions_in(item)]


def test_no_module_table_holds_a_function():
    # a table names a function and its caller looks the name up when it
    # runs, so the one binding on the module is the one a rebinding test
    # or a tracer replaces; classes and builtins such as int may be held
    found = [
        f"{mod.__name__}.{name}: {fn.__name__}"
        for mod in package_modules()
        for name, value in vars(mod).items()
        if not name.startswith("__") and isinstance(value, (dict, tuple, list))
        for fn in package_functions_in(value)
    ]
    assert found == []


def test_every_name_a_table_looks_up_is_a_function():
    # each table names its functions, so a typo would otherwise fail only
    # in the one run that reaches it; and no function is left unnamed
    from tricirc import circulant, cli, phi, verify

    named = {
        cli: {f"_cmd_{command}" for command in cli._COMMANDS},
        verify: {
            *(f"_{suite}_case" for suite in verify._SUITES),
            *(f"_{row.kind}_args" for row in verify._SUITES.values()),
            *(f"_check_{battery}" for battery in verify._LEMMA_BATTERIES),
        },
        phi: {"det_newton"},
        circulant: {f"det_{name}" for name in phi.BACKENDS if name != "newton"},
    }
    for mod, names in named.items():
        assert all(callable(getattr(mod, name, None)) for name in names), mod.__name__
    for mod, pattern in ((cli, r"_cmd_\w+"), (verify, r"_(\w+_case|\w+_args|check_\w+)")):
        defined = {name for name in vars(mod) if re.fullmatch(pattern, name)}
        assert defined == named[mod], mod.__name__


def test_the_ci_matrix_starts_at_the_declared_python_floor():
    # pyproject.toml's requires-python is the floor the workflow tests
    root = Path(__file__).resolve().parent.parent
    floor = re.search(
        r'^requires-python = ">=(3\.\d+)"$', (root / "pyproject.toml").read_text(), re.M
    ).group(1)
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"^ *python-version: \[(.*)\]$", workflow, re.M).group(1)
    versions = [tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(",")]
    assert versions[0] == min(versions) == tuple(map(int, floor.split(".")))


def test_only_forked_children_exit_without_finalization():
    # os._exit skips atexit handlers and the stdio flush, so only verify's
    # forked children, which report through their pipe, may call it
    assert sites(lambda node: "os._exit" in dotted_names(node)) == ["verify._child_share"]


BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_every_benchmark_import_resolves():
    # the benchmark scripts import these names and run no tier-1 test, so a
    # rename in the package would otherwise break them unnoticed
    found = []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "tricirc" and not node.module.startswith("tricirc."):
                continue
            module = importlib.import_module(node.module)
            package = Path(module.__file__).parent
            for alias in node.names:
                name = f"{path.name}: {node.module}.{alias.name}"
                # or a submodule, as in ``from tricirc import cli``
                submodule = module is tricirc and (package / f"{alias.name}.py").is_file()
                assert hasattr(module, alias.name) or submodule, name
                found.append(name)
    # at least make_refs.py's and run.py's own imports were seen
    assert "make_refs.py: tricirc.circulant.reduce_theta" in found
    assert "run.py: tricirc.circulant.cycle_cover_counts" in found


def test_the_dp_cache_is_there_for_the_benchmark():
    # run.py clears and reads it per in-process job, make_refs.py per group
    from tricirc.circulant import cycle_cover_counts

    assert callable(cycle_cover_counts.cache_clear)
    assert callable(cycle_cover_counts.cache_info)
    cycle_cover_counts.cache_clear()
    assert cycle_cover_counts.cache_info().currsize == 0
