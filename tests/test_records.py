"""Value semantics of the record classes, every subclass of ``phi.Record``.

Each keeps what ``@dataclass(frozen=True)`` would give it: field order,
the positional constructor (keywords too for the records that define
their own), the repr, equality only within its class, the hash of the
field tuple, frozen fields, copying and pickling.  Each printed record's JSON form follows the one rule of
``Record.to_json_dict``, and the CLI schema declares exactly its fields.
"""

import copy
import importlib
import itertools
import json
import pickle
import pkgutil
from pathlib import Path

import tricirc

import pytest

from tricirc.circulant import FloatCheckReport
from tricirc.permanent import GrowthRow, PermanentReport, Ratio, bounds_report
from tricirc.phi import CirculantSpec, CoefficientReport, PermClassKey, Record, coefficient
from tricirc.permclass import Permutation, StructureReport, predict_structure
from tricirc.verify import SuiteResult, run_suite

#: (class, field values, repr): one row for every Record subclass
RECORDS = [
    (CirculantSpec, (7, 3, 2), "CirculantSpec(p=7, q=3, t=2)"),
    (PermClassKey, (5, 3, 2, 1), "PermClassKey(p=5, q=3, r=2, s=1)"),
    (CoefficientReport, (5, 3, 2, 1, True, 1, 1, -1, 5, -5),
     "CoefficientReport(p=5, q=3, r=2, s=1, present=True, ell=1, k=1, "
     "sign=-1, magnitude=5, value=-5)"),
    (StructureReport, (2, (1, 2), -1),
     "StructureReport(k=2, cycles_each=(1, 2), sign=-1)"),
    (Permutation, ((2, 3, 1),), "Permutation(images=(2, 3, 1))"),
    (FloatCheckReport, (True, 0.5, (1.0, -1.0), 16),
     "FloatCheckReport(passed=True, max_abs_deviation=0.5, "
     "worst_point=(1.0, -1.0), points=16)"),
    (Ratio, (5832, 625), "Ratio(numerator=5832, denominator=625)"),
    (PermanentReport, (5, 3, 13, 13, 5, 5, Ratio(5832, 625), 20, True, True, True),
     "PermanentReport(p=5, q=3, d11=13, abs_sum=13, max_coeff=5, n_monomials=5, "
     "lower_bound=Ratio(numerator=5832, denominator=625), upper_bound=20, "
     "lower_ok=True, upper_ok=True, sandwich_ok=True)"),
    (GrowthRow, (3, 2, 3, 6, 4, 1.25, True),
     "GrowthRow(p=3, q=2, max_coeff=3, d11=6, n_monomials=4, root=1.25, "
     "sandwich_ok=True)"),
    (SuiteResult, ("prime", 4, 0, None, {"p_max": 6, "q": 2}),
     "SuiteResult(suite='prime', cases=4, failures=0, "
     "first_counterexample=None, parameters={'p_max': 6, 'q': 2})"),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]
#: the records that validate or default their input, each with its own
#: keyword signature
OWN_INIT = {CirculantSpec, PermClassKey, Permutation}
FIELDS = {cls: fields for cls, fields, _ in RECORDS}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr_and_constructors(cls, fields, text):
    rec = cls(*fields)
    assert repr(rec) == text
    by_name = dict(zip(cls.__slots__, fields))
    if cls in OWN_INIT:
        assert cls(**by_name) == rec
    else:  # the generic constructor is positional only
        with pytest.raises(TypeError):
            cls(**by_name)
    assert tuple(getattr(rec, name) for name in cls.__slots__) == fields


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields, text):
    rec = cls(*fields)
    assert rec == cls(*fields) and not rec != cls(*fields)
    assert rec != fields
    if cls is SuiteResult:  # its parameters are a dict, as with the dataclass
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(fields)


def test_equality_holds_only_within_a_class():
    recs = [cls(*fields) for cls, fields, _ in RECORDS]
    for a, b in itertools.combinations(recs, 2):
        assert a != b and b != a
    # same field values, other class
    assert StructureReport(5, 3, 2) != CirculantSpec(5, 3, 2)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_fields_are_frozen(cls, fields, text):
    rec = cls(*fields)
    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(rec, first)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, first) == fields[0]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, text):
    rec = cls(*fields)
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is cls and clone == rec and repr(clone) == text


def test_hot_constructors_build_the_same_values():
    rep = predict_structure(PermClassKey(8, 3, 2, 2))
    assert rep == StructureReport(1, (2, 2), -1) and sum(rep.cycles_each) == 4


def test_suite_result_reads_as_before():
    res = run_suite("prime", p_max=6)
    assert res == SuiteResult("prime", 4, 0, None, {"p_max": 6, "q": 2})
    assert res.passed and not SuiteResult("prime", 4, 1, "x", {}).passed
    assert res.to_json_dict() == {
        "suite": "prime",
        "cases": 4,
        "failures": 0,
        "passed": True,
        "first_counterexample": None,
        "parameters": {"p_max": 6, "q": 2},
    }


def test_permanent_report_from_the_route():
    rep = bounds_report(5, 3)
    assert rep == PermanentReport(*FIELDS[PermanentReport])
    bound = rep.to_json_dict()["lower_bound"]
    assert bound == {"numerator": "5832", "denominator": "625"}


def _record_classes(base=Record):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("tricirc."):
            yield cls
        yield from _record_classes(cls)


def test_every_record_class_is_listed():
    # a new record cannot skip the tests above
    for mod in pkgutil.iter_modules(tricirc.__path__):
        if mod.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"tricirc.{mod.name}")
    assert set(_record_classes()) == {cls for cls, _, _ in RECORDS}


def test_only_the_records_that_validate_or_default_define_init():
    own_init = {cls for cls in _record_classes() if "__init__" in vars(cls)}
    assert own_init == OWN_INIT


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_constructor_refuses_a_bad_field_list(cls, fields, text):
    names = cls.__slots__
    # CirculantSpec's t has a default
    short = 2 if cls is CirculantSpec else 1
    bad_calls = [
        (fields[:-short], {}),  # too few
        (fields + (0,), {}),  # too many
        ((), {**dict(zip(names, fields)), "no_such_field": 0}),  # unknown
        (fields, {names[-1]: fields[-1]}),  # given twice
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_generic_constructor_names_the_fault():
    with pytest.raises(TypeError, match=r"StructureReport\(\) takes 3 fields but 4"):
        StructureReport(1, (1, 0), 1, 0)
    with pytest.raises(TypeError, match=r"StructureReport\(\) takes 3 fields but 2"):
        StructureReport(1, (1, 0))
    with pytest.raises(TypeError, match="unexpected keyword argument 'sign'"):
        StructureReport(1, (1, 3), sign=-1)


def test_keyword_construction_still_validates():
    with pytest.raises(ValueError, match="distinct"):
        CirculantSpec(p=5, q=2, t=2)
    with pytest.raises(ValueError, match="2 <= q <= p-1"):
        PermClassKey(p=3, q=3, r=0, s=0)
    assert CirculantSpec(p=7, q=3) == CirculantSpec(7, 3, 1)


def test_coefficient_report_from_the_route():
    rep = coefficient(5, 3, 2, 1)
    assert rep == CoefficientReport(*FIELDS[CoefficientReport])
    assert rep.to_json_dict()["magnitude"] == "5"
    absent = coefficient(5, 3, 1, 1)
    assert absent == CoefficientReport(5, 3, 1, 1, False, None, None, None, 0, 0)


def test_only_the_growth_row_and_the_suite_result_extend_the_json_rule():
    own = {cls for cls in _record_classes() if "to_json_dict" in vars(cls)}
    assert own == {GrowthRow, SuiteResult}


def test_json_rule_prints_decimals_and_nests_records():
    assert CirculantSpec(*FIELDS[CirculantSpec]).to_json_dict() == {"p": 7, "q": 3, "t": 2}
    assert PermanentReport(*FIELDS[PermanentReport]).to_json_dict() == {
        "p": 5, "q": 3, "d11": "13", "abs_sum": "13", "max_coeff": "5",
        "n_monomials": 5, "lower_bound": {"numerator": "5832", "denominator": "625"},
        "upper_bound": "20", "lower_ok": True, "upper_ok": True, "sandwich_ok": True,
    }
    assert GrowthRow(*FIELDS[GrowthRow]).to_json_dict() == {
        "p": 3, "q": 2, "M": "3", "d11": "6", "n_monomials": 4, "root": "1.2500",
        "sandwich_ok": True,
    }


SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "cli_output.schema.json").read_text()
)["$defs"]
DECIMAL = {"$ref": "#/$defs/decimal"}

#: (record, its object in the schema, the schema's names that are no
#: field, {field: the name it is printed under})
PRINTED = [
    (CoefficientReport, SCHEMA["coeff"], {"command"}, {}),
    (PermanentReport, SCHEMA["permanent"], {"command"}, {}),
    (Ratio, SCHEMA["permanent"]["properties"]["lower_bound"], set(), {}),
    (GrowthRow, SCHEMA["growth"]["properties"]["rows"]["items"], set(), {"max_coeff": "M"}),
    (SuiteResult, SCHEMA["verify"], {"command", "passed"}, {}),
]


@pytest.mark.parametrize(
    "cls, schema, extra, renamed", PRINTED, ids=[row[0].__name__ for row in PRINTED]
)
def test_schema_declares_exactly_the_record_fields(cls, schema, extra, renamed):
    props = schema["properties"]
    names = [renamed.get(field, field) for field in cls.__slots__]
    assert set(props) == set(names) | extra
    assert set(schema["required"]) == set(props)
    for field, name in zip(cls.__slots__, names):
        assert (props[name] == DECIMAL) == (field in cls._decimal), name
    assert set(cls(*FIELDS[cls]).to_json_dict()) == set(props) - {"command"}
