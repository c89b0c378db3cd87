"""The immutable value types and result records: one instance of each class
that the README lists as immutable refuses assignment and deletion of a
public field with ``FrozenInstanceError`` and keeps the field's value, and
``Frozen`` alone sets, compares, hashes, prints and copies its fields (the
slots without a leading underscore), as the README states."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random

import pytest

import ainfsign
from ainfsign import f2poly
from ainfsign.ainfty import (
    DGAModel,
    Element,
    FilteredAInfty,
    HomSpace,
    OperationTable,
    RelationReport,
    exterior_dga,
    from_dga,
)
from ainfsign.frozen import Frozen
from ainfsign.geomodel import (
    CheckResult,
    CorrespondenceModel,
    CubeTorusSpace,
    ProjectionMap,
    PushPullReport,
    SmoothMapModel,
    check_pushpull_identities,
    projection,
    random_mock_instance,
    space,
    verify_defining_property,
)
from ainfsign.novikov import GappedSpectrum, NovikovElement
from ainfsign.prover import (
    CancellationReport,
    ProofReport,
    _parity_variables,
    prove_differential_insertion,
    prove_relation_cancellation,
)
from ainfsign.signs import SignContext
from ainfsign.strata import (
    BClass,
    BoundaryStratum,
    ComponentData,
    MatchReport,
    ModuliDescriptor,
    enumerate_strata,
    match_composition_terms,
)

C = ComponentData("c", 0, 0)
SP = space(("t", "interval"), ("th", "circle"))
PROJ = projection(SP, space(("th", "circle")), {"th": "th"})
DGA = exterior_dga(2)
A = from_dga(DGA, cutoff=1)


def _stratum():
    parent = ModuliDescriptor(BClass(1), C, (C, C))
    return enumerate_strata(parent, GappedSpectrum((1,), 2), [C])[0]


# class -> (a builder of one instance, a public field); each call builds a
# new instance with the same field values.  A result record is built by the
# code that produces it, so two builds differ in the wall time it took.
IMMUTABLE = {
    NovikovElement: (lambda: NovikovElement(((0, 1), (1, 2))), "terms"),
    GappedSpectrum: (lambda: GappedSpectrum((1,), 3), "closure"),
    SignContext: (lambda: SignContext(1, 1, (0, 1), (1, 0), 0, 0, 0), "mus"),
    f2poly.IntLit: (lambda: f2poly.IntLit(1), "value"),
    f2poly.Name: (lambda: f2poly.Name("x"), "name"),
    f2poly.Neg: (lambda: f2poly.Neg(f2poly.Name("x")), "operand"),
    f2poly.BinOp: (lambda: f2poly.BinOp("+", f2poly.Name("x"), f2poly.IntLit(1)), "left"),
    f2poly.IndexedSum: (lambda: f2poly.parse_sign_expr("Sum(p=1..3, mu_p)"), "body"),
    ComponentData: (lambda: ComponentData("c", 0, 0), "dimension"),
    BClass: (lambda: BClass(1, "t"), "energy"),
    ModuliDescriptor: (lambda: ModuliDescriptor(BClass(1), C, (C,)), "inputs"),
    BoundaryStratum: (_stratum, "inner"),
    CubeTorusSpace: (lambda: space(("t", "interval"), ("th", "circle")), "coords"),
    SmoothMapModel: (PROJ.as_smooth, "assignments"),
    ProjectionMap: (lambda: projection(SP, space(("th", "circle")), {"th": "th"}), "fiber"),
    CorrespondenceModel: (lambda: CorrespondenceModel(PROJ, (PROJ.as_smooth(),)), "ev_in"),
    Element: (lambda: Element.basis("ext", "e1"), "coeffs"),
    HomSpace: (lambda: HomSpace("ext", C, (("1", 0), ("e1", 1))), "basis"),
    OperationTable: (lambda: OperationTable(values={(1, 0, "t"): {}}), "values"),
    FilteredAInfty: (lambda: FilteredAInfty(A.spaces, A.table, A.spectrum, A.cutoff), "table"),
    DGAModel: (lambda: DGAModel(DGA.space_name, DGA.component, DGA.basis, DGA.degree_of,
                                DGA.differential, DGA.product), "product"),
    RelationReport: (lambda: A.check_relations(2), "checked"),
    MatchReport: (lambda: match_composition_terms([_stratum()], []), "unmatched_strata"),
    PushPullReport: (lambda: check_pushpull_identities(*random_mock_instance(random.Random(3))),
                     "nontrivial"),
    CheckResult: (lambda: verify_defining_property(3, 1, 2, 1), "stats"),
    ProofReport: (lambda: prove_differential_insertion(2, 1, _parity_variables(2)), "instance"),
    CancellationReport: (lambda: prove_relation_cancellation(2, GappedSpectrum((1,), 2))[1],
                         "residual"),
}


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise_and_keep_the_value(cls):
    build, field = IMMUTABLE[cls]
    obj = build()
    assert obj.__class__ is cls
    value = getattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    assert getattr(obj, field) is value
    assert not hasattr(obj, "__dict__")  # slotted


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_covers_every_frozen_class():
    for module in pkgutil.walk_packages(ainfsign.__path__, "ainfsign."):
        importlib.import_module(module.name)
    frozen = {cls for cls in _subclasses(Frozen) if cls.__slots__}  # a class with fields
    assert frozen == set(IMMUTABLE)


# classes with a field that cannot be hashed (a mappingproxy, a list or a dict)
UNHASHABLE = {OperationTable, FilteredAInfty, RelationReport, MatchReport, PushPullReport,
              CheckResult, ProofReport, CancellationReport}


def _fields(cls):
    return [name for name in cls.__slots__ if not name.startswith("_")]


def _with(obj, name, value):
    """A copy of ``obj`` with the slot ``name`` set to ``value``."""
    copy = object.__new__(obj.__class__)
    for slot in obj.__slots__:
        object.__setattr__(copy, slot, value if slot == name else getattr(obj, slot))
    return copy


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_a_rebuild_is_equal_and_hashes_alike(cls):
    build, _ = IMMUTABLE[cls]
    obj, rebuilt = build(), build()
    assert rebuilt is not obj and rebuilt == obj and not rebuilt != obj
    assert obj.__eq__(object()) is NotImplemented
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(rebuilt) == hash(obj)


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_each_field_is_compared_and_no_derived_slot_is(cls):
    obj = IMMUTABLE[cls][0]()
    for name in cls.__slots__:
        changed = _with(obj, name, object())
        if name.startswith("_"):
            assert changed == obj, name
            if cls not in UNHASHABLE:
                assert hash(changed) == hash(obj), name
        else:
            assert changed != obj and obj != changed, name


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_repr_is_the_field_text(cls):
    obj = IMMUTABLE[cls][0]()
    if cls is NovikovElement:  # prints its parse text
        assert repr(obj) == "NovikovElement.parse('1 + 2*T')"
        return
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in _fields(cls))
    assert repr(obj) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_frozen_init_rejects_a_wrong_count(cls):
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError, match=f"^{cls.__name__} has {n} slots, got {count}$"):
            Frozen.__init__(object.__new__(cls), *range(count))


# result record -> (its verdict, the field of evidence it is read from, a
# value of that field that passes, one that fails)
VERDICTS = {
    RelationReport: ("passed", "witness", None, {"k": 1}),
    CheckResult: ("passed", "witness", None, {"trial": 0}),
    PushPullReport: ("passed", "nested_vs_glued", True, False),
    ProofReport: ("proved", "witness", None, {}),
    MatchReport: ("perfect", "unmatched_strata", [], [(1,)]),
    CancellationReport: ("cancels", "residual", [], [{"term": None}]),
}


@pytest.mark.parametrize("cls", VERDICTS, ids=lambda cls: cls.__name__)
def test_a_verdict_is_read_from_the_evidence_not_stored(cls):
    verdict, evidence, passing, failing = VERDICTS[cls]
    assert verdict not in cls.__slots__ and isinstance(getattr(cls, verdict), property)
    obj = IMMUTABLE[cls][0]()
    assert getattr(_with(obj, evidence, passing), verdict) is True
    assert getattr(_with(obj, evidence, failing), verdict) is False


# classes with a read-only mapping field, which neither a deep copy nor a
# pickle can copy
MAPPINGPROXY = {Element, OperationTable, FilteredAInfty}


@pytest.mark.parametrize("cls", IMMUTABLE, ids=lambda cls: cls.__name__)
def test_copy_deepcopy_and_pickle_rebuild_every_slot(cls):
    obj = IMMUTABLE[cls][0]()
    deep = (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    clones = [copy.copy(obj)]
    if cls in MAPPINGPROXY:
        for clone in deep:
            with pytest.raises(TypeError, match="cannot pickle 'mappingproxy' object"):
                clone(obj)
    elif cls is DGAModel:  # its preset's functions are local: shared by a deep copy
        clones.append(copy.deepcopy(obj))
        with pytest.raises(AttributeError, match="Can't pickle local object"):
            pickle.dumps(obj)
    else:
        clones += [clone(obj) for clone in deep]
    for rebuilt in clones:
        assert rebuilt.__class__ is cls and rebuilt is not obj and rebuilt == obj
        assert [getattr(rebuilt, name) for name in cls.__slots__] == \
            [getattr(obj, name) for name in cls.__slots__]
