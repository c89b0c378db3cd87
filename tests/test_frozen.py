"""The immutable value types: one instance of each class that the README
lists as immutable refuses assignment and deletion of a public field with
``FrozenInstanceError`` and keeps the field's value."""

import dataclasses
import importlib
import pkgutil

import pytest

import ainfsign
from ainfsign import f2poly
from ainfsign.ainfty import (
    DGAModel,
    Element,
    FilteredAInfty,
    HomSpace,
    OperationTable,
    exterior_dga,
    from_dga,
)
from ainfsign.frozen import Frozen
from ainfsign.geomodel import (
    CorrespondenceModel,
    CubeTorusSpace,
    ProjectionMap,
    SmoothMapModel,
    projection,
    space,
)
from ainfsign.novikov import GappedSpectrum, NovikovElement
from ainfsign.signs import SignContext
from ainfsign.strata import (
    BClass,
    BoundaryStratum,
    ComponentData,
    ModuliDescriptor,
    enumerate_strata,
)

C = ComponentData("c", 0, 0)
SP = space(("t", "interval"), ("th", "circle"))
PROJ = projection(SP, space(("th", "circle")), {"th": "th"})


def _stratum():
    parent = ModuliDescriptor(2, BClass(1), C, (C, C))
    return enumerate_strata(parent, GappedSpectrum((1,), 2), [C])[0]


# class -> (a builder of one instance, a public field)
IMMUTABLE = {
    NovikovElement: (lambda: NovikovElement(((0, 1), (1, 2))), "terms"),
    GappedSpectrum: (lambda: GappedSpectrum((1,), 3), "closure"),
    SignContext: (lambda: SignContext(2, 1, 2, 1, degs=(0, 1), mus=(1, 0)), "mus"),
    f2poly.IntLit: (lambda: f2poly.IntLit(1), "value"),
    f2poly.Name: (lambda: f2poly.Name("x"), "name"),
    f2poly.Neg: (lambda: f2poly.Neg(f2poly.Name("x")), "operand"),
    f2poly.BinOp: (lambda: f2poly.BinOp("+", f2poly.Name("x"), f2poly.IntLit(1)), "left"),
    f2poly.IndexedSum: (lambda: f2poly.parse_sign_expr("Sum(p=1..3, mu_p)"), "body"),
    ComponentData: (lambda: C, "dimension"),
    BClass: (lambda: BClass(1, "t"), "energy"),
    ModuliDescriptor: (lambda: ModuliDescriptor(1, BClass(1), C, (C,)), "inputs"),
    BoundaryStratum: (_stratum, "inner"),
    CubeTorusSpace: (lambda: SP, "coords"),
    SmoothMapModel: (PROJ.as_smooth, "assignments"),
    ProjectionMap: (lambda: PROJ, "fiber"),
    CorrespondenceModel: (lambda: CorrespondenceModel(SP, PROJ, (PROJ.as_smooth(),)), "ev_in"),
    Element: (lambda: Element.basis("ext", "e1"), "coeffs"),
    HomSpace: (lambda: HomSpace("ext", C, (("1", 0), ("e1", 1))), "basis"),
    OperationTable: (lambda: OperationTable(values={(1, 0, "t"): {}}), "values"),
    FilteredAInfty: (lambda: from_dga(exterior_dga(2), cutoff=1), "table"),
    DGAModel: (lambda: exterior_dga(2), "product"),
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
