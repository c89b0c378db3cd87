"""JSON serialization of filtered structures.

The on-disk format (schema ``schemas/structure.schema.json``) lists
components, hom spaces with explicit bases, the energy data, and sparse
operation tables whose values are Novikov-coefficient combinations written
in the element grammar.  Rationals travel as strings so nothing is lost to
floating point.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from . import novikov
from .ainfty import (Element, FilteredAInfty, HomSpace, OperationTable, OpKey, StructureError,
                     TensorKey)
from .novikov import spectrum_closure
from .strata import ComponentData

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Semantic problem in a structure file, with a JSON-path location."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value: object, kind: type, path: str) -> object:
    """``value`` itself when it is of the JSON kind ``kind``."""
    if not isinstance(value, kind):
        raise FormatError(f"expected {_KINDS[kind]}, got {value!r:.40}", path)
    return value


def _integer(value: object, path: str) -> int:
    """``value`` itself when it is a JSON integer; true and false are not."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {value!r:.40}", path)
    return value


def _fraction(value: object, path: str) -> Fraction:
    """The rational a JSON string spells; a JSON number is refused, so that
    no float is read."""
    text = _expect(value, str, path)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {value!r}: {exc}", path) from exc


def _positive(value: object, what: str, path: str) -> Fraction:
    q = _fraction(value, path)
    if q <= 0:
        raise FormatError(f"{what} must be positive, got {q}", path)
    return q


def _named(names: dict, name: object, what: str, path: str):
    if not isinstance(name, str) or name not in names:
        raise FormatError(f"unknown {what} {name!r}", path)
    return names[name]


def _unique(names: dict, value: object, what: str, path: str) -> str:
    """``value`` itself when it is a string that ``names`` does not hold yet."""
    name = _expect(value, str, path)
    if name in names:
        raise FormatError(f"repeated {what} {name!r}", path)
    return name


def _generator(space: HomSpace, gen: str, path: str) -> None:
    try:
        space.degree_of(gen)
    except (KeyError, ValueError):  # a de Rham preset raises ValueError
        raise FormatError(f"unknown generator {gen!r} of space {space.name!r}", path) from None


def _novikov(value: object, path: str) -> novikov.NovikovElement:
    text = _expect(value, str, path)
    try:
        return novikov.parse(text)
    except novikov.NovikovParseError as exc:
        raise FormatError(f"bad coefficient {value!r}: {exc}", path) from exc


def element_from_json(space: HomSpace, data: object, path: str) -> Element:
    """The element of ``space`` whose coefficient of each generator ``data`` maps to."""
    coeffs = {}
    for gen, c in _expect(data, dict, path).items():
        cpath = f"{path}.{gen}"
        _generator(space, gen, cpath)
        coeffs[gen] = _novikov(c, cpath)
    return Element(space.name, coeffs)


def load_structure(source: str | os.PathLike) -> FilteredAInfty:
    with open(source) as fh:
        text = fh.read()
    data = json.loads(text)  # JSONDecodeError carries line and column
    return structure_from_json(data)


def structure_from_json(data: object) -> FilteredAInfty:
    """Build a structure from parsed JSON; every problem with the data
    raises :class:`FormatError` with the JSON path where it was found."""
    data = _expect(data, dict, "$")
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {data.get('version')!r}", "$.version")
    components: dict[str, ComponentData] = {}
    for i, c in enumerate(_expect(data.get("components", []), list, "$.components")):
        path = f"$.components[{i}]"
        c = _expect(c, dict, path)
        if c.get("twist_trivialized", True) is not True:
            raise FormatError("only a trivialized orientation twist is supported, got "
                              f"{json.dumps(c['twist_trivialized'])}", f"{path}.twist_trivialized")
        name = _unique(components, c.get("name"), "component", f"{path}.name")
        dimension = _integer(c.get("dimension"), f"{path}.dimension")
        maslov_parity = _integer(c.get("maslov_parity"), f"{path}.maslov_parity")
        try:
            components[name] = ComponentData(name, dimension, maslov_parity)
        except ValueError as exc:
            raise FormatError(str(exc), path) from exc

    spaces: dict[str, HomSpace] = {}
    for i, s in enumerate(_expect(data.get("spaces", []), list, "$.spaces")):
        path = f"$.spaces[{i}]"
        s = _expect(s, dict, path)
        name = _unique(spaces, s.get("name"), "space", f"{path}.name")
        component = _named(components, s.get("component"), "component", path)
        basis: dict[str, int] = {}
        for m, entry in enumerate(_expect(s.get("basis", []), list, f"{path}.basis")):
            epath = f"{path}.basis[{m}]"
            entry = _expect(entry, dict, epath)
            basis[_unique(basis, entry.get("gen"), "generator", f"{epath}.gen")] = (
                _integer(entry.get("degree"), f"{epath}.degree"))
        spaces[name] = HomSpace(name, component, tuple(basis.items()))

    cutoff = _positive(data.get("cutoff", "1"), "cutoff", "$.cutoff")
    generators = [
        _positive(g, "spectrum generator", f"$.spectrum_generators[{i}]")
        for i, g in enumerate(
            _expect(data.get("spectrum_generators", []), list, "$.spectrum_generators")
        )
    ]
    spectrum = spectrum_closure(generators, cutoff)

    values: dict[OpKey, dict[TensorKey, Element]] = {}
    where: dict[tuple, str] = {}  # (key, None) or (key, input word) -> its path
    for i, op in enumerate(_expect(data.get("operations", []), list, "$.operations")):
        path = f"$.operations[{i}]"
        op = _expect(op, dict, path)
        k = _integer(op.get("k"), f"{path}.k")
        if k < 0:
            raise FormatError(f"arity must be nonnegative, got {k}", f"{path}.k")
        key = (k, _fraction(op.get("energy"), f"{path}.energy"), _expect(op.get("tag", ""), str, f"{path}.tag"))
        entry = values.setdefault(key, {})
        where.setdefault((key, None), f"{path}.energy")
        for m, val in enumerate(_expect(op.get("values", []), list, f"{path}.values")):
            vpath = f"{path}.values[{m}]"
            val = _expect(val, dict, vpath)
            inputs = val.get("inputs")
            if not isinstance(inputs, list) or len(inputs) != k:
                raise FormatError(f"operation of arity {k} needs {k} inputs", vpath)
            in_spaces, in_gens = [], []
            for n, pair in enumerate(inputs):
                ipath = f"{vpath}.inputs[{n}]"
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(x, str) for x in pair)):
                    raise FormatError(f"input {pair!r} is not a [space, generator] pair", ipath)
                sp_name, gen = pair
                _generator(_named(spaces, sp_name, "space", ipath), gen, ipath)
                in_spaces.append(sp_name)
                in_gens.append(gen)
            out = _expect(val.get("output", {}), dict, f"{vpath}.output")
            out_hom = _named(spaces, out.get("space"), "output space", vpath)
            output = element_from_json(out_hom, out.get("coeffs", {}), f"{vpath}.output.coeffs")
            if len({out_hom.shifted_parity(g) for g in output.coeffs}) > 1:
                raise FormatError(f"output is not shifted-homogeneous: {output}",
                                  f"{vpath}.output.coeffs")
            tkey = (tuple(in_spaces), tuple(in_gens))
            if tkey in entry:
                raise FormatError(f"repeated inputs {json.dumps(inputs)} of operation "
                                  f"(k={k}, energy={key[1]}, tag={key[2]!r})", f"{vpath}.inputs")
            entry[tkey] = output
            where[key, tkey] = vpath
    try:
        return FilteredAInfty(spaces=spaces, table=OperationTable(values=values),
                              spectrum=spectrum, cutoff=cutoff)
    except StructureError as exc:
        raise FormatError(str(exc), where.get(exc.where, "$")) from exc


def structure_to_json(A: FilteredAInfty) -> dict:
    components = {}
    for sp in A.spaces.values():
        components[sp.component.name] = sp.component
    return {
        "version": FORMAT_VERSION,
        "cutoff": str(A.cutoff),
        "spectrum_generators": [str(g) for g in A.spectrum.generators],
        "components": [
            {
                "name": c.name,
                "dimension": c.dimension,
                "maslov_parity": c.maslov_parity,
            }
            for c in sorted(components.values(), key=lambda c: c.name)
        ],
        "spaces": [
            {
                "name": sp.name,
                "component": sp.component.name,
                "basis": [{"gen": g, "degree": d} for g, d in sp.basis],
            }
            for sp in sorted(A.spaces.values(), key=lambda s: s.name)
        ],
        "operations": [
            {
                "k": key[0],
                "energy": str(key[1]),
                "tag": key[2],
                "values": [
                    {
                        "inputs": [[s, g] for s, g in zip(*tkey)],
                        "output": {
                            "space": value.space,
                            "coeffs": {g: str(c) for g, c in sorted(value.coeffs.items())},
                        },
                    }
                    for tkey, value in sorted(A.table.values[key].items())
                    if not value.is_zero()
                ],
            }
            for key in sorted(A.table.values, key=lambda k: (k[0], k[1], k[2]))
        ],
    }
