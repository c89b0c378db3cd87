"""JSON serialization of filtered structures.

The on-disk format (schema ``schemas/structure.schema.json``) lists
components, hom spaces with explicit bases, the energy data, and sparse
operation tables whose values are Novikov-coefficient combinations written
in the element grammar.  Rationals travel as strings so nothing is lost to
floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import novikov
from .ainfty import Element, FilteredAInfty, HomSpace, OperationTable, StructureError
from .novikov import spectrum_closure
from .strata import ComponentData

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Semantic problem in a structure file, with a JSON-path location."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


def _fraction(value: Any, path: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {value!r}: {exc}", path) from exc


def _novikov(value: Any, path: str) -> novikov.NovikovElement:
    try:
        return novikov.parse(str(value))
    except novikov.NovikovParseError as exc:
        raise FormatError(f"bad coefficient {value!r}: {exc}", path) from exc


def load_structure(source: str | Path) -> FilteredAInfty:
    text = Path(source).read_text()
    data = json.loads(text)  # JSONDecodeError carries line and column
    return structure_from_json(data)


def structure_from_json(data: dict) -> FilteredAInfty:
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {data.get('version')!r}", "$.version")
    components: dict[str, ComponentData] = {}
    for i, c in enumerate(data.get("components", [])):
        path = f"$.components[{i}]"
        try:
            comp = ComponentData(
                name=c["name"],
                dimension=int(c["dimension"]),
                maslov_parity=int(c["maslov_parity"]),
                twist_trivialized=bool(c.get("twist_trivialized", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad component: {exc}", path) from exc
        components[comp.name] = comp

    spaces: dict[str, HomSpace] = {}
    for i, s in enumerate(data.get("spaces", [])):
        path = f"$.spaces[{i}]"
        name = s.get("name")
        comp_name = s.get("component")
        if comp_name not in components:
            raise FormatError(f"unknown component {comp_name!r}", path)
        basis = []
        for m, entry in enumerate(s.get("basis", [])):
            try:
                basis.append((entry["gen"], int(entry["degree"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad basis entry: {exc}", f"{path}.basis[{m}]") from exc
        spaces[name] = HomSpace(name, components[comp_name], tuple(basis))

    cutoff = _fraction(data.get("cutoff", "1"), "$.cutoff")
    generators = [
        _fraction(g, f"$.spectrum_generators[{i}]")
        for i, g in enumerate(data.get("spectrum_generators", []))
    ]
    spectrum = spectrum_closure(generators, cutoff)

    table = OperationTable()
    for i, op in enumerate(data.get("operations", [])):
        path = f"$.operations[{i}]"
        try:
            key = (int(op["k"]), _fraction(op["energy"], f"{path}.energy"), str(op.get("tag", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad operation header: {exc}", path) from exc
        entry = table.values.setdefault(key, {})
        for m, val in enumerate(op.get("values", [])):
            vpath = f"{path}.values[{m}]"
            inputs = val.get("inputs")
            if not isinstance(inputs, list) or len(inputs) != key[0]:
                raise FormatError(
                    f"operation of arity {key[0]} needs {key[0]} inputs", vpath
                )
            in_spaces, in_gens = [], []
            for n, pair in enumerate(inputs):
                ipath = f"{vpath}.inputs[{n}]"
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(x, str) for x in pair)):
                    raise FormatError(f"input {pair!r} is not a [space, generator] pair", ipath)
                sp_name, gen = pair
                if sp_name not in spaces:
                    raise FormatError(f"unknown space {sp_name!r}", ipath)
                if not any(g == gen for g, _ in spaces[sp_name].basis):
                    raise FormatError(f"unknown generator {gen!r} of space {sp_name!r}", ipath)
                in_spaces.append(sp_name)
                in_gens.append(gen)
            out = val.get("output", {})
            out_space = out.get("space")
            if out_space not in spaces:
                raise FormatError(f"unknown output space {out_space!r}", vpath)
            coeffs = {}
            for gen, c in out.get("coeffs", {}).items():
                cpath = f"{vpath}.output.coeffs.{gen}"
                if not any(g == gen for g, _ in spaces[out_space].basis):
                    raise FormatError(f"unknown generator {gen!r} of space {out_space!r}", cpath)
                coeffs[gen] = _novikov(c, cpath)
            entry[(tuple(in_spaces), tuple(in_gens))] = Element(out_space, coeffs).normalized()
    try:
        return FilteredAInfty(spaces=spaces, table=table, spectrum=spectrum, cutoff=cutoff)
    except StructureError as exc:
        raise FormatError(str(exc), "$") from exc


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
                "twist_trivialized": c.twist_trivialized,
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
