"""Combinatorics of moduli descriptors and their codimension-1 boundary
strata: enumeration of splittings (slot, outer arity, outer energy, inner
arity, inner energy, node component), their orientation parities, and the
matching against the terms of the composition double-sum.

The reserved pair (arity 1, energy 0) is the differential; it is never
enumerated as a stratum factor.  Inner factors of arity 0 and energy 0 are
enumerated but flagged vanishing, since the corresponding operation is zero
by definition.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from . import signs
from .frozen import Frozen
from .novikov import GappedSpectrum, Rational, _rational


class ComponentData(Frozen):
    """A clean-intersection component: its dimension and Maslov parity.  Its
    orientation twist is taken to be trivialized; the sign formulas assume it."""

    __slots__ = ("name", "dimension", "maslov_parity")

    def __init__(self, name: str, dimension: int, maslov_parity: int):
        if dimension < 0:
            raise ValueError(f"dimension must be >= 0, got {dimension}")
        if maslov_parity not in (0, 1):
            raise ValueError(f"maslov_parity must be 0 or 1, got {maslov_parity}")
        Frozen.__init__(self, name, dimension, maslov_parity)


class BClass(Frozen):
    """A curve class surrogate: an energy plus an opaque tag, so distinct
    classes of equal energy can coexist."""

    __slots__ = ("energy", "tag")

    def __init__(self, energy: Rational, tag: str = ""):
        energy = _rational(energy)
        if energy < 0:
            raise ValueError(f"energy must be >= 0, got {energy}")
        Frozen.__init__(self, energy, tag)

    def is_differential_slot(self, k: int) -> bool:
        return k == 1 and self.energy == 0


class ModuliDescriptor(Frozen):
    """k-input moduli datum: class, output component, input components, and
    the arity ``k = len(inputs)``."""

    __slots__ = ("k", "b", "output", "inputs")

    def __init__(self, b: BClass, output: ComponentData, inputs: tuple[ComponentData, ...]):
        Frozen.__init__(self, len(inputs), b, output, inputs)

    def dim_parity(self) -> int:
        return signs.moduli_dim_parity(
            self.output.dimension,
            self.output.maslov_parity,
            [c.maslov_parity for c in self.inputs],
            self.k,
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "energy": str(self.b.energy),
            "tag": self.b.tag,
            "output": self.output.name,
            "inputs": [c.name for c in self.inputs],
        }


class BoundaryStratum(Frozen):
    """One codimension-1 splitting: outer factor, inner factor glued in at
    slot j through the node component (its output), and its orientation
    parity, computed when read."""

    __slots__ = ("j", "outer", "inner", "node")

    def __init__(self, j: int, outer: ModuliDescriptor, inner: ModuliDescriptor):
        if not 1 <= j <= outer.k:
            raise ValueError(f"slot {j} outside 1..{outer.k}")
        if outer.inputs[j - 1] != inner.output:
            raise ValueError("node component must join inner output to outer slot j")
        if outer.b.is_differential_slot(outer.k):
            raise ValueError("outer factor is the reserved differential pair")
        if inner.b.is_differential_slot(inner.k):
            raise ValueError("inner factor is the reserved differential pair")
        Frozen.__init__(self, j, outer, inner, inner.output)

    def parent(self) -> ModuliDescriptor:
        """The unsplit descriptor, rebuilt from the stratum's own data."""
        return ModuliDescriptor(
            BClass(self.outer.b.energy + self.inner.b.energy, "parent"),
            self.outer.output,
            self.outer.inputs[: self.j - 1] + self.inner.inputs + self.outer.inputs[self.j :],
        )

    @property
    def sign(self) -> int:
        """Orientation parity relative to the parent's boundary, from the
        splitting data alone (input degrees play no part)."""
        parent = self.parent()
        return signs.boundary_sign(signs.SignContext(
            self.j, self.inner.k, (0,) * parent.k,
            tuple([c.maslov_parity for c in parent.inputs]),
            self.node.maslov_parity, parent.output.maslov_parity, parent.output.dimension,
        ))

    @property
    def vanishes(self) -> bool:
        """True when the inner factor is the zero operation (arity 0, energy 0)."""
        return self.inner.k == 0 and self.inner.b.energy == 0

    def index(self) -> tuple:
        return (
            self.j,
            self.outer.k,
            self.outer.b.energy,
            self.inner.k,
            self.inner.b.energy,
            self.node.name,
        )

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
            "node": self.node.name,
            "sign": self.sign,
            "vanishes": self.vanishes,
        }


def enumerate_strata(
    parent: ModuliDescriptor,
    spectrum: GappedSpectrum,
    node_components: Sequence[ComponentData],
) -> list[BoundaryStratum]:
    """All codimension-1 strata of the parent descriptor, in deterministic
    order (slot, then inner arity, then inner energy, then node name)."""
    if parent.b.energy not in spectrum:
        raise ValueError(
            f"parent energy {parent.b.energy} is not in the spectrum closure"
        )
    if parent.k < 1:
        raise ValueError("strata are enumerated for parents with k >= 1")
    out: list[BoundaryStratum] = []
    nodes = sorted(node_components, key=lambda c: c.name)
    for j in range(1, parent.k + 2):
        for k_inner in range(0, parent.k + 1):
            k_outer = parent.k + 1 - k_inner
            if j > k_outer:
                continue
            for e_inner in spectrum.closure:
                e_outer = parent.b.energy - e_inner
                if e_outer < 0 or e_outer not in spectrum:
                    continue
                if k_outer == 1 and e_outer == 0:
                    continue
                if k_inner == 1 and e_inner == 0:
                    continue
                for node in nodes:
                    outer = ModuliDescriptor(
                        BClass(e_outer, f"{parent.b.tag}'"),
                        parent.output,
                        parent.inputs[: j - 1] + (node,) + parent.inputs[j - 1 + k_inner :],
                    )
                    inner = ModuliDescriptor(
                        BClass(e_inner, f"{parent.b.tag}''"),
                        node,
                        parent.inputs[j - 1 : j - 1 + k_inner],
                    )
                    out.append(BoundaryStratum(j, outer, inner))
    return out


def codim1_parity_consistent(stratum: BoundaryStratum) -> bool:
    """The fiber product's dimension parity (outer + inner - node) must sit
    one below the parent's."""
    fiber_product_parity = (
        stratum.outer.dim_parity()
        + stratum.inner.dim_parity()
        - stratum.node.dimension
    ) % 2
    return fiber_product_parity == (stratum.parent().dim_parity() - 1) % 2


class MatchReport(Frozen):
    """Outcome of matching strata against composition double-sum terms."""

    __slots__ = ("matched", "unmatched_strata", "unmatched_terms")

    @property
    def perfect(self) -> bool:
        return not self.unmatched_strata and not self.unmatched_terms


def composition_terms(
    parent: ModuliDescriptor,
    spectrum: GappedSpectrum,
    node_components: Sequence[ComponentData],
) -> list[tuple]:
    """Index tuples of the double sum over outer-after-inner composites,
    enumerated independently of the stratum walk (arity split first, then
    energy split, then insertion slot)."""
    terms: list[tuple] = []
    for k_inner in range(parent.k, -1, -1):
        k_outer = parent.k + 1 - k_inner
        for e_outer, e_inner in spectrum.splits(parent.b.energy):
            if (k_outer == 1 and e_outer == 0) or (k_inner == 1 and e_inner == 0):
                continue
            for node in sorted(node_components, key=lambda c: c.name):
                for j in range(1, k_outer + 1):
                    terms.append(
                        (j, k_outer, e_outer, k_inner, e_inner, node.name)
                    )
    return terms


def match_composition_terms(
    strata: Sequence[BoundaryStratum], terms: Sequence[tuple]
) -> MatchReport:
    """Match the indices of ``strata`` (from ``enumerate_strata``) against
    composition-term indices (from ``composition_terms``) as multisets."""
    stratum_index = Counter(s.index() for s in strata)
    term_index = Counter(terms)
    return MatchReport(
        sorted((stratum_index & term_index).elements()),
        sorted((stratum_index - term_index).elements()),
        sorted((term_index - stratum_index).elements()),
    )
