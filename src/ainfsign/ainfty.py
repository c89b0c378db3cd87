"""Concrete filtered A-infinity structures over the truncated Novikov ring:
the data model (components, hom spaces, sparse operation tables), the
coderivation insertion, the relation-defect checker, and two certified
constructions -- the differential-graded-algebra embedding and the
bounding-cochain deformation.

Operations are stored per (arity, energy, tag) as values on basis tuples;
a table entry may instead carry a fallback callable, which is how the
exact de Rham presets stay closed under products that leave any finite
basis sample.  Applying the structure multiplies in ``T^energy`` and
truncates below the cutoff, so the energy filtration is enforced by
construction.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import geomodel
from .novikov import (
    GappedSpectrum,
    NovikovElement,
    Rational,
    _frac,
    spectrum_closure,
)
from .signs import koszul_prefix, operation_sign, shifted_degree
from .strata import ComponentData

OpKey = tuple[int, Fraction, str]  # (arity, energy, tag)
TensorKey = tuple[tuple[str, ...], tuple[str, ...]]  # (space names, generator names)


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class Element:
    """A finite Novikov-linear combination of named generators of one hom
    space, canonical when built: zero coefficients are dropped, ``coeffs``
    is a read-only mapping, and the zero element has the empty space name."""

    space: str
    coeffs: Mapping[str, NovikovElement] = field(default_factory=dict)

    def __post_init__(self):
        coeffs = {g: c for g, c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        if not coeffs:
            object.__setattr__(self, "space", "")

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.coeffs.items())))

    @staticmethod
    def zero() -> "Element":
        return _ZERO_ELEMENT

    @staticmethod
    def basis(space: str, gen: str) -> "Element":
        return Element(space, {gen: NovikovElement.one()})

    def normalized(self) -> "Element":
        """The element itself, since elements are canonical when built; kept
        because the benchmark's workloads call it."""
        return self

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Element") -> "Element":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        if self.space != other.space:
            raise StructureError(
                f"cannot add elements of spaces {self.space!r} and {other.space!r}"
            )
        coeffs = dict(self.coeffs)
        for g, c in other.coeffs.items():
            coeffs[g] = coeffs[g] + c if g in coeffs else c
        return Element(self.space, coeffs)

    def scale(self, factor: NovikovElement) -> "Element":
        if factor is NovikovElement.one():
            return self
        return Element(self.space, {g: c * factor for g, c in self.coeffs.items()})

    def shift(self, delta: Rational) -> "Element":
        """Multiply every coefficient by T^delta; all exponents must stay >= 0."""
        return Element(self.space, {g: c.shift(delta) for g, c in self.coeffs.items()})

    def truncate(self, cutoff: Rational) -> "Element":
        return Element(self.space, {g: c.truncate(cutoff) for g, c in self.coeffs.items()})

    def valuation(self):
        return min(
            (c.valuation() for c in self.coeffs.values()),
            default=NovikovElement.zero().valuation(),
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [f"({c})*{g}" for g, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


_ZERO_ELEMENT = Element("", {})


@dataclass(frozen=True)
class HomSpace:
    """A hom-space summand attached to one intersection component.

    ``basis`` lists the sampled generators with their degrees; a
    ``degree_fn`` extends degree lookup to generators created on the fly by
    fallback operations (exact-model monomials).
    """

    name: str
    component: ComponentData
    basis: tuple[tuple[str, int], ...]
    degree_fn: Callable[[str], int] | None = None
    _degrees: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # reversed, so that the first listing of a generator wins
        object.__setattr__(self, "_degrees", dict(reversed(self.basis)))

    def degree_of(self, gen: str) -> int:
        degree = self._degrees.get(gen)
        if degree is not None:
            return degree
        if self.degree_fn is not None:
            return self.degree_fn(gen)
        raise KeyError(f"unknown generator {gen!r} of space {self.name!r}")

    def shifted_parity(self, gen: str) -> int:
        return shifted_degree(self.degree_of(gen), self.component.maslov_parity) % 2


@dataclass(frozen=True)
class OperationTable:
    """Sparse multilinear operation data keyed by (arity, energy, tag).

    Frozen when built: ``values``, each ``values[key]`` and ``fallbacks``
    are read-only copies of what was passed in, and the sorted keys are
    derived once, together with their index by arity.  A stored value
    wins over the fallback of its key.  Fallbacks must be pure functions
    of ``(spaces, gens)`` returning an ``Element``; the table holds no
    cache, so a fallback that is costly caches itself (``from_dga`` and
    ``deform`` wrap theirs in ``functools.cache``).
    """

    values: Mapping[OpKey, Mapping[TensorKey, Element]] = field(default_factory=dict)
    fallbacks: Mapping[OpKey, Callable[[tuple[str, ...], tuple[str, ...]], Element]] = field(
        default_factory=dict
    )
    _keys: tuple[OpKey, ...] = field(init=False, repr=False, compare=False)
    _by_arity: dict[int, tuple[OpKey, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = {key: MappingProxyType(dict(entry)) for key, entry in self.values.items()}
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "fallbacks", MappingProxyType(dict(self.fallbacks)))
        keys = tuple(sorted(values.keys() | self.fallbacks.keys()))
        object.__setattr__(self, "_keys", keys)
        by_arity = itertools.groupby(keys, key=lambda key: key[0])
        object.__setattr__(self, "_by_arity", {k: tuple(group) for k, group in by_arity})

    def keys(self) -> tuple[OpKey, ...]:
        return self._keys

    def keys_of_arity(self, k: int) -> tuple[OpKey, ...]:
        return self._by_arity.get(k, ())

    def lookup(self, key: OpKey, spaces: tuple[str, ...], gens: tuple[str, ...]) -> Element:
        entry = self.values.get(key)
        if entry is not None:
            value = entry.get((spaces, gens))
            if value is not None:
                return value
        fallback = self.fallbacks.get(key)
        return Element.zero() if fallback is None else fallback(spaces, gens)

    def max_arity(self) -> int:
        return max((k for k, _, _ in self._keys), default=0)


@dataclass(frozen=True)
class FilteredAInfty:
    """Spaces, an operation table, an energy spectrum and a cutoff; frozen,
    with ``spaces`` held as a read-only copy.  The splittings of each
    relation arity are planned once per structure and cutoff."""

    spaces: Mapping[str, HomSpace]
    table: OperationTable
    spectrum: GappedSpectrum
    cutoff: Fraction
    _plans: dict[tuple[int, Fraction], list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "spaces", MappingProxyType(dict(self.spaces)))
        object.__setattr__(self, "cutoff", _frac(self.cutoff))
        for key in self.table.keys():
            k, energy, tag = key
            if k == 0 and energy == 0 and any(
                not value.is_zero() for value in self.table.values.get(key, {}).values()
            ):
                raise StructureError("the zero-energy curvature operation must vanish")
            if energy not in self.spectrum:
                raise StructureError(
                    f"operation energy {energy} is outside the spectrum closure"
                )

    # --- degree bookkeeping ---

    def shifted_parity(self, el: Element) -> int:
        if el.is_zero():
            return 0
        space = self.spaces[el.space]
        parities = {space.shifted_parity(g) for g in el.coeffs}
        if len(parities) != 1:
            raise StructureError(f"element is not shifted-homogeneous: {el}")
        return parities.pop()

    def basis_generators(self) -> list[tuple[str, str]]:
        return [
            (space.name, gen)
            for space in self.spaces.values()
            for gen, _ in space.basis
        ]

    # --- applying operations ---

    def _expand(self, word: Sequence[Element]) -> list[tuple[tuple[str, ...], tuple[str, ...], NovikovElement]]:
        combos: list[tuple[tuple[str, ...], tuple[str, ...], NovikovElement]] = [
            ((), (), NovikovElement.one())
        ]
        for el in word:
            nxt = []
            for spaces, gens, coeff in combos:
                for g, c in el.coeffs.items():
                    nxt.append((spaces + (el.space,), gens + (g,), coeff * c))
            combos = nxt
        return combos

    def apply_raw(self, key: OpKey, word: Sequence[Element]) -> Element:
        """Multilinear application of one stored operation, without its
        energy factor."""
        if key[0] != len(word):
            raise StructureError(f"operation {key} expects {key[0]} inputs, got {len(word)}")
        total = Element.zero()
        for spaces, gens, coeff in self._expand(word):
            if coeff.is_zero():
                continue
            value = self.table.lookup(key, spaces, gens)
            if not value.is_zero():
                total = total + value.scale(coeff)
        return total

    def apply_operation(self, k: int, word: Sequence[Element]) -> Element:
        """The full arity-k operation: sum over classes of T^energy times the
        stored map, truncated at the cutoff."""
        total = Element.zero()
        for key in self.table.keys_of_arity(k):
            _, energy, _ = key
            if energy >= self.cutoff:
                continue
            value = self.apply_raw(key, word)
            if not value.is_zero():
                total = total + value.scale(NovikovElement.monomial(1, energy))
        return total.truncate(self.cutoff)

    def curvature(self) -> Element:
        """The arity-0 output; nonzero exactly when the structure is curved."""
        return self.apply_operation(0, ())

    # --- relations ---

    def coderivation_insert(
        self, key: OpKey, j: int, word: Sequence[Element]
    ) -> tuple[int, list[Element]]:
        """Insert the operation at slot j with the Koszul prefix sign.

        Returns (sign parity, new word) where the new word carries the
        operation's output (without its energy factor) at slot j.
        """
        k_inner = key[0]
        k = len(word)
        if not 1 <= j <= k - k_inner + 1:
            raise StructureError(f"slot {j} out of range for arity {k_inner} in {k} inputs")
        return self._insert(key, j, word, *self._word_degrees(word))

    def _word_degrees(self, word: Sequence[Element]) -> tuple[list[int], list[int]]:
        """Degrees and Maslov parities of the inputs (0 for a zero input),
        after checking that each input of several generators is
        shifted-homogeneous."""
        degs = [0] * len(word)
        mus = [0] * len(word)
        for i, el in enumerate(word):
            if el.is_zero():
                continue
            space = self.spaces[el.space]
            degs[i] = space.degree_of(next(iter(el.coeffs)))
            mus[i] = space.component.maslov_parity
            if len(el.coeffs) > 1:
                self.shifted_parity(el)  # homogeneity check
        return degs, mus

    def _insert(
        self, key: OpKey, j: int, word: Sequence[Element], degs: list[int], mus: list[int]
    ) -> tuple[int, list[Element]]:
        """:meth:`coderivation_insert` for an in-range slot, given the
        word's degrees and Maslov parities."""
        k_inner = key[0]
        sign = koszul_prefix(degs, mus, j)
        inner = self.apply_raw(key, word[j - 1 : j - 1 + k_inner])
        return sign, list(word[: j - 1]) + [inner] + list(word[j - 1 + k_inner :])

    def _splittings(
        self, k: int, cutoff: Fraction
    ) -> list[tuple[OpKey, list[tuple[OpKey, tuple[NovikovElement, NovikovElement]]]]]:
        """The splittings of the arity-k relation below the cutoff: each
        inner key that has outer keys, with those outer keys and the factors
        ``T^energy`` and ``-T^energy`` of their summed energy."""
        plan = self._plans.get((k, cutoff))
        if plan is None:
            plan = []
            for inner_key in self.table.keys():
                k_inner, e_inner, _ = inner_key
                if k_inner > k:
                    break  # keys are sorted by arity
                outer = []
                for outer_key in self.table.keys_of_arity(k + 1 - k_inner):
                    energy = e_inner + outer_key[1]
                    if energy < cutoff:
                        factors = (NovikovElement.monomial(1, energy),
                                   NovikovElement.monomial(-1, energy))
                        outer.append((outer_key, factors))
                if outer:
                    plan.append((inner_key, outer))
            self._plans[(k, cutoff)] = plan
        return plan

    def relation_defect(self, word: Sequence[Element], cutoff: Rational | None = None) -> Element:
        """The double sum over splittings of outer-after-inner applications,
        with Koszul signs and all energy decompositions below the cutoff."""
        cutoff = self.cutoff if cutoff is None else _frac(cutoff)
        k = len(word)
        plan = self._splittings(k, cutoff)
        if plan:
            degs, mus = self._word_degrees(word)
        total = Element.zero()
        for inner_key, outer in plan:
            # The inner insertion does not depend on the outer operation.
            inserted = [
                self._insert(inner_key, j, word, degs, mus)
                for j in range(1, k + 2 - inner_key[0])
            ]
            for outer_key, factors in outer:
                for j, (sign, new_word) in enumerate(inserted, start=1):
                    if new_word[j - 1].is_zero():
                        continue
                    value = self.apply_raw(outer_key, new_word)
                    if value.is_zero():
                        continue
                    total = total + value.scale(factors[sign])
        return total.truncate(cutoff)

    def check_relations(
        self,
        k_max: int,
        cutoff: Rational | None = None,
        seed: int = 0,
        exhaustive_threshold: int = 10_000,
        sample_size: int = 1_000,
    ) -> "RelationReport":
        """Defect of every relation up to arity k_max over basis tuples.

        Exhaustive when the tuple count is at most the threshold, otherwise
        a seeded random sample.  Stops at the first nonzero defect.
        """
        gens = self.basis_generators()
        basis = {(s, g): Element.basis(s, g) for s, g in gens}
        rng = random.Random(seed)
        checked = 0
        for k in range(0, k_max + 1):
            count = len(gens) ** k if gens else (1 if k == 0 else 0)
            if count == 0 and k > 0:
                continue
            if count <= exhaustive_threshold:
                words = itertools.product(gens, repeat=k)
            else:
                words = (
                    tuple(rng.choice(gens) for _ in range(k))
                    for _ in range(sample_size)
                )
            for word in words:
                defect = self.relation_defect([basis[sg] for sg in word], cutoff)
                checked += 1
                if not defect.is_zero():
                    return RelationReport(
                        passed=False,
                        checked=checked,
                        witness={"k": k, "inputs": list(word), "defect": str(defect)},
                    )
        return RelationReport(passed=True, checked=checked, witness=None)


@dataclass
class RelationReport:
    passed: bool
    checked: int
    witness: dict | None


def validate_degree_parity(A: FilteredAInfty) -> list[dict]:
    """Check that every stored value raises total shifted degree by one;
    returns the violations (empty when the parity contract holds)."""
    violations = []
    for key, entry in A.table.values.items():
        for (spaces, gens), value in entry.items():
            if value.is_zero():
                continue
            in_parity = sum(
                A.spaces[s].shifted_parity(g) for s, g in zip(spaces, gens)
            ) % 2
            out_parity = A.shifted_parity(value)
            if out_parity != (in_parity + 1) % 2:
                violations.append(
                    {"key": [key[0], str(key[1]), key[2]], "inputs": list(gens),
                     "in_parity": in_parity, "out_parity": out_parity}
                )
    return violations


# --- differential graded algebra models ---------------------------------------


@dataclass(frozen=True)
class DGAModel:
    """A graded-commutative differential algebra with exact arithmetic,
    presented on string-keyed monomial generators."""

    space_name: str
    component: ComponentData
    basis: tuple[tuple[str, int], ...]
    degree_of: Callable[[str], int]
    differential: Callable[[str], dict[str, Fraction]]
    product: Callable[[str, str], dict[str, Fraction]]
    generator_test: Callable[[str], bool] | None = None

    def has_generator(self, key: str) -> bool:
        """Whether ``key`` names a generator: a basis key, or a key that
        ``generator_test`` accepts (monomials beyond the sampled basis)."""
        if any(g == key for g, _ in self.basis):
            return True
        return self.generator_test is not None and self.generator_test(key)


def _as_element(space: str, combo: Mapping[str, Fraction]) -> Element:
    return Element(space, {g: NovikovElement.monomial(c, 0) for g, c in combo.items()})


def exterior_dga(
    n: int, differential: Mapping[str, Mapping[str, Fraction]] | None = None
) -> DGAModel:
    """Exterior algebra on n degree-1 generators ``e1..en``; basis keys are
    sorted wedges like ``e1^e3``.  An optional differential on the single
    generators is extended as a derivation."""
    gens = [f"e{i}" for i in range(1, n + 1)]
    order = {g: i for i, g in enumerate(gens)}

    def key_of(subset: tuple[str, ...]) -> str:
        return "^".join(subset) if subset else "1"

    def parse(key: str) -> tuple[str, ...]:
        return () if key == "1" else tuple(key.split("^"))

    basis = tuple(
        (key_of(sub), len(sub))
        for r in range(n + 1)
        for sub in itertools.combinations(gens, r)
    )

    def prod(k1: str, k2: str) -> dict[str, Fraction]:
        letters = parse(k1) + parse(k2)
        if len(set(letters)) != len(letters):
            return {}
        ranked = [order[x] for x in letters]
        inversions = sum(
            1 for i in range(len(ranked)) for m in range(i + 1, len(ranked))
            if ranked[i] > ranked[m]
        )
        merged = tuple(sorted(letters, key=order.__getitem__))
        return {key_of(merged): Fraction((-1) ** inversions)}

    gen_diff = {
        g: {k: _frac(c) for k, c in (differential or {}).get(g, {}).items()}
    for g in gens}

    def diff(key: str) -> dict[str, Fraction]:
        letters = parse(key)
        out: dict[str, Fraction] = {}
        for i, letter in enumerate(letters):
            head = letters[:i]
            tail = letters[i + 1 :]
            for dk, dc in gen_diff[letter].items():
                coeff = dc * (-1) ** i  # derivation sign past i degree-1 letters
                acc = {key_of(head): coeff}
                for part in (dk, key_of(tail)):
                    nxt: dict[str, Fraction] = {}
                    for k1, c1 in acc.items():
                        for k2, c2 in prod(k1, part).items():
                            nxt[k2] = nxt.get(k2, Fraction(0)) + c1 * c2
                    acc = nxt
                for k2, c2 in acc.items():
                    out[k2] = out.get(k2, Fraction(0)) + c2
        return {k: c for k, c in out.items() if c}

    return DGAModel(
        space_name="ext",
        component=ComponentData("ext", 0, 0),
        basis=basis,
        degree_of=lambda key: 0 if key == "1" else len(parse(key)),
        differential=diff,
        product=prod,
    )


# Monomial-form keys for the exact de Rham presets: "<poly monomial>|<wedge>",
# e.g. "t^2|dt^dc" for t^2 dt^dc, "1|" for the constant function 1.


def _form_key(mono: tuple[tuple[str, int], ...], wedge_: tuple[str, ...]) -> str:
    poly = "*".join(f"{v}^{p}" if p > 1 else v for v, p in mono) or "1"
    return f"{poly}|{'^'.join('d' + x for x in wedge_)}"


@functools.cache
def _parse_form_key(sp: geomodel.CubeTorusSpace, key: str) -> geomodel.Form:
    """The monomial form a key names; cached, since forms are never mutated."""
    poly_part, _, wedge_part = key.partition("|")
    mono: dict[str, int] = {}
    if poly_part != "1":
        for piece in poly_part.split("*"):
            v, _, p = piece.partition("^")
            mono[v] = int(p) if p else 1
    letters = tuple(x[1:] for x in wedge_part.split("^") if x)
    poly = geomodel.Poly({tuple(sorted(mono.items())): Fraction(1)})
    return geomodel.Form(sp, {letters: poly})


def _is_form_key(sp: geomodel.CubeTorusSpace, key: str) -> bool:
    """Whether ``key`` is the canonical key of a monomial form on ``sp``."""
    try:
        form = _parse_form_key(sp, key)
    except ValueError:
        return False
    return _form_to_combo(form) == {key: Fraction(1)}


def _form_to_combo(form: geomodel.Form) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for wedge_, poly in form.terms.items():
        for mono, c in poly.terms.items():
            key = _form_key(mono, wedge_)
            out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def cube_torus_dga(sp: geomodel.CubeTorusSpace, sample_poly_degree: int = 2) -> DGAModel:
    """Polynomial-coefficient forms on an interval-circle product, with the
    exact exterior derivative and wedge; the listed basis samples monomial
    forms up to the given polynomial degree, and operations stay exact on
    the monomials they generate beyond the sample."""
    interval = sp.interval_names()
    monos: list[tuple[tuple[str, int], ...]] = [()]
    for v in interval:
        monos += [
            tuple(sorted({v: d}.items())) for d in range(1, sample_poly_degree + 1)
        ]
    names = sp.names()
    basis = []
    for r in range(sp.dimension + 1):
        for wedge_ in itertools.combinations(names, r):
            for mono in monos:
                basis.append((_form_key(mono, wedge_), r))

    def diff(key: str) -> dict[str, Fraction]:
        return _form_to_combo(geomodel.exterior_derivative(_parse_form_key(sp, key)))

    def prod(k1: str, k2: str) -> dict[str, Fraction]:
        return _form_to_combo(
            geomodel.wedge(_parse_form_key(sp, k1), _parse_form_key(sp, k2))
        )

    return DGAModel(
        space_name="deRham",
        component=ComponentData("deRham", sp.dimension, 0),
        basis=tuple(basis),
        degree_of=lambda key: _parse_form_key(sp, key).degree(),
        differential=diff,
        product=prod,
        generator_test=lambda key: _is_form_key(sp, key),
    )


def from_dga(
    dga: DGAModel,
    cutoff: Rational = Fraction(1),
    sign_rule: Callable[[int, int], int] | None = None,
) -> FilteredAInfty:
    """Embed a differential graded algebra as an energy-zero structure:
    arity 1 is the differential, arity 2 the product twisted by
    (-1)^(first degree), everything else zero.

    ``sign_rule`` overrides the product twist exponent (as a function of the
    two input degrees); the default is the one forced by the operation-sign
    convention, and the overrides exist so tests can demonstrate that wrong
    rules are detected.
    """
    if dga.component.maslov_parity != 0:
        raise StructureError("the embedding requires a parity-0 component")
    rule = sign_rule or (lambda d1, d2: d1 % 2)
    space = HomSpace(dga.space_name, dga.component, dga.basis, dga.degree_of)

    @functools.cache
    def diff_op(spaces: tuple[str, ...], gens: tuple[str, ...]) -> Element:
        return _as_element(dga.space_name, dga.differential(gens[0]))

    @functools.cache
    def prod_op(spaces: tuple[str, ...], gens: tuple[str, ...]) -> Element:
        d1, d2 = dga.degree_of(gens[0]), dga.degree_of(gens[1])
        sign = (-1) ** (rule(d1, d2) % 2)
        combo = dga.product(gens[0], gens[1])
        return _as_element(dga.space_name, {g: sign * c for g, c in combo.items()})

    table = OperationTable(
        fallbacks={
            (1, Fraction(0), "0"): diff_op,
            (2, Fraction(0), "0"): prod_op,
        }
    )
    return FilteredAInfty(
        spaces={space.name: space},
        table=table,
        spectrum=spectrum_closure([], cutoff),
        cutoff=_frac(cutoff),
    )


def check_product_sign_convention(
    A: FilteredAInfty, dga: DGAModel, pairs: Sequence[tuple[str, str]] | None = None
) -> list[dict]:
    """Conformance of the arity-2 values against the operation-sign
    convention, with the algebra product as the independent reference.

    A uniformly flipped twist is invisible to the relation checker
    (rescaling the product is a structure automorphism when no higher
    operations are stored), so this definitional check is what pins the
    convention; it returns the violating pairs.
    """
    violations = []
    key = (2, Fraction(0), "0")
    space = A.spaces[dga.space_name]
    mu = space.component.maslov_parity
    gens = [g for g, _ in space.basis]
    pair_list = list(pairs) if pairs is not None else [
        (g1, g2) for g1 in gens for g2 in gens
    ]
    for g1, g2 in pair_list:
        d1, d2 = dga.degree_of(g1), dga.degree_of(g2)
        stored = A.table.lookup(key, (space.name, space.name), (g1, g2))
        sign = (-1) ** operation_sign([d1, d2], [mu, mu])
        expected = _as_element(
            space.name, {g: sign * c for g, c in dga.product(g1, g2).items()}
        )
        if stored.coeffs != expected.coeffs:
            violations.append(
                {"pair": (g1, g2), "stored": str(stored), "expected": str(expected)}
            )
    return violations


def deform(
    A: FilteredAInfty, b: Element, lam_min: Rational
) -> FilteredAInfty:
    """Bounding-cochain deformation: every operation acquires insertions of
    b in all slots, with no extra signs because b's shifted degree is even.

    Requires every coefficient of b to have valuation at least lam_min > 0;
    the n-insertion piece of each arity is stored at energy n*lam_min with
    its value shifted down correspondingly, keeping all stored coefficients
    inside the ring and the zero-energy curvature zero.  The deformed
    structure keeps the parent's spaces, stored values and fallbacks, so
    an inherited value is computed once for the parent and all of its
    deformations; each new piece caches its own values.  A zero b returns
    the parent itself.
    """
    lam = _frac(lam_min)
    if lam <= 0:
        raise StructureError("lam_min must be positive")
    if b.is_zero():
        return A
    if A.shifted_parity(b) != 0:
        raise StructureError("the deforming element must have even shifted degree")
    if b.valuation() < lam:
        raise StructureError(
            f"every coefficient of b needs valuation >= {lam}, got {b.valuation()}"
        )

    def piece(k: int, n: int) -> Callable[[tuple[str, ...], tuple[str, ...]], Element]:
        @functools.cache
        def op(spaces: tuple[str, ...], gens: tuple[str, ...]) -> Element:
            word = [Element.basis(s, g) for s, g in zip(spaces, gens)]
            total = Element.zero()
            for split in _compositions(n, k + 1):
                dressed: list[Element] = []
                for i, el in enumerate(word):
                    dressed.extend([b] * split[i])
                    dressed.append(el)
                dressed.extend([b] * split[k])
                total = total + A.apply_operation(k + n, dressed)
            return total.shift(-n * lam)

        return op

    max_k = A.table.max_arity()
    fallbacks = dict(A.table.fallbacks)
    for k in range(0, max_k + 1):
        for n in range(1, max_k - k + 1):
            if n * lam < A.cutoff:
                fallbacks[(k, n * lam, f"b^{n}")] = piece(k, n)
    return FilteredAInfty(
        spaces=A.spaces,
        table=OperationTable(A.table.values, fallbacks),
        spectrum=spectrum_closure(set(A.spectrum.generators) | {lam}, A.cutoff),
        cutoff=A.cutoff,
    )


def _compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative integers summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest
