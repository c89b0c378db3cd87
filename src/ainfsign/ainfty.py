"""Concrete filtered A-infinity structures over the truncated Novikov ring:
the data model (components, hom spaces, sparse operation tables), the
relation checker (which inserts each inner operation as a coderivation,
with its Koszul prefix sign, and sums each word's terms on index words),
and two certified constructions -- the differential-graded-algebra
embedding and the bounding-cochain deformation.

Operations are stored per (arity, energy, tag) as values on basis tuples;
a table entry may instead carry a fallback callable, which is how the
exact de Rham presets stay closed under products that leave any finite
basis sample.  Applying the structure multiplies in ``T^energy`` and
truncates below the cutoff, so the energy filtration is enforced by
construction.  A hom space lists each generator once, and each algebra
preset alone decides what its generators are; a de Rham preset parses each
key into its ``Form`` once and keeps no parse beyond itself.

Energies, cutoffs and coefficients follow ``novikov``'s rule: an ``int``
when integral, a ``Fraction`` when not.  ``OperationTable`` stores each
key's energy in that form, so ``(1, Fraction(0), "t")`` and ``(1, 0, "t")``
name one operation, and the algebra presets emit int coefficients; a sweep
over integral data does no ``Fraction`` arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from types import MappingProxyType

from . import geomodel
from .frozen import Frozen
from .novikov import (
    GappedSpectrum,
    NovikovElement,
    Rational,
    _rational,
    spectrum_closure,
)
from .signs import koszul_prefix, operation_sign, shifted_degree
from .strata import ComponentData

OpKey = tuple[int, Rational, str]  # (arity, energy, tag)
TensorKey = tuple[tuple[str, ...], tuple[str, ...]]  # (space names, generator names)


class StructureError(ValueError):
    """A structure breaks a rule.  Where ``FilteredAInfty`` names the
    operation at fault, ``where`` is ``(key, None)``, or ``(key, input
    word)`` when one value of it is."""

    def __init__(self, message: str, where: tuple | None = None):
        super().__init__(message)
        self.where = where


class Element(Frozen):
    """A finite Novikov-linear combination of named generators of one hom
    space, canonical when built: zero coefficients are dropped, ``coeffs``
    is a read-only mapping, and the zero element has the empty space name.
    A basis element is one generator with the shared unit coefficient
    ``NovikovElement.one()``.  Results that are canonical by construction
    (basis elements, sums, scales, truncations) go through the trusted
    ``Element._of``.  Equality and hash are those of the space and the
    coefficients."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: str, coeffs: Mapping[str, NovikovElement] | None = None):
        coeffs = {g: c for g, c in coeffs.items() if c} if coeffs else {}
        Frozen.__init__(self, space if coeffs else "", MappingProxyType(coeffs))

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.coeffs.items())))

    @staticmethod
    def _of(space: str, coeffs: dict[str, NovikovElement]) -> "Element":
        """Trusted constructor: adopts ``coeffs``, a dict built at the call
        with no zero coefficient, which no caller keeps."""
        if not coeffs:
            return _ZERO_ELEMENT
        element = object.__new__(Element)
        Frozen.__init__(element, space, MappingProxyType(coeffs))
        return element

    @staticmethod
    def zero() -> "Element":
        return _ZERO_ELEMENT

    @staticmethod
    def basis(space: str, gen: str) -> "Element":
        return Element._of(space, {gen: NovikovElement.one()})

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
            if g not in coeffs:
                coeffs[g] = c
            elif total := coeffs[g] + c:
                coeffs[g] = total
            else:
                del coeffs[g]
        return Element._of(self.space, coeffs)

    def scale(self, factor: NovikovElement) -> "Element":
        if factor is NovikovElement.one():
            return self
        if not factor:
            return _ZERO_ELEMENT
        # a product of nonzero Novikov elements is nonzero
        return Element._of(self.space, {g: c * factor for g, c in self.coeffs.items()})

    def shift(self, delta: Rational) -> "Element":
        """Multiply every coefficient by T^delta; all exponents must stay >= 0."""
        return Element(self.space, {g: c.shift(delta) for g, c in self.coeffs.items()})

    def truncate(self, cutoff: Rational) -> "Element":
        return Element._of(self.space, {g: t for g, c in self.coeffs.items()
                                        if (t := c.truncate(cutoff))})

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


class HomSpace(Frozen):
    """A hom-space summand attached to one intersection component.

    ``basis`` lists the sampled generators with their degrees, each once; a
    ``degree_fn`` extends degree lookup to generators created on the fly by
    fallback operations (exact-model monomials).
    """

    __slots__ = ("name", "component", "basis", "degree_fn", "_degrees")

    def __init__(self, name: str, component: ComponentData, basis: tuple[tuple[str, int], ...],
                 degree_fn: Callable[[str], int] | None = None):
        degrees = dict(basis)
        if len(degrees) != len(basis):
            raise StructureError(f"space {name!r} lists a generator twice")
        Frozen.__init__(self, name, component, basis, degree_fn, degrees)

    def degree_of(self, gen: str) -> int:
        degree = self._degrees.get(gen)
        if degree is not None:
            return degree
        if self.degree_fn is not None:
            return self.degree_fn(gen)
        raise KeyError(f"unknown generator {gen!r} of space {self.name!r}")

    def shifted_parity(self, gen: str) -> int:
        return shifted_degree(self.degree_of(gen), self.component.maslov_parity) % 2


_NO_SLOT = (None, None)


def _normal_key(key: OpKey) -> OpKey:
    k, energy, tag = key
    return k, _rational(energy), tag


class OperationTable(Frozen):
    """Sparse multilinear operation data keyed by (arity, energy, tag).

    Frozen when built: ``values``, each ``values[key]`` and ``fallbacks``
    are read-only copies of what was passed in, with each key's energy in
    normal form (an ``int`` when integral), and the sorted keys are
    derived once, together with their index by arity and the slot index
    ``key -> (stored entry or None, fallback or None)``, so a lookup
    hashes its key once.  A stored value wins over the fallback of its
    key.  Fallbacks must be pure functions of ``(spaces, gens)`` returning
    an ``Element``; the table holds no cache, so a fallback that is costly
    caches itself (``from_dga`` and ``deform`` wrap theirs in
    ``functools.cache``).
    """

    __slots__ = ("values", "fallbacks", "_keys", "_by_arity", "_slots")

    def __init__(
        self,
        values: Mapping[OpKey, Mapping[TensorKey, Element]] | None = None,
        fallbacks: Mapping[OpKey, Callable[[tuple[str, ...], tuple[str, ...]], Element]]
        | None = None,
    ):
        values = {_normal_key(key): MappingProxyType(dict(entry))
                  for key, entry in (values or {}).items()}
        fallbacks = {_normal_key(key): fallback for key, fallback in (fallbacks or {}).items()}
        keys = tuple(sorted(values.keys() | fallbacks.keys()))
        by_arity = itertools.groupby(keys, key=lambda key: key[0])
        Frozen.__init__(self, MappingProxyType(values), MappingProxyType(fallbacks), keys,
                        {k: tuple(group) for k, group in by_arity},
                        {key: (values.get(key), fallbacks.get(key)) for key in keys})

    def keys(self) -> tuple[OpKey, ...]:
        return self._keys

    def keys_of_arity(self, k: int) -> tuple[OpKey, ...]:
        return self._by_arity.get(k, ())

    def lookup(self, key: OpKey, spaces: tuple[str, ...], gens: tuple[str, ...]) -> Element:
        entry, fallback = self._slots.get(key, _NO_SLOT)
        if entry is not None:
            value = entry.get((spaces, gens))
            if value is not None:
                return value
        return Element.zero() if fallback is None else fallback(spaces, gens)

    def max_arity(self) -> int:
        return max((k for k, _, _ in self._keys), default=0)


class FilteredAInfty(Frozen):
    """Spaces, an operation table, an energy spectrum and a cutoff; frozen,
    with ``spaces`` held as a read-only copy.  The splittings of a relation
    arity are planned when ``check_relations`` reaches that arity.

    Every application to elements goes through ``apply_raw``, which looks
    up each choice of one generator per input (a basis word is one choice,
    and its unit coefficients scale nothing).  The relation checker works
    on index words instead, and every value goes through
    ``OperationTable.lookup``."""

    __slots__ = ("spaces", "table", "spectrum", "cutoff")

    def __init__(self, spaces: Mapping[str, HomSpace], table: OperationTable,
                 spectrum: GappedSpectrum, cutoff: Rational):
        Frozen.__init__(self, MappingProxyType(dict(spaces)), table, spectrum,
                        _rational(cutoff))
        for key in table.keys():
            k, energy, tag = key
            if k == 0 and energy == 0:
                for word, value in table.values.get(key, {}).items():
                    if not value.is_zero():
                        raise StructureError("the zero-energy curvature operation must vanish",
                                             (key, word))
            if energy not in spectrum:
                raise StructureError(
                    f"operation energy {energy} is outside the spectrum closure", (key, None)
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

    def apply_raw(self, key: OpKey, word: Sequence[Element]) -> Element:
        """Multilinear application of one stored operation, without its
        energy factor: the value on each choice of one generator per input,
        scaled by the chosen coefficients (the shared unit scales nothing)."""
        if key[0] != len(word):
            raise StructureError(f"operation {key} expects {key[0]} inputs, got {len(word)}")
        spaces = tuple([el.space for el in word])
        total = Element.zero()
        for gens in itertools.product(*[el.coeffs for el in word]):
            value = self.table.lookup(key, spaces, gens)
            if value.coeffs:
                for el, g in zip(word, gens):
                    value = value.scale(el.coeffs[g])
                total = total + value
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

    def _splittings(
        self, k: int
    ) -> list[tuple[OpKey, list[tuple[OpKey, tuple[NovikovElement, NovikovElement]]]]]:
        """The splittings of the arity-k relation below the cutoff: each
        inner key that has outer keys, with those outer keys and the factors
        ``T^energy`` and ``-T^energy`` of their summed energy."""
        plan = []
        for inner_key in self.table.keys():
            k_inner, e_inner, _ = inner_key
            if k_inner > k:
                break  # keys are sorted by arity
            outer = []
            for outer_key in self.table.keys_of_arity(k + 1 - k_inner):
                energy = e_inner + outer_key[1]
                if energy < self.cutoff:
                    factors = (NovikovElement.monomial(1, energy),
                               NovikovElement.monomial(-1, energy))
                    outer.append((outer_key, factors))
            if outer:
                plan.append((inner_key, outer))
        return plan

    def check_relations(
        self,
        k_max: int,
        seed: int = 0,
        exhaustive_threshold: int = 10_000,
        sample_size: int = 1_000,
    ) -> "RelationReport":
        """Defect of every relation up to arity k_max over basis tuples,
        modulo ``T^cutoff`` at the structure's own cutoff.

        A word is a tuple of indices into ``basis_generators()``, and its
        relation is summed as ``{(space, generator): coefficient}`` before
        truncation.  An arity of at most ``max(exhaustive_threshold,
        sample_size)`` tuples is swept from the operations' nonzero entries
        (``_relation_sums``), which reaches every word that may be
        defective; a larger one is a seeded random sample of
        ``sample_size`` words, drawn with replacement and counted per draw,
        and the report lists the sampled arities.  A drawn word, and every
        word of a swept arity where a lookup raises, is summed alone
        (``_word_sums``), so the error names the word where it is met.  An
        arity that no splitting reaches has zero defect: its words are
        counted, not visited.  A word whose terms fall in two spaces is an
        error; otherwise the report stops at the first word whose truncated
        sum is nonzero, the witness, and counts the words up to it, in
        ``itertools.product`` order at a swept arity.
        """
        generators = self.basis_generators()
        n = len(generators)
        indices = range(n)
        rng = random.Random(seed)
        checked = 0
        sampled: list[int] = []
        tables: dict[OpKey, dict] = {}  # the sweep's inner keys, tabulated
        for k in range(0, k_max + 1):
            plan = self._splittings(k)
            count = n ** k
            sums: dict = {}  # the terms of the swept words
            if not plan:
                words = ()
            elif count <= max(exhaustive_threshold, sample_size):
                try:
                    sums = self._relation_sums(k, plan, generators, tables)
                    words = sorted(sums)
                except Exception:  # _word_sums meets it again, at its word
                    words = itertools.product(indices, repeat=k)
            else:
                sampled.append(k)
                count = sample_size
                words = (tuple([rng.choice(indices) for _ in range(k)])
                         for _ in range(sample_size))
            for position, word in enumerate(words):
                try:
                    total = sums.get(word)
                    if total is None:
                        total = self._word_sums(word, plan, generators)
                    spaces = {space for space, _ in total}
                    if len(spaces) > 1:
                        raise StructureError(
                            "terms in spaces " + " and ".join(map(repr, sorted(spaces))))
                except StructureError as exc:
                    inputs = [generators[i] for i in word]
                    raise StructureError(f"relation at the word {inputs}: {exc}") from exc
                if any(c.truncate(self.cutoff) for c in total.values()):
                    defect = Element._of(spaces.pop(), {
                        g: t for (_, g), c in total.items() if (t := c.truncate(self.cutoff))})
                    if sums:  # the word's position in itertools.product order
                        position = functools.reduce(lambda p, i: p * n + i, word, 0)
                    return RelationReport(
                        checked + position + 1,
                        {"k": k, "inputs": [generators[i] for i in word], "defect": str(defect)},
                        sampled,
                    )
            checked += count
        return RelationReport(checked, None, sampled)

    def _word_sums(
        self,
        word: tuple[int, ...],
        plan: list,
        generators: list[tuple[str, str]],
    ) -> dict[tuple[str, str], NovikovElement]:
        """The terms of the relation at one word (indices into
        ``generators``), summed as ``_relation_sums`` sums them: each inner
        value is looked up on the word's blocks, and each outer value
        wherever a nonzero inner output lands, so exactly the values that
        the sweep looks up for this word."""
        spaces = tuple([generators[i][0] for i in word])
        gens = tuple([generators[i][1] for i in word])
        degs = [self.spaces[s].degree_of(g) for s, g in zip(spaces, gens)]
        mus = [self.spaces[s].component.maslov_parity for s in spaces]
        total: dict[tuple[str, str], NovikovElement] = {}
        for inner_key, outer in plan:
            k_inner = inner_key[0]
            for a in range(len(word) + 1 - k_inner):
                b = a + k_inner
                inner = self.table.lookup(inner_key, spaces[a:b], gens[a:b])
                if not inner.coeffs:
                    continue
                sign = koszul_prefix(degs, mus, a + 1)
                for (outer_key, factors), (g, c) in itertools.product(outer,
                                                                     inner.coeffs.items()):
                    value = self.table.lookup(outer_key, spaces[:a] + (inner.space,) + spaces[b:],
                                              gens[:a] + (g,) + gens[b:])
                    scale = factors[sign] * c
                    for h, v in value.coeffs.items():
                        slot, term = (value.space, h), v * scale
                        total[slot] = total[slot] + term if slot in total else term
        return total

    def _relation_sums(
        self,
        k: int,
        plan: list,
        generators: list[tuple[str, str]],
        tables: dict[OpKey, dict],
    ) -> dict[tuple[int, ...], dict[tuple[str, str], NovikovElement]]:
        """The terms of the arity-k relation, summed from the operations'
        nonzero entries instead of word by word: word (as indices into
        ``generators``) -> (space, generator) -> coefficient before
        truncation, for each word that a nonzero inner value reaches.

        Each inner key is tabulated once on every basis tuple of its arity,
        keeping its nonzero outputs by generator (in ``tables``).  Each
        outer key is looked up wherever an inner output reaches: on (basis
        prefix, generator of an inner output, basis suffix).  So exactly
        the values that ``_word_sums`` looks up on the arity's words are
        looked up, and the fallbacks' own caches are the only value
        cache.  Each product, times the factor of its summed energy and its
        prefix's ``koszul_prefix``, goes to the word it came from."""
        n = len(generators)
        spaces = [s for s, _ in generators]
        gens = [g for _, g in generators]
        degs = [self.spaces[s].degree_of(g) for s, g in generators]
        mus = [self.spaces[s].component.maslov_parity for s in spaces]
        sums: dict[tuple[int, ...], dict[tuple[str, str], NovikovElement]] = {}
        for inner_key, outer in plan:
            k_inner = inner_key[0]
            reach = tables.get(inner_key)
            if reach is None:
                reach = {}
                for w in itertools.product(range(n), repeat=k_inner):
                    value = self.table.lookup(inner_key, tuple([spaces[i] for i in w]),
                                              tuple([gens[i] for i in w]))
                    for g, c in value.coeffs.items():
                        reach.setdefault((value.space, g), []).append((w, c))
                tables[inner_key] = reach
            m = k - k_inner
            for rest in itertools.product(range(n), repeat=m):
                rs = tuple([spaces[i] for i in rest])
                rg = tuple([gens[i] for i in rest])
                rdegs, rmus = [degs[i] for i in rest], [mus[i] for i in rest]
                signs = [koszul_prefix(rdegs, rmus, a + 1) for a in range(m + 1)]
                for a, (outer_key, factors), ((space, g), targets) in itertools.product(
                    range(m + 1), outer, reach.items()
                ):
                    value = self.table.lookup(outer_key, rs[:a] + (space,) + rs[a:],
                                              rg[:a] + (g,) + rg[a:])
                    if not value.coeffs:
                        continue
                    prefix, suffix, factor = rest[:a], rest[a:], factors[signs[a]]
                    for w, c in targets:
                        total = sums.setdefault(prefix + w + suffix, {})
                        scale = factor * c
                        for h, v in value.coeffs.items():
                            slot, term = (value.space, h), v * scale
                            total[slot] = total[slot] + term if slot in total else term
        return sums


class RelationReport(Frozen):
    """The relation sweep's outcome: the words checked, the first defective
    one (``None`` when none is) and the arities that were sampled."""

    __slots__ = ("checked", "witness", "sampled_arities")

    @property
    def passed(self) -> bool:
        return self.witness is None


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


class DGAModel(Frozen):
    """A graded-commutative differential algebra with exact arithmetic,
    presented on string-keyed monomial generators.  ``degree_of`` decides
    what a generator is: it raises ``KeyError`` or ``ValueError`` on any
    other key."""

    __slots__ = ("space_name", "component", "basis", "degree_of", "differential", "product")

    def __init__(self, space_name: str, component: ComponentData,
                 basis: tuple[tuple[str, int], ...], degree_of: Callable[[str], int],
                 differential: Callable[[str], dict[str, Rational]],
                 product: Callable[[str, str], dict[str, Rational]]):
        Frozen.__init__(self, space_name, component, basis, degree_of, differential, product)


def _as_element(space: str, combo: Mapping[str, Rational]) -> Element:
    return Element._of(space, {g: NovikovElement.monomial(c, 0) for g, c in combo.items() if c})


def exterior_dga(
    n: int, differential: Mapping[str, Mapping[str, Rational]] | None = None
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

    def prod(k1: str, k2: str) -> dict[str, Rational]:
        sign, merged = geomodel.core._merge_sign(parse(k1) + parse(k2), order)
        return {key_of(merged): sign} if sign else {}

    gen_diff = {
        g: {k: _rational(c) for k, c in (differential or {}).get(g, {}).items()}
    for g in gens}

    def diff(key: str) -> dict[str, Rational]:
        letters = parse(key)
        out: dict[str, Rational] = {}
        for i, letter in enumerate(letters):
            for dk, dc in gen_diff[letter].items():
                # one Koszul merge of head, d(letter) and tail, and the
                # derivation sign past i degree-1 letters
                sign, merged = geomodel.core._merge_sign(
                    letters[:i] + parse(dk) + letters[i + 1 :], order)
                if sign:
                    key = key_of(merged)
                    out[key] = out.get(key, 0) + dc * sign * (-1) ** i
        return {k: c for k, c in out.items() if c}

    return DGAModel(
        space_name="ext",
        component=ComponentData("ext", 0, 0),
        basis=basis,
        degree_of=dict(basis).__getitem__,
        differential=diff,
        product=prod,
    )


# Monomial-form keys for the exact de Rham presets: "<poly monomial>|<wedge>",
# e.g. "t^2|dt^dc" for t^2 dt^dc, "1|" for the constant function 1.


def _form_key(mono: tuple[tuple[str, int], ...], wedge_: tuple[str, ...]) -> str:
    poly = "*".join([f"{v}^{p}" if p > 1 else v for v, p in mono]) if mono else "1"
    return f"{poly}|d{'^d'.join(wedge_)}" if wedge_ else poly + "|"


def _parse_form_key(sp: geomodel.CubeTorusSpace, key: str) -> geomodel.Form:
    """The monomial form that ``key`` names on ``sp``; ``ValueError`` unless
    ``key`` is that form's canonical key."""
    poly_part, _, wedge_part = key.partition("|")
    mono: dict[str, int] = {}
    if poly_part != "1":
        for piece in poly_part.split("*"):
            v, _, p = piece.partition("^")
            mono[v] = int(p) if p else 1
    monomial = tuple(sorted(mono.items()))
    letters = tuple(x[1:] for x in wedge_part.split("^") if x)
    if _form_key(monomial, letters) != key:
        raise ValueError(f"{key!r} is not a canonical monomial form key")
    return geomodel.Form(sp, {letters: geomodel.Poly({monomial: 1})})


def _form_to_combo(form: geomodel.Form) -> dict[str, Rational]:
    out: dict[str, Rational] = {}
    for wedge_, poly in form.terms.items():
        for mono, c in poly.terms.items():
            key = _form_key(mono, wedge_)
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def cube_torus_dga(sp: geomodel.CubeTorusSpace, sample_poly_degree: int = 2) -> DGAModel:
    """Polynomial-coefficient forms on an interval-circle product, with the
    exact exterior derivative and wedge; the listed basis samples monomial
    forms up to the given polynomial degree, and operations stay exact on
    the monomials they generate beyond the sample.  Each key is parsed once
    per preset, and a key that does not parse is no generator.  A preset
    keeps, per key, its ``Form``, which d differentiates, and its sorted
    wedge letters and exponents, which give the degree and the product: one
    Koszul merge of the letters and the sum of the exponents, as in
    ``exterior_dga``."""
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

    parsed: dict[str, tuple] = {}

    def parts(key: str) -> tuple[geomodel.Form, tuple[str, ...], geomodel.core.Monomial]:
        found = parsed.get(key)
        if found is None:
            form = _parse_form_key(sp, key)
            ((letters, poly),) = form.terms.items()
            (mono,) = poly.terms
            found = parsed[key] = (form, letters, mono)
        return found

    def diff(key: str) -> dict[str, Rational]:
        return _form_to_combo(geomodel.exterior_derivative(parts(key)[0]))

    def prod(k1: str, k2: str) -> dict[str, Rational]:
        _, l1, m1 = parts(k1)
        _, l2, m2 = parts(k2)
        sign, letters = geomodel.core._merge_sign(l1 + l2, sp._order)
        if not sign:
            return {}
        powers = dict(m1)
        for v, p in m2:
            powers[v] = powers.get(v, 0) + p
        return {_form_key(tuple(sorted(powers.items())), letters): sign}

    return DGAModel(
        space_name="deRham",
        component=ComponentData("deRham", sp.dimension, 0),
        basis=tuple(basis),
        degree_of=lambda key: len(parts(key)[1]),
        differential=diff,
        product=prod,
    )


def from_dga(
    dga: DGAModel,
    cutoff: Rational = 1,
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
            (1, 0, "0"): diff_op,
            (2, 0, "0"): prod_op,
        }
    )
    return FilteredAInfty(
        spaces={space.name: space},
        table=table,
        spectrum=spectrum_closure([], cutoff),
        cutoff=cutoff,
    )


def check_product_sign_convention(
    A: FilteredAInfty, dga: DGAModel
) -> list[dict]:
    """Conformance of the arity-2 values against the operation-sign
    convention, with the algebra product as the independent reference.

    A uniformly flipped twist is invisible to the relation checker
    (rescaling the product is a structure automorphism when no higher
    operations are stored), so this definitional check is what pins the
    convention; it returns the violating pairs.
    """
    violations = []
    key = (2, 0, "0")
    space = A.spaces[dga.space_name]
    mu = space.component.maslov_parity
    gens = [g for g, _ in space.basis]
    for g1, g2 in itertools.product(gens, repeat=2):
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
    lam = _rational(lam_min)
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
