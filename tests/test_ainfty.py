import dataclasses
import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfsign import ainfty, geomodel, novikov, structio
from ainfsign.ainfty import (
    Element,
    FilteredAInfty,
    HomSpace,
    OperationTable,
    RelationReport,
    StructureError,
    _parse_form_key,
    check_product_sign_convention,
    cube_torus_dga,
    deform,
    exterior_dga,
    from_dga,
    validate_degree_parity,
)
from ainfsign.cli import PRESETS
from ainfsign.novikov import NovikovElement, spectrum_closure
from ainfsign.signs import koszul_prefix
from ainfsign.strata import ComponentData

CE_DIFFERENTIAL = {"e1": {"e2^e3": 1}, "e2": {"e1^e3": -1}, "e3": {"e1^e2": 1}}


def ce3():
    return exterior_dga(3, differential=CE_DIFFERENTIAL)


def T_coeff(q=1, e=1):
    return NovikovElement.monomial(q, e)


def test_exterior_dga_differential_squares_to_zero():
    dga = ce3()
    for gen, _ in dga.basis:
        dd: dict[str, Fraction] = {}
        for k1, c1 in dga.differential(gen).items():
            for k2, c2 in dga.differential(k1).items():
                dd[k2] = dd.get(k2, Fraction(0)) + c1 * c2
        assert all(c == 0 for c in dd.values()), (gen, dd)


def test_exterior_product_signs():
    dga = exterior_dga(3)
    assert dga.product("e2", "e1") == {"e1^e2": Fraction(-1)}
    assert dga.product("e1", "e2^e3") == {"e1^e2^e3": Fraction(1)}
    assert dga.product("e1", "e1") == {}


def test_zero_structure_has_zero_defect():
    comp = ComponentData("Z", 0, 0)
    A = FilteredAInfty(
        spaces={"Z": HomSpace("Z", comp, (("x", 0), ("y", 1)))},
        table=OperationTable(),
        spectrum=spectrum_closure([], 1),
        cutoff=Fraction(1),
    )
    report = A.check_relations(3)
    assert report.passed


def test_operation_energy_must_lie_in_spectrum():
    comp = ComponentData("Z", 0, 0)
    table = OperationTable(values={(1, Fraction(1, 3), "stray"): {}})
    with pytest.raises(StructureError):
        FilteredAInfty(
            spaces={"Z": HomSpace("Z", comp, (("x", 0),))},
            table=table,
            spectrum=spectrum_closure([Fraction(1, 2)], 1),
            cutoff=Fraction(1),
        )


def test_zero_energy_curvature_must_vanish():
    comp = ComponentData("Z", 0, 0)
    bad = OperationTable(
        values={(0, Fraction(0), "0"): {((), ()): Element.basis("Z", "x")}}
    )
    with pytest.raises(StructureError):
        FilteredAInfty(
            spaces={"Z": HomSpace("Z", comp, (("x", 0),))},
            table=bad,
            spectrum=spectrum_closure([], 1),
            cutoff=Fraction(1),
        )


def test_coderivation_insert_signs():
    """The Koszul prefix sign that the relation gives the inner operation
    inserted at slot j: m1(y) = z, and m2 sends (x, z) and (z, x) to w.
    Before y, x of shifted degree 1 flips the term; y, of shifted degree
    0, does not."""
    component = ComponentData("S", 0, 0)
    space = HomSpace("S", component, (("x", 2), ("y", 1), ("z", 2), ("w", 2)))
    w = Element.basis("S", "w")
    values = {(1, 0, "m"): {(("S",), ("y",)): Element.basis("S", "z")},
              (2, 0, "m"): {(("S", "S"), ("x", "z")): w, (("S", "S"), ("z", "x")): w}}
    A = FilteredAInfty({"S": space}, OperationTable(values), spectrum_closure([], 1), 1)
    generators = A.basis_generators()
    x, y = generators.index(("S", "x")), generators.index(("S", "y"))
    one = NovikovElement.one()
    for word, coeff in (((x, y), -one), ((y, x), one)):
        assert A._word_sums(word, A._splittings(2), generators) == {("S", "w"): coeff}
        assert bar_relation(A, [generators[i] for i in word]) == {("S", "w"): coeff}


def test_differential_insertion_sign_matches_shifted_prefix():
    """Inserting the differential at slot j must carry exactly the parity of
    the shifted degrees before the slot, computed here by hand."""
    dga = ce3()
    A = from_dga(dga)
    generators = A.basis_generators()
    rng = random.Random(17)
    for _ in range(50):
        word = tuple(rng.randrange(len(generators)) for _ in range(rng.randrange(1, 4)))
        k = len(word)
        basis = [Element.basis(*generators[i]) for i in word]
        by_hand = Element.zero()
        for j in range(1, k + 1):
            sign = sum(dga.degree_of(generators[i][1]) - 1 for i in word[: j - 1]) % 2
            inserted = [*basis[: j - 1], A.apply_operation(1, basis[j - 1 : j]), *basis[j:]]
            by_hand += A.apply_operation(k, inserted).scale(NovikovElement.monomial((-1) ** sign, 0))
        differential = [(inner, outer) for inner, outer in A._splittings(k) if inner[0] == 1]
        sums = A._word_sums(word, differential, generators)
        assert Element("ext", {g: c for (_, g), c in sums.items()}) == by_hand, word


def test_dga_embedding_relations_exterior():
    A = from_dga(exterior_dga(3))
    assert A.check_relations(4).passed


def test_dga_embedding_relations_with_differential():
    A = from_dga(ce3())
    assert A.check_relations(3).passed


def test_dga_embedding_relations_interval_circle():
    sp = geomodel.space(("t", "interval"), ("c", "circle"))
    A = from_dga(cube_torus_dga(sp, sample_poly_degree=2), cutoff=1)
    assert A.check_relations(3, exhaustive_threshold=2000, sample_size=300).passed


def test_worked_k2_defect_vanishes():
    sp = geomodel.space(("t", "interval"), ("c", "circle"))
    A = from_dga(cube_torus_dga(sp), cutoff=1)
    generators = A.basis_generators()
    x = ("deRham", "t|")      # the coordinate function
    y = ("deRham", "1|dt")    # its differential
    word = (generators.index(x), generators.index(y))
    assert not truncated(A, A._word_sums(word, A._splittings(2), generators))
    assert not truncated(A, bar_relation(A, [x, y]))


def test_sign_rule_oracle_pins_the_convention():
    """Brute force over affine-quadratic twist rules: on a 3-interval model
    the Leibniz-arity check kills every rule except the convention and its
    global flip; the definitional check then rejects the flip."""
    sp = geomodel.space(("u", "interval"), ("v", "interval"), ("w", "interval"))
    dga = cube_torus_dga(sp, sample_poly_degree=1)
    surviving = []
    for a, b, c, e in itertools.product((0, 1), repeat=4):
        rule = lambda d1, d2, a=a, b=b, c=c, e=e: (a * d1 + b * d2 + c * d1 * d2 + e) % 2
        A = from_dga(dga, cutoff=1, sign_rule=rule)
        if A.check_relations(2, exhaustive_threshold=1100).passed:
            surviving.append((a, b, c, e))
    assert surviving == [(1, 0, 0, 0), (1, 0, 0, 1)]
    flip = from_dga(dga, cutoff=1, sign_rule=lambda d1, d2: (d1 + 1) % 2)
    assert check_product_sign_convention(flip, dga)
    good = from_dga(dga, cutoff=1)
    assert not check_product_sign_convention(good, dga)


def test_wrong_sign_rule_fails_relations_with_witness():
    A = from_dga(ce3(), sign_rule=lambda d1, d2: d2 % 2)
    report = A.check_relations(3)
    assert not report.passed
    assert report.witness and report.witness["k"] in (2, 3)


@pytest.mark.parametrize("coords, beyond", [
    ((("t", "interval"), ("c", "circle")), ("t^3|dc",)),
    ((("u", "interval"), ("v", "interval")), ("u^3|dv", "u*v|du")),
], ids=["interval-circle", "interval2"])
def test_preset_product_is_the_wedge(coords, beyond):
    """The preset multiplies keys by one Koszul merge of their letters and a
    sum of their exponents; on every ordered pair of basis keys, and of keys
    beyond the basis, that is the wedge of the parsed forms."""
    sp = geomodel.space(*coords)
    dga = cube_torus_dga(sp)
    keys = [g for g, _ in dga.basis] + list(beyond)
    forms = {k: _parse_form_key(sp, k) for k in keys}
    for k, form in forms.items():
        assert dga.degree_of(k) == form.degree()
    for k1, k2 in itertools.product(keys, repeat=2):
        assert dga.product(k1, k2) == _to_combo(geomodel.wedge(forms[k1], forms[k2])), (k1, k2)


def test_flip_against_mock_route():
    """Cross-module conformance: on every ordered pair of basis keys, the
    arity-2 operation of the embedding must match the signed wedge computed
    by the constant-map mock; the flipped rule is caught even though it
    still satisfies the relations."""
    sp = geomodel.space(("t", "interval"), ("c", "circle"))
    dga = cube_torus_dga(sp)
    ident = geomodel.projection(sp, sp, {"t": "t", "c": "c"})
    mock = geomodel.CorrespondenceModel(ident, (ident.as_smooth(), ident.as_smooth()))
    pairs = list(itertools.product([g for g, _ in dga.basis], repeat=2))

    def mock_value(g1, g2):
        forms = (_parse_form_key(sp, g1), _parse_form_key(sp, g2))
        return geomodel.mock_operation(mock, (0, 0), forms)

    for flipped in (False, True):
        rule = (lambda d1, d2: (d1 + 1) % 2) if flipped else None
        A = from_dga(dga, sign_rule=rule)
        key = (2, Fraction(0), "0")
        agreement = all(
            _to_combo(mock_value(g1, g2))
            == {g: dict(c.terms).get(0, 0) for g, c in A.table.lookup(key, ("deRham", "deRham"), (g1, g2)).coeffs.items()}
            for g1, g2 in pairs
        )
        assert agreement != flipped


def _to_combo(form):
    from ainfsign.ainfty import _form_to_combo

    return _form_to_combo(form)


def test_flip_is_invisible_to_relations():
    # rescaling the product is a structure automorphism when nothing of
    # arity three or higher is stored, so the relation checker cannot see it
    A = from_dga(ce3(), sign_rule=lambda d1, d2: (d1 + 1) % 2)
    assert A.check_relations(3).passed


def test_degree_parity_of_stored_operations():
    """The 84 lookups below, stored in a table: every nonzero value raises
    the shifted degree by one, and a value of the wrong parity is caught."""
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    dga = cube_torus_dga(sp)
    A = from_dga(dga)
    gens = [g for g, _ in dga.basis]
    sample = [
        ((2, Fraction(0), "0"), (("deRham", "deRham"), (g1, g2)))
        for g1 in gens[:8]
        for g2 in gens[:8]
    ] + [((1, Fraction(0), "0"), (("deRham",), (g,))) for g in gens]
    values: dict = {}
    for key, tkey in sample:
        values.setdefault(key, {})[tkey] = A.table.lookup(key, *tkey)
    assert sum(len(entry) for entry in values.values()) == 84

    def stored(values):
        return FilteredAInfty(A.spaces, OperationTable(values=values), A.spectrum, A.cutoff)

    assert validate_degree_parity(stored(values)) == []
    d_key = (1, Fraction(0), "0")
    values[d_key][(("deRham",), ("u|",))] = Element.basis("deRham", "u|")
    assert len(validate_degree_parity(stored(values))) == 1


# --- deformation ------------------------------------------------------------


def interval2_structure(cutoff=Fraction(4)):
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    return from_dga(cube_torus_dga(sp, sample_poly_degree=1), cutoff=cutoff)


def test_deform_zero_is_identity():
    A = interval2_structure()
    D = deform(A, Element.zero(), 1)
    assert D.table.keys() == A.table.keys()
    assert D.curvature().is_zero()


def test_deform_rejects_bad_parity():
    A = interval2_structure()
    even_deg = Element("deRham", {"u|": T_coeff()})  # degree 0, odd shifted degree
    with pytest.raises(StructureError):
        deform(A, even_deg, 1)


def test_deform_rejects_low_valuation():
    A = interval2_structure()
    no_energy = Element("deRham", {"1|du": NovikovElement.one()})
    with pytest.raises(StructureError):
        deform(A, no_energy, 1)


def test_deform_produces_curvature_and_keeps_relations():
    A = interval2_structure()
    b = Element("deRham", {"u|dv": T_coeff()})
    D = deform(A, b, 1)
    curvature = D.curvature()
    # arity-0 output is T times the differential of b's form: T du^dv
    assert curvature == Element("deRham", {"1|du^dv": T_coeff()})
    report = D.check_relations(3, exhaustive_threshold=600, sample_size=150)
    assert report.passed, report.witness


def test_lookup_memo_matches_direct_fallback():
    A = interval2_structure()
    D = deform(A, Element("deRham", {"u|dv": T_coeff()}), 1)
    assert not D.curvature().is_zero()
    rng = random.Random(7)
    gens = D.basis_generators()
    keys = D.table.keys()
    for _ in range(60):
        key = rng.choice(keys)
        word = [rng.choice(gens) for _ in range(key[0])]
        spaces, tensor = tuple(s for s, _ in word), tuple(g for _, g in word)
        direct = D.table.fallbacks[key](spaces, tensor)
        direct = Element.zero() if direct is None else direct.normalized()
        assert D.table.lookup(key, spaces, tensor) == direct
        assert D.table.lookup(key, spaces, tensor) == direct  # served by the fallback's cache


def test_relation_values_are_frozen():
    key = (1, Fraction(0), "0")
    el = Element.basis("ext", "e1")
    entry = {(("ext",), ("e1",)): el}
    values = {key: entry}
    table = OperationTable(values=values)
    A = from_dga(exterior_dga(2), cutoff=1)
    for obj, attr in ((el, "space"), (el, "coeffs"), (table, "values"), (table, "fallbacks"),
                      (A, "table"), (A, "spaces"), (A, "cutoff")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)
    for mapping, item in ((el.coeffs, "e2"), (table.values, key),
                          (table.values[key], (("ext",), ("e2",))),
                          (A.table.fallbacks, key), (A.spaces, "other")):
        with pytest.raises(TypeError):
            mapping[item] = None
    # the table holds copies: editing what was passed in changes nothing
    entry[(("ext",), ("e1",))] = Element.basis("ext", "e2")
    values.clear()
    assert table.keys() == (key,)
    assert table.lookup(key, ("ext",), ("e1",)) == el


def test_element_is_canonical_when_built():
    assert Element("ext", {"e1": NovikovElement.zero()}) == Element.zero()
    assert Element("ext", {"e1": NovikovElement.zero()}).space == ""
    mixed = Element("ext", {"e1": T_coeff(), "e2": NovikovElement.zero()})
    assert mixed.coeffs == {"e1": T_coeff()}
    x = Element.basis("ext", "e1")
    assert x + x.scale(NovikovElement.monomial(-1, 0)) == Element.zero()
    assert x.normalized() is x


def assert_canonical(v: Element):
    assert v == Element(v.space, dict(v.coeffs))
    with pytest.raises(TypeError):
        v.coeffs["new"] = NovikovElement.one()
    assert all(v.coeffs.values())
    assert (v.space == "") == (not v.coeffs)


NOVIKOV = st.lists(st.tuples(st.sampled_from([0, Fraction(1, 2), 1, 2]),
                             st.sampled_from([-2, -1, 1, Fraction(1, 2)])),
                   max_size=3).map(NovikovElement.from_terms)
ELEMENTS = st.dictionaries(st.sampled_from(["a", "b", "c"]), NOVIKOV,
                           max_size=3).map(lambda coeffs: Element("V", coeffs))


@settings(max_examples=300, deadline=None)
@given(x=ELEMENTS, y=ELEMENTS, factor=NOVIKOV, cutoff=st.sampled_from([0, Fraction(1, 2), 1, 3]),
       gen=st.sampled_from(["a", "b"]))
def test_trusted_results_equal_validated_construction(x, y, factor, cutoff, gen):
    """Sums, scales, truncations and basis elements skip the validating
    constructor; each equals what that constructor builds from the same
    coefficients, and is canonical."""
    zero = NovikovElement.zero()
    results = [
        (x + y, Element("V", {g: x.coeffs.get(g, zero) + y.coeffs.get(g, zero)
                              for g in x.coeffs.keys() | y.coeffs.keys()})),
        (x.scale(factor), Element("V", {g: c * factor for g, c in x.coeffs.items()})),
        (x.truncate(cutoff), Element("V", {g: c.truncate(cutoff) for g, c in x.coeffs.items()})),
        (Element.basis("V", gen), Element("V", {gen: NovikovElement.one()})),
    ]
    for trusted, validated in results:
        assert trusted == validated
        assert_canonical(trusted)
    assert x.scale(zero) is Element.zero()


@pytest.mark.parametrize("preset", PRESETS)
def test_embedded_operation_values_are_canonical(preset):
    """Every m1 and m2 value of each preset's embedding, which the
    fallbacks build with the trusted constructor."""
    A = from_dga(PRESETS[preset](), 1)
    (space,) = A.spaces.values()
    gens = [g for g, _ in space.basis]
    values = [A.table.lookup((1, 0, "0"), (space.name,), (g,)) for g in gens]
    values += [A.table.lookup((2, 0, "0"), (space.name,) * 2, pair)
               for pair in itertools.product(gens, repeat=2)]
    assert any(v.coeffs for v in values) and any(not v.coeffs for v in values)
    for v in values:
        assert_canonical(v)


def test_deform_leaves_the_parent_untouched():
    key = (1, Fraction(0), "0")
    stored = {key: {(("ext",), ("e1",)): Element.basis("ext", "e2^e3")}}
    base = from_dga(ce3(), cutoff=4)
    A = FilteredAInfty(base.spaces, OperationTable(values=stored), base.spectrum, base.cutoff)
    assert deform(A, Element.zero(), 1) is A
    D = deform(A, Element("ext", {"e1": T_coeff()}), 1)
    D.check_relations(2)
    assert D.table.values == A.table.values == stored
    assert A.table.fallbacks == {} and D.table.fallbacks


def test_deformations_share_their_parent_values():
    """An inherited fallback value is computed once, for the parent and its
    deformation together, and both tables hand out the same object."""
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    dga = cube_torus_dga(sp, sample_poly_degree=1)
    calls = []

    def product(k1, k2):
        calls.append((k1, k2))
        return dga.product(k1, k2)

    swapped = ainfty.DGAModel(dga.space_name, dga.component, dga.basis, dga.degree_of,
                              dga.differential, product)
    A = from_dga(swapped, cutoff=4)
    D = deform(A, Element("deRham", {"u|dv": T_coeff()}), 1)
    assert D.check_relations(2).passed
    assert A.check_relations(2).passed
    key = (2, Fraction(0), "0")
    for pair in set(calls):
        assert A.table.lookup(key, ("deRham",) * 2, pair) is D.table.lookup(
            key, ("deRham",) * 2, pair)
    assert calls and len(calls) == len(set(calls))


def test_homogeneity_is_checked_for_inputs_of_several_generators():
    A = from_dga(ce3(), cutoff=2)
    mixed = Element("ext", {"e1": T_coeff(), "e1^e2": T_coeff()})
    with pytest.raises(StructureError, match="not shifted-homogeneous"):
        deform(A, mixed, 1)
    sum_ = Element("ext", {"e1": T_coeff(), "e2": T_coeff()})
    assert A.shifted_parity(sum_) == 0


def test_deform_energy_filtration():
    """Per stored class: the contribution to the output has valuation at
    least the sum of the input valuations plus the class energy."""
    A = interval2_structure()
    b = Element("deRham", {"u|dv": T_coeff(), "1|du": T_coeff(q=Fraction(1, 2), e=2)})
    D = deform(A, b, 1)
    rng = random.Random(3)
    gens = D.basis_generators()
    for _ in range(40):
        k = rng.randrange(0, 3)
        word = [
            Element.basis(*rng.choice(gens)).scale(
                NovikovElement.monomial(1, Fraction(rng.randrange(0, 3), 2))
            )
            for _ in range(k)
        ]
        total_val = sum((el.valuation() for el in word), Fraction(0))
        for key in D.table.keys_of_arity(k):
            value = D.apply_raw(key, word)
            if not value.is_zero():
                contribution = value.scale(NovikovElement.monomial(1, key[1]))
                assert contribution.valuation() >= total_val + key[1]


def test_from_dga_requires_parity_zero_component():
    dga = exterior_dga(2)
    odd = ComponentData("odd", 0, 1)
    bad = type(dga)(
        space_name=dga.space_name, component=odd, basis=dga.basis,
        degree_of=dga.degree_of, differential=dga.differential, product=dga.product,
    )
    with pytest.raises(StructureError):
        from_dga(bad)


def test_deformed_spectrum_is_enlarged():
    A = interval2_structure()
    b = Element("deRham", {"u|dv": T_coeff()})
    D = deform(A, b, 1)
    assert Fraction(1) in D.spectrum
    assert {key[1] for key in D.table.keys()} <= set(D.spectrum.closure)


def test_four_torus_cross_term_arithmetic():
    """The curvature expansion of an even-degree candidate contains the
    doubled cross term; the candidate itself is rejected by the parity
    precondition, so the arithmetic is checked through the raw operations."""
    A = from_dga(exterior_dga(4), cutoff=4)
    b_single = Element("ext", {"e1^e2": T_coeff()})
    b_cross = Element("ext", {"e1^e2": T_coeff(), "e3^e4": T_coeff()})
    for b in (b_single, b_cross):
        with pytest.raises(StructureError):
            deform(A, b, 1)

    def curvature_expansion(b):
        return A.apply_operation(1, [b]) + A.apply_operation(2, [b, b])

    assert curvature_expansion(b_single).is_zero()
    expansion = curvature_expansion(b_cross)
    assert expansion == Element("ext", {"e1^e2^e3^e4": NovikovElement.monomial(2, 2)})


def test_multiple_random_admissible_deformations():
    A = interval2_structure()
    rng = random.Random(7)
    odd_gens = [g for g, d in A.spaces["deRham"].basis if d % 2 == 1]
    curved = 0
    for _ in range(5):
        gens = rng.sample(odd_gens, k=2)
        b = Element(
            "deRham",
            {g: NovikovElement.monomial(Fraction(rng.choice([-2, -1, 1, 2])), 1) for g in gens},
        )
        D = deform(A, b, 1)
        curved += not D.curvature().is_zero()
        assert D.check_relations(2, exhaustive_threshold=300, sample_size=100).passed
    assert curved >= 1


def test_equal_elements_hash_equal():
    x = Element("ext", {"e1": T_coeff(), "e2": T_coeff(-1, 0)})
    y = Element("ext", {"e2": T_coeff(-1, 0), "e1": T_coeff()})
    assert x == y and hash(x) == hash(y)
    assert hash(Element.basis("x", "y")) == hash(Element("x", {"y": NovikovElement.one()}))
    memo = {x: "x", Element.zero(): "0"}
    assert memo[y] == "x"
    assert memo[Element("ext", {"e1": NovikovElement.zero()})] == "0"
    assert Element.zero() is Element.zero()


def test_degree_of_reads_basis_then_degree_fn(monkeypatch):
    parsed = []

    def counting(sp, key):
        parsed.append(key)
        return _parse_form_key(sp, key)

    monkeypatch.setattr(ainfty, "_parse_form_key", counting)
    dga = cube_torus_dga(geomodel.space(("u", "interval"), ("v", "interval")))
    comp = ComponentData("deRham", 2, 0)
    with_fn = HomSpace("deRham", comp, dga.basis, dga.degree_of)
    bare = HomSpace("deRham", comp, dga.basis)
    for gen, degree in dga.basis:
        assert with_fn.degree_of(gen) == bare.degree_of(gen) == degree
    assert with_fn.degree_of("u^5*v^3|du^dv") == 2  # beyond the sampled basis
    with pytest.raises(KeyError):
        bare.degree_of("u^5*v^3|du^dv")
    # the preset parses each key once, whatever reads its form
    dga.differential("u^5*v^3|du^dv")
    dga.product("u^5*v^3|du^dv", "1|")
    assert parsed.count("u^5*v^3|du^dv") == 1 and parsed.count("1|") == 1
    with pytest.raises(ValueError):
        dga.degree_of("w|dw")
    # a hom space lists each generator once
    with pytest.raises(StructureError, match="lists a generator twice"):
        HomSpace("s", comp, (("g", 1), ("g", 2)))


def test_keys_of_arity_indexes_sorted_keys():
    D = deform(interval2_structure(), Element("deRham", {"u|dv": T_coeff()}), 1)
    keys = D.table.keys()
    assert list(keys) == sorted(keys)
    for k in range(D.table.max_arity() + 2):
        assert D.table.keys_of_arity(k) == tuple(key for key in sorted(keys) if key[0] == k)
    assert D.table.keys_of_arity(1) and not D.table.keys_of_arity(D.table.max_arity() + 1)


def _deformed_interval2():
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    return deform(from_dga(cube_torus_dga(sp), cutoff=4), Element("deRham", {"u|dv": T_coeff()}), 1)


def _wrong_rule_exterior3_d():
    return from_dga(ce3(), sign_rule=lambda d1, d2: d2 % 2)


@pytest.mark.parametrize("make", [lambda: from_dga(exterior_dga(4)), _deformed_interval2,
                                  _wrong_rule_exterior3_d],
                         ids=["exterior4", "interval2-deformed", "exterior3-d-wrong-rule"])
def test_operations_and_defects_are_multilinear_on_basis_words(make):
    """Scaling a basis word's inputs by rationals scales both the operations
    and the relation defect by the product of the scalars: pi_1 D^2 on the
    scaled word is that product times the word's summed relation."""
    A = make()
    rng = random.Random(11)
    gens = A.basis_generators()
    nonzero_values = nonzero_defects = 0
    for k in range(4):
        for _ in range(25):
            chosen = [rng.choice(gens) for _ in range(k)]
            scalars = [Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.choice([1, 5, 7]))
                       for _ in chosen]
            word = [Element.basis(s, g) for s, g in chosen]
            scaled = [Element(s, {g: NovikovElement.monomial(q, 0)})
                      for (s, g), q in zip(chosen, scalars)]
            factor = NovikovElement.monomial(math.prod(scalars), 0)
            for key in A.table.keys_of_arity(k):
                value = A.apply_raw(key, word)
                assert A.apply_raw(key, scaled) == value.scale(factor)
                nonzero_values += not value.is_zero()
            indices = tuple(gens.index(x) for x in chosen)
            defect = truncated(A, A._word_sums(indices, A._splittings(k), gens))
            assert truncated(A, bar_relation(A, chosen, factor)) == \
                {slot: c * factor for slot, c in defect.items()}
            nonzero_defects += bool(defect)
    assert nonzero_values > 0
    # the corrupted structure compares nonzero defects, the others zero ones
    assert (nonzero_defects > 0) == (make is _wrong_rule_exterior3_d)


# --- int arithmetic -----------------------------------------------------------


@pytest.mark.parametrize("make, threshold", [
    (lambda: from_dga(exterior_dga(4)), 10_000),
    (lambda: deform(interval2_structure(),
                    Element("deRham", {"u|dv": novikov.parse("2*T")}), 1), 600),
], ids=["exterior4", "interval2-deformed"])
def test_relation_sweep_stays_on_ints(monkeypatch, make, threshold):
    """On integral data every energy and every Novikov term that the sweep
    looks up is an int, so no Fraction arithmetic runs."""
    A = make()
    lookup = OperationTable.lookup
    nonzero = 0

    def checked(self, key, spaces, gens):
        nonlocal nonzero
        value = lookup(self, key, spaces, gens)
        assert key[1].__class__ is int, key
        for c in value.coeffs.values():
            assert {n.__class__ for term in c.terms for n in term} <= {int}, (key, gens, value)
        nonzero += bool(value.coeffs)
        return value

    monkeypatch.setattr(OperationTable, "lookup", checked)
    report = A.check_relations(3, exhaustive_threshold=threshold, sample_size=150)
    assert report.passed and nonzero > 0


def test_operation_keys_store_energies_in_normal_form():
    x = Element.basis("Z", "x")
    table = OperationTable(
        values={(1, Fraction(0), "t"): {(("Z",), ("x",)): x},
                (1, Fraction(1, 2), "h"): {(("Z",), ("x",)): x}},
        fallbacks={(2, Fraction(2, 2), "f"): lambda spaces, gens: x},
    )
    assert [key[1].__class__ for key in table.keys()] == [int, Fraction, int]
    assert table.lookup((1, Fraction(0), "t"), ("Z",), ("x",)) == x
    assert table.lookup((1, 0, "t"), ("Z",), ("x",)) == x
    assert table.lookup((2, Fraction(1), "f"), ("Z", "Z"), ("x", "x")) == x


def test_structure_file_with_fractional_energies_round_trips(tmp_path):
    def op(energy, tag, coeff):
        return {"k": 1, "energy": energy, "tag": tag, "values": [
            {"inputs": [["ext", "e1"]], "output": {"space": "ext", "coeffs": {"e1": coeff}}}]}

    data = {
        "version": 1, "cutoff": "2", "spectrum_generators": ["1/2"],
        "components": [{"name": "ext", "dimension": 0, "maslov_parity": 0}],
        "spaces": [{"name": "ext", "component": "ext",
                    "basis": [{"gen": "1", "degree": 0}, {"gen": "e1", "degree": 1}]}],
        "operations": [op("0", "d", "2"), op("1/2", "h", "1/3*T"), op("1", "one", "-1")],
    }
    path = tmp_path / "structure.json"
    text = json.dumps(data, indent=1)
    path.write_text(text)
    A = structio.load_structure(path)
    assert json.dumps(structio.structure_to_json(A), indent=1) == text


# --- the relation sweep and the bar construction ------------------------------


def bar_d(A, tensor, length=None):
    """The coderivation D of the bar construction on ``tensor``, a map
    (word, energy) -> coefficient, where a word is a tuple of (space,
    generator) and the energy is the sum of the keys applied so far.  Each
    stored key of energy below the cutoff is applied at every position a of
    every word, signed by the parity of degree + mu - 1 summed over the
    inputs before a, each read from its ``HomSpace``.  With ``length``,
    only the output words of that length are formed.  Every term lands on
    its target, also where the sum there cancels."""
    out = {}
    for (word, energy), c in tensor.items():
        for key in A.table.keys():
            k, e, _ = key
            if e >= A.cutoff or length is not None and len(word) + 1 - k != length:
                continue
            coeff = c
            for a in range(len(word) + 1 - k):
                if a:
                    space, gen = A.spaces[word[a - 1][0]], word[a - 1][1]
                    if (space.degree_of(gen) + space.component.maslov_parity - 1) % 2:
                        coeff = -coeff
                block = word[a : a + k]
                value = A.table.lookup(key, tuple(s for s, _ in block),
                                       tuple(g for _, g in block))
                for h, v in value.coeffs.items():
                    target = (word[:a] + ((value.space, h),) + word[a + k :], energy + e)
                    term = v * coeff
                    out[target] = out[target] + term if target in out else term
    return out


def below_cutoff(A, tensor):
    """A tensor of words of length 1 as (space, generator) -> coefficient:
    each term times T^energy, summed over the terms whose energy is below
    the cutoff, before truncation."""
    out = {}
    for ((slot,), energy), c in tensor.items():
        if energy < A.cutoff:
            term = c * NovikovElement.monomial(1, energy)
            out[slot] = out[slot] + term if slot in out else term
    return out


def bar_relation(A, word, coeff=NovikovElement.one()):
    """pi_1 D^2 on ``coeff`` times ``word``, a list of (space, generator):
    (space, generator) -> coefficient, summed over the terms whose energy is
    below the cutoff, before truncation."""
    return below_cutoff(A, bar_d(A, bar_d(A, {(tuple(word), 0): coeff}), length=1))


def truncated(A, sums):
    """The nonzero part of summed relation terms below the cutoff."""
    return {slot: t for slot, c in sums.items() if (t := c.truncate(A.cutoff))}


def compare_with_bar(A, k_max):
    """Compare, on every word up to k_max, the relation terms that the sweep
    sums from the nonzero entries (unless a lookup raises there) and that
    ``_word_sums`` sums for the word alone with pi_1 D^2: the same targets,
    so the same spaces, and the same values once truncated.  Returns the
    words where they differ, and the number of defective words: those whose
    terms fall in two spaces or do not vanish once truncated."""
    generators, differ, defective = A.basis_generators(), [], 0
    for k in range(k_max + 1):
        plan = A._splittings(k)
        try:
            swept = A._relation_sums(k, plan, generators, {})
        except Exception:
            swept = None
        for word in itertools.product(range(len(generators)), repeat=k):
            bar = bar_relation(A, [generators[i] for i in word])
            expected = (bar.keys(), truncated(A, bar))
            summed = [A._word_sums(word, plan, generators)]
            if swept is not None:
                summed.append(swept.get(word, {}))
            if any((sums.keys(), truncated(A, sums)) != expected for sums in summed):
                differ.append(word)
            defective += len({space for space, _ in bar}) > 1 or bool(expected[1])
    return differ, defective


def bar_agrees(A, k_max):
    """The number of defective words up to k_max, after asserting that the
    summed relation terms equal pi_1 D^2 on every word."""
    differ, defective = compare_with_bar(A, k_max)
    assert differ == [], differ[:5]
    return defective


def word_by_word(A, k_max):
    """``check_relations`` as a plain loop over pi_1 D^2 on every word of
    every arity: a word whose terms fall in two spaces is an error, and the
    first word that does not vanish once truncated is the witness."""
    generators, checked = A.basis_generators(), 0
    for k in range(k_max + 1):
        for word in itertools.product(generators, repeat=k):
            inputs = list(word)
            try:
                terms = bar_relation(A, inputs)
            except StructureError as exc:
                raise StructureError(f"relation at the word {inputs}: {exc}") from exc
            spaces = sorted({space for space, _ in terms})
            if len(spaces) > 1:
                raise StructureError(f"relation at the word {inputs}: terms in spaces "
                                     + " and ".join(map(repr, spaces)))
            checked += 1
            defect = truncated(A, terms)
            if defect:
                value = Element(spaces[0], {g: c for (_, g), c in defect.items()})
                return RelationReport(checked, {"k": k, "inputs": inputs,
                                                "defect": str(value)}, [])
    return RelationReport(checked, None, [])


def _outcome(run):
    try:
        return run()
    except StructureError as exc:
        return str(exc)


def assert_reports_like_the_word_loop(A, k_max):
    everything = len(A.basis_generators()) ** k_max
    assert _outcome(lambda: A.check_relations(k_max, exhaustive_threshold=everything)) == \
        _outcome(lambda: word_by_word(A, k_max))


INTERVAL2 = geomodel.space(("u", "interval"), ("v", "interval"))
# the candidates of `deform-check --preset interval2 --lam-min 1`
INTERVAL2_ODD = [g for g, d in cube_torus_dga(INTERVAL2).basis if d % 2 == 1]


def _interval2_deformed(gen, sign_rule=None):
    A = from_dga(cube_torus_dga(INTERVAL2), cutoff=4, sign_rule=sign_rule)
    return deform(A, Element("deRham", {gen: T_coeff()}), 1)


def _exterior3_d_with_m3():
    """exterior3-d plus a random sparse m3 at energy 1/2, below a cutoff of
    2: arity-3 keys are then inner and outer operations at once (k = 5)."""
    A = from_dga(ce3(), cutoff=2)
    rng = random.Random(5)
    gens = [g for g, _ in A.spaces["ext"].basis]
    values = {}
    for _ in range(12):
        inputs = tuple(rng.choice(gens) for _ in range(3))
        coeff = NovikovElement.monomial(rng.choice([-2, -1, 1, 3]), rng.choice([0, Fraction(1, 2)]))
        values[(("ext",) * 3, inputs)] = Element("ext", {rng.choice(gens): coeff})
    table = OperationTable({(3, Fraction(1, 2), "h"): values}, A.table.fallbacks)
    return FilteredAInfty(A.spaces, table, spectrum_closure([Fraction(1, 2)], 2), 2)


def _mixed_space_structure(mixed_first):
    """m1 on spaces A = {a1, a2, a3} and B = {b}, with a3 -> b, below a
    cutoff of 1.  The word whose m1 is T*(a2 + a3) has relation terms in A
    and in B: they truncate to zero, but every term counts before
    truncation, so the word raises.  The word whose m1 is itself (a1 or a2) is
    defective.  ``mixed_first`` puts the mixed word first in word order."""
    plus = Element("A", {"a2": T_coeff(), "a3": T_coeff()})
    m1 = {"a1": plus, "a2": Element.basis("A", "a2")} if mixed_first else \
        {"a1": Element.basis("A", "a1"), "a2": plus}
    m1["a3"] = Element.basis("B", "b")
    component = ComponentData("R", 0, 0)
    spaces = {"A": HomSpace("A", component, (("a1", 0), ("a2", 0), ("a3", 0))),
              "B": HomSpace("B", component, (("b", 0),))}
    values = {(1, 0, "m"): {(("A",), (g,)): value for g, value in m1.items()}}
    return FilteredAInfty(spaces, OperationTable(values), spectrum_closure([], 1), 1)


def _vanishing_below_the_cutoff():
    """m1(x) = T*x below a cutoff of 2: the relation's only term, T^2*x, is
    truncated."""
    spaces = {"A": HomSpace("A", ComponentData("R", 0, 0), (("x", 0),))}
    values = {(1, 0, "m"): {(("A",), ("x",)): Element("A", {"x": T_coeff()})}}
    return FilteredAInfty(spaces, OperationTable(values), spectrum_closure([], 2), 2)


def _raising_fallback():
    """exterior3-d whose differential raises on e2^e3: every word through
    that value is an error."""
    A = from_dga(ce3())
    d = A.table.fallbacks[(1, 0, "0")]

    def raising(spaces, gens):
        if gens == ("e2^e3",):
            raise StructureError("no value")
        return d(spaces, gens)

    table = OperationTable(fallbacks={**A.table.fallbacks, (1, 0, "0"): raising})
    return FilteredAInfty(A.spaces, table, A.spectrum, A.cutoff)


@pytest.mark.parametrize("make, k_max, defective", [
    (lambda: from_dga(exterior_dga(4)), 3, False),
    (lambda: from_dga(ce3()), 4, False),
    (lambda: from_dga(cube_torus_dga(geomodel.space(("t", "interval"), ("c", "circle")))),
     3, False),
    (_wrong_rule_exterior3_d, 3, True),
    (lambda: from_dga(exterior_dga(4), sign_rule=lambda d1, d2: 0), 3, True),
    (lambda: _interval2_deformed("u|dv", sign_rule=lambda d1, d2: d2 % 2), 2, True),
    (_exterior3_d_with_m3, 5, True),
    (_vanishing_below_the_cutoff, 3, False),
    (lambda: _mixed_space_structure(True), 1, True),
    (lambda: _mixed_space_structure(False), 1, True),
], ids=["exterior4", "exterior3-d", "interval-circle", "exterior3-d-wrong-rule",
        "exterior4-wrong-rule", "interval2-deformed-wrong-rule", "exterior3-d-m3",
        "vanishing-below-the-cutoff", "mixed-first", "mixed-last"])
def test_sweep_defects_equal_relation_defect_on_every_word(make, k_max, defective):
    """The relation defect of every word, summed by the sweep and by
    ``_word_sums``, is pi_1 D^2 on the bar construction.  interval-circle's
    products leave the listed basis, so its outer keys are evaluated on
    generators that are not basis words."""
    assert (bar_agrees(make(), k_max) > 0) == defective


@pytest.mark.parametrize("gen", INTERVAL2_ODD)
def test_sweep_agrees_on_each_interval2_deformation(gen):
    assert bar_agrees(_interval2_deformed(gen), 2) == 0


def bar_deformed(A, b, word):
    """pi_1 D(e^b x_1 e^b ... x_k e^b) on the parent ``A``, for ``word`` =
    x_1 ... x_k, a list of (space, generator), and e^b = 1 + b + b b + ...:
    (space, generator) -> coefficient, summed over the terms whose energy
    is below the cutoff, before truncation.  Each copy of b is expanded
    into its generators, with their coefficients.  A word longer than the
    parent's largest arity has no arity-1 image under D, so the copies of b
    stop there."""
    tensor = {}
    for length in range(len(word), A.table.max_arity() + 1):
        for places in itertools.combinations(range(length), len(word)):
            slots = [[((b.space, g), c) for g, c in b.coeffs.items()]] * length
            for place, x in zip(places, word):
                slots[place] = [(x, NovikovElement.one())]
            for choice in itertools.product(*slots):
                key = (tuple([x for x, _ in choice]), 0)
                coeff = functools.reduce(operator.mul, [c for _, c in choice],
                                         NovikovElement.one())
                tensor[key] = tensor[key] + coeff if key in tensor else coeff
    return below_cutoff(A, bar_d(A, tensor, length=1))


def operation_terms(A, word):
    """The arity-k operation of ``A`` on ``word``, a list of k (space,
    generator): (space, generator) -> the sum of T^energy times each
    key's value, over the arity-k keys below the cutoff, before
    truncation."""
    spaces, gens = tuple([s for s, _ in word]), tuple([g for _, g in word])
    out = {}
    for key in A.table.keys_of_arity(len(word)):
        if key[1] < A.cutoff:
            value = A.table.lookup(key, spaces, gens)
            for h, v in value.coeffs.items():
                slot, term = (value.space, h), v * NovikovElement.monomial(1, key[1])
                out[slot] = out[slot] + term if slot in out else term
    return out


def deformation_differs_from_the_bar_route(gen, k_max=2):
    """The basis words of arity <= k_max on which the operations of
    deform(A, T*gen, 1) differ from pi_1 D(e^b x_1 e^b ... x_k e^b) on the
    parent A, the interval2 preset below a cutoff of 4, once truncated."""
    A = from_dga(cube_torus_dga(INTERVAL2), cutoff=4)
    b = Element("deRham", {gen: T_coeff()})
    D = deform(A, b, 1)
    generators = A.basis_generators()
    return [word for k in range(k_max + 1) for word in itertools.product(generators, repeat=k)
            if truncated(D, operation_terms(D, word)) != truncated(A, bar_deformed(A, b, word))]


# the deformations of `deform-check --preset interval2 --lam-min 1`, and the
# one of `--b '{"u^3|dv": "T"}'`, whose generator is beyond the listed basis
INTERVAL2_DEFORMATIONS = INTERVAL2_ODD + ["u^3|dv"]


@pytest.mark.parametrize("gen", INTERVAL2_DEFORMATIONS)
def test_deformed_operations_are_the_bar_route_on_the_parent(gen):
    """m^b_k(x) = pi_1 D(e^b x_1 e^b ... x_k e^b): each operation of the
    deformation, on every basis word of arity <= 2, is the parent's
    coderivation on the word with every insertion of b, computed without
    ``deform``, ``apply_operation`` or a fallback of the deformation."""
    assert deformation_differs_from_the_bar_route(gen) == []


@pytest.mark.parametrize("mutant, caught", [("shift-by-(n-1)lam", 5), ("skip-a-composition", 11)])
def test_deform_mutants_fail_against_the_bar_route(monkeypatch, mutant, caught):
    """On interval2 the two insertions of b into m2 cancel by graded
    commutativity, so a deformation adds only its curvature T*db, nonzero
    for 4 of the README's 10 and for u^3|dv.  A deformation whose
    n-insertion piece is shifted down by (n-1)*lam instead of n*lam differs
    from the bar route there; one that leaves out a placement of the
    copies of b differs for all 11."""
    if mutant == "shift-by-(n-1)lam":
        shift = Element.shift
        monkeypatch.setattr(Element, "shift", lambda self, delta: shift(self, delta + 1))
    else:  # every placement but the one with all copies of b last
        monkeypatch.setattr(ainfty, "_compositions", lambda total, slots: [
            split for split in itertools.product(range(total + 1), repeat=slots)
            if sum(split) == total][1:])
    differ = [gen for gen in INTERVAL2_DEFORMATIONS
              if deformation_differs_from_the_bar_route(gen, k_max=1)]
    assert len(differ) == caught, differ


@pytest.mark.parametrize("mutant", ["plan-skips-inner-arity-3", "koszul-flipped-at-slot-3"])
def test_sweep_mutants_fail_against_the_bar_route(monkeypatch, mutant):
    """A fault that the sweep and ``_word_sums`` share, so that no
    comparison of the two can see it, makes both differ from pi_1 D^2 on
    exterior3-d with a stored m3, at k = 4: a splitting plan without the
    inner keys of arity 3 or more, and ``koszul_prefix`` flipped at slot 3
    or more."""
    if mutant == "plan-skips-inner-arity-3":
        splittings = FilteredAInfty._splittings
        monkeypatch.setattr(FilteredAInfty, "_splittings", lambda self, k: [
            (inner, outer) for inner, outer in splittings(self, k) if inner[0] < 3])
    else:
        monkeypatch.setattr(ainfty, "koszul_prefix",
                            lambda degs, mus, j: koszul_prefix(degs, mus, j) ^ (j >= 3))
    differ, _ = compare_with_bar(_exterior3_d_with_m3(), 4)
    assert differ


@pytest.mark.parametrize("make, k_max", [
    (_wrong_rule_exterior3_d, 3),
    (lambda: from_dga(exterior_dga(4), sign_rule=lambda d1, d2: 0), 3),
    (lambda: _interval2_deformed("u|dv", sign_rule=lambda d1, d2: d2 % 2), 2),
    (_exterior3_d_with_m3, 5),
    (lambda: _mixed_space_structure(True), 1),
    (lambda: _mixed_space_structure(False), 1),
    (_raising_fallback, 2),
], ids=["exterior3-d-wrong-rule", "exterior4-wrong-rule", "interval2-deformed-wrong-rule",
        "exterior3-d-m3", "mixed-first", "mixed-last", "raising-fallback"])
def test_failing_reports_equal_the_word_loop(make, k_max):
    assert_reports_like_the_word_loop(make(), k_max)


@pytest.mark.parametrize("seed", range(6))
def test_sampled_words_are_seeded_choices_of_the_generators(seed):
    """exterior3-d with the wrong rule, arity 2 sampled (64 words, more than
    the threshold 8 and the sample 10): the words are drawn input by input
    with ``random.Random(seed).choice`` over ``basis_generators()``, after
    the 1 + 8 enumerated words of arities 0 and 1."""
    A = _wrong_rule_exterior3_d()
    generators = A.basis_generators()
    rng, checked, witness = random.Random(seed), 1 + 8, None
    for _ in range(10):
        inputs = [rng.choice(generators) for _ in range(2)]
        checked += 1
        defect = truncated(A, bar_relation(A, inputs))
        if defect:
            value = Element("ext", {g: c for (_, g), c in defect.items()})
            witness = {"k": 2, "inputs": inputs, "defect": str(value)}
            break
    report = A.check_relations(2, seed=seed, exhaustive_threshold=8, sample_size=10)
    assert report == RelationReport(checked, witness, [2])


def test_mixed_space_word_raises_only_when_it_comes_first():
    first, last = _mixed_space_structure(True), _mixed_space_structure(False)
    with pytest.raises(StructureError, match=r"relation at the word \[\('A', 'a1'\)\]"):
        first.check_relations(1)
    report = last.check_relations(1)
    assert not report.passed and report.witness["inputs"] == [("A", "a1")]
    assert report.checked == 2  # the empty word, then (a1)


@pytest.mark.parametrize("make, k_max", [
    (lambda: from_dga(ce3()), 3),
    (lambda: _interval2_deformed("u|dv"), 2),
    (_vanishing_below_the_cutoff, 2),
], ids=["exterior3-d", "interval2-deformed", "vanishing-below-the-cutoff"])
def test_sweep_looks_up_what_the_word_loop_looks_up(monkeypatch, make, k_max):
    """The sweep evaluates no value, fallbacks included, that ``_word_sums``
    on every word of a reached arity does not, and none fewer; each run gets
    a fresh structure, so that the fallbacks' caches hide nothing.
    Passing, it calls ``_word_sums`` on no word."""
    lookup, word_sums = OperationTable.lookup, FilteredAInfty._word_sums
    seen: list[set] = []
    word_calls = []

    def recording(self, key, spaces, gens):
        seen[-1].add((key, spaces, gens))
        return lookup(self, key, spaces, gens)

    def counting(self, word, plan, generators):
        word_calls.append(word)
        return word_sums(self, word, plan, generators)

    monkeypatch.setattr(OperationTable, "lookup", recording)
    seen.append(set())
    with monkeypatch.context() as patch:
        patch.setattr(FilteredAInfty, "_word_sums", counting)
        assert make().check_relations(k_max).passed
    assert word_calls == []
    seen.append(set())
    A = make()
    generators = A.basis_generators()
    for k in range(k_max + 1):
        if plan := A._splittings(k):
            for word in itertools.product(range(len(generators)), repeat=k):
                assert not truncated(A, A._word_sums(word, plan, generators))
    assert seen[0] == seen[1] and seen[0]


@st.composite
def stored_structures(draw):
    """Sparse stored operations of arities 0 to 3 at energies 0, 1/2 and 1
    on one or two spaces of one or two generators, with outputs in either
    space."""
    spaces = {}
    for name in ("X", "Y")[: draw(st.integers(1, 2))]:
        component = ComponentData(name, 0, draw(st.integers(0, 1)))
        basis = tuple((f"{name.lower()}{i}", draw(st.integers(0, 2)))
                      for i in range(draw(st.integers(1, 2))))
        spaces[name] = HomSpace(name, component, basis)
    points = [(s, g) for s, space in spaces.items() for g, _ in space.basis]
    values: dict = {}
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(0, 3))
        energy = draw(st.sampled_from([Fraction(1, 2), 1] if k == 0 else [0, Fraction(1, 2), 1]))
        inputs = [draw(st.sampled_from(points)) for _ in range(k)]
        out = draw(st.sampled_from(list(spaces)))
        gens = draw(st.sets(st.sampled_from([g for g, _ in spaces[out].basis]), min_size=1))
        coeffs = {g: NovikovElement.monomial(draw(st.sampled_from([-2, -1, 1, 3])),
                                             draw(st.sampled_from([0, Fraction(1, 2)])))
                  for g in sorted(gens)}
        key = (k, energy, draw(st.sampled_from("ab")))
        tensor = (tuple(s for s, _ in inputs), tuple(g for _, g in inputs))
        values.setdefault(key, {})[tensor] = Element(out, coeffs)
    return FilteredAInfty(spaces, OperationTable(values),
                          spectrum_closure([Fraction(1, 2)], 2), 2)


@settings(max_examples=60, deadline=None)
@given(stored_structures())
def test_sweep_agrees_on_random_stored_structures(A):
    bar_agrees(A, 3)
    assert_reports_like_the_word_loop(A, 3)
