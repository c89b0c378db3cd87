import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from ainfsign import geomodel
from ainfsign.ainfty import (
    Element,
    FilteredAInfty,
    HomSpace,
    OperationTable,
    StructureError,
    _parse_form_key,
    check_product_sign_convention,
    cube_torus_dga,
    deform,
    exterior_dga,
    from_dga,
    validate_degree_parity,
)
from ainfsign.novikov import NovikovElement, spectrum_closure
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
    dga = exterior_dga(2)
    A = from_dga(dga)
    x1 = Element.basis("ext", "e1")  # degree 1, shifted parity 0
    x2 = Element.basis("ext", "e1^e2")  # degree 2, shifted parity 1
    key = (1, Fraction(0), "0")
    sign, word = A.coderivation_insert(key, 1, [x1, x2])
    assert sign == 0 and len(word) == 2
    sign, _ = A.coderivation_insert(key, 2, [x2, x1])
    assert sign == 1  # moving past shifted degree 1
    with pytest.raises(StructureError):
        A.coderivation_insert(key, 3, [x1, x2])


def test_differential_insertion_sign_matches_shifted_prefix():
    """Inserting the differential at slot j must carry exactly the parity of
    the shifted degrees before the slot, computed here by hand."""
    dga = ce3()
    A = from_dga(dga)
    key = (1, Fraction(0), "0")
    rng = random.Random(17)
    gens = [g for g, _ in dga.basis]
    for _ in range(50):
        word = [Element.basis("ext", rng.choice(gens)) for _ in range(rng.randrange(1, 4))]
        for j in range(1, len(word) + 1):
            sign, _ = A.coderivation_insert(key, j, word)
            by_hand = sum(
                dga.degree_of(next(iter(el.coeffs))) - 1 for el in word[: j - 1]
            ) % 2
            assert sign == by_hand


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
    x = Element.basis("deRham", "t|")      # the coordinate function
    y = Element.basis("deRham", "1|dt")    # its differential
    assert A.relation_defect([x, y]).is_zero()


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


def test_flip_against_mock_route():
    """Cross-module conformance: the arity-2 operation of the embedding must
    match the signed wedge computed by the constant-map mock; the flipped
    rule is caught even though it still satisfies the relations."""
    from ainfsign.ainfty import _parse_form_key

    sp = geomodel.space(("t", "interval"), ("c", "circle"))
    dga = cube_torus_dga(sp)
    ident = geomodel.projection(sp, sp, {"t": "t", "c": "c"})
    mock = geomodel.MockModuli(sp, ident, (ident.as_smooth(), ident.as_smooth()))
    pairs = [("t|", "1|dt"), ("1|dt", "1|dc"), ("t|dt", "1|dc"), ("1|dc", "t|dt")]

    def mock_value(g1, g2):
        forms = (_parse_form_key(sp, g1), _parse_form_key(sp, g2))
        return geomodel.mock_operation(mock, (0, 0), forms)

    for flipped in (False, True):
        rule = (lambda d1, d2: (d1 + 1) % 2) if flipped else None
        A = from_dga(dga, sign_rule=rule)
        key = (2, Fraction(0), "0")
        agreement = all(
            _to_combo(mock_value(g1, g2))
            == {g: c.coefficient(0) for g, c in A.table.lookup(key, ("deRham", "deRham"), (g1, g2)).coeffs.items()}
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

    A = from_dga(dataclasses.replace(dga, product=product), cutoff=4)
    D = deform(A, Element("deRham", {"u|dv": T_coeff()}), 1)
    assert D.check_relations(2).passed
    assert A.check_relations(2).passed
    key = (2, Fraction(0), "0")
    for pair in set(calls):
        assert A.table.lookup(key, ("deRham",) * 2, pair) is D.table.lookup(
            key, ("deRham",) * 2, pair)
    assert calls and len(calls) == len(set(calls))


def test_homogeneity_is_checked_for_inputs_of_several_generators():
    A = from_dga(ce3())
    mixed = Element("ext", {"e1": T_coeff(e=0), "e1^e2": T_coeff(e=0)})
    with pytest.raises(StructureError, match="not shifted-homogeneous"):
        A.relation_defect([mixed])
    with pytest.raises(StructureError, match="not shifted-homogeneous"):
        A.coderivation_insert((1, Fraction(0), "0"), 1, [mixed])
    sum_ = Element("ext", {"e1": T_coeff(e=0), "e2": T_coeff(e=0)})
    assert A.coderivation_insert((1, Fraction(0), "0"), 1, [sum_])[0] == 0


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


def test_degree_of_reads_basis_then_degree_fn():
    dga = cube_torus_dga(geomodel.space(("u", "interval"), ("v", "interval")))
    comp = ComponentData("deRham", 2, 0)
    with_fn = HomSpace("deRham", comp, dga.basis, dga.degree_of)
    bare = HomSpace("deRham", comp, dga.basis)
    for gen, degree in dga.basis:
        assert with_fn.degree_of(gen) == bare.degree_of(gen) == degree
    assert with_fn.degree_of("u^5*v^3|du^dv") == 2  # beyond the sampled basis
    with pytest.raises(KeyError):
        bare.degree_of("u^5*v^3|du^dv")
    # the degree comes from the one parser of form keys, which parses each key once
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    assert _parse_form_key(sp, "u^5*v^3|du^dv") is _parse_form_key(sp, "u^5*v^3|du^dv")
    with pytest.raises(ValueError):
        dga.degree_of("w|dw")
    # the first listing of a generator wins, as in a scan of the basis
    assert HomSpace("s", comp, (("g", 1), ("g", 2))).degree_of("g") == 1


def test_keys_of_arity_indexes_sorted_keys():
    D = deform(interval2_structure(), Element("deRham", {"u|dv": T_coeff()}), 1)
    keys = D.table.keys()
    assert list(keys) == sorted(keys)
    for k in range(D.table.max_arity() + 2):
        assert D.table.keys_of_arity(k) == tuple(key for key in sorted(keys) if key[0] == k)
    assert D.table.keys_of_arity(1) and not D.table.keys_of_arity(D.table.max_arity() + 1)
