import itertools
import random
from fractions import Fraction

import pytest

from ainfsign import signs
from ainfsign.novikov import spectrum_closure
from ainfsign.strata import (
    BClass,
    BoundaryStratum,
    ComponentData,
    ModuliDescriptor,
    codim1_parity_consistent,
    composition_terms,
    enumerate_strata,
    match_composition_terms,
)

R = ComponentData("R", 1, 0)
NODE = ComponentData("N", 0, 1)


def parent_of(k, energy, inputs=None, out=R, tag="B"):
    return ModuliDescriptor(BClass(Fraction(energy), tag), out, tuple(inputs or [R] * k))


def brute_force_indices(parent, spectrum, nodes):
    """Independent walk over all admissible index tuples: energy split
    first, then node, then arity split, then slot."""
    out = []
    members = list(spectrum.closure)
    for e_outer in members:
        e_inner = parent.b.energy - e_outer
        if e_inner < 0 or e_inner not in spectrum:
            continue
        for node in nodes:
            for k_outer in range(1, parent.k + 2):
                k_inner = parent.k + 1 - k_outer
                if k_inner < 0:
                    continue
                if (k_outer == 1 and e_outer == 0) or (k_inner == 1 and e_inner == 0):
                    continue
                for j in range(1, k_outer + 1):
                    out.append((j, k_outer, e_outer, k_inner, e_inner, node.name))
    return sorted(out)


def test_enumeration_matches_brute_force():
    rng = random.Random(1)
    for _ in range(20):
        k = rng.randrange(1, 5)
        spectrum = spectrum_closure([Fraction(1, 2)], Fraction(rng.randrange(1, 4)))
        energy = rng.choice(list(spectrum.closure))
        nodes = [R, NODE][: rng.randrange(1, 3)]
        parent = parent_of(k, energy)
        strata = enumerate_strata(parent, spectrum, nodes)
        assert sorted(s.index() for s in strata) == brute_force_indices(parent, spectrum, nodes)


def test_k1_energy_level_example():
    spectrum = spectrum_closure([1], 3)
    parent = parent_of(1, 1)
    strata = enumerate_strata(parent, spectrum, [R])
    assert [s.index()[:5] for s in strata] == [
        (1, 2, Fraction(1), 0, Fraction(0)),
        (1, 2, Fraction(0), 0, Fraction(1)),
        (2, 2, Fraction(1), 0, Fraction(0)),
        (2, 2, Fraction(0), 0, Fraction(1)),
    ]
    assert [s.vanishes for s in strata] == [True, False, True, False]


def test_k2_zero_energy_all_strata_vanish():
    # at zero energy the only admissible splittings insert the arity-0
    # operation, and that operation is zero by definition
    spectrum = spectrum_closure([], 1)
    strata = enumerate_strata(parent_of(2, 0), spectrum, [R])
    assert [(s.j, s.outer.k, s.inner.k) for s in strata] == [(1, 3, 0), (2, 3, 0), (3, 3, 0)]
    assert all(s.vanishes for s in strata)
    assert [s for s in strata if not s.vanishes] == []


def test_k3_zero_energy_count():
    # arity splits (k_outer, k_inner) of 4 excluding the differential pairs:
    # k_inner in {0, 2} only, giving 4 + 2 slots
    spectrum = spectrum_closure([], 1)
    strata = enumerate_strata(parent_of(3, 0), spectrum, [R])
    assert len(strata) == 6
    assert all(not s.vanishes or s.inner.k == 0 for s in strata)


def test_exclusion_rule():
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    for energy in spectrum.closure:
        for s in enumerate_strata(parent_of(3, energy), spectrum, [R, NODE]):
            assert not (s.outer.k == 1 and s.outer.b.energy == 0)
            assert not (s.inner.k == 1 and s.inner.b.energy == 0)


def test_enumeration_deterministic_and_duplicate_free():
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    parent = parent_of(3, 1, inputs=[R, NODE, R])
    once = enumerate_strata(parent, spectrum, [R, NODE])
    twice = enumerate_strata(parent, spectrum, [R, NODE])
    assert [s.index() for s in once] == [s.index() for s in twice]
    assert len({s.index() for s in once}) == len(once)
    # ordering contract: slot, then inner arity, then inner energy
    keys = [(s.j, s.inner.k, s.inner.b.energy, s.node.name) for s in once]
    assert keys == sorted(keys)


def test_energy_outside_spectrum_rejected():
    spectrum = spectrum_closure([1], 2)
    with pytest.raises(ValueError):
        enumerate_strata(parent_of(2, Fraction(1, 3)), spectrum, [R])


def test_sign_matches_direct_context():
    """Each stratum's sign is the boundary sign of a context built here from
    the enumerated parent, not from the stratum's rebuilt one."""
    cases = [
        (parent_of(2, 0), spectrum_closure([], 1), [R]),
        # mixed Maslov parities on the inputs, the output and the nodes
        (parent_of(3, 1, inputs=[R, NODE, R], out=NODE),
         spectrum_closure([Fraction(1, 2)], 2), [R, NODE]),
    ]
    for parent, spectrum, nodes in cases:
        mus = tuple(c.maslov_parity for c in parent.inputs)
        for s in enumerate_strata(parent, spectrum, nodes):
            c = signs.SignContext(s.j, s.inner.k, (0,) * parent.k, mus, s.node.maslov_parity,
                                  parent.output.maslov_parity, parent.output.dimension)
            assert s.sign == signs.boundary_sign(c)


def test_codim1_parity_consistency():
    rng = random.Random(5)
    components = [
        ComponentData("A", 0, 0), ComponentData("B", 1, 1),
        ComponentData("C", 2, 0), ComponentData("D", 1, 0),
    ]
    for _ in range(30):
        k = rng.randrange(1, 5)
        spectrum = spectrum_closure([Fraction(1, 2)], 2)
        parent = ModuliDescriptor(
            BClass(rng.choice(list(spectrum.closure)), "B"),
            rng.choice(components), tuple(rng.choice(components) for _ in range(k)),
        )
        for s in enumerate_strata(parent, spectrum, components[:2]):
            assert codim1_parity_consistent(s)


def test_matching_perfect_small():
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    for parent, nodes in ((parent_of(2, 0), [R]), (parent_of(3, 1), [R, NODE])):
        report = match_composition_terms(enumerate_strata(parent, spectrum, nodes),
                                         composition_terms(parent, spectrum, nodes))
        assert report.perfect and len(report.matched) > 0


def test_matching_detects_dropped_stratum():
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    parent = parent_of(3, 1)
    report = match_composition_terms(enumerate_strata(parent, spectrum, [R])[1:],
                                     composition_terms(parent, spectrum, [R]))
    assert not report.perfect
    assert len(report.unmatched_terms) == 1


def test_composition_terms_independent_order():
    """The two enumerations walk their indices differently but agree as
    multisets."""
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    parent = parent_of(4, Fraction(3, 2))
    terms = composition_terms(parent, spectrum, [R])
    strata = [s.index() for s in enumerate_strata(parent, spectrum, [R])]
    assert sorted(terms) == sorted(strata)
    assert terms != strata  # genuinely different walk


def test_stratum_invariant_validation():
    inner = ModuliDescriptor(BClass(1, "i"), NODE, (R,))
    outer = ModuliDescriptor(BClass(0, "o"), R, (NODE, R))
    s = BoundaryStratum(1, outer, inner)
    assert s.node == NODE and outer.k == 2
    assert s.parent() == ModuliDescriptor(BClass(1, "parent"), R, (R, R))
    with pytest.raises(ValueError):  # slot 2 holds R, not the node
        BoundaryStratum(2, outer, inner)
    with pytest.raises(ValueError):  # slot outside the outer arity
        BoundaryStratum(3, outer, inner)
    with pytest.raises(ValueError):
        BoundaryStratum(1, ModuliDescriptor(BClass(0, "o"), R, (NODE,)), inner)


def test_descriptor_json_round_trip_fields():
    parent = parent_of(2, Fraction(1, 2))
    data = parent.to_json()
    assert data == {
        "k": 2, "energy": "1/2", "tag": "B", "output": "R", "inputs": ["R", "R"],
    }
