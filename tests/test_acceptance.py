"""Acceptance suite: every criterion is exact (zero tolerance) and seeded.

Each test prints one ``[PASS]``/``[FAIL]`` line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ainfsign import geomodel, prover, signs
from ainfsign.ainfty import (
    Element,
    check_product_sign_convention,
    cube_torus_dga,
    deform,
    exterior_dga,
    from_dga,
)
from ainfsign.f2poly import F2Poly, anf_equivalent
from ainfsign.geomodel import (
    check_pushpull_identities,
    random_mock_instance,
    verify_base_change,
    verify_composition,
    verify_corr_stokes,
    verify_functoriality,
    verify_projection_formula,
    verify_pushpull,
    verify_stokes,
)
from ainfsign.novikov import NovikovElement, spectrum_closure
from ainfsign.strata import (
    BClass,
    ComponentData,
    ModuliDescriptor,
    codim1_parity_consistent,
    composition_terms,
    enumerate_strata,
    match_composition_terms,
)

from test_novikov import random_element
from test_prover import symbolic_context


def report(criterion: str, passed: bool, started: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{extra} [{time.perf_counter() - started:.1f}s]")
    assert passed, criterion


def test_criterion_1_master_sign_identity():
    """ANF of the master combination is exactly zero for every instance with
    k <= 7; exhaustive truth tables over all parity assignments cross-check
    every one of them."""
    started = time.perf_counter()
    checked = 0
    for k, j, k_inner in prover.instances(7):
        rep = prover.prove_identity("master", symbolic_context(k, j, k_inner), truth_table=True)
        assert rep.proved, rep
        checked += 1
    report("criterion-1 master sign identity", checked == 119, started,
           f"{checked} instances, truth tables through k=7")


def test_criterion_2_proof_decompositions():
    started = time.perf_counter()
    checked = 0
    for k, j, k_inner in prover.instances(6):
        ctx = symbolic_context(k, j, k_inner)
        assert prover.prove_identity("boundary-decomposition", ctx).proved
        assert prover.prove_identity("composition-decomposition", ctx).proved
        checked += 1
    report("criterion-2 proof decompositions", checked == 83, started,
           f"{checked} instances, both decompositions")


def test_criterion_3_differential_insertion_congruence():
    started = time.perf_counter()
    checked = 0
    for k in range(1, 7):
        for j in range(1, k + 1):
            assert prover.prove_differential_insertion(k, j, prover._parity_variables(k)).proved
            checked += 1
    report("criterion-3 differential insertion congruence", checked == 21, started,
           f"{checked} (k, j) instances")


def test_criterion_4_formal_theorem_replay():
    started = time.perf_counter()
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    assert len(spectrum.closure) == 4
    pairs = 0
    for k in range(1, 6):
        for rep in prover.prove_relation_cancellation(k, spectrum):
            assert rep.cancels, rep
            pairs += len(rep.pairs)
    # a single injected sign flip is caught and named
    payload = (1, 3, Fraction(0), 1, Fraction(1, 2))
    mutated = prover.prove_relation_cancellation(3, spectrum, mutate=(prover.BDRY, payload))
    named = [
        entry["term"]
        for rep in mutated
        if not rep.cancels
        for entry in rep.residual
    ]
    report("criterion-4 formal theorem replay", (prover.BDRY, payload) in named,
           started, f"{pairs} cancelled pairs over 4 energy levels, mutation named")


def test_criterion_5_pushpull_calculus():
    started = time.perf_counter()
    trials = 500
    results = [
        verify_projection_formula(trials, seed=101),
        verify_functoriality(trials, seed=102),
        verify_base_change(trials, seed=103),
        verify_stokes(trials, seed=104),
        verify_corr_stokes(trials, seed=105),
        verify_composition(trials, seed=106),
    ]
    for result in results:
        assert result.passed, (result.name, result.witness)
        assert result.stats["trials"] == trials
    stokes = results[3].stats["with_boundary"]
    corr_stokes = results[4].stats["with_boundary"]
    report(
        "criterion-5 exact push-pull calculus", stokes >= 200 and corr_stokes >= 200,
        started, f"6 x {trials} instances, boundary coverage {stokes}/{corr_stokes}",
    )


def test_criterion_6_dga_embeddings():
    started = time.perf_counter()
    ext4 = from_dga(exterior_dga(4), cutoff=1)
    rep4 = ext4.check_relations(4, seed=601)
    assert rep4.passed, rep4

    sp = geomodel.space(("t", "interval"), ("c", "circle"))
    dga = cube_torus_dga(sp, sample_poly_degree=2)
    model = from_dga(dga, cutoff=1)
    rep_model = model.check_relations(4, seed=602)
    assert rep_model.passed, rep_model

    flipped = from_dga(dga, cutoff=1, sign_rule=lambda d1, d2: (d1 + 1) % 2)
    detected = bool(check_product_sign_convention(flipped, dga))
    clean = not check_product_sign_convention(model, dga)
    report(
        "criterion-6 algebra embeddings", detected and clean, started,
        f"{rep4.checked}+{rep_model.checked} tuples, sign flip detected",
    )


def test_criterion_7_curved_deformations():
    started = time.perf_counter()
    lam = Fraction(1)
    sp = geomodel.space(("u", "interval"), ("v", "interval"))
    base = from_dga(cube_torus_dga(sp, sample_poly_degree=1), cutoff=4 * lam)
    rng = random.Random(700)
    odd_gens = [g for g, d in base.spaces["deRham"].basis if d % 2 == 1]
    curved = 0
    for i in range(5):
        picks = rng.sample(odd_gens, k=rng.randrange(1, 3))
        b = Element(
            "deRham",
            {
                g: NovikovElement.monomial(
                    Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])),
                    lam * rng.choice([1, 1, 2]),
                )
                for g in picks
            },
        )
        deformed = deform(base, b, lam)
        assert base.shifted_parity(b) == 0 and b.valuation() >= lam
        rep = deformed.check_relations(3, seed=700 + i)
        assert rep.passed, (str(b), rep)
        curved += not deformed.curvature().is_zero()
    report("criterion-7 curved deformations", curved >= 1, started,
           f"5 admissible deformations, {curved} with nonzero curvature")


def test_criterion_8_nested_vs_glued_pushpull():
    started = time.perf_counter()
    result = verify_pushpull(trials=100, seed=800)
    assert result.passed, result.witness
    assert result.stats["trials"] == 100
    rng = random.Random(801)
    detected = attempts = 0
    while detected < 1 and attempts < 500:
        attempts += 1
        outer, inner, j, xis, mus = random_mock_instance(rng)
        mutated = check_pushpull_identities(outer, inner, j, xis, mus, mutate_reorder_sign=1)
        if mutated.nontrivial:
            assert not mutated.nested_vs_glued
            detected += 1
    report(
        "criterion-8 nested vs glued push-pull", detected == 1, started,
        f"100 instances ({result.stats['nontrivial']} nontrivial), reorder-sign flip detected",
    )


def test_criterion_9_novikov_ring_properties():
    started = time.perf_counter()
    rng = random.Random(900)
    cutoff = Fraction(3, 2)
    for _ in range(1000):
        a = random_element(rng)
        b = random_element(rng)
        c = random_element(rng)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + NovikovElement.zero() == a and a * NovikovElement.one() == a
        assert (a * b).truncate(cutoff) == (
            a.truncate(cutoff) * b.truncate(cutoff)
        ).truncate(cutoff)
    for _ in range(1000):
        a = random_element(rng)
        b = random_element(rng)
        va, vb, vs = a.valuation(), b.valuation(), (a + b).valuation()
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)
    for _ in range(1000):
        a = random_element(rng)
        b = random_element(rng)
        if not a or not b:
            assert (a * b).valuation() == math.inf
        else:
            assert (a * b).valuation() == a.valuation() + b.valuation()
    report("criterion-9 Novikov ring properties", True, started,
           "1000 seeded cases per property")


def test_criterion_10_strata_bookkeeping():
    started = time.perf_counter()
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    assert len(spectrum.closure) == 4
    components = [ComponentData("A", 1, 0), ComponentData("B", 0, 1)]
    strata_total = 0
    for k in range(1, 6):
        for energy in spectrum.closure:
            parent = ModuliDescriptor(
                BClass(energy, "B"), components[0], tuple(components[i % 2] for i in range(k)),
            )
            strata = enumerate_strata(parent, spectrum, components)
            match = match_composition_terms(
                strata, composition_terms(parent, spectrum, components))
            assert match.perfect, (k, energy, match.unmatched_strata, match.unmatched_terms)
            assert all(codim1_parity_consistent(s) for s in strata)
            strata_total += len(strata)
    report("criterion-10 strata bookkeeping", strata_total > 0, started,
           f"{strata_total} strata matched with parity consistency")
