from collections import Counter
from fractions import Fraction

import pytest

from ainfsign import prover, signs, strata
from ainfsign.f2poly import F2Poly, anf_equivalent
from ainfsign.novikov import spectrum_closure
from ainfsign.prover import (
    BDRY,
    PUSH_D,
    expand_relation,
    instances,
    IDENTITIES,
    prove_all,
    prove_differential_insertion,
    prove_identity,
    prove_relation_cancellation,
)
from ainfsign.strata import (
    BClass,
    ComponentData,
    ModuliDescriptor,
    composition_terms,
    enumerate_strata,
)


def symbolic_context(k, j, k_inner):
    """A SignContext on fresh GF(2) variables for all 2k+3 parity inputs."""
    return prover._context(k, j, k_inner, prover._parity_variables(k))


def test_master_identity_sample_instances():
    for k, j, k_inner in [(1, 1, 1), (2, 1, 2), (3, 2, 0), (4, 2, 3), (5, 5, 1)]:
        rep = prove_identity("master", symbolic_context(k, j, k_inner), truth_table=(k <= 3))
        assert rep.proved, rep.witness


def test_master_identity_numeric_spot_check():
    # all-zero parities at (k=2, j=1, inner arity 2): both sides of the
    # congruence evaluate to 1
    c = symbolic_context(2, 1, 2)
    combined = signs.boundary_sign(c) + signs.composition_sign(c)
    assert combined.evaluate({v: 0 for v in combined.variables()}) == 1


def test_mutated_boundary_sign_refuted_with_witness():
    """Dropping the twist-crossing product from the boundary sign leaves a
    nonzero normal form with an explicit falsifying assignment."""
    c = symbolic_context(3, 2, 1)
    mutated_boundary = signs.boundary_sign(c) + sum(
        c.prefix_mus(), F2Poly.zero()
    ) * c.node_defect()
    nu = signs.stokes_sign(signs.parent_dim_parity(c), c.degs)
    total = mutated_boundary + signs.composition_sign(c) + signs.operation_sign(c.degs, c.mus) + 1 + nu
    ok, witness = anf_equivalent(total, F2Poly.zero())
    assert not ok
    assert witness and total.evaluate(witness) == 1


def test_decompositions_sample_instances():
    for k, j, k_inner in [(3, 2, 2), (4, 1, 0), (5, 3, 2)]:
        for identity in ("boundary-decomposition", "composition-decomposition", "reorder-collapse"):
            assert prove_identity(identity, symbolic_context(k, j, k_inner)).proved, identity


def test_perturbed_shuffle_piece_refuted():
    # instance chosen so the dropped marked-point block swap
    # (k_inner-1)(k_outer-j) is odd: k=4, j=2, k_inner=2
    c = symbolic_context(4, 2, 2)
    dim_node = F2Poly.var("ra")
    perturbed = (
        signs.local_system_swap_sign(c, dim_node)
        + signs.marked_point_shuffle_sign(c, dim_node)
        + (c.k_inner - 1) * (c.k_outer - c.j)  # re-adding removes it mod 2
        + signs.outer_moduli_dim_parity(c)
    )
    ok, witness = anf_equivalent(signs.boundary_sign(c), perturbed)
    assert not ok and witness is not None


def test_differential_insertion_instances():
    assert prove_differential_insertion(1, 1, prover._parity_variables(1)).proved
    assert prove_differential_insertion(3, 2, prover._parity_variables(3)).proved
    with pytest.raises(ValueError):
        prove_differential_insertion(2, 3, prover._parity_variables(2))


def test_instance_enumeration_counts():
    # per arity k: sum over k_outer of k_outer slots = (k+1)(k+2)/2
    counts = {}
    for k, j, k_inner in instances(4):
        counts[k] = counts.get(k, 0) + 1
    assert counts == {1: 3, 2: 6, 3: 10, 4: 15}


def test_prove_all_green():
    reports = prove_all(3, truth_table_k_max=2)
    assert all(r.proved for r in reports)
    kinds = [r.instance["identity"] for r in reports]
    assert list(dict.fromkeys(kinds)) == [*IDENTITIES, "differential-insertion"]
    assert list(IDENTITIES) == [
        "master", "boundary-decomposition", "composition-decomposition", "reorder-collapse",
    ]


def test_relation_cancellation_small():
    spectrum = spectrum_closure([Fraction(1, 2)], Fraction(3, 2))
    for k in (1, 2, 3):
        for rep in prove_relation_cancellation(k, spectrum):
            assert rep.cancels, rep.residual


def test_relation_cancellation_pairs_structure():
    spectrum = spectrum_closure([1], 2)
    reports = prove_relation_cancellation(2, spectrum)
    by_energy = {rep.energy: rep for rep in reports}
    assert set(by_energy) == {Fraction(0), Fraction(1)}
    # every differential-insertion slot appears as a cancelled pair
    for rep in reports:
        slots = [p[1] for p in rep.pairs if p[0] == PUSH_D]
        assert sorted(slots) == [(1,), (2,)]


@pytest.mark.parametrize("generators, cutoff", [
    ([Fraction(1, 2)], 2),
    ([1, Fraction(1, 3)], 2),
], ids=["halves", "thirds"])
def test_boundary_payloads_are_the_composition_terms(generators, cutoff):
    """One index set: the replay's boundary payloads (taken from
    enumerate_strata) are the composition double-sum terms without the node
    name, as multisets, for every (arity, energy) relation."""
    spectrum = spectrum_closure(generators, cutoff)
    comp = ComponentData("c", 0, 0)
    for k in range(1, 7):
        for energy in spectrum.closure:
            parent = ModuliDescriptor(BClass(energy), comp, (comp,) * k)
            expected = Counter(t[:-1] for t in composition_terms(parent, spectrum, [comp]))
            symbols = expand_relation(k, energy, spectrum)
            got = Counter(payload for kind, payload in symbols if kind == BDRY)
            assert got == expected, (k, energy)


def test_each_route_pair_is_derived_once_per_arity(monkeypatch):
    """The boundary route pair of a splitting (j, k_inner) is the same at
    every energy level, so one arity's sweep derives it once."""
    derived = []
    coderivation_sign = signs.coderivation_sign

    def counting(ctx):
        derived.append((ctx.j, ctx.k_inner))
        return coderivation_sign(ctx)

    monkeypatch.setattr(prover.signs, "coderivation_sign", counting)
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    for k in (2, 3, 4):
        derived.clear()
        reports = prove_relation_cancellation(k, spectrum)
        splittings = {(payload[0], payload[3]) for r in reports
                      for kind, payload in r.pairs if kind == BDRY}
        assert len(reports) > 1 and splittings
        assert sorted(derived) == sorted(splittings), k


def test_mutation_detected_and_named():
    spectrum = spectrum_closure([1], 2)
    payload = (1, 3, Fraction(0), 1, Fraction(1))
    reports = prove_relation_cancellation(3, spectrum, mutate=(BDRY, payload))
    bad = [r for r in reports if not r.cancels]
    assert bad
    assert any(
        entry["term"] == (BDRY, payload) for r in bad for entry in r.residual
    )


def test_each_splitting_is_decided_once_per_arity(monkeypatch):
    """An ANF check decides a splitting's cancellation sum, not a symbol:
    k = 1..5 on {0, 1/2} below 2 has 528 symbols but 70 splittings, 15 of
    them interior (one per (k, j))."""
    decided, interior_sums = [], []
    anf_equivalent, insertion_sum = prover.anf_equivalent, prover._insertion_sum

    def counting_anf(p, q):
        decided.append(p)
        return anf_equivalent(p, q)

    def recording_sum(k, j, variables):
        interior_sums.append(insertion_sum(k, j, variables))
        return interior_sums[-1]

    monkeypatch.setattr(prover, "anf_equivalent", counting_anf)
    monkeypatch.setattr(prover, "_insertion_sum", recording_sum)
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    symbols = 0
    for k in range(1, 6):
        for report in prove_relation_cancellation(k, spectrum):
            assert report.cancels, report.residual
            symbols += len(report.pairs)
    assert symbols == 528
    assert len(decided) == 70
    assert sum(any(p is q for q in interior_sums) for p in decided) == len(interior_sums) == 15


def _recorded_builds(monkeypatch):
    """The names of the F2Poly variables and the SignContexts that the
    prover builds from here on, in order."""
    names, contexts = [], []
    var, context = F2Poly.var, prover.SignContext

    def recording_var(name):
        names.append(name)
        return var(name)

    def recording_context(*args, **kwargs):
        contexts.append(context(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(F2Poly, "var", staticmethod(recording_var))
    monkeypatch.setattr(prover, "SignContext", recording_context)
    return names, contexts


def test_each_arity_builds_its_variables_once_and_each_instance_one_context(monkeypatch):
    """Pinned work.  ``prove_all(4)`` builds the 2k+3 variables of each
    arity once (32) and one symbolic context per instance, which its four
    identities share (34), plus one per differential insertion (10); the
    truth tables build one column context per instance of k <= 3 (19).  The
    replay at k = 3 builds the arity's 9 variables and one context per
    splitting: 3 interior and 10 boundary."""
    names, contexts = _recorded_builds(monkeypatch)
    assert all(r.proved for r in prove_all(4, truth_table_k_max=3))
    assert names == [name for k in range(1, 5) for name in prover._parity_names(k)]
    assert len(names) == 32
    symbolic = [c for c in contexts if isinstance(c.mu_out, F2Poly)]
    columns = [c for c in contexts if isinstance(c.mu_out, prover._Column)]
    assert (len(contexts), len(symbolic), len(columns)) == (63, 44, 19)
    insertions = [(k, j, 1) for k in range(1, 5) for j in range(1, k + 1)]
    assert Counter((c.k, c.j, c.k_inner) for c in symbolic) == (
        Counter(instances(4)) + Counter(insertions))
    assert [(c.k, c.j, c.k_inner) for c in columns] == list(instances(3))
    for k in range(1, 5):
        arity = [c for c in symbolic if c.k == k]
        assert all(c.degs == arity[0].degs and c.mu_out is arity[0].mu_out for c in arity)

    names.clear()
    contexts.clear()
    reports = prove_relation_cancellation(3, spectrum_closure([Fraction(1, 2)], 2))
    assert all(r.cancels for r in reports)
    assert names == prover._parity_names(3)
    splittings = {(p[0], p[3]) for r in reports for kind, p in r.pairs if kind == BDRY}
    assert (len(contexts), len(splittings)) == (13, 10)
    assert Counter((c.j, c.k_inner) for c in contexts) == (
        Counter(splittings) + Counter((j, 1) for j in (1, 2, 3)))


def test_only_the_prover_builds_sign_contexts(monkeypatch):
    """Every SignContext built, under any name, is counted.  Enumerating
    strata builds none: a stratum's sign is computed when it is read.  So
    the replay at k = 3 builds only the contexts of the splittings it
    decides: 3 interior and 10 boundary."""
    built, init = [], signs.SignContext.__init__

    def counting_init(self, *args):
        init(self, *args)
        built.append((self.j, self.k_inner))

    monkeypatch.setattr(signs.SignContext, "__init__", counting_init)
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    comp = ComponentData("c", 0, 0)
    for energy in spectrum.closure:
        assert enumerate_strata(ModuliDescriptor(BClass(energy), comp, (comp,) * 3), spectrum,
                                [comp])
    assert built == []
    reports = prove_relation_cancellation(3, spectrum)
    splittings = {(p[0], p[3]) for r in reports for kind, p in r.pairs if kind == BDRY}
    assert len(splittings) == 10
    assert Counter(built) == Counter(splittings) + Counter((j, 1) for j in (1, 2, 3))


def _term_names():
    """Every term name that an identity lists, in first-listed order."""
    return list(dict.fromkeys(name for terms in IDENTITIES.values() for name in terms))


def test_each_term_is_evaluated_once_per_instance_and_each_split_once_per_walk(monkeypatch):
    """Pinned work.  ``prove_all(4)`` evaluates each term that
    ``IDENTITIES`` lists once per instance (34), however many identities
    list it: ``boundary_sign`` 34 times, not 68.  One ``enumerate_strata``
    of the benchmark's k = 6, energy 1 parent on {0, 1/2} builds an outer
    and an inner ``BClass`` for each of its 3 energy splits (6), not two
    for each of its 77 strata (154)."""
    calls = Counter()
    for name in _term_names():
        def counting(ctx, *args, name=name, term=getattr(signs, name)):
            calls[name, ctx.k, ctx.j, ctx.k_inner] += 1
            return term(ctx, *args)

        monkeypatch.setattr(signs, name, counting)
    assert all(r.proved for r in prove_all(4, truth_table_k_max=0))
    assert len(_term_names()) == 12 and set(calls.values()) == {1}
    assert Counter(name for name, *_ in calls) == {name: 34 for name in _term_names()}
    assert len(list(instances(4))) == 34

    comp = ComponentData("c", 0, 0)
    parent = ModuliDescriptor(BClass(1), comp, (comp,) * 6)
    built = []

    def counting_class(*args):
        built.append(BClass(*args))
        return built[-1]

    monkeypatch.setattr(strata, "BClass", counting_class)
    walked = enumerate_strata(parent, spectrum_closure([Fraction(1, 2)], 2), [comp])
    assert (len(walked), len(built)) == (77, 6)
    assert [b.energy for b in built] == [1, 0, Fraction(1, 2), Fraction(1, 2), 0, 1]


@pytest.mark.parametrize("name", _term_names())
def test_a_flipped_term_refutes_exactly_the_identities_that_list_it(monkeypatch, name):
    """A term is looked up by name when it is evaluated, so a formula
    replaced in ``signs`` reaches every identity that lists it: with the
    term plus one, exactly those identities fail, at every instance, and
    when a master term is flipped the truth table refutes the master sum
    too."""
    term = getattr(signs, name)
    monkeypatch.setattr(signs, name, lambda *args: term(*args) + 1)
    reports = prove_all(4, truth_table_k_max=2)
    listing = {identity for identity, terms in IDENTITIES.items() if name in terms}
    assert listing
    for report in reports:
        expected = report.instance["identity"] in listing
        assert report.proved != expected, (name, report.instance)
    for k, j, k_inner in instances(2):
        refuted = prover._truth_table_master(k, j, k_inner) is not None
        assert refuted == (name in signs.MASTER_TERMS), (name, k, j, k_inner)


@pytest.mark.parametrize("boundary_sign", ["real", "flipped", "wrong"])
def test_shared_contexts_change_no_verdict_and_no_witness(monkeypatch, boundary_sign):
    """Every identity report of ``prove_all`` through k = 6 equals
    ``prove_identity`` on a fresh context per identity, with the real
    boundary sign and with two wrong ones, so no identity's state reaches
    the next one's."""
    if boundary_sign == "flipped":
        monkeypatch.setattr(signs, "boundary_sign", lambda ctx: _REAL_BOUNDARY_SIGN(ctx) + 1)
    elif boundary_sign == "wrong":
        monkeypatch.setattr(signs, "boundary_sign", wrong_boundary_sign)
    fresh = [
        prove_identity(identity, symbolic_context(k, j, k_inner),
                       truth_table=identity == "master" and k <= 3)
        for k, j, k_inner in instances(6) for identity in IDENTITIES
    ]
    shared = prove_all(6, truth_table_k_max=3)
    assert len(fresh) == 4 * 83
    assert shared[: len(fresh)] == fresh
    refuted = [r for r in fresh if not r.proved]
    assert bool(refuted) == (boundary_sign != "real")
    assert all(r.witness is not None for r in refuted)
    if boundary_sign == "wrong":
        assert any(r.witness for r in refuted)


def test_mutated_boundary_symbol_is_named_at_its_level_only():
    """A boundary payload carries its energies, so it occurs at one level;
    its splitting recurs at others, which still cancel."""
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    payload = (1, 3, Fraction(1, 2), 1, Fraction(1, 2))
    reports = prove_relation_cancellation(3, spectrum, mutate=(BDRY, payload))
    splitting_levels = [r.energy for r in reports for kind, p in r.pairs
                        if kind == BDRY and (p[0], p[3]) == (1, 1)]
    assert len(set(splitting_levels)) > 1
    assert [(r.energy, [e["term"] for e in r.residual]) for r in reports if r.residual] == [
        (Fraction(1), [(BDRY, payload)])
    ]


def test_mutated_interior_symbol_is_named_at_every_level():
    spectrum = spectrum_closure([Fraction(1, 2)], 2)
    reports = prove_relation_cancellation(3, spectrum, mutate=(PUSH_D, (2,)))
    assert len(reports) == 4
    for r in reports:
        assert [e["term"] for e in r.residual] == [(PUSH_D, (2,))], r.energy
        assert (PUSH_D, (1,)) in r.pairs and (PUSH_D, (3,)) in r.pairs
    # the flipped sum is the constant 1, so its witness sets no variable
    assert reports[0].residual[0]["witness"] == {}


def test_k1_zero_energy_is_trivially_clean():
    spectrum = spectrum_closure([], 1)
    reports = prove_relation_cancellation(1, spectrum)
    assert len(reports) == 1 and reports[0].cancels and not reports[0].pairs


def test_reports_deterministic():
    spectrum = spectrum_closure([Fraction(1, 2)], 1)
    a = prove_relation_cancellation(2, spectrum)
    b = prove_relation_cancellation(2, spectrum)
    assert a == b


# --- bit-parallel truth tables ------------------------------------------------


def integer_oracle(k, j, k_inner):
    """Per-assignment integer evaluation of master_sum: bit b is set when
    the sum is odd with input i (d1..dk, m1..mk, ma, m0, r0) = (b >> i) & 1.
    Also returns the first failing assignment by name, or None."""
    n = 2 * k + 3
    names = [f"d{i}" for i in range(1, k + 1)] + [f"m{i}" for i in range(1, k + 1)]
    names += ["ma", "m0", "r0"]
    bits, first = 0, None
    for b in range(1 << n):
        vals = [(b >> i) & 1 for i in range(n)]
        ctx = signs.SignContext(j, k_inner, tuple(vals[:k]), tuple(vals[k:2 * k]),
                                vals[2 * k], vals[2 * k + 1], vals[2 * k + 2])
        if signs.master_sum(ctx) != 0:
            bits |= 1 << b
            if first is None:
                first = dict(zip(names, vals))
    return bits, first


_REAL_BOUNDARY_SIGN = signs.boundary_sign


def wrong_boundary_sign(ctx):
    """The boundary sign with a product, a difference and a negation added:
    nonzero on some assignments of most instances."""
    return (
        _REAL_BOUNDARY_SIGN(ctx)
        - ctx.degs[0] * ctx.mu_out
        + (ctx.k_outer - ctx.j) * -ctx.dim_out
    )


@pytest.mark.parametrize("mutated", [False, True], ids=["real", "wrong-boundary-sign"])
def test_truth_table_columns_equal_integer_oracle(monkeypatch, mutated):
    if mutated:
        monkeypatch.setattr(signs, "boundary_sign", wrong_boundary_sign)
    failing = 0
    for k, j, k_inner in instances(3):
        bits, first = integer_oracle(k, j, k_inner)
        assert prover._master_column(k, j, k_inner) == bits, (k, j, k_inner)
        assert prover._truth_table_master(k, j, k_inner) == first, (k, j, k_inner)
        failing += first is not None
    assert (failing > 0) == mutated


def test_truth_table_alone_refutes_mutated_boundary_sign(monkeypatch):
    monkeypatch.setattr(prover, "anf_equivalent", lambda p, q: (True, None))
    monkeypatch.setattr(signs, "boundary_sign", wrong_boundary_sign)
    ctx = symbolic_context(3, 1, 1)
    assert prove_identity("master", ctx).proved  # the stubbed ANF route proves it
    rep = prove_identity("master", ctx, truth_table=True)
    assert not rep.proved
    assert rep.witness == integer_oracle(3, 1, 1)[1]


def test_truth_table_column_refuses_other_routes():
    col = prover._Column(0b0110, 0b1111)
    assert (col + 3).bits == (3 - col).bits == 0b1001
    assert (col * -1).bits == 0b0110 and (2 * col).bits == 0
    assert (-col).bits == 0b0110
    for other in (F2Poly.var("x"), F2Poly.one(), Fraction(1, 2), Fraction(2)):
        for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                combine(col, other)
            with pytest.raises(TypeError):
                combine(other, col)


def test_truth_table_arity_is_bounded():
    with pytest.raises(ValueError, match="truth tables stop at k=10"):
        prove_identity("master", symbolic_context(prover.TRUTH_TABLE_K_MAX + 1, 1, 0),
                       truth_table=True)
    with pytest.raises(ValueError, match="only the master identity"):
        prove_identity("boundary-decomposition", symbolic_context(2, 1, 1), truth_table=True)


def test_symbolic_proofs_build_no_constant_polynomials(monkeypatch):
    def refuse(n):
        raise AssertionError("F2Poly.const built for an int operand")

    monkeypatch.setattr(F2Poly, "const", staticmethod(refuse))
    assert all(r.proved for r in prove_all(3, truth_table_k_max=2))
    spectrum = spectrum_closure([Fraction(1, 2)], Fraction(3, 2))
    assert all(r.cancels for r in prove_relation_cancellation(2, spectrum))
