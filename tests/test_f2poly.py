import itertools
import random

import pytest

from ainfsign.f2poly import (
    BinOp,
    F2Poly,
    IndexedSum,
    IntLit,
    Name,
    Ring,
    SignExprError,
    anf_equivalent,
    eval_int,
    parse_sign_expr,
    to_anf,
)


def test_parse_ast_shape():
    expr = parse_sign_expr("(k2-1)*(k1-j)")
    assert expr == BinOp(
        "*", BinOp("-", Name("k2"), IntLit(1)), BinOp("-", Name("k1"), Name("j"))
    )


def test_parse_sum_node():
    expr = parse_sign_expr("Sum(p=1..3, mu_p)")
    assert isinstance(expr, IndexedSum)
    assert expr.var == "p" and expr.lower == IntLit(1) and expr.upper == IntLit(3)


def test_parse_error_offset():
    with pytest.raises(SignExprError) as err:
        parse_sign_expr("x*(y")
    assert err.value.position == 4


def test_parse_trailing_garbage():
    with pytest.raises(SignExprError):
        parse_sign_expr("x + y )")


def test_anf_cancellation():
    poly = to_anf(parse_sign_expr("d1*(d2+1) + d1"))
    assert poly == F2Poly.var("d1") * F2Poly.var("d2")


def test_anf_idempotence():
    assert to_anf(parse_sign_expr("x*x + x")) == F2Poly.zero()


def test_anf_mod2_literal():
    assert to_anf(parse_sign_expr("3"), {}) == F2Poly.one()


def test_anf_subtraction_is_addition():
    assert to_anf(parse_sign_expr("x - y")) == to_anf(parse_sign_expr("x + y"))


def test_sum_elaboration_with_bound_names():
    expr = parse_sign_expr("Sum(p=1..j-1, mu_p)")
    poly = to_anf(expr, {"j": 3})
    assert poly == F2Poly.var("mu_1") + F2Poly.var("mu_2")
    assert to_anf(expr, {"j": 1}) == F2Poly.zero()


def test_sum_bound_must_be_concrete():
    with pytest.raises(SignExprError):
        to_anf(parse_sign_expr("Sum(p=1..j, p)"), {})


def test_equivalence_trivial():
    p = F2Poly.var("d1") * F2Poly.var("d2")
    q = to_anf(parse_sign_expr("d1*d2 + 0"))
    ok, witness = anf_equivalent(p, q)
    assert ok and witness is None


def test_equivalence_witness_is_minimal():
    ok, witness = anf_equivalent(F2Poly.var("d1"), F2Poly.var("d2"))
    assert not ok
    assert witness == {"d1": 1, "d2": 0}


def search_witness(p, q):
    """The weight-ordered search that the closed form replaced: the first
    assignment, by number of ones and then lexicographically in the names
    set, at which p and q differ.  Kept as the oracle for the closed form."""
    diff = p + q
    if diff.is_zero():
        return True, None
    names = sorted(diff.variables())
    for weight in range(len(names) + 1):
        for ones in itertools.combinations(names, weight):
            assignment = {n: int(n in ones) for n in names}
            if diff.evaluate(assignment):
                return False, assignment
    raise AssertionError("nonzero ANF with no satisfying assignment")


def _random_poly(rng, names, terms, min_degree, max_degree):
    return F2Poly(frozenset(
        frozenset(rng.sample(names, rng.randint(min_degree, max_degree)))
        for _ in range(terms)
    ))


def _items(result):
    ok, witness = result
    return ok, None if witness is None else list(witness.items())


def test_closed_form_witness_equals_search_oracle():
    rng = random.Random(31)
    names = [f"x{i}" for i in range(7)]
    for _ in range(3000):
        p = _random_poly(rng, names, rng.randrange(6), 0, 4)
        q = _random_poly(rng, names, rng.randrange(6), 0, 4)
        assert _items(anf_equivalent(p, q)) == _items(search_witness(p, q)), (p, q)
    # past the 20-variable cap the search used to have: 30 variables, every
    # monomial of degree 3 or more, so the oracle searches up to weight 3
    wide = [f"v{i:02d}" for i in range(30)]
    for _ in range(5):
        p = _random_poly(rng, wide, 12, 3, 6) + F2Poly(frozenset([frozenset(wide)]))
        q = _random_poly(rng, wide, 4, 3, 6)
        assert len((p + q).variables()) == 30
        ok, witness = anf_equivalent(p, q)
        assert not ok and sum(witness.values()) == 3
        assert _items((ok, witness)) == _items(search_witness(p, q))


def _random_expr(rng, names, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return IntLit(rng.randrange(-3, 4))
        return Name(rng.choice(names))
    if roll < 0.8:
        op = rng.choice("+-*")
        return BinOp(op, _random_expr(rng, names, depth - 1), _random_expr(rng, names, depth - 1))
    return BinOp("*", _random_expr(rng, names, depth - 1), IntLit(rng.randrange(-2, 3)))


def test_elaboration_sound_against_integer_evaluation():
    """The GF(2) elaboration agrees with plain integer arithmetic mod 2,
    including at assignments far outside {0, 1}."""
    rng = random.Random(11)
    names = ["a", "b", "c"]
    for _ in range(300):
        expr = _random_expr(rng, names)
        poly = to_anf(expr)
        env = {n: rng.randrange(-6, 7) for n in names}
        assert poly.evaluate({n: v % 2 for n, v in env.items()}) == eval_int(expr, env) % 2


def _anf_from_truth_table(names, table):
    """Moebius transform over the subset lattice; the independent
    reconstruction used to certify canonicity."""
    monomials = set()
    for subset in itertools.product((0, 1), repeat=len(names)):
        coeff = 0
        for point in itertools.product((0, 1), repeat=len(names)):
            if all(p <= s for p, s in zip(point, subset)):
                coeff ^= table[point]
        if coeff:
            monomials.add(frozenset(n for n, s in zip(names, subset) if s))
    return F2Poly(frozenset(monomials))


def test_anf_canonicity_via_moebius_reconstruction():
    rng = random.Random(23)
    names = ("a", "b", "c", "d")
    for _ in range(100):
        expr = _random_expr(rng, list(names), depth=4)
        poly = to_anf(expr)
        table = {
            point: eval_int(expr, dict(zip(names, point))) % 2
            for point in itertools.product((0, 1), repeat=len(names))
        }
        assert _anf_from_truth_table(names, table) == poly


def test_evaluate_requires_all_variables():
    with pytest.raises(KeyError):
        (F2Poly.var("x") * F2Poly.var("y")).evaluate({"x": 1})


def test_evaluate_constants():
    assert F2Poly.one().evaluate({}) == 1
    assert F2Poly.zero().evaluate({"anything": 1}) == 0
    assert (F2Poly.var("d1") * F2Poly.var("d2")).evaluate({"d1": 1, "d2": 1}) == 1


def test_int_operands_act_as_their_parity():
    rng = random.Random(11)
    names = ["a", "b", "c"]
    for _ in range(200):
        p = F2Poly(frozenset(
            frozenset(rng.sample(names, rng.randrange(4))) for _ in range(rng.randrange(5))
        ))
        n = rng.randrange(-3, 4)
        const = F2Poly.one() if n % 2 else F2Poly.zero()
        for got, want in ((p + n, p + const), (n + p, const + p), (p - n, p + const),
                          (n - p, p + const), (p * n, p * const), (n * p, const * p)):
            assert isinstance(got, F2Poly) and got.monomials == want.monomials
    x = F2Poly.var("x")
    assert (x + True).monomials == (x + 1).monomials and (x * False).is_zero()


def test_a_long_sum_builds_one_polynomial_per_term(monkeypatch):
    """``Sum`` XORs its terms' monomials into one set: a sum of n terms
    builds each term's polynomial and then the sum, not a partial sum per
    term, whose rebuilding made elaboration quadratic in n."""
    built = 0
    init = F2Poly.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(F2Poly, "__init__", counting)
    total = to_anf(parse_sign_expr("Sum(p=1..20000, x_p)"))
    assert built == 20_001
    assert total.monomials == {frozenset([f"x_{p}"]) for p in range(1, 20_001)}
    # a monomial met twice cancels: x_1 from every term, and x_1 + x_1 at p = 1
    assert to_anf(parse_sign_expr("Sum(p=1..3, x_p + x_1)")) == to_anf(parse_sign_expr("x_2 + x_3"))


# --- reference model: the monomial sets that the bitsets encode -------------


def _ref_mul(p, q):
    out = set()
    for a in p:
        for b in q:
            out ^= {a | b}
    return frozenset(out)


def _ref_str(monomials):
    if not monomials:
        return "0"
    keys = sorted(monomials, key=lambda m: (len(m), tuple(sorted(m))))
    return " + ".join("1" if not m else "*".join(sorted(m)) for m in keys)


def _ref_evaluate(monomials, assignment):
    return sum(all(assignment[v] for v in m) for m in monomials) % 2


def _draw(rng, rings, pool, names):
    """A random polynomial and its monomial set: in one of ``rings``, in a
    new ring, a constant without a ring, or an earlier result."""
    kind = rng.randrange(5)
    if kind == 0:
        n = rng.randrange(-3, 4)
        poly = rng.choice([F2Poly.const(n), F2Poly.one() if n % 2 else F2Poly.zero()])
        return poly, frozenset([frozenset()]) if n % 2 else frozenset()
    if kind == 4 and pool:
        return rng.choice(pool)
    monomials = frozenset(frozenset(rng.sample(names, rng.randrange(4)))
                          for _ in range(rng.randrange(6)))
    ring = rng.choice(rings) if kind < 3 else None
    return (F2Poly(monomials) if ring is None else F2Poly(monomials, ring)), monomials


def test_bitsets_agree_with_the_monomial_set_model():
    """Every operation on polynomials drawn from two rings, from new rings
    and ring-less constants agrees with frozenset-of-frozenset arithmetic;
    equal polynomials of different rings compare equal and hash alike, and
    a ring that grows leaves its earlier polynomials as they were."""
    rng = random.Random(43)
    names = ["a", "b", "c", "d", "e"]
    rings, pool = [Ring(), Ring()], []
    for _ in range(1500):
        (p, pm), (q, qm) = _draw(rng, rings, pool, names), _draw(rng, rings, pool, names)
        n = rng.randrange(-3, 4)
        const = frozenset([frozenset()]) if n % 2 else frozenset()
        results = [(p + q, pm ^ qm), (p - q, pm ^ qm), (p * q, _ref_mul(pm, qm)),
                   (p + n, pm ^ const), (n + p, pm ^ const), (p - n, pm ^ const),
                   (n - p, pm ^ const), (p * n, _ref_mul(pm, const)),
                   (n * p, _ref_mul(pm, const)), (-p, pm)]
        for got, want in results:
            assert isinstance(got, F2Poly) and got.monomials == want, (p, q, n)
        assert (p.monomials, q.monomials) == (pm, qm)
        assert (p == q) == (pm == qm) and (p != q) == (pm != qm)
        assert (p == n) == (pm == const)
        if pm == qm:
            assert hash(p) == hash(q)
        for twin in (F2Poly(pm), F2Poly(pm, rings[0]), F2Poly(pm, rings[1])):
            assert twin == p and hash(twin) == hash(p) and twin.monomials == pm
        assert str(p) == _ref_str(pm) and repr(p) == f"<F2Poly {_ref_str(pm)}>"
        assert p.variables() == frozenset().union(*pm)
        assert p.is_zero() == (not pm)
        assignment = {v: rng.randrange(2) for v in names}
        assert p.evaluate(assignment) == _ref_evaluate(pm, assignment)
        assert _items(anf_equivalent(p, q)) == _items(search_witness(p, q))
        pool.append(rng.choice(results))
    assert all(len(ring.masks) > 1 for ring in rings)


def test_equal_polynomials_of_different_rings_are_one_value():
    x, y = F2Poly.var("x"), F2Poly.var("y")
    ring = Ring()
    F2Poly.var("z", ring) * F2Poly.var("w", ring)
    rx, ry = F2Poly.var("y", ring) * F2Poly.var("x", ring), F2Poly.var("y", ring)
    assert (x * y).bits != rx.bits
    assert x.ring is not rx.ring
    assert x * y == rx and hash(x * y) == hash(rx) and len({x * y, rx, ry, y}) == 2
    assert (x * y + rx).is_zero() and str(x * y + ry) == str(rx + y) == "y + x*y"
    assert F2Poly.zero() == F2Poly(frozenset(), ring) == 0 and F2Poly.one() == 1
