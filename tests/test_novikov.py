import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfsign import novikov
from ainfsign.novikov import (
    NovikovElement,
    NovikovParseError,
    T,
    spectrum_closure,
)


def mono(c, e):
    return NovikovElement.monomial(Fraction(c), Fraction(e))


def random_element(rng, max_terms=4, max_num=6, max_den=4):
    """Seeded random element with up to ``max_terms`` terms."""
    pairs = []
    for _ in range(rng.randrange(max_terms + 1)):
        exponent = Fraction(rng.randrange(0, max_num), rng.randrange(1, max_den))
        coefficient = Fraction(
            rng.choice([c for c in range(-max_num, max_num + 1) if c]),
            rng.randrange(1, max_den),
        )
        pairs.append((exponent, coefficient))
    return NovikovElement.from_terms(pairs)


def test_add_cancellation():
    assert (NovikovElement.one() + T) + mono(-1, 0) == T


def test_add_identity():
    x = mono(3, Fraction(1, 2)) + mono(-2, 2)
    assert NovikovElement.zero() + x == x


def test_add_merges_equal_exponents():
    assert mono(1, Fraction(1, 2)) + mono(1, Fraction(1, 2)) == mono(2, Fraction(1, 2))


def test_mul_difference_of_squares():
    half = mono(1, Fraction(1, 2))
    assert (NovikovElement.one() + half) * (NovikovElement.one() - half) == (
        NovikovElement.one() - T
    )


def test_mul_identity():
    x = mono(2, 1) + mono(-1, Fraction(5, 3))
    assert x * NovikovElement.one() == x


def test_mul_adds_exponents():
    assert mono(1, Fraction(1, 3)) * mono(1, Fraction(2, 3)) == T


def test_truncate_below_cutoff_keeps():
    x = NovikovElement.one() - T
    assert x.truncate(Fraction(3, 2)) == x


def test_truncate_drops_boundary_exponent():
    x = NovikovElement.one() - T
    assert x.truncate(1) == NovikovElement.one()
    assert x.truncate(Fraction(1)) == NovikovElement.one()


def test_truncate_zero():
    assert NovikovElement.zero().truncate(Fraction(1, 7)) == NovikovElement.zero()


def test_valuation_leading_exponent():
    assert (mono(1, Fraction(1, 2)) + mono(2, 2)).valuation() == Fraction(1, 2)


def test_valuation_zero_is_infinite():
    assert NovikovElement.zero().valuation() == math.inf


def test_canonical_invariants_rejected():
    with pytest.raises(ValueError):
        NovikovElement(((Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError):
        NovikovElement(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))))
    with pytest.raises(ValueError):
        NovikovElement(((Fraction(-1), Fraction(1)),))


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_numbers_that_are_not_exact_rejected(bad):
    """Novikov input follows ``exact_rational``: an int or a Fraction, never
    a float, a bool or a string (text goes through ``parse``)."""
    for call in (
        lambda: NovikovElement.monomial(bad, 0),
        lambda: NovikovElement.monomial(1, bad),
        lambda: NovikovElement.from_terms([(0, bad)]),
        lambda: T.truncate(bad),
        lambda: spectrum_closure([bad], 2),
    ):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            call()
    assert NovikovElement.monomial(2, 1) == NovikovElement.monomial(Fraction(2), Fraction(1))


@pytest.mark.parametrize("build", [
    lambda: NovikovElement(((0.5, 1),)),
    lambda: NovikovElement(((Fraction(1), 1.5),)),
    lambda: NovikovElement(((True, 1),)),
    lambda: novikov.GappedSpectrum((0.5,), 2.0),
], ids=["float-exponent", "float-coefficient", "bool-exponent", "float-spectrum"])
def test_public_constructors_reject_numbers_that_are_not_exact(build):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        build()


def _number_types(x: NovikovElement) -> set[type]:
    return {number.__class__ for term in x.terms for number in term}


def test_integral_numbers_are_stored_as_int():
    """An exponent or coefficient is an ``int`` when it is integral and a
    ``Fraction`` when it is not; ring results on ints hold only ints."""
    assert _number_types(NovikovElement.monomial(2, 1)) == {int}
    assert _number_types(NovikovElement.monomial(Fraction(2, 1), Fraction(4, 2))) == {int}
    assert _number_types(NovikovElement.one()) == {int}
    assert _number_types(NovikovElement.monomial(Fraction(1, 2), Fraction(3, 2))) == {Fraction}
    x = NovikovElement.from_terms([(0, 1), (1, -2), (3, 5)])
    y = NovikovElement.from_terms([(2, 3), (1, 2)])
    results = [
        x + y, x - y, x * y, x * T, (x * y) * (x + y), x.shift(2), (x * T).shift(-1),
        x.truncate(2), x.truncate(Fraction(3)),
        NovikovElement.from_terms([(1, 1), (1, 1), (Fraction(2), Fraction(4, 2))]),
        novikov.parse("2 - 3*T^2 + (T + 1)*(T - 4)"), novikov.parse("(6/3)*T^(4/2)"),
    ]
    for result in results:
        assert result and _number_types(result) == {int}, result
    spectrum = spectrum_closure([Fraction(1)], Fraction(3))
    assert {e.__class__ for e in (*spectrum.generators, spectrum.cutoff, *spectrum.closure)} == {int}
    # a sum of fractional generators that comes out whole is stored as the int
    half = spectrum_closure([Fraction(1, 2)], 2)
    assert [e.__class__ for e in half.closure] == [int, Fraction, int, Fraction]


def test_fraction_and_int_terms_are_the_same_element():
    as_fraction = NovikovElement(((Fraction(0), Fraction(1)), (Fraction(2), Fraction(-3))))
    as_int = NovikovElement(((0, 1), (2, -3)))
    assert as_fraction == as_int and hash(as_fraction) == hash(as_int)
    assert str(as_fraction) == str(as_int) == "1 - 3*T^2"
    assert _number_types(as_fraction) == {int}


def _closure_oracle(generators, cutoff):
    """Independent enumeration: bounded multiset counts per generator."""
    gens = sorted(generators)
    if not gens:
        return [Fraction(0)]
    bounds = [int(cutoff / g) + 1 for g in gens]
    out = set()
    for counts in itertools.product(*(range(b + 1) for b in bounds)):
        total = sum((c * g for c, g in zip(counts, gens)), Fraction(0))
        if total < cutoff:
            out.add(total)
    return sorted(out)


def test_spectrum_closure_half():
    spec = spectrum_closure([Fraction(1, 2)], 2)
    assert list(spec.closure) == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def test_spectrum_closure_empty():
    assert list(spectrum_closure([], 1).closure) == [Fraction(0)]


def test_spectrum_closure_two_generators():
    spec = spectrum_closure([1, Fraction(3, 2)], 3)
    assert list(spec.closure) == [
        Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
    ]


@pytest.mark.parametrize("generators, cutoff, message", [
    ((-1,), 2, "generators must be positive, got -1"),
    ((1,), 0, "cutoff must be positive"),
], ids=["negative-generator", "zero-cutoff"])
def test_spectrum_rejects_a_closure_that_is_not_its_own(generators, cutoff, message):
    """A spectrum derives its own closure, so the only input it can reject is
    a generator or a cutoff that is not positive."""
    with pytest.raises(ValueError, match=message):
        novikov.GappedSpectrum(generators, cutoff)


def test_spectrum_accepts_the_closure_spectrum_closure_builds():
    for gens, cutoff in (([], 1), ([Fraction(1, 2)], 2), ([1, Fraction(3, 2)], 3), ([Fraction(2, 3), 1], 5)):
        assert novikov.GappedSpectrum(gens, cutoff) == spectrum_closure(gens, cutoff)
    assert Fraction(1, 2) in spectrum_closure([Fraction(1, 2)], 1)
    # generators are kept sorted and each once
    assert novikov.GappedSpectrum((1, Fraction(1, 2), 1), 2).generators == (Fraction(1, 2), 1)


def test_spectrum_closure_matches_oracle():
    rng = random.Random(42)
    for _ in range(25):
        gens = {
            Fraction(rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))
        }
        cutoff = Fraction(rng.randrange(2, 7))
        spec = spectrum_closure(gens, cutoff)
        assert list(spec.closure) == _closure_oracle(gens, cutoff)


def test_spectrum_closure_is_additively_closed():
    rng = random.Random(13)
    for _ in range(20):
        gens = {Fraction(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(2)}
        cutoff = Fraction(rng.randrange(2, 6))
        spec = spectrum_closure(gens, cutoff)
        members = set(spec.closure)
        assert Fraction(0) in members
        for a in members:
            for b in members:
                if a + b < cutoff:
                    assert a + b in members


def test_spectrum_rejects_nonpositive():
    with pytest.raises(ValueError):
        spectrum_closure([0], 1)
    with pytest.raises(ValueError):
        spectrum_closure([Fraction(1, 2)], 0)


def test_splits_enumerates_ordered_pairs():
    spec = spectrum_closure([Fraction(1, 2)], 2)
    assert spec.splits(Fraction(1)) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    ]


# --- parser ---


def test_parse_canonical_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        x = random_element(rng)
        assert novikov.parse(str(x)) == x
        assert str(novikov.parse(str(x))) == str(x)


def test_parse_expressions():
    assert novikov.parse("(1+T^(1/2))*(1-T^(1/2))") == NovikovElement.one() - T
    assert novikov.parse("-T + T") == NovikovElement.zero()
    assert str(novikov.parse("2*T^2 + 1/2")) == "1/2 + 2*T^2"


def test_parse_error_positions():
    with pytest.raises(NovikovParseError) as err:
        novikov.parse("1 + * T")
    assert err.value.position == 4
    with pytest.raises(NovikovParseError):
        novikov.parse("T^(-1)")
    with pytest.raises(NovikovParseError):
        novikov.parse("1 + T)")


@pytest.mark.parametrize("text, message, position", [
    ("1/0*T", "denominator must be positive", 2),
    ("1/ -2", "denominator must be positive", 3),
    ("T^(1/0)", "denominator must be positive", 5),
    ("T^-1", "negative exponent", 2),
    ("T^(-1/2)", "negative exponent", 2),
])
def test_parse_error_points_at_the_start_of_the_bad_token(text, message, position):
    with pytest.raises(NovikovParseError, match=message) as err:
        novikov.parse(text)
    assert err.value.position == position


# --- ring properties (hypothesis) ---


def _elements():
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    expo = st.fractions(min_value=0, max_value=4, max_denominator=4)
    return st.lists(st.tuples(expo, coeff), max_size=4).map(NovikovElement.from_terms)


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements(), _elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + NovikovElement.zero() == a
    assert a * NovikovElement.one() == a
    assert a - a == NovikovElement.zero()


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements())
def test_truncation_is_a_quotient(a, b):
    cutoff = Fraction(3, 2)
    assert (a + b).truncate(cutoff) == (a.truncate(cutoff) + b.truncate(cutoff)).truncate(cutoff)
    assert (a * b).truncate(cutoff) == (a.truncate(cutoff) * b.truncate(cutoff)).truncate(cutoff)


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements())
def test_ultrametric_valuation(a, b):
    va, vb, vs = a.valuation(), b.valuation(), (a + b).valuation()
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@settings(max_examples=200, deadline=None)
@given(_elements(), _elements())
def test_valuation_multiplicative(a, b):
    if not a or not b:
        assert (a * b).valuation() == math.inf
    else:
        assert (a * b).valuation() == a.valuation() + b.valuation()


# --- fast paths against the reference formulas (hypothesis) ---
#
# Sums, products and the unary operations build canonical results directly
# (a sorted merge, the unit and monomial shortcuts).  The references below
# are the plain formulas, normalized by ``from_terms``.


def _ref_add(a, b):
    return NovikovElement.from_terms(itertools.chain(a.terms, b.terms))


def _ref_mul(a, b):
    return NovikovElement.from_terms(
        (e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms
    )


def _operands():
    """Every shape a fast path keys on: zero, the shared unit, a fresh unit,
    single terms and general elements."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    expo = st.fractions(min_value=0, max_value=4, max_denominator=4)
    return st.one_of(
        st.just(NovikovElement.zero()),
        st.just(NovikovElement.one()),
        st.builds(lambda: NovikovElement(((Fraction(0), Fraction(1)),))),
        st.builds(NovikovElement.monomial, coeff, expo),
        _elements(),
    )


def _revalidated(r):
    assert NovikovElement(r.terms) == r  # the public constructor accepts it
    return r


@settings(max_examples=300, deadline=None)
@given(
    _operands(),
    _operands(),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
)
def test_fast_paths_match_reference(a, b, delta, cutoff):
    assert _revalidated(a + b) == _ref_add(a, b)
    assert _revalidated(a - b) == _ref_add(a, NovikovElement.from_terms(
        (e, -c) for e, c in b.terms))
    assert _revalidated(a * b) == _ref_mul(a, b)
    assert _revalidated(-a) == NovikovElement.from_terms((e, -c) for e, c in a.terms)
    assert _revalidated(a.shift(delta)) == NovikovElement.from_terms(
        (e + delta, c) for e, c in a.terms)
    assert _revalidated(a.truncate(cutoff)) == NovikovElement.from_terms(
        (e, c) for e, c in a.terms if e < cutoff)


def test_zero_and_one_are_shared():
    assert NovikovElement.zero() is NovikovElement.zero()
    assert NovikovElement.one() is NovikovElement.one()
    assert NovikovElement.monomial(1, 0) is NovikovElement.one()
    assert NovikovElement.monomial(Fraction(1), Fraction(0)) is NovikovElement.one()
    x = mono(3, Fraction(1, 2))
    assert x * NovikovElement.one() is x and NovikovElement.one() * x is x
    assert x + NovikovElement.zero() is x


def test_shift_below_zero_is_rejected():
    assert mono(2, 1).shift(-1) == mono(2, 0)
    with pytest.raises(ValueError, match="negative exponent"):
        (mono(2, 1) + mono(1, 3)).shift(Fraction(-3, 2))
