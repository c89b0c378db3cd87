"""The geomodel models as built objects: the seeded instance stream that the
randomized checkers draw, every rejection branch of the public validating
constructors, and the immutability the README promises."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ainfsign.geomodel import (
    CorrespondenceModel,
    CubeTorusSpace,
    Form,
    Poly,
    ProjectionMap,
    SmoothMapModel,
    boundary_pushforward,
    exterior_derivative,
    integrate,
    projection,
    pullback,
    pushforward,
    random_form,
    random_mock_instance,
    space,
    wedge,
)
from ainfsign.geomodel import checks
from ainfsign.geomodel.checks import NameSource, random_bundle, random_smooth_map, random_space

# --- the seeded instance stream --------------------------------------------------


def _draws(seed: int):
    """Every generator's first instances at one seed, then one more draw from
    each stream, so a generator that consumes the stream differently shows
    even where its instances agree."""
    fresh = NameSource()
    rng = random.Random(seed)
    for _ in range(60):
        yield random_space(rng, 4, fresh)
    for min_fiber in (0, 1):
        for _ in range(60):
            yield random_bundle(rng, 4, fresh, min_fiber=min_fiber)
    for _ in range(60):
        p = random_bundle(rng, 4, fresh)
        yield random_form(rng, p.source, 3)
        yield random_form(rng, p.source, 3, degree=rng.randrange(p.source.dimension + 1))
        target = random_space(rng, 3, fresh, prefix="m")
        yield random_smooth_map(rng, p.source, target)
    for _ in range(15):
        yield random_mock_instance(rng)
    yield rng.getrandbits(64)


def _stream_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        for drawn in _draws(seed):
            digest.update(f"{drawn!r}|{drawn!s}\n".encode())
    return digest.hexdigest()


def test_instance_generators_draw_the_recorded_stream():
    # Recorded before the models were slotted and the generators tightened:
    # the same seeds give the same instances and leave the stream where they
    # found it.
    assert _stream_digest((0, 1, 2)) == (
        "cf9fb826c6e171b6fd76c75781d054e50e0e35549c594f47b2c8184b8280ccba"
    )


# --- rejection branches of the public constructors -------------------------------

I2C = space(("a", "interval"), ("b", "interval"), ("c", "circle"))
TWO = space(("p", "interval"), ("q", "circle"))


def _smooth(table):
    return SmoothMapModel(I2C, TWO, tuple(table.items()))


def _projection(injection, fiber):
    return ProjectionMap(I2C, TWO, tuple(injection.items()), tuple(fiber))


GOOD_SMOOTH = {"p": ("poly", Poly.var("a")), "q": ("circle", "c", 1)}

REJECTIONS = [
    # CubeTorusSpace
    ("space-duplicate", lambda: CubeTorusSpace((("a", "interval"), ("a", "circle"))),
     ValueError, "duplicate coordinate names in ['a', 'a']"),
    ("space-duplicate-before-kind", lambda: CubeTorusSpace((("a", "disk"), ("a", "circle"))),
     ValueError, "duplicate coordinate names in ['a', 'a']"),
    ("space-unknown-kind", lambda: CubeTorusSpace((("a", "interval"), ("b", "disk"))),
     ValueError, "unknown coordinate kind 'disk'"),
    # ProjectionMap
    ("projection-misses-target",
     lambda: _projection({"p": "a"}, ("b", "c")),
     ValueError, "injection must cover exactly the target coordinates"),
    ("projection-extra-target",
     lambda: _projection({"p": "a", "q": "c", "r": "b"}, ()),
     ValueError, "injection must cover exactly the target coordinates"),
    ("projection-not-injective",
     lambda: ProjectionMap(I2C, space(("p", "interval"), ("r", "interval")),
                           (("p", "a"), ("r", "a")), ("b", "c")),
     ValueError, "injection is not injective"),
    ("projection-unknown-source",
     lambda: _projection({"p": "z", "q": "c"}, ("a", "b")),
     KeyError, "no source coordinate 'z'"),
    ("projection-changes-kind",
     lambda: _projection({"p": "a", "q": "b"}, ("c",)),
     ValueError, "injection 'q'->'b' changes coordinate kind"),
    ("projection-fiber-repeats",
     lambda: _projection({"p": "a", "q": "c"}, ("b", "b")),
     ValueError, "fiber must list exactly the non-base source coordinates"),
    ("projection-fiber-lists-base",
     lambda: _projection({"p": "a", "q": "c"}, ("b", "a")),
     ValueError, "fiber must list exactly the non-base source coordinates"),
    ("projection-fiber-misses",
     lambda: _projection({"p": "a", "q": "c"}, ()),
     ValueError, "fiber must list exactly the non-base source coordinates"),
    ("projection-fiber-unknown",
     lambda: _projection({"p": "a", "q": "c"}, ("z",)),
     ValueError, "fiber must list exactly the non-base source coordinates"),
    # SmoothMapModel
    ("smooth-misses-target",
     lambda: _smooth({"p": ("poly", Poly.var("a"))}),
     ValueError, "assignments must cover exactly the target coordinates"),
    ("smooth-extra-target",
     lambda: _smooth({**GOOD_SMOOTH, "r": ("const-circle",)}),
     ValueError, "assignments must cover exactly the target coordinates"),
    ("smooth-interval-needs-poly",
     lambda: _smooth({**GOOD_SMOOTH, "p": ("circle", "c", 1)}),
     ValueError, "interval coordinate 'p' needs a polynomial"),
    ("smooth-poly-uses-unknown",
     lambda: _smooth({**GOOD_SMOOTH, "p": ("poly", Poly.var("z") * Poly.var("c"))}),
     ValueError, "assignment for 'p' uses ['c', 'z']"),
    ("smooth-leaves-unit-range",
     lambda: _smooth({**GOOD_SMOOTH, "p": ("poly", Poly.var("a") + Poly.var("b"))}),
     ValueError, "assignment for 'p' leaves [0,1] at {'a': Fraction(1, 2), 'b': Fraction(1, 1)} "
                 "(value 3/2)"),
    ("smooth-circle-leg-names-interval",
     lambda: _smooth({**GOOD_SMOOTH, "q": ("circle", "a", 1)}),
     ValueError, "'a' is not a source circle coordinate"),
    ("smooth-circle-leg-names-nothing",
     lambda: _smooth({**GOOD_SMOOTH, "q": ("circle", "z", 1)}),
     ValueError, "'z' is not a source circle coordinate"),
    ("smooth-circle-sign",
     lambda: _smooth({**GOOD_SMOOTH, "q": ("circle", "c", 2)}),
     ValueError, "circle orientation sign must be +1 or -1"),
    ("smooth-circle-sign-zero",
     lambda: _smooth({**GOOD_SMOOTH, "q": ("circle", "c", 0)}),
     ValueError, "circle orientation sign must be +1 or -1"),
    ("smooth-bad-circle-assignment",
     lambda: _smooth({**GOOD_SMOOTH, "q": ("poly", Poly.var("a"))}),
     ValueError, "bad assignment for circle coordinate 'q'"),
    ("smooth-first-bad-assignment-wins",
     lambda: SmoothMapModel(I2C, TWO, (("q", ("circle", "c", 2)), ("p", ("circle", "c", 1)))),
     ValueError, "circle orientation sign must be +1 or -1"),
    # Poly
    ("poly-monomial-unsorted",
     lambda: Poly({(("u", 1), ("t", 1)): 1}),
     ValueError, "monomial (('u', 1), ('t', 1)) is not (name, power >= 1) pairs sorted by name"),
    ("poly-monomial-zero-power",
     lambda: Poly({(("t", 0),): 1}),
     ValueError, "monomial (('t', 0),) is not (name, power >= 1) pairs sorted by name"),
    ("poly-monomial-not-pairs",
     lambda: Poly({("t", 1): 1}),
     ValueError, "monomial ('t', 1) is not (name, power >= 1) pairs sorted by name"),
    ("poly-coefficient-float",
     lambda: Poly({(("t", 2),): 0.5}),
     ValueError, "coefficient 0.5 of monomial (('t', 2),) is not an int or a Fraction"),
    ("poly-monomial-before-coefficient",
     lambda: Poly({(("t", 0),): 0.5}),
     ValueError, "monomial (('t', 0),) is not (name, power >= 1) pairs sorted by name"),
    ("poly-first-bad-term-wins",
     lambda: Poly({(("t", 1),): 0.5, (("t", 0),): 1}),
     ValueError, "coefficient 0.5 of monomial (('t', 1),) is not an int or a Fraction"),
    ("poly-zero-float-rejected",
     lambda: Poly({(): 0.0}),
     ValueError, "coefficient 0.0 of monomial () is not an int or a Fraction"),
    # Form
    ("form-coefficient-uses-circle",
     lambda: Form(I2C, {("a",): Poly.var("c")}),
     ValueError, "coefficient uses 'c', not an interval coordinate of the space"),
    ("form-coefficient-uses-unknown",
     lambda: Form(I2C, {(): Poly.var("a") * Poly.var("z")}),
     ValueError, "coefficient uses 'z', not an interval coordinate of the space"),
    ("form-letter-not-coordinate",
     lambda: Form(I2C, {("a", "z"): Poly.const(1)}),
     ValueError, "wedge letter 'z' not a coordinate"),
    ("form-unknown-letter-before-order",
     lambda: Form(I2C, {("b", "a", "z"): Poly.const(1)}),
     ValueError, "wedge letter 'z' not a coordinate"),
    ("form-coefficient-before-letters",
     lambda: Form(I2C, {("z",): Poly.var("c")}),
     ValueError, "coefficient uses 'c', not an interval coordinate of the space"),
    ("form-out-of-order",
     lambda: Form(I2C, {("b", "a"): Poly.const(1)}),
     ValueError, "wedge ('b', 'a') not in coordinate order"),
    ("form-out-of-order-and-repeated",
     lambda: Form(I2C, {("b", "a", "b"): Poly.const(1)}),
     ValueError, "wedge ('b', 'a', 'b') not in coordinate order"),
    ("form-repeated-then-out-of-order",
     lambda: Form(I2C, {("b", "b", "a"): Poly.const(1)}),
     ValueError, "wedge ('b', 'b', 'a') not in coordinate order"),
    ("form-repeated",
     lambda: Form(I2C, {("a", "a", "c"): Poly.const(1)}),
     ValueError, "repeated letter in wedge ('a', 'a', 'c')"),
    ("form-zero-term-checked",
     lambda: Form(I2C, {("z", "z"): Poly()}),
     ValueError, "wedge letter 'z' not a coordinate"),
    ("form-first-bad-term-wins",
     lambda: Form(I2C, {("b", "a"): Poly.const(1), ("z",): Poly.const(1)}),
     ValueError, "wedge ('b', 'a') not in coordinate order"),
]


@pytest.mark.parametrize("build, error, message", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_public_constructors_reject_with_their_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert caught.type is error and caught.value.args == (message,)


def test_public_constructors_accept_what_they_check():
    assert CubeTorusSpace(()).names() == ()
    assert _projection({"p": "a", "q": "c"}, ("b",)).fiber == ("b",)
    assert _projection({"p": "b", "q": "c"}, ("a",)).injection == (("p", "b"), ("q", "c"))
    half = _smooth({"p": ("poly", Poly.const(Fraction(1, 2))), "q": ("const-circle",)})
    assert half.assignments[1] == ("q", ("const-circle",))
    flip = _smooth({"p": ("poly", Poly.const(1) - Poly.var("b")), "q": ("circle", "c", -1)})
    assert flip.assignments[1] == ("q", ("circle", "c", -1))
    assert Form(I2C, {("a", "b"): Poly()}).is_zero()
    assert Poly({(): 0}).terms == {}


def test_form_message_names_the_same_variable_under_every_hash_seed():
    """Two variables that are not interval coordinates: the message names the
    smallest, whatever order the string hashes give a set of them."""
    code = ("from ainfsign.geomodel import Form, Poly, space\n"
            "try:\n"
            "    Form(space(('a', 'interval'), ('c', 'circle')), {(): Poly.var('c') * Poly.var('z')})\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    messages = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    assert messages == {"coefficient uses 'c', not an interval coordinate of the space\n"}


def test_models_are_slotted_and_frozen():
    sp = space(("t", "interval"), ("th", "circle"))
    proj = projection(sp, space(("th", "circle")), {"th": "th"})
    leg = proj.as_smooth()
    corr = CorrespondenceModel(proj, (leg,))
    for model, field in ((sp, "coords"), (proj, "fiber"), (leg, "assignments"), (corr, "ev_in")):
        assert "__slots__" in type(model).__dict__, type(model)
        assert not hasattr(model, "__dict__"), type(model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field, ())
    # The public constructors rebuild a model from its fields through
    # validation, tables and all.
    rebuilt = (CubeTorusSpace(sp.coords),
               ProjectionMap(proj.source, proj.target, proj.injection, proj.fiber),
               SmoothMapModel(leg.source, leg.target, leg.assignments))
    for model, again in zip((sp, proj, leg), rebuilt):
        assert again == model and again is not model
    assert ProjectionMap(proj.source, proj.target, proj.injection, ("t",))._rank == proj._rank
    with pytest.raises(ValueError, match="unknown coordinate kind 'disk'"):
        CubeTorusSpace((("t", "disk"),))


# --- integral values are ints ----------------------------------------------------


def _integral_fractions(numbers):
    return [c for c in numbers if c.__class__ is Fraction and c.denominator == 1]


def _coefficients(form):
    return [c for poly in form.terms.values() for c in poly.terms.values()]


def test_integral_values_are_ints():
    """No coefficient the draws, pushforward or integrate make is a Fraction
    with denominator 1."""
    rng = random.Random(5)
    fresh = NameSource()
    made, integrals = [], []
    for _ in range(200):
        p = random_bundle(rng, 4, fresh)
        beta = random_form(rng, p.source, 3)
        made += _coefficients(beta) + _coefficients(pushforward(p, beta))
        f = random_smooth_map(rng, p.source, random_space(rng, 3, fresh, prefix="m"))
        made += [c for _, a in f.assignments if a[0] == "poly" for c in a[1].terms.values()]
        integrals.append(integrate(beta))
    for _ in range(20):
        made += [c for xi in random_mock_instance(rng)[3] for c in _coefficients(xi)]
    for seed in range(20):  # the constant 0, 1/2 or 1 of an interval out of a point
        made += list(checks._unit_valued_poly(random.Random(seed), ()).terms.values())
    assert not _integral_fractions(made + integrals)
    assert {c.__class__ for c in made} == {c.__class__ for c in integrals} == {int, Fraction}
    # 4t dt over the unit interval is 4/2, and 2t dt integrates to 1.
    t = space(("t", "interval"))
    pushed = pushforward(projection(t, CubeTorusSpace(()), {}), Form(t, {("t",): Poly.var("t").scale(4)}))
    assert pushed.terms[()].terms[()].__class__ is int
    assert integrate(Form(t, {("t",): Poly.var("t").scale(2)})).__class__ is int
    # The public constructors store an integral Fraction as its int.
    assert Poly({(): Fraction(2, 1)}).terms[()].__class__ is int
    assert Poly.const(Fraction(4, 2)).terms == {(): 2}
    assert Poly.const(Fraction(4, 2)).terms[()].__class__ is int
    assert Poly({(("t", 1),): Fraction(-6, 3), (): Fraction(1, 2)}).terms == {(("t", 1),): -2, (): Fraction(1, 2)}
    assert not _integral_fractions(Poly({(("t", 1),): Fraction(-6, 3)}).terms.values())


# --- no result shares an input's dict --------------------------------------------


def _polys_of(value):
    """The polynomials an input or a result holds: itself, a form's
    coefficients, a map's assignment polynomials."""
    if isinstance(value, Poly):
        return [value]
    if isinstance(value, Form):
        return list(value.terms.values())
    if isinstance(value, dict):
        return list(value.values())
    return [a[1] for _, a in value.assignments if a[0] == "poly"]


def _snapshot(value):
    dicts = [value.terms] if isinstance(value, Form) else []
    return [(id(d), dict(d)) for d in dicts + [p.terms for p in _polys_of(value)]]


def _call_shares_nothing(call, *inputs):
    """Run ``call(*inputs)``: every input keeps its terms, and the result
    neither is held in an input's dict nor gives a new coefficient one."""
    before = [_snapshot(x) for x in inputs]
    held = {key for snap in before for key, _ in snap}
    input_polys = {id(p) for x in inputs for p in _polys_of(x)}
    result = call(*inputs)
    assert [_snapshot(x) for x in inputs] == before, call
    if any(result is x for x in inputs):
        return  # an input returned as it is
    assert id(result.terms) not in held, call
    for poly in _polys_of(result):
        assert id(poly) in input_polys or id(poly.terms) not in held, call


def test_kernels_share_no_dict_with_their_inputs():
    rng = random.Random(11)
    fresh = NameSource()
    for _ in range(150):
        p = random_bundle(rng, 4, fresh)
        beta = random_form(rng, p.source, 3)
        other = random_form(rng, p.source, 3)
        f = random_smooth_map(rng, random_space(rng, 3, fresh, prefix="s"), p.source)
        for call, inputs in (
            (wedge, (beta, other)),
            (wedge, (beta, Form.one(p.source))),
            (lambda form, _f: pullback(_f, form), (beta, f)),
            (lambda form: pullback(p.as_smooth(), form), (random_form(rng, p.target, 3),)),
            (lambda form: pushforward(p, form), (beta,)),
            (lambda form: boundary_pushforward(p, form), (beta,)),
            (exterior_derivative, (beta,)),
            (Form.__add__, (beta, other)),
            (Form.__neg__, (beta,)),
            (lambda form: form.scale(Fraction(-2, 3)), (beta,)),
            (lambda form: form.scale(1), (beta,)),
        ):
            _call_shares_nothing(call, *inputs)
        polys = [q for form in (beta, other) for q in form.terms.values()] or [Poly.const(1)]
        a, b = rng.choice(polys), rng.choice(polys)
        names = sorted(a.variables() | b.variables())
        replacements = {v: rng.choice(polys + [Poly.var(v), Poly.const(0)]) for v in names}
        for call, inputs in (
            (Poly.__mul__, (a, b)),
            (Poly.__mul__, (a, Poly.const(1))),
            (Poly.__add__, (a, b)),
            (Poly.__add__, (a, Poly())),
            (Poly.__neg__, (a,)),
            (Poly.subst, (a, replacements)),
            (Poly.subst, (a, {})),
            (lambda x: x.scale(3), (a,)),
            (lambda x: x.scale(-1), (a,)),
            (lambda x: x.partial(names[0] if names else "t"), (a,)),
        ):
            _call_shares_nothing(call, *inputs)
