import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from ainfsign import signs
from ainfsign.geomodel import (
    CorrespondenceModel,
    CubeTorusSpace,
    Form,
    Poly,
    ProjectionMap,
    SmoothMapModel,
    apply_correspondence,
    boundary_pushforward,
    bundle_orientation_sign,
    check_pushpull_identities,
    compose_projection,
    compose_smooth,
    derived_node_parity,
    exterior_derivative,
    fiber_product,
    integrate,
    mock_operation,
    projection,
    pullback,
    pullback_bundle,
    pushforward,
    random_form,
    random_mock_instance,
    run_all_checks,
    smooth_map,
    space,
    verify_composition,
    verify_pushpull,
    verify_stokes,
    wedge,
)
from ainfsign.geomodel import checks, core
from ainfsign.geomodel.checks import NameSource, random_bundle, random_smooth_map, random_space

I_T = space(("t", "interval"))
S_TH = space(("th", "circle"))
M_TT = space(("t", "interval"), ("th", "circle"))
I_2 = space(("t1", "interval"), ("t2", "interval"))
I2_C = space(("t1", "interval"), ("t2", "interval"), ("c", "circle"))
POINT = CubeTorusSpace(())


def test_merge_sign_matches_an_inversion_count():
    """Every sequence of up to 5 letters over 6 names, repeats included."""
    names = ["f", "b", "e", "a", "d", "c"]
    order = {x: i for i, x in enumerate(names)}
    for n in range(6):
        for letters in itertools.product(names, repeat=n):
            ranks = [order[x] for x in letters]
            if len(set(ranks)) < n:
                expected = (0, ())
            else:
                inversions = sum(ranks[i] > ranks[m] for i in range(n) for m in range(i + 1, n))
                expected = ((-1) ** inversions, tuple(names[r] for r in sorted(ranks)))
            assert core._merge_sign(letters, order) == expected, letters
            assert core._merge_sign(list(letters), order) == expected, letters
    with pytest.raises(KeyError):
        core._merge_sign(("z",), order)


def test_wedge_nilpotence():
    dt = Form(I_T, {("t",): Poly.const(1)})
    assert wedge(dt, dt).is_zero()


def test_exterior_derivative_of_polynomial():
    f = Form(I_T, {(): Poly.var("t", 2)})
    assert exterior_derivative(f) == Form(I_T, {("t",): Poly.var("t").scale(2)})


def test_d_squared_is_zero():
    rng = random.Random(0)
    for _ in range(50):
        sp = space(("a", "interval"), ("b", "interval"), ("c", "circle"))
        form = random_form(rng, sp, 3)
        assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_wedge_associative():
    rng = random.Random(19)
    sp = space(("a", "interval"), ("b", "interval"), ("c", "circle"), ("e", "circle"))
    for _ in range(40):
        x = random_form(rng, sp, 2)
        y = random_form(rng, sp, 2)
        z = random_form(rng, sp, 2)
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


def test_wedge_graded_commutative():
    rng = random.Random(1)
    sp = space(("a", "interval"), ("b", "interval"), ("c", "circle"))
    for _ in range(50):
        p = rng.randrange(0, 4)
        q = rng.randrange(0, 4)
        alpha = random_form(rng, sp, 2, degree=p)
        beta = random_form(rng, sp, 2, degree=q)
        lhs = wedge(alpha, beta)
        rhs = wedge(beta, alpha).scale((-1) ** (p * q))
        assert lhs == rhs


def test_pullback_is_ring_map_commuting_with_d():
    rng = random.Random(2)
    src = space(("u", "interval"), ("v", "interval"), ("c", "circle"))
    tgt = space(("x", "interval"), ("y", "circle"))
    f = smooth_map(
        src, tgt,
        {"x": ("poly", Poly.var("u") * Poly.var("v")), "y": ("circle", "c", -1)},
    )
    for _ in range(40):
        a = random_form(rng, tgt, 2)
        b = random_form(rng, tgt, 2)
        assert pullback(f, wedge(a, b)) == wedge(pullback(f, a), pullback(f, b))
        assert pullback(f, exterior_derivative(a)) == exterior_derivative(pullback(f, a))


def test_interval_assignment_range_checked():
    with pytest.raises(ValueError):
        smooth_map(I_T, I_T, {"t": ("poly", Poly.var("t").scale(2))})
    with pytest.raises(ValueError):
        smooth_map(I_T, I_T, {"t": ("poly", Poly.var("t") - Poly.const(1))})


@pytest.mark.parametrize("bad", [0.5, 0.0, "3", True, False])
def test_poly_rejects_coefficients_that_are_not_exact(bad):
    with pytest.raises(ValueError, match=r"monomial \(\('t', 2\),\) is not an int or a Fraction"):
        Poly({(("t", 2),): bad})
    assert Poly({(("t", 2),): 3}) == Poly({(("t", 2),): Fraction(3)})


@pytest.mark.parametrize("mono", [
    (("t", 0),),  # would differ from the constant 1
    (("t", -1),),  # would print as t
    (("u", 1), ("t", 1)),  # would differ from its sorted twin
    (("t", 1), ("t", 1)),  # would differ from t^2
    (("t", True),),
    ("t", 1),
    "t",
])
def test_poly_rejects_monomials_that_are_not_canonical(mono):
    with pytest.raises(ValueError, match=r"monomial .* is not \(name, power >= 1\) pairs sorted by name"):
        Poly({mono: 1})
    assert Poly({(("t", 1), ("u", 2)): 1, (): 1}) == Poly.var("t") * Poly.var("u", 2) + Poly.const(1)


@pytest.mark.parametrize("bad", [0.5, 0.1, "1/2", True])
def test_scaling_and_constants_reject_numbers_that_are_not_exact(bad):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Poly.const(bad)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Poly.var("t").scale(bad)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Form(I_T, {("t",): Poly.const(1)}).scale(bad)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        Form(I_T).scale(bad)
    assert Poly.const(3).terms == {(): 3} and Poly.var("t").scale(Fraction(1, 2)) == Poly(
        {(("t", 1),): Fraction(1, 2)})


def test_unit_range_checked_above_six_variables():
    seven = space(*((f"x{i}", "interval") for i in range(7)))
    target = space(("y", "interval"))
    total = Poly()
    product = Poly.const(1)
    for i in range(7):
        total = total + Poly.var(f"x{i}")
        product = product * Poly.var(f"x{i}")
    with pytest.raises(ValueError, match="leaves"):
        smooth_map(seven, target, {"y": ("poly", total)})
    with pytest.raises(ValueError, match="leaves"):
        smooth_map(seven, target, {"y": ("poly", total - Poly.var("x6"))})
    smooth_map(seven, target, {"y": ("poly", product)})


def test_pullback_diagonal():
    diag = smooth_map(I_T, I_2, {"t1": ("poly", Poly.var("t")), "t2": ("poly", Poly.var("t"))})
    form = Form(I_2, {("t2",): Poly.var("t1")})
    assert pullback(diag, form) == Form(I_T, {("t",): Poly.var("t")})


def test_pushforward_unit_fiber_volume():
    p = projection(I_T, POINT, {})
    assert pushforward(p, Form(I_T, {("t",): Poly.const(1)})) == Form.one(POINT)


def test_pushforward_reorder_sign():
    p = projection(M_TT, S_TH, {"th": "th"})
    beta = Form(M_TT, {("t", "th"): Poly.var("t")})
    assert pushforward(p, beta) == Form(S_TH, {("th",): Poly.const(Fraction(-1, 2))})


def test_pushforward_degree_obstruction():
    p = projection(I_T, POINT, {})
    assert pushforward(p, Form(I_T, {(): Poly.var("t")})).is_zero()


def test_pushforward_lowers_degree_by_reldim():
    rng = random.Random(3)
    for _ in range(30):
        p = random_bundle(rng, 4, NameSource())
        deg = rng.randrange(p.reldim, p.source.dimension + 1)
        beta = random_form(rng, p.source, 2, degree=deg)
        out = pushforward(p, beta)
        if not out.is_zero():
            assert out.degree() == deg - p.reldim


def test_stokes_worked_example():
    # projection of the interval to the point applied to the coordinate
    # function: interior and boundary contributions cancel
    p = projection(I_T, POINT, {})
    beta = Form(I_T, {(): Poly.var("t")})
    lhs = exterior_derivative(pushforward(p, beta))
    boundary = boundary_pushforward(p, beta)
    assert integrate(boundary) == 1  # value at 1 minus value at 0
    sign = (-1) ** ((I_T.dimension + 0) % 2)
    assert lhs == pushforward(p, exterior_derivative(beta)) + boundary.scale(sign)


def test_identity_correspondence():
    ident = projection(M_TT, M_TT, {"t": "t", "th": "th"})
    corr = CorrespondenceModel(ident, (ident.as_smooth(),))
    rng = random.Random(4)
    for _ in range(10):
        xi = random_form(rng, M_TT, 2)
        assert apply_correspondence(corr, (xi,)) == xi


def test_correspondence_collapse_example():
    f1 = projection(M_TT, S_TH, {"th": "th"})
    f2 = smooth_map(M_TT, I_T, {"t": ("poly", Poly.var("t"))})
    corr = CorrespondenceModel(f1, (f2,))
    assert apply_correspondence(corr, (Form(I_T, {("t",): Poly.const(1)}),)) == Form.one(S_TH)


def test_correspondence_model_is_frozen_and_validates_legs():
    ident = projection(M_TT, M_TT, {"t": "t", "th": "th"})
    legs = [ident.as_smooth(), ident.as_smooth()]
    corr = CorrespondenceModel(ident, legs)
    legs.clear()
    assert corr.ev_in == (ident.as_smooth(), ident.as_smooth()) and corr.k == 2
    assert corr.space == M_TT
    assert corr.ev_out.reldim == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        corr.ev_in = ()
    with pytest.raises(ValueError, match="input legs"):
        CorrespondenceModel(ident, (projection(I_T, I_T, {"t": "t"}).as_smooth(),))
    with pytest.raises(ValueError, match="expected 2 inputs"):
        apply_correspondence(corr, (Form.one(M_TT),))


def test_fiber_product_identity_factors():
    ident = projection(M_TT, M_TT, {"t": "t", "th": "th"})
    c = CorrespondenceModel(ident, (ident.as_smooth(),))
    glued = fiber_product(c, c, 1)
    rng = random.Random(5)
    for _ in range(10):
        xi = random_form(rng, M_TT, 2)
        assert apply_correspondence(glued, (xi,)) == xi


def test_fiber_product_orders_glued_fiber_by_composite_output_leg():
    """Corr13 == Corr12 after Corr23 when the right-hand output leg is a
    composite projection whose fiber order, (b, a, rr), is not the order of
    its source's coordinates: the glued fiber must follow the leg's fiber."""
    x23 = space(("a", "interval"), ("b", "interval"), ("mm", "interval"), ("rr", "interval"))
    y = space(("yb", "interval"), ("ym", "interval"))
    m1 = space(("p", "interval"))
    m2 = space(("m", "interval"))
    m3 = space(*((f"r{i}", "interval") for i in range(1, 5)))
    out23 = compose_projection(
        projection(y, m2, {"m": "ym"}), projection(x23, y, {"yb": "b", "ym": "mm"})
    )
    assert out23.fiber == ("b", "a", "rr")
    in23 = projection(x23, m3, {"r1": "a", "r2": "b", "r3": "rr", "r4": "mm"}).as_smooth()
    c23 = CorrespondenceModel(out23, (in23,))
    x12 = space(("pp", "interval"), ("mq", "interval"))
    c12 = CorrespondenceModel(
        projection(x12, m1, {"p": "pp"}), (projection(x12, m2, {"m": "mq"}).as_smooth(),)
    )
    c13 = fiber_product(c12, c23, 1)
    rng = random.Random(1)
    nonzero = 0
    for _ in range(200):
        xi = random_form(rng, m3, 2, degree=4)
        nested = apply_correspondence(c12, (apply_correspondence(c23, (xi,)),))
        assert apply_correspondence(c13, (xi,)) == nested, xi
        nonzero += not nested.is_zero()
    assert nonzero >= 190


def _overlapping_spans():
    """An outer span with two inputs and an inner span on the same space
    (x, y, th), so the inner fiber's names are all taken in the outer space."""
    sp = space(("x", "interval"), ("y", "interval"), ("th", "circle"))
    node = space(("n", "interval"))
    inner = CorrespondenceModel(
        projection(sp, node, {"n": "x"}), (smooth_map(sp, I2_C, {
            "t1": ("poly", Poly.var("y")), "t2": ("poly", Poly.var("x") * Poly.var("y")),
            "c": ("circle", "th", -1)}),)
    )
    outer = CorrespondenceModel(
        projection(sp, I_T, {"t": "y"}),
        (projection(sp, S_TH, {"th": "th"}).as_smooth(), projection(sp, node, {"n": "x"}).as_smooth()),
    )
    return outer, inner


def _glued_at_slot_two_matches_nested(outer, inner, seed):
    """The slot-2 fiber product of ``_overlapping_spans``-shaped spans acts
    on 60 seeded input pairs as the inner span's output fed to slot 2,
    nonzero on at least 50 of them; returns the glued span."""
    glued = fiber_product(outer, inner, 2)
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(60):
        xi1 = random_form(rng, S_TH, 2, degree=1)
        xi2 = random_form(rng, I2_C, 2, degree=3)
        nested = apply_correspondence(outer, (xi1, apply_correspondence(inner, (xi2,))))
        assert apply_correspondence(glued, (xi1, xi2)) == nested, (xi1, xi2)
        nonzero += not nested.is_zero()
    assert nonzero >= 50
    return glued


def test_fiber_product_renames_overlapping_names_and_matches_nested():
    outer, inner = _overlapping_spans()
    glued = _glued_at_slot_two_matches_nested(outer, inner, 12)
    assert glued.space.names() == ("x", "y", "th", "gy_", "gth_")
    assert glued.ev_out.fiber == ("x", "th", "gy_", "gth_")


def test_fiber_product_rejects_bad_slots():
    """A slot outside the span or a leg off the node is rejected; a slot-j
    leg that is not a projection (here 1 - x) is base change all the same."""
    outer, inner = _overlapping_spans()
    with pytest.raises(ValueError, match="outside 1..2"):
        fiber_product(outer, inner, 3)
    with pytest.raises(ValueError, match="share the node"):
        fiber_product(outer, inner, 1)
    flipped = smooth_map(outer.space, inner.ev_out.target, {"n": ("poly", Poly.const(1) - Poly.var("x"))})
    bent = CorrespondenceModel(outer.ev_out, (outer.ev_in[0], flipped))
    _glued_at_slot_two_matches_nested(bent, inner, 13)


def test_composition_formula_randomized():
    result = verify_composition(trials=150, seed=21)
    assert result.passed, result.witness
    assert result.stats["odd_degree_inputs"] > 20
    assert result.stats["nontrivial"] >= 135, result.stats


def test_run_all_checks_runs_pushpull_last_on_request(monkeypatch):
    """Without push-pull trials the seven checkers run; with them
    mock-pushpull runs last, on the run's own seed."""
    assert [r.name for r in run_all_checks(2, 4, 3, 2)] == [
        "projection-formula", "functoriality", "base-change", "stokes",
        "correspondence-stokes", "composition", "defining-property",
    ]
    reorder = signs.pushpull_reorder_sign
    monkeypatch.setattr(signs, "pushpull_reorder_sign", lambda ctx: (reorder(ctx) + 1) % 2)
    results = run_all_checks(2, 4, 3, 2, pushpull_trials=3)
    assert len(results) == 8 and results[-1].name == "mock-pushpull"
    alone = verify_pushpull(3, 4)
    assert results[-1].witness == alone.witness and results[-1].witness
    assert results[-1].stats == alone.stats
    assert results[-1].witness != verify_pushpull(3, 11).witness


def test_all_identities_randomized():
    for result in run_all_checks(trials=120, seed=17):
        assert result.passed, (result.name, result.witness)
        # Every checker counts the trials it ran and the nontrivial ones first.
        trials, nontrivial = list(result.stats.items())[:2]
        assert trials == ("trials", 120), result.stats
        assert nontrivial[0] == "nontrivial" and 0 <= nontrivial[1] <= 120, result.stats


def test_stokes_boundary_coverage():
    result = verify_stokes(trials=120, seed=9)
    assert result.passed
    assert result.stats["with_boundary"] >= 60


def test_composite_projection_functorial_orientation():
    p = projection(M_TT, S_TH, {"th": "th"})
    q = projection(S_TH, POINT, {})
    qp = compose_projection(q, p)
    assert qp.fiber == ("th", "t")  # outer fiber first
    beta = Form(M_TT, {("t", "th"): Poly.var("t")})
    assert pushforward(qp, beta) == pushforward(q, pushforward(p, beta))


def test_bundle_orientation_sign():
    p = projection(M_TT, S_TH, {"th": "th"})
    # listed (t, th) vs bundle (th, t): one transposition
    assert bundle_orientation_sign(p) == -1
    assert bundle_orientation_sign(projection(I_T, POINT, {})) == 1


# --- mock moduli -----------------------------------------------------------


def test_constant_map_mock_is_signed_wedge():
    ident = projection(M_TT, M_TT, {"t": "t", "th": "th"})
    mock = CorrespondenceModel(ident, (ident.as_smooth(), ident.as_smooth()))
    rng = random.Random(6)
    for _ in range(20):
        d1 = rng.randrange(0, 3)
        d2 = rng.randrange(0, 3)
        x1 = random_form(rng, M_TT, 2, degree=d1)
        x2 = random_form(rng, M_TT, 2, degree=d2)
        assert mock_operation(mock, (0, 0), (x1, x2)) == wedge(x1, x2).scale((-1) ** d1)


def test_unary_identity_mock():
    ident = projection(I_2, I_2, {"t1": "t1", "t2": "t2"})
    mock = CorrespondenceModel(ident, (ident.as_smooth(),))
    rng = random.Random(7)
    for _ in range(10):
        deg = rng.randrange(0, 3)
        xi = random_form(rng, I_2, 2, degree=deg)
        assert mock_operation(mock, (0,), (xi,)) == xi.scale((-1) ** deg)


def test_mock_output_degree_matches_parity_contract():
    rng = random.Random(8)
    found = 0
    while found < 15:
        outer, inner, j, xis, mus = random_mock_instance(rng)
        out = mock_operation(inner, mus[j - 1 : j - 1 + inner.k], xis[j - 1 : j - 1 + inner.k])
        if out.is_zero():
            continue
        found += 1
        mu_node = derived_node_parity(inner, mus[j - 1 : j - 1 + inner.k])
        expected = signs.output_degree_parity(
            [x.degree() for x in xis[j - 1 : j - 1 + inner.k]],
            mus[j - 1 : j - 1 + inner.k],
            mu_node,
        )
        assert out.degree() % 2 == expected


def test_pushpull_identity_suite():
    result = verify_pushpull(trials=60, seed=13)
    assert result.passed, result.witness
    assert result.stats == {"trials": 60, "nontrivial": 60}


def test_pushpull_reports_first_failure_of_flipped_reorder_sign(monkeypatch):
    """With the reorder sign flipped as ``geomodel.checks`` sees it, the
    first nontrivial instance fails, and its witness is numbered by its
    trial like every other checker's."""
    reorder = signs.pushpull_reorder_sign
    monkeypatch.setattr(signs, "pushpull_reorder_sign", lambda ctx: (reorder(ctx) + 1) % 2)
    result = verify_pushpull(30, 1)
    assert json.dumps(result.witness) == json.dumps({
        "trial": 0, "j": 1, "k": 3, "k_inner": 3, "mu_node": 1, "reorder_sign": 1,
        "nested": "29/9",
    })
    assert result.stats == {"trials": 1, "nontrivial": 1}


def test_pushpull_trivial_mock_case():
    node = space(("n", "interval"))
    ident = projection(node, node, {"n": "n"})
    inner = CorrespondenceModel(ident, (ident.as_smooth(),))
    outer = CorrespondenceModel(ident, (ident.as_smooth(),))
    xi = Form(node, {("n",): Poly.const(1)})
    report = check_pushpull_identities(outer, inner, 1, (xi,), (0,))
    assert report.passed


def test_reorder_sign_mutation_detected():
    rng = random.Random(14)
    for _ in range(50):
        outer, inner, j, xis, mus = random_mock_instance(rng)
        report = check_pushpull_identities(outer, inner, j, xis, mus, mutate_reorder_sign=1)
        assert report.nontrivial and not report.nested_vs_glued


def _bent_leg(rng, leg):
    """``leg`` with each target coordinate sent through a map that is not a
    projection: v^2 or 1 - v for an interval, the reversed circle for a
    circle."""
    table = {}
    for name, assignment in leg.assignments:
        if assignment[0] == "poly":
            v = assignment[1]
            table[name] = ("poly", rng.choice([v * v, Poly.const(1) - v]))
        else:
            table[name] = ("circle", assignment[1], -assignment[2])
    return smooth_map(leg.source, leg.target, table)


def test_pushpull_glues_along_any_node_leg():
    """Gluing is base change along any smooth slot-j leg, as in the paper's
    fiber product, where only ev_0 must be a submersion: with the node leg
    of drawn mocks bent to v^2, 1 - v or a reversed circle, all three
    identities hold on nonzero forms, and a flipped reorder sign is caught
    on every bent instance."""
    rng = random.Random(5)
    bent_instances, node_kinds = 0, set()
    for _ in range(300):
        outer, inner, j, xis, mus = random_mock_instance(rng)
        leg = outer.ev_in[j - 1]
        if not leg.target.dimension:
            continue  # a point node: every leg to it is the same map
        bent_instances += 1
        node_kinds.update(kind for _, kind in leg.target.coords)
        legs = outer.ev_in[: j - 1] + (_bent_leg(rng, leg),) + outer.ev_in[j:]
        outer = CorrespondenceModel(outer.ev_out, legs)
        report = check_pushpull_identities(outer, inner, j, xis, mus)
        assert report.passed and report.nontrivial, report.detail
        flipped = check_pushpull_identities(outer, inner, j, xis, mus, mutate_reorder_sign=1)
        assert not flipped.nested_vs_glued, flipped.detail
    assert bent_instances >= 150 and node_kinds == {"interval", "circle"}


def test_mock_instance_names_do_not_depend_on_earlier_draws():
    first = random_mock_instance(random.Random(3))
    second = random_mock_instance(random.Random(3))
    assert first == second


def test_mock_instances_are_nontrivial_at_every_arity():
    """Every drawn instance has a nonzero nested form and passes; the draws
    cover total arity 1..5, inner arity 0..3 and output legs whose fiber
    order is not their source's coordinate order."""
    rng = random.Random(23)
    arities, inner_arities, shuffled = set(), set(), 0
    for _ in range(300):
        outer, inner, j, xis, mus = random_mock_instance(rng)
        report = check_pushpull_identities(outer, inner, j, xis, mus)
        assert report.nontrivial and report.passed, report.detail
        arities.add(len(xis))
        inner_arities.add(inner.k)
        shuffled += any(
            leg.fiber != tuple(n for n in leg.source.names() if n in leg.fiber)
            for leg in (outer.ev_out, inner.ev_out)
        )
    assert arities == {1, 2, 3, 4, 5}
    assert inner_arities == {0, 1, 2, 3}
    assert shuffled >= 50


def test_pushpull_identities_hold_at_inner_arity_zero():
    """A splitting with no inner inputs: the inner span has no fiber, so the
    node carries the unit 0-form, the derived node parity is 0, and all
    three identities hold on nonzero forms, with the reorder sign that the
    boundary-sign formula gives verbatim at k_inner = 0."""
    rng = random.Random(29)
    seen = 0
    while seen < 40:
        outer, inner, j, xis, mus = random_mock_instance(rng)
        if inner.k:
            continue
        seen += 1
        assert inner.ev_out.reldim == 0 and outer.k >= 2
        report = check_pushpull_identities(outer, inner, j, xis, mus)
        assert report.passed and report.nontrivial, report.detail
        assert report.detail["mu_node"] == 0 and report.detail["k_inner"] == 0
        flipped = check_pushpull_identities(outer, inner, j, xis, mus, mutate_reorder_sign=1)
        assert not flipped.nested_vs_glued


def _source_order_gluing(pullback_bundle_):
    """``pullback_bundle`` with the bundle's fiber listed in its source's
    coordinate order instead of its own fiber order: the gluing bug that a
    composite or shuffled output leg exposes."""
    def glue(p, f):
        fiber = tuple(n for n in p.source.names() if n in p.fiber)
        return pullback_bundle_(ProjectionMap(p.source, p.target, p.injection, fiber), f)
    return glue


def test_randomized_checkers_catch_source_order_gluing(monkeypatch):
    assert verify_pushpull(100, 0).passed and verify_composition(500, 0).passed
    monkeypatch.setattr(core, "pullback_bundle", _source_order_gluing(core.pullback_bundle))
    assert not verify_pushpull(100, 0).passed
    assert not verify_composition(500, 0).passed


# --- failure path of the calculus checkers -------------------------------------


def _odd_source_pullback(f, form):
    """Pullback with its sign flipped when the map's source has odd dimension."""
    out = pullback(f, form)
    return out.scale(-1) if f.source.dimension % 2 else out


def _negated(kernel):
    return lambda *args: kernel(*args).scale(-1)


# Each checker with one kernel corrupted as ``geomodel.checks`` sees it, run
# at trials=30, seed=1, max_coords=3, max_poly_deg=2: the witness of the first
# failing trial and the stats counted up to it (the trials run, the nontrivial
# ones, then the checker's own counts), dict key order included.
CORRUPTED_CHECKERS = {
    "verify_projection_formula": (
        "pullback", _odd_source_pullback,
        {"trial": 0, "theta": "(3*b2 + -3/2*b2^2) + -1*db2", "beta": "2*x1^2",
          "lhs": "(-6*b2^3 + 3*b2^4) + 2*b2^2*db2", "rhs": "(6*b2^3 + -3*b2^4) + -2*b2^2*db2"},
        {"trials": 1, "nontrivial": 1},
    ),
    "verify_functoriality": (
        "pullback", _odd_source_pullback,
        {"trial": 0, "beta": "(1 + 1/2*x1^2)*dx1", "theta": "(-3 + 2*b2^2)",
          "composite": "(1 + 1/2*c3^2)*dc3", "staged": "(1 + 1/2*c3^2)*dc3",
          "iterated_lhs": "(3 + -1/2*c3^2 + -1*c3^4)*dc3", "iterated_rhs": "(-3 + 1/2*c3^2 + c3^4)*dc3"},
        {"trials": 1, "nontrivial": 1},
    ),
    "verify_base_change": (
        "pullback", _odd_source_pullback,
        {"trial": 2, "beta": "2*dx11", "lhs": "2", "rhs": "-2"},
        {"trials": 3, "nontrivial": 3},
    ),
    "verify_stokes": (
        "boundary_pushforward", _negated(boundary_pushforward),
        {"trial": 0, "beta": "(-1 + 1/2*x1)", "lhs": "0", "rhs": "1"},
        {"trials": 1, "nontrivial": 1, "with_boundary": 1},
    ),
    "verify_corr_stokes": (
        "boundary_pushforward", _negated(boundary_pushforward),
        {"trial": 18, "xi": "(-2 + 3*m79^2)*dm78 + -1/2*dm79", "lhs": "0", "rhs": "6"},
        {"trials": 19, "nontrivial": 1, "with_boundary": 13},
    ),
    "verify_composition": (
        "apply_correspondence", _negated(apply_correspondence),
        {"trial": 0, "xi": "6*di8^di9^di10", "lhs": "-6", "rhs": "6"},
        {"trials": 1, "nontrivial": 1, "odd_degree_inputs": 1},
    ),
    "verify_defining_property": (
        "pullback", _odd_source_pullback,
        {"trial": 0, "theta": "2*b2^2", "beta": "(3*x1 + -3/2*x1^2) + -1*dx1",
          "base_integral": "-2/3", "total_integral": "2/3"},
        {"trials": 1, "nontrivial": 1},
    ),
}


@pytest.mark.parametrize("checker", list(CORRUPTED_CHECKERS))
def test_checker_reports_first_failure_of_corrupted_kernel(checker, monkeypatch):
    kernel, corrupted, witness, stats = CORRUPTED_CHECKERS[checker]
    monkeypatch.setattr(checks, kernel, corrupted)
    result = getattr(checks, checker)(30, 1, 3, 2)
    assert not result.passed
    assert json.dumps(result.witness) == json.dumps(witness)
    assert json.dumps(result.stats) == json.dumps(stats)


# --- kernel regression tests ----------------------------------------------------


def _range_oracle(poly, name):
    """The rational lattice evaluation the integer range check must agree with."""
    vars_ = sorted(poly.variables())
    lattice = [Fraction(0), Fraction(1, 2), Fraction(1)]
    points = [{}]
    for v in vars_:
        points = [dict(pt, **{v: x}) for pt in points for x in lattice]
    for pt in points:
        value = poly.subst({v: Poly.const(x) for v, x in pt.items()})
        assert value.variables() == frozenset()
        val = value.terms.get((), 0)
        if not 0 <= val <= 1:
            return f"assignment for {name!r} leaves [0,1] at {pt} (value {val})"
    return None


def _random_range_candidate(rng, names):
    """Either an arbitrary polynomial or a convex combination of unit-valued
    pieces, sometimes nudged by 1/8, so both verdicts occur near the edge."""
    if rng.random() < 0.5:
        poly = Poly()
        for _ in range(rng.randrange(1, 5)):
            mono = {v: rng.randrange(0, 4) for v in names}
            mono = tuple(sorted((v, p) for v, p in mono.items() if p))
            poly = poly + Poly({mono: Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 4, 6]))})
        return poly
    v, w = rng.choice(names), rng.choice(names)
    pieces = [Poly.var(v), Poly.const(1) - Poly.var(v), Poly.var(v) * Poly.var(w),
              Poly.var(v, 3), Poly.const(Fraction(rng.randrange(0, 5), 4))]
    weights = [Fraction(rng.randrange(0, 4), 12) for _ in pieces]
    poly = Poly()
    for weight, piece in zip(weights, pieces):
        poly = poly + piece.scale(weight)
    if rng.random() < 0.5:
        poly = poly + Poly.const(Fraction(rng.choice([-1, 1]), 8))
    return poly


def test_integer_range_check_agrees_with_rational_oracle():
    source = space(("a", "interval"), ("b", "interval"), ("c", "interval"), ("th", "circle"))
    target = space(("t", "interval"))
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        names = tuple(rng.sample(source.interval_names(), rng.randrange(0, 4)))
        poly = _random_range_candidate(rng, names) if names else Poly.const(
            Fraction(rng.randrange(-2, 7), 4))
        expected = _range_oracle(poly, "t")
        try:
            smooth_map(source, target, {"t": ("poly", poly)})
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, poly
        verdicts[expected is None] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 300, verdicts


def _subst_multiplied_out(poly, replacements):
    """Substitution by multiplying in every factor of every monomial, one at
    a time: the oracle for the kernel's ``Poly.subst``."""
    out = Poly()
    for mono, c in poly.terms.items():
        piece = Poly.const(c)
        for v, p in mono:
            base = replacements.get(v, Poly.var(v))
            for _ in range(p):
                piece = piece * base
        out = out + piece
    return out


def _random_replacement(rng, names):
    """A variable, a constant (0, 1/2 and 1 among them), a scaled monomial
    or a sum of two or three terms, over variables that may be replaced
    themselves."""
    kind = rng.randrange(4)
    if kind == 0:
        return Poly.var(rng.choice(names))
    if kind == 1:
        return Poly.const(rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-2, 3), 3]))
    if kind == 2:
        mono = tuple(sorted((v, p) for v in rng.sample(names, 2) if (p := rng.randrange(0, 3))))
        return Poly({mono: Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))})
    if rng.random() < 0.5:
        v, w = rng.choice(names), rng.choice(names)
        return rng.choice([Poly.const(1) - Poly.var(v), (Poly.var(v) + Poly.var(w)).scale(Fraction(1, 2))])
    poly = Poly()
    for _ in range(rng.randrange(2, 4)):
        mono = tuple(sorted((v, p) for v in rng.sample(names, 2) if (p := rng.randrange(0, 3))))
        poly = poly + Poly({mono: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))})
    return poly


def test_subst_equals_multiplied_out():
    rng = random.Random(11)
    names = ("a", "b", "c", "d")
    sizes = {"one term": 0, "several terms": 0, "zero": 0}
    for _ in range(2500):
        poly = Poly()
        for _ in range(rng.randrange(0, 5)):
            mono = tuple(sorted((v, p) for v in names if (p := rng.randrange(0, 4))))
            poly = poly + Poly({mono: Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))})
        replacements = {
            v: _random_replacement(rng, names + ("e",)) for v in names if rng.random() < 0.7
        }
        for r in replacements.values():
            sizes["zero" if not r.terms else "one term" if len(r.terms) == 1 else "several terms"] += 1
        got = poly.subst(replacements)
        assert got == _subst_multiplied_out(poly, replacements), (poly, replacements)
        assert all(got.terms.values())
    assert min(sizes.values()) >= 100, sizes


def _integrate_unit(poly, name):
    """The definite integral over [0, 1] in one variable, term by term."""
    total = Poly()
    for mono, c in poly.terms.items():
        power = dict(mono).get(name, 0)
        rest = tuple(pair for pair in mono if pair[0] != name)
        total = total + Poly({rest: Fraction(c, power + 1)})
    return total


def _pushforward_staged(p, form):
    """Pushforward term by term: the sign of the adjacent swaps that move the
    letters into (base in target order, fiber in fiber order), the
    coefficient integrated over one interval fiber variable at a time, then
    its base variables substituted by their target coordinates."""
    lift = {s: t for t, s in p.injection}
    place = {s: (0, p.target.names().index(t)) for s, t in lift.items()}
    place.update({v: (1, i) for i, v in enumerate(p.fiber)})
    to_target = {s: Poly.var(t) for s, t in lift.items() if p.source.kind(s) == "interval"}
    out = Form(p.target)
    for letters, poly in form.terms.items():
        if not set(p.fiber) <= set(letters):
            continue
        seq, sign = list(letters), 1
        for end in range(len(seq) - 1, 0, -1):
            for m in range(end):
                if place[seq[m]] > place[seq[m + 1]]:
                    seq[m], seq[m + 1] = seq[m + 1], seq[m]
                    sign = -sign
        coeff = poly
        for v in p.fiber:
            if p.source.kind(v) == "interval":
                coeff = _integrate_unit(coeff, v)
        base = tuple(lift[x] for x in seq[: len(seq) - p.reldim])
        out = out + Form(p.target, {base: coeff.subst(to_target).scale(sign)})
    return out


def test_pushforward_equals_staged_integration():
    rng = random.Random(5)
    fresh = NameSource()
    seen = {"nonzero": 0, "composite": 0, "negative": 0, "divided": 0}
    for i in range(400):
        p = random_bundle(rng, 5, fresh)
        if i % 2:  # a composite, whose fiber order is not the source's
            keep = [n for n in p.target.names() if rng.random() < 0.6]
            q_target = CubeTorusSpace(tuple((fresh("c"), p.target.kind(n)) for n in keep))
            q = projection(p.target, q_target, {t[0]: s for t, s in zip(q_target.coords, keep)})
            p = compose_projection(q, p)
            seen["composite"] += p.fiber != tuple(n for n in p.source.names() if n in p.fiber)
        beta = random_form(rng, p.source, 3)
        got = pushforward(p, beta)
        assert got == _pushforward_staged(p, beta), (p, beta)
        _assert_canonical(got)
        seen["nonzero"] += not got.is_zero()
        seen["negative"] += any(c < 0 for poly in got.terms.values() for c in poly.terms.values())
        seen["divided"] += any(c.__class__ is Fraction for poly in got.terms.values()
                               for c in poly.terms.values())
    assert seen["composite"] >= 30, seen
    assert min(seen["nonzero"], seen["negative"], seen["divided"]) >= 100, seen


def _random_coordinate_map(rng, fresh):
    """A map whose every assignment is a unit variable, the constant 0, 1/2
    or 1, a circle with sign +1 or -1, or a constant circle; target
    coordinates often share a source variable."""
    source = CubeTorusSpace(tuple(checks._random_coords(rng, fresh, "s", rng.randrange(3, 7))))
    target = CubeTorusSpace(tuple(checks._random_coords(rng, fresh, "t", rng.randrange(2, 5))))
    intervals = source.interval_names()
    circles = tuple(n for n, k in source.coords if k == "circle")
    table = {}
    for name, kind in target.coords:
        if kind == "interval":
            if intervals and rng.random() < 0.75:
                table[name] = ("poly", Poly.var(rng.choice(intervals)))
            else:
                table[name] = ("poly", Poly.const(rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])))
        elif circles and rng.random() < 0.8:
            table[name] = ("circle", rng.choice(circles), rng.choice([1, -1]))
        else:
            table[name] = ("const-circle",)
    return smooth_map(source, target, table)


def _pullback_by_wedges(f, form):
    """Pullback term by term: the substituted coefficient wedged with the
    pulled 1-form of each letter in turn."""
    table = dict(f.assignments)
    subs = {n: a[1] for n, a in table.items() if a[0] == "poly"}
    out = Form(f.source)
    for letters, poly in form.terms.items():
        acc = Form(f.source, {(): poly.subst(subs)})
        for letter in letters:
            a = table[letter]
            if a[0] == "poly":
                one_form = exterior_derivative(Form(f.source, {(): a[1]}))
            elif a[0] == "circle":
                one_form = Form(f.source, {(a[1],): Poly.const(a[2])})
            else:
                one_form = Form(f.source)
            acc = wedge(acc, one_form)
        out = out + acc
    return out


def test_coordinate_pullback_agrees_with_wedge_route():
    rng = random.Random(13)
    fresh = NameSource()
    seen = {"nonzero": 0, "shared source": 0, "negative circle": 0, "odd merge": 0}
    for _ in range(1500):
        f = _random_coordinate_map(rng, fresh)
        form = random_form(rng, f.target, 2, degree=rng.randrange(0, f.target.dimension + 1))
        got = pullback(f, form)
        assert got == _pullback_by_wedges(f, form), (f, form)
        _assert_canonical(got)
        seen["nonzero"] += not got.is_zero()
        sources = [a[1] for _, a in f.assignments if a[0] == "circle"]
        sources += [next(iter(a[1].variables())) for _, a in f.assignments
                    if a[0] == "poly" and a[1].variables()]
        seen["shared source"] += len(set(sources)) < len(sources)
        seen["negative circle"] += any(a[0] == "circle" and a[2] == -1 for _, a in f.assignments)
        order = f.source._order
        for letters in form.terms:
            pulled = [a[1] if a[0] == "circle" else next(iter(a[1].variables()), None)
                      for a in (dict(f.assignments)[x] for x in letters) if a[0] != "const-circle"]
            if len(pulled) == len(letters) and None not in pulled and len(set(pulled)) == len(pulled):
                keys = [order[x] for x in pulled]
                seen["odd merge"] += sum(a > b for i, a in enumerate(keys) for b in keys[i + 1:]) % 2
    assert min(seen.values()) >= 80, seen


def _assert_exact(poly):
    """Every coefficient is an int or a Fraction: never a float, never a
    bool or another number type, and an int whenever it is integral."""
    assert all(c.__class__ is int or c.__class__ is Fraction and c.denominator != 1
               for c in poly.terms.values()), poly.terms


def _assert_canonical(form):
    assert Form(form.space, form.terms) == form
    for poly in form.terms.values():
        assert poly.terms and all(poly.terms.values())
        _assert_exact(poly)


def test_kernel_results_pass_public_validation(monkeypatch):
    rng = random.Random(9)
    fresh = NameSource()
    for _ in range(150):
        p = random_bundle(rng, 4, fresh)
        beta = random_form(rng, p.source, 3)
        other = random_form(rng, p.source, 3)
        theta = random_form(rng, p.target, 3)
        f = random_smooth_map(rng, random_space(rng, 3, fresh, prefix="s"), p.source)
        results = [
            wedge(beta, other),
            wedge(beta, beta),
            exterior_derivative(beta),
            exterior_derivative(exterior_derivative(beta)),
            pullback(f, beta),
            pullback(p.as_smooth(), theta),
            pushforward(p, beta),
            boundary_pushforward(p, beta),
            beta + other.scale(-1),
            beta - beta,
        ]
        for form in results:
            _assert_canonical(form)

    # Every polynomial the kernel builds in a run of all checkers.
    made = []
    trusted = Poly._of

    def recording(terms):
        poly = trusted(terms)
        made.append(poly)
        return poly

    monkeypatch.setattr(Poly, "_of", staticmethod(recording))
    assert all(result.passed for result in run_all_checks(50, 3, 4, 3))
    assert len(made) > 1_000
    for poly in made:
        _assert_exact(poly)
    classes = {c.__class__ for poly in made for c in poly.terms.values()}
    assert classes == {int, Fraction}, classes


# --- maps the kernel derives without validating them -----------------------------


def _public_copy(m):
    """The map rebuilt through its public constructor, which validates it."""
    if isinstance(m, ProjectionMap):
        return ProjectionMap(m.source, m.target, m.injection, m.fiber)
    return SmoothMapModel(m.source, m.target, m.assignments)


def _expected_as_smooth(p):
    return smooth_map(p.source, p.target, {
        t: ("poly", Poly.var(s)) if p.source.kind(s) == "interval" else ("circle", s, 1)
        for t, s in p.injection
    })


def _expected_composite_projection(outer, inner):
    """outer after inner, with the outer fiber (lifted) first."""
    lift = dict(inner.injection)
    return projection(
        inner.source, outer.target, {t: lift[s] for t, s in outer.injection},
        fiber=tuple(lift[c] for c in outer.fiber) + inner.fiber,
    )


def _expected_composite_map(outer, inner):
    inner_table = dict(inner.assignments)
    polys = {n: a[1] for n, a in inner_table.items() if a[0] == "poly"}
    table = {}
    for name, a in outer.assignments:
        if a[0] == "poly":
            table[name] = ("poly", _subst_multiplied_out(a[1], polys))
        elif a[0] == "circle" and inner_table[a[1]][0] == "circle":
            _, src, sign = inner_table[a[1]]
            table[name] = ("circle", src, a[2] * sign)
        else:
            table[name] = ("const-circle",)
    return smooth_map(inner.source, outer.target, table)


def _expected_pullback_bundle(p, f, pulled):
    """The projection of the pulled space, ordered (f's source, then p's
    fiber in fiber order), and its bundle map to p's source."""
    fresh = pulled.names()[f.source.dimension:]
    assert pulled.coords[:f.source.dimension] == f.source.coords
    assert [pulled.kind(n) for n in fresh] == [p.source.kind(n) for n in p.fiber]
    p_bar = projection(pulled, f.source, {n: n for n in f.source.names()}, fiber=fresh)
    table = {s: dict(f.assignments)[t] for t, s in p.injection}
    for old, new in zip(p.fiber, fresh):
        table[old] = ("poly", Poly.var(new)) if pulled.kind(new) == "interval" else ("circle", new, 1)
    return p_bar, smooth_map(pulled, p.source, table)


def _assert_space_tables(sp):
    """A space the kernel derived without validating it holds the tables the
    public constructor derives."""
    public = CubeTorusSpace(sp.coords)
    assert sp == public
    for name in ("_names", "_order", "_kinds", "_intervals"):
        assert getattr(sp, name) == getattr(public, name), name


def _assert_derived(got, expected):
    """A map the kernel derived without validating it passes the public
    constructor, which derives the same tables from it."""
    public = _public_copy(got)
    assert public == got
    assert got == expected
    tables = ("_to_target", "_rank") if isinstance(got, ProjectionMap) else ("_table", "_subs")
    for name in tables:
        assert getattr(got, name) == getattr(public, name), name


def _assert_glued(outer, inner, j):
    """The slot-j gluing against maps built with the public constructors:
    the base change of inner's output leg along outer's slot-j leg, then the
    output leg and the input legs composed through it."""
    glued = fiber_product(outer, inner, j)
    to_outer, to_inner = _expected_pullback_bundle(inner.ev_out, outer.ev_in[j - 1], glued.space)
    _assert_derived(glued.ev_out, _expected_composite_projection(outer.ev_out, to_outer))
    via_outer = _expected_as_smooth(to_outer)
    expected_legs = (
        [_expected_composite_map(leg, via_outer) for leg in outer.ev_in[: j - 1]]
        + [_expected_composite_map(leg, to_inner) for leg in inner.ev_in]
        + [_expected_composite_map(leg, via_outer) for leg in outer.ev_in[j:]]
    )
    assert len(glued.ev_in) == len(expected_legs)
    for leg, expected in zip(glued.ev_in, expected_legs):
        _assert_derived(leg, expected)


def _boundary_by_face_maps(p, beta):
    """The boundary term as the face maps give it: for each interval fiber
    coordinate v at fiber-order index i, with top = (-1)^(dim source +
    reldim + i), top times the pushforward along the restricted projection
    of beta pulled back to the value-1 face of v, minus the same for the
    value-0 face; every map built by the public constructors."""
    total = Form(p.target)
    for i, v in enumerate(p.fiber):
        if p.source.kind(v) != "interval":
            continue
        face = CubeTorusSpace(tuple(c for c in p.source.coords if c[0] != v))
        restricted = projection(face, p.target, dict(p.injection),
                                fiber=[x for x in p.fiber if x != v])
        top = (-1) ** (p.source.dimension + p.reldim + i)
        for value, sign in ((1, top), (0, -top)):
            inclusion = smooth_map(face, p.source, {
                n: ("poly", Poly.const(value)) if n == v
                else ("poly", Poly.var(n)) if k == "interval" else ("circle", n, 1)
                for n, k in p.source.coords
            })
            total = total + pushforward(restricted, pullback(inclusion, beta)).scale(sign)
    return total


def test_boundary_term_equals_pushforward_of_face_restrictions():
    # Plain bundles list their fiber in source order; a composite lists the
    # outer fiber first, which reorders it when an outer fiber coordinate
    # comes after an inner one in the source.
    rng = random.Random(37)
    fresh = NameSource()
    nonzero = {"plain": 0, "composite": 0, "reordered": 0, "circle-fiber": 0}
    for _ in range(1000):
        p = random_bundle(rng, 4, fresh, min_fiber=1)
        keep = [n for n in p.target.names() if rng.random() < 0.5]
        q_target = CubeTorusSpace(tuple((fresh("c"), p.target.kind(n)) for n in keep))
        q = projection(p.target, q_target, {t[0]: s for t, s in zip(q_target.coords, keep)})
        for bundle in (p, compose_projection(q, p)):
            # Half the forms have the degree that leaves one fiber letter out.
            degree = bundle.reldim - 1 if rng.random() < 0.5 else None
            beta = random_form(rng, bundle.source, 3, degree=degree)
            got = boundary_pushforward(bundle, beta)
            assert got == _boundary_by_face_maps(bundle, beta), (bundle, beta)
            _assert_canonical(got)
            if got.is_zero():
                continue
            nonzero["plain" if bundle is p else "composite"] += 1
            nonzero["reordered"] += bundle.fiber != tuple(
                n for n in bundle.source.names() if n in bundle.fiber)
            nonzero["circle-fiber"] += any(bundle.source.kind(x) == "circle" for x in bundle.fiber)
    assert nonzero["plain"] >= 300 and nonzero["composite"] >= 300, nonzero
    assert nonzero["reordered"] >= 50 and nonzero["circle-fiber"] >= 150, nonzero


def _composite_stokes_family():
    """Every composite q o p of coordinate projections out of (a, b, c, e),
    with c a circle, whose middle space lists the base of p in source order
    or reversed, and whose composite base holds an interval, kept when its
    fiber order (outer fiber first) is not the source order."""
    src = space(("a", "interval"), ("b", "interval"), ("c", "circle"), ("e", "interval"))
    for size in (2, 3):
        for base in itertools.combinations(src.names(), size):
            for listed in (base, base[::-1]):
                mid = CubeTorusSpace(tuple(("m" + n, src.kind(n)) for n in listed))
                p = projection(src, mid, {"m" + n: n for n in listed})
                for kept in range(1, size):
                    for keep in itertools.combinations(base, kept):
                        target = CubeTorusSpace(tuple(("t" + n, src.kind(n)) for n in keep))
                        q = projection(mid, target, {"t" + n: "m" + n for n in keep})
                        qp = compose_projection(q, p)
                        in_source_order = tuple(n for n in src.names() if n in qp.fiber)
                        if qp.fiber != in_source_order and set(keep) & {"a", "b", "e"}:
                            yield qp


def test_stokes_trial_on_composite_fiber_orders():
    """Stokes through the checker's own comparison on composites, with forms
    that make both sides nonzero and give each interval fiber coordinate v a
    boundary face: f dF plus v db d(F without v), where dF wedges the fiber,
    f = 1 + w depends on a base interval w and b is a base letter.  Only here
    is the face sign read at a fiber index that is not the source index."""
    stats = {"with_boundary": 0}
    nontrivial = 0
    bundles = list(_composite_stokes_family())
    assert len(bundles) >= 20
    for qp in bundles:
        order = qp.source.names().index

        def wedge_of(letters):
            return tuple(sorted(letters, key=order))

        w = next(n for n in qp.source.names() if n not in qp.fiber and qp.source.kind(n) == "interval")
        for v in qp.fiber:
            if qp.source.kind(v) != "interval":
                continue
            for b in (n for n in qp.source.names() if n not in qp.fiber):
                beta = Form(qp.source, {
                    wedge_of(qp.fiber): Poly.const(1) + Poly.var(w),
                    wedge_of([b] + [x for x in qp.fiber if x != v]): Poly.var(v),
                })
                found, witness = checks._stokes_trial(
                    qp, beta, exterior_derivative(beta), qp.reldim, stats, beta=beta)
                assert witness is None, (qp, witness)
                assert not boundary_pushforward(qp, beta).is_zero()
                nontrivial += found
    assert stats["with_boundary"] == nontrivial == 90, (stats, nontrivial)


def test_derived_maps_pass_public_validation():
    rng = random.Random(31)
    fresh = NameSource()
    for _ in range(150):
        p = random_bundle(rng, 4, fresh)
        _assert_derived(p.as_smooth(), _expected_as_smooth(p))

        keep = [n for n in p.target.names() if rng.random() < 0.7]
        rng.shuffle(keep)
        q_target = CubeTorusSpace(tuple((fresh("c"), p.target.kind(n)) for n in keep))
        q = projection(p.target, q_target, {t[0]: s for t, s in zip(q_target.coords, keep)})
        _assert_derived(compose_projection(q, p), _expected_composite_projection(q, p))

        middle = random_space(rng, 3, fresh, prefix="m")
        inner = random_smooth_map(rng, p.source, middle)
        outer = random_smooth_map(rng, middle, random_space(rng, 3, fresh, prefix="t"))
        _assert_derived(compose_smooth(outer, inner), _expected_composite_map(outer, inner))

        f = random_smooth_map(rng, random_space(rng, 3, fresh, prefix="s"), p.target)
        pulled, p_bar, f_tilde = pullback_bundle(p, f)
        _assert_space_tables(pulled)
        expected_bar, expected_tilde = _expected_pullback_bundle(p, f, pulled)
        _assert_derived(p_bar, expected_bar)
        _assert_derived(f_tilde, expected_tilde)

        m2 = random_space(rng, 2, fresh, prefix="q")
        c12 = checks._random_span(rng, fresh, 1, random_space(rng, 2, fresh, prefix="p"), node=m2)
        _assert_glued(c12, checks._random_span(rng, fresh, 1, m2), 1)

        outer_mock, inner_mock, j, _, _ = random_mock_instance(rng)
        _assert_glued(outer_mock, inner_mock, j)
