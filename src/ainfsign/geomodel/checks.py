"""Randomized exact verification of the push-pull calculus, plus mock
moduli spans that instantiate the operation definition and the
nested-vs-glued push-pull identities with their reorder signs.

Every checker draws seeded random instances, evaluates both sides of its
identity with exact rational arithmetic, and requires literal equality; the
first failing instance is returned as a witness.  One loop, ``_trial_loop``,
runs all eight checkers, the seven calculus checkers and mock push-pull: it
owns the seeded stream, the stop at the first failure and the counts of
trials run and of trials whose compared sides were nonzero, and each checker
supplies only the draw and comparison of one trial.
Instance generators keep interval-coordinate assignments inside [0, 1] by
construction and build canonical terms, which they pass to the public,
validating constructors.  They count with ``rng._randbelow(n)``, whose
rejection loop over ``rng.getrandbits`` ``random_form``,
``_draw_coefficients`` and ``_shuffle`` inline (``_shuffle`` makes the
swaps of ``rng.shuffle``).  Each
checker, and each ``random_mock_instance`` call, numbers its coordinate
names from its own ``NameSource``, so a witness does not depend on what ran
before it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .. import signs
from ..frozen import Frozen
from ..novikov import _rational
from .core import (
    CIRCLE,
    INTERVAL,
    ONE_POLY,
    CorrespondenceModel,
    CubeTorusSpace,
    Form,
    Poly,
    ProjectionMap,
    SmoothMapModel,
    apply_correspondence,
    boundary_pushforward,
    bundle_orientation_sign,
    compose_projection,
    exterior_derivative,
    fiber_product,
    integrate,
    projection,
    pullback,
    pullback_bundle,
    pushforward,
    smooth_map,
    wedge,
    wedge_all,
)


class CheckResult(Frozen):
    """One checker's run: its counts, the first failing trial's witness
    (``None`` when it passed) and its wall time, kept out of the report."""

    __slots__ = ("name", "stats", "witness", "_elapsed_s")

    @property
    def passed(self) -> bool:
        return self.witness is None


# --- instance generators -------------------------------------------------------

class NameSource:
    """Fresh coordinate names: the prefix plus a number that counts up from 1
    per source."""

    def __init__(self):
        self._count = 0

    def __call__(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"


def _random_coords(
    rng: random.Random, fresh: NameSource, prefix: str, n: int
) -> list[tuple[str, str]]:
    """n fresh coordinates, each an interval with probability 0.6, else a circle."""
    return [(fresh(prefix), INTERVAL if rng.random() < 0.6 else CIRCLE) for _ in range(n)]


def random_space(
    rng: random.Random, max_coords: int, fresh: NameSource, prefix: str = "x"
) -> CubeTorusSpace:
    if max_coords < 0:
        raise ValueError("max_coords must be at least 0")
    n = rng._randbelow(max_coords + 1)
    return CubeTorusSpace(tuple(_random_coords(rng, fresh, prefix, n)))


# The coefficients the generators draw: a numerator in (-3, -2, -1, 1, 2, 3)
# over a denominator in (1, 2, 3), each drawn uniformly; an integral one is
# an int.
_COEFFS = tuple(
    tuple(Fraction(a, b) if a % b else a // b for b in (1, 2, 3)) for a in (-3, -2, -1, 1, 2, 3)
)


def _shuffle(bits, x: list) -> None:
    """``rng.shuffle(x)`` with ``bits = rng.getrandbits``: the same swaps
    from the same draws."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        while (j := bits(k)) >= m:
            pass
        x[i], x[j] = x[j], x[i]


def _draw_coefficients(bits, names: tuple[str, ...], max_deg: int, coeffs: dict) -> None:
    """Add one or two random monomials in ``names``, each power at most
    ``max_deg``, with ``_COEFFS`` coefficients to ``coeffs``."""
    powers = max_deg + 1
    width = powers.bit_length()
    while (count := bits(2)) >= 2:
        pass
    for _ in range(1 + count):
        key = []
        for v in names:
            while (p := bits(width)) >= powers:
                pass
            if p:
                key.append((v, p))
        key.sort()
        key = tuple(key)
        while (a := bits(3)) >= 6:
            pass
        while (b := bits(2)) >= 3:
            pass
        c = _COEFFS[a][b]
        prev = coeffs.get(key)
        coeffs[key] = c if prev is None else _rational(prev + c)


def random_form(
    rng: random.Random,
    sp: CubeTorusSpace,
    max_deg: int,
    degree: int | None = None,
) -> Form:
    """Random form; homogeneous of the given exterior degree when requested."""
    names = sp.names()
    n = len(names)
    intervals = sp.interval_names()
    bits = rng.getrandbits
    width = (n + 1).bit_length()
    terms: dict[tuple[str, ...], dict] = {}
    while (count := bits(2)) >= 2:
        pass
    for _ in range(1 + count):
        if degree is None:
            while (size := bits(width)) > n:
                pass
        else:
            size = degree
        if size > n:
            continue
        pool = list(range(n))  # a partial Fisher-Yates shuffle picks the letters
        picked = []
        for i in range(size):
            m = n - i
            k = m.bit_length()
            while (j := bits(k)) >= m:
                pass
            picked.append(pool[j])
            pool[j] = pool[m - 1]
        picked.sort()
        letters = tuple([names[i] for i in picked])
        coeffs = terms.get(letters)
        if coeffs is None:
            coeffs = terms[letters] = {}
        _draw_coefficients(bits, intervals, max_deg, coeffs)
    return Form(sp, {letters: Poly(coeffs) for letters, coeffs in terms.items()})


_HALF = Fraction(1, 2)


def _unit_valued_poly(rng: random.Random, names: tuple[str, ...]) -> Poly:
    """A polynomial with image inside [0, 1] on the unit cube: a constant
    0, 1/2 or 1 without variables, else v, 1 - v, v^2, v w or (v + w)/2."""
    below = rng._randbelow
    if not names:
        return Poly.const((0, _HALF, 1)[below(3)])
    choice = below(5)
    v = names[below(len(names))]
    if choice == 0:
        return Poly.var(v)
    if choice == 1:
        return Poly({(): 1, ((v, 1),): -1})
    if choice == 2:
        return Poly.var(v, 2)
    w = names[below(len(names))]
    if v == w:
        return Poly.var(v, 2) if choice == 3 else Poly.var(v)
    pair = ((v, 1), (w, 1)) if v < w else ((w, 1), (v, 1))
    if choice == 3:
        return Poly({pair: 1})
    return Poly({pair[:1]: _HALF, pair[1:]: _HALF})


def random_smooth_map(
    rng: random.Random, source: CubeTorusSpace, target: CubeTorusSpace
) -> SmoothMapModel:
    below = rng._randbelow
    src_circles = tuple([n for n, k in source.coords if k == CIRCLE])
    intervals = source.interval_names()
    table: dict[str, tuple] = {}
    for name, kind in target.coords:
        if kind == INTERVAL:
            table[name] = ("poly", _unit_valued_poly(rng, intervals))
        elif src_circles and rng.random() < 0.8:
            table[name] = ("circle", src_circles[below(len(src_circles))], (1, -1)[below(2)])
        else:
            table[name] = ("const-circle",)
    return smooth_map(source, target, table)


def random_bundle(
    rng: random.Random, max_coords: int, fresh: NameSource, min_fiber: int = 0
) -> ProjectionMap:
    """A random projection with shuffled source interleaving and a target
    listed in an order independent of the source's."""
    least = max(1, min_fiber)
    if max_coords < least:
        raise ValueError(f"max_coords must be at least {least}")
    below = rng._randbelow
    total = least + below(max_coords + 1 - least)
    n_fiber = min_fiber + below(total + 1 - min_fiber) if total > min_fiber else total
    coords = _random_coords(rng, fresh, "x", total)
    _shuffle(rng.getrandbits, coords)
    base = list(coords)
    _shuffle(rng.getrandbits, base)
    del base[total - n_fiber:]
    source = CubeTorusSpace(tuple(coords))
    target = CubeTorusSpace(tuple([(fresh("b"), kind) for _, kind in base]))
    base_names = [name for name, _ in base]
    injection = tuple(sorted(zip(target.names(), base_names)))
    fiber = tuple([name for name in source.names() if name not in base_names])
    return ProjectionMap(source, target, injection, fiber)


def _coordinate_leg(
    rng: random.Random, fresh: NameSource, sp: CubeTorusSpace, coords: list, reversing: bool
) -> SmoothMapModel:
    """A map out of ``sp`` onto fresh coordinates, listed in shuffled order,
    each sent to its own coordinate of ``coords`` through v, or a circle with
    sign +1; if ``reversing``, through v or 1 - v, or a circle with sign +1
    or -1."""
    below = rng._randbelow
    _shuffle(rng.getrandbits, coords)
    target = CubeTorusSpace(tuple((fresh("i"), kind) for _, kind in coords))
    table = {}
    for (name, kind), (src, _) in zip(target.coords, coords):
        flip = reversing and below(2)
        if kind == CIRCLE:
            table[name] = ("circle", src, -1 if flip else 1)
        else:
            table[name] = ("poly", ONE_POLY - Poly.var(src) if flip else Poly.var(src))
    return smooth_map(sp, target, table)


def _top_form(rng: random.Random, sp: CubeTorusSpace) -> Form:
    """The full letter set of ``sp`` times +1 or -1 times a positive constant
    plus up to two monomials of power at most 2 in each interval coordinate,
    with positive coefficients: a coefficient with no zero on the cube."""
    below = rng._randbelow
    terms = {(): _COEFFS[3 + below(3)][below(3)]}  # rows 3..5: numerators 1, 2, 3
    for _ in range(below(3)):
        key = tuple(sorted((v, p) for v in sp.interval_names() if (p := below(3))))
        terms[key] = _rational(terms.get(key, 0) + _COEFFS[3 + below(3)][below(3)])
    poly = Poly(terms)
    return Form(sp, {sp.names(): poly if below(2) else -poly})


def _random_span(
    rng: random.Random,
    fresh: NameSource,
    k_legs: int,
    out_target: CubeTorusSpace,
    node: CubeTorusSpace | None = None,
    node_slot: int = 0,
    node_filled: bool = True,
    reversing: bool = True,
) -> CorrespondenceModel:
    """A span over ``out_target`` with ``k_legs`` input legs and a shuffled
    output fiber.  Slot ``node_slot`` projects onto a copy of ``node`` if one
    is given; each other leg is a ``_coordinate_leg``, and each coordinate
    they cover goes to exactly one of them: the span's own 0 to 2 fiber
    coordinates (none if no such leg exists), every base coordinate without
    a node and a random subset with one, and the node copies unless
    ``node_filled``.  So the pull-push of ``_top_form`` inputs is nonzero
    once a full-degree form fills the node."""
    below = rng._randbelow
    copies_out = {n: fresh("c") for n in out_target.names()}
    base = [(copies_out[n], k) for n, k in out_target.coords]
    free = k_legs - (node is not None)
    fiber = _random_coords(rng, fresh, "f", below(3)) if free else []
    spread = list(fiber)  # the coordinates the free legs cover
    node_copies = {}
    if node is not None:
        node_copies = {n: fresh("c") for n in node.names()}
        node_coords = [(node_copies[n], k) for n, k in node.coords]
        fiber += node_coords
        if not node_filled:
            spread += node_coords
    if free:
        spread += base if node is None else [c for c in base if below(2)]
    coords = base + fiber
    _shuffle(rng.getrandbits, coords)
    sp = CubeTorusSpace(tuple(coords))
    fiber_names = [n for n, _ in fiber]
    _shuffle(rng.getrandbits, fiber_names)
    ev_out = projection(sp, out_target, copies_out, fiber_names)
    assigned = [[] for _ in range(free)]
    for c in spread:
        assigned[below(free)].append(c)
    legs = [_coordinate_leg(rng, fresh, sp, cs, reversing) for cs in assigned]
    if node is not None:
        legs.insert(node_slot, projection(sp, node, node_copies).as_smooth())
    return CorrespondenceModel(ev_out, legs)


# --- identity checkers ---------------------------------------------------------


def _trial_loop(name: str, trials: int, seed: int, trial, **counts) -> CheckResult:
    """Run ``trial(rng, fresh, stats)`` up to ``trials`` times on one seeded
    stream and one ``NameSource``.  A trial returns whether its compared
    sides were nonzero, and ``None`` if its identity holds or else its
    witness; the first witness, numbered by its trial, fails the check.
    ``stats`` counts the trials run, the nontrivial ones, then ``counts``;
    the result carries the loop's wall time."""
    started = time.perf_counter()
    rng = random.Random(seed)
    fresh = NameSource()
    stats = {"trials": 0, "nontrivial": 0, **counts}
    failure = None
    for i in range(trials):
        nontrivial, witness = trial(rng, fresh, stats)
        stats["trials"] += 1
        stats["nontrivial"] += nontrivial
        if witness is not None:
            failure = {"trial": i, **witness}
            break
    return CheckResult(name, stats, failure, time.perf_counter() - started)


def _compare(lhs: Form, rhs: Form, **inputs) -> tuple[bool, dict | None]:
    """Whether either side is nonzero, and ``None`` when the two sides
    agree, else the inputs and both sides."""
    if lhs == rhs:
        return not lhs.is_zero(), None
    return True, {**{key: str(value) for key, value in inputs.items()}, "lhs": str(lhs), "rhs": str(rhs)}


def verify_projection_formula(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """p_!((p* theta) ^ beta) == theta ^ p_! beta, exactly."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        theta = random_form(rng, p.target, max_poly_deg)
        beta = random_form(rng, p.source, max_poly_deg)
        lhs = pushforward(p, wedge(pullback(p.as_smooth(), theta), beta))
        rhs = wedge(theta, pushforward(p, beta))
        return _compare(lhs, rhs, theta=theta, beta=beta)
    return _trial_loop("projection-formula", trials, seed, trial)


def verify_functoriality(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """(q o p)_! beta == q_!(p_! beta), and the iterated-fiber identity
    (q o p)_!(p* theta ^ beta) == q_!(theta ^ p_! beta)."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        names = p.target.names()
        keep = [n for n in names if rng.random() < 0.7]
        rng.shuffle(keep)
        q_target = CubeTorusSpace(tuple((fresh("c"), p.target.kind(n)) for n in keep))
        q = projection(p.target, q_target, {t[0]: s for t, s in zip(q_target.coords, keep)})
        qp = compose_projection(q, p)
        beta = random_form(rng, p.source, max_poly_deg)
        theta = random_form(rng, p.target, max_poly_deg)
        p_beta = pushforward(p, beta)
        lhs1 = pushforward(qp, beta)
        rhs1 = pushforward(q, p_beta)
        lhs2 = pushforward(qp, wedge(pullback(p.as_smooth(), theta), beta))
        rhs2 = pushforward(q, wedge(theta, p_beta))
        if lhs1 == rhs1 and lhs2 == rhs2:
            return not (lhs1.is_zero() and lhs2.is_zero()), None
        return True, {"beta": str(beta), "theta": str(theta),
                      "composite": str(lhs1), "staged": str(rhs1),
                      "iterated_lhs": str(lhs2), "iterated_rhs": str(rhs2)}
    return _trial_loop("functoriality", trials, seed, trial)


def verify_base_change(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """f* (p_! beta) == pulled-p_! (bundle-map* beta) for smooth f."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        s_space = random_space(rng, max_coords, fresh, prefix="s")
        f = random_smooth_map(rng, s_space, p.target)
        pulled, p_bar, f_tilde = pullback_bundle(p, f)
        beta = random_form(rng, p.source, max_poly_deg)
        lhs = pullback(f, pushforward(p, beta))
        rhs = pushforward(p_bar, pullback(f_tilde, beta))
        return _compare(lhs, rhs, beta=beta)
    return _trial_loop("base-change", trials, seed, trial)


def _stokes_trial(p: ProjectionMap, form: Form, d_form: Form, deg: int, stats: dict, /, **inputs):
    """Compare d p_! form with p_! d_form + (-1)^(dim source + deg) times the
    boundary term, where ``d_form`` is the exterior derivative of ``form``
    and ``deg`` its degree; ``inputs`` name the witness."""
    if any(p.source.kind(v) == INTERVAL for v in p.fiber):
        stats["with_boundary"] += 1
    lhs = exterior_derivative(pushforward(p, form))
    sign = (-1) ** ((p.source.dimension + deg) % 2)
    rhs = pushforward(p, d_form) + boundary_pushforward(p, form).scale(sign)
    return _compare(lhs, rhs, **inputs)


def verify_stokes(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """d p_! beta == p_! d beta + (-1)^(dim source + deg beta) * boundary term."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh, min_fiber=1)
        deg = rng.randrange(0, p.source.dimension + 1)
        beta = random_form(rng, p.source, max_poly_deg, degree=deg)
        return _stokes_trial(p, beta, exterior_derivative(beta), deg, stats, beta=beta)
    return _trial_loop("stokes", trials, seed, trial, with_boundary=0)


def verify_corr_stokes(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """d Corr(xi) == Corr(d xi) + (-1)^(dim X + deg xi) * boundary Corr(xi):
    Stokes for the pulled-back form f2* xi, whose exterior derivative is
    f2*(d xi)."""
    def trial(rng, fresh, stats):
        f1 = random_bundle(rng, max_coords, fresh, min_fiber=1)
        target2 = random_space(rng, 2, fresh, prefix="m")
        f2 = random_smooth_map(rng, f1.source, target2)
        deg = rng.randrange(0, target2.dimension + 1)
        xi = random_form(rng, target2, max_poly_deg, degree=deg)
        pulled, d_pulled = pullback(f2, xi), pullback(f2, exterior_derivative(xi))
        return _stokes_trial(f1, pulled, d_pulled, deg, stats, xi=xi)
    return _trial_loop("correspondence-stokes", trials, seed, trial, with_boundary=0)


def verify_composition(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """Corr of the slot-1 fiber product == Corr after Corr, exactly."""
    def trial(rng, fresh, stats):
        # Spans M2 <- X12 -> M1 and M3 <- X23 -> M2: X12 is M1 times a copy
        # of M2, and X23's one leg covers all of X23, so an input's
        # composite is nonzero only at the top degree of M3.  The leg keeps
        # orientations: a 1 - v leg multiplies out every power of the
        # input's coefficients (the mocks' low-degree inputs test those).
        m1 = random_space(rng, 2, fresh, prefix="p")
        m2 = random_space(rng, 2, fresh, prefix="q")
        c12 = _random_span(rng, fresh, 1, m1, node=m2)
        c23 = _random_span(rng, fresh, 1, m2, reversing=False)
        c13 = fiber_product(c12, c23, 1)
        m3 = c23.ev_in[0].target
        stats["odd_degree_inputs"] += m3.dimension % 2
        xi = random_form(rng, m3, max_poly_deg, degree=m3.dimension)
        lhs = apply_correspondence(c13, (xi,))
        rhs = apply_correspondence(c12, (apply_correspondence(c23, (xi,)),))
        return _compare(lhs, rhs, xi=xi)
    return _trial_loop("composition", trials, seed, trial, odd_degree_inputs=0)


def verify_defining_property(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """Top-degree pairing: integral over the base of theta ^ p_! beta equals
    the bundle-oriented integral over the source of p* theta ^ beta."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        beta = random_form(rng, p.source, max_poly_deg)
        theta = random_form(rng, p.target, max_poly_deg)
        lhs = integrate(wedge(theta, pushforward(p, beta)))
        rhs = bundle_orientation_sign(p) * integrate(
            wedge(pullback(p.as_smooth(), theta), beta)
        )
        if lhs != rhs:
            return True, {"theta": str(theta), "beta": str(beta),
                          "base_integral": str(lhs), "total_integral": str(rhs)}
        return lhs != 0, None
    return _trial_loop("defining-property", trials, seed, trial)


ALL_CHECKS = (
    verify_projection_formula,
    verify_functoriality,
    verify_base_change,
    verify_stokes,
    verify_corr_stokes,
    verify_composition,
    verify_defining_property,
)


def run_all_checks(
    trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3, pushpull_trials: int = 0
) -> list[CheckResult]:
    """Run every checker, then ``verify_pushpull`` on ``pushpull_trials``
    trials unless that is 0."""
    results = [check(trials, seed + offset, max_coords, max_poly_deg)
               for offset, check in enumerate(ALL_CHECKS)]
    if pushpull_trials:
        results.append(verify_pushpull(pushpull_trials, seed))
    return results


# --- mock moduli ----------------------------------------------------------------


def mock_operation(
    mock: CorrespondenceModel, mus: tuple[int, ...], xis: tuple[Form, ...]
) -> Form:
    """The signed operation of a mock moduli span: (-1)^(operation sign)
    times its pull-push.  Inputs must be homogeneous; the sign uses their
    actual degrees."""
    if len(xis) != mock.k or len(mus) != mock.k:
        raise ValueError(f"expected {mock.k} inputs and parities")
    degs = tuple(x.degree() for x in xis)
    sign = signs.operation_sign(degs, mus)
    return apply_correspondence(mock, xis).scale((-1) ** sign)


def derived_node_parity(inner: CorrespondenceModel, inner_mus: tuple[int, ...]) -> int:
    """Maslov parity of the node that makes the dimension-parity relation
    hold for the inner mock: reldim + arity + sum of input parities, mod 2."""
    return (inner.ev_out.reldim + inner.k + sum(inner_mus)) % 2


class PushPullReport(Frozen):
    """The three comparisons of one mock instance, whether its nested form
    is nonzero, and the instance's signs."""

    __slots__ = ("nested_vs_glued", "insertion_vs_composite", "reordered_vs_nested",
                 "nontrivial", "detail")

    @property
    def passed(self) -> bool:
        return (
            self.nested_vs_glued
            and self.insertion_vs_composite
            and self.reordered_vs_nested
        )


def check_pushpull_identities(
    outer: CorrespondenceModel,
    inner: CorrespondenceModel,
    j: int,
    xis: tuple[Form, ...],
    mus: tuple[int, ...],
    mutate_reorder_sign: int = 0,
) -> PushPullReport:
    """Verify the nested push-pull against the glued push-pull.

    Three exact comparisons per instance: the glued form times the reorder
    sign against the nested form; the signed composite of the two mock
    operations against the nested form times the insertion sign; and the
    block-reordered glued form against the nested form times the
    nested-move sign.  ``mutate_reorder_sign`` flips the reorder sign to
    confirm falsifiability.
    """
    k_inner = inner.k
    k = outer.k + k_inner - 1
    if len(xis) != k or len(mus) != k:
        raise ValueError(f"expected {k} inputs and parities")
    degs = tuple(x.degree() for x in xis)
    inner_mus = mus[j - 1 : j - 1 + k_inner]
    mu_node = derived_node_parity(inner, inner_mus)
    ctx = signs.SignContext(j, k_inner, degs, mus, mu_node, 0, outer.ev_out.target.dimension)

    # nested route: inner push-pull fed through the outer slot-j leg
    inner_raw = apply_correspondence(inner, xis[j - 1 : j - 1 + k_inner])
    nested = apply_correspondence(outer, xis[: j - 1] + (inner_raw,) + xis[j - 1 + k_inner :])

    # glued route: the inputs pulled back once along the glued legs, wedged
    # in leg order here and regrouped for the block-reorder route below
    glued_mock = fiber_product(outer, inner, j)
    pulled = [pullback(leg, xi) for leg, xi in zip(glued_mock.ev_in, xis)]
    glued = pushforward(glued_mock.ev_out, wedge_all(glued_mock.space, pulled))

    reorder = (signs.pushpull_reorder_sign(ctx) + mutate_reorder_sign) % 2
    ok_glued = nested == glued.scale((-1) ** reorder)

    # insertion route: composite of the two signed mock operations
    inner_signed = mock_operation(inner, inner_mus, xis[j - 1 : j - 1 + k_inner])
    outer_word = xis[: j - 1] + (inner_signed,) + xis[j - 1 + k_inner :]
    outer_mus = mus[: j - 1] + (mu_node,) + mus[j - 1 + k_inner :]
    kz = signs.koszul_prefix(degs, mus, j)
    composite = mock_operation(outer, outer_mus, outer_word).scale((-1) ** kz)
    insertion = signs.coderivation_sign(ctx)
    ok_insert = composite == nested.scale((-1) ** insertion)

    # block-reorder route: inputs regrouped (prefix, suffix, inner block)
    reordered_factors = (
        pulled[: j - 1] + pulled[j - 1 + k_inner :] + pulled[j - 1 : j - 1 + k_inner]
    )
    reordered = pushforward(
        glued_mock.ev_out, wedge_all(glued_mock.space, reordered_factors)
    )
    move = signs.nested_move_sign(ctx)
    ok_reordered = reordered == nested.scale((-1) ** move)

    return PushPullReport(
        ok_glued, ok_insert, ok_reordered, not nested.is_zero(),
        {"j": j, "k": k, "k_inner": k_inner, "mu_node": mu_node,
         "reorder_sign": reorder, "nested": str(nested)},
    )


def random_mock_instance(
    rng: random.Random,
) -> tuple[CorrespondenceModel, CorrespondenceModel, int, tuple[Form, ...], tuple[int, ...]]:
    """A random composable (outer, inner, j) triple of ``_random_span``s with
    ``_top_form`` inputs, so the nested push-pull is nonzero by construction;
    the outer slot-j leg is the node projection.  k_outer is 1..3 and k_inner
    0..3 (0 only if k_outer >= 2), so the total arity is 1..5.  Inputs are
    top forms, the one degree at which no fiber letter can be missing; every
    identity is linear in each input, so this narrows which forms are drawn,
    not what a check means.  Names are numbered afresh per call.

    k_inner = 0 is the splitting that ``prove-signs`` covers by applying the
    boundary-sign formula verbatim: the inner span has no fiber, its output
    is the unit 0-form on the node, and the outer span's other legs cover
    the node copies."""
    fresh = NameSource()
    below = rng._randbelow
    k_outer = 1 + below(3)
    k_inner = below(4) if k_outer > 1 else 1 + below(3)
    j = 1 + below(k_outer)
    node = random_space(rng, 2, fresh, "n")
    r0 = random_space(rng, 2, fresh, "o")
    inner = _random_span(rng, fresh, k_inner, node)
    outer = _random_span(rng, fresh, k_outer, r0, node, j - 1, node_filled=k_inner > 0)
    legs = outer.ev_in[: j - 1] + inner.ev_in + outer.ev_in[j:]
    xis = tuple(_top_form(rng, leg.target) for leg in legs)
    mus = tuple(below(2) for _ in xis)
    return outer, inner, j, xis, mus


def verify_pushpull(trials: int, seed: int) -> CheckResult:
    """The nested-vs-glued identity suite on one random mock per trial."""
    def trial(rng, fresh, stats):
        report = check_pushpull_identities(*random_mock_instance(rng))
        return report.nontrivial, None if report.passed else report.detail
    return _trial_loop("mock-pushpull", trials, seed, trial)
