"""Randomized exact verification of the push-pull calculus, plus mock
moduli correspondences that instantiate the operation definition and the
nested-vs-glued push-pull identities with their reorder signs.

Every checker draws seeded random instances, evaluates both sides of its
identity with exact rational arithmetic, and requires literal equality; the
first failing instance is returned as a witness.  One loop, ``_trial_loop``,
runs every calculus checker: it owns the seeded stream, the trial count and
the stop at the first failure, and each checker supplies only the draw and
comparison of one trial.  Instance generators keep interval-coordinate
assignments inside [0, 1] by construction.  Each checker, and each
``random_mock_instance`` call, numbers its coordinate names from its own
``NameSource``, so a witness does not depend on what ran before it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .. import signs
from .core import (
    CIRCLE,
    INTERVAL,
    CorrespondenceModel,
    CubeTorusSpace,
    Form,
    Poly,
    ProjectionMap,
    SmoothMapModel,
    apply_correspondence,
    boundary_correspondence_apply,
    boundary_pushforward,
    bundle_orientation_sign,
    compose_projection,
    compose_smooth,
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


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # Wall time of the check, set by run_all_checks; not part of the report.
    elapsed_s: float = field(default=0.0, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures


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
    n = rng.randrange(0, max_coords + 1)
    return CubeTorusSpace(tuple(_random_coords(rng, fresh, prefix, n)))


def random_poly(rng: random.Random, names: tuple[str, ...], max_deg: int) -> Poly:
    out = Poly()
    for _ in range(rng.randrange(1, 3)):
        mono: dict[str, int] = {}
        for v in names:
            p = rng.randrange(0, max_deg + 1)
            if p:
                mono[v] = p
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        out = out + Poly({tuple(sorted(mono.items())): c})
    return out


def random_form(
    rng: random.Random,
    sp: CubeTorusSpace,
    max_deg: int,
    degree: int | None = None,
) -> Form:
    """Random form; homogeneous of the given exterior degree when requested."""
    names = sp.names()
    out = Form.zero(sp)
    for _ in range(rng.randrange(1, 3)):
        if degree is None:
            size = rng.randrange(0, sp.dimension + 1)
        else:
            size = degree
        if size > sp.dimension:
            continue
        wedge_key = tuple(sorted(rng.sample(range(sp.dimension), size)))
        letters = tuple(names[i] for i in wedge_key)
        poly = random_poly(rng, sp.interval_names(), max_deg)
        out = out + Form(sp, {letters: poly})
    return out


def _unit_valued_poly(rng: random.Random, names: tuple[str, ...]) -> Poly:
    """A polynomial with image inside [0, 1] on the unit cube."""
    if not names:
        return Poly.const(Fraction(rng.randrange(0, 3), 2))
    choice = rng.randrange(5)
    v = rng.choice(names)
    if choice == 0:
        return Poly.var(v)
    if choice == 1:
        return Poly.const(1) - Poly.var(v)
    if choice == 2:
        return Poly.var(v, 2)
    if choice == 3:
        w = rng.choice(names)
        return Poly.var(v) * Poly.var(w)
    w = rng.choice(names)
    return (Poly.var(v) + Poly.var(w)).scale(Fraction(1, 2))


def random_smooth_map(
    rng: random.Random, source: CubeTorusSpace, target: CubeTorusSpace
) -> SmoothMapModel:
    src_circles = tuple(n for n, k in source.coords if k == CIRCLE)
    table: dict[str, tuple] = {}
    for name, kind in target.coords:
        if kind == INTERVAL:
            table[name] = ("poly", _unit_valued_poly(rng, source.interval_names()))
        elif src_circles and rng.random() < 0.8:
            table[name] = ("circle", rng.choice(src_circles), rng.choice([1, -1]))
        else:
            table[name] = ("const-circle",)
    return smooth_map(source, target, table)


def random_bundle(
    rng: random.Random, max_coords: int, fresh: NameSource, min_fiber: int = 0,
    prefix: str = "x",
) -> ProjectionMap:
    """A random projection with shuffled source interleaving and a target
    listed in an order independent of the source's."""
    total = rng.randrange(max(1, min_fiber), max_coords + 1)
    n_fiber = rng.randrange(min_fiber, total + 1) if total > min_fiber else total
    coords = _random_coords(rng, fresh, prefix, total)
    rng.shuffle(coords)
    source = CubeTorusSpace(tuple(coords))
    base = list(coords)
    rng.shuffle(base)
    base = base[: total - n_fiber]
    target_coords = [(fresh("b"), kind) for _, kind in base]
    target = CubeTorusSpace(tuple(target_coords))
    injection = {t[0]: s[0] for t, s in zip(target_coords, base)}
    return projection(source, target, injection)


# --- identity checkers ---------------------------------------------------------


def _trial_loop(name: str, trials: int, seed: int, trial, **stats) -> CheckResult:
    """Run ``trial(rng, fresh, stats)`` up to ``trials`` times on one seeded
    stream and one ``NameSource``.  A trial returns ``None`` when its identity
    holds and its witness otherwise; the first witness, numbered by its
    trial, fails the check.  ``stats`` holds the counts a trial keeps, each
    present from the start."""
    rng = random.Random(seed)
    fresh = NameSource()
    result = CheckResult(name, trials, stats=stats)
    for i in range(trials):
        witness = trial(rng, fresh, result.stats)
        if witness is not None:
            result.failures.append({"trial": i, **witness})
            break
    return result


def _mismatch(lhs, rhs, **inputs) -> dict | None:
    """``None`` when the two sides agree, else the inputs and both sides."""
    if lhs == rhs:
        return None
    return {**{key: str(value) for key, value in inputs.items()}, "lhs": str(lhs), "rhs": str(rhs)}


def verify_projection_formula(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """p_!((p* theta) ^ beta) == theta ^ p_! beta, exactly."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        theta = random_form(rng, p.target, max_poly_deg)
        beta = random_form(rng, p.source, max_poly_deg)
        lhs = pushforward(p, wedge(pullback(p.as_smooth(), theta), beta))
        rhs = wedge(theta, pushforward(p, beta))
        return _mismatch(lhs, rhs, theta=theta, beta=beta)
    return _trial_loop("projection-formula", trials, seed, trial)


def verify_functoriality(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """(q o p)_! beta == q_!(p_! beta), and the iterated-fiber identity
    (q o p)_!(p* theta ^ beta) == q_!(theta ^ p_! beta)."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh)
        # A draw kept only for the seeded stream that the reports pin; q is
        # built below as a projection out of p.target.
        random_bundle(rng, max_coords, fresh)
        names = p.target.names()
        keep = [n for n in names if rng.random() < 0.7]
        rng.shuffle(keep)
        q_target = CubeTorusSpace(tuple((fresh("c"), p.target.kind(n)) for n in keep))
        q = projection(p.target, q_target, {t[0]: s for t, s in zip(q_target.coords, keep)})
        qp = compose_projection(q, p)
        beta = random_form(rng, p.source, max_poly_deg)
        theta = random_form(rng, p.target, max_poly_deg)
        lhs1 = pushforward(qp, beta)
        rhs1 = pushforward(q, pushforward(p, beta))
        lhs2 = pushforward(qp, wedge(pullback(p.as_smooth(), theta), beta))
        rhs2 = pushforward(q, wedge(theta, pushforward(p, beta)))
        if lhs1 != rhs1 or lhs2 != rhs2:
            return {"beta": str(beta), "theta": str(theta),
                    "composite": str(lhs1), "staged": str(rhs1),
                    "iterated_lhs": str(lhs2), "iterated_rhs": str(rhs2)}
        return None
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
        return _mismatch(lhs, rhs, beta=beta)
    return _trial_loop("base-change", trials, seed, trial)


def verify_stokes(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """d p_! beta == p_! d beta + (-1)^(dim source + deg beta) * boundary term."""
    def trial(rng, fresh, stats):
        p = random_bundle(rng, max_coords, fresh, min_fiber=1)
        deg = rng.randrange(0, p.source.dimension + 1)
        beta = random_form(rng, p.source, max_poly_deg, degree=deg)
        if any(p.source.kind(v) == INTERVAL for v in p.fiber):
            stats["with_boundary"] += 1
        lhs = exterior_derivative(pushforward(p, beta))
        sign = (-1) ** ((p.source.dimension + deg) % 2)
        rhs = pushforward(p, exterior_derivative(beta)) + boundary_pushforward(p, beta).scale(sign)
        return _mismatch(lhs, rhs, beta=beta)
    return _trial_loop("stokes", trials, seed, trial, with_boundary=0)


def verify_corr_stokes(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """d Corr(xi) == Corr(d xi) + (-1)^(dim X + deg xi) * boundary Corr(xi)."""
    def trial(rng, fresh, stats):
        f1 = random_bundle(rng, max_coords, fresh, min_fiber=1)
        target2 = random_space(rng, 2, fresh, prefix="m")
        f2 = random_smooth_map(rng, f1.source, target2)
        corr = CorrespondenceModel(f1.source, f1, f2)
        deg = rng.randrange(0, target2.dimension + 1)
        xi = random_form(rng, target2, max_poly_deg, degree=deg)
        if any(corr.space.kind(v) == INTERVAL for v in f1.fiber):
            stats["with_boundary"] += 1
        lhs = exterior_derivative(apply_correspondence(corr, xi))
        sign = (-1) ** ((corr.space.dimension + deg) % 2)
        rhs = apply_correspondence(corr, exterior_derivative(xi)) + boundary_correspondence_apply(corr, xi).scale(sign)
        return _mismatch(lhs, rhs, xi=xi)
    return _trial_loop("correspondence-stokes", trials, seed, trial, with_boundary=0)


def _random_composable_pair(
    rng: random.Random, fresh: NameSource
) -> tuple[CorrespondenceModel, CorrespondenceModel]:
    m1 = random_space(rng, 2, fresh, prefix="p")
    m2 = random_space(rng, 2, fresh, prefix="q")
    m3 = random_space(rng, 2, fresh, prefix="r")

    def build(out_space, in_space, prefix):
        copies = {n: fresh(prefix) for n in in_space.names()}
        coords = (
            [(n, k) for n, k in out_space.coords]
            + [(copies[n], k) for n, k in in_space.coords]
            + _random_coords(rng, fresh, prefix, rng.randrange(0, 2))
        )
        rng.shuffle(coords)
        sp = CubeTorusSpace(tuple(coords))
        f1 = projection(sp, out_space, {n: n for n in out_space.names()})
        f2 = projection(sp, in_space, copies).as_smooth()
        return CorrespondenceModel(sp, f1, f2)

    return build(m1, m2, "w"), build(m2, m3, "z")


def verify_composition(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> CheckResult:
    """Corr of the fiber product == Corr after Corr, exactly."""
    def trial(rng, fresh, stats):
        c12, c23 = _random_composable_pair(rng, fresh)
        c13 = fiber_product(c12, c23)
        m3 = c23.f2.target
        deg = rng.randrange(0, m3.dimension + 1)
        stats["odd_degree_inputs"] += deg % 2
        xi = random_form(rng, m3, max_poly_deg, degree=deg)
        lhs = apply_correspondence(c13, xi)
        rhs = apply_correspondence(c12, apply_correspondence(c23, xi))
        return _mismatch(lhs, rhs, xi=xi)
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
            return {"theta": str(theta), "beta": str(beta),
                    "base_integral": str(lhs), "total_integral": str(rhs)}
        return None
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


def run_all_checks(trials: int, seed: int, max_coords: int = 4, max_poly_deg: int = 3) -> list[CheckResult]:
    """Run every checker, recording each one's wall time in ``elapsed_s``."""
    results = []
    for offset, check in enumerate(ALL_CHECKS):
        started = time.perf_counter()
        result = check(trials, seed + offset, max_coords, max_poly_deg)
        result.elapsed_s = time.perf_counter() - started
        results.append(result)
    return results


# --- mock moduli ----------------------------------------------------------------


@dataclass(frozen=True)
class MockModuli:
    """A correspondence with one output leg (a projection) and k input legs,
    standing in for a k-input moduli space."""

    space: CubeTorusSpace
    ev_out: ProjectionMap
    ev_in: tuple[SmoothMapModel, ...]

    def __post_init__(self):
        if self.ev_out.source != self.space:
            raise ValueError("output leg must start on the mock space")
        for leg in self.ev_in:
            if leg.source != self.space:
                raise ValueError("input legs must start on the mock space")

    @property
    def k(self) -> int:
        return len(self.ev_in)


def mock_operation(mock: MockModuli, mus: tuple[int, ...], xis: tuple[Form, ...]) -> Form:
    """The signed operation of the mock: (-1)^(operation sign) times the
    push-pull of the wedge of pulled-back inputs.  Inputs must be
    homogeneous; the sign uses their actual degrees."""
    if len(xis) != mock.k or len(mus) != mock.k:
        raise ValueError(f"expected {mock.k} inputs and parities")
    degs = tuple(x.degree() for x in xis)
    sign = signs.operation_sign(degs, mus)
    raw = pushforward(
        mock.ev_out,
        wedge_all(mock.space, (pullback(leg, xi) for leg, xi in zip(mock.ev_in, xis))),
    )
    return raw.scale((-1) ** sign)


def glue_mocks(
    outer: MockModuli, inner: MockModuli, j: int
) -> tuple[MockModuli, ProjectionMap, SmoothMapModel]:
    """Fiber product of outer and inner mocks at slot j over the node space.

    Returns the glued mock (with the composite output leg and the k input
    legs in parent order) plus the two projections of the glued space.
    """
    if not 1 <= j <= outer.k:
        raise ValueError(f"slot {j} outside 1..{outer.k}")
    node_leg = outer.ev_in[j - 1]
    if node_leg.target != inner.ev_out.target:
        raise ValueError("outer slot-j leg and inner output leg must share the node")
    if not node_leg.is_projection():
        raise ValueError("outer slot-j leg must be a coordinate projection")
    glued, to_outer, to_inner = pullback_bundle(inner.ev_out, node_leg, rename_prefix="g")
    ev_out = compose_projection(outer.ev_out, to_outer)
    to_outer_smooth = to_outer.as_smooth()
    legs: list[SmoothMapModel] = []
    for leg in outer.ev_in[: j - 1]:
        legs.append(compose_smooth(leg, to_outer_smooth))
    for leg in inner.ev_in:
        legs.append(compose_smooth(leg, to_inner))
    for leg in outer.ev_in[j:]:
        legs.append(compose_smooth(leg, to_outer_smooth))
    return MockModuli(glued, ev_out, tuple(legs)), to_outer, to_inner


def derived_node_parity(inner: MockModuli, inner_mus: tuple[int, ...]) -> int:
    """Maslov parity of the node that makes the dimension-parity relation
    hold for the inner mock: reldim + arity + sum of input parities, mod 2."""
    return (inner.ev_out.reldim + inner.k + sum(inner_mus)) % 2


@dataclass
class PushPullReport:
    nested_vs_glued: bool
    insertion_vs_composite: bool
    reordered_vs_nested: bool
    nontrivial: bool
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.nested_vs_glued
            and self.insertion_vs_composite
            and self.reordered_vs_nested
        )


def check_pushpull_identities(
    outer: MockModuli,
    inner: MockModuli,
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
    ctx = signs.SignContext(
        k=k, j=j, k_outer=outer.k, k_inner=k_inner,
        degs=degs, mus=mus, mu_node=mu_node,
        mu_out=0, dim_out=outer.ev_out.target.dimension,
    )

    # nested route: inner push-pull fed through the outer slot-j leg
    inner_raw = pushforward(
        inner.ev_out,
        wedge_all(
            inner.space,
            (pullback(leg, xi) for leg, xi in zip(inner.ev_in, xis[j - 1 : j - 1 + k_inner])),
        ),
    )
    outer_factors = [
        pullback(leg, xi) for leg, xi in zip(outer.ev_in[: j - 1], xis[: j - 1])
    ]
    outer_factors.append(pullback(outer.ev_in[j - 1], inner_raw))
    outer_factors += [
        pullback(leg, xi)
        for leg, xi in zip(outer.ev_in[j:], xis[j - 1 + k_inner :])
    ]
    nested = pushforward(outer.ev_out, wedge_all(outer.space, outer_factors))

    glued_mock, _, _ = glue_mocks(outer, inner, j)
    pulled = [pullback(leg, xi) for leg, xi in zip(glued_mock.ev_in, xis)]
    glued = pushforward(glued_mock.ev_out, wedge_all(glued_mock.space, pulled))

    reorder = (signs.pushpull_reorder_sign(ctx) + mutate_reorder_sign) % 2
    ok_glued = nested == glued.scale((-1) ** reorder)

    # insertion route: composite of the two signed mock operations
    composite = Form.zero(outer.ev_out.target)
    if not inner_raw.is_zero():
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
        nested_vs_glued=ok_glued,
        insertion_vs_composite=ok_insert,
        reordered_vs_nested=ok_reordered,
        nontrivial=not nested.is_zero(),
        detail={"j": j, "k": k, "k_inner": k_inner, "mu_node": mu_node,
                "reorder_sign": reorder, "nested": str(nested)},
    )


def random_mock_instance(
    rng: random.Random,
) -> tuple[MockModuli, MockModuli, int, tuple[Form, ...], tuple[int, ...]]:
    """A random composable (outer, inner, j) triple with random inputs of
    polynomial degree at most 2; its coordinate names are numbered afresh
    on every call."""
    fresh = NameSource()
    node = random_space(rng, 2, fresh, "n")
    r0 = random_space(rng, 2, fresh, "o")

    def build_mock(k_legs, out_target, node_slot=None):
        copies_out = {n: fresh("c") for n in out_target.names()}
        coords = [(copies_out[n], k) for n, k in out_target.coords]
        node_copies = {}
        if node_slot is not None:
            node_copies = {n: fresh("c") for n in node.names()}
            coords += [(node_copies[n], k) for n, k in node.coords]
        coords += _random_coords(rng, fresh, "f", rng.randrange(0, 3))
        rng.shuffle(coords)
        sp = CubeTorusSpace(tuple(coords))
        ev_out = projection(sp, out_target, copies_out)
        legs = []
        targets = []
        for slot in range(k_legs):
            if node_slot is not None and slot == node_slot:
                legs.append(projection(sp, node, node_copies).as_smooth())
                targets.append(node)
            else:
                tgt = random_space(rng, 2, fresh, "i")
                legs.append(random_smooth_map(rng, sp, tgt))
                targets.append(tgt)
        return MockModuli(sp, ev_out, tuple(legs)), targets

    k_inner = rng.randrange(1, 3)
    k_outer = rng.randrange(1, 3)
    j = rng.randrange(1, k_outer + 1)
    inner, inner_targets = build_mock(k_inner, node)
    outer, outer_targets = build_mock(k_outer, r0, node_slot=j - 1)

    xi_targets = outer_targets[: j - 1] + inner_targets + outer_targets[j:]
    xis = []
    for tgt in xi_targets:
        deg = rng.randrange(0, tgt.dimension + 1)
        xis.append(random_form(rng, tgt, 2, degree=deg))
    k = k_outer + k_inner - 1
    mus = tuple(rng.randrange(0, 2) for _ in range(k))
    return outer, inner, j, tuple(xis), mus


# verify_pushpull resamples instances whose nested form is zero until this
# many nontrivial ones have been drawn.
_NONTRIVIAL_QUOTA = 25


def verify_pushpull(trials: int, seed: int) -> CheckResult:
    """Run the nested-vs-glued identity suite on random mock instances."""
    rng = random.Random(seed)
    result = CheckResult("mock-pushpull", trials)
    nontrivial = 0
    attempts = 0
    i = 0
    while i < trials and attempts < 50 * trials:
        attempts += 1
        outer, inner, j, xis, mus = random_mock_instance(rng)
        report = check_pushpull_identities(outer, inner, j, xis, mus)
        if report.nontrivial:
            nontrivial += 1
        elif nontrivial < _NONTRIVIAL_QUOTA:
            continue  # resample until enough instances carry nonzero forms
        if not report.passed:
            result.failures.append(report.detail)
            break
        i += 1
    if i < trials and not result.failures:
        result.failures.append(
            {"error": "attempt cap reached", "trials_run": i,
             "trials_requested": trials, "attempts": attempts}
        )
    result.stats["nontrivial"] = nontrivial
    return result
