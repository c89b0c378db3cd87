"""Exact de Rham model on products of unit intervals and circles.

Forms have polynomial coefficients (rational, in the interval coordinates
only; circle coordinates carry constants) and are stored canonically, so
every operation -- wedge, exterior derivative, pullback along the admitted
smooth maps, and integration along the fibers of coordinate projections --
is exact and equality is literal.  Each coefficient is an ``int`` or a
``Fraction``, never a float.  Every number this module computes follows
``novikov._rational``: an ``int`` when it is integral, else a ``Fraction``
(a product, a sum or a division over a unit interval that comes out whole
is stored as the ``int``).  An int and the equal ``Fraction`` compare, hash
and print alike, so which of the two holds a value never shows.

Orientation bookkeeping: a space is oriented by the wedge of its coordinate
1-forms in listed order.  A projection is oriented base-first fiber-last;
its pushforward reorders each monomial to (base generators in target order,
fiber generators in the projection's fiber order), keeps the Koszul sign,
drops terms missing any fiber generator, and integrates the coefficient
over the fiber (unit intervals exactly, circles with total measure 1), in
one pass over each monomial of the coefficient (see ``pushforward``).
Composite projections carry the induced fiber order (outer fiber first),
which is what makes pushforward functorial on the nose.  The boundary term
of fiberwise Stokes is endpoint evaluation, with no face map: one face form
per interval fiber coordinate, pushed forward once (``boundary_pushforward``).

Construction: the public ``Form(space, terms)`` validates every term, a
zero one included (coefficients use interval coordinates only, naming the
smallest other variable; wedge letters are coordinates, in coordinate
order, without repeats), and ``Poly(terms)`` rejects a monomial that is not
a tuple of (name, power >= 1) pairs strictly increasing by name, drops zero
coefficients, stores each as ``novikov._rational`` does and, like
``Poly.const``, ``Poly.scale`` and ``Form.scale``, rejects a coefficient
that is not an ``int`` or a ``Fraction`` (``novikov.exact_rational``).
Results computed here use the trusted ``Form._of`` and ``Poly._of``, which
adopt the dict they are handed (copying it only to drop a zero) and check
nothing; no kernel hands them a dict an input holds.  ``wedge``,
``pullback``, ``Poly.__mul__`` and ``Poly.subst`` accumulate into one
monomial dict per output wedge (``_mul_into``, ``_subst_into``), so each
result coefficient is built once.

Models: ``CubeTorusSpace``, ``ProjectionMap``, ``SmoothMapModel`` and
``CorrespondenceModel`` are ``frozen.Frozen`` classes: their equality, hash
and repr are those of their fields, and the derived tables (the slots named
with a leading ``_``) are never compared.  Each of the first three is built
in one ``__init__`` that validates and derives its tables (a space its
names, order, kinds and intervals; a projection each base coordinate's
target and each source coordinate's bundle rank; a smooth map its
assignment table and interval polynomials), which the kernels read.
``smooth_map``, ``projection`` and the public constructors validate every
assignment, including the unit-range check.  Derived spaces and
projections use the public constructors too; derived smooth maps
(``as_smooth``, ``compose_smooth``, ``pullback_bundle``) use the trusted
``SmoothMapModel._of``, which derives the tables and checks nothing.

Correspondences: a ``CorrespondenceModel`` is a span with one output
projection and k input legs; ``apply_correspondence`` is its pull-push, and
``fiber_product`` glues one span's output into another's slot j by base
change along that slot's leg, which may be any smooth map: only the output
leg that is pulled back (the node's ev_0) must be a projection.

Pullback: each target 1-form pulls back to (source letter, coefficient)
pairs.  Along a coordinate map -- every assignment a unit variable, a
constant, a circle with sign +1 or -1, or a constant circle -- a letter has
one pair with coefficient +1 or -1, or none, so a term pulls back by
relabelling its letters, one Koszul merge (0 on a repeated letter, as on a
diagonal) and one ``subst`` of its coefficient, without building a form or
multiplying polynomials.  The unit-range check of an interval assignment
covers the full lattice {0, 1/2, 1}^vars over the variables it uses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from ..frozen import Frozen
from ..novikov import Rational, _rational, exact_rational

INTERVAL = "interval"
CIRCLE = "circle"


def _divide(c: Rational, n: int) -> Rational:
    """c / n exactly: an ``int`` when it is integral, else a ``Fraction``."""
    if c.__class__ is int:
        return c // n if c % n == 0 else Fraction(c, n)
    return _rational(c / n)


def _accumulate(out: dict, key, value) -> None:
    """``out[key] += value`` with no zero default, and an integral sum of
    numbers stored as an ``int``; the trusted constructors drop the zeros
    that cancellation leaves."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
        if value.__class__ is Fraction:
            value = _rational(value)
    out[key] = value


def _mul_into(out: dict, a: Mapping, b: Mapping, sign: int = 1) -> dict:
    """Accumulate ``sign`` (+1 or -1) times the product of the polynomials
    with terms ``a`` and ``b`` into ``out``; return ``out``."""
    for m1, c1 in a.items():
        if sign < 0:
            c1 = -c1
        for m2, c2 in b.items():
            if not m1:
                key = m2
            elif not m2:
                key = m1
            else:
                powers: dict[str, int] = dict(m1)
                for v, p in m2:
                    powers[v] = powers.get(v, 0) + p
                key = tuple(sorted(powers.items()))
            prev = out.get(key)
            c = c1 * c2 if prev is None else prev + c1 * c2
            out[key] = c if c.__class__ is int else _rational(c)
    return out


def _subst_into(out: dict, terms: Mapping, replacements: Mapping[str, "Poly"], sign: int = 1) -> dict:
    """Accumulate ``sign`` (+1 or -1) times the polynomial with ``terms``,
    the replacements substituted, into ``out``; return ``out``.  A one-term
    replacement is folded into coefficient and exponents; only replacements
    of several terms are multiplied out."""
    for mono, c in terms.items():
        if sign < 0:
            c = -c
        exps: dict[str, int] = {}
        spread = []  # powers of several-term replacements
        for v, p in mono:
            base = replacements.get(v)
            if base is None:
                exps[v] = exps.get(v, 0) + p
            elif len(base.terms) == 1:
                (m, k), = base.terms.items()
                if k != 1:
                    c *= k ** p
                for w, q in m:
                    exps[w] = exps.get(w, 0) + q * p
            else:
                power = base.terms
                for _ in range(p - 1):
                    power = _mul_into({}, power, base.terms)
                spread.append(power)
        key = tuple(sorted(exps.items()))
        if spread:
            piece = {key: c}
            for power in spread[:-1]:
                piece = _mul_into({}, piece, power)
            _mul_into(out, piece, spread[-1])
        else:
            prev = out.get(key)
            if prev is not None:
                c += prev
            out[key] = c if c.__class__ is int else _rational(c)
    return out


class CubeTorusSpace(Frozen):
    """An ordered product of unit intervals and circles; equality and hash
    are those of ``coords``, checked after identity.  ``coords`` holds
    (name, INTERVAL | CIRCLE) pairs; the other fields are derived from it
    once, when the space is built."""

    __slots__ = ("coords", "_names", "_order", "_kinds", "_intervals")

    def __init__(self, coords: tuple[tuple[str, str], ...]):
        names = [n for n, _ in coords]
        order = {n: i for i, n in enumerate(names)}
        if len(order) != len(names):
            raise ValueError(f"duplicate coordinate names in {names}")
        kinds = dict(coords)
        for kind in kinds.values():
            if kind != INTERVAL and kind != CIRCLE:
                raise ValueError(f"unknown coordinate kind {kind!r}")
        Frozen.__init__(self, coords, tuple(names), order, kinds,
                        tuple([n for n, kind in coords if kind == INTERVAL]))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def names(self) -> tuple[str, ...]:
        return self._names

    def kind(self, name: str) -> str:
        kind = self._kinds.get(name)
        if kind is None:
            raise KeyError(f"no coordinate {name!r}")
        return kind

    def interval_names(self) -> tuple[str, ...]:
        return self._intervals


def space(*coords: tuple[str, str]) -> CubeTorusSpace:
    return CubeTorusSpace(tuple(coords))


# --- polynomials --------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]  # sorted variable/power pairs


def _is_monomial(mono) -> bool:
    """Whether ``mono`` is a tuple of (str, int >= 1) pairs strictly
    increasing by name."""
    if mono.__class__ is not tuple:
        return False
    prev = None
    for pair in mono:
        if pair.__class__ is not tuple or len(pair) != 2:
            return False
        name, power = pair
        if not (name.__class__ is str and power.__class__ is int and power >= 1
                and (prev is None or prev < name)):
            return False
        prev = name
    return True


class Poly:
    """Polynomial with rational coefficients in named variables; each
    coefficient is an ``int`` or a ``Fraction``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        clean: dict[Monomial, Rational] = {}
        for mono, c in (terms or {}).items():
            if not _is_monomial(mono):
                raise ValueError(f"monomial {mono!r} is not (name, power >= 1) pairs sorted by name")
            try:
                c = _rational(c)
            except ValueError:
                raise ValueError(
                    f"coefficient {c!r} of monomial {mono} is not an int or a Fraction"
                ) from None
            if c:
                clean[mono] = c
        self.terms = clean

    @staticmethod
    def _of(terms: dict[Monomial, Rational]) -> "Poly":
        """Trusted constructor for canonical terms this module computed; it
        adopts the dict (see the module docstring)."""
        poly = object.__new__(Poly)
        poly.terms = terms if all(terms.values()) else {m: c for m, c in terms.items() if c}
        return poly

    @staticmethod
    def const(c: Rational) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(name: str, power: int = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return Poly.const(1)
        if name.__class__ is str and power.__class__ is int:
            return Poly._of({((name, power),): 1})
        return Poly({((name, power),): 1})  # which rejects the monomial

    def variables(self) -> frozenset[str]:
        return frozenset(v for m in self.terms for v, _ in m)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return Poly._of(out)

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._of(_mul_into({}, self.terms, other.terms))

    def scale(self, c: Rational) -> "Poly":
        c = exact_rational(c)
        if c == 1:
            return self
        if c == -1:
            return -self
        return Poly._of({m: _rational(c * k) for m, k in self.terms.items()})

    def partial(self, name: str) -> "Poly":
        # Lowering the power of one variable maps distinct monomials to
        # distinct monomials, so no two terms meet.
        out: dict[Monomial, Rational] = {}
        for mono, c in self.terms.items():
            for i, (v, p) in enumerate(mono):
                if v == name:
                    lowered = ((name, p - 1),) if p > 1 else ()
                    out[mono[:i] + lowered + mono[i + 1:]] = c if p == 1 else _rational(c * p)
                    break
        return Poly._of(out)

    def subst(self, replacements: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials for variables (see ``_subst_into``)."""
        return Poly._of(_subst_into({}, self.terms, replacements))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = [str(c)] if (c != 1 or not mono) else []
            factors += [f"{v}^{p}" if p > 1 else v for v, p in mono]
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Poly {self}>"


ONE_POLY = Poly.const(1)


def _merge_sign(letters: Sequence[str], order: Mapping[str, int]) -> tuple[int, tuple[str, ...]]:
    """Sort 1-form letters by the given total order, returning the Koszul
    sign (inversion parity) and the sorted tuple; sign 0 on repeats.  An
    unknown letter raises ``KeyError``."""
    n = len(letters)
    if n < 2:
        if n:
            order[letters[0]]  # KeyError on an unknown letter
        return 1, tuple(letters)
    if n == 2:
        a, b = letters
        oa, ob = order[a], order[b]
        return (1, (a, b)) if oa < ob else (-1, (b, a)) if ob < oa else (0, ())
    keyed = [order[x] for x in letters]
    if len(set(keyed)) != n:
        return 0, ()
    inversions = 0
    for i in range(1, n):
        k = keyed[i]
        for m in keyed[:i]:
            if m > k:
                inversions += 1
    return -1 if inversions & 1 else 1, tuple(sorted(letters, key=order.__getitem__))


class Form:
    """An exterior form on a cube-torus space, in canonical shape: monomial
    wedges sorted by coordinate order, nonzero polynomial coefficients that
    involve interval coordinates only."""

    __slots__ = ("space", "terms")

    def __init__(self, space: CubeTorusSpace, terms: Mapping[tuple[str, ...], Poly] | None = None):
        self.space = space
        clean: dict[tuple[str, ...], Poly] = {}
        kinds = space._kinds
        order = space._order
        for wedge, poly in (terms or {}).items():
            for mono in poly.terms:
                for v, _ in mono:
                    if kinds.get(v) != INTERVAL:
                        v = min(v for v in poly.variables() if kinds.get(v) != INTERVAL)
                        raise ValueError(
                            f"coefficient uses {v!r}, not an interval coordinate of the space"
                        )
            # One pass over the letters: each must be a coordinate, then the
            # ranks must increase (a fall is out of order, a tie a repeat).
            prev = -1
            unordered = repeated = False
            for x in wedge:
                rank = order.get(x)
                if rank is None:
                    raise ValueError(f"wedge letter {x!r} not a coordinate")
                if rank < prev:
                    unordered = True
                elif rank == prev:
                    repeated = True
                prev = rank
            if unordered:
                raise ValueError(f"wedge {wedge} not in coordinate order")
            if repeated:
                raise ValueError(f"repeated letter in wedge {wedge}")
            if poly.terms:  # a zero coefficient drops its term once it is checked
                clean[tuple(wedge)] = poly
        self.terms = clean

    @staticmethod
    def _of(space: CubeTorusSpace, terms: dict[tuple[str, ...], Poly]) -> "Form":
        """Trusted constructor for canonical terms this module computed; it
        adopts the dict (see the module docstring)."""
        form = object.__new__(Form)
        form.space = space
        for p in terms.values():
            if not p.terms:
                terms = {w: p for w, p in terms.items() if p.terms}
                break
        form.terms = terms
        return form

    @staticmethod
    def one(space: CubeTorusSpace) -> "Form":
        return Form._of(space, {(): ONE_POLY})

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"form is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __add__(self, other: "Form") -> "Form":
        self._same_space(other)
        out = dict(self.terms)
        for w, p in other.terms.items():
            _accumulate(out, w, p)
        return Form._of(self.space, out)

    def __neg__(self) -> "Form":
        return Form._of(self.space, {w: -p for w, p in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c: Rational) -> "Form":
        c = exact_rational(c)
        if c == 1:
            return self
        return Form._of(self.space, {w: p.scale(c) for w, p in self.terms.items()})

    def _same_space(self, other: "Form"):
        if self.space != other.space:
            raise ValueError("forms live on different spaces")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for wedge, poly in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            dx = "^".join(f"d{x}" for x in wedge)
            coeff = str(poly)
            if " + " in coeff:
                coeff = f"({coeff})"
            parts.append(f"{coeff}*{dx}" if dx else coeff)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<Form on {self.space.names()}: {self}>"


def wedge(a: Form, b: Form) -> Form:
    a._same_space(b)
    order = a.space._order
    out: dict[tuple[str, ...], dict[Monomial, Rational]] = {}
    for w1, p1 in a.terms.items():
        for w2, p2 in b.terms.items():
            if not w1 or not w2:
                sign, merged = 1, w1 or w2
            else:
                sign, merged = _merge_sign(w1 + w2, order)
                if sign == 0:
                    continue
            coeffs = out.get(merged)
            if coeffs is None:
                coeffs = out[merged] = {}
            _mul_into(coeffs, p1.terms, p2.terms, sign)
    return Form._of(a.space, {w: Poly._of(coeffs) for w, coeffs in out.items()})


def wedge_all(space_: CubeTorusSpace, forms: Iterable[Form]) -> Form:
    """The wedge of the forms in order, starting from the first; the unit
    form of ``space_`` when there are none."""
    acc = None
    for f in forms:
        acc = f if acc is None else wedge(acc, f)
    return Form.one(space_) if acc is None else acc


def exterior_derivative(form: Form) -> Form:
    sp = form.space
    out: dict[tuple[str, ...], Poly] = {}
    for wedgekey, poly in form.terms.items():
        for v in sp._intervals:
            # dv moves past the letters of the sorted wedge that precede it
            # (sign 0 when the wedge holds dv).
            sign, merged = _merge_sign((v,) + wedgekey, sp._order)
            if sign and (pd := poly.partial(v)).terms:
                _accumulate(out, merged, pd if sign == 1 else -pd)
    return Form._of(sp, out)


# --- maps ---------------------------------------------------------------------

PolyAssignment = tuple[str, Poly]  # ("poly", P) for interval targets
CircleAssignment = tuple[str, str, int]  # ("circle", source name, +1/-1)
ConstCircle = tuple[str]  # ("const-circle",)


class SmoothMapModel(Frozen):
    """A map between cube-torus spaces given coordinatewise.

    Interval target coordinates are assigned polynomials in the source's
    interval coordinates (declared to land in [0, 1]; checked at the corner
    and midpoint lattice).  Circle target coordinates are assigned a source
    circle coordinate with an orientation sign, or are constant.
    ``assignments`` holds (target coord, assignment) pairs; derived from
    them once, when the map is built, are ``_table``, the assignment of
    each target coordinate, and ``_subs``, the polynomial of each interval
    one (what pullback and composition substitute).  Equality is that of
    source, target and assignments.
    """

    __slots__ = ("source", "target", "assignments", "_table", "_subs")

    def __init__(self, source: CubeTorusSpace, target: CubeTorusSpace,
                 assignments: tuple[tuple[str, tuple], ...]):
        table = dict(assignments)
        kinds = target._kinds
        if table.keys() != kinds.keys():
            raise ValueError("assignments must cover exactly the target coordinates")
        source_kinds = source._kinds
        subs = {}
        for name, assignment in table.items():
            if kinds[name] == INTERVAL:
                if assignment[0] != "poly":
                    raise ValueError(f"interval coordinate {name!r} needs a polynomial")
                poly: Poly = assignment[1]
                for mono in poly.terms:
                    for v, _ in mono:
                        if source_kinds.get(v) != INTERVAL:
                            unknown = poly.variables() - set(source._intervals)
                            raise ValueError(f"assignment for {name!r} uses {sorted(unknown)}")
                _check_unit_range(poly, name)
                subs[name] = poly
            elif assignment[0] == "circle":
                _, src, sign = assignment
                if source_kinds.get(src) != CIRCLE:
                    raise ValueError(f"{src!r} is not a source circle coordinate")
                if sign not in (1, -1):
                    raise ValueError("circle orientation sign must be +1 or -1")
            elif assignment[0] != "const-circle":
                raise ValueError(f"bad assignment for circle coordinate {name!r}")
        Frozen.__init__(self, source, target, assignments, table, subs)

    @staticmethod
    def _of(
        source: CubeTorusSpace, target: CubeTorusSpace, table: dict[str, tuple]
    ) -> "SmoothMapModel":
        """Trusted constructor for maps this module derives from valid maps:
        it sets the fields, derives the tables and checks nothing."""
        smap = object.__new__(SmoothMapModel)
        Frozen.__init__(smap, source, target, tuple(sorted(table.items())), table,
                        {n: a[1] for n, a in table.items() if a[0] == "poly"})
        return smap


def _check_unit_range(poly: Poly, name: str):
    """Check 0 <= poly <= 1 exactly on the lattice {0, 1/2, 1}^vars, over
    the variables the polynomial uses (3**len(vars) points).

    At x = a/2 with a in {0, 1, 2}, poly times D * 2**K is an integer, where
    D is the lcm of the coefficient denominators and K the largest total
    degree; so the check runs in integers, and a failure reports the first
    offending point in the same order and words as a rational evaluation."""
    used: set[str] = set()
    lcm = 1
    top = 0
    for mono, c in poly.terms.items():  # one pass for the variables, D and K
        lcm = math.lcm(lcm, c.denominator)
        degree = 0
        for v, p in mono:
            used.add(v)
            degree += p
        if degree > top:
            top = degree
    vars_ = sorted(used)
    index = {v: i for i, v in enumerate(vars_)}
    # Each term as (c * D, exponents): its scaled value at a point is that
    # number times 2**(K - the powers of variables at a = 1), or 0 when a
    # variable of the term is at a = 0.
    terms = [
        (c.numerator * (lcm // c.denominator), [(index[v], p) for v, p in mono])
        for mono, c in poly.terms.items()
    ]
    bound = lcm << top
    for point in itertools.product((0, 1, 2), repeat=len(vars_)):
        total = 0
        for value, exps in terms:
            shift = top
            for i, p in exps:
                if point[i] == 0:
                    break
                if point[i] == 1:
                    shift -= p
            else:
                total += value << shift
        if not 0 <= total <= bound:
            pt = {v: Fraction(a, 2) for v, a in zip(vars_, point)}
            val = Fraction(total, bound)
            raise ValueError(
                f"assignment for {name!r} leaves [0,1] at {pt} (value {val})"
            )


def smooth_map(
    source: CubeTorusSpace, target: CubeTorusSpace, table: Mapping[str, tuple]
) -> SmoothMapModel:
    return SmoothMapModel(source, target, tuple(sorted(table.items())))


def compose_smooth(outer: SmoothMapModel, inner: SmoothMapModel) -> SmoothMapModel:
    """outer after inner (inner.source -> outer.target)."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose")
    inner_table = inner._table
    table: dict[str, tuple] = {}
    for name, assignment in outer.assignments:
        if assignment[0] == "poly":
            table[name] = ("poly", assignment[1].subst(inner._subs))
        elif assignment[0] == "circle" and (via := inner_table[assignment[1]])[0] == "circle":
            table[name] = ("circle", via[1], assignment[2] * via[2])
        else:
            table[name] = ("const-circle",)
    return SmoothMapModel._of(inner.source, outer.target, table)


class ProjectionMap(Frozen):
    """A coordinate projection, oriented base-first fiber-last.

    ``injection`` embeds target coordinates into source coordinates
    (type-preserving), as (target coord, source coord) pairs; ``fiber``
    lists the remaining source coordinates in the order that orients the
    fiber.  Plain constructions use source order; composites carry the
    induced order (outer fiber first).  Derived once, when the projection
    is built, are ``_to_target``, the target coordinate of each base
    coordinate, and ``_rank``, the bundle rank of each source coordinate
    (a base coordinate its target's position, a fiber coordinate the base
    dimension plus its position in the fiber order).  Equality is that of
    source, target, injection and fiber.
    """

    __slots__ = ("source", "target", "injection", "fiber", "_to_target", "_rank")

    def __init__(self, source: CubeTorusSpace, target: CubeTorusSpace,
                 injection: tuple[tuple[str, str], ...], fiber: tuple[str, ...]):
        table = dict(injection)
        target_kinds = target._kinds
        if table.keys() != target_kinds.keys():
            raise ValueError("injection must cover exactly the target coordinates")
        to_target = {s: t for t, s in table.items()}
        if len(to_target) != len(table):
            raise ValueError("injection is not injective")
        source_kinds = source._kinds
        for tname, sname in table.items():
            kind = source_kinds.get(sname)
            if kind is None:
                raise KeyError(f"no source coordinate {sname!r}")
            if kind != target_kinds[tname]:
                raise ValueError(f"injection {tname!r}->{sname!r} changes coordinate kind")
        target_order = target._order
        rank = {s: target_order[t] for s, t in to_target.items()}
        for i, v in enumerate(fiber, len(rank)):
            rank[v] = i
        # The ranks cover the source exactly when the fiber repeats no name,
        # lists no base coordinate and misses none.
        if len(rank) != len(table) + len(fiber) or rank.keys() != source_kinds.keys():
            raise ValueError("fiber must list exactly the non-base source coordinates")
        Frozen.__init__(self, source, target, injection, fiber, to_target, rank)

    @property
    def reldim(self) -> int:
        return len(self.fiber)

    def as_smooth(self) -> SmoothMapModel:
        kinds = self.target._kinds
        table = {
            tname: ("poly", Poly.var(sname)) if kinds[tname] == INTERVAL else ("circle", sname, 1)
            for tname, sname in self.injection
        }
        return SmoothMapModel._of(self.source, self.target, table)


def projection(
    source: CubeTorusSpace,
    target: CubeTorusSpace,
    injection: Mapping[str, str],
    fiber: Sequence[str] | None = None,
) -> ProjectionMap:
    if fiber is None:
        used = set(injection.values())
        fiber = [n for n in source.names() if n not in used]
    return ProjectionMap(source, target, tuple(sorted(injection.items())), tuple(fiber))


def compose_projection(outer: ProjectionMap, inner: ProjectionMap) -> ProjectionMap:
    """outer after inner (inner.source -> outer.target), with the induced
    fiber orientation: outer fiber (lifted through inner) first, then inner
    fiber."""
    if inner.target != outer.source:
        raise ValueError("projections do not compose")
    inner_table = dict(inner.injection)
    injection = {t: inner_table[s] for t, s in outer.injection}
    fiber = tuple(inner_table[c] for c in outer.fiber) + inner.fiber
    return projection(inner.source, outer.target, injection, fiber)


def pullback(f: SmoothMapModel, form: Form) -> Form:
    """Pull a form back along a smooth map.

    Each target 1-form pulls back to a sum of (source letter, coefficient)
    pairs.  A term expands into one product per choice of a pair for each of
    its letters: the substituted coefficient times the pairs' coefficients,
    on the chosen letters sorted by one ``_merge_sign`` (0 for a repeated
    letter, as on a diagonal).  Along a coordinate map every letter has at
    most one pair, with coefficient +1 or -1, so a term costs one ``subst``
    and one merge, and no polynomial product."""
    if form.space != f.target:
        raise ValueError("form does not live on the map's target")
    table = f._table
    subs = f._subs
    order = f.source._order
    out: dict[tuple[str, ...], dict[Monomial, Rational]] = {}
    for wedgekey, poly in form.terms.items():
        factors = []
        for letter in wedgekey:
            pairs = _pull_letter(f.source, table[letter])
            if not pairs:
                break  # the term pulls back to zero
            factors.append(pairs)
        else:
            coeff = None  # the substituted coefficient, once a choice needs it
            for choice in itertools.product(*factors):
                if len(choice) < 2:
                    sign, merged = 1, (choice[0][0],) if choice else ()
                else:
                    sign, merged = _merge_sign([x for x, _ in choice], order)
                    if not sign:
                        continue
                polys = []
                for _, c in choice:
                    if c.__class__ is int:
                        sign *= c
                    else:
                        polys.append(c.terms)
                coeffs = out.get(merged)
                if coeffs is None:
                    coeffs = out[merged] = {}
                if not polys:
                    _subst_into(coeffs, poly.terms, subs, sign)
                    continue
                if coeff is None:
                    coeff = _subst_into({}, poly.terms, subs)
                piece = coeff
                for terms in polys[:-1]:
                    piece = _mul_into({}, piece, terms)
                _mul_into(coeffs, piece, polys[-1], sign)
    return Form._of(f.source, {w: Poly._of(coeffs) for w, coeffs in out.items()})


def _pull_letter(source: CubeTorusSpace, assignment: tuple) -> list[tuple[str, int | Poly]]:
    """Pullback of the target 1-form whose coordinate has this assignment, as
    (source letter, coefficient) pairs: one pair with coefficient +1 or -1
    for a unit variable or a circle, none for a constant, and the nonzero
    partial derivatives of any other polynomial."""
    if assignment[0] == "poly":
        poly = assignment[1]
        if len(poly.terms) == 1:
            (mono, c), = poly.terms.items()
            if len(mono) == 1 and mono[0][1] == 1 and c == 1:
                return [(mono[0][0], 1)]
        return [(v, pd) for v in source._intervals if (pd := poly.partial(v)).terms]
    if assignment[0] == "circle":
        return [(assignment[1], assignment[2])]
    return []  # constant circle


def pushforward(p: ProjectionMap, form: Form) -> Form:
    """Integration along the fibers of a coordinate projection.

    Each source letter has one bundle rank, which the projection derived
    when it was built: a base letter its target coordinate's position, a
    fiber letter the base dimension plus its position in the fiber order.
    A term survives when its wedge holds every fiber letter; its Koszul
    sign is the inversion parity of its ranks (``_merge_sign``), and one
    pass over each monomial of its coefficient divides out the powers of
    the interval fiber variables (the integral over [0, 1]; a circle fiber
    has measure 1 and never occurs in a coefficient) and renames the base
    variables to their target coordinates."""
    if form.space != p.source:
        raise ValueError("form does not live on the projection's source")
    n_base = len(p.target._names)
    n_fiber = len(p.fiber)
    to_target = p._to_target
    rank = p._rank
    out: dict[tuple[str, ...], dict[Monomial, Rational]] = {}
    for wedgekey, poly in form.terms.items():
        n = len(wedgekey)
        if n < n_fiber:
            continue
        sign, letters = _merge_sign(wedgekey, rank)
        # Sorted by rank, the top n_fiber letters are the fiber's exactly
        # when the wedge holds every fiber letter.
        if n_fiber and rank[letters[n - n_fiber]] != n_base:
            continue
        target_wedge = tuple([to_target[x] for x in letters[: n - n_fiber]])
        coeffs = out.setdefault(target_wedge, {})
        for mono, c in poly.terms.items():
            key = []
            den = 1
            for v, e in mono:
                t = to_target.get(v)
                if t is None:
                    den *= e + 1
                else:
                    key.append((t, e))
            if den != 1:
                c = _divide(c, den)
            if len(key) > 1:
                key.sort()
            key = tuple(key)
            prev = coeffs.get(key)
            if sign < 0:
                c = -c
            coeffs[key] = c if prev is None else _rational(prev + c)
    return Form._of(p.target, {w: Poly._of(coeffs) for w, coeffs in out.items()})


def integrate(form: Form) -> Rational:
    """Integral of the top-degree part over the listed orientation: a
    monomial integrates to its coefficient over the product of (power + 1)."""
    total = 0
    top = form.terms.get(form.space._names)
    for mono, c in top.terms.items() if top else ():
        den = 1
        for _, p in mono:
            den *= p + 1
        total += _divide(c, den)
    return _rational(total)


def bundle_orientation_sign(p: ProjectionMap) -> int:
    """Sign between the source's listed orientation and the bundle
    orientation (base in target order, then fiber in fiber order)."""
    return _merge_sign(p.source._names, p._rank)[0]


def boundary_pushforward(p: ProjectionMap, form: Form) -> Form:
    """Pushforward along the restriction of p to the fiber boundary.

    Only faces of fiber interval coordinates enter the fiberwise Stokes
    formula; base-type faces contribute nothing over interior base points.
    Relative to the bundle orientation (base first, fiber last), the value-1
    face of the fiber coordinate v at fiber-order index i carries
    (-1)^(dim source + reldim + i), the value-0 face the opposite.  A face
    kills dv and evaluates v at its endpoint, so the two faces together keep
    the monomials that hold v, with v dropped (at 0 they vanish), while a
    monomial without v cancels.  That face form is pushed forward once,
    along the projection restricted to the face space.
    """
    out: dict[tuple[str, ...], Poly] = {}
    for i, v in enumerate(p.fiber):
        if p.source.kind(v) != INTERVAL:
            continue
        face: dict[tuple[str, ...], Poly] = {}
        for wedgekey, poly in form.terms.items():
            if v in wedgekey:
                continue
            coeffs: dict[Monomial, Rational] = {}
            for mono, c in poly.terms.items():
                for n, (w, _) in enumerate(mono):
                    if w == v:
                        _accumulate(coeffs, mono[:n] + mono[n + 1:], c)
                        break
            if coeffs:
                face[wedgekey] = Poly._of(coeffs)
        if not face:
            continue
        face_space = CubeTorusSpace(tuple(c for c in p.source.coords if c[0] != v))
        restricted = ProjectionMap(
            face_space, p.target, p.injection, tuple([x for x in p.fiber if x != v])
        )
        odd = (p.source.dimension + p.reldim + i) % 2
        for w, pushed in pushforward(restricted, Form._of(face_space, face)).terms.items():
            _accumulate(out, w, -pushed if odd else pushed)
    return Form._of(p.target, out)


# --- correspondences ----------------------------------------------------------


class CorrespondenceModel(Frozen):
    """A span with one output projection and k input legs, acting on k forms
    by pull-push: pull each input back along its leg, wedge them in leg
    order, integrate along the fibers of ``ev_out``.  A correspondence of
    forms is the case k = 1; a mock moduli space with k inputs is the
    general case.  The correspondence space ``space`` is the source of
    ``ev_out``.  Equality is that of the three fields."""

    __slots__ = ("space", "ev_out", "ev_in")

    def __init__(self, ev_out: ProjectionMap, ev_in: Iterable[SmoothMapModel]):
        ev_in = tuple(ev_in)
        for leg in ev_in:
            if leg.source != ev_out.source:
                raise ValueError("input legs must start on the correspondence space")
        Frozen.__init__(self, ev_out.source, ev_out, ev_in)

    @property
    def k(self) -> int:
        return len(self.ev_in)


def apply_correspondence(corr: CorrespondenceModel, xis: Sequence[Form]) -> Form:
    """Pull-push of the inputs, one per input leg."""
    if len(xis) != corr.k:
        raise ValueError(f"expected {corr.k} inputs")
    pulled = [pullback(leg, xi) for leg, xi in zip(corr.ev_in, xis)]
    return pushforward(corr.ev_out, wedge_all(corr.space, pulled))


def fiber_product(
    outer: CorrespondenceModel, inner: CorrespondenceModel, j: int
) -> CorrespondenceModel:
    """Glue ``inner``'s output into slot j of ``outer`` over the node space.

    The glued space is the base change of ``inner.ev_out`` along the outer
    slot-j leg, which may be any smooth map (only the inner output leg, the
    node's ev_0, must be a projection): the outer space, then the inner
    fiber in fiber order, renamed where a name is taken.  The output leg is
    ``outer.ev_out`` after the pulled projection; the input legs, in parent
    order, are outer's legs before slot j, inner's legs and outer's legs
    after slot j, each composed with its map out of the glued space."""
    if not 1 <= j <= outer.k:
        raise ValueError(f"slot {j} outside 1..{outer.k}")
    node_leg = outer.ev_in[j - 1]
    if node_leg.target != inner.ev_out.target:
        raise ValueError("outer slot-j leg and inner output leg must share the node")
    glued, to_outer, to_inner = pullback_bundle(inner.ev_out, node_leg)
    via_outer = to_outer.as_smooth()
    legs = (
        [compose_smooth(leg, via_outer) for leg in outer.ev_in[: j - 1]]
        + [compose_smooth(leg, to_inner) for leg in inner.ev_in]
        + [compose_smooth(leg, via_outer) for leg in outer.ev_in[j:]]
    )
    return CorrespondenceModel(compose_projection(outer.ev_out, to_outer), legs)


def pullback_bundle(
    p: ProjectionMap, f: SmoothMapModel
) -> tuple[CubeTorusSpace, ProjectionMap, SmoothMapModel]:
    """Base change: pull the bundle p back along any smooth map f.

    Returns (pulled space, pulled projection to f's source, bundle map to
    p's source).  The pulled space is ordered (f's source, then p's fiber in
    fiber order); a fiber coordinate whose name is taken becomes ``g<name>_``,
    again until the name is free.  The bundle map sends p's base coordinates
    through f's assignments and its fiber coordinates to their copies.
    """
    if f.target != p.target:
        raise ValueError("base-change legs must share the base space")
    taken = set(f.source._names)
    fresh_coords = []
    table = {sname: f._table[tname] for tname, sname in p.injection}
    for name in p.fiber:
        fresh = name
        while fresh in taken:
            fresh = f"g{fresh}_"
        taken.add(fresh)
        kind = p.source._kinds[name]
        fresh_coords.append((fresh, kind))
        table[name] = ("poly", Poly.var(fresh)) if kind == INTERVAL else ("circle", fresh, 1)
    pulled = CubeTorusSpace(tuple(f.source.coords) + tuple(fresh_coords))
    p_bar = projection(pulled, f.source, {n: n for n in f.source._names}, [n for n, _ in fresh_coords])
    return pulled, p_bar, SmoothMapModel._of(pulled, p.source, table)
