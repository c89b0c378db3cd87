"""Symbolic proofs of the sign identities and the formal cancellation of the
filtered relations, per fixed arity instance.

Degrees and Maslov parities are GF(2) variables (``d1..dk``, ``m1..mk``,
``m0`` and ``r0`` for the output component, ``ma`` for the node); arities
and slots are concrete integers.  Each proof normalizes a combination of
sign formulas to algebraic normal form and demands the zero polynomial; a
failure report carries the minimal witness assignment instead of raising.
The identities of each (k, j, k_inner) instance are one table,
``IDENTITIES``, each a tuple of named terms of :mod:`ainfsign.signs`.
``prove_all`` proves them in order on one context per instance, built on
one set of variables per arity, all in one GF(2) ring with the node
dimension ``ra``, and evaluates each term once per instance into a dict
from which every identity that lists it is summed; a term of
``signs.UNSPLIT_TERMS`` reads only the unsplit tuple, so it is evaluated
once per arity.

The master identity can also be cross-checked by an exhaustive truth table
over all 2^(2k+3) parity assignments, a route independent of the ANF engine.
The table is bit-parallel: each input is a column of 2^(2k+3) parities
packed into one integer, and the sign formulas of :mod:`ainfsign.signs` run
once on the columns, with XOR for + and - and AND for *.  That is integer
evaluation reduced mod 2, because reduction mod 2 is a ring homomorphism
from the integers onto GF(2); the first failing assignment is re-evaluated
with plain integers before it is reported.

The formal replay of the relations checks that the two routes reaching
each payload symbol (an interior differential insertion per slot, or a
boundary stratum) cancel: terms with sign exponents p and q cancel exactly
when the cancellation sum p + q + 1 normalizes to zero; a boundary
stratum's routes are the Stokes rewrite and the composition.  A symbol's sum
depends only on its splitting, so each splitting's sum is decided once per
arity and an energy level only picks which symbols occur; an interior sum is
the one ``prove_differential_insertion`` proves.  The boundary payloads come
from :func:`ainfsign.strata.enumerate_strata`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import signs
from .f2poly import F2Poly, Ring, anf_equivalent
from .frozen import Frozen
from .novikov import GappedSpectrum
from .signs import SignContext
from .strata import BClass, ComponentData, ModuliDescriptor, enumerate_strata

PUSH_D = "pushpull-after-differential"
BDRY = "boundary-stratum"

# Largest arity with a truth table: the columns hold 2^(2k+3) bits each, so
# their memory grows fourfold per arity (about 50 MB peak at k = 10).
TRUTH_TABLE_K_MAX = 10


def _parity_names(k: int) -> list[str]:
    """The 2k+3 parity inputs of an arity-k instance, in truth-table order."""
    return (
        [f"d{i}" for i in range(1, k + 1)]
        + [f"m{i}" for i in range(1, k + 1)]
        + ["ma", "m0", "r0"]
    )


def _context(k: int, j: int, k_inner: int, vals: Sequence) -> SignContext:
    """SignContext taking its parity inputs from ``vals`` in
    :func:`_parity_names` order."""
    return SignContext(j, k_inner, tuple(vals[:k]), tuple(vals[k : 2 * k]),
                       vals[2 * k], vals[2 * k + 1], vals[2 * k + 2])


def _parity_variables(k: int) -> tuple:
    """A GF(2) variable for each name of :func:`_parity_names`, then the
    node dimension ``ra``, all in one new ring."""
    ring = Ring()
    return tuple([F2Poly.var(name, ring) for name in [*_parity_names(k), "ra"]])


class ProofReport(Frozen):
    """One proof obligation: the witness is ``None`` when it is proved; the
    wall time of the proof is never part of the report JSON."""

    __slots__ = ("instance", "witness", "_elapsed_s")

    @property
    def proved(self) -> bool:
        return self.witness is None


def _prove_zero(poly: F2Poly, instance: dict, started: float) -> ProofReport:
    """Whether ``poly`` is zero, timed from ``started``."""
    return ProofReport(instance, anf_equivalent(poly, F2Poly.zero())[1],
                       time.perf_counter() - started)


class _Column:
    """A truth-table column: bit b is the parity of a quantity under
    assignment b.

    ``+`` and ``-`` are XOR, ``*`` is AND and negation is the identity,
    which is integer arithmetic reduced mod 2.  An ``int`` operand is the
    constant column of its parity; any other operand (an ``F2Poly``, a
    ``Fraction``) is refused, so the table never mixes in another route.
    """

    __slots__ = ("bits", "mask")

    def __init__(self, bits: int, mask: int):
        self.bits = bits
        self.mask = mask

    def _operand_bits(self, other) -> int | None:
        if isinstance(other, _Column):
            return other.bits
        if isinstance(other, int):
            return self.mask if other & 1 else 0
        return None

    def __add__(self, other):
        bits = self._operand_bits(other)
        if bits is None:
            return NotImplemented
        return _Column(self.bits ^ bits, self.mask)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        bits = self._operand_bits(other)
        if bits is None:
            return NotImplemented
        return _Column(self.bits & bits, self.mask)

    __rmul__ = __mul__

    def __neg__(self):
        return self


def _master_column(k: int, j: int, k_inner: int) -> int:
    """Bits of ``master_sum`` over all 2^(2k+3) assignments: bit b is its
    parity when input i (in :func:`_parity_names` order) is ``(b >> i) & 1``."""
    size = 1 << (2 * k + 3)
    full = (1 << size) - 1
    columns = []
    for i in range(2 * k + 3):
        # period 2h: h zero bits, then h one bits, repeated by doubling (a
        # division by 2^(2h) - 1 would cost time quadratic in the size)
        h = 1 << i
        bits, width = ((1 << h) - 1) << h, 2 * h
        while width < size:
            bits |= bits << width
            width *= 2
        columns.append(_Column(bits, full))
    return (_Column(0, full) + signs.master_sum(_context(k, j, k_inner, columns))).bits


def _truth_table_master(k: int, j: int, k_inner: int) -> dict | None:
    """First assignment (in counting order) at which the master sum is odd,
    confirmed by integer evaluation; None if there is none."""
    bad = _master_column(k, j, k_inner)
    if not bad:
        return None
    first = (bad & -bad).bit_length() - 1
    vals = [(first >> i) & 1 for i in range(2 * k + 3)]
    if signs.master_sum(_context(k, j, k_inner, vals)) == 0:
        raise AssertionError(f"truth-table column and integer evaluation disagree at {vals}")
    return dict(zip(_parity_names(k), vals))


# Each identity as the names of the terms of :mod:`ainfsign.signs` whose sum
# must vanish, in report order.  A term is looked up by name when it is
# evaluated, so a replaced formula reaches every identity that lists it.
IDENTITIES = {
    # the master congruence, as signs lists its terms
    "master": signs.MASTER_TERMS,
    # the boundary sign is the sum of its three proof pieces; the symbolic
    # node dimension ra must cancel
    "boundary-decomposition": ("boundary_sign", "local_system_swap_sign",
                               "marked_point_shuffle_sign", "outer_moduli_dim_parity"),
    # the composition sign is the Koszul-insertion piece plus the reorder piece
    "composition-decomposition": ("composition_sign", "coderivation_sign",
                                  "pushpull_reorder_sign"),
    # nested-move + block-swap is the net reorder sign (their common factor
    # cancels mod 2)
    "reorder-collapse": ("nested_move_sign", "block_swap_sign", "pushpull_reorder_sign"),
}

# the terms that also read the node dimension, which they get as ra
_NODE_DIM_TERMS = {"local_system_swap_sign", "marked_point_shuffle_sign"}


def _identity_sum(identity: str, ctx: SignContext, values: dict, node_dim: F2Poly) -> F2Poly:
    """The sum of the terms of ``IDENTITIES[identity]`` on ``ctx``, each
    taken from ``values`` (term name -> value on ``ctx``), into which a term
    not yet there is evaluated."""
    total = F2Poly.zero()
    for name in IDENTITIES[identity]:
        if name not in values:
            term = getattr(signs, name)
            values[name] = term(ctx, node_dim) if name in _NODE_DIM_TERMS else term(ctx)
        total = total + values[name]
    return total


def prove_identity(
    identity: str, ctx: SignContext, truth_table: bool = False, started: float | None = None
) -> ProofReport:
    """Prove that the sum of the terms ``IDENTITIES[identity]`` vanishes on
    the symbolic context of an instance.  The master identity can also be
    cross-checked by an exhaustive truth table over all 2^(2k+3) parity
    assignments (k <= TRUTH_TABLE_K_MAX), on columns of its own; a column
    cannot hold another identity's symbolic node dimension.  The proof time
    counts from the ``time.perf_counter()`` reading ``started``, by default
    this call."""
    return _prove(identity, ctx, {}, F2Poly.var("ra"), truth_table, started)


def _prove(identity: str, ctx: SignContext, values: dict, node_dim: F2Poly,
           truth_table: bool, started: float | None) -> ProofReport:
    """``prove_identity``, taking the terms already evaluated on ``ctx``
    from ``values`` and adding those it evaluates, with the node dimension
    ``node_dim``."""
    k, j, k_inner = ctx.k, ctx.j, ctx.k_inner
    if truth_table and identity != "master":
        raise ValueError(f"only the master identity has a truth table, not {identity!r}")
    if truth_table and k > TRUTH_TABLE_K_MAX:
        raise ValueError(f"truth tables stop at k={TRUTH_TABLE_K_MAX}, got k={k}")
    if started is None:
        started = time.perf_counter()
    report = _prove_zero(
        _identity_sum(identity, ctx, values, node_dim),
        {"identity": identity, "k": k, "j": j, "k_inner": k_inner}, started,
    )
    if truth_table and report.proved:
        bad = _truth_table_master(k, j, k_inner)
        return ProofReport(report.instance, bad, time.perf_counter() - started)
    return report


def _insertion_sum(k: int, j: int, variables: Sequence) -> F2Poly:
    """Cancellation sum of the differential inserted at slot j of the
    arity-k operation (the splitting with inner arity 1): the Leibniz route,
    the operation sign plus the degrees before the slot, plus the
    coderivation route, the Koszul prefix plus the operation sign at the
    bumped degree, plus one."""
    ctx = _context(k, j, 1, variables)
    degs, mus = ctx.degs, ctx.mus
    bumped = degs[: j - 1] + (degs[j - 1] + 1,) + degs[j:]
    leibniz = signs.operation_sign(degs, mus) + sum(degs[: j - 1], F2Poly.zero())
    coderivation = signs.koszul_prefix(degs, mus, j) + signs.operation_sign(bumped, mus)
    return leibniz + coderivation + 1


def _stokes_rewrite_route(ctx: SignContext) -> F2Poly:
    """A boundary stratum's sign exponent by the Stokes rewrite of the
    differential after the push-pull: operation + Stokes + boundary signs."""
    return (signs.parent_operation_sign(ctx) + signs.parent_stokes_sign(ctx)
            + signs.boundary_sign(ctx))


def _composition_route(ctx: SignContext) -> F2Poly:
    """A boundary stratum's sign exponent by composition: coderivation + reorder signs."""
    return signs.coderivation_sign(ctx) + signs.pushpull_reorder_sign(ctx)


def _boundary_sum(k: int, j: int, k_inner: int, variables: Sequence) -> F2Poly:
    """Cancellation sum of a boundary stratum of splitting (j, k_inner): its
    two routes plus one."""
    ctx = _context(k, j, k_inner, variables)
    return _stokes_rewrite_route(ctx) + _composition_route(ctx) + 1


def prove_differential_insertion(k: int, j: int, variables: Sequence) -> ProofReport:
    """Inserting the differential at slot j: Koszul prefix plus the operation
    sign at the bumped degree equals the Leibniz prefix plus the operation
    sign plus one."""
    started = time.perf_counter()
    return _prove_zero(_insertion_sum(k, j, variables),
                       {"identity": "differential-insertion", "k": k, "j": j}, started)


def instances(k_max: int) -> Iterable[tuple[int, int, int]]:
    """All (k, j, k_inner) with 1 <= k <= k_max, k_inner >= 0, valid slot."""
    for k in range(1, k_max + 1):
        for k_inner in range(0, k + 1):
            for j in range(1, k + 1 - k_inner + 1):
                yield k, j, k_inner


def prove_all(k_max: int, truth_table_k_max: int = 0) -> list[ProofReport]:
    """Every identity of ``IDENTITIES`` for every instance up to k_max, the
    master identity with a truth table for k <= truth_table_k_max, then the
    differential-insertion congruence.  An instance's identities share one
    context and one dict of term values, so each term is evaluated once
    per instance, and a term of ``signs.UNSPLIT_TERMS`` once per arity.
    Each report carries its own proof time; the first identity of an
    instance also carries building the context, the first of an arity the
    variables and the unsplit terms, and the first that lists a term its
    value."""
    reports, variables, unsplit = [], {}, {}
    started = time.perf_counter()
    for k, j, k_inner in instances(k_max):
        if k not in variables:
            variables[k] = _parity_variables(k)
        ctx = _context(k, j, k_inner, variables[k])
        if k not in unsplit:
            unsplit[k] = {name: getattr(signs, name)(ctx) for name in signs.UNSPLIT_TERMS}
        values = dict(unsplit[k])
        for identity in IDENTITIES:
            reports.append(_prove(identity, ctx, values, variables[k][-1],
                                  identity == "master" and k <= truth_table_k_max, started))
            started = time.perf_counter()
    for k, arity_variables in variables.items():
        for j in range(1, k + 1):
            reports.append(prove_differential_insertion(k, j, arity_variables))
    return reports


# --- formal replay of the relation cancellation -------------------------------


class CancellationReport(Frozen):
    """One energy level: the symbols whose routes cancel and the residual
    ones; the level's wall time is never part of the report JSON."""

    __slots__ = ("k", "energy", "pairs", "residual", "_elapsed_s")

    @property
    def cancels(self) -> bool:
        return not self.residual


# names the replay's strata; neither payloads nor symbolic signs read it
_REPLAY_COMPONENT = ComponentData("replay", 0, 0)


def expand_relation(k: int, energy: Fraction, spectrum: GappedSpectrum) -> list[tuple]:
    """The sorted payload symbols ``(kind, payload)`` of one (arity, energy)
    relation.

    Interior symbols ``(PUSH_D, (j,))``: the differential applied after the
    push-pull is rewritten through the fiberwise Stokes formula into a
    differential insertion at slot j (the Leibniz route), which the
    coderivation route reaches too.  Boundary symbols ``(BDRY, payload)``:
    one per stratum of ``enumerate_strata``, its payload the stratum index
    without the node name, reached by the Stokes and composition routes.
    """
    parent = ModuliDescriptor(BClass(energy), _REPLAY_COMPONENT, (_REPLAY_COMPONENT,) * k)
    strata = enumerate_strata(parent, spectrum, [_REPLAY_COMPONENT])
    return sorted([(PUSH_D, (j,)) for j in range(1, k + 1)]
                  + [(BDRY, stratum.index()[:-1]) for stratum in strata])


def prove_relation_cancellation(
    k: int, spectrum: GappedSpectrum, mutate: tuple | None = None
) -> list[CancellationReport]:
    """Check that the two routes of every symbol cancel, for every energy
    level; each splitting's cancellation sum is decided once for the arity.

    ``mutate`` flips the sign of one route of the given (kind, payload)
    symbol, which is then decided on its own; used to confirm single-sign
    corruption is caught and named.  Each level carries its own time, which
    includes the splittings first decided there and, at the first level,
    the arity's variables.
    """
    # splitting -> (sum, ok, witness): the slot j of an interior symbol, or
    # (j, k_inner) of a boundary one
    decided: dict = {}
    reports = []
    started = time.perf_counter()
    variables = _parity_variables(k)
    for energy in spectrum.closure:
        pairs, residual = [], []
        # at k = 1 and energy 0 the differential squares to zero
        for symbol in expand_relation(k, energy, spectrum) if k > 1 or energy else ():
            kind, payload = symbol
            key = payload[0] if kind == PUSH_D else (payload[0], payload[3])
            if key not in decided:
                total = (_insertion_sum(k, key, variables) if kind == PUSH_D
                         else _boundary_sum(k, *key, variables))
                decided[key] = (total, *anf_equivalent(total, F2Poly.zero()))
            total, ok, witness = decided[key]
            if symbol == mutate:
                ok, witness = anf_equivalent(total + 1, F2Poly.zero())
            if ok:
                pairs.append(symbol)
            else:
                residual.append({"term": symbol, "reason": "routes do not cancel",
                                 "witness": witness})
        reports.append(CancellationReport(k, energy, pairs, residual,
                                          time.perf_counter() - started))
        started = time.perf_counter()
    return reports
