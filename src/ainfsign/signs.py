"""Parity evaluation of every sign quantity in the Bott-Morse filtered
A-infinity convention: the operation sign, the boundary-orientation sign and
its proof decomposition, the composition sign and its decomposition, the
Stokes boundary sign, Koszul prefixes, and moduli dimension parities.  The
master congruence is the sum of the terms named once in ``MASTER_TERMS``.

Every function reduces mod 2 internally and accepts arbitrary integers; the
same formulas also run verbatim on :class:`~ainfsign.f2poly.F2Poly` values,
which is how the prover obtains symbolic ANF certificates, and on the
prover's truth-table columns, which hold one parity per assignment and
evaluate every assignment at once.  The formulas use only ``+``, ``-`` and
``*``, so reducing their integer value mod 2 (a ring homomorphism) is the
same as evaluating them over GF(2).  For integer inputs the return value
is 0 or 1.

Index conventions: a k-ary operation splits at slot ``j`` (1-based) into an
outer operation of arity ``k_outer`` and an inner one of arity ``k_inner``
with ``k_outer + k_inner == k + 1`` and ``1 <= j <= k_outer``; the inner
factor consumes inputs ``j .. j+k_inner-1``.  ``mus`` are the Maslov
parities of the k input components, ``mu_node`` that of the new node
component created by the splitting, and ``mu_out``/``dim_out`` describe the
output component.
"""

from __future__ import annotations

from collections.abc import Sequence

from .f2poly import F2Poly
from .frozen import Frozen

Parity = int | F2Poly


def _par(x: Parity) -> Parity:
    return x % 2 if isinstance(x, int) else x


def _total(values: Sequence[Parity]) -> Parity:
    acc: Parity = 0
    for v in values:
        acc = acc + v
    return acc


def shifted_degree(deg: int, mu: int) -> int:
    """Degree in the shift that makes the relations sign-uniform: deg + mu - 1."""
    return deg + mu - 1


def operation_sign(degs: Sequence[Parity], mus: Sequence[Parity]) -> Parity:
    """Sign exponent of the k-ary operation on inputs of the given degrees.

    Parity of ``sum_i (i + mu_1 + ... + mu_{i-1}) * (deg_i - 1) + 1`` with
    1-based i; the last Maslov parity never enters.
    """
    if len(degs) != len(mus):
        raise ValueError(f"length mismatch: {len(degs)} degrees, {len(mus)} parities")
    acc: Parity = 1
    prefix: Parity = 0
    for i, d in enumerate(degs, start=1):
        acc = acc + (i + prefix) * (d - 1)
        prefix = prefix + mus[i - 1]
    return _par(acc)


def koszul_prefix(degs: Sequence[Parity], mus: Sequence[Parity], j: int) -> Parity:
    """Parity of the shifted degrees of the first j-1 inputs."""
    if not 1 <= j <= len(degs) + 1:
        raise ValueError(f"slot {j} out of range for {len(degs)} inputs")
    return _par(_total([degs[i] + mus[i] - 1 for i in range(j - 1)]))


def moduli_dim_parity(
    dim_out: Parity, mu_out: Parity, mus: Sequence[Parity], k: int
) -> Parity:
    """Dimension parity of the k-input moduli space:
    dim_out + mu_out - sum(mus) + k - 2."""
    return _par(dim_out + mu_out - _total(mus) + k - 2)


def output_degree_parity(
    degs: Sequence[Parity], mus: Sequence[Parity], mu_out: Parity
) -> Parity:
    """Parity of the output's unshifted degree: the output shifted degree is
    ``sum |xi_i|' + 1`` and unshifting subtracts ``mu_out - 1``."""
    shifted = _total([d + m - 1 for d, m in zip(degs, mus)]) + 1
    return _par(shifted + 1 - mu_out)


def stokes_sign(dim_parity: Parity, degs: Sequence[Parity]) -> Parity:
    """Boundary-term sign in the fiberwise Stokes formula:
    moduli dimension plus the total input degree."""
    return _par(dim_parity + _total(list(degs)))


class SignContext(Frozen):
    """Everything a boundary splitting's sign formulas consume; the arities
    ``k = len(degs)`` and ``k_outer = k + 1 - k_inner`` are set from the rest.

    ``degs``/``mus`` may hold integers or symbolic GF(2) polynomials; the
    arity data ``k``, ``j``, ``k_outer``, ``k_inner`` are always concrete.
    """

    __slots__ = ("k", "j", "k_outer", "k_inner", "degs", "mus", "mu_node", "mu_out", "dim_out")

    def __init__(self, j: int, k_inner: int, degs: tuple, mus: tuple,
                 mu_node: Parity, mu_out: Parity, dim_out: Parity):
        k = len(degs)
        k_outer = k + 1 - k_inner
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(mus) != k:
            raise ValueError(f"expected {k} parities, got {len(mus)}")
        if k_inner < 0 or k_outer < 1:
            raise ValueError("arities must satisfy k_inner >= 0, k_outer >= 1")
        if not 1 <= j <= k_outer:
            raise ValueError(f"slot j={j} outside 1..{k_outer}")
        Frozen.__init__(self, k, j, k_outer, k_inner, degs, mus, mu_node, mu_out, dim_out)

    # Input slices relative to the splitting (1-based slot arithmetic).
    def prefix_mus(self) -> tuple:
        return self.mus[: self.j - 1]

    def inner_mus(self) -> tuple:
        return self.mus[self.j - 1 : self.j - 1 + self.k_inner]

    def suffix_mus(self) -> tuple:
        return self.mus[self.j - 1 + self.k_inner :]

    def inner_degs(self) -> tuple:
        return self.degs[self.j - 1 : self.j - 1 + self.k_inner]

    def suffix_degs(self) -> tuple:
        return self.degs[self.j - 1 + self.k_inner :]

    def outer_mus(self) -> tuple:
        return self.prefix_mus() + (self.mu_node,) + self.suffix_mus()

    def node_defect(self) -> Parity:
        """mu_node minus the inner Maslov parities; recurs in every formula."""
        return self.mu_node - _total(self.inner_mus())


def boundary_sign(ctx: SignContext) -> Parity:
    """Orientation sign of a codimension-1 boundary stratum relative to the
    moduli boundary, as a function of the splitting data alone."""
    nd = ctx.node_defect()
    pre = _total(ctx.prefix_mus())
    acc = (
        (ctx.k_inner - 1) * (ctx.k_outer - ctx.j)
        + (ctx.k_outer - 1) * nd
        + pre * nd
        + ctx.dim_out
        + ctx.mu_out
        - (pre + ctx.mu_node + _total(ctx.suffix_mus()))
        + ctx.k_outer
    )
    return _par(acc)


def composition_sign(ctx: SignContext) -> Parity:
    """Closed-form sign relating the outer-after-inner composite at slot j to
    the push-pull over the glued correspondence."""
    nd = ctx.node_defect()
    acc = (
        operation_sign(ctx.degs, ctx.mus)
        + _total(ctx.degs)
        - ctx.k
        - 1
        + ctx.j
        + ctx.k_outer * nd
        + _total(ctx.prefix_mus()) * nd
        + (ctx.k_outer - ctx.j) * ctx.k_inner
    )
    return _par(acc)


# --- proof decomposition of the boundary sign --------------------------------


def local_system_swap_sign(ctx: SignContext, dim_node: Parity) -> Parity:
    """Weighted sign of exchanging the leading twist factors with the inner
    correspondence's relative orientation; the node dimension cancels."""
    inner_moduli = moduli_dim_parity(
        dim_node, ctx.mu_node, ctx.inner_mus(), ctx.k_inner
    )
    return _par(
        _total(ctx.prefix_mus()) * (inner_moduli - dim_node - (ctx.k_inner - 2))
    )


def marked_point_shuffle_sign(ctx: SignContext, dim_node: Parity) -> Parity:
    """Sign of regrouping marked-point factors around the splitting: the
    marked-point block swap plus the relative-dimension crossing."""
    inner_moduli = moduli_dim_parity(
        dim_node, ctx.mu_node, ctx.inner_mus(), ctx.k_inner
    )
    inner_rel = inner_moduli - (ctx.k_inner - 2) - dim_node
    return _par(
        (ctx.k_inner - 1) * (ctx.k_outer - ctx.j) + (ctx.k_outer - 1) * inner_rel
    )


def outer_moduli_dim_parity(ctx: SignContext) -> Parity:
    """Dimension parity of the outer factor (node component inserted at j)."""
    return moduli_dim_parity(ctx.dim_out, ctx.mu_out, ctx.outer_mus(), ctx.k_outer)


# --- proof decomposition of the composition sign ------------------------------


def coderivation_sign(ctx: SignContext) -> Parity:
    """Koszul prefix of the insertion slot plus the operation signs of the
    outer tuple (with the inner output at slot j) and of the inner tuple."""
    inner_degs = ctx.inner_degs()
    inner_mus = ctx.inner_mus()
    node_deg = output_degree_parity(inner_degs, inner_mus, ctx.mu_node)
    outer_degs = ctx.degs[: ctx.j - 1] + (node_deg,) + ctx.suffix_degs()
    return _par(
        koszul_prefix(ctx.degs, ctx.mus, ctx.j)
        + operation_sign(outer_degs, ctx.outer_mus())
        + operation_sign(inner_degs, inner_mus)
    )


def nested_move_sign(ctx: SignContext) -> Parity:
    """Sign of moving the inner push-pull output past the tail inputs
    (its degree is the inner total degree minus the relative dimension)."""
    inner_total = _total(ctx.inner_degs())
    return _par(
        (inner_total + ctx.node_defect() + ctx.k_inner - 2) * _total(ctx.suffix_degs())
    )


def block_swap_sign(ctx: SignContext) -> Parity:
    """Koszul sign of swapping the inner input block past the tail block."""
    return _par(_total(ctx.inner_degs()) * _total(ctx.suffix_degs()))


def pushpull_reorder_sign(ctx: SignContext) -> Parity:
    """Net reorder sign in the nested-vs-glued push-pull comparison; the two
    moves share a common factor that cancels mod 2, leaving
    ``(mu_node - inner mus + k_inner - 2) * (tail degree)``."""
    return _par((ctx.node_defect() + ctx.k_inner - 2) * _total(ctx.suffix_degs()))


def parent_dim_parity(ctx: SignContext) -> Parity:
    """Dimension parity of the unsplit k-input moduli space."""
    return moduli_dim_parity(ctx.dim_out, ctx.mu_out, ctx.mus, ctx.k)


def parent_operation_sign(ctx: SignContext) -> Parity:
    """Operation sign of the unsplit k-input tuple."""
    return operation_sign(ctx.degs, ctx.mus)


def parent_stokes_sign(ctx: SignContext) -> Parity:
    """Stokes boundary sign of the unsplit k-input moduli space."""
    return stokes_sign(parent_dim_parity(ctx), ctx.degs)


def minus_sign(ctx: SignContext) -> int:
    """The master congruence's constant term: the sign exponent of -1."""
    return 1


# The terms of the master congruence, by name: boundary sign + composition
# sign + operation sign + 1 + Stokes sign vanishes mod 2.
MASTER_TERMS = ("boundary_sign", "composition_sign", "parent_operation_sign", "minus_sign",
                "parent_stokes_sign")


def master_sum(ctx: SignContext) -> Parity:
    """The sum of the ``MASTER_TERMS``, each looked up by name when it is
    evaluated.  Identically zero."""
    return _par(_total([globals()[name](ctx) for name in MASTER_TERMS]))
