import itertools
import random

import pytest

from ainfsign import signs
from ainfsign.f2poly import F2Poly, anf_equivalent
from ainfsign.signs import SignContext


def ctx(k, j, k_inner, degs=None, mus=None, mu_node=0, mu_out=0, dim_out=0):
    return SignContext(j, k_inner, tuple(degs or [0] * k), tuple(mus or [0] * k),
                       mu_node, mu_out, dim_out)


def test_shifted_degree():
    assert signs.shifted_degree(1, 0) == 0
    assert signs.shifted_degree(0, 1) == 0
    assert signs.shifted_degree(2, 1) == 2


def test_operation_sign_values():
    assert signs.operation_sign([2], [0]) == 0
    assert signs.operation_sign([1, 1], [0, 0]) == 1
    assert signs.operation_sign([1, 1], [1, 0]) == 1


def test_operation_sign_length_mismatch():
    with pytest.raises(ValueError):
        signs.operation_sign([1, 2], [0])


def test_boundary_sign_values():
    assert signs.boundary_sign(ctx(2, 1, 2)) == 1
    assert signs.boundary_sign(ctx(2, 1, 1)) == 0


def test_composition_sign_values():
    assert signs.composition_sign(ctx(2, 1, 2)) == 0
    assert signs.composition_sign(ctx(2, 1, 1)) == 1


def test_decomposition_piece_values():
    c = ctx(2, 1, 2)
    assert signs.local_system_swap_sign(c, 0) == 0
    assert signs.marked_point_shuffle_sign(c, 0) == 0
    assert signs.outer_moduli_dim_parity(c) == 1


def test_reorder_sign_values():
    assert signs.pushpull_reorder_sign(ctx(2, 1, 2)) == 0
    assert signs.pushpull_reorder_sign(ctx(2, 1, 1, degs=(0, 0))) == 0
    assert signs.pushpull_reorder_sign(ctx(2, 1, 1, degs=(0, 1))) == 1


def test_output_degree_parity():
    assert signs.output_degree_parity([1], [0], 0) == 0
    assert signs.output_degree_parity([1, 1], [0, 0], 0) == 0
    # empty inputs: shifted output parity is 1, so unshifted is 2 - mu_out
    assert signs.output_degree_parity([], [], 0) == 0
    assert signs.output_degree_parity([], [], 1) == 1


def test_moduli_dim_parity():
    assert signs.moduli_dim_parity(0, 0, [0, 0], 2) == 0
    assert signs.moduli_dim_parity(1, 1, [], 0) == 0
    assert signs.moduli_dim_parity(0, 1, [1], 1) == 1


def test_stokes_sign():
    assert signs.stokes_sign(0, [0, 0]) == 0
    assert signs.stokes_sign(1, [1]) == 0
    assert signs.stokes_sign(1, [1, 2, 3]) == 1


def test_koszul_prefix():
    assert signs.koszul_prefix([], [], 1) == 0
    assert signs.koszul_prefix([1], [0], 2) == 0
    assert signs.koszul_prefix([2, 1], [1, 0], 3) == 0
    with pytest.raises(ValueError):
        signs.koszul_prefix([1], [0], 3)


def test_context_derives_its_arities():
    c = SignContext(2, 3, (0, 1, 0, 1), (1, 0, 0, 1), 0, 0, 0)
    assert (c.k, c.k_outer) == (4, 2)


def test_context_validation():
    for j, k_inner, degs, mus in [
        (3, 1, (0, 0), (0, 0)),  # slot past the outer arity
        (1, 3, (0, 0), (0, 0)),  # inner arity leaves no outer input
        (1, -1, (0, 0), (0, 0)),
        (1, 1, (1,), (0, 0)),  # fewer degrees than parities
        (1, 0, (), ()),  # no inputs
    ]:
        with pytest.raises(ValueError):
            SignContext(j, k_inner, degs, mus, 0, 0, 0)


def _all_parity_contexts(k, j, k_inner, with_degs=False):
    n = 2 * k + 3
    for bits in itertools.product((0, 1), repeat=n):
        degs = bits[:k] if with_degs else tuple(bits[:k])
        yield ctx(
            k, j, k_inner,
            degs=tuple(degs), mus=bits[k : 2 * k],
            mu_node=bits[2 * k], mu_out=bits[2 * k + 1], dim_out=bits[2 * k + 2],
        )


@pytest.mark.parametrize("k,j,k_inner", [(2, 1, 2), (2, 1, 1), (3, 2, 2), (3, 1, 0), (4, 3, 2)])
def test_boundary_decomposition_truth_table(k, j, k_inner):
    """Integer route: the boundary sign equals its three proof pieces for
    every parity assignment, with any node dimension."""
    for c in _all_parity_contexts(k, j, k_inner):
        for dim_node in (0, 1):
            total = (
                signs.local_system_swap_sign(c, dim_node)
                + signs.marked_point_shuffle_sign(c, dim_node)
                + signs.outer_moduli_dim_parity(c)
            ) % 2
            assert total == signs.boundary_sign(c)


@pytest.mark.parametrize("k,j,k_inner", [(2, 1, 2), (3, 2, 1), (3, 1, 3), (4, 2, 0)])
def test_composition_decomposition_truth_table(k, j, k_inner):
    for c in _all_parity_contexts(k, j, k_inner):
        total = (signs.coderivation_sign(c) + signs.pushpull_reorder_sign(c)) % 2
        assert total == signs.composition_sign(c)


@pytest.mark.parametrize("k,j,k_inner", [(2, 1, 2), (3, 2, 2), (4, 1, 2), (4, 4, 1)])
def test_reorder_collapse_truth_table(k, j, k_inner):
    """The two reorder moves share a factor that cancels mod 2."""
    for c in _all_parity_contexts(k, j, k_inner):
        assert (signs.nested_move_sign(c) + signs.block_swap_sign(c)) % 2 == (
            signs.pushpull_reorder_sign(c)
        )


def test_master_congruence_numeric_spot_check():
    c = ctx(2, 1, 2)
    assert (signs.boundary_sign(c) + signs.composition_sign(c)) % 2 == 1
    eps = signs.operation_sign(c.degs, c.mus)
    nu = signs.stokes_sign(signs.parent_dim_parity(c), c.degs)
    assert (eps + 1 + nu) % 2 == 1
    assert signs.master_sum(c) == 0


def test_master_congruence_random_numeric():
    rng = random.Random(3)
    for _ in range(500):
        k = rng.randrange(1, 6)
        k_inner = rng.randrange(0, k + 1)
        j = rng.randrange(1, k + 2 - k_inner)
        c = ctx(
            k, j, k_inner,
            degs=[rng.randrange(-4, 7) for _ in range(k)],
            mus=[rng.randrange(0, 2) for _ in range(k)],
            mu_node=rng.randrange(0, 2), mu_out=rng.randrange(0, 2),
            dim_out=rng.randrange(0, 5),
        )
        assert signs.master_sum(c) == 0


def test_differential_insertion_congruence_numeric():
    # k=1, deg 2, parity 0, slot 1: both routes give parity 1
    degs, mus = [2], [0]
    bumped = [3]
    lhs = (signs.koszul_prefix(degs, mus, 1) + signs.operation_sign(bumped, mus)) % 2
    rhs = (0 + signs.operation_sign(degs, mus) + 1) % 2
    assert lhs == rhs == 1


def test_parity_only_dependence_on_degrees():
    """Shifting any degree by 2 never changes a sign output."""
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randrange(1, 5)
        k_inner = rng.randrange(0, k + 1)
        j = rng.randrange(1, k + 2 - k_inner)
        degs = [rng.randrange(0, 5) for _ in range(k)]
        mus = [rng.randrange(0, 2) for _ in range(k)]
        c1 = ctx(k, j, k_inner, degs=degs, mus=mus, mu_node=1)
        slot = rng.randrange(k)
        bumped = list(degs)
        bumped[slot] += 2
        c2 = ctx(k, j, k_inner, degs=bumped, mus=mus, mu_node=1)
        assert signs.operation_sign(c1.degs, mus) == signs.operation_sign(c2.degs, mus)
        assert signs.composition_sign(c1) == signs.composition_sign(c2)
        assert signs.coderivation_sign(c1) == signs.coderivation_sign(c2)
        assert signs.pushpull_reorder_sign(c1) == signs.pushpull_reorder_sign(c2)
        nu1 = signs.stokes_sign(signs.parent_dim_parity(c1), c1.degs)
        nu2 = signs.stokes_sign(signs.parent_dim_parity(c2), c2.degs)
        assert nu1 == nu2


def test_formulas_run_on_gf2_polynomials():
    """The same formulas accept symbolic parity variables and produce
    canonical polynomials; spot-check one known identity."""
    var = F2Poly.var
    c = SignContext(1, 2, (var("d1"), var("d2")), (var("m1"), var("m2")),
                    var("ma"), var("m0"), var("r0"))
    ok, _ = anf_equivalent(signs.master_sum(c), F2Poly.zero())
    assert ok
