"""Boolean rings, block subrings, and the graded connected-sum algebra."""

from __future__ import annotations

import random

import pytest

from koszulhh.algebra import (
    BooleanRing,
    ConnectedSumAlgebra,
    GradedElement,
    Subring,
    action,
    graded_multiply,
    ideal_decompose,
    ideal_membership,
)


def test_boolean_ring_masks_and_operations():
    r = BooleanRing(3)
    assert r.one == 0b111
    assert r.atom(0) == 0b001 and r.atom(2) == 0b100
    assert r.product(0b011, 0b110) == 0b010
    assert r.add(0b011, 0b110) == 0b101
    assert r.complement(0b010) == 0b101


def test_boolean_ring_check_rejects_foreign_masks():
    r = BooleanRing(2)
    with pytest.raises(ValueError):
        r.check(0b100)


def test_ideal_membership_is_support_containment():
    r = BooleanRing(3)
    x, y = 0b011, 0b100
    assert ideal_membership(r, 0b001, x, y)
    assert ideal_membership(r, 0b111, x, y)
    assert ideal_membership(r, 0, x, 0)
    assert not ideal_membership(r, 0b100, 0b011, 0)


def test_ideal_decompose_reconstructs_the_element():
    r = BooleanRing(3)
    rng = random.Random(0)
    for _ in range(40):
        x = rng.getrandbits(3)
        y = rng.getrandbits(3) & r.complement(x)  # orthogonal split is unique
        z = rng.getrandbits(3) & (x | y)
        a, b = ideal_decompose(r, z, x, y)
        assert (a & x) ^ (b & y) == z


def test_ideal_decompose_rejects_overlapping_generators():
    r = BooleanRing(3)
    with pytest.raises(ValueError):
        ideal_decompose(r, 0b001, 0b011, 0b001)


def test_subring_full_and_trivial_partitions():
    r = BooleanRing(3)
    assert Subring.full(r).blocks == (0b001, 0b010, 0b100)
    assert Subring.trivial(r).blocks == (0b111,)
    assert Subring.full(r).atom_count == 3
    assert Subring.trivial(r).atom_count == 1


def test_subring_adjoin_refines_and_is_idempotent():
    r = BooleanRing(3)
    s = Subring.trivial(r).adjoin(0b011)
    assert s.blocks == (0b011, 0b100)
    assert s.adjoin(0b011) == s
    assert s.adjoin(0b001).blocks == (0b001, 0b010, 0b100)


def test_graded_element_xor_and_is_zero():
    a = GradedElement(2, 0b01)
    b = GradedElement(2, 0b11)
    assert (a ^ b).bits == 0b10
    assert (b ^ b).bits == 0
    with pytest.raises(ValueError):
        a ^ GradedElement(3, 0b01)


def test_connected_sum_graded_dimensions():
    alg = ConnectedSumAlgebra(2, BooleanRing(3))
    assert [alg.graded_dim(j) for j in range(6)] == [1, 5, 3, 3, 3, 3]
    dual = ConnectedSumAlgebra(3)
    assert [dual.graded_dim(j) for j in range(4)] == [1, 3, 0, 0]
    assert ConnectedSumAlgebra(1, BooleanRing(1)).gen_count == 2


def test_generator_labels_and_layout():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    assert alg.generator_labels() == ["v1", "x1", "x2", "x3"]
    assert alg.basis_labels(1) == ["v1", "x1", "x2", "x3"]
    assert alg.basis_labels(2) == ["x1", "x2", "x3"]


def test_element_rejects_out_of_range_bits():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    with pytest.raises(ValueError):
        alg.element(2, 0b100)


def test_unit_laws():
    alg = ConnectedSumAlgebra(2, BooleanRing(2))
    rng = random.Random(1)
    for d in range(4):
        w = alg.element(d, rng.getrandbits(alg.graded_dim(d)))
        assert graded_multiply(alg, alg.element(0, 1), w) == w
        assert graded_multiply(alg, w, alg.element(0, 1)) == w


def test_free_generators_kill_positive_degrees():
    alg = ConnectedSumAlgebra(2, BooleanRing(3))
    v = alg.generator(0)
    for d in range(1, 4):
        for bits in range(1 << alg.graded_dim(d)):
            w = alg.element(d, bits)
            assert graded_multiply(alg, v, w).bits == 0
            assert graded_multiply(alg, w, v).bits == 0


def test_atoms_multiply_as_orthogonal_idempotents():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    x1 = alg.element(1, 0b0010)
    x2 = alg.element(1, 0b0100)
    assert graded_multiply(alg, x1, x1) == alg.element(2, 0b001)
    assert graded_multiply(alg, x1, x2).bits == 0
    top = graded_multiply(alg, alg.element(2, 0b011), alg.element(3, 0b110))
    assert top == alg.element(5, 0b010)


def test_product_is_commutative_and_associative():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    rng = random.Random(2)
    for _ in range(60):
        d1, d2, d3 = (rng.randrange(0, 3) for _ in range(3))
        a = alg.element(d1, rng.getrandbits(alg.graded_dim(d1)))
        b = alg.element(d2, rng.getrandbits(alg.graded_dim(d2)))
        c = alg.element(d3, rng.getrandbits(alg.graded_dim(d3)))
        assert graded_multiply(alg, a, b) == graded_multiply(alg, b, a)
        left = graded_multiply(alg, graded_multiply(alg, a, b), c)
        right = graded_multiply(alg, a, graded_multiply(alg, b, c))
        assert left == right


@pytest.mark.parametrize("m, n", [(m, n) for m in range(3) for n in range(4)])
def test_action_is_the_table_of_graded_multiply(m, n):
    # every basis element and every block mask of degree 0..3, acting on
    # every degree -1..3: entry r of the table is the one basis element whose
    # product with x has bit r
    alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
    masks = range(1, 1 << n)
    elements = [alg.element(0, 1)]
    elements += [alg.generator(g) for g in range(alg.gen_count)]
    elements += [alg.from_parts(1, 0, mask) for mask in masks]
    elements += [alg.element(d, mask) for d in (2, 3) for mask in masks]
    for x in elements:
        for j in range(-1, 4):
            expected = [-1] * alg.graded_dim(j + x.degree)
            for c in range(alg.graded_dim(j)):
                image = graded_multiply(alg, x, alg.element(j, 1 << c)).bits
                for r in range(len(expected)):
                    if image >> r & 1:
                        assert expected[r] == -1, (x, j, r)
                        expected[r] = c
            assert action(alg, x, j) == expected, (x, j)


def test_parts_round_trip():
    alg = ConnectedSumAlgebra(2, BooleanRing(2))
    w = alg.from_parts(1, 0b10, 0b01)
    assert alg.v_part(w) == 0b10 and alg.atom_part(w) == 0b01
    assert w == alg.element(1, 0b0110)
    deep = alg.element(3, 0b11)
    assert alg.v_part(deep) == 0 and alg.atom_part(deep) == 0b11
