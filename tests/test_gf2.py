"""Exact linear algebra over GF(2): vectors, matrices, rank helpers."""

from __future__ import annotations

import random

import pytest

from koszulhh.gf2 import (
    BitMatrix,
    BitVector,
    EchelonBasis,
    echelon_rank,
    kernel_basis,
    rank,
    solve,
    sparse_rank,
)


def test_bitvector_from01_leftmost_is_entry_zero():
    v = BitVector.from01("1010")
    assert v[0] == 1 and v[1] == 0 and v[2] == 1 and v[3] == 0
    assert v.to01() == "1010"
    assert len(v) == 4


def test_bitvector_xor_weight_support():
    a = BitVector.from01("1100")
    b = BitVector.from01("0110")
    c = a ^ b
    assert c.to01() == "1010"
    assert c.weight() == 2
    assert c.support() == [0, 2]
    assert bool(BitVector(3, 0)) is False


def test_bitvector_rejects_overflow_bits():
    with pytest.raises(ValueError):
        BitVector(2, 0b100)


def test_bitmatrix_from01_and_row_access():
    m = BitMatrix.from01(["110", "011"])
    assert m.nrows == 2 and m.cols == 3
    assert m.row(0).to01() == "110"
    assert [r.to01() for r in m] == ["110", "011"]


def test_bitmatrix_identity_and_zeros():
    assert BitMatrix.identity(3).rank() == 3
    assert BitMatrix.zeros(2, 5).rank() == 0


def test_rank_hand_examples():
    assert BitMatrix.from01(["10", "01"]).rank() == 2
    # third row is the sum of the first two
    m = BitMatrix.from01(["110", "011", "101"])
    assert m.rank() == 2
    assert rank(m) == 2


def test_mul_vec_matches_row_dot_products():
    m = BitMatrix.from01(["110", "011", "111"])
    x = BitVector.from01("101").bits
    out = m.mul_vec(x)
    # rows dotted with x mod 2: 1, 1, 0
    assert out == 0b011


def test_transpose_involution_and_shape():
    m = BitMatrix.from01(["110", "011"])
    t = m.transpose()
    assert t.nrows == 3 and t.cols == 2
    assert t.transpose() == m


def test_compose_matches_manual_product():
    a = BitMatrix.from01(["11", "01"])
    b = BitMatrix.from01(["10", "11"])
    ab = a.compose(b)
    for x in range(4):
        assert ab.mul_vec(x) == a.mul_vec(b.mul_vec(x))


def test_kernel_basis_spans_the_kernel():
    m = BitMatrix.from01(["110", "011", "101"])
    ker = m.kernel_basis()
    assert len(ker) == 3 - m.rank()
    for v in ker:
        assert m.mul_vec(v.bits) == 0
    assert kernel_basis(m) == ker


def test_kernel_of_full_rank_matrix_is_trivial():
    assert BitMatrix.identity(4).kernel_basis() == []


def test_solve_hand_cases():
    m = BitMatrix.from01(["110", "011"])
    x = m.solve(BitVector.from01("10"))
    assert x is not None and m.mul_vec(x.bits) == 0b01
    # inconsistent system: equal rows with distinct right-hand sides
    m2 = BitMatrix.from01(["110", "110"])
    assert m2.solve(BitVector.from01("10")) is None
    assert solve(m2, BitVector.from01("11")) is not None


def test_solve_random_consistency():
    rng = random.Random(0)
    for _ in range(50):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = BitMatrix([rng.getrandbits(nc) for _ in range(nr)], nc)
        target = m.mul_vec(rng.getrandbits(nc))
        x = m.solve(target)
        assert x is not None and m.mul_vec(x.bits) == target


def test_from_vectors_places_vectors_as_rows():
    vecs = [BitVector.from01("10"), BitVector.from01("11")]
    m = BitMatrix.from_vectors(vecs)
    assert m.nrows == 2 and m.cols == 2
    assert m.row(1).to01() == "11"


def test_sparse_rank_matches_dense_rank():
    rng = random.Random(1)
    for _ in range(40):
        nr, nc = rng.randrange(1, 12), rng.randrange(1, 12)
        rows = [rng.getrandbits(nc) for _ in range(nr)]
        supports = [{i for i in range(nc) if (r >> i) & 1} for r in rows]
        assert sparse_rank(supports, nc) == BitMatrix(rows, nc).rank()


def test_echelon_rank_matches_dense_rank():
    rng = random.Random(2)
    for _ in range(60):
        nr, nc = rng.randrange(1, 14), rng.randrange(1, 30)
        rows = [rng.getrandbits(nc) for _ in range(nr)]
        assert echelon_rank(iter(rows)) == BitMatrix(rows, nc).rank()


def test_echelon_rank_accepts_generators_and_zero_rows():
    assert echelon_rank(iter([])) == 0
    assert echelon_rank(iter([0, 0b101, 0b101, 0])) == 1


def test_echelon_pivots_give_every_column_suffix_rank():
    rng = random.Random(5)
    for _ in range(60):
        nr, nc = rng.randrange(1, 14), rng.randrange(1, 30)
        # sparse rows, so that suffix ranks fall below the full rank unevenly
        rows = [rng.getrandbits(nc) & rng.getrandbits(nc) for _ in range(nr)]
        basis = EchelonBasis()
        basis.extend(rows)
        pivots = basis.pivots()
        assert basis.rank == len(pivots) == BitMatrix(rows, nc).rank()
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            other = EchelonBasis()
            other.extend(iter(shuffled))
            assert other.pivots() == pivots
        for floor in range(nc + 1):
            restricted = BitMatrix([r >> floor for r in rows], nc - floor)
            assert sum(p >= floor for p in pivots) == restricted.rank()
