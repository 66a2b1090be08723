"""Exact linear algebra over GF(2): the 0/1 string codec, matrices, rank helpers."""

from __future__ import annotations

import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulhh.gf2 import (
    BitMatrix,
    EchelonBasis,
    echelon_rank,
    from01,
    index_code,
    pair_components,
    sparse_rank,
    to01,
)


def reference_solve(m: BitMatrix, b: int) -> int | None:
    """The earlier BitMatrix.solve: eliminate [m | b], then back-substitute."""
    aug = m.cols
    basis: dict[int, int] = {}
    for i, r in enumerate(m.rows):
        r |= ((b >> i) & 1) << aug
        while r:
            p = (r & -r).bit_length() - 1
            have = basis.get(p)
            if have is None:
                basis[p] = r
                break
            r ^= have
    if aug in basis:
        return None
    for p in sorted(basis):
        row = basis[p]
        for p2 in basis:
            if p2 != p and (basis[p2] >> p) & 1:
                basis[p2] ^= row
    x = 0
    for p, row in basis.items():
        if (row >> aug) & 1:
            x |= 1 << p
    return x


def reference_echelon(vectors) -> dict[int, int]:
    """The earlier Massey echelon form: lowest-bit pivots, not back-substituted."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            p = (v & -v).bit_length() - 1
            have = basis.get(p)
            if have is None:
                basis[p] = v
                break
            v ^= have
    return basis


def reference_reduce_modulo(bits: int, echelon: dict[int, int]) -> int:
    """The earlier Massey class representative: clear the pivots in ascending order."""
    for p in sorted(echelon):
        if (bits >> p) & 1:
            bits ^= echelon[p]
    return bits


@st.composite
def matrices(draw, max_rows=16, max_cols=24):
    cols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_rows))
    # repeat sums of drawn rows, so that rank deficits are common
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
    return BitMatrix(rows, cols)


def span_element(rows, mask: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            out ^= r
    return out


PROPERTY = settings(max_examples=60, deadline=None)


def test_from01_leftmost_is_entry_zero():
    assert from01("1010") == 0b0101
    assert to01(0b0101, 4) == "1010"
    assert from01("") == 0 and to01(0, 0) == ""
    assert to01(0, 3) == "000" and to01(0b1101, 6) == "101100"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_to01_and_from01_round_trip(data):
    length = data.draw(st.integers(0, 300))
    bits = data.draw(st.integers(0, (1 << length) - 1))
    text = to01(bits, length)
    assert text == "".join("1" if (bits >> j) & 1 else "0" for j in range(length))
    assert from01(text) == bits
    spelled = data.draw(st.text(alphabet="01", min_size=length, max_size=length))
    assert to01(from01(spelled), length) == spelled


@pytest.mark.parametrize("text, bad", [
    ("10x1", "x"), ("1_0", "_"), (" 10", " "), ("10 ", " "),
    ("+1", "+"), ("-1", "-"), ("0b1", "b"), ("1\n", "\n"), ("2", "2"),
])
def test_from01_rejects_invalid_characters(text, bad):
    # int(..., 2) alone would take underscores, surrounding spaces, signs and 0b
    with pytest.raises(ValueError, match=re.escape(f"invalid bit character {bad!r}")):
        from01(text)


@pytest.mark.parametrize("bits, length", [(0b100, 2), (1, 0), (-1, 3)])
def test_to01_rejects_bits_that_do_not_fit(bits, length):
    with pytest.raises(ValueError, match="does not fit the stated length"):
        to01(bits, length)


def test_bitmatrix_from01_and_row_access():
    m = BitMatrix.from01(["110", "011"])
    assert m.nrows == 2 and m.cols == 3
    assert m.rows == (0b011, 0b110)
    assert [to01(r, m.cols) for r in m.rows] == ["110", "011"]
    assert BitMatrix.from01([]) == BitMatrix([], 0)
    with pytest.raises(ValueError, match="ragged rows"):
        BitMatrix.from01(["110", "01"])


def test_bitmatrix_identity_and_zeros():
    assert BitMatrix([0b001, 0b010, 0b100], 3).rank() == 3
    assert BitMatrix.zeros(2, 5).rank() == 0


def test_rank_hand_examples():
    assert BitMatrix.from01(["10", "01"]).rank() == 2
    # third row is the sum of the first two
    m = BitMatrix.from01(["110", "011", "101"])
    assert m.rank() == 2


def test_mul_vec_matches_row_dot_products():
    m = BitMatrix.from01(["110", "011", "111"])
    x = from01("101")
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
        assert m.mul_vec(v) == 0


def test_kernel_of_full_rank_matrix_is_trivial():
    assert BitMatrix([1 << i for i in range(4)], 4).kernel_basis() == []


def test_solve_hand_cases():
    m = BitMatrix.from01(["110", "011"])
    x = m.solve(from01("10"))
    assert x is not None and m.mul_vec(x) == 0b01
    # inconsistent system: equal rows with distinct right-hand sides
    m2 = BitMatrix.from01(["110", "110"])
    assert m2.solve(from01("10")) is None
    assert m2.solve(from01("11")) is not None


def test_solve_random_consistency():
    rng = random.Random(0)
    for _ in range(50):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        m = BitMatrix([rng.getrandbits(nc) for _ in range(nr)], nc)
        target = m.mul_vec(rng.getrandbits(nc))
        x = m.solve(target)
        assert x is not None and m.mul_vec(x) == target


def test_kernel_and_solves_share_one_elimination(monkeypatch):
    """kernel_basis and every solve read one reduced [m | I]; rank needs no
    tags and eliminates the plain rows, so it back-substitutes nothing."""
    calls = []
    back_substitute = EchelonBasis.back_substitute

    def counted(self):
        calls.append(self)
        back_substitute(self)

    monkeypatch.setattr(EchelonBasis, "back_substitute", counted)
    m = BitMatrix.from01(["1100", "0110", "1010", "0001"])
    assert m.rank() == 3 and calls == []
    assert [to01(v, 4) for v in m.kernel_basis()] == ["1110"]
    assert m.solve(from01("1010")) == from01("1000")
    assert m.solve(from01("0110")) == from01("1100")
    assert m.solve(from01("1000")) is None
    assert len(calls) == 1


def test_echelon_rank_matches_dense_rank():
    rng = random.Random(2)
    for _ in range(60):
        nr, nc = rng.randrange(1, 14), rng.randrange(1, 30)
        rows = [rng.getrandbits(nc) for _ in range(nr)]
        # BitMatrix.rank is echelon_rank itself; the kernel of the reduced
        # [m | I] is the independent side
        m = BitMatrix(rows, nc)
        assert echelon_rank(iter(rows)) == m.rank() == nc - len(m.kernel_basis())


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


@PROPERTY
@given(matrices(), st.data())
def test_solve_matches_the_augmented_reference(m, data):
    arbitrary = data.draw(st.integers(0, (1 << m.nrows) - 1))
    reachable = m.mul_vec(data.draw(st.integers(0, (1 << m.cols) - 1)))
    for b in (arbitrary, reachable):
        x = m.solve(b)
        assert x == reference_solve(m, b)
        if x is not None:
            assert m.mul_vec(x) == b


@PROPERTY
@given(matrices())
def test_kernel_vectors_are_annihilated_and_count_the_nullity(m):
    ker = m.kernel_basis()
    assert all(m.mul_vec(v) == 0 for v in ker)
    assert len(ker) == m.cols - m.rank()
    assert BitMatrix(ker, m.cols).rank() == len(ker)
    assert m.rank() == echelon_rank(m.rows)


@PROPERTY
@given(matrices(), st.booleans(), st.randoms(use_true_random=False))
def test_pivot_set_does_not_depend_on_row_order(m, lowest, rng):
    rows = list(m.rows)
    basis = EchelonBasis(lowest)
    basis.extend(rows)
    rng.shuffle(rows)
    other = EchelonBasis(lowest)
    other.extend(rows)
    assert other.pivots() == basis.pivots()
    assert basis.rank == m.rank()


@PROPERTY
@given(matrices(), st.booleans(), st.data())
def test_reduce_is_the_coset_remainder(m, lowest, data):
    basis = EchelonBasis(lowest)
    basis.extend(m.rows)
    v = data.draw(st.integers(0, (1 << m.cols) - 1))
    rest = basis.reduce(v)
    if lowest:
        assert rest == reference_reduce_modulo(v, reference_echelon(m.rows))
    assert all(not (rest >> p) & 1 for p in basis.pivots())
    assert BitMatrix(m.rows + (v ^ rest,), m.cols).rank() == m.rank()
    mask = data.draw(st.integers(0, (1 << m.nrows) - 1))
    assert basis.reduce(v ^ span_element(m.rows, mask)) == rest


@PROPERTY
@given(matrices(), st.booleans())
def test_back_substitution_leaves_each_pivot_in_one_row(m, lowest):
    basis = EchelonBasis(lowest)
    basis.extend(m.rows)
    pivots = basis.pivots()
    basis.back_substitute()
    assert basis.pivots() == pivots
    for p, r in basis.rows.items():
        assert [q for q in pivots if (r >> q) & 1] == [p]
        assert basis.reduce(r) == 0


@st.composite
def two_entry_rows(draw):
    """(cols, [(first, second)]) with -1 for an absent entry, as SparseDifferential stores them."""
    cols = draw(st.integers(1, 24))
    entry = st.integers(-1, cols - 1)
    pairs = draw(st.lists(st.tuples(entry, entry), max_size=16))
    return cols, [(a, b) if a != b else (a, -1) for a, b in pairs]


def pair_arrays(case) -> tuple[array, array, int]:
    cols, pairs = case
    code = index_code(cols)
    return array(code, [a for a, _ in pairs]), array(code, [b for _, b in pairs]), cols


@PROPERTY
@given(two_entry_rows())
# merges out of order: (3, 1) walks 3 -> 2 -> 1 -> 0, where a halving step
# that moves the wrong entry splits 1 off its component
@example((4, [(2, 3), (1, 2), (0, 1), (3, 1)]))
@example((4, [(3, -1), (2, 3), (-1, 1), (0, 1), (1, 2)]))
def test_sparse_rank_matches_dense_rank(case):
    cols, pairs = case
    rank = BitMatrix([sum(1 << c for c in pair if c >= 0) for pair in pairs], cols).rank()
    first, second, _ = pair_arrays(case)
    assert sparse_rank(first, second, cols) == rank
    assert cols - len(pair_components(first, second, cols)[1]) == rank


def reference_components(cols: int, pairs) -> list[set[int]]:
    """The column sets joined by two-entry rows, by repeated merging."""
    parts = [{c} for c in range(cols)]
    for a, b in pairs:
        if a >= 0 and b >= 0 and parts[a] is not parts[b]:
            joined = parts[a] | parts[b]
            for c in joined:
                parts[c] = joined
    return parts


@PROPERTY
@given(two_entry_rows())
@example((4, [(2, 3), (1, 2), (0, 1), (3, 1)]))
def test_pair_components_give_the_dense_rank_and_kernel(case):
    cols, pairs = case
    m = BitMatrix([sum(1 << c for c in pair if c >= 0) for pair in pairs], cols)
    roots, free_roots = pair_components(*pair_arrays(case))
    # every column points at the smallest column of its component
    assert list(roots) == [min(part) for part in reference_components(cols, pairs)]
    assert cols - len(free_roots) == m.rank()
    for root in free_roots:
        assert roots[root] == root
        assert m.mul_vec(sum(1 << c for c, r in enumerate(roots) if r == root)) == 0


def test_ranking_a_pair_matrix_allocates_a_few_bytes_a_column():
    # a path over every column, its rows shuffled, plus one forced column
    cols = 1 << 17
    code = index_code(cols)
    rows = [(c, c + 1) for c in range(cols - 1)] + [(cols - 1, -1)]
    random.Random(5).shuffle(rows)
    first, second = array(code, [a for a, _ in rows]), array(code, [b for _, b in rows])
    del rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rank = sparse_rank(first, second, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == cols
    assert peak - before <= 8 * cols


def test_index_code_holds_every_index_below_n():
    for n in (1, (1 << 31) - 1, 1 << 31, 1 << 40):
        assert array(index_code(n), [-1, n - 1])[-1] == n - 1
    for n in (127, 128):
        assert array(index_code(n), [-1, n - 1])[-1] == n - 1
    assert index_code(127) == "b" and index_code(128) == "i"
    assert index_code((1 << 31) - 1) == "i" and index_code(1 << 31) == "q"
