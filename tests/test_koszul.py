"""Admissible sequences, generic intersections, and resolution exactness."""

from __future__ import annotations

import itertools
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulhh import koszul
from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
from koszulhh.errors import CapExceeded
from koszulhh.gf2 import index_code
from koszulhh.koszul import (
    _product_table,
    _strand,
    admissible_in_generic_span,
    admissible_sequences,
    admissible_tuples,
    child_positions,
    count_admissible,
    koszul_space_generic,
    sequence_links,
    sequence_tensor_index,
    verify_koszul,
)


def is_admissible(seq: tuple[int, ...], m: int) -> bool:
    """Entries >= m are atom-tagged; equal adjacent atoms are forbidden."""
    return all(not (a == b and a >= m) for a, b in zip(seq, seq[1:]))


def brute_force_admissible(m: int, n: int, k: int):
    """Filter all generator words: no equal adjacent atom letters."""
    return tuple(s for s in itertools.product(range(m + n), repeat=k) if is_admissible(s, m))


def test_count_admissible_frozen_values():
    assert [count_admissible(0, 3, k) for k in range(1, 7)] == [3, 6, 12, 24, 48, 96]
    assert [count_admissible(1, 1, k) for k in range(1, 8)] == [2, 3, 5, 8, 13, 21, 34]
    assert [count_admissible(1, 3, k) for k in range(1, 8)] == [4, 13, 43, 142, 469, 1549, 5116]
    assert [count_admissible(2, 3, k) for k in range(1, 7)] == [5, 22, 98, 436, 1940, 8632]
    assert count_admissible(2, 0, 4) == 16
    assert count_admissible(0, 0, 0) == 1 and count_admissible(0, 0, 2) == 0


def test_admissible_tuples_match_brute_force():
    for m, n in [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (1, 3), (2, 2)]:
        for k in range(0, 6):
            got = admissible_tuples(m, n, k)
            assert got == brute_force_admissible(m, n, k)
            assert len(got) == count_admissible(m, n, k)


def test_child_positions_match_the_tuple_order():
    for m, n in [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (2, 2)]:
        for j in range(0, 5):
            below = brute_force_admissible(m, n, j)
            index = {t: i for i, t in enumerate(brute_force_admissible(m, n, j + 1))}
            pairs = [(p, g) for p in [-1, *range(len(below))] for g in range(-1, m + n)]
            got = child_positions(m, n, j, *zip(*pairs))
            for (p, g), c in zip(pairs, got):
                if p < 0 or g < 0:
                    assert c == -1
                elif j and below[p][-1] == g >= m:
                    # g is the atom p ends in
                    assert c == -1
                else:
                    assert c == index[below[p] + (g,)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2), st.integers(0, 4), st.integers(0, 6))
@example(0, 0, 0)
@example(0, 0, 1)
@example(0, 0, 2)
@example(0, 3, 0)
@example(0, 3, 1)
@example(0, 3, 2)
@example(2, 0, 2)
@example(1, 1, 3)
@example(0, 1, 3)
def test_sequence_links_read_the_tuples(m, n, k):
    seqs = brute_force_admissible(m, n, k)
    links = sequence_links(m, n, k)
    assert all(len(a) == len(seqs) for a in links)
    if k == 0:
        assert [list(a) for a in links] == [[-1]] * 4
        return
    index = {t: i for i, t in enumerate(brute_force_admissible(m, n, k - 1))}
    assert list(links.first) == [t[0] for t in seqs]
    assert list(links.last) == [t[-1] for t in seqs]
    assert list(links.suffix) == [index[t[1:]] for t in seqs]
    assert list(links.prefix) == [index[t[:-1]] for t in seqs]


@pytest.mark.parametrize(
    "m, n, k, size", [(0, 3, 0, 1), (2, 3, 1, 1), (2, 4, 5, 1), (1, 126, 2, 1), (0, 128, 1, 4)]
)
def test_sequence_links_keep_generators_in_one_byte_below_128(m, n, k, size):
    links = sequence_links(m, n, k)
    assert links.first.itemsize == links.last.itemsize == size


def test_sequence_links_reject_negative_length():
    with pytest.raises(ValueError):
        sequence_links(1, 2, -1)


def test_sequence_links_reach_a_deep_level_in_a_loop():
    # far past the recursion limit: the levels below are built bottom-up
    deep = sequence_links(0, 2, 5000)  # the two alternating sequences
    assert [list(a) for a in deep] == [[0, 1], [1, 0], [1, 0], [0, 1]]
    assert [list(a) for a in sequence_links(1, 0, 3000)] == [[0]] * 4
    # a level below the kept ones is built again from the bottom
    assert [list(a) for a in sequence_links(0, 2, 2001)] == [[0, 1], [0, 1], [1, 0], [0, 1]]


def test_count_admissible_by_squaring_equals_the_step_by_step_count():
    for m in range(4):
        for n in range(5):
            u, w = m, n
            for k in range(1, 60):
                assert count_admissible(m, n, k) == u + w, (m, n, k)
                u, w = m * (u + w), n * u + (n - 1) * w
    assert count_admissible(0, 2, 10**6) == 2 and count_admissible(1, 0, 10**9) == 1


def test_is_admissible_examples():
    # generators 0 is free, 1 and 2 are atoms
    assert is_admissible((0, 0, 0), 1)
    assert is_admissible((1, 2, 1), 1)
    assert not is_admissible((1, 1), 1)
    assert is_admissible((0, 1, 0, 1), 1)


def test_admissible_sequences_basis_and_cap():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    basis = admissible_sequences(alg, 3)
    assert len(basis) == count_admissible(1, 2, 3)
    with pytest.raises(CapExceeded):
        admissible_sequences(alg, 6, cap=10)


def test_sequence_tensor_index_is_big_endian():
    assert sequence_tensor_index((2, 0, 1), 4) == 2 * 16 + 0 * 4 + 1
    assert sequence_tensor_index((), 3) == 0


def test_generic_intersection_dimensions():
    cases = {
        (0, 3): [1, 3, 6, 12, 24],
        (1, 1): [1, 2, 3, 5, 8],
        (1, 2): [1, 3, 7, 17, 41],
        (2, 2): [1, 4, 14, 50, 178],
    }
    for (m, n), dims in cases.items():
        alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
        for k, expected in enumerate(dims):
            dim, basis = koszul_space_generic(alg, k)
            assert dim == expected
            assert len(basis) == expected


def test_admissible_span_equals_generic_intersection_small():
    for m, n in [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1)]:
        alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
        for k in range(5):
            assert admissible_in_generic_span(alg, k)


def test_verify_koszul_passes_and_reports():
    rep = verify_koszul(ConnectedSumAlgebra(1, BooleanRing(2)), 5)
    assert rep.passed and rep.failures == ()
    assert rep.v_dim == 1 and rep.atoms == 2
    assert rep.max_internal_degree == 5
    assert rep.components_checked == 15


def test_verify_koszul_dual_algebra():
    rep = verify_koszul(ConnectedSumAlgebra(3), 4)
    assert rep.passed


def test_verify_koszul_rejects_negative_degree():
    with pytest.raises(ValueError):
        verify_koszul(ConnectedSumAlgebra(1, BooleanRing(1)), -1)


def reference_strand_images(alg, d):
    """Per position i >= 1 of the internal-degree-d strand, the image of each
    basis element as a set of flat indices, from explicit atom masks."""
    m, n = alg.v_dim, alg.atom_count
    links = [sequence_links(m, n, i) for i in range(d + 1)]
    dim = alg.graded_dim

    def a_idx_to_mask(p, a_idx):
        if p == 1:
            return alg.atom_part(alg.element(1, 1 << a_idx))
        return 1 << a_idx

    def left_mul(p, a_idx, g):
        if p == 0:
            return g
        prod = a_idx_to_mask(p, a_idx) & alg.atom_part(alg.generator(g))
        return prod.bit_length() - 1 if prod else None

    offsets, sizes = [], []
    for i in range(d + 1):
        count = len(links[i].first)
        block_at, pos = {}, 0
        for p in range(d - i + 1):
            if dim(p) and dim(d - i - p) and count:
                block_at[p] = pos
                pos += dim(p) * count * dim(d - i - p)
        offsets.append(block_at)
        sizes.append(pos)

    def image_of(i, p, a, t, b):
        seqs, below, width, q = links[i], offsets[i - 1], len(links[i - 1].first), d - i - p
        out = set()
        a2 = left_mul(p, a, seqs.first[t])
        if a2 is not None and dim(p + 1):
            out ^= {below[p + 1] + (a2 * width + seqs.suffix[t]) * dim(q) + b}
        b2 = left_mul(q, b, seqs.last[t])
        if b2 is not None and dim(q + 1):
            out ^= {below[p] + (a * width + seqs.prefix[t]) * dim(q + 1) + b2}
        return out

    images = {
        i: [
            image_of(i, p, a, t, b)
            for p in offsets[i]
            for a in range(dim(p))
            for t in range(len(links[i].first))
            for b in range(dim(d - i - p))
        ]
        for i in range(1, d + 1)
    }
    return sizes, images


def degree_dims(alg, d):
    return [alg.graded_dim(j) for j in range(d + 2)]


@pytest.mark.parametrize("m, n", [(m, n) for m in range(3) for n in range(4)])
def test_strand_pairs_match_the_set_reference(m, n):
    alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
    top = 5
    links = [sequence_links(m, n, i) for i in range(top + 1)]
    mul = _product_table(alg, top)
    for d in range(1, top + 1):
        ref_sizes, images = reference_strand_images(alg, d)
        sizes, differentials = _strand(degree_dims(alg, d), d, links, mul)
        assert sizes == ref_sizes
        for i, (first, second) in enumerate(differentials, 1):
            assert len(first) == len(second) == sizes[i]
            assert [{c for c in pair if c >= 0} for pair in zip(first, second)] == images[i]
        assert i == d


def row_by_row_strand(alg, d, links, mul):
    """The strand as it was built one row at a time, one extend per left
    basis element and sequence: the reference for the column build."""
    dim = alg.graded_dim
    offsets, sizes = [], []
    for i in range(d + 1):
        count = len(links[i].first)
        block_at, pos = {}, 0
        for p in range(d - i + 1):
            if dim(p) and dim(d - i - p) and count:
                block_at[p] = pos
                pos += dim(p) * count * dim(d - i - p)
        offsets.append(block_at)
        sizes.append(pos)

    def differential(i):
        below, width, code = offsets[i - 1], len(links[i - 1].first), index_code(sizes[i - 1])
        first, second = array(code), array(code)
        for p in offsets[i]:
            q = d - i - p
            dim_q = dim(q)
            absent = array(code, [-1]) * dim_q
            for a in range(dim(p)):
                for g0, g1, r, l in zip(*links[i]):
                    a2 = mul[p][a][g0]
                    if a2 < 0:
                        first.extend(absent)
                    else:
                        base = below[p + 1] + (a2 * width + r) * dim_q
                        first.extend(range(base, base + dim_q))
                    base = below.get(p, 0) + (a * width + l) * dim(q + 1)
                    second.extend([base + b2 if (b2 := row[g1]) >= 0 else -1 for row in mul[q]])
        return first, second

    return sizes, map(differential, range(1, d + 1))


@pytest.mark.parametrize("m, n", [(m, n) for m in range(3) for n in range(4) if m + n])
def test_strand_columns_equal_the_row_by_row_build(m, n):
    alg = ConnectedSumAlgebra(m, BooleanRing(n) if n else None)
    top = 6
    links = [sequence_links(m, n, i) for i in range(top + 1)]
    mul = _product_table(alg, top)
    for d in range(1, top + 1):
        ref_sizes, ref_differentials = row_by_row_strand(alg, d, links, mul)
        sizes, differentials = _strand(degree_dims(alg, d), d, links, mul)
        assert sizes == ref_sizes
        assert list(differentials) == list(ref_differentials)


def test_verify_koszul_visits_only_the_nonzero_degrees_of_a_v_only_algebra():
    # one sequence per length and alg_p = 0 for p >= 2: every strand is a
    # few blocks, so 300 internal degrees stay quick
    rep = verify_koszul(ConnectedSumAlgebra(1), 300)
    assert rep.passed and rep.failures == ()
    assert rep.components_checked == 45150


def swapped_links(monkeypatch, m, n, top):
    """Make koszul.sequence_links hand out u[:-1] as u[1:] and back."""
    links = [sequence_links(m, n, k) for k in range(top + 1)]
    swapped = [t._replace(suffix=t.prefix, prefix=t.suffix) for t in links]
    monkeypatch.setattr(koszul, "sequence_links", lambda m_, n_, k: swapped[k])


def test_verify_koszul_fails_when_the_differential_does_not_square_to_zero(monkeypatch):
    swapped_links(monkeypatch, 1, 1, 2)
    rep = verify_koszul(ConnectedSumAlgebra(1, BooleanRing(1)), 2)
    assert not rep.passed
    assert rep.failures == ((2, -2, 3), (2, -2, 3))


def test_verify_koszul_fails_when_degree_two_products_vanish(monkeypatch):
    # with every product of a degree-2 element zero, the strand of internal
    # degree 3 keeps homology at positions 0 and 1
    real = koszul.action

    def table(alg, x, j):
        sources = real(alg, x, j)
        return [-1] * len(sources) if 2 in (x.degree, j) else sources

    monkeypatch.setattr(koszul, "action", table)
    rep = verify_koszul(ConnectedSumAlgebra(1, BooleanRing(2)), 3)
    assert not rep.passed
    assert rep.failures == ((3, 0, 4), (3, 1, 2))
