"""Admissible sequences, generic intersections, and resolution exactness."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra
from koszulhh.errors import CapExceeded
from koszulhh.koszul import (
    admissible_in_generic_span,
    admissible_sequences,
    admissible_tuples,
    count_admissible,
    is_admissible,
    koszul_space_generic,
    sequence_links,
    sequence_tensor_index,
    verify_koszul,
)


def brute_force_admissible(m: int, n: int, k: int):
    """Filter all generator words: no equal adjacent atom letters."""
    gens = range(m + n)
    out = []
    for seq in itertools.product(gens, repeat=k):
        if all(not (seq[i] == seq[i + 1] and seq[i] >= m) for i in range(k - 1)):
            out.append(seq)
    return tuple(out)


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


def test_sequence_links_reject_negative_length():
    with pytest.raises(ValueError):
        sequence_links(1, 2, -1)


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
