"""Bigraded cochain complexes, cohomology dimensions, and the bar cross-check."""

from __future__ import annotations

import random

import pytest

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, Subring
from koszulhh.errors import CapExceeded
from koszulhh.gf2 import BitMatrix
from koszulhh.hochschild import (
    HochschildComplex,
    _action_rows,
    cochain_differential,
    hh_bar_oracle,
    hh_dim,
    kadeishvili_check,
)
from koszulhh.koszul import count_admissible


def test_cochain_dimensions_factor_through_module_degree():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    hc = HochschildComplex(alg)
    assert hc.cochain_dim(2, 0) == count_admissible(1, 2, 2) * 2
    assert hc.cochain_dim(2, -2) == count_admissible(1, 2, 2)  # scalar values
    assert hc.cochain_dim(1, -2) == 0  # module degree below zero
    assert hc.cochain_dim(0, 0) == 1


def test_differential_squares_to_zero():
    rng = random.Random(0)
    for m, n in [(0, 2), (1, 1), (1, 2), (0, 3)]:
        alg = ConnectedSumAlgebra(m, BooleanRing(n))
        hc = HochschildComplex(alg)
        for k in range(0, 4):
            for s in range(-2, 2):
                if hc.cochain_dim(k, s) == 0:
                    continue
                for _ in range(5):
                    bits = rng.getrandbits(hc.cochain_dim(k, s))
                    f = hc.cochain_from_bits(k, s, bits)
                    ddf = hc.coboundary_of(hc.coboundary_of(f))
                    assert ddf.is_zero()


def test_hand_checked_differential_values():
    # coefficients in three atoms, no free part; f(x2) = x1 in degree (1, 0)
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    hc = HochschildComplex(alg)
    g = hc.cochain_from_bits(1, 0, 0b001 << 3)
    dg = hc.coboundary_of(g)
    idx = hc.sequence_index(2)
    # dg(u, w) = u * g(w) + g(u) * w
    assert dg.values[idx[(0, 1)]] == 0b001  # x1 * x1 from the second term
    assert dg.values[idx[(1, 0)]] == 0b001
    assert dg.values[idx[(1, 2)]] == 0
    # the indicator x1 -> x1 is a cocycle: both terms coincide and cancel
    f = hc.cochain_from_bits(1, 0, 0b001)
    assert hc.is_cocycle(f)


def _reference_rows(hc, k, s):
    """Coboundary rows as full-width column bitmasks, assembled densely."""
    j = k + s
    dim_in = hc.module_dim(j) if j >= 0 else 0
    dim_out = hc.module_dim(j + 1) if j + 1 >= 0 else 0
    if dim_in == 0 or dim_out == 0:
        return [0] * (count_admissible(hc.m, hc.nj, k + 1) * dim_out)
    index_in = {t: i for i, t in enumerate(hc.sequences(k))}
    act = [
        _action_rows(hc.alg, hc.is_v(g), g if g < hc.m else hc.generator_mask(g), 1, j)
        for g in range(hc.generator_count)
    ]
    rows = []
    for u in hc.sequences(k + 1):
        off_r = index_in[u[1:]] * dim_in
        off_l = index_in[u[:-1]] * dim_in
        for r in range(dim_out):
            rows.append((act[u[0]][r] << off_r) ^ (act[u[-1]][r] << off_l))
    return rows


# (v_dim, atoms, subring blocks or None); with k in 0..3 and s chosen so
# that the value degree k+s runs over -1..3, every case meets j<0, j=0,
# j=1 and j>=2, and constant sequences (all of length 1, free ones beyond)
REFERENCE_CASES = [
    (0, 2, None),
    (1, 1, None),
    (2, 1, None),
    (1, 3, None),
    (0, 3, ((0, 1), (2,))),
    (2, 3, ((0, 2), (1,))),
]


@pytest.mark.parametrize("m, n, blocks", REFERENCE_CASES)
def test_pair_differential_matches_the_dense_reference(m, n, blocks):
    rng = random.Random(m * 10 + n)
    ring = BooleanRing(n)
    alg = ConnectedSumAlgebra(m, ring)
    subring = None
    if blocks is not None:
        subring = Subring(ring, [sum(ring.atom(a) for a in b) for b in blocks])
    hc = HochschildComplex(alg, subring)
    for k in range(4):
        for j in range(-1, 4):
            s = j - k
            diff = hc.differential(k, s)
            assert len(diff.first) == len(diff.second) == diff.n_rows
            for a, b in zip(diff.first, diff.second):
                assert -1 <= a < diff.n_cols and -1 <= b < diff.n_cols
                assert a < 0 or a != b
            dense = BitMatrix(_reference_rows(hc, k, s), hc.cochain_dim(k, s))
            assert diff.to_bitmatrix() == dense
            assert hc.rank(k, s) == dense.rank()
            for _ in range(3):
                bits = rng.getrandbits(dense.cols) if dense.cols else 0
                f = hc.cochain_from_bits(k, s, bits)
                assert hc.cochain_to_bits(hc.coboundary_of(f)) == dense.mul_vec(bits)
            basis = hc.cocycle_space(k, s)
            assert len(basis) == hc.hh(k, s).cocycles
            assert BitMatrix(basis, dense.cols).rank() == len(basis)
            assert all(dense.mul_vec(v) == 0 for v in basis)


def test_hh_dimension_grid_frozen():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    expected = {
        (0, 0): 1,
        (0, 1): 3,
        (0, 2): 2,
        (1, 0): 5,
        (1, 1): 2,
        (1, 2): 2,
        (2, -1): 8,
        (3, -2): 20,
    }
    for k in range(5):
        for s in range(-2, 3):
            assert hh_dim(alg, k, s) == expected.get((k, s), 0)


def test_hh_report_rank_bookkeeping():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    rep = HochschildComplex(alg).hh(2, -1)
    assert (rep.cochains, rep.cocycles, rep.coboundaries) == (18, 6, 3)
    assert rep.cohomology == rep.cocycles - rep.coboundaries == 3


def test_hh_with_coarser_coefficient_subring():
    ring = BooleanRing(3)
    coarse = Subring.trivial(ring).adjoin(ring.atom(0) | ring.atom(1))
    alg = ConnectedSumAlgebra(0, ring)
    assert hh_dim(alg, 2, -1, coarse) == 1
    assert hh_dim(alg, 2, -1) == 3
    assert hh_dim(alg, 1, 0, coarse) == 3


def test_dual_algebra_vanishing_above_the_diagonal():
    alg = ConnectedSumAlgebra(2)
    for k in range(6):
        for s in range(2 - k, 5 - k):
            assert hh_dim(alg, k, s) == 0
    assert hh_dim(alg, 0, 0) == 1


def test_cochain_bits_round_trip():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    hc = HochschildComplex(alg)
    rng = random.Random(3)
    for _ in range(20):
        bits = rng.getrandbits(hc.cochain_dim(3, -1))
        f = hc.cochain_from_bits(3, -1, bits)
        assert hc.cochain_to_bits(f) == bits


def test_random_cocycle_is_closed():
    alg = ConnectedSumAlgebra(1, BooleanRing(2))
    hc = HochschildComplex(alg)
    rng = random.Random(4)
    for _ in range(20):
        f = hc.random_cocycle(2, 0, rng)
        assert hc.is_cocycle(f)


def test_kadeishvili_report_all_clear():
    for m, n in [(0, 2), (1, 2), (2, 1), (1, 3)]:
        rep = kadeishvili_check(ConnectedSumAlgebra(m, BooleanRing(n)), 5)
        assert rep.passed and rep.failures == ()
        assert rep.max_k == 5
    with pytest.raises(ValueError):
        kadeishvili_check(ConnectedSumAlgebra(1, BooleanRing(1)), 2)


def test_differential_matrix_shape():
    alg = ConnectedSumAlgebra(0, BooleanRing(2))
    hc = HochschildComplex(alg)
    m = cochain_differential(alg, 1, 0)
    assert m.nrows == hc.cochain_dim(2, 0)
    assert m.cols == hc.cochain_dim(1, 0)


def test_bar_factors_zero_bidegree_all_vanish():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    rep = hh_bar_oracle(alg, 3, -1, 8)
    assert rep.skipped_from is None
    assert all(f.increment == 0 for f in rep.factors)
    assert rep.total == 0


def test_bar_factors_concentrate_at_the_expected_degree():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    rep = hh_bar_oracle(alg, 2, -1, 8)
    assert [f.increment for f in rep.factors] == [0, 0, 3, 0, 0, 0, 0, 0, 0]
    assert rep.total == hh_dim(alg, 2, -1) == 3
    rep2 = hh_bar_oracle(alg, 3, -2, 8)
    assert [f.increment for f in rep2.factors] == [0, 0, 0, 6, 0, 0, 0, 0, 0]


def test_bar_degree_zero_class_of_the_unit():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = hh_bar_oracle(alg, 0, 0, 4)
    assert [f.increment for f in rep.factors] == [1, 0, 0, 0, 0]


def test_bar_cumulative_partial_sums():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = hh_bar_oracle(alg, 2, -1, 6)
    running = 0
    for f in rep.factors:
        running += f.increment
        assert f.cumulative == running
    assert rep.total == 18


def test_bar_cap_reports_reduced_truncation():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = hh_bar_oracle(alg, 3, -1, 8, cap=2_000)
    assert rep.skipped_from is not None
    assert rep.max_internal_degree == 8
    assert len(rep.factors) == rep.skipped_from


def test_admissible_enumeration_respects_global_cap(monkeypatch):
    monkeypatch.setenv("KOSZULHH_CAP", "50")
    alg = ConnectedSumAlgebra(2, BooleanRing(3))
    with pytest.raises(CapExceeded):
        HochschildComplex(alg).hh(5, -3)
