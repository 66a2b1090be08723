"""Bigraded cochain complexes, cohomology dimensions, and the bar cross-check."""

from __future__ import annotations

import gc
import random
import weakref
from array import array
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulhh.algebra import BooleanRing, ConnectedSumAlgebra, Subring, action
from koszulhh.errors import CapExceeded
from koszulhh.gf2 import BitMatrix, echelon_rank
from koszulhh.hochschild import (
    HochschildComplex,
    _BarComplex,
    kadeishvili_check,
)
from koszulhh.koszul import admissible_tuples, count_admissible


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
    idx = {t: i for i, t in enumerate(admissible_tuples(0, 3, 2))}
    # dg(u, w) = u * g(w) + g(u) * w
    assert dg.values[idx[(0, 1)]] == 0b001  # x1 * x1 from the second term
    assert dg.values[idx[(1, 0)]] == 0b001
    assert dg.values[idx[(1, 2)]] == 0
    # the indicator x1 -> x1 is a cocycle: both terms coincide and cancel
    f = hc.cochain_from_bits(1, 0, 0b001)
    assert hc.is_cocycle(f)


def _reference_action_rows(alg, is_v, payload, elt_deg, src_deg):
    """Rows of multiplication by a basis element, module piece src -> src+elt,
    from the explicit basis layout: degree 1 holds the v's, then the atoms.

    payload is the v-generator index or the atom mask.  Row r is the input
    bitmask producing output coordinate r; each row has at most one bit.
    """
    out_dim = alg.graded_dim(src_deg + elt_deg)
    rows = [0] * out_dim
    atoms = [a for a in range(alg.atom_count) if (payload >> a) & 1]
    if src_deg == 0:
        if is_v:
            rows[payload] = 1
        else:
            shift = alg.v_dim if src_deg + elt_deg == 1 else 0
            for a in atoms:
                rows[shift + a] = 1
        return rows
    if is_v:
        return rows
    in_shift = alg.v_dim if src_deg == 1 else 0
    out_shift = alg.v_dim if src_deg + elt_deg == 1 else 0
    for a in atoms:
        rows[out_shift + a] = 1 << (in_shift + a)
    return rows


@pytest.mark.parametrize(
    "m, n, blocks", [(0, 2, None), (2, 1, None), (1, 3, None), (2, 3, ((0, 2), (1,)))]
)
def test_action_rows_match_the_explicit_layout(m, n, blocks):
    # every generator and every block, as an element of degree 1..3 (the v's
    # only in degree 1), acting on the module pieces of degree 0..3
    ring = BooleanRing(n)
    alg = ConnectedSumAlgebra(m, ring)
    if blocks is None:
        blocks = [(a,) for a in range(n)]
    masks = [sum(ring.atom(a) for a in b) for b in blocks]
    elements = [(True, g, alg.generator(g)) for g in range(m)]
    for elt_deg in range(1, 4):
        elements += [(False, mask, alg.from_parts(elt_deg, 0, mask)) for mask in masks]
    for is_v, payload, x in elements:
        for src_deg in range(4):
            # each reference row has at most one bit: the output's one source
            expected = _reference_action_rows(alg, is_v, payload, x.degree, src_deg)
            assert action(alg, x, src_deg) == [row.bit_length() - 1 for row in expected]


def _reference_rows(hc, k, s):
    """Coboundary rows as full-width column bitmasks, assembled densely."""
    j = k + s
    dim_in = hc.module_dim(j) if j >= 0 else 0
    dim_out = hc.module_dim(j + 1) if j + 1 >= 0 else 0
    if dim_in == 0 or dim_out == 0:
        return [0] * (count_admissible(hc.m, hc.nj, k + 1) * dim_out)
    index_in = {t: i for i, t in enumerate(admissible_tuples(hc.m, hc.nj, k))}
    act = [
        _reference_action_rows(hc.alg, g < hc.m, g if g < hc.m else hc.generator_mask(g), 1, j)
        for g in range(hc.generator_count)
    ]
    rows = []
    for u in admissible_tuples(hc.m, hc.nj, k + 1):
        off_r = index_in[u[1:]] * dim_in
        off_l = index_in[u[:-1]] * dim_in
        for r in range(dim_out):
            rows.append((act[u[0]][r] << off_r) ^ (act[u[-1]][r] << off_l))
    return rows


def to_bitmatrix(diff):
    """A pair differential as dense row bitmasks; only for small matrices."""
    rows = [sum(1 << c for c in pair if c >= 0) for pair in zip(diff.first, diff.second)]
    return BitMatrix(rows, diff.n_cols)


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
            assert to_bitmatrix(diff) == dense
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
    hc = HochschildComplex(alg)
    for k in range(5):
        for s in range(-2, 3):
            assert hc.hh(k, s).cohomology == expected.get((k, s), 0)


def test_hh_report_rank_bookkeeping():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    rep = HochschildComplex(alg).hh(2, -1)
    assert (rep.cochains, rep.cocycles, rep.coboundaries) == (18, 6, 3)
    assert rep.cohomology == rep.cocycles - rep.coboundaries == 3


def test_hh_with_coarser_coefficient_subring():
    ring = BooleanRing(3)
    coarse = Subring.trivial(ring).adjoin(ring.atom(0) | ring.atom(1))
    alg = ConnectedSumAlgebra(0, ring)
    assert HochschildComplex(alg, coarse).hh(2, -1).cohomology == 1
    assert HochschildComplex(alg).hh(2, -1).cohomology == 3
    assert HochschildComplex(alg, coarse).hh(1, 0).cohomology == 3


def test_dual_algebra_vanishing_above_the_diagonal():
    hc = HochschildComplex(ConnectedSumAlgebra(2))
    for k in range(6):
        for s in range(2 - k, 5 - k):
            assert hc.hh(k, s).cohomology == 0
    assert hc.hh(0, 0).cohomology == 1


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


@pytest.mark.parametrize("m, n, blocks", REFERENCE_CASES)
def test_random_cocycle_draws_one_bit_per_cocycle_basis_vector(m, n, blocks):
    # reference: XOR of the cocycle_space vectors picked by the same draws
    ring = BooleanRing(n)
    subring = None
    if blocks is not None:
        subring = Subring(ring, [sum(ring.atom(a) for a in b) for b in blocks])
    hc = HochschildComplex(ConnectedSumAlgebra(m, ring), subring)
    for k in range(4):
        for j in range(-1, 4):
            rng, ref_rng = random.Random(k * 10 + j), random.Random(k * 10 + j)
            bits = 0
            for v in hc.cocycle_space(k, j - k):
                if ref_rng.getrandbits(1):
                    bits ^= v
            assert hc.random_cocycle(k, j - k, rng) == hc.cochain_from_bits(k, j - k, bits)
            assert rng.getstate() == ref_rng.getstate()


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
    m = to_bitmatrix(hc.differential(1, 0))
    assert m.nrows == hc.cochain_dim(2, 0)
    assert m.cols == hc.cochain_dim(1, 0)


def test_bar_factors_zero_bidegree_all_vanish():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    rep = HochschildComplex(alg).bar_oracle(3, -1, 8)
    assert rep.skipped_from is None
    assert all(f.increment == 0 for f in rep.factors)
    assert rep.total == 0


def test_bar_factors_concentrate_at_the_expected_degree():
    alg = ConnectedSumAlgebra(0, BooleanRing(3))
    hc = HochschildComplex(alg)
    rep = hc.bar_oracle(2, -1, 8)
    assert [f.increment for f in rep.factors] == [0, 0, 3, 0, 0, 0, 0, 0, 0]
    assert rep.total == hc.hh(2, -1).cohomology == 3
    rep2 = hc.bar_oracle(3, -2, 8)
    assert [f.increment for f in rep2.factors] == [0, 0, 0, 6, 0, 0, 0, 0, 0]


def test_bar_totals_one_degree_past_k_equal_the_koszul_route():
    """An observation, for tests only: on every cell below, nonzero ones
    included, the bar truncation through argument degree k + 1, and through
    k + 2, already carries all of HH^(k,s).  With atoms no degree is known
    past which the truncation has stabilised, so the command line makes
    no exit code of this; it fails a mismatch only where a report is exact.
    """
    algebras = [(m, n, None) for m in range(3) for n in range(1, 4)]
    algebras += [(m, 3, ((0, 1), (2,))) for m in range(3)]
    nonzero = 0
    for m, n, blocks in algebras:
        hc = _bar_complex(m, n, blocks, 0).hc
        for k in range(5):
            for s in range(-k - 1, 3):
                hh = hc.hh(k, s).cohomology
                nonzero += hh > 0
                for depth in (k + 1, k + 2):
                    rep = hc.bar_oracle(k, s, depth)
                    assert rep.skipped_from is None and rep.total == hh, (m, n, blocks, k, s, depth)
    assert nonzero == 108


def test_bar_degree_zero_class_of_the_unit():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = HochschildComplex(alg).bar_oracle(0, 0, 4)
    assert [f.increment for f in rep.factors] == [1, 0, 0, 0, 0]


def test_bar_cumulative_partial_sums():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = HochschildComplex(alg).bar_oracle(2, -1, 6)
    running = 0
    for f in rep.factors:
        running += f.increment
        assert f.cumulative == running
    assert rep.total == 18


def test_bar_cap_reports_reduced_truncation():
    alg = ConnectedSumAlgebra(1, BooleanRing(3))
    rep = HochschildComplex(alg).bar_oracle(3, -1, 8, cap=2_000)
    assert rep.skipped_from is not None
    assert rep.max_internal_degree == 8
    assert len(rep.factors) == rep.skipped_from


@cache
def _reference_words(m, nj, q, e):
    """The q-factor bar words of degree e over m v's and nj blocks, as tuples
    of (degree, index) factors (degree 1 holds the v's, then the blocks), in
    column order: by degree composition, then by the factor indices, the last
    fastest."""
    if q == 0:
        return [()] if e == 0 else []
    words = [
        ((d, i),) + rest
        for d in range(1, e + 1)
        for i in range(m + nj if d == 1 else nj)
        for rest in _reference_words(m, nj, q - 1, e - d)
    ]
    return sorted(words, key=lambda w: ([d for d, _ in w], [i for _, i in w]))


@cache
def _reference_index(m, nj, q, e):
    return {t: i for i, t in enumerate(_reference_words(m, nj, q, e))}


def _reference_merge(hc, f1, f2):
    """Block of the product of two adjacent factors, or None when it is zero."""
    b1, b2 = (i - hc.m if d == 1 else i for d, i in (f1, f2))
    return b1 if b1 >= 0 and b1 == b2 else None


def _reference_bar_rows(bar, q, e):
    """Rows of output degree e as column-index lists, assembled term by term
    from the explicit words, with offsets and factor actions rebuilt for
    every word."""
    hc = bar.hc
    dim_out = hc.module_dim(e + bar.s)

    def offset(q, e):
        return sum(bar.tensor_count(q, d) * hc.module_dim(d + bar.s) for d in range(e))

    def index(q, e):
        return _reference_index(hc.m, hc.nj, q, e)

    def factor_mask(factor):
        d1, i = factor
        if d1 == 1 and i < hc.m:
            return True, i
        return False, hc.blocks[i - hc.m if d1 == 1 else i]

    rows = []
    if not dim_out:
        return rows
    for w in _reference_words(hc.m, hc.nj, q + 1, e):
        per_coord = [[] for _ in range(dim_out)]
        for w_act, rest in ((w[0], w[1:]), (w[-1], w[:-1])):
            e_in = e - w_act[0]
            dim_in = hc.module_dim(e_in + bar.s)
            if dim_in == 0:
                continue
            act = _reference_action_rows(hc.alg, *factor_mask(w_act), w_act[0], e_in + bar.s)
            base = offset(q, e_in) + index(q, e_in)[rest] * dim_in
            for r in range(dim_out):
                if act[r]:
                    per_coord[r].append(base + act[r].bit_length() - 1)
        for i in range(q):
            block = _reference_merge(hc, w[i], w[i + 1])
            if block is None:
                continue
            u = w[:i] + ((w[i][0] + w[i + 1][0], block),) + w[i + 2 :]
            base = offset(q, e) + index(q, e)[u] * dim_out
            for r in range(dim_out):
                per_coord[r].append(base + r)
        rows.extend(per_coord)
    return rows


def _reference_graded_cohomology(bar, k, top):
    """Graded pieces from one elimination per floor: the column-restricted
    k-th coboundary for the cocycles of degree >= d, and the rows of output
    degree < d of the (k-1)-th for the coboundaries they leave out."""
    rows = {}

    def packed(q, e_lo, e_hi, floor):
        for e in range(e_hi, e_lo - 1, -1):
            if (q, e) not in rows:
                rows[(q, e)] = _reference_bar_rows(bar, q, e)
            for entries in rows[(q, e)]:
                acc = 0
                for c in entries:
                    if c >= floor:
                        acc ^= 1 << c
                yield acc

    def offset(d):
        return sum(bar.tensor_count(k, e) * bar.hc.module_dim(e + bar.s) for e in range(d))

    def rank_cols_from(d):
        return echelon_rank(packed(k, d, top, offset(d)))

    def rank_rows_below(d):
        return echelon_rank(packed(k - 1, 0, min(d - 1, top), 0)) if k >= 1 and d > 0 else 0

    dim_k = offset(top + 1)
    r_in = rank_rows_below(top + 1)
    filtered = [
        dim_k - offset(d) - rank_cols_from(d) - (r_in - rank_rows_below(d)) for d in range(top + 2)
    ]
    return [filtered[d] - filtered[d + 1] for d in range(top + 1)]


def _reference_weights(bar, q, top):
    """Weight of every q-cochain column up to degree top: the multidegree of
    the module coordinate minus that of the word, indexed by the coefficient
    blocks and then the v's, from the explicit basis layout (degree 1 holds
    the v's, then the atoms; a module atom counts toward its block)."""
    hc = bar.hc
    nb = hc.nj

    def atom_block(a):
        return next(b for b, mask in enumerate(hc.blocks) if mask >> a & 1)

    out = []
    for e in range(top + 1):
        j = e + bar.s
        for t in _reference_words(hc.m, hc.nj, q, e):
            word = [0] * (nb + hc.m)
            for d1, i in t:
                if d1 == 1 and i < hc.m:
                    word[nb + i] += 1
                else:
                    word[i - hc.m if d1 == 1 else i] += d1
            for c in range(hc.module_dim(j)):
                module = [0] * (nb + hc.m)
                if j == 1 and c < hc.m:
                    module[nb + c] = 1
                elif j >= 1:
                    module[atom_block(c - hc.m if j == 1 else c)] = j
                out.append(tuple(x - y for x, y in zip(module, word)))
    return out


def _code(weight, radix):
    """The weight's digits in base radix."""
    return sum(x * radix**p for p, x in enumerate(weight))


def _weight_blocks(layout, weights, laid_out):
    """Block of each distinct reference weight that the layout holds, found
    through its code.  The layout holds exactly the weights for which
    laid_out is true, numbered 0 .. len(layout.orbit) - 1."""
    codes = {w: _code(w, layout.radix) for w in set(weights)}
    block_of = {w: layout.ids[code] for w, code in codes.items() if code in layout.ids}
    assert set(block_of) == {w for w in codes if laid_out(w)}
    assert len(layout.ids) == len(layout.orbit)
    assert sorted(block_of.values()) == list(range(len(layout.orbit)))
    return block_of


def _symmetry_groups(hc):
    """Weight digit positions that a symmetry permutes among themselves:
    the coefficient blocks of each atom count, then the v's."""
    sizes = [mask.bit_count() for mask in hc.blocks]
    groups = [[b for b in range(hc.nj) if sizes[b] == size] for size in set(sizes)]
    return groups + [list(range(hc.nj, hc.nj + hc.m))]


def _sorted_within(weight, groups):
    """The weight with its digits sorted within each group: the
    representative of its orbit."""
    out = list(weight)
    for group in groups:
        for p, x in zip(group, sorted(weight[p] for p in group)):
            out[p] = x
    return tuple(out)


def _complexes(m, n, blocks, s):
    """The bar complex twice with its laid-out weights: as built, which lays
    out one representative per orbit, and with every block laid out as its
    own orbit of size 1."""
    bar, every = _bar_complex(m, n, blocks, s), _bar_complex(m, n, blocks, s)
    every._orbit = lambda code, radix: 1
    groups = _symmetry_groups(bar.hc)
    return [(bar, lambda w: _sorted_within(w, groups) == w), (every, lambda w: True)]


# the four exceptional fixtures of the acceptance suite, coarser subrings
# with and without v's, two v-only algebras (no atoms), and a weight-0 cell,
# the only one here whose pieces change when the last-factor term is dropped
BAR_CELLS = [
    (0, 3, None, 2, -1),
    (0, 3, None, 3, -2),
    (1, 3, None, 2, -1),
    (1, 3, None, 3, -2),
    (0, 3, ((0, 1), (2,)), 2, -1),
    (1, 3, ((0, 1), (2,)), 2, -1),
    (2, 0, None, 2, -1),
    (1, 0, None, 2, -2),
    (1, 2, None, 1, 0),
]


# more term tables for the exact row order: (2, 2, None, 3, -1) and
# (1, 2, None, 4, -2) lay out merges along the leading and along the
# trailing index, each over more than one stripe; also two v's beside a
# coarser subring and beside one atom, one block of three atoms, and v-free
# words of four factors
ROW_ORDER_CELLS = [
    (2, 2, None, 3, -1),
    (2, 3, ((0, 1), (2,)), 2, -1),
    (1, 2, None, 4, -2),
    (0, 2, None, 3, -1),
    (2, 1, None, 2, 0),
    (1, 3, ((0, 1, 2),), 3, -1),
]


def _bar_complex(m, n, blocks, s):
    ring = BooleanRing(n) if n else None
    subring = None
    if blocks is not None:
        subring = Subring(ring, [sum(ring.atom(a) for a in b) for b in blocks])
    return _BarComplex(HochschildComplex(ConnectedSumAlgebra(m, ring), subring), s)


def _reference_tensor_counts(bar, q, e):
    """Word counts by the recurrence on the first factor's degree, tabulated
    for every factor count <= q and degree <= e."""
    counts = {(0, 0): 1}
    for p in range(1, q + 1):
        for d in range(e + 1):
            terms = (bar.q_dim(i) * counts.get((p - 1, d - i), 0) for i in range(1, d + 1))
            counts[(p, d)] = sum(terms)
    return counts


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_tensor_counts_and_word_runs_match_the_recurrence(m, n):
    ring = BooleanRing(n) if n else None
    subrings = [None] + ([Subring.trivial(ring), Subring(ring, [ring.one ^ 1, 1])] if n > 1 else [])
    for subring in subrings:
        bar = _BarComplex(HochschildComplex(ConnectedSumAlgebra(m, ring), subring), 0)
        counts = _reference_tensor_counts(bar, 8, 12)
        for q in range(9):
            for e in range(13):
                assert bar.tensor_count(q, e) == counts.get((q, e), 0), (q, e)
                # the runs tile the words in lexicographic order of their
                # compositions, whichever complex built the shorter runs
                runs = bar._shapes(q, e)
                fresh = _BarComplex(bar.hc, 0)._shapes(q, e)
                assert list(runs.items()) == list(fresh.items())
                assert list(runs) == sorted(runs)
                start = 0
                for comp, (first, radices) in runs.items():
                    assert len(comp) == q and sum(comp) == e and first == start
                    assert radices == tuple(map(bar.q_dim, comp)) and all(radices)
                    start += prod(radices)
                assert start == counts.get((q, e), 0)


def _expected_rows(bar, q, e, layout, weights, block_of):
    """(block, row) of each explicit row of output degree e whose support
    lies in a laid-out block, packed on the block's local columns, in the
    reference's order: word order, then output coordinate."""
    expected = []
    for entries in _reference_bar_rows(bar, q, e):
        support = [c for c in set(entries) if entries.count(c) % 2]
        if support and weights[support[0]] in block_of:
            b = block_of[weights[support[0]]]
            expected.append((b, sum(1 << layout.local[c] for c in support)))
    return expected


@pytest.mark.parametrize("m, n, blocks, k, s", BAR_CELLS + ROW_ORDER_CELLS)
def test_bar_word_positions_match_the_explicit_words(m, n, blocks, k, s):
    # whole rows, outer action terms included, so the positions of each
    # word's truncations and merges and the words passed over are all checked,
    # on the representative blocks and on every block
    top = 5
    for bar, laid_out in _complexes(m, n, blocks, s):
        for q in range(k - 1, k + 1):
            layout = bar._layout(q, top)
            weights = _reference_weights(bar, q, top)
            block_of = _weight_blocks(layout, weights, laid_out)
            for e in range(top + 1):
                expected = _expected_rows(bar, q, e, layout, weights, block_of)
                assert list(bar._rows(q, e, layout)) == expected, (q, e)


@pytest.mark.parametrize("m, n, blocks, k, s", BAR_CELLS)
def test_every_bar_row_lies_in_one_weight_block(m, n, blocks, k, s):
    top = 5
    for bar, laid_out in _complexes(m, n, blocks, s):
        for q in range(max(k - 1, 0), k + 1):
            weights = _reference_weights(bar, q, top)
            layout = bar._layout(q, top)
            # the layout's blocks are exactly the laid-out weights, and the
            # local index of one of their columns counts the earlier columns
            # of its weight; any other column has none
            block_of = _weight_blocks(layout, weights, laid_out)
            by_block = sorted(block_of.items(), key=lambda item: item[1])
            assert len(layout.local) == len(weights) == bar.cochain_dim(q, top)
            seen = Counter()
            for w, i in zip(weights, layout.local):
                assert i == (seen[w] if w in block_of else -1)
                seen[w] += 1
            assert list(layout.sizes) == [seen[w] for w, _ in by_block]
            for d in range(top + 2):
                below = Counter(weights[: bar.cochain_dim(q, d - 1)])
                assert list(layout.starts[d]) == [below[w] for w, _ in by_block]
            # every row keeps the weight, so its support lies in one block,
            # and the full rank is the sum of the block ranks, each counted
            # once per block of its orbit
            packed = []
            for e in range(top + 1):
                for entries in _reference_bar_rows(bar, q, e):
                    support = {c for c in entries if entries.count(c) % 2}
                    assert len({weights[c] for c in support}) <= 1, (q, e, support)
                    packed.append(sum(1 << c for c in support))
            ranks = bar._block_ranks(q, top)[0]
            assert sum(map(prod, zip(layout.orbit, ranks))) == echelon_rank(packed)


@pytest.mark.parametrize("m, n, blocks, k, s", BAR_CELLS + ROW_ORDER_CELLS)
def test_bar_filtration_matches_the_per_floor_reference(m, n, blocks, k, s):
    bar = _bar_complex(m, n, blocks, s)
    pieces = [bar.cohomology(k, top)[0] for top in range(7)]
    assert pieces == [_reference_graded_cohomology(bar, k, top) for top in range(7)]
    assert sum(pieces[-1]) == bar.hc.hh(k, s).cohomology


@st.composite
def _bar_cells(draw):
    """(m, n, blocks, k, s, top) with m <= 2, n <= 3, an optional coarser
    subring, k <= 3, -k-1 <= s <= 1 and top <= 4."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    blocks = None
    if n and draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups = {}
        for a, label in enumerate(labels):
            groups.setdefault(label, []).append(a)
        blocks = tuple(map(tuple, groups.values()))
    k = draw(st.integers(0, 3))
    return m, n, blocks, k, draw(st.integers(-k - 1, 1)), draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(_bar_cells())
def test_bar_rows_and_pieces_match_the_explicit_words_on_drawn_cells(cell):
    m, n, blocks, k, s, top = cell
    (bar, laid_out), _ = _complexes(m, n, blocks, s)
    for q in range(max(k - 1, 0), k + 1):
        layout = bar._layout(q, top)
        weights = _reference_weights(bar, q, top)
        block_of = _weight_blocks(layout, weights, laid_out)
        for e in range(top + 1):
            expected = _expected_rows(bar, q, e, layout, weights, block_of)
            assert list(bar._rows(q, e, layout)) == expected, (q, e)
    assert bar.cohomology(k, top)[0] == _reference_graded_cohomology(bar, k, top)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_bar_reports_past_the_last_degree_equal_the_degree_by_degree_walk(m, monkeypatch):
    cases = [(k, s, cap) for k in range(5) for s in range(-4, 2) for cap in (1, 4, 30, None)]
    hc = HochschildComplex(ConnectedSumAlgebra(m))
    bounded = [hc.bar_oracle(k, s, 12, cap) for k, s, cap in cases]
    # the bounded reports are exact where nothing was skipped (depth 12 is
    # past every last degree here), and the walk knows no last degree
    assert [r.exact for r in bounded] == [r.skipped_from is None for r in bounded]
    assert any(r.exact for r in bounded)
    monkeypatch.setattr(_BarComplex, "last_degree", lambda bar, k: None)
    hc = HochschildComplex(ConnectedSumAlgebra(m))
    walked = [hc.bar_oracle(k, s, 12, cap) for k, s, cap in cases]
    assert not any(r.exact for r in walked)
    assert [replace(r, exact=False) for r in bounded] == walked


def test_capped_bar_filtration_matches_the_per_floor_reference():
    hc = HochschildComplex(ConnectedSumAlgebra(0, BooleanRing(3)))
    rep = hc.bar_oracle(5, -4, 8, cap=8_000)
    assert rep.skipped_from == 7
    expected = _reference_graded_cohomology(_BarComplex(hc, -4), 5, 6)
    assert [f.increment for f in rep.factors] == expected == [0, 0, 0, 0, 0, 24, 0]


@pytest.mark.parametrize("m, n, blocks, k, s", BAR_CELLS)
def test_capped_bar_filtration_matches_the_per_floor_reference_on_every_cell(m, n, blocks, k, s):
    bar = _bar_complex(m, n, blocks, s)
    # the cap admits the last degree through 5 after which the workload grows
    top = max(d for d in range(6) if bar.workload(k, d + 1) > bar.workload(k, d))
    rep = bar.hc.bar_oracle(k, s, 8, cap=bar.workload(k, top))
    assert rep.skipped_from == top + 1
    expected = _reference_graded_cohomology(_bar_complex(m, n, blocks, s), k, top)
    assert [f.increment for f in rep.factors] == expected


@pytest.mark.parametrize("m, n, blocks, k, s", BAR_CELLS)
def test_bar_filtration_over_every_block_equals_the_nonzero_blocks(m, n, blocks, k, s, monkeypatch):
    shortcut, every = _bar_complex(m, n, blocks, s), _bar_complex(m, n, blocks, s)

    block_ranks = every._block_ranks

    def no_ranks(q, top):
        ranks, buckets, ends = block_ranks(q, top)
        return array("i", [0] * len(ranks)), buckets, ends

    # with every rank read as 0 every block counts as nonzero, so the
    # filtration is read from every block, zero ones included
    monkeypatch.setattr(every, "_block_ranks", no_ranks)
    for top in range(7):
        pieces, matrices = shortcut.cohomology(k, top)
        everywhere = every.cohomology(k, top)
        assert pieces == everywhere[0]
        assert all(m.nonzero == m.blocks for m in everywhere[1][-1:])
        # a second call on the same complex assembles and ranks afresh
        assert (pieces, matrices) == shortcut.cohomology(k, top)
    # with atoms the shortcut leaves blocks out; on the two v-only cells
    # every block of C^k carries cohomology
    assert (matrices[-1].nonzero < matrices[-1].blocks) == (n > 0)


# BAR_CELLS has v_dim 0, 1 and 2 and the unequal blocks x1+x2, x3 (never
# swapped); here two equal blocks that are swapped, and v's beside atoms
ORBIT_CELLS = BAR_CELLS + [
    (0, 4, ((0, 1), (2, 3)), 2, -1),
    (1, 4, ((0, 1), (2, 3)), 3, -2),
    (2, 2, None, 3, -2),
]


def _reference_orbit(weight, groups):
    """Every weight obtained from weight by permuting its digits within each group."""
    images = {tuple(weight)}
    for group in groups:
        moved = set()
        for w in images:
            for perm in permutations(group):
                image = list(w)
                for p, source in zip(group, perm):
                    image[p] = w[source]
                moved.add(tuple(image))
        images = moved
    return images


@pytest.mark.parametrize("m, n, blocks, k, s", ORBIT_CELLS)
def test_bar_orbits_are_the_weight_permutations(m, n, blocks, k, s):
    (bar, canonical), (every, _) = _complexes(m, n, blocks, s)
    groups = _symmetry_groups(bar.hc)
    top = 5
    for q in range(max(k - 1, 0), k + 2):
        weights = _reference_weights(bar, q, top)
        layout, full = bar._layout(q, top), every._layout(q, top)
        block_of = _weight_blocks(layout, weights, canonical)
        every_block = _weight_blocks(full, weights, lambda w: True)
        for w in set(weights):
            orbit = _reference_orbit(w, groups)
            # one laid-out block per orbit, counting the orbit's blocks
            (rep,) = orbit & set(block_of)
            assert layout.orbit[block_of[rep]] == len(orbit)
            # the blocks of an orbit have equal sizes and equal degree
            # floors, those of the representative
            floors = {tuple(st[every_block[image]] for st in full.starts) for image in orbit}
            assert floors == {tuple(st[block_of[rep]] for st in layout.starts)}
        if blocks == ((0, 1), (2,)) and m < 2:
            assert list(layout.orbit) == [1] * len(every_block)


@pytest.mark.parametrize("m, n, blocks, k, s", ORBIT_CELLS)
def test_bar_orbit_sums_equal_the_elimination_of_every_block(m, n, blocks, k, s, monkeypatch):
    orbits, every = _bar_complex(m, n, blocks, s), _bar_complex(m, n, blocks, s)
    # each block its own orbit: every block is assembled and eliminated
    monkeypatch.setattr(every, "_orbit", lambda code, radix: 1)
    groups = _symmetry_groups(orbits.hc)
    for top in range(7):
        for q in range(max(k - 1, 0), k + 1):
            full, layout = every._layout(q, top), orbits._layout(q, top)
            assert list(full.orbit) == [1] * len(full.ids)
            # each block has the rank of its orbit's representative
            ranks, reps = every._block_ranks(q, top)[0], orbits._block_ranks(q, top)[0]
            for w in set(_reference_weights(every, q, top)):
                rep = _sorted_within(w, groups)
                assert ranks[full.ids[_code(w, full.radix)]] == reps[layout.ids[_code(rep, layout.radix)]]
        pieces, matrices = orbits.cohomology(k, top)
        everywhere = every.cohomology(k, top)
        assert pieces == everywhere[0]
        assert [replace(x, eliminated=0) for x in matrices] == [
            replace(x, eliminated=0) for x in everywhere[1]
        ]
        assert all(x.eliminated == x.blocks for x in everywhere[1])
    # blocks are left out exactly where two generators are interchangeable
    swapped = any(len(group) > 1 for group in orbits._groups)
    assert (matrices[-1].eliminated < matrices[-1].blocks) == swapped


def test_bar_oracle_reports_the_block_shape_of_each_matrix(monkeypatch):
    assembled = []
    block_ranks = _BarComplex._block_ranks

    def counted(bar, q, top):
        assembled.append(q)
        return block_ranks(bar, q, top)

    monkeypatch.setattr(_BarComplex, "_block_ranks", counted)
    hc = HochschildComplex(ConnectedSumAlgebra(1, BooleanRing(3)))
    rep = hc.bar_oracle(2, -1, 6)
    # a nonzero cell assembles and ranks each of its two matrices once
    assert assembled == [2, 1]
    # and so does the same cell again: nothing is kept between cells
    assert hc.bar_oracle(2, -1, 6) == rep and assembled == [2, 1, 2, 1]
    assembled.clear()
    # counted on a complex that lays out every block as its own orbit
    every = _BarComplex(hc, -1)
    monkeypatch.setattr(every, "_orbit", lambda code, radix: 1)
    assert [m.q for m in rep.matrices] == [1, 2]
    for m in rep.matrices:
        layout = every._layout(m.q, 6)
        assert (m.columns, m.blocks, m.widest) == (
            every.cochain_dim(m.q, 6), len(layout.ids), max(layout.sizes)
        )
    # the blocks read again are those whose size exceeds the rank of the
    # coboundary out of them plus that into the block of their weight
    ranks = every._block_ranks(1, 6)[0]
    into = {w: ranks[b] for w, b in every._layout(1, 6).ids.items()}
    layout, ranks = every._layout(2, 6), every._block_ranks(2, 6)[0]
    hot = [w for w, b in layout.ids.items() if layout.sizes[b] - ranks[b] - into.get(w, 0)]
    assert rep.matrices[1].nonzero == len(hot) > 0
    assert rep.matrices[0].nonzero == sum(w in into for w in hot)
    assembled.clear()
    zero_cell = HochschildComplex(ConnectedSumAlgebra(0, BooleanRing(3))).bar_oracle(3, -1, 6)
    assert zero_cell.matrices[1].nonzero == 0 and assembled == [3, 2]
    # k = 0: one matrix, no block below
    assembled.clear()
    rep = hc.bar_oracle(0, 1, 6)
    every = _BarComplex(hc, 1)
    monkeypatch.setattr(every, "_orbit", lambda code, radix: 1)
    layout = every._layout(0, 6)
    assert [(m.q, m.columns, m.blocks) for m in rep.matrices] == [
        (0, len(layout.local), len(layout.ids))
    ]
    assert assembled == [0]
    # no 3-cochain has argument degree below 3, so the truncation at 2 is empty
    rep = hc.bar_oracle(3, -1, 2)
    assert rep.matrices == () and rep.skipped_from is None
    assert [f.increment for f in rep.factors] == [0, 0, 0]


def test_bar_complex_is_freed_with_its_hochschild_complex():
    hc = HochschildComplex(ConnectedSumAlgebra(1, BooleanRing(3)))
    assert hc.bar_oracle(2, -1, 5).total == 18
    ref = weakref.ref(hc._bar_cache[-1])
    del hc
    gc.collect()
    assert ref() is None


def test_admissible_enumeration_respects_global_cap():
    alg = ConnectedSumAlgebra(2, BooleanRing(3))
    with pytest.raises(CapExceeded):
        HochschildComplex(alg, cap=50).hh(5, -3)
