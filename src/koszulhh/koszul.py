"""Koszul complex machinery for connected-sum algebras.

The degree-k piece of the Koszul complex of a quadratic algebra sits inside
the k-fold tensor power of the degree-1 part as the intersection of all
shifted copies of the relation space.  For a connected sum the relation
space is spanned by products of basis generators that vanish, so the
intersection has a combinatorial basis: sequences of generators with no two
equal adjacent atoms ("admissible sequences").  This module provides

* the admissible-sequence enumeration and its counting recurrence; the
  enumeration is kept as arrays of each sequence's ends and truncation
  positions, the one place that knows the lex order of the sequences,
* a generic linear-algebra construction of the same space, kept as an
  independent test oracle,
* a degreewise Koszulity verifier for the two-sided complex alg (x) K (x) alg,
  whose strand differentials are stored as column pairs (each basis element
  has at most two terms in its image) and ranked by gf2.sparse_rank, with
  products read from algebra.action, inverted once per generator.  A strand
  visits only the degrees where the algebra is nonzero and is built by
  columns, one pass over the sequences per block and left basis element;
  d∘d = 0 is checked over whole arrays, and the rows are walked one by one
  only when that check fails.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import ne
from typing import NamedTuple

from .algebra import ConnectedSumAlgebra, action
from .caps import check_cap
from .gf2 import BitMatrix, EchelonBasis, index_code, sparse_rank


def count_admissible(m: int, n: int, k: int) -> int:
    """Number of admissible length-k sequences over m free and n atom generators.

    A sequence is admissible when no two adjacent entries are the same atom
    generator.  Counted by splitting on the last entry: u ends free, w ends
    in an atom, and one more entry maps (u, w) to (m (u + w), n u + (n - 1) w).
    That step is applied k - 1 times to (m, n) by repeated squaring, so a
    deep k costs a few multiplications.
    """
    if k < 0:
        raise ValueError("negative length")
    if k == 0:
        return 1
    u, w = m, n
    a, b, c, d = m, m, n, n - 1
    steps = k - 1
    while steps:
        if steps & 1:
            u, w = a * u + b * w, c * u + d * w
        a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
        steps >>= 1
    return u + w


class SequenceLinks(NamedTuple):
    """Per admissible sequence u, in lex order: u[0], u[-1], pos(u[1:]), pos(u[:-1]).

    Positions index the sequences one entry shorter.  The one sequence of
    length 0 has no ends and no truncations; its four entries are -1.  Each
    array takes the ``index_code`` of what it holds: ``first`` and ``last``
    hold generator indices, one byte each below 128 generators, and the
    positions four bytes from 128 sequences, so a sequence costs 10 bytes.
    """

    first: array
    last: array
    suffix: array
    prefix: array


# the last 128 levels built, oldest first
_levels: dict[tuple[int, int, int], SequenceLinks] = {}


def sequence_links(m: int, n: int, k: int) -> SequenceLinks:
    """The admissible length-k sequences over m free and n atom generators.

    Entries are generator indices: 0..m-1 free, m..m+n-1 atoms.  Level k
    extends level k-1: the children of a parent p are p + (g,) for every
    generator g in increasing order except the atom p ends in, which gives
    lex order and u[:-1] = p.  For k > 2, u[1:] is the child of p[1:] with
    the same g; p[1:] ends where p ends, so it skips the same generator and
    that child has the same rank among its siblings.

    A missing level is built bottom-up in a loop from the highest level
    whose two levels below are kept, so a deep first call does not recurse.

    >>> links = sequence_links(0, 2, 3)  # (0, 1, 0), (1, 0, 1)
    >>> [list(a) for a in links]
    [[0, 1], [0, 1], [1, 0], [0, 1]]
    """
    links = _levels.get((m, n, k))
    if links is not None:
        return links
    if k < 0:
        raise ValueError("negative length")
    low = k
    while low > 0 and not all((m, n, j) in _levels for j in range(max(low - 2, 0), low)):
        low -= 1
    for j in range(low, k + 1):
        links = _level(m, n, j)
        _levels[(m, n, j)] = links
        if len(_levels) > 128:
            del _levels[next(iter(_levels))]
    return links


def _level(m: int, n: int, k: int) -> SequenceLinks:
    """Level k of sequence_links, built from the kept levels k-1 and k-2."""
    code, gen_code = index_code(count_admissible(m, n, k)), index_code(m + n)
    if k == 0:
        return SequenceLinks(*(array(code, [-1]) for _ in range(4)))
    gens = range(m + n)
    if k == 1:
        zeros = array(code, [0]) * len(gens)
        return SequenceLinks(array(gen_code, gens), array(gen_code, gens), zeros, array(code, zeros))
    up = sequence_links(m, n, k - 1)
    after = [[h for h in gens if h != g or g < m] for g in gens]
    if k > 2:
        start = _child_starts(m, n, k - 2)
    first, last, suffix, prefix = array(gen_code), array(gen_code), array(code), array(code)
    for p, (g0, g1, r) in enumerate(zip(up.first, up.last, up.suffix)):
        kids = after[g1]
        first.extend(repeat(g0, len(kids)))
        last.extend(kids)
        suffix.extend(kids if k == 2 else range(start[r], start[r] + len(kids)))
        prefix.extend(repeat(p, len(kids)))
    return SequenceLinks(first, last, suffix, prefix)


@lru_cache(maxsize=128)
def _child_starts(m: int, n: int, j: int) -> array:
    """Position among the length-(j+1) sequences of each length-j sequence's first child."""
    sizes = (m + n - (g >= m) for g in sequence_links(m, n, j).last)
    return array(index_code(count_admissible(m, n, j + 1) + 1), accumulate(sizes, initial=0))


def child_positions(m: int, n: int, j: int, parents, gens) -> list[int]:
    """Position of p + (g,) among the length-(j+1) sequences, per length-j
    position p in parents and generator g in gens; -1 where p or g is -1 or
    where g is the atom p ends in.

    The children of p are contiguous and skip only the atom p ends in, so g
    is their rank after that atom.

    >>> child_positions(0, 3, 1, [1, 1, 1, -1], [0, 1, 2, 0])  # (1, 0), -, (1, 2), -
    [2, -1, 3, -1]
    """
    last, start = sequence_links(m, n, j).last, _child_starts(m, n, j)
    return [
        -1 if p < 0 or g < 0 or (h := last[p]) == g >= m else start[p] + g - (m <= h < g)
        for p, g in zip(parents, gens)
    ]


def capped_count(m: int, n: int, k: int, cap: int | None = None) -> int:
    """count_admissible, raising CapExceeded above cap (caps.DEFAULT_CAP when None)."""
    return check_cap("admissible sequence enumeration", count_admissible(m, n, k), cap)


@lru_cache(maxsize=128)
def admissible_tuples(m: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The sequences of sequence_links(m, n, k) as tuples, in the same order."""
    seqs: tuple[tuple[int, ...], ...] = ((),)
    for j in range(1, k + 1):
        links = sequence_links(m, n, j)
        seqs = tuple(seqs[p] + (g,) for p, g in zip(links.prefix, links.last))
    return seqs


def admissible_sequences(
    alg: ConnectedSumAlgebra, k: int, cap: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Ordered admissible-sequence basis of the degree-k Koszul piece."""
    if k < 0:
        raise ValueError("negative length")
    capped_count(alg.v_dim, alg.atom_count, k, cap)
    return admissible_tuples(alg.v_dim, alg.atom_count, k)


def _multiplication_matrix(alg: ConnectedSumAlgebra) -> BitMatrix:
    """Degree-1 square multiplication map, pair columns in mixed radix g*G + h."""
    g_count = alg.gen_count
    dim2 = alg.graded_dim(2)
    rows = [0] * dim2
    for g in range(g_count):
        for h in range(g_count):
            prod = alg.atom_part(alg.generator(g)) & alg.atom_part(alg.generator(h))
            col = g * g_count + h
            for r in range(dim2):
                if (prod >> r) & 1:
                    rows[r] |= 1 << col
    return BitMatrix(rows, g_count * g_count)


def koszul_space_generic(
    alg: ConnectedSumAlgebra, k: int, cap: int | None = None
) -> tuple[int, list[int]]:
    """Dimension and basis of the degree-k Koszul piece, by direct intersection.

    Computes the relation space as the kernel of the degree-1 multiplication
    matrix, then intersects its k-1 shifted copies inside the k-fold tensor
    power.  Exponential in k; retained as an oracle for the admissible basis.
    """
    if k < 0:
        raise ValueError("negative length")
    g_count = alg.gen_count
    total = check_cap("tensor power enumeration", g_count**k, cap)
    if k == 0:
        return 1, [1]
    if k == 1:
        return g_count, [1 << i for i in range(g_count)]
    mult = _multiplication_matrix(alg)
    dim2 = alg.graded_dim(2)
    stacked = []
    for i in range(k - 1):
        left, right = g_count**i, g_count ** (k - 2 - i)
        for p in range(left):
            base = p * g_count * g_count
            for r in range(dim2):
                src = mult.rows[r]
                for s in range(right):
                    row = 0
                    c = src
                    while c:
                        low = c & -c
                        pair = low.bit_length() - 1
                        row |= 1 << ((base + pair) * right + s)
                        c ^= low
                    stacked.append(row)
    basis = BitMatrix(stacked, total).kernel_basis()
    return len(basis), basis


def sequence_tensor_index(seq: tuple[int, ...], g_count: int) -> int:
    """Mixed-radix column index of a basis tensor, first entry most significant."""
    idx = 0
    for g in seq:
        idx = idx * g_count + g
    return idx


def admissible_in_generic_span(alg: ConnectedSumAlgebra, k: int, cap: int | None = None) -> bool:
    """Oracle cross-check: equal dimensions and membership of every basis tensor."""
    dim, basis = koszul_space_generic(alg, k, cap)
    seqs = admissible_sequences(alg, k, cap)
    if dim != len(seqs):
        return False
    if k == 0 or not seqs:
        return True
    # one echelon basis of the span; membership is then reduction to zero
    span = EchelonBasis()
    span.extend(basis)
    g_count = alg.gen_count
    return all(span.reduce(1 << sequence_tensor_index(t, g_count)) == 0 for t in seqs)


@dataclass(frozen=True)
class KoszulReport:
    """Outcome of the degreewise Koszulity check."""

    v_dim: int
    atoms: int
    max_internal_degree: int
    passed: bool
    # (internal degree, homological position, homology dim); a d∘d failure from
    # position i is (internal degree, -i, uncancelled terms)
    failures: tuple
    components_checked: int


def _product_table(alg: ConnectedSumAlgebra, top: int) -> list[list[list[int]]]:
    """mul[p][a][g]: the basis index of (basis element a of alg_p) * (generator g)
    in alg_(p+1), or -1 when that product is zero, for p < top; each column
    inverts action(alg, generator g, p)."""
    gens = alg.gen_count
    mul = [[[-1] * gens for _ in range(alg.graded_dim(p))] for p in range(top)]
    for p, rows in enumerate(mul):
        for g in range(gens):
            for r, a in enumerate(action(alg, alg.generator(g), p)):
                if a >= 0:
                    rows[a][g] = r
    return mul


def _strand(dims: list[int], d: int, links: list[SequenceLinks], mul):
    """Position sizes of the internal-degree-d strand, and its differentials.

    dims[j] is dim alg_j for j <= d + 1.  Position i is the sum of the
    nonzero blocks alg_p (x) K_i (x) alg_q, q = d - i - p, laid out by
    ascending p; the flat index within a block is (a * |K_i| + t) * dim alg_q
    + b.  Only the degrees p with alg_p nonzero are visited, so an algebra
    with no atoms costs O(d) per strand.  The differentials from i = 1..d to
    i - 1 come lazily as column pairs: per basis element of position i, in
    flat order, the flat index of (a * u[0]) (x) u[1:] (x) b, then that of
    a (x) u[:-1] (x) (u[-1] * b), -1 for a zero product.  The two lie in the
    blocks p + 1 and p, so they never cancel.  They are built by columns:
    for one block and left basis element a, one pass over the sequences
    gives every u's images, which fill the rows b, b + dim alg_q, ... of
    that stretch for each right basis element b.
    """
    degrees = [p for p in range(d + 1) if dims[p]]
    offsets, sizes = [], []
    for i in range(d + 1):
        count, block_at, pos = len(links[i].first), {}, 0
        for p in degrees if count else ():
            q = d - i - p
            if q < 0:
                break
            if dims[q]:
                block_at[p] = pos
                pos += dims[p] * count * dims[q]
        offsets.append(block_at)
        sizes.append(pos)

    def differential(i: int) -> tuple[array, array]:
        below, width, code = offsets[i - 1], len(links[i - 1].first), index_code(sizes[i - 1])
        heads, tails, suffix, prefix = links[i]
        first, second = array(code, [-1]) * sizes[i], array(code, [-1]) * sizes[i]
        for p, start in offsets[i].items():
            q = d - i - p
            dim_q, dim_r = dims[q], dims[q + 1]
            up, here, stride = below.get(p + 1, 0), below.get(p, 0), len(heads) * dim_q
            for a, left in enumerate(mul[p]):
                # per sequence u: the row that (a * u[0]) (x) u[1:] (x) b takes
                # for b = 0 (-1: none), and where a (x) u[:-1] (x) alg_(q+1) starts
                ups = [
                    up + (x * width + r) * dim_q if (x := left[g]) >= 0 else -1
                    for g, r in zip(heads, suffix)
                ]
                heres = [here + (a * width + l) * dim_r for l in prefix]
                for b, right in enumerate(mul[q]):
                    rows = slice(start + b, start + stride, dim_q)
                    first[rows] = array(code, [c + b if c >= 0 else -1 for c in ups])
                    second[rows] = array(
                        code, [c + y if (y := right[g]) >= 0 else -1 for c, g in zip(heres, tails)]
                    )
                start += stride
        return first, second

    return sizes, map(differential, range(1, d + 1))


def _squares_to_zero(first: array, second: array, low_first: array, low_second: array) -> bool:
    """Does every row of the pair differential (first, second) map to zero
    under (low_first, low_second), whose arrays end in a -1 for index -1?

    The image of a basis element in block p has one entry in block p + 1 and
    one in p; two steps down, (a * u[0] * u[1]) (x) u[2:] (x) b lies alone in
    block p + 2 and a (x) u[:-2] (x) (u[-2] * u[-1] * b) alone in block p, so
    both must be absent, and the two terms in block p + 1 must be equal.
    """
    return (
        max(map(low_first.__getitem__, first), default=-1) < 0
        and max(map(low_second.__getitem__, second), default=-1) < 0
        and not any(map(ne, map(low_second.__getitem__, first), map(low_first.__getitem__, second)))
    )


def verify_koszul(
    alg: ConnectedSumAlgebra, max_internal_degree: int, cap: int | None = None
) -> KoszulReport:
    """Check exactness of the two-sided Koszul complex degree by degree.

    For each internal degree d <= D the strand ... -> alg (x) K_i (x) alg -> ...
    (restricted to total degree d) must have zero homology at every position
    i > 0 and homology of dimension dim alg_d at i = 0.  The differential
    multiplies the first Koszul entry into the left factor and the last into
    the right factor; both images are again admissible.  Products come from
    one table, read from algebra.action.
    """
    if max_internal_degree < 1:
        raise ValueError("need at least one internal degree")
    m, n = alg.v_dim, alg.atom_count
    capped_count(m, n, max_internal_degree, cap)
    links = [sequence_links(m, n, i) for i in range(max_internal_degree + 1)]
    mul = _product_table(alg, max_internal_degree)
    dims = [alg.graded_dim(j) for j in range(max_internal_degree + 2)]
    failures: list[tuple[int, int, int]] = []
    checked = 0

    for d in range(1, max_internal_degree + 1):
        sizes, differentials = _strand(dims, d, links, mul)
        ranks = [0] * (d + 2)
        below = None
        for i, (first, second) in enumerate(differentials, 1):
            ranks[i] = sparse_rank(first, second, sizes[i - 1])
            checked += 1
            if below is not None and not _squares_to_zero(first, second, *below):
                # the rows one by one, for the failure counts: the four entries
                # two steps down must cancel in pairs, and no value occurs
                # more than twice
                low_first, low_second = below
                for e1, e2 in zip(first, second):
                    quad = (
                        *((low_first[e1], low_second[e1]) if e1 >= 0 else ()),
                        *((low_first[e2], low_second[e2]) if e2 >= 0 else ()),
                    )
                    left = sum(1 for c in quad if c >= 0 and quad.count(c) == 1)
                    if left:
                        failures.append((d, -i, left))
            # a trailing -1 makes an absent entry read as absent two steps down
            first.append(-1)
            second.append(-1)
            below = first, second

        for i in range(d + 1):
            h = sizes[i] - ranks[i] - ranks[i + 1]
            expected = dims[d] if i == 0 else 0
            if h != expected:
                failures.append((d, i, h))

    return KoszulReport(m, n, max_internal_degree, not failures, tuple(failures), checked)
