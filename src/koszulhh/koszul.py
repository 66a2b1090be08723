"""Koszul complex machinery for connected-sum algebras.

The degree-k piece of the Koszul complex of a quadratic algebra sits inside
the k-fold tensor power of the degree-1 part as the intersection of all
shifted copies of the relation space.  For a connected sum the relation
space is spanned by products of basis generators that vanish, so the
intersection has a combinatorial basis: sequences of generators with no two
equal adjacent atoms ("admissible sequences").  This module provides

* the admissible-sequence enumeration and its counting recurrence,
* a generic linear-algebra construction of the same space, kept as an
  independent test oracle,
* a degreewise Koszulity verifier for the two-sided complex alg (x) K (x) alg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import ConnectedSumAlgebra
from .caps import default_cap
from .errors import CapExceeded
from .gf2 import BitMatrix, BitVector, EchelonBasis, sparse_rank


def count_admissible(m: int, n: int, k: int) -> int:
    """Number of admissible length-k sequences over m free and n atom generators.

    A sequence is admissible when no two adjacent entries are the same atom
    generator.  Counted by splitting on the last entry: u ends free, w ends
    in an atom.
    """
    if k < 0:
        raise ValueError("negative length")
    if k == 0:
        return 1
    u, w = m, n
    for _ in range(k - 1):
        u, w = m * (u + w), n * u + (n - 1) * w
    return u + w


def is_admissible(seq: tuple[int, ...], m: int) -> bool:
    """Entries >= m are atom-tagged; equal adjacent atoms are forbidden."""
    return all(not (a == b and a >= m) for a, b in zip(seq, seq[1:]))


@lru_cache(maxsize=128)
def admissible_tuples(m: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All admissible sequences of length k, lexicographically ordered.

    Entries are generator indices: 0..m-1 free, m..m+n-1 atoms.  Built by
    extending prefixes in increasing generator order, which yields lex order
    directly.
    """
    if k == 0:
        return ((),)
    gens = range(m + n)
    out = [(g,) for g in gens]
    for _ in range(k - 1):
        nxt = []
        for seq in out:
            last = seq[-1]
            for g in gens:
                if g == last and g >= m:
                    continue
                nxt.append(seq + (g,))
        out = nxt
    return tuple(out)


@dataclass(frozen=True)
class KoszulBasis:
    """Ordered admissible-sequence basis of the degree-k Koszul piece."""

    algebra: ConnectedSumAlgebra
    k: int
    sequences: tuple[tuple[int, ...], ...]
    index: dict = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def position(self, seq: tuple[int, ...]) -> int:
        return self.index[seq]


def admissible_sequences(alg: ConnectedSumAlgebra, k: int, cap: int | None = None) -> KoszulBasis:
    if k < 0:
        raise ValueError("negative length")
    m, n = alg.v_dim, alg.atom_count
    cap = default_cap() if cap is None else cap
    needed = count_admissible(m, n, k)
    if needed > cap:
        raise CapExceeded("admissible sequence enumeration", needed, cap)
    seqs = admissible_tuples(m, n, k)
    return KoszulBasis(alg, k, seqs, {t: i for i, t in enumerate(seqs)})


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
) -> tuple[int, list[BitVector]]:
    """Dimension and basis of the degree-k Koszul piece, by direct intersection.

    Computes the relation space as the kernel of the degree-1 multiplication
    matrix, then intersects its k-1 shifted copies inside the k-fold tensor
    power.  Exponential in k; retained as an oracle for the admissible basis.
    """
    if k < 0:
        raise ValueError("negative length")
    g_count = alg.gen_count
    cap = default_cap() if cap is None else cap
    if g_count**k > cap:
        raise CapExceeded("tensor power enumeration", g_count**k, cap)
    if k == 0:
        return 1, [BitVector(1, 1)]
    if k == 1:
        return g_count, [BitVector(g_count, 1 << i) for i in range(g_count)]
    mult = _multiplication_matrix(alg)
    dim2 = alg.graded_dim(2)
    total = g_count**k
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
    span.extend(v.bits for v in basis)
    g_count = alg.gen_count
    return all(span.reduce(1 << sequence_tensor_index(t, g_count)) == 0 for t in seqs)


@dataclass(frozen=True)
class KoszulReport:
    """Outcome of the degreewise Koszulity check."""

    v_dim: int
    atoms: int
    max_internal_degree: int
    passed: bool
    failures: tuple  # (internal degree, homological position, homology dim)
    components_checked: int


def _strand_layout(alg: ConnectedSumAlgebra, d: int, i: int, seqs) -> list[tuple[int, int]]:
    """(p, q) outer-degree splits with nonzero alg_p (x) K_i (x) alg_q at degree d."""
    out = []
    for p in range(d - i + 1):
        q = d - i - p
        if alg.graded_dim(p) and alg.graded_dim(q) and len(seqs):
            out.append((p, q))
    return out


def verify_koszul(
    alg: ConnectedSumAlgebra, max_internal_degree: int, cap: int | None = None
) -> KoszulReport:
    """Check exactness of the two-sided Koszul complex degree by degree.

    For each internal degree d <= D the strand ... -> alg (x) K_i (x) alg -> ...
    (restricted to total degree d) must have zero homology at every position
    i > 0 and homology of dimension dim alg_d at i = 0.  The differential
    multiplies the first Koszul entry into the left factor and the last into
    the right factor; both images are again admissible.
    """
    if max_internal_degree < 1:
        raise ValueError("need at least one internal degree")
    m, n = alg.v_dim, alg.atom_count
    failures: list[tuple[int, int, int]] = []
    checked = 0
    bases = {i: admissible_tuples(m, n, i) for i in range(max_internal_degree + 1)}
    indexes = {i: {t: j for j, t in enumerate(bases[i])} for i in bases}

    def left_mul(p: int, a_idx: int, g: int) -> int | None:
        # basis-element product alg_p x gen -> alg_{p+1}; None when zero
        if p == 0:
            return g
        mask_a = a_idx_to_mask(p, a_idx)
        mask_g = alg.atom_part(alg.generator(g))
        prod = mask_a & mask_g
        if prod == 0:
            return None
        return prod.bit_length() - 1

    def a_idx_to_mask(p: int, a_idx: int) -> int:
        # atom mask of a positive-degree basis element
        if p == 1:
            return alg.atom_part(alg.element(1, 1 << a_idx))
        return 1 << a_idx

    for d in range(1, max_internal_degree + 1):
        spaces = {}
        for i in range(d + 1):
            layout = _strand_layout(alg, d, i, bases[i])
            offsets = {}
            pos = 0
            for p, q in layout:
                offsets[(p, q)] = pos
                pos += alg.graded_dim(p) * len(bases[i]) * alg.graded_dim(q)
            spaces[i] = (layout, offsets, pos)

        def flat(i, p, q, a, t_pos, b):
            _, offsets, _ = spaces[i]
            return offsets[(p, q)] + (a * len(bases[i]) + t_pos) * alg.graded_dim(q) + b

        def image_of(i, p, q, a, t_pos, b):
            # differential of one basis element, as a set of flat output indices
            t = bases[i][t_pos]
            out = set()
            a2 = left_mul(p, a, t[0])
            if a2 is not None and alg.graded_dim(p + 1):
                rest = t[1:]
                out ^= {flat(i - 1, p + 1, q, a2, indexes[i - 1][rest], b)}
            b2 = left_mul(q, b, t[-1])
            if b2 is not None and alg.graded_dim(q + 1):
                rest = t[:-1]
                out ^= {flat(i - 1, p, q + 1, a, indexes[i - 1][rest], b2)}
            return out

        ranks = {}
        col_supports = {}
        for i in range(1, d + 1):
            layout, offsets, dim_src = spaces[i]
            cols = []
            for p, q in layout:
                for a in range(alg.graded_dim(p)):
                    for t_pos in range(len(bases[i])):
                        for b in range(alg.graded_dim(q)):
                            cols.append(image_of(i, p, q, a, t_pos, b))
            col_supports[i] = cols
            ranks[i] = sparse_rank(cols, spaces[i - 1][2])
            checked += 1

        # boundary-of-boundary: push each basis column through two steps
        for i in range(2, d + 1):
            layout, offsets, dim_src = spaces[i]
            col = 0
            for p, q in layout:
                for a in range(alg.graded_dim(p)):
                    for t_pos in range(len(bases[i])):
                        for b in range(alg.graded_dim(q)):
                            acc: set = set()
                            for flat_mid in col_supports[i][col]:
                                acc ^= _unflatten_image(
                                    alg, spaces, bases, indexes, image_of, i - 1, flat_mid
                                )
                            if acc:
                                failures.append((d, -i, len(acc)))
                            col += 1

        for i in range(d + 1):
            dim_i = spaces[i][2]
            h = dim_i - ranks.get(i, 0) - ranks.get(i + 1, 0)
            expected = alg.graded_dim(d) if i == 0 else 0
            if h != expected:
                failures.append((d, i, h))

    return KoszulReport(m, n, max_internal_degree, not failures, tuple(failures), checked)


def _unflatten_image(alg, spaces, bases, indexes, image_of, i, flat_idx):
    """Apply the strand differential to a flat basis index of position i."""
    layout, offsets, _ = spaces[i]
    for p, q in layout:
        block = alg.graded_dim(p) * len(bases[i]) * alg.graded_dim(q)
        start = offsets[(p, q)]
        if start <= flat_idx < start + block:
            rel = flat_idx - start
            b = rel % alg.graded_dim(q)
            rel //= alg.graded_dim(q)
            t_pos = rel % len(bases[i])
            a = rel // len(bases[i])
            return image_of(i, p, q, a, t_pos, b)
    raise IndexError(flat_idx)
