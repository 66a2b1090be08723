"""Bigraded Hochschild cohomology via the reduced Koszul cochain complex.

Cochains of bidegree (k, s) are maps from admissible length-k sequences to
the degree-(k+s) piece of the module algebra; the differential multiplies
the first and last sequence entries into the value.  It reads each
sequence's ends and the positions of its two truncations from the arrays of
koszul.sequence_links, so no sequence tuple is built.  Every row of the
differential touches at most two coordinates (each end contributes at most
one basis element), so it is stored as two column indices per row, and
ranks and kernels reduce to union-find on the coordinate graph; a rank
into or out of a zero module piece is 0 without any matrix.  Memory is
linear in the cochain dimension; the (v_dim, atoms) = (2, 4) grid through
k = 7 runs in about 53 MB.  Coboundaries of single cochains are computed
sequence by sequence without building the matrix.  The action of a
generator or bar tensor factor on the module is read from algebra.action,
the one table of the product, so this module does not repeat the basis
layout or the product.

The coefficient algebra may be built on a subring of the module's Boolean
ring: sequences then run over the subring's blocks, which act on the module
by their atom masks.

A reduced bar-complex oracle recomputes the same cohomology independently,
internal degree by internal degree, as a cross-check on the Koszul route.
Bar words are numbered, not stored: by degree composition, then in mixed
radix over their factor indices, so a word's truncations and merges are
arithmetic on its number, and one walk over the words of an output degree
packs its rows.  Word counts are a closed form and the composition runs are
built factor by factor in a loop, so no depth recurses or fills a table of
counts.  The coboundary preserves a multidegree weight,
so every truncated matrix splits into a few hundred weight blocks.
Permuting the v's, or coefficient blocks of equal atom count, maps blocks
onto blocks of equal rank and filtration, so only one representative block
per symmetry orbit is laid out, assembled and eliminated
(BarBlocks.eliminated counts them); it carries the size of its orbit, and
every count over blocks is a sum weighted by it.  A cell assembles each of
its matrices once, packing every row on the local columns of its block, and
eliminates each representative once, so a zero cell costs one elimination
per nonempty orbit.  The argument-degree filtration is the sum over
blocks, and a block with zero cohomology contributes nothing, so only the
representatives with nonzero cohomology get one more pass over the same
rows, counted once per block of their orbit: the highest-bit pivots of the
k-th coboundary give the rank of every column suffix, and the rank after
each output degree of the (k-1)-th gives every row prefix.  Past the last argument degree that
has cochains every piece is zero and costs nothing.  Without atoms there is
such a last degree, so a truncation through it gives the bigraded group
exactly: bar_oracle marks that report exact, and the command line fails a
mismatch with the Koszul route there.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, cycle, groupby, repeat
from math import comb, factorial, prod
from typing import Iterator

from .algebra import ConnectedSumAlgebra, GradedElement, Subring, action
from .caps import DEFAULT_BAR_CAP
from .gf2 import EchelonBasis, echelon_rank, index_code, pair_components, sparse_rank
from .koszul import SequenceLinks, capped_count, count_admissible, sequence_links


@dataclass(frozen=True)
class Cochain:
    """Bidegree-(k, s) cochain: one value bitset per admissible sequence.

    values[i] holds the coordinates of the image of sequence i in the
    canonical basis of the degree-(k+s) module piece.
    """

    k: int
    s: int
    values: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.values)

    def __xor__(self, other: "Cochain") -> "Cochain":
        if (self.k, self.s) != (other.k, other.s):
            raise ValueError("bidegree mismatch")
        return Cochain(self.k, self.s, tuple(a ^ b for a, b in zip(self.values, other.values)))

    __add__ = __xor__


@dataclass(frozen=True)
class HhReport:
    """Dimension bookkeeping for one bidegree."""

    k: int
    s: int
    cochains: int
    cocycles: int
    coboundaries: int
    cohomology: int


@dataclass(frozen=True)
class KadeishviliReport:
    """Vanishing of the obstruction bidegrees (k, 2-k) for 3 <= k <= max_k."""

    max_k: int
    passed: bool
    failures: tuple  # (k, s, cohomology dim)
    rows: tuple[HhReport, ...]  # one per k = 3 .. max_k


@dataclass(frozen=True)
class BarFactor:
    """One argument-degree graded piece of bar cohomology.

    increment is the dimension of the piece in degree exactly d; cumulative
    is the running sum over degrees <= d.
    """

    d: int
    cumulative: int
    increment: int


@dataclass(frozen=True)
class BarBlocks:
    """Weight-block shape of one eliminated matrix, the truncated q-th coboundary.

    columns counts its q-cochains, split into blocks weight blocks of at most
    widest columns each; nonzero counts the blocks whose cohomology is
    nonzero, and eliminated the representative blocks, one per symmetry
    orbit, the only ones assembled and eliminated.
    """

    q: int
    columns: int
    blocks: int
    widest: int
    nonzero: int
    eliminated: int


@dataclass(frozen=True)
class BarReport:
    k: int
    s: int
    max_internal_degree: int
    factors: tuple[BarFactor, ...]
    skipped_from: int | None  # smallest degree the cap kept out of the truncation
    matrices: tuple[BarBlocks, ...] = ()  # the eliminated matrices, ascending q
    exact: bool = False  # the truncation reached the last degree with cochains

    @property
    def total(self) -> int:
        return self.factors[-1].cumulative if self.factors else 0


@dataclass(frozen=True)
class SparseDifferential:
    """A GF(2) matrix with at most two entries per row, stored as column pairs.

    Row i has its entries at columns first[i] and second[i]; -1 marks an
    absent entry, and the two are never equal.  Storage is 8 bytes per row
    (index_code gives 4-byte indices from 128 columns), so memory is linear
    in the cochain dimension.
    """

    first: array
    second: array
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.first)


def _column_mask(cols: list[int]) -> int:
    """Bitmask with the given ascending column indices set."""
    buf = bytearray((cols[-1] >> 3) + 1)
    for c in cols:
        buf[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class HochschildComplex:
    """The reduced Koszul cochain complex of a connected sum.

    With subring=None the coefficient algebra equals the module algebra; with
    a subring, sequences run over its blocks and the blocks act through their
    atom masks.  cap bounds the admissible sequences of one piece (None:
    caps.DEFAULT_CAP).
    """

    def __init__(self, alg: ConnectedSumAlgebra, subring: Subring | None = None, cap: int | None = None):
        if subring is not None:
            if alg.ring is None:
                raise ValueError("subring given but the algebra has no Boolean part")
            if subring.ambient != alg.ring:
                raise ValueError("subring belongs to a different Boolean ring")
        self.alg = alg
        self.subring = subring
        self.cap = cap
        self.m = alg.v_dim
        ring = subring if subring is not None else alg.ring
        self.nj = ring.atom_count if ring is not None else 0
        self._rank_cache: dict = {}
        self._bar_cache: dict = {}

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """The atom mask of each coefficient block, built on first use, since
        N atoms make N masks of up to N bits."""
        if self.subring is not None:
            return self.subring.blocks
        return tuple(1 << i for i in range(self.nj))

    # -- coefficient generators ------------------------------------------

    @property
    def generator_count(self) -> int:
        return self.m + self.nj

    def generator_mask(self, g: int) -> int:
        """Boolean projection of a generator: 0 for v, the block mask for atoms."""
        return 0 if g < self.m else self.blocks[g - self.m]

    def generator_element(self, g: int) -> GradedElement:
        """Generator g as a degree-1 element of the module algebra."""
        return self.alg.from_parts(1, 1 << g if g < self.m else 0, self.generator_mask(g))

    def links(self, k: int) -> SequenceLinks:
        """sequence_links of the length-k sequences, under the cap."""
        capped_count(self.m, self.nj, k, self.cap)
        return sequence_links(self.m, self.nj, k)

    def module_dim(self, j: int) -> int:
        return self.alg.graded_dim(j)

    def cochain_dim(self, k: int, s: int) -> int:
        j = k + s
        if j < 0:
            return 0
        return count_admissible(self.m, self.nj, k) * self.module_dim(j)

    # -- differential ------------------------------------------------------

    def _action_columns(self, j: int) -> list[list[int]]:
        """Per generator, the input column of each output coordinate (-1: none).

        Generators act from module degree j to j+1, one input column per
        output coordinate at most.
        """
        return [action(self.alg, self.generator_element(g), j) for g in range(self.generator_count)]

    def differential(self, k: int, s: int) -> SparseDifferential:
        """Matrix of the coboundary from bidegree (k, s) to (k+1, s).

        Row (u, r) is coordinate r of df(u) = u[0] f(u[1:]) + f(u[:-1]) u[-1].
        Each term contributes at most one column; the two coincide only for a
        constant sequence, where they cancel and the row is empty.
        """
        dim_in, dim_out = self.module_dim(k + s), self.module_dim(k + s + 1)
        n_cols = count_admissible(self.m, self.nj, k) * dim_in
        code = index_code(n_cols)
        if dim_in == 0 or dim_out == 0:
            empty = array(code, [-1]) * (count_admissible(self.m, self.nj, k + 1) * dim_out)
            return SparseDifferential(empty, array(code, empty), n_cols)
        links = self.links(k + 1)
        cols = self._action_columns(k + s)
        absent = [-1] * dim_out
        first, second = array(code), array(code)
        for g0, g1, r, l in zip(*links):
            if r == l:
                first.extend(absent)
                second.extend(absent)
                continue
            first.extend([r * dim_in + c if c >= 0 else -1 for c in cols[g0]])
            second.extend([l * dim_in + c if c >= 0 else -1 for c in cols[g1]])
        return SparseDifferential(first, second, n_cols)

    def rank(self, k: int, s: int) -> int:
        """Rank of the coboundary out of (k, s); 0 without a differential
        when either module piece it maps between is zero."""
        j = k + s
        if not (self.module_dim(j) and self.module_dim(j + 1)):
            return 0
        key = (k, min(j, 2))
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        diff = self.differential(k, s)
        r = sparse_rank(diff.first, diff.second, diff.n_cols)
        self._rank_cache[key] = r
        return r

    def cocycle_space(self, k: int, s: int) -> list[int]:
        """Kernel basis of the coboundary as flat column bitmasks."""
        diff = self.differential(k, s)
        roots, free_roots = pair_components(diff.first, diff.second, diff.n_cols)
        members: dict[int, list[int]] = {r: [] for r in free_roots}
        for c, r in enumerate(roots):
            group = members.get(r)
            if group is not None:
                group.append(c)
        return [_column_mask(cs) for cs in members.values()]

    def check_caps(self, k: int, s: int) -> None:
        """Raise CapExceeded where hh(k, s) would, before any of its work.

        hh ranks the differentials out of (k, s) and (k-1, s), and rank
        builds one, enumerating its sequences, only between two nonzero
        module pieces.
        """
        for j in (k, k - 1) if k >= 1 else (k,):
            if self.module_dim(j + s) and self.module_dim(j + s + 1):
                capped_count(self.m, self.nj, j + 1, self.cap)

    def hh(self, k: int, s: int) -> HhReport:
        if k < 0:
            raise ValueError("negative cohomological degree")
        cochains = self.cochain_dim(k, s)
        cocycles = cochains - self.rank(k, s)
        coboundaries = self.rank(k - 1, s) if k >= 1 else 0
        return HhReport(k, s, cochains, cocycles, coboundaries, cocycles - coboundaries)

    # -- cochain plumbing --------------------------------------------------

    def cochain_from_bits(self, k: int, s: int, bits: int) -> Cochain:
        dim = self.module_dim(k + s)
        count = count_admissible(self.m, self.nj, k)
        mask = (1 << dim) - 1
        return Cochain(k, s, tuple((bits >> (i * dim)) & mask if dim else 0 for i in range(count)))

    def cochain_to_bits(self, f: Cochain) -> int:
        dim = self.module_dim(f.k + f.s)
        acc = 0
        for i, v in enumerate(f.values):
            acc |= v << (i * dim)
        return acc

    def zero_cochain(self, k: int, s: int) -> Cochain:
        return Cochain(k, s, (0,) * count_admissible(self.m, self.nj, k))

    def coboundary_of(self, f: Cochain) -> Cochain:
        """df(u) = u[0] f(u[1:]) + f(u[:-1]) u[-1], one output sequence at a time."""
        dim_in, dim_out = self.module_dim(f.k + f.s), self.module_dim(f.k + f.s + 1)
        if dim_in == 0 or dim_out == 0:
            return self.zero_cochain(f.k + 1, f.s)
        cols = self._action_columns(f.k + f.s)
        # image of a value under each generator, filled on demand so that a
        # wide module piece never costs 2**dim_in entries
        tables: list[dict[int, int]] = [{0: 0} for _ in cols]

        def act(g: int, v: int) -> int:
            image = tables[g].get(v)
            if image is None:
                image = 0
                for r, c in enumerate(cols[g]):
                    if c >= 0 and (v >> c) & 1:
                        image |= 1 << r
                tables[g][v] = image
            return image

        values = f.values
        links = self.links(f.k + 1)
        out = [act(g0, values[r]) ^ act(g1, values[l]) for g0, g1, r, l in zip(*links)]
        return Cochain(f.k + 1, f.s, tuple(out))

    def is_cocycle(self, f: Cochain) -> bool:
        return self.coboundary_of(f).is_zero()

    def random_cocycle(self, k: int, s: int, rng) -> Cochain:
        """Sum of a random subset of the cocycle_space basis, one bit per free component."""
        capped_count(self.m, self.nj, k, self.cap)
        diff = self.differential(k, s)
        roots, free_roots = pair_components(diff.first, diff.second, diff.n_cols)
        chosen = bytearray(diff.n_cols)
        for r in free_roots:
            chosen[r] = rng.getrandbits(1)
        dim = self.module_dim(k + s)
        values = [0] * count_admissible(self.m, self.nj, k)
        for c, r in enumerate(roots):
            if chosen[r]:
                values[c // dim] |= 1 << (c % dim)
        return Cochain(k, s, tuple(values))

    # -- bar-complex oracle --------------------------------------------------

    def bar_oracle(self, k: int, s: int, max_internal_degree: int, cap: int | None = None) -> BarReport:
        """Per-degree cohomology factors of the reduced bar cochain complex.

        Cochains of argument degree >= d form a subcomplex for every d, so the
        cohomology at truncation level top carries a decreasing filtration by
        argument degree.  Each reported factor is one graded piece of that
        filtration; the pieces sum to the cohomology of the truncated complex,
        which stabilises to the bigraded group once top passes the relevant
        degrees.  The truncation level is the largest degree whose matrix
        workload fits under the cap; if that falls short of the request the
        first unreached degree is reported in skipped_from.  A truncation
        through the last degree with cochains (only without atoms) is exact.
        """
        if k < 0:
            raise ValueError("negative cohomological degree")
        if max_internal_degree < 0:
            raise ValueError("negative internal degree")
        cap = DEFAULT_BAR_CAP if cap is None else cap
        bar = self._bar_cache.get(s)
        if bar is None:
            bar = self._bar_cache[s] = _BarComplex(self, s)
        # past the last degree with cochains nothing changes: the workload
        # stays put and every piece is zero
        last = bar.last_degree(k)
        reach = max_internal_degree if last is None else min(max_internal_degree, last)
        top = -1
        for d in range(reach + 1):
            if bar.workload(k, d) > cap:
                break
            top = d
        skipped_from = top + 1 if top < reach else None
        pieces, matrices = bar.cohomology(k, top) if top >= 0 else ([], ())
        if skipped_from is None:
            pieces += [0] * (max_internal_degree - top)
        factors = []
        cum = 0
        for d, piece in enumerate(pieces):
            cum += piece
            factors.append(BarFactor(d, cum, piece))
        exact = last is not None and top == last
        return BarReport(k, s, max_internal_degree, tuple(factors), skipped_from, matrices, exact)


@dataclass(frozen=True)
class _Layout:
    """Representative weight blocks of the q-cochains of argument degree <= top.

    Only the representative of each symmetry orbit of weight blocks is laid
    out: ids maps its weight code, in base radix, to its block number, and
    orbit[b] is the number of blocks in the orbit of block b.  A global
    column c of a representative block has index local[c] within it, and
    every other column has local[c] = -1.  Local indices keep the global
    order, so within a block they still ascend by argument degree.
    starts[d][b] counts the columns of block b of argument degree < d for
    d = 0 .. top + 1, so the last entry holds the block sizes.
    factor_codes[d] holds the weight codes of the tensor factors of degree d.
    """

    local: array
    ids: dict[int, int]
    starts: list[array]
    radix: int
    factor_codes: list[list[int]]
    orbit: array

    @property
    def sizes(self) -> array:
        return self.starts[-1]


class _BarComplex:
    """Reduced bar cochains Hom((Q+^(x)q)_e, M_(e+s)) for one shift s.

    Tensor factors are basis elements of the positive part of the coefficient
    algebra, tagged (degree, index).  Global columns of the q-th coboundary
    run through the argument degrees in ascending order, so the truncation at
    degree top is the leading run of columns and the rows of output degree
    <= top.  Within degree e, column (word number) * dim + c holds module
    coordinate c; words are numbered by _shapes and never built as tuples.

    The coboundary preserves weight.  A coordinate (word t, module coordinate
    c) has weight mdeg(c) - mdeg(t), where v_i has multidegree e_(v_i) and a
    degree-d element of coefficient block b has d e_b (a module atom counts
    toward the block that holds it).  Every truncated matrix is therefore a
    direct sum of weight blocks, a few hundred of at most a few thousand
    columns each.  _layout gives each column its index within its block.

    Permuting the v's, or coefficient blocks of equal atom count (with
    their atoms), is an automorphism of the algebra and of the module; it
    keeps argument degrees and maps the block of weight w onto that of the
    permuted weight.  So the blocks of one orbit have equal sizes, ranks and
    filtration pieces, exactly.  The representative of an orbit is the
    block whose weight digits ascend within each group of interchangeable
    positions, and it is the only block of its orbit that is laid out,
    carrying the orbit's size (_orbit).  Rows are assembled only for
    representative blocks: a row (word t, output coordinate r) lies in the
    block of code mdeg(r) - mdeg(t), so a word none of whose rows lands in a
    representative is passed over.  Rows are assembled in ascending output
    degree, one run of words of one degree composition at a time, from
    per-word terms that the run lays out once (_rows): streams for the
    first and last factor, and one table per merge position, freed with the
    run, so their memory is linear in the words of one run.
    The rows are packed on the local indices and appended to their block's
    bucket, and each bucket is eliminated on its own.  A cell assembles and
    ranks each of its matrices once, and the filtration pass reads the same
    buckets for the representatives with nonzero cohomology, counting each
    piece once per block of its orbit.
    Tensor counts are a closed form; cochain dimensions, shapes and layouts
    are memoized per instance, so a complex is freed together with its
    HochschildComplex.
    """

    def __init__(self, hc: HochschildComplex, s: int):
        self.hc = hc
        self.s = s
        # coefficient block of each module atom and the atom count of each
        # block, in one pass over the subring's masks (without a subring atom
        # a is block a), so hc.blocks is not built before the cap is checked
        if hc.subring is None:
            self._atom_block, sizes = range(hc.nj), [1] * hc.nj
        else:
            self._atom_block = {a: b for b, mask in enumerate(hc.subring.blocks) for a in _bits(mask)}
            sizes = [mask.bit_count() for mask in hc.subring.blocks]
        # weight digit positions that a symmetry permutes among themselves:
        # the blocks of each atom count, then the v's
        self._groups = [[b for b, n in enumerate(sizes) if n == size] for size in sorted(set(sizes))]
        self._groups.append(list(range(hc.nj, hc.nj + hc.m)))
        self._dim_cache: dict = {}
        self._shape_cache: dict = {(0, 0): {(): (0, ())}}
        self._layout_cache: dict = {}

    def q_dim(self, e: int) -> int:
        if e < 1:
            return 0
        if e == 1:
            return self.hc.m + self.hc.nj
        return self.hc.nj

    def tensor_count(self, q: int, e: int) -> int:
        """Number of q-factor words of degree e, in closed form.

        r factors have degree 1 (q_dim(1) choices each), and the other
        q - r split the rest of the degree, e - r, into parts >= 2 (nj
        choices each): C(e - q - 1, q - r - 1) ways, nonzero for r >= 2q - e.
        """
        if e <= q:
            return self.q_dim(1) ** q if e == q else 0
        n1, nj = self.q_dim(1), self.hc.nj
        return sum(
            comb(q, r) * comb(e - q - 1, q - r - 1) * n1**r * nj ** (q - r)
            for r in range(max(2 * q - e, 0), q)
        )

    def last_degree(self, k: int) -> int | None:
        """Last argument degree with q-cochains for some q in k-1 .. k+1
        (-1: none), or None when every degree has them.

        With blocks the module and the words of q >= 1 factors are nonzero
        in every degree from q on.  Without them every factor is a v of
        degree 1, so a q-factor word has degree q.
        """
        if self.hc.nj:
            return None
        qs = range(max(k - 1, 0), k + 2)
        dim = self.hc.module_dim
        return max((q for q in qs if self.tensor_count(q, q) * dim(q + self.s)), default=-1)

    def _shapes(self, q: int, e: int) -> dict[tuple, tuple[int, tuple]]:
        """Degree composition (d_1 .. d_q) -> (first word, radices) of its run.

        The q-factor words of degree e run through the compositions of e that
        have words, in lexicographic order; within a run a word is the
        mixed-radix number of its factor indices, radix q_dim(d_j) at place j.
        The runs of p factors are built from those of p - 1, in a loop over
        p, for the degrees p .. p + (e - q) that a p-factor tail can have.
        """
        cache = self._shape_cache  # holds the empty word's run from the start
        if (q, e) in cache:
            return cache[(q, e)]
        for p in range(1, q + 1):
            for total in range(p, p + e - q + 1):
                if (p, total) in cache:
                    continue
                runs = cache[(p, total)] = {}
                start = 0
                for d1 in range(1, total - p + 2):
                    n = self.q_dim(d1)
                    if not n:
                        continue
                    for rest, (_, radices) in cache.get((p - 1, total - d1), {}).items():
                        runs[(d1,) + rest] = (start, (n,) + radices)
                        start += n * prod(radices)
        return cache.get((q, e), {})

    def cochain_dim(self, q: int, d: int) -> int:
        """Dimension of the q-cochains of argument degree <= d."""
        sums = self._dim_cache.setdefault(q, [0])  # sums[e + 1]: degrees <= e, extended in a loop
        while len(sums) <= d + 1:
            e = len(sums) - 1
            sums.append(sums[-1] + self.tensor_count(q, e) * self.hc.module_dim(e + self.s))
        return sums[max(d + 1, 0)]

    def workload(self, k: int, d: int) -> int:
        """Node count of the largest matrix needed for cohomology at (k, <=d)."""
        dims = [self.cochain_dim(q, d) for q in range(max(k - 1, 0), k + 2)]
        out = 0
        for a, b in zip(dims, dims[1:]):
            out = max(out, a + b)
        return out

    def _factor_element(self, d: int, i: int) -> GradedElement:
        """Tensor factor i of degree d: generator i in degree 1, else block i."""
        if d == 1:
            return self.hc.generator_element(i)
        return self.hc.alg.element(d, self.hc.blocks[i])

    # -- weight blocks -------------------------------------------------------

    def _weight_code(self, x: GradedElement, radix: int) -> int:
        """Integer code of the multidegree of a basis element or a block.

        The multidegree's components are digits in base radix, the blocks
        first and then the v's.  Weights have digits of absolute value below
        radix / 2, so the code of a weight determines it, and the code of a
        difference is the difference of the codes.
        """
        if x.degree == 0:
            return 0
        alg = self.hc.alg
        code = sum(radix ** (self.hc.nj + i) for i in _bits(alg.v_part(x)))
        atoms = alg.atom_part(x)
        if atoms:
            code += x.degree * radix ** self._atom_block[(atoms & -atoms).bit_length() - 1]
        return code

    def _module_codes(self, j: int, radix: int) -> list[int]:
        """Weight code of each basis element of the degree-j module piece."""
        basis = (self.hc.alg.element(j, 1 << c) for c in range(self.hc.module_dim(j)))
        return [self._weight_code(x, radix) for x in basis]

    def _orbit(self, code: int, radix: int) -> int:
        """Size of the symmetry orbit of the block of weight code if its
        digits ascend within each group of interchangeable positions, which
        makes it the orbit's representative, and 0 otherwise.  The orbit is
        the distinct permutations of the digits within each group."""
        digits = []
        for _ in range(self.hc.nj + self.hc.m):
            d = (code + radix // 2) % radix - radix // 2
            digits.append(d)
            code = (code - d) // radix
        size = 1
        for group in self._groups:
            run = [digits[p] for p in group]
            if run != sorted(run):
                return 0
            size *= factorial(len(run)) // prod(factorial(len(list(g))) for _, g in groupby(run))
        return size

    def _layout(self, q: int, top: int) -> _Layout:
        """Representative weight blocks of the q-cochains up to degree top,
        and the local index of each of their columns.

        One counting pass in global column order: a column of a
        representative block takes the number of columns that joined its
        block before it as its local index, and any other column gets -1.
        The columns of one word share its weight code, so which of them land
        in a representative block, and in which, is found once per code and
        degree.  Weight digits lie in [-top, top + s], and v digits in
        [-top, 1], so radix 2 (top + |s|) + 3 keeps the codes apart.
        """
        key = (q, top)
        hit = self._layout_cache.get(key)
        if hit is not None:
            return hit
        radix = 2 * (top + abs(self.s)) + 3
        factor_codes = [
            [self._weight_code(self._factor_element(d, i), radix) for i in range(self.q_dim(d))]
            for d in range(top + 1)
        ]
        sizes: dict[int, int] = {}  # weight code -> _orbit
        counts: dict[int, int] = {}  # representative weight code -> its columns so far
        local = array(index_code(self.cochain_dim(q, top)))
        starts = []
        for e in range(top + 1):
            starts.append(list(counts.values()))
            module = self._module_codes(e + self.s, radix)
            if not module:
                continue
            absent = array(local.typecode, [-1]) * len(module)
            picked: dict[int, list] = {}  # word code -> (c - len(module), w) of its kept columns
            for comp in self._shapes(q, e):
                for word in _word_codes(comp, factor_codes):
                    pick = picked.get(word)
                    if pick is None:
                        pick = picked[word] = []
                        for c, c_code in enumerate(module, -len(module)):
                            w = c_code - word
                            if w not in sizes:
                                sizes[w] = self._orbit(w, radix)
                            if sizes[w]:
                                pick.append((c, w))
                    local.extend(absent)
                    for c, w in pick:
                        i = local[c] = counts.get(w, 0)
                        counts[w] = i + 1
        starts.append(list(counts.values()))
        starts = [array("i", s + [0] * (len(counts) - len(s))) for s in starts]
        ids = {w: b for b, w in enumerate(counts)}
        hit = _Layout(local, ids, starts, radix, factor_codes, array("i", map(sizes.__getitem__, counts)))
        self._layout_cache[key] = hit
        return hit

    # -- rows and ranks ------------------------------------------------------

    def _rows(self, q: int, e: int, layout: _Layout) -> Iterator[tuple[int, int]]:
        """(block, row) for each nonzero row of the q-th coboundary of output
        degree e that lies in a representative block, in word order.

        One walk over the (q+1)-factor words w of degree e, run by run of
        their degree composition.  All entries of row (w, r) lie in the block
        of code mdeg(r) - mdeg(w), so each word picks its output coordinates
        r whose block is a representative, and a word with none is passed
        over.  The rest depends only on the number v of w in its run, so each
        run lays out its per-word terms once, with no Python step per word:
        - outer terms: the first factor, digit v // (run / radix_0), acts
          on the value at w[1:], and the last, digit v % radix_q, at
          w[:-1].  The numbers of w[1:] repeat with period run / radix_0
          and those of w[:-1] rise every radix_q words, so the factor's
          action (None if it acts as zero) and the truncation's base column
          are itertools streams over ranges, and take no memory per word.
        - inner terms: adjacent factors merge only within one block b (a v
          kills everything, distinct blocks are orthogonal), and a merge at
          i puts digit b (radix nj) in place of digits i, i+1, with the
          module coordinate unchanged.  A table per position i holds the
          merged word's base column, or -1.  The words whose digits i, i+1
          both name block b form a grid of leading by trailing index, filled
          by slice assignment one range per line along the shorter side.
        The kept words then zip their entries, and each row is packed on the
        local column indices of its weight block with at most 2 + q lookups;
        repeated entries cancel mod 2.  The q merge tables hold one entry per
        word of the run, so the transient memory is linear in the longest
        run.
        """
        hc, m, nj = self.hc, self.hc.m, self.hc.nj
        dim_out = hc.module_dim(e + self.s)
        if not dim_out or not self.tensor_count(q + 1, e):
            return
        local = layout.local
        module = self._module_codes(e + self.s, layout.radix)
        picked: dict[int, list[tuple[int, int]]] = {}  # word code -> (r, block) of its rows
        # per factor degree d: the start of the input degree run its factors
        # read, that run's module dimension, and per factor index the input
        # column of each output coordinate (None for a factor acting as zero;
        # on a zero input piece every factor is, and the dimension 1 there
        # only keeps the unread base column ranges valid)
        acting = {}
        for d in range(1, e + 1):
            j = e - d + self.s
            tables = (action(hc.alg, self._factor_element(d, i), j) for i in range(self.q_dim(d)))
            acts = [cols if max(cols) >= 0 else None for cols in tables]
            acting[d] = self.cochain_dim(q, e - d - 1), hc.module_dim(j) or 1, acts
        base_off = self.cochain_dim(q, e - 1)
        merged = self._shapes(q, e)
        for comp, (_, radices) in self._shapes(q + 1, e).items():
            codes = _word_codes(comp, layout.factor_codes)
            for w in set(codes).difference(picked):
                picked[w] = [(r, layout.ids[c - w]) for r, c in enumerate(module) if c - w in layout.ids]
            picks = list(map(picked.__getitem__, codes))
            if not any(picks):
                continue
            n = len(codes)
            head = self._shapes(q, e - comp[0])[comp[1:]][0]
            tail = self._shapes(q, e - comp[-1])[comp[:-1]][0]
            # outer terms, streamed over the run: word v's first factor is its
            # digit v // hm, acting at w[1:] = head + v % hm, and its last is
            # digit v % radix, acting at w[:-1] = tail + v // radix
            off, dim, acts = acting[comp[0]]
            hm = n // radices[0]
            bases = range(off + head * dim, off + (head + hm) * dim, dim)
            firsts = chain.from_iterable(map(repeat, acts, repeat(hm)))
            first_bases = chain.from_iterable(repeat(bases, radices[0]))
            off, dim, acts = acting[comp[-1]]
            bases = range(off + tail * dim, off + (tail + n // radices[-1]) * dim, dim)
            lasts, last_bases = cycle(acts), chain.from_iterable(map(repeat, bases, repeat(radices[-1])))
            inner = []  # per merge position, the merged base column of each word or -1
            for i in range(q if nj else 0):
                lo = prod(radices[i + 2 :])
                span = radices[i] * radices[i + 1] * lo
                lead, step = n // span, nj * lo * dim_out
                start = merged[comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2 :]][0]
                off1, off2 = (m if d == 1 else 0 for d in comp[i : i + 2])
                table = [-1] * n
                for b in range(nj):
                    # word v0 + h * span + t merges into base u0 + h * step + t * dim_out
                    v0 = ((b + off1) * radices[i + 1] + b + off2) * lo
                    u0 = base_off + (start + b * lo) * dim_out
                    if lead <= lo:
                        for h in range(lead):
                            v, u = v0 + h * span, u0 + h * step
                            table[v : v + lo] = range(u, u + lo * dim_out, dim_out)
                    else:
                        for t in range(lo):
                            u = u0 + t * dim_out
                            table[v0 + t :: span] = range(u, u + lead * step, step)
                inner.append(table)
            inner_bases = zip(*inner) if inner else repeat(())
            words = zip(picks, firsts, first_bases, lasts, last_bases, inner_bases)
            for pick, first, first_base, last, last_base, merges in compress(words, picks):
                for r, b in pick:
                    packed = 0
                    if first:
                        c = first[r]
                        if c >= 0:
                            packed ^= 1 << local[first_base + c]
                    if last:
                        c = last[r]
                        if c >= 0:
                            packed ^= 1 << local[last_base + c]
                    for u in merges:
                        if u >= 0:
                            packed ^= 1 << local[u + r]
                    if packed:
                        yield b, packed

    def _block_ranks(self, q: int, top: int) -> tuple[array, list[list[int]], list[array]]:
        """Rank of the q-th coboundary truncated at top on each
        representative weight block of the q-cochains, with the rows it was
        read from.

        The rows go into one bucket per representative block, in ascending
        output degree; ends[e][b] is the length of bucket b once the rows of
        output degree e are in, and no row is wider than its block.  One
        echelon_rank per nonempty bucket.
        """
        layout = self._layout(q, top)
        buckets: list[list[int]] = [[] for _ in layout.orbit]
        ends = []
        for e in range(top + 1):
            for b, packed in self._rows(q, e, layout):
                buckets[b].append(packed)
            ends.append(array("i", map(len, buckets)))
        return array("i", [echelon_rank(rows) if rows else 0 for rows in buckets]), buckets, ends

    # -- cohomology ----------------------------------------------------------

    def cohomology(self, k: int, top: int) -> tuple[list[int], tuple[BarBlocks, ...]]:
        """Argument-degree graded pieces of H^k at truncation top, and the
        weight-block shape of the matrices eliminated for them, ascending q.

        Block b of the k-cochains carries cocycles minus coboundaries: its
        size, less the rank of the k-th coboundary on it, less the rank of
        the (k-1)-th on the block of the same weight below.

        Cochains supported in degrees >= d form a subcomplex (the coboundary
        never lowers argument degree); the dimensions of the induced
        decreasing filtration on cohomology difference to one piece per
        degree, and the pieces sum to the truncated cohomology.  The
        filtration is the sum of those of the weight blocks, and a block with
        zero cohomology has every piece zero, so only the representatives
        with nonzero cohomology are read, each counted once per block of its
        orbit, as are the block counts of BarBlocks.  The (k-1)-block below a
        representative has the same weight code, so it is a representative
        too.

        One more pass over a block's rows gives every floor at once.  The
        cocycles of degree >= d are the kernel of the k-th coboundary on the
        block's columns from degree d on, whose rank is the number of
        highest-bit pivots at or above the first of them.  The coboundaries
        meeting them are the image of the (k-1)-th coboundary minus the
        image of its rows of output degree < d, whose rank is read off after
        inserting the rows degree by degree.  Both passes read the rows
        assembled for the ranks, so a cell assembles and ranks each matrix
        once.
        """
        layout = self._layout(k, top)
        pieces = [0] * (top + 1)
        if not layout.local:
            return pieces, ()
        ranks_out, rows_out, _ = self._block_ranks(k, top)
        h = [size - r for size, r in zip(layout.sizes, ranks_out)]
        lower = {}  # k-block -> the (k-1)-block of the same weight
        if k >= 1:
            ranks_in, rows_in, ends = self._block_ranks(k - 1, top)
            for w, b_in in self._layout(k - 1, top).ids.items():
                b = layout.ids.get(w)
                if b is not None:
                    lower[b] = b_in
                    h[b] -= ranks_in[b_in]
        blocks = [b for b, left in enumerate(h) if left]
        orbit = layout.orbit
        read = {k - 1: sum(orbit[b] for b in blocks if b in lower), k: sum(orbit[b] for b in blocks)}
        matrices = []
        for q in range(max(k - 1, 0), k + 1):
            shape = self._layout(q, top)
            widest = max(shape.sizes, default=0)
            columns = len(shape.local)
            matrices.append(BarBlocks(q, columns, sum(shape.orbit), widest, read[q], len(shape.orbit)))
        for b in blocks:
            basis = EchelonBasis()
            basis.extend(rows_out[b])
            pivots = basis.pivots()
            # below[d]: rank of the block's rows of the (k-1)-th coboundary of output degree < d
            below = [0] * (top + 2)
            b_in = lower.get(b)
            if b_in is not None:
                basis = EchelonBasis()
                rows, start = rows_in[b_in], 0
                for e in range(top + 1):
                    basis.extend(rows[start : ends[e][b_in]])
                    start = ends[e][b_in]
                    below[e + 1] = basis.rank
            filtered = []
            for d in range(top + 2):
                floor = layout.starts[d][b]
                cocycles = layout.sizes[b] - floor - (len(pivots) - bisect_left(pivots, floor))
                filtered.append(cocycles - (below[top + 1] - below[d]))
            for d in range(top + 1):
                pieces[d] += orbit[b] * (filtered[d] - filtered[d + 1])
        return pieces, tuple(matrices)


def _word_codes(comp: tuple, factor_codes: list[list[int]]) -> list[int]:
    """Weight code of each word of one composition run, in word order: the
    sum of its factor codes, built in mixed radix one factor at a time."""
    codes = [0]
    for d in comp:
        codes = [c + f for c in codes for f in factor_codes[d]]
    return codes


def kadeishvili_check(
    alg: ConnectedSumAlgebra, max_k: int, subring: Subring | None = None, cap: int | None = None
) -> KadeishviliReport:
    """Vanishing of every obstruction bidegree (k, 2-k), 3 <= k <= max_k."""
    if max_k < 3:
        raise ValueError("the obstruction range starts at k = 3")
    hc = HochschildComplex(alg, subring, cap)
    for k in range(3, max_k + 1):
        hc.check_caps(k, 2 - k)
    rows = tuple(hc.hh(k, 2 - k) for k in range(3, max_k + 1))
    failures = tuple((r.k, r.s, r.cohomology) for r in rows if r.cohomology)
    return KadeishviliReport(max_k, not failures, failures, rows)
