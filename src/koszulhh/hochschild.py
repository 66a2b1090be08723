"""Bigraded Hochschild cohomology via the reduced Koszul cochain complex.

Cochains of bidegree (k, s) are maps from admissible length-k sequences to
the degree-(k+s) piece of the module algebra; the differential multiplies
the first and last sequence entries into the value.  Every row of the
differential touches at most two coordinates (each end contributes at most
one basis element), so it is stored as two column indices per row, and
ranks and kernels reduce to union-find on the coordinate graph.  Memory is
linear in the cochain dimension; the (v_dim, atoms) = (2, 4) grid through
k = 7 runs in about 200 MB.  Coboundaries of single cochains are computed
sequence by sequence without building the matrix.

The coefficient algebra may be built on a subring of the module's Boolean
ring: sequences then run over the subring's blocks, which act on the module
by their atom masks.

A reduced bar-complex oracle recomputes the same cohomology independently,
internal degree by internal degree, as a cross-check on the Koszul route.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

from .algebra import ConnectedSumAlgebra, GradedElement, Subring
from .caps import bar_cap, default_cap
from .errors import CapExceeded
from .gf2 import BitMatrix, echelon_rank
from .koszul import admissible_tuples, count_admissible


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
class BarReport:
    k: int
    s: int
    max_internal_degree: int
    factors: tuple[BarFactor, ...]
    skipped_from: int | None  # smallest degree the cap kept out of the truncation

    @property
    def total(self) -> int:
        return self.factors[-1].cumulative if self.factors else 0


class _DSU:
    """Union-find over column indices, for rank/kernel of two-per-row matrices."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class SparseDifferential:
    """A GF(2) matrix with at most two entries per row, stored as column pairs.

    Row i has its entries at columns first[i] and second[i]; -1 marks an
    absent entry, and the two are never equal.  Storage is 16 bytes per row,
    so memory is linear in the cochain dimension.
    """

    first: array
    second: array
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.first)

    def to_bitmatrix(self) -> BitMatrix:
        """Dense row bitmasks; only for small matrices."""
        rows = []
        for a, b in zip(self.first, self.second):
            row = 0
            if a >= 0:
                row |= 1 << a
            if b >= 0:
                row |= 1 << b
            rows.append(row)
        return BitMatrix(rows, self.n_cols)


def _action_rows(alg: ConnectedSumAlgebra, is_v: bool, payload: int, elt_deg: int, src_deg: int):
    """Rows of multiplication by a basis element, module piece src -> src+elt.

    payload is the v-generator index or the atom mask.  Row r is the input
    bitmask producing output coordinate r; each row has at most one bit.
    """
    out_dim = alg.graded_dim(src_deg + elt_deg)
    rows = [0] * out_dim
    if src_deg == 0:
        if is_v:
            rows[payload] = 1
        else:
            shift = alg.v_dim if src_deg + elt_deg == 1 else 0
            for a in _bits(payload):
                rows[shift + a] = 1
        return rows
    if is_v:
        return rows
    in_shift = alg.v_dim if src_deg == 1 else 0
    out_shift = alg.v_dim if src_deg + elt_deg == 1 else 0
    for a in _bits(payload):
        rows[out_shift + a] = 1 << (in_shift + a)
    return rows


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
    atom masks.
    """

    def __init__(self, alg: ConnectedSumAlgebra, subring: Subring | None = None, cap: int | None = None):
        if subring is not None:
            if alg.ring is None:
                raise ValueError("subring given but the algebra has no Boolean part")
            if subring.ambient != alg.ring:
                raise ValueError("subring belongs to a different Boolean ring")
        self.alg = alg
        self.subring = subring
        self.cap = default_cap() if cap is None else cap
        if subring is not None:
            self.blocks = subring.blocks
        elif alg.ring is not None:
            self.blocks = tuple(1 << i for i in range(alg.ring.atom_count))
        else:
            self.blocks = ()
        self.m = alg.v_dim
        self.nj = len(self.blocks)
        self._rank_cache: dict = {}
        self._index_cache: dict[int, dict] = {}
        self._bar_cache: dict = {}

    # -- coefficient generators ------------------------------------------

    @property
    def generator_count(self) -> int:
        return self.m + self.nj

    def is_v(self, g: int) -> bool:
        return g < self.m

    def generator_mask(self, g: int) -> int:
        """Boolean projection of a generator: 0 for v, the block mask for atoms."""
        return 0 if g < self.m else self.blocks[g - self.m]

    def generator_element(self, g: int) -> GradedElement:
        if g < self.m:
            return self.alg.element(1, 1 << g)
        return self.alg.from_parts(1, 0, self.blocks[g - self.m])

    def generator_label(self, g: int) -> str:
        return f"v{g + 1}" if g < self.m else f"x{g - self.m + 1}"

    def sequences(self, k: int) -> tuple[tuple[int, ...], ...]:
        needed = count_admissible(self.m, self.nj, k)
        if needed > self.cap:
            raise CapExceeded("admissible sequence enumeration", needed, self.cap)
        return admissible_tuples(self.m, self.nj, k)

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
        cols = []
        for g in range(self.generator_count):
            payload = g if g < self.m else self.generator_mask(g)
            rows = _action_rows(self.alg, self.is_v(g), payload, 1, j)
            cols.append([row.bit_length() - 1 for row in rows])
        return cols

    def differential(self, k: int, s: int) -> SparseDifferential:
        """Matrix of the coboundary from bidegree (k, s) to (k+1, s).

        Row (u, r) is coordinate r of df(u) = u[0] f(u[1:]) + f(u[:-1]) u[-1].
        Each term contributes at most one column; the two coincide only for a
        constant sequence, where they cancel and the row is empty.
        """
        dim_in, dim_out = self.module_dim(k + s), self.module_dim(k + s + 1)
        n_cols = count_admissible(self.m, self.nj, k) * dim_in
        if dim_in == 0 or dim_out == 0:
            empty = array("q", [-1]) * (count_admissible(self.m, self.nj, k + 1) * dim_out)
            return SparseDifferential(empty, array("q", empty), n_cols)
        offset = {t: i * dim_in for i, t in enumerate(self.sequences(k))}
        cols = self._action_columns(k + s)
        absent = [-1] * dim_out
        first = array("q")
        second = array("q")
        for u in self.sequences(k + 1):
            off_r = offset[u[1:]]
            off_l = offset[u[:-1]]
            if off_r == off_l:
                first.extend(absent)
                second.extend(absent)
                continue
            first.extend([off_r + c if c >= 0 else -1 for c in cols[u[0]]])
            second.extend([off_l + c if c >= 0 else -1 for c in cols[u[-1]]])
        return SparseDifferential(first, second, n_cols)

    def rank(self, k: int, s: int) -> int:
        j = k + s
        key = (k, min(j, 2))
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        diff = self.differential(k, s)
        _, free_roots = self._components(diff)
        r = diff.n_cols - len(free_roots)
        self._rank_cache[key] = r
        return r

    @staticmethod
    def _components(diff: SparseDifferential) -> tuple[_DSU, list[int]]:
        """Union-find over the columns: a two-entry row joins its columns, a
        one-entry row forces its column to zero.  Returns the union-find and
        the roots of the components no row forces, one kernel vector each.
        """
        n = diff.n_cols
        dsu = _DSU(n)
        forced = bytearray(n)
        for a, b in zip(diff.first, diff.second):
            if a < 0:
                if b >= 0:
                    forced[b] = 1
            elif b < 0:
                forced[a] = 1
            else:
                dsu.union(a, b)
        roots_forced = bytearray(n)
        for c in range(n):
            if forced[c]:
                roots_forced[dsu.find(c)] = 1
        free_roots = [c for c in range(n) if dsu.find(c) == c and not roots_forced[c]]
        return dsu, free_roots

    def cocycle_space(self, k: int, s: int) -> list[int]:
        """Kernel basis of the coboundary as flat column bitmasks."""
        diff = self.differential(k, s)
        dsu, free_roots = self._components(diff)
        members: dict[int, list[int]] = {r: [] for r in free_roots}
        for c in range(diff.n_cols):
            group = members.get(dsu.find(c))
            if group is not None:
                group.append(c)
        return [_column_mask(cs) for cs in members.values()]

    def hh(self, k: int, s: int) -> HhReport:
        if k < 0:
            raise ValueError("negative cohomological degree")
        cochains = self.cochain_dim(k, s)
        rank_out = self.rank(k, s) if cochains else 0
        cocycles = cochains - rank_out
        coboundaries = self.rank(k - 1, s) if k >= 1 else 0
        return HhReport(k, s, cochains, cocycles, coboundaries, cocycles - coboundaries)

    # -- cochain plumbing --------------------------------------------------

    def cochain_from_bits(self, k: int, s: int, bits: int) -> Cochain:
        dim = self.module_dim(k + s) if k + s >= 0 else 0
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

        index = self.sequence_index(f.k)
        values = f.values
        out = [
            act(u[0], values[index[u[1:]]]) ^ act(u[-1], values[index[u[:-1]]])
            for u in self.sequences(f.k + 1)
        ]
        return Cochain(f.k + 1, f.s, tuple(out))

    def is_cocycle(self, f: Cochain) -> bool:
        return self.coboundary_of(f).is_zero()

    def random_cocycle(self, k: int, s: int, rng) -> Cochain:
        basis = self.cocycle_space(k, s)
        bits = 0
        for v in basis:
            if rng.getrandbits(1):
                bits ^= v
        return self.cochain_from_bits(k, s, bits)

    def sequence_index(self, k: int) -> dict:
        hit = self._index_cache.get(k)
        if hit is None:
            hit = {t: i for i, t in enumerate(self.sequences(k))}
            self._index_cache[k] = hit
        return hit

    def value(self, f: Cochain, seq: tuple[int, ...]) -> GradedElement:
        return self.alg.element(f.k + f.s, f.values[self.sequence_index(f.k)[seq]])

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
        first unreached degree is reported in skipped_from.
        """
        if max_internal_degree < 0:
            raise ValueError("negative internal degree")
        cap = bar_cap() if cap is None else cap
        bar = self._bar_cache.get(s)
        if bar is None:
            bar = _BarComplex(self, s)
            self._bar_cache[s] = bar
        top = -1
        for d in range(max_internal_degree + 1):
            if bar.workload(k, d) > cap:
                break
            top = d
        skipped_from = top + 1 if top < max_internal_degree else None
        factors = []
        if top >= 0:
            cum = 0
            for d, piece in enumerate(bar.graded_cohomology(k, top)):
                cum += piece
                factors.append(BarFactor(d, cum, piece))
        return BarReport(k, s, max_internal_degree, tuple(factors), skipped_from)


class _BarComplex:
    """Reduced bar cochains Hom((Q+^(x)q)_e, M_(e+s)) for one shift s.

    Tensor factors are basis elements of the positive part of the coefficient
    algebra, tagged (degree, index).  Ranks of the degree-truncated
    differentials are cached per (q, d).
    """

    def __init__(self, hc: HochschildComplex, s: int):
        self.hc = hc
        self.s = s
        self._rank_cache: dict = {}
        self._rows_cache: dict = {}
        self._basis_cache: dict = {}

    def q_dim(self, e: int) -> int:
        if e < 1:
            return 0
        if e == 1:
            return self.hc.m + self.hc.nj
        return self.hc.nj

    @lru_cache(maxsize=None)
    def tensor_count(self, q: int, e: int) -> int:
        if q == 0:
            return 1 if e == 0 else 0
        return sum(self.q_dim(d1) * self.tensor_count(q - 1, e - d1) for d1 in range(1, e + 1))

    def basis(self, q: int, e: int) -> list[tuple]:
        key = (q, e)
        hit = self._basis_cache.get(key)
        if hit is not None:
            return hit
        if q == 0:
            out = [()] if e == 0 else []
        else:
            out = []
            for d1 in range(1, e - q + 2):
                for i in range(self.q_dim(d1)):
                    head = (d1, i)
                    for rest in self.basis(q - 1, e - d1):
                        out.append((head,) + rest)
        self._basis_cache[key] = out
        return out

    def module_dim(self, j: int) -> int:
        return self.hc.alg.graded_dim(j) if j >= 0 else 0

    def cochain_dim(self, q: int, d: int) -> int:
        return sum(self.tensor_count(q, e) * self.module_dim(e + self.s) for e in range(d + 1))

    def workload(self, k: int, d: int) -> int:
        """Node count of the largest matrix needed for cohomology at (k, <=d)."""
        dims = [self.cochain_dim(q, d) for q in range(max(k - 1, 0), k + 2)]
        out = 0
        for a, b in zip(dims, dims[1:]):
            out = max(out, a + b)
        return out

    def _factor_mask(self, factor: tuple[int, int]):
        """(is_v, payload) of a tensor factor."""
        d1, i = factor
        if d1 == 1 and i < self.hc.m:
            return True, i
        b = i - self.hc.m if d1 == 1 else i
        return False, self.hc.blocks[b]

    def _product(self, f1: tuple[int, int], f2: tuple[int, int]):
        v1, p1 = self._factor_mask(f1)
        v2, p2 = self._factor_mask(f2)
        if v1 or v2:
            return None
        if p1 != p2:
            return None
        b = f1[1] - self.hc.m if f1[0] == 1 else f1[1]
        return (f1[0] + f2[0], b)

    def block_offset(self, q: int, e: int) -> int:
        """Flat column offset of the degree-e block: cumulative lower-degree dims."""
        return self.cochain_dim(q, e - 1) if e >= 1 else 0

    def index_map(self, q: int, e: int) -> dict:
        key = ("idx", q, e)
        hit = self._basis_cache.get(key)
        if hit is None:
            hit = {t: i for i, t in enumerate(self.basis(q, e))}
            self._basis_cache[key] = hit
        return hit

    def rows_for_degree(self, q: int, e: int) -> list[list[int]]:
        """Rows of the bar coboundary with output argument degree exactly e.

        Column indices use the absolute degree-graded layout (blocks in
        ascending argument degree), so the rows for degrees <= d assemble the
        truncated differential for every d.  Entries are column-index lists;
        repeated entries cancel mod 2 when rows are packed into bitmasks.
        """
        key = (q, e)
        hit = self._rows_cache.get(key)
        if hit is not None:
            return hit
        alg = self.hc.alg
        dim_out = self.module_dim(e + self.s)
        rows_e: list[list[int]] = []
        if dim_out and self.tensor_count(q + 1, e):
            for w in self.basis(q + 1, e):
                per_coord: list[list[int]] = [[] for _ in range(dim_out)]
                # outer terms: first factor acts on the right-truncated input,
                # last factor on the left-truncated input
                for w_act, rest in ((w[0], w[1:]), (w[-1], w[:-1])):
                    e_in = e - w_act[0]
                    dim_in = self.module_dim(e_in + self.s)
                    if dim_in == 0:
                        continue
                    idx = self.index_map(q, e_in).get(rest)
                    if idx is None:
                        continue
                    is_v, payload = self._factor_mask(w_act)
                    act = _action_rows(alg, is_v, payload, w_act[0], e_in + self.s)
                    base = self.block_offset(q, e_in) + idx * dim_in
                    for r in range(dim_out):
                        if act[r]:
                            per_coord[r].append(base + (act[r].bit_length() - 1))
                # inner terms: merge adjacent factors, module coordinate unchanged
                base_off = self.block_offset(q, e)
                for i in range(q):
                    prod = self._product(w[i], w[i + 1])
                    if prod is None:
                        continue
                    u = w[:i] + (prod,) + w[i + 2 :]
                    idx = self.index_map(q, e).get(u)
                    if idx is None:
                        continue
                    base = base_off + idx * dim_out
                    for r in range(dim_out):
                        per_coord[r].append(base + r)
                rows_e.extend(per_coord)
        self._rows_cache[key] = rows_e
        return rows_e

    def _packed_rows(self, q: int, e_lo: int, e_hi: int, col_floor: int):
        """Yield bitmask rows for output degrees in [e_lo, e_hi], high degrees first.

        Entries below col_floor are dropped (column restriction); descending
        order keeps the echelon basis banded during elimination.
        """
        for e in range(e_hi, e_lo - 1, -1):
            for entries in self.rows_for_degree(q, e):
                acc = 0
                for c in entries:
                    if c >= col_floor:
                        acc ^= 1 << c
                if acc:
                    yield acc

    def rank_cols_from(self, q: int, d_lo: int, top: int) -> int:
        """Rank of the coboundary restricted to inputs of argument degree >= d_lo.

        Outputs are truncated at degree top.  Rows with output degree below
        d_lo cannot touch the surviving columns and are skipped.
        """
        if q < 0:
            return 0
        key = ("ge", q, d_lo, top)
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        r = echelon_rank(self._packed_rows(q, d_lo, top, self.block_offset(q, d_lo)))
        self._rank_cache[key] = r
        return r

    def rank_rows_below(self, q: int, d_hi: int, top: int) -> int:
        """Rank of the output components of argument degree < d_hi."""
        if q < 0 or d_hi <= 0:
            return 0
        key = ("lt", q, d_hi, top)
        hit = self._rank_cache.get(key)
        if hit is not None:
            return hit
        r = echelon_rank(self._packed_rows(q, 0, min(d_hi - 1, top), 0))
        self._rank_cache[key] = r
        return r

    def rank(self, q: int, d: int) -> int:
        """Rank of the coboundary on cochains supported in argument degrees <= d."""
        return self.rank_cols_from(q, 0, d)

    def cohomology(self, k: int, d: int) -> int:
        dim_k = self.cochain_dim(k, d)
        if dim_k == 0:
            return 0
        r_out = self.rank(k, d)
        r_in = self.rank(k - 1, d) if k >= 1 else 0
        return dim_k - r_out - r_in

    def graded_cohomology(self, k: int, top: int) -> list[int]:
        """Argument-degree graded pieces of H^k at truncation top.

        Cochains supported in degrees >= d form a subcomplex (the coboundary
        never lowers argument degree); the dimensions of the induced
        decreasing filtration on cohomology difference to one piece per
        degree, and the pieces sum to the truncated cohomology.  A zero
        cohomology group forces every piece to zero without further ranks.
        """
        dim_k = self.cochain_dim(k, top)
        if dim_k == 0:
            return [0] * (top + 1)
        r_in_full = self.rank(k - 1, top) if k >= 1 else 0
        total = dim_k - self.rank(k, top) - r_in_full
        if total == 0:
            return [0] * (top + 1)
        filtered = []
        for d in range(top + 2):
            n_cols = dim_k - self.block_offset(k, d)
            z = n_cols - self.rank_cols_from(k, d, top)
            b = r_in_full - self.rank_rows_below(k - 1, d, top) if k >= 1 else 0
            filtered.append(z - b)
        return [filtered[d] - filtered[d + 1] for d in range(top + 1)]


def cochain_differential(
    alg: ConnectedSumAlgebra, k: int, s: int, subring: Subring | None = None
) -> BitMatrix:
    return HochschildComplex(alg, subring).differential(k, s).to_bitmatrix()


def hh_dim(alg: ConnectedSumAlgebra, k: int, s: int, subring: Subring | None = None) -> int:
    return HochschildComplex(alg, subring).hh(k, s).cohomology


def kadeishvili_check(
    alg: ConnectedSumAlgebra, max_k: int, subring: Subring | None = None
) -> KadeishviliReport:
    """Vanishing of every obstruction bidegree (k, 2-k), 3 <= k <= max_k."""
    if max_k < 3:
        raise ValueError("the obstruction range starts at k = 3")
    hc = HochschildComplex(alg, subring)
    failures = []
    for k in range(3, max_k + 1):
        rep = hc.hh(k, 2 - k)
        if rep.cohomology != 0:
            failures.append((k, 2 - k, rep.cohomology))
    return KadeishviliReport(max_k, not failures, tuple(failures))


def hh_bar_oracle(
    alg: ConnectedSumAlgebra,
    k: int,
    s: int,
    max_internal_degree: int,
    subring: Subring | None = None,
    cap: int | None = None,
) -> BarReport:
    return HochschildComplex(alg, subring).bar_oracle(k, s, max_internal_degree, cap)
